"""Byte-level pins on the persisted store format.

A fixed-seed store is built, then updated with removals under
``compact_dead_fraction=0.0`` (so pattern renumbering, the border remap
and OIE compaction all run).  After each step the SHA-256 of
``classes.json``, ``border.json`` and ``database.graphs`` and a digest
of every class's decoded OIE rows must equal the recorded values: a
change to how support sets or occurrence bit-sets are held in memory
must not change one byte on disk.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.incremental import (
    DatabaseDelta,
    IncrementalOptions,
    IncrementalTaxogram,
    PatternStore,
)
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy

BUILT = {
    "classes.json": (
        "06217358daf8421775305d896a3b74b4fee9194547431cc20834dd3eb308027c"
    ),
    "border.json": (
        "2d338e31b8c88fd4dfa4af304391dc1f0de5c76d3cab7f2a92845f5385cd3bed"
    ),
    "database.graphs": (
        "d8eb54c1e83cacf4ef8e610c3825a7c36d02030946bfcf46c6fc8e55cd35d37d"
    ),
    "oie": "2fc9ada7b9fea82607d3822d6c0f2a39dce09b332376d59b103f93af79b204f8",
}

UPDATED = {
    "classes.json": (
        "06b9ee0ef8d64b470cff09c1a10e3e0a768878c01ccf6bb551e7a135d574f071"
    ),
    "border.json": (
        "951d411cbaeb3e098a737a7ed85305c11d32ceef8c8c870ef500001a199b9a63"
    ),
    "database.graphs": (
        "4b5f55dbe61d9c2faaf9f519c3073ad83ce84e3600ca42350a561512efb10a1c"
    ),
    "oie": "bbb2a688332bb964d2a75f8289e33a28fc7dd27e731de79b4de6d12abb21cc0c",
}


def _digests(store_dir) -> dict[str, str]:
    out = {
        name: hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
        for name in ("classes.json", "border.json", "database.graphs")
    }
    store = PatternStore.open(store_dir)
    rows = []
    for stored in store.classes:
        index = store.load_index(stored, read_only=True)
        try:
            rows.append((stored.code, tuple(index.dump_rows())))
        finally:
            index.close()
    out["oie"] = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
    return out


def test_store_files_are_pinned(tmp_path):
    rng = random.Random(3)
    taxonomy = make_random_taxonomy(rng, LabelInterner(), 5, dag=True)
    database = make_random_database(rng, taxonomy, 24, edge_labels=("x", "y"))
    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.25, max_edges=3, store_out=str(store_dir))
    ).mine(database, taxonomy)
    assert _digests(store_dir) == BUILT

    updater = IncrementalTaxogram(
        store_dir, IncrementalOptions(compact_dead_fraction=0.0)
    )
    result = updater.apply(DatabaseDelta.removing([1, 4, 9]))
    assert result.report.counter("incremental.compactions") >= 1
    assert _digests(store_dir) == UPDATED
