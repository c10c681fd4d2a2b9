"""Byte-level pins on the persisted store format.

A fixed-seed store is built, then updated with removals under
``compact_dead_fraction=0.0`` (so pattern renumbering, the border remap
and column compaction all run).  After each step the SHA-256 of
``classes.json``, ``border.json`` and ``database.graphs`` and a digest
of every class's occurrence-index rows must equal the recorded values: a
change to how support sets or occurrence bit-sets are held in memory
must not change one byte on disk.  The indices are rebuilt from the
stored columns; their digests are the ones recorded when every index
was also stored as a per-class SQLite file, so the rebuilt indices equal
the rows that used to be persisted.
"""

from __future__ import annotations

import hashlib
import io
import random
import tarfile
from pathlib import PurePath

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.incremental import (
    DatabaseDelta,
    IncrementalOptions,
    IncrementalTaxogram,
    PatternStore,
)
from repro.replication import SegmentShipper
from repro.streaming import StreamApplier, WriteAheadLog
from repro.util.interner import LabelInterner
from tests.conftest import (
    index_rows,
    make_random_database,
    make_random_taxonomy,
)

BUILT = {
    "classes.json": (
        "87e7ec1025fd95de0d65fb3c9ee4091cd67405ca05ef1863c491ecc212ffb4e0"
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
        "de4526c7e7954a4ee11ae8c5ca04aeb0cc5c30a93d3b6d8feed9a8933c217ab0"
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
    rows = [
        (stored.code, tuple(class_rows))
        for stored, class_rows in zip(store.classes, index_rows(store))
    ]
    out["oie"] = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
    return out


def _build_store(store_dir) -> None:
    rng = random.Random(3)
    taxonomy = make_random_taxonomy(rng, LabelInterner(), 5, dag=True)
    database = make_random_database(rng, taxonomy, 24, edge_labels=("x", "y"))
    Taxogram(
        TaxogramOptions(min_support=0.25, max_edges=3, store_out=str(store_dir))
    ).mine(database, taxonomy)


def test_store_files_are_pinned(tmp_path):
    store_dir = tmp_path / "store"
    _build_store(store_dir)
    assert _digests(store_dir) == BUILT

    updater = IncrementalTaxogram(
        store_dir, IncrementalOptions(compact_dead_fraction=0.0)
    )
    result = updater.apply(DatabaseDelta.removing([1, 4, 9]))
    assert result.report.counter("incremental.compactions") >= 1
    assert _digests(store_dir) == UPDATED


def _index_files(names) -> list[str]:
    """The names that belong to a stored occurrence index (the
    ``oie/`` tree of version-1 stores)."""
    return [
        str(name)
        for name in names
        if "oie" in PurePath(name).parts or str(name).endswith(".sqlite3")
    ]


def test_no_occurrence_index_is_stored(tmp_path):
    store_dir = tmp_path / "store"
    _build_store(store_dir)
    assert _index_files(store_dir.rglob("*")) == []

    store = PatternStore.open(store_dir)
    first = GraphDatabase(store.database.node_labels, store.database.edge_labels)
    first.add_graph(store.database[0].copy())
    adds = DatabaseDelta.adding(first)
    IncrementalTaxogram(store_dir).apply(
        DatabaseDelta(add_text=adds.add_text, remove_ids=(2,))
    )
    assert _index_files(store_dir.rglob("*")) == []

    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append(adds)
        assert StreamApplier(store_dir, wal).apply_next_batch() == 1
        assert _index_files(store_dir.rglob("*")) == []
        _version, data = SegmentShipper(wal, store_dir).snapshot()
    with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
        names = archive.getnames()
    assert "classes.json" in names
    assert _index_files(names) == []
