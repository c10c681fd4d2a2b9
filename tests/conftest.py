"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraphDatabase
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.interner import LabelInterner


def pytest_collection_modifyitems(config, items):
    """Apply the environment gates to marked tests.

    ``slow`` (wide randomized matrices) runs only under ``RUN_SLOW=1``;
    ``chaos`` (fault-injection sweeps over real process trees) runs
    only under ``RUN_CHAOS=1``.  The default (tier-1) run keeps both
    small; CI's ``chaos`` job and the nightly cron set the gates.
    """
    if not os.environ.get("RUN_SLOW"):
        skip_slow = pytest.mark.skip(
            reason="slow test; set RUN_SLOW=1 to run"
        )
        for item in items:
            if "slow" in item.keywords:
                item.add_marker(skip_slow)
    if not os.environ.get("RUN_CHAOS"):
        skip_chaos = pytest.mark.skip(
            reason="chaos test; set RUN_CHAOS=1 to run"
        )
        for item in items:
            if "chaos" in item.keywords:
                item.add_marker(skip_chaos)


def wait_until(
    predicate,
    timeout: float = 30.0,
    interval: float = 0.02,
    message: str = "condition",
):
    """Deadline-based polling — the replacement for bare ``time.sleep``
    in every subprocess/service test.

    Calls ``predicate()`` until it returns a truthy value (returned) or
    the deadline passes (``TimeoutError``).  Exceptions propagate: a
    predicate that must tolerate transient errors (connection refused
    during a restart) catches them itself and returns falsy.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"timed out after {timeout:g}s waiting for {message}"
            )
        time.sleep(interval)


def spawn_cli(args, cwd):
    """Spawn ``python -u -m repro.cli <args>`` with ``src/`` importable.

    One definition for every subprocess test (serving, streaming,
    replication, chaos): unbuffered stdout so ready banners arrive,
    text pipes, and the repo's ``src`` prepended to ``PYTHONPATH``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def go_excerpt() -> Taxonomy:
    """The paper's Figure 1.1 GO excerpt (plus the root)."""
    return taxonomy_from_parent_names(
        {
            "molecular_function": [],
            "transporter": "molecular_function",
            "catalytic_activity": "molecular_function",
            "carrier": "transporter",
            "cation_transporter": "transporter",
            "protein_carrier": "carrier",
            "helicase": "catalytic_activity",
            "dna_helicase": "helicase",
        }
    )


@pytest.fixture
def pathway_db(go_excerpt: Taxonomy) -> GraphDatabase:
    """The Figure 1.2-style two-pathway database over ``go_excerpt``."""
    db = GraphDatabase(node_labels=go_excerpt.interner)
    db.new_graph(
        ["protein_carrier", "cation_transporter", "dna_helicase", "dna_helicase"],
        [(0, 1, "i"), (1, 2, "i"), (2, 3, "i")],
    )
    db.new_graph(
        ["carrier", "helicase", "dna_helicase"],
        [(0, 1, "i"), (1, 2, "i")],
    )
    return db


def make_differential_case(seed: int):
    """Randomized ``(database, taxonomy, sigma)`` triple for the
    differential harness.

    Seeds deterministically cover the taxonomy space: odd seeds produce
    DAGs, seeds divisible by 3 produce multi-root forests.  The sigma
    palette leans high so that a good fraction of cases clear the
    parallel runtime's shard-count floor (``min_count >= 3``) and
    genuinely exercise the multi-process path.
    """
    rng = random.Random(seed)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(
        rng,
        interner,
        rng.randint(4, 8),
        dag=seed % 2 == 1,
        multiroot=seed % 3 == 0,
    )
    database = make_random_database(rng, taxonomy, rng.randint(3, 5))
    sigma = rng.choice([0.5, 0.67, 0.8, 1.0])
    return database, taxonomy, sigma


@pytest.fixture
def differential_runner():
    """Run oracle, sequential Taxogram, and workers=2 on one seed.

    Returns a callable ``run(seed, max_edges=2) -> (oracle, sequential,
    parallel)`` over the triple from :func:`make_differential_case`; all
    three see identical inputs and the same pattern-size cap.
    """
    from repro.core.oracle import mine_with_oracle
    from repro.core.taxogram import Taxogram, TaxogramOptions

    def run(seed: int, max_edges: int = 2):
        database, taxonomy, sigma = make_differential_case(seed)
        oracle = mine_with_oracle(
            database, taxonomy, sigma, max_edges=max_edges
        )
        sequential = Taxogram(
            TaxogramOptions(min_support=sigma, max_edges=max_edges)
        ).mine(database, taxonomy)
        parallel = Taxogram(
            TaxogramOptions(min_support=sigma, max_edges=max_edges, workers=2)
        ).mine(database, taxonomy)
        return oracle, sequential, parallel

    return run


def make_random_taxonomy(
    rng: random.Random,
    interner: LabelInterner,
    n_labels: int,
    dag: bool = False,
    multiroot: bool = False,
) -> Taxonomy:
    """A random taxonomy for equivalence/property tests."""
    parents: dict[int, tuple[int, ...]] = {}
    n_roots = rng.randint(2, 3) if multiroot else 1
    labels = [interner.intern(f"L{i}") for i in range(n_labels)]
    for index, label in enumerate(labels):
        if index < min(n_roots, n_labels):
            parents[label] = ()
            continue
        plist = [labels[rng.randrange(index)]]
        if dag and index > 1 and rng.random() < 0.35:
            extra = labels[rng.randrange(index)]
            if extra not in plist:
                plist.append(extra)
        parents[label] = tuple(plist)
    return Taxonomy(parents, interner)


def make_random_database(
    rng: random.Random,
    taxonomy: Taxonomy,
    n_graphs: int,
    max_nodes: int = 5,
    max_edges: int = 6,
    edge_labels: tuple[str, ...] = ("x", "y"),
    directed: bool = False,
) -> GraphDatabase | DiGraphDatabase:
    """A random database whose node labels come from ``taxonomy``; with
    ``directed`` its graphs are digraphs (antiparallel arcs allowed)."""
    interner = taxonomy.interner
    all_labels = list(taxonomy.labels())
    db = (DiGraphDatabase if directed else GraphDatabase)(node_labels=interner)
    for _ in range(n_graphs):
        n = rng.randint(2, max_nodes)
        node_labels = [interner.name_of(rng.choice(all_labels)) for _ in range(n)]
        edges: list[tuple[int, int, str]] = []
        present: set[tuple[int, int]] = set()
        for _ in range(rng.randint(1, max_edges)):
            u, v = rng.randrange(n), rng.randrange(n)
            key = (u, v) if directed else (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            edges.append((u, v, rng.choice(edge_labels)))
        db.new_graph(node_labels, edges)
    return db


def pattern_view(patterns) -> list[tuple]:
    """Everything a mined pattern carries, in one sortable tuple each:
    class id, code, support count and fraction, support set, and the
    node labels of the emitted representative graph."""
    return sorted(
        (
            p.class_id,
            p.code.edges,
            p.support_count,
            p.support,
            tuple(sorted(p.support_set)),
            tuple(p.graph.node_label(v) for v in p.graph.nodes()),
        )
        for p in patterns
    )


def class_indices(store) -> list:
    """Every stored class's occurrence index, rebuilt from its columns as
    readers and the updater rebuild it."""
    from repro.core.occurrence_index import AncestorTable, index_occurrences
    from repro.core.relabel import repair_taxonomy

    working, _most_general = repair_taxonomy(
        store.taxonomy, store.artificial_root_name
    )
    ancestors = AncestorTable(working)
    originals = [graph.node_labels() for graph in store.database]
    return [
        index_occurrences(
            stored.num_positions,
            stored.columns.occurrences,
            originals,
            ancestors,
        )
        for stored in store.classes
    ]


def index_rows(store) -> list[list[tuple[int, int, int]]]:
    """Per stored class, its occurrence index as sorted
    ``(position, label, bits)`` rows."""
    return [
        sorted(
            (position, label, bits)
            for position, entry in enumerate(index.entries)
            for label, bits in entry.items()
        )
        for index in class_indices(store)
    ]


def step3_oracle(store_dir) -> list[tuple]:
    """The store's pattern set, recomputed by running Step 3 over every
    class's rebuilt occurrence index (the reader's materialization
    before the sets were persisted); :func:`pattern_view` shaped."""
    from repro.core.relabel import repair_taxonomy
    from repro.core.results import MiningCounters
    from repro.core.specializer import SpecializerOptions, specialize_class
    from repro.incremental import PatternStore
    from repro.mining.dfs_code import graph_from_code
    from repro.mining.gspan import min_support_count

    store = PatternStore.open(store_dir)
    working, _most_general = repair_taxonomy(
        store.taxonomy, store.artificial_root_name
    )
    min_count = min_support_count(store.min_support, len(store.database))
    patterns = []
    for class_id, (stored, index) in enumerate(
        zip(store.classes, class_indices(store))
    ):
        patterns.extend(
            specialize_class(
                class_id=class_id,
                structure=graph_from_code(stored.code),
                store=stored.columns,
                index=index,
                taxonomy=working,
                min_count=min_count,
                database_size=len(store.database),
                options=SpecializerOptions(),
                counters=MiningCounters(),
            )
        )
    return pattern_view(patterns)


def persisted_patterns(store_dir) -> list[tuple]:
    """The store's persisted pattern set; :func:`pattern_view` shaped.
    Fails when a class has none (a legacy class)."""
    from repro.incremental import PatternStore

    store = PatternStore.open(store_dir)
    patterns = []
    for class_id, stored in enumerate(store.classes):
        assert stored.patterns is not None, f"class {class_id} unpersisted"
        patterns.extend(
            pattern.to_pattern(stored.code, class_id, len(store.database))
            for pattern in stored.patterns
        )
    return pattern_view(patterns)


def strip_persisted_patterns(store_dir) -> None:
    """Rewrite a raw store as a legacy one: drop every class's
    ``patterns`` key from ``classes.json`` and re-sign its checksum."""
    import hashlib
    import json

    store_dir = Path(store_dir)
    classes_path = store_dir / "classes.json"
    doc = json.loads(classes_path.read_text(encoding="utf-8"))
    for entry in doc["classes"]:
        entry.pop("patterns", None)
    data = json.dumps(doc).encode("utf-8")
    classes_path.write_bytes(data)
    manifest_path = store_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["checksums"]["classes.json"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
