"""The in-memory handoff from the applier to the reader of one process.

An :class:`~repro.streaming.service.IngestService` opens its store once:
the reader starts on the store the applier opened, and the applier
hands it every version it commits instead of letting it parse the
directory.  The ground truth is a :class:`StoreReader` opened fresh on
the directory: after every committed batch the handed-over reader must
answer exactly as it does, over random deltas that renumber graph ids,
compact columns and fall back to a full remine.  A version handed over
must never change under a reader that still holds it, and a query that
names an unknown label must not reach the ``labels.json`` of the next
version.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import ReproError, TaxonomyError
from repro.graphs.io import serialize_graph_database
from repro.incremental import DatabaseDelta, IncrementalOptions
from repro.mining.dfs_code import graph_from_code
from repro.serving import StoreReader
from repro.serving.reader import Query
from repro.streaming import ApplierOptions, IngestService
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy

SIGMA = 0.25
PATTERN_OPS = ("support", "graphs", "contains", "specializations")


def _random_store(tmp_path, seed):
    """24 random graphs over a random tree, DAG or multi-root taxonomy,
    mined at sigma 0.25 with at most two edges."""
    rng = random.Random(seed)
    taxonomy = make_random_taxonomy(
        rng,
        LabelInterner(),
        rng.randint(4, 8),
        dag=seed % 2 == 1,
        multiroot=seed % 3 == 0,
    )
    db = make_random_database(rng, taxonomy, 24, edge_labels=("x", "y", "z"))
    store_dir = tmp_path / f"store{seed}"
    options = TaxogramOptions(
        min_support=SIGMA, max_edges=2, store_out=str(store_dir)
    )
    Taxogram(options).mine(db, taxonomy)
    return rng, taxonomy, store_dir


def _service(store_dir, wal_dir, **applier):
    """An ingest service whose batches the test applies in-thread."""
    return IngestService(
        store_dir,
        wal_dir,
        port=0,
        applier_options=ApplierOptions(**applier),
    )


def _pattern_view(patterns):
    return [
        (
            p.class_id,
            p.code.edges,
            p.support_count,
            p.support_mask,
            tuple(p.graph.node_label(v) for v in p.graph.nodes()),
        )
        for p in patterns
    ]


def _probes(reader):
    """Every stored pattern, plus unstored ones: each class structure at
    its most-general labels, and each pattern with one node moved to a
    child label or to its most-general ancestor."""
    working = reader.working_taxonomy
    stored = [p.graph for p in reader.top_k(10**6)]
    probes = list(stored)
    for code in reader.class_codes():
        structure = graph_from_code(code)
        probes.append(structure)
    for graph in stored:
        label = graph.node_label(0)
        moves = (*working.children_of(label)[:1], reader.most_general[label])
        for other in moves:
            if other != label:
                probe = graph.copy()
                probe.relabel_node(0, other)
                probes.append(probe)
    return probes


def _answers(ask, probes):
    """``ask(query)``'s value for every op over ``probes`` plus ``top_k``;
    an error answers with its type."""
    rows = []
    for probe in probes:
        for op in PATTERN_OPS:
            try:
                value = ask(Query(op, probe))
            except ReproError as exc:
                value = type(exc).__name__
            if op == "specializations" and not isinstance(value, str):
                value = _pattern_view(value)
            rows.append((op, value))
    rows.append(("top_k", _pattern_view(ask(Query("top_k", k=10**6)))))
    return rows


def _state_digest(store):
    """Everything a query reads from one in-memory store version."""
    return (
        store.store_version,
        serialize_graph_database(store.database),
        [
            (s.code, list(s.columns.occurrences), s.patterns)
            for s in store.classes
        ],
        dict(store.border),
        dict(store.app_state),
        len(store.taxonomy.interner),
        len(store.database.edge_labels),
    )


def _deltas(rng, taxonomy, size):
    """Random deltas: a middle removal (squeeze renumbers every later
    id), adds, removals and a mixed record, then enough adds for the
    updater's full-remine fallback."""

    def adding(n):
        return DatabaseDelta.adding(make_random_database(rng, taxonomy, n))

    return [
        DatabaseDelta.removing([size // 2]),
        adding(1),
        DatabaseDelta.removing([0, 3]),
        DatabaseDelta(add_text=adding(1).add_text, remove_ids=(5,)),
        DatabaseDelta.removing([7]),
        adding(1),
        adding(size // 4 + 2),
    ]


def assert_reader_matches_fresh(reader, directory):
    """``reader`` answers every probe exactly as a fresh reader of
    ``directory`` does."""
    fresh = StoreReader(directory)
    assert reader.version == fresh.version
    probes = _probes(fresh)
    assert _answers(lambda q: reader.answer(q).value, probes) == _answers(
        lambda q: fresh.answer(q).value, probes
    )


class TestHandoffDifferential:
    # Seed 2's taxonomy is a tree, 1 and 5 are DAGs, 3 is a multi-root
    # DAG (the working taxonomy gains an artificial root).
    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_handed_versions_answer_as_fresh_readers(self, tmp_path, seed):
        rng, taxonomy, store_dir = _random_store(tmp_path, seed)
        service = _service(
            store_dir,
            tmp_path / "wal",
            max_batch_records=2,
            incremental=IncrementalOptions(compact_dead_fraction=0.05),
        )
        reader = service.reader
        try:
            for delta in _deltas(rng, taxonomy, len(reader.database)):
                service.wal.append(delta)
            assert_reader_matches_fresh(reader, store_dir)
            while True:
                # A query in flight keeps the state it started on.
                retained = reader._state
                probes = _probes(reader)
                before = _answers(
                    lambda q: reader._dispatch(retained, q)[0], probes
                )
                digest = _state_digest(retained.store)
                if service.applier.apply_next_batch() == 0:
                    break
                assert reader._state is not retained
                assert _state_digest(retained.store) == digest
                after = _answers(
                    lambda q: reader._dispatch(retained, q)[0], probes
                )
                assert after == before
                assert_reader_matches_fresh(reader, store_dir)
            metrics = service.metrics
            assert metrics.counter("incremental.compactions") > 0
            assert metrics.counter("incremental.fallbacks") == 1
            # One open at start-up, no disk reload after it.
            assert metrics.counter("serving.reloads") == 0
            assert metrics.counter("serving.handoffs") == 1 + metrics.counter(
                "streaming.batches_applied"
            )
        finally:
            service.close()


class TestQueriesDoNotInternIntoTheStore:
    UNKNOWN_NODE = "t # 0\nv 0 no_such_concept\nv 1 L0\ne 0 1 x\n"
    UNKNOWN_EDGE = "t # 0\nv 0 L0\nv 1 L1\ne 0 1 no_such_edge\n"

    def _run(self, tmp_path, name, queries):
        rng, taxonomy, seed_dir = _random_store(tmp_path / "seed", 2)
        store_dir = tmp_path / name
        shutil.copytree(seed_dir, store_dir)
        service = _service(store_dir, tmp_path / f"{name}.wal")
        answers = []
        try:
            if queries:
                with pytest.raises(TaxonomyError, match="no_such_concept"):
                    service.reader.query("support", self.UNKNOWN_NODE)
                answers.append(
                    service.reader.query("support", self.UNKNOWN_EDGE).value
                )
                answers.append(
                    service.reader.query("graphs", self.UNKNOWN_EDGE).value
                )
            service.wal.append(
                DatabaseDelta.adding(make_random_database(rng, taxonomy, 1))
            )
            assert service.applier.drain() == 1
            if queries:
                # The next version answers them the same way.
                answers.append(
                    service.reader.query("support", self.UNKNOWN_EDGE).value
                )
        finally:
            service.close()
        return store_dir, answers

    def test_unknown_labels_never_reach_labels_json(self, tmp_path):
        quiet, _ = self._run(tmp_path, "quiet", queries=False)
        asked, answers = self._run(tmp_path, "asked", queries=True)
        for name in ("labels.json", "database.graphs", "classes.json"):
            assert (asked / name).read_bytes() == (quiet / name).read_bytes()
        support, graphs, support_after = answers
        assert support == 0 and support_after == 0
        assert graphs.support_mask == 0 and graphs.path == "vf2"


class TestStartup:
    def test_service_opens_its_store_once(self, tmp_path, monkeypatch):
        from repro.incremental import PatternStore

        _rng, _taxonomy, store_dir = _random_store(tmp_path, 1)
        opens = []
        real_open = PatternStore.open.__func__

        def counting(cls, directory):
            opens.append(Path(directory))
            return real_open(cls, directory)

        monkeypatch.setattr(PatternStore, "open", classmethod(counting))
        service = _service(store_dir, tmp_path / "wal")
        try:
            assert opens == [store_dir]
            committed = service.applier.committed
            assert service.reader.version == committed.store_version
        finally:
            service.close()
