"""Sequential vs parallel Taxogram equivalence (the tentpole guarantee).

``TaxogramOptions(workers=N)`` must be indistinguishable from a
sequential run: same patterns, same supports and support sets, same
class ids, same work counters — across random datasets, shard counts,
both occurrence-index backends, DAG and multi-root taxonomies, and the
baseline (no-enhancements) configuration.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions, mine
from repro.exceptions import MiningError
from repro.parallel.runtime import ParallelTaxogram
from repro.util.interner import LabelInterner
from tests.conftest import (
    index_rows,
    make_random_database,
    make_random_taxonomy,
)


def _dataset(seed: int, dag: bool = False, multiroot: bool = False):
    rng = random.Random(seed)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(
        rng, interner, rng.randint(4, 9), dag=dag, multiroot=multiroot
    )
    database = make_random_database(rng, taxonomy, rng.randint(4, 8))
    return database, taxonomy


def _assert_identical(sequential, parallel):
    assert parallel.pattern_codes() == sequential.pattern_codes()
    seq = sequential.patterns
    par = parallel.patterns
    assert [p.code for p in par] == [p.code for p in seq]
    assert [p.support_count for p in par] == [p.support_count for p in seq]
    assert [p.support for p in par] == [p.support for p in seq]
    assert [p.support_set for p in par] == [p.support_set for p in seq]
    assert [p.class_id for p in par] == [p.class_id for p in seq]
    assert [p.graph for p in par] == [p.graph for p in seq]
    a, b = sequential.counters, parallel.counters
    assert b.pattern_classes == a.pattern_classes
    assert b.embedding_extensions == a.embedding_extensions
    assert b.occurrence_index_updates == a.occurrence_index_updates
    assert b.bitset_intersections == a.bitset_intersections
    assert b.candidates_enumerated == a.candidates_enumerated
    assert b.overgeneralized_eliminated == a.overgeneralized_eliminated
    assert parallel.algorithm == sequential.algorithm
    assert parallel.database_size == sequential.database_size


def _explode_pool(monkeypatch) -> None:
    """Make every process-pool start fail with ``OSError``."""
    import repro.parallel.runtime as runtime_module

    class _ExplodingPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no processes for you")

    monkeypatch.setattr(runtime_module, "ProcessPoolExecutor", _ExplodingPool)


def _run_pair(database, taxonomy, workers, **option_overrides):
    sequential = Taxogram(
        TaxogramOptions(min_support=0.5, max_edges=3, **option_overrides)
    ).mine(database, taxonomy)
    parallel = Taxogram(
        TaxogramOptions(
            min_support=0.5, max_edges=3, workers=workers, **option_overrides
        )
    ).mine(database, taxonomy)
    return sequential, parallel


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_memory_backend(self, workers):
        for seed in range(5):
            database, taxonomy = _dataset(seed, dag=seed % 2 == 0)
            sequential, parallel = _run_pair(database, taxonomy, workers)
            _assert_identical(sequential, parallel)
            assert sequential.patterns or parallel.patterns == []

    @pytest.mark.parametrize("workers", [2, 4])
    def test_disk_backend(self, workers):
        for seed in range(3):
            database, taxonomy = _dataset(seed, dag=True)
            sequential, parallel = _run_pair(
                database,
                taxonomy,
                workers,
                occurrence_index_backend="disk",
                disk_max_resident_entries=2,
            )
            _assert_identical(sequential, parallel)

    def test_multiroot_taxonomy(self):
        # Multi-root repair interns artificial roots; workers must see
        # the same post-repair interner state.
        for seed in range(4):
            database, taxonomy = _dataset(seed, dag=True, multiroot=True)
            sequential, parallel = _run_pair(database, taxonomy, 3)
            _assert_identical(sequential, parallel)

    def test_baseline_options(self):
        database, taxonomy = _dataset(7, dag=True)
        sequential = Taxogram(
            TaxogramOptions.baseline(min_support=0.5, max_edges=3)
        ).mine(database, taxonomy)
        from dataclasses import replace

        parallel = Taxogram(
            replace(
                TaxogramOptions.baseline(min_support=0.5, max_edges=3),
                workers=3,
            )
        ).mine(database, taxonomy)
        _assert_identical(sequential, parallel)
        assert parallel.algorithm == "baseline"

    def test_figure_pathways(self, go_excerpt, pathway_db):
        sequential = mine(pathway_db, go_excerpt, min_support=1.0)
        parallel = mine(pathway_db, go_excerpt, min_support=1.0, workers=2)
        _assert_identical(sequential, parallel)

    def test_stage_and_worker_timings_recorded(self):
        database, taxonomy = _dataset(2)
        _sequential, parallel = _run_pair(database, taxonomy, 2)
        for stage in ("relabel", "shard", "mine_classes", "merge", "specialize"):
            assert stage in parallel.stage_seconds
        for phase in ("mine", "project", "specialize"):
            assert phase in parallel.worker_seconds
            assert parallel.worker_seconds[phase] >= 0.0


def _persisted_classes(store_dir) -> list:
    """Every class's code and persisted pattern set, as written."""
    from repro.incremental import PatternStore

    return [
        (stored.code, stored.patterns)
        for stored in PatternStore.open(store_dir).classes
    ]


def _assert_same_store_patterns(tmp_path, seed, workers, **overrides):
    database, taxonomy = _dataset(seed, dag=seed % 2 == 0)
    seq_dir = tmp_path / f"seq{seed}"
    par_dir = tmp_path / f"par{seed}"
    Taxogram(
        TaxogramOptions(
            min_support=0.5, max_edges=3, store_out=str(seq_dir), **overrides
        )
    ).mine(database, taxonomy)
    Taxogram(
        TaxogramOptions(
            min_support=0.5,
            max_edges=3,
            workers=workers,
            store_out=str(par_dir),
            **overrides,
        )
    ).mine(database, taxonomy)
    sequential = _persisted_classes(seq_dir)
    assert _persisted_classes(par_dir) == sequential
    assert all(patterns is not None for _code, patterns in sequential)


class TestParallelStorePatterns:
    """The parallel store build persists the sequential pattern sets."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_persisted_sets(self, tmp_path, seed):
        _assert_same_store_patterns(tmp_path, seed, 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2, 8))
    @pytest.mark.parametrize("workers", [2, 3])
    def test_same_persisted_sets_wide(self, tmp_path, seed, workers):
        _assert_same_store_patterns(tmp_path, seed, workers)

    @pytest.mark.slow
    def test_same_persisted_sets_baseline(self, tmp_path):
        _assert_same_store_patterns(
            tmp_path,
            7,
            3,
            enhancement_descendant_pruning=False,
            enhancement_occurrence_collapse=False,
        )


class TestDegradation:
    def test_workers_one_stays_sequential(self):
        database, taxonomy = _dataset(0)
        result = Taxogram(
            TaxogramOptions(min_support=0.5, max_edges=3, workers=1)
        ).mine(database, taxonomy)
        assert result.worker_seconds == {}

    def test_more_workers_than_graphs_caps_shards(self):
        database, taxonomy = _dataset(1)
        sequential, parallel = _run_pair(database, taxonomy, 64)
        _assert_identical(sequential, parallel)

    def test_degenerate_threshold_falls_back(self):
        # min_count == 1 would force a local threshold of 1 on every
        # shard (exhaustive enumeration); the shard-count cap must send
        # such runs down the sequential path instead.
        database, taxonomy = _dataset(3)
        result = Taxogram(
            TaxogramOptions(min_support=0.01, max_edges=3, workers=4)
        ).mine(database, taxonomy)
        sequential = Taxogram(
            TaxogramOptions(min_support=0.01, max_edges=3)
        ).mine(database, taxonomy)
        _assert_identical(sequential, result)
        assert result.worker_seconds == {}  # sequential fallback

    def test_single_graph_database_falls_back(self, go_excerpt):
        from repro.graphs.database import GraphDatabase

        db = GraphDatabase(node_labels=go_excerpt.interner)
        db.new_graph(["carrier", "helicase"], [(0, 1, "i")])
        result = mine(db, go_excerpt, min_support=1.0, workers=4)
        assert result.patterns
        assert result.worker_seconds == {}  # sequential fallback

    def test_invalid_workers_rejected(self):
        database, taxonomy = _dataset(0)
        with pytest.raises(MiningError, match="workers"):
            Taxogram(
                TaxogramOptions(min_support=0.5, workers=0)
            ).mine(database, taxonomy)
        with pytest.raises(MiningError, match="workers"):
            ParallelTaxogram(
                TaxogramOptions(min_support=0.5, workers=-2)
            ).mine(database, taxonomy)

    @staticmethod
    def _count_driver_mines(monkeypatch) -> list:
        """Record every ``GSpanMiner.mine`` call made in this process."""
        from repro.mining.gspan import GSpanMiner

        calls: list = []
        original = GSpanMiner.mine

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GSpanMiner, "mine", counting)
        return calls

    @staticmethod
    def _store_state(store_dir):
        from repro.incremental.store import PatternStore

        store = PatternStore.open(store_dir)
        return (
            [c.code for c in store.classes],
            [c.columns.to_rows() for c in store.classes],
            [c.patterns for c in store.classes],
            index_rows(store),
            store.border,
        )

    def _degraded_store_build(
        self, tmp_path, monkeypatch, database, taxonomy, min_support
    ):
        options = TaxogramOptions(
            min_support=min_support,
            max_edges=3,
            store_out=str(tmp_path / "w1"),
        )
        sequential = Taxogram(options).mine(database, taxonomy)
        calls = self._count_driver_mines(monkeypatch)
        degraded = Taxogram(
            replace(options, workers=2, store_out=str(tmp_path / "w2"))
        ).mine(database, taxonomy)
        assert len(calls) == 1
        assert degraded.worker_seconds == {}
        assert degraded.pattern_codes() == sequential.pattern_codes()
        assert self._store_state(tmp_path / "w2") == self._store_state(
            tmp_path / "w1"
        )

    def test_capped_store_build_mines_once(self, tmp_path, monkeypatch):
        # min_count 2 caps the shard count at 1: the store build runs
        # the sequential pipeline, once, with the store hooks attached.
        database, taxonomy = _dataset(0)
        self._degraded_store_build(
            tmp_path, monkeypatch, database, taxonomy, 2 / len(database)
        )

    def test_pool_failure_store_build_mines_once(self, tmp_path, monkeypatch):
        _explode_pool(monkeypatch)
        database, taxonomy = _dataset(0)
        with pytest.warns(RuntimeWarning, match="sequentially"):
            self._degraded_store_build(
                tmp_path, monkeypatch, database, taxonomy, 1.0
            )

    def test_broken_pool_falls_back(self, monkeypatch):
        _explode_pool(monkeypatch)
        # min_support=1.0 keeps min_count == |D|, well above the shard
        # cap, so the run genuinely reaches pool creation.
        database, taxonomy = _dataset(0)
        with pytest.warns(RuntimeWarning, match="sequentially"):
            result = mine(database, taxonomy, min_support=1.0, workers=2)
        sequential = mine(database, taxonomy, min_support=1.0)
        assert result.pattern_codes() == sequential.pattern_codes()
