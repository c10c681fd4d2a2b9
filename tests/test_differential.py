"""Differential harness: oracle vs Taxogram vs the parallel runtime.

Every seed builds one randomized ``(taxonomy, database, sigma)`` triple
(odd seeds are DAGs, seeds divisible by 3 are multi-root) and runs the
brute-force oracle, the sequential Taxogram pipeline, and the
multi-process runtime (``workers=2``) on identical inputs.  The three
must agree on the exact pattern set, and the observability counters must
be mutually consistent:

* sequential and parallel agree exactly on the equivalence counters
  (pattern classes, bit-set intersections, candidates enumerated, ...);
* when the run genuinely sharded, the merged per-shard pattern counts
  are an upper bound on the sequential class count — every globally
  frequent class is locally frequent on at least one shard (the
  pigeonhole relaxation), so the shard union can only over-approximate.

The default matrix keeps tier-1 fast; the wide matrix runs under
``RUN_SLOW=1`` (see ``conftest.pytest_collection_modifyitems``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.incremental import DatabaseDelta, IncrementalTaxogram
from repro.util.interner import LabelInterner
from tests.conftest import (
    index_rows,
    make_differential_case,
    make_random_database,
    make_random_taxonomy,
)

DEFAULT_SEEDS = list(range(25))
WIDE_SEEDS = list(range(25, 75))
STREAM_SEEDS = list(range(6))
WIDE_STREAM_SEEDS = list(range(6, 18))


def _assert_consistent(oracle, sequential, parallel) -> None:
    # 1. Exact pattern-set agreement, supports included.
    assert sequential.pattern_codes() == oracle.pattern_codes()
    assert parallel.pattern_codes() == oracle.pattern_codes()
    oracle_map = oracle.pattern_codes()
    for pattern in sequential:
        assert pattern.support_set == oracle_map[pattern.code]

    # 2. Counter identity on the equivalence fields (parallel merge must
    #    reconstruct the sequential work profile exactly).
    seq, par = sequential.counters, parallel.counters
    assert par.pattern_classes == seq.pattern_classes
    assert par.embedding_extensions == seq.embedding_extensions
    assert par.occurrence_index_updates == seq.occurrence_index_updates
    assert par.bitset_intersections == seq.bitset_intersections
    assert par.candidates_enumerated == seq.candidates_enumerated
    assert par.overgeneralized_eliminated == seq.overgeneralized_eliminated
    assert par.oie_entries == seq.oie_entries

    # 3. Reports ride on every result; counter views agree with the raw
    #    counter block.
    assert sequential.report is not None
    assert parallel.report is not None
    assert (
        sequential.report.counter("mine.pattern_classes")
        == seq.pattern_classes
    )

    # 4. Pigeonhole: if the run actually fanned out, the merged shard
    #    pattern counts dominate the sequential class count.
    shards = parallel.report.counter("parallel.shards")
    if shards >= 2:
        assert (
            parallel.report.counter("parallel.shard_patterns_total")
            >= seq.pattern_classes
        )
        assert parallel.worker_seconds  # the pool genuinely ran
    else:
        # Shard floor not met: the runtime fell back to the sequential
        # path and must say so.
        assert parallel.worker_seconds == {}


class TestDifferentialMatrix:
    @pytest.mark.parametrize("seed", DEFAULT_SEEDS)
    def test_triple_agreement(self, differential_runner, seed):
        oracle, sequential, parallel = differential_runner(seed)
        _assert_consistent(oracle, sequential, parallel)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_triple_agreement_wide(self, differential_runner, seed):
        oracle, sequential, parallel = differential_runner(seed)
        _assert_consistent(oracle, sequential, parallel)

    def test_matrix_covers_dag_and_multiroot(self):
        # The seed -> shape mapping is load-bearing for coverage claims;
        # pin it so a refactor of make_differential_case can't silently
        # shrink the matrix to trees only.
        shapes = set()
        for seed in DEFAULT_SEEDS:
            _db, taxonomy, _sigma = make_differential_case(seed)
            multi_parent = any(
                len(taxonomy.parents_of(label)) > 1
                for label in taxonomy.labels()
            )
            shapes.add((multi_parent, len(taxonomy.roots()) > 1))
        assert any(dag for dag, _ in shapes), "no DAG taxonomy in matrix"
        assert any(multi for _, multi in shapes), "no multi-root taxonomy"

    def test_matrix_exercises_real_sharding(self, differential_runner):
        # At least a few default seeds must clear the shard floor, or
        # the pigeonhole assertion above would be vacuous.
        sharded = 0
        for seed in DEFAULT_SEEDS[:12]:
            _oracle, _sequential, parallel = differential_runner(seed)
            if parallel.report.counter("parallel.shards") >= 2:
                sharded += 1
        assert sharded >= 3


def _removed_then_added(
    current: GraphDatabase,
    add_db: GraphDatabase | None,
    remove_ids: tuple[int, ...],
) -> GraphDatabase:
    """The reference updated database: survivors in order, then adds.

    Adds are re-added *by name*: ``add_db`` has its own edge-label
    interner, so raw label ids would mean different names in ``out``.
    """
    out = GraphDatabase(current.node_labels, current.edge_labels)
    removed = set(remove_ids)
    for graph in current:
        if graph.graph_id not in removed:
            out.add_graph(graph.copy())
    if add_db is not None:
        for graph in add_db:
            out.new_graph(
                [
                    add_db.node_labels.name_of(graph.node_label(v))
                    for v in graph.nodes()
                ],
                [
                    (u, v, add_db.edge_labels.name_of(label))
                    for u, v, label in graph.edges()
                ],
            )
    return out


def _run_stream(tmp_path, seed: int, mode: str, steps: int = 3) -> None:
    """Mine to a store, stream deltas through it, and require the update
    result to be bit-identical to fresh mining after every step."""
    rng = random.Random(1000 + seed)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(
        rng,
        interner,
        rng.randint(4, 8),
        dag=seed % 2 == 1,
        multiroot=seed % 3 == 0,
    )
    current = make_random_database(rng, taxonomy, rng.randint(10, 14))
    sigma = rng.choice([0.3, 0.4, 0.5])
    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=sigma, max_edges=2, store_out=str(store_dir))
    ).mine(current, taxonomy)
    updater = IncrementalTaxogram(store_dir)
    for _step in range(steps):
        add_db = None
        remove_ids: tuple[int, ...] = ()
        if mode in ("add", "mixed"):
            add_db = make_random_database(rng, taxonomy, 1)
        if mode in ("remove", "mixed") and len(current) > 4:
            remove_ids = tuple(
                sorted(rng.sample(range(len(current)), rng.randint(1, 2)))
            )
        delta = DatabaseDelta(
            add_text=(
                DatabaseDelta.adding(add_db).add_text
                if add_db is not None
                else ""
            ),
            remove_ids=remove_ids,
        )
        result = updater.apply(delta)
        current = _removed_then_added(current, add_db, remove_ids)
        fresh = Taxogram(
            TaxogramOptions(min_support=sigma, max_edges=2)
        ).mine(current, taxonomy)
        assert result.pattern_codes() == fresh.pattern_codes()
        assert [
            (p.class_id, p.code, p.support_count) for p in result.patterns
        ] == [(p.class_id, p.code, p.support_count) for p in fresh.patterns]
        assert result.database_size == len(current)


class TestIncrementalStreams:
    """Randomized delta streams vs fresh mining (DAG + multi-root seeds)."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_add_only_stream(self, tmp_path, seed):
        _run_stream(tmp_path, seed, "add")

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_remove_only_stream(self, tmp_path, seed):
        _run_stream(tmp_path, seed, "remove")

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_mixed_stream(self, tmp_path, seed):
        _run_stream(tmp_path, seed, "mixed")

    def test_stream_matrix_covers_dag_and_multiroot(self):
        # Same coverage pin as the main matrix: the seed -> shape mapping
        # must keep exercising DAG and multi-root taxonomies.
        assert any(seed % 2 == 1 for seed in STREAM_SEEDS)
        assert any(seed % 3 == 0 for seed in STREAM_SEEDS)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_STREAM_SEEDS)
    @pytest.mark.parametrize("mode", ["add", "remove", "mixed"])
    def test_long_stream_wide(self, tmp_path, seed, mode):
        _run_stream(tmp_path, seed, mode, steps=8)


COMPRESSION_SEEDS = [1, 4]
WIDE_COMPRESSION_SEEDS = [7, 9, 12, 15]


def _mine_store_variant(tmp_path, case, name, workers, compression):
    database, taxonomy, sigma = case
    store_dir = tmp_path / name
    result = Taxogram(
        TaxogramOptions(
            min_support=sigma,
            max_edges=2,
            workers=workers,
            store_out=str(store_dir),
            store_compression=compression,
        )
    ).mine(database, taxonomy)
    return result, store_dir


def _serving_answer(store_dir) -> str:
    """A canonical JSON rendering of the reader's top-k answer."""
    import json

    from repro.serving.endpoints import value_payload
    from repro.serving.reader import StoreReader

    reader = StoreReader(store_dir)
    answer = reader.query("top_k", k=100)
    return json.dumps(
        value_payload(reader, "top_k", answer.value), sort_keys=True
    )


def _check_compression_variants(tmp_path, seed: int) -> None:
    """Store compression and parallelism are both invisible to results.

    Four variants of one case — {sequential, workers=2} x {raw, zlib} —
    must produce identical pattern sets, identical specialize-phase
    work counters (per worker count), identical persisted class/border
    state and occurrence-index rows, and byte-identical serving answers.
    """
    from repro.incremental.store import PatternStore

    case = make_differential_case(seed)
    variants = {}
    for workers in (1, 2):
        for compression in (None, "zlib"):
            name = f"w{workers}-{compression or 'raw'}"
            variants[name] = _mine_store_variant(
                tmp_path, case, name, workers, compression
            )

    codes = {
        name: result.pattern_codes()
        for name, (result, _dir) in variants.items()
    }
    reference = codes["w1-raw"]
    for name, value in codes.items():
        assert value == reference, name

    # Compression must not perturb the work profile: same-worker pairs
    # agree counter for counter on the specialize-phase fields.
    for workers in (1, 2):
        raw_c = variants[f"w{workers}-raw"][0].counters
        z_c = variants[f"w{workers}-zlib"][0].counters
        assert z_c.pattern_classes == raw_c.pattern_classes
        assert z_c.embedding_extensions == raw_c.embedding_extensions
        assert z_c.bitset_intersections == raw_c.bitset_intersections
        assert z_c.candidates_enumerated == raw_c.candidates_enumerated
        assert (
            z_c.overgeneralized_eliminated == raw_c.overgeneralized_eliminated
        )
        assert z_c.oie_entries == raw_c.oie_entries

    stores = {
        name: PatternStore.open(store_dir)
        for name, (_result, store_dir) in variants.items()
    }
    ref_store = stores["w1-raw"]
    for name, store in stores.items():
        assert [c.code for c in store.classes] == [
            c.code for c in ref_store.classes
        ], name
        assert store.border == ref_store.border, name
        assert store.compression == (
            "zlib" if name.endswith("zlib") else None
        )
    ref_rows = index_rows(ref_store)
    for name, store in stores.items():
        assert index_rows(store) == ref_rows, name

    answers = {
        name: _serving_answer(store_dir)
        for name, (_result, store_dir) in variants.items()
    }
    for name, answer in answers.items():
        assert answer == answers["w1-raw"], name


class TestCompressionDifferential:
    """Widened matrix: compression on/off x sequential/workers=2."""

    @pytest.mark.parametrize("seed", COMPRESSION_SEEDS)
    def test_compression_invariance(self, tmp_path, seed):
        _check_compression_variants(tmp_path, seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_COMPRESSION_SEEDS)
    def test_compression_invariance_wide(self, tmp_path, seed):
        _check_compression_variants(tmp_path, seed)


class TestGuaranteedShard:
    def test_sigma_one_always_shards(self, go_excerpt, pathway_db):
        # |D|=2, sigma=1.0 -> min_count=2 -> shards=min(2, 2, 1)=1:
        # too small.  Duplicate the pathways to |D|=4 so min_count=4 and
        # the shard floor (min_count - 1 >= 2) is guaranteed.
        db = pathway_db
        for gid in list(range(len(db))):
            graph = db[gid]
            db.new_graph(
                [
                    db.node_labels.name_of(graph.node_label(v))
                    for v in graph.nodes()
                ],
                [
                    (u, v, db.edge_labels.name_of(label))
                    for u, v, label in graph.edges()
                ],
            )
        sequential = Taxogram(
            TaxogramOptions(min_support=1.0, max_edges=3)
        ).mine(db, go_excerpt)
        parallel = Taxogram(
            TaxogramOptions(min_support=1.0, max_edges=3, workers=2)
        ).mine(db, go_excerpt)
        assert parallel.report.counter("parallel.shards") == 2
        assert parallel.pattern_codes() == sequential.pattern_codes()
        assert (
            parallel.report.counter("parallel.shard_patterns_total")
            >= sequential.counters.pattern_classes
        )
        assert sequential.counters.pattern_classes > 0
