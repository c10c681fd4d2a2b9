"""Differential suite for :mod:`repro.similarity`.

Four oracles pin the subsystem:

* ``sim_threshold=1.0`` must reduce to the exact serving path — same
  graph-id sets, same support, same JSON bytes for the id payload —
  over the randomized differential cases;
* the treelet prefilter must be *sound*: candidate sets always contain
  every true match found by a brute-force VF2/homomorphism scan, for
  both semantics and across thresholds;
* the MCS solver's weights must equal a brute-force enumeration of
  every injective partial mapping, and ``score == 1.0`` must coincide
  exactly with generalized containment;
* routed answers (replicated, sharded, catching up, and under live
  ingest) must be bit-identical to a single-store reader.

``RUN_SLOW=1`` widens the seed matrices (the nightly CI job).
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import threading
import time

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.isomorphism.vf2 import (
    find_embedding,
    is_generalized_subgraph_isomorphic,
)
from repro.replication import (
    Follower,
    FollowerOptions,
    FollowerService,
    HTTPReplica,
    LocalReplica,
    QueryRouter,
    RouterOptions,
    RouterService,
)
from repro.serving import StoreReader, value_payload
from repro.similarity import (
    MaximumCommonSubgraphSolver,
    SimilarityEngine,
    TaxonomySimilarity,
    ThresholdMatcher,
    find_homomorphism,
)
from repro.streaming import ApplierOptions
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.conftest import make_differential_case
from tests.test_replication_follower import _unapplied_primary
from tests.test_replication_shipper import (
    ADD_ONE,
    _mine_store,
    _request,
    primary,  # noqa: F401 - fixture re-export
)
from tests.test_serving import _query_universe

SEEDS = [1, 2, 3, 4, 6, 9]
WIDE_SEEDS = list(range(10, 34))
THRESHOLDS = (1.0, 0.7, 0.4)
GENERAL = "t # 0\nv 0 a\nv 1 a\ne 0 1 x\n"
SIMILAR_PATTERNS = [
    GENERAL,
    ADD_ONE,
    "t # 0\nv 0 b\nv 1 c\ne 0 1 y\n",
]


def _canon(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


# -- threshold=1.0 reduces to the exact path ----------------------------------


def _reduction_check(seed, tmp_path, cap):
    database, taxonomy, sigma = make_differential_case(seed)
    directory = tmp_path / f"store{seed}"
    Taxogram(
        TaxogramOptions(
            min_support=sigma, max_edges=2, store_out=str(directory)
        )
    ).mine(database, taxonomy)
    reader = StoreReader(directory)
    rng = random.Random(seed * 104729 + 3)
    for pattern in _query_universe(database, taxonomy, rng, cap):
        exact = reader.graphs_matching(pattern)
        fuzzy = reader.fuzzy_contains(pattern)  # threshold defaults 1.0
        label = f"seed={seed}"
        assert fuzzy.graph_ids == exact.graph_ids, label
        assert fuzzy.support_count == exact.support_count, label
        # Byte-identical id payloads, as the HTTP layer would emit them.
        fuzzy_doc = value_payload(reader, "fuzzy_contains", fuzzy)
        exact_doc = value_payload(reader, "graphs", exact)
        assert _canon(fuzzy_doc["graph_ids"]) == _canon(
            exact_doc["graph_ids"]
        ), label
        assert fuzzy_doc["support"] == exact_doc["support"], label
        # Homomorphic support is always a superset of isomorphic.
        hom = reader.fuzzy_contains(pattern, semantics="homomorphism")
        assert hom.graph_ids >= fuzzy.graph_ids, label


class TestExactReduction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_threshold_one_is_the_exact_path(self, seed, tmp_path):
        _reduction_check(seed, tmp_path, cap=20)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_threshold_one_is_the_exact_path_wide(self, seed, tmp_path):
        _reduction_check(seed, tmp_path, cap=40)


# -- prefilter soundness -------------------------------------------------------


def _match_oracle(pattern, database, measure, threshold, semantics):
    """Brute force: test every graph, no index anywhere near."""
    matcher = ThresholdMatcher(measure, threshold)
    hits = set()
    for graph in database:
        if semantics == "homomorphism":
            found = find_homomorphism(pattern, graph, matcher)
        else:
            found = find_embedding(pattern, graph, matcher)
        if found is not None:
            hits.add(graph.graph_id)
    return frozenset(hits)


def _soundness_check(seed, cap):
    database, taxonomy, _sigma = make_differential_case(seed)
    measure = TaxonomySimilarity(taxonomy)
    engine = SimilarityEngine(database, taxonomy)
    blind = SimilarityEngine(database, taxonomy, prefilter=False)
    rng = random.Random(seed * 31 + 7)
    for pattern in _query_universe(database, taxonomy, rng, cap):
        for threshold in THRESHOLDS:
            for semantics in ("isomorphism", "homomorphism"):
                truth = _match_oracle(
                    pattern, database, measure, threshold, semantics
                )
                candidates = set(engine.candidate_graphs(
                    pattern, threshold, semantics
                ))
                label = f"seed={seed} t={threshold} {semantics}"
                # Sound: the prefilter may keep losers, never drop a
                # winner.
                assert truth <= candidates, label
                assert engine.fuzzy_match(
                    pattern, threshold, semantics
                ) == truth, label
                assert blind.fuzzy_match(
                    pattern, threshold, semantics
                ) == truth, label


class TestPrefilterSoundness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefilter_never_drops_a_true_match(self, seed):
        _soundness_check(seed, cap=10)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_prefilter_never_drops_a_true_match_wide(self, seed):
        _soundness_check(seed, cap=20)


# -- MCS vs brute force --------------------------------------------------------


def _oracle_mcs_weight(pattern, graph, measure):
    """Enumerate every injective partial mapping; keep the heaviest."""
    pnodes = list(pattern.nodes())
    gnodes = list(graph.nodes())
    best = 0.0
    for assignment in itertools.product([-1] + gnodes, repeat=len(pnodes)):
        used = [g for g in assignment if g >= 0]
        if len(set(used)) != len(used):
            continue
        mapping = dict(zip(pnodes, assignment))
        weight = 0.0
        feasible = True
        for u, g in mapping.items():
            if g < 0:
                continue
            sim = measure.node_similarity(
                pattern.node_label(u), graph.node_label(g)
            )
            if sim <= 0.0:
                feasible = False  # pairs are only mappable at sim > 0
                break
            weight += sim
        if not feasible:
            continue
        for u, v, elabel in pattern.edges():
            gu, gv = mapping[u], mapping[v]
            if (
                gu >= 0
                and gv >= 0
                and graph.has_edge(gu, gv)
                and graph.edge_label(gu, gv) == elabel
            ):
                weight += 1
        best = max(best, weight)
    return best


def _mcs_check(seed, cap):
    database, taxonomy, _sigma = make_differential_case(seed)
    measure = TaxonomySimilarity(taxonomy)
    solver = MaximumCommonSubgraphSolver(measure)
    rng = random.Random(seed * 13 + 1)
    for pattern in _query_universe(database, taxonomy, rng, cap):
        size = pattern.num_nodes + pattern.num_edges
        for graph in database:
            if graph.num_nodes > 7:
                continue  # keep the brute force tractable
            expected = _oracle_mcs_weight(pattern, graph, measure)
            result = solver.solve(pattern, graph)
            label = f"seed={seed} gid={graph.graph_id}"
            assert result.weight == pytest.approx(expected), label
            assert result.score == pytest.approx(expected / size), label
            # The score's top end is the containment predicate.
            assert (result.score == 1.0) == (
                is_generalized_subgraph_isomorphic(
                    pattern, graph, taxonomy
                )
            ), label


class TestMCSOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_matches_brute_force(self, seed):
        _mcs_check(seed, cap=5)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_solver_matches_brute_force_wide(self, seed):
        _mcs_check(seed, cap=10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_similar_is_consistent_with_per_graph_scores(self, seed):
        database, taxonomy, _sigma = make_differential_case(seed)
        engine = SimilarityEngine(database, taxonomy)
        rng = random.Random(seed * 17 + 5)
        for pattern in _query_universe(database, taxonomy, rng, 4):
            ranked = engine.similar(pattern, 0.3)
            scores = {
                gid: engine.score(pattern, gid)
                for gid in range(len(database))
            }
            assert {s.graph_id: s.score for s in ranked} == {
                gid: score
                for gid, score in scores.items()
                if score >= 0.3
            }
            ordered = [(-s.score, s.graph_id) for s in ranked]
            assert ordered == sorted(ordered)


# -- cache keying: exact and similarity results never collide ------------------


class TestCacheKeying:
    @pytest.fixture
    def reader(self, tmp_path):
        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
        db = GraphDatabase(node_labels=taxonomy.interner)
        for name in ["x", "x", "y"]:
            db.new_graph(["b", "c"], [(0, 1, name)])
        store = tmp_path / "store"
        Taxogram(
            TaxogramOptions(min_support=0.4, store_out=str(store))
        ).mine(db, taxonomy)
        return StoreReader(store)

    def test_query_key_separates_ops_and_params(self):
        from repro.serving.cache import query_key

        structure = (("edge", 0, 1),)
        keys = {
            query_key("graphs", structure),
            query_key("support", structure),
            query_key(
                "fuzzy_contains", structure,
                threshold=1.0, semantics="isomorphism",
            ),
            query_key(
                "fuzzy_contains", structure,
                threshold=0.5, semantics="isomorphism",
            ),
            query_key(
                "fuzzy_contains", structure,
                threshold=1.0, semantics="homomorphism",
            ),
            query_key("similar", structure, threshold=0.5, k=None),
            query_key("similar", structure, threshold=0.5, k=2),
            query_key("similarity_score", structure, graph_id=0),
            query_key("similarity_score", structure, graph_id=1),
        }
        assert len(keys) == 9

    def test_exact_and_similarity_answers_do_not_collide(self, reader):
        # Same DFS code, four ops: the regression this guards against
        # is one op's cached value being served for another.
        pattern = reader.parse_pattern(GENERAL)
        support = reader.query("support", pattern)
        exact = reader.query("graphs", pattern)
        fuzzy = reader.query("fuzzy_contains", pattern, sim_threshold=0.2)
        score = reader.query("similarity_score", pattern, graph_id=0)
        assert support.value == 2  # the two x-labeled graphs
        assert exact.value.graph_ids == fuzzy.value.graph_ids
        assert exact.value.path != fuzzy.value.path
        assert fuzzy.value.path == "similarity:isomorphism"
        assert score.value == 1.0
        # Every op replays from its own cache entry, not a neighbor's.
        assert reader.query("support", pattern).cached
        again = reader.query("graphs", pattern)
        assert again.cached and again.value.path == exact.value.path
        again = reader.query(
            "fuzzy_contains", pattern, sim_threshold=0.2
        )
        assert again.cached and again.value.path == fuzzy.value.path

    def test_distinct_parameters_are_distinct_entries(self, reader):
        pattern = reader.parse_pattern("t # 0\nv 0 b\nv 1 b\ne 0 1 x\n")
        # b-b matches nothing exactly (graphs are b-c) but fuzzily at a
        # low threshold: the two thresholds must not share an entry.
        strict = reader.query("fuzzy_contains", pattern)
        loose = reader.query("fuzzy_contains", pattern, sim_threshold=0.2)
        assert strict.value.support_count == 0
        assert loose.value.support_count == 2  # the x-labeled graphs
        assert reader.query("fuzzy_contains", pattern).cached
        # Defaults resolve before keying: explicit 1.0 == omitted.
        explicit = reader.query(
            "fuzzy_contains", pattern, sim_threshold=1.0
        )
        assert explicit.cached
        # similar: k and threshold are part of the key.
        full = reader.query("similar", pattern, sim_threshold=0.2)
        top = reader.query("similar", pattern, sim_threshold=0.2, k=1)
        assert len(full.value) == 3 and len(top.value) == 1
        assert reader.query(
            "similar", pattern, sim_threshold=0.2, k=1
        ).cached
        # similarity_score: graph_id is part of the key.
        first = reader.query("similarity_score", pattern, graph_id=0)
        third = reader.query("similarity_score", pattern, graph_id=2)
        assert first.value != third.value  # x vs y edge label
        assert reader.query(
            "similarity_score", pattern, graph_id=0
        ).cached


# -- routed similarity is bit-identical ----------------------------------------


def _assert_similar_identical(router: QueryRouter, reader: StoreReader):
    """Every similarity op, every probe: routed bytes == direct bytes."""
    for text in SIMILAR_PATTERNS:
        parsed = reader.parse_pattern(text)
        routed = router.query("similar", text, sim_threshold=0.2)
        direct = reader.query("similar", parsed, sim_threshold=0.2)
        assert _canon(routed["value"]) == _canon(
            value_payload(reader, "similar", direct.value)
        ), f"similar diverged on {text!r}"
        for semantics in ("isomorphism", "homomorphism"):
            routed = router.query(
                "fuzzy_contains", text,
                sim_threshold=0.5, semantics=semantics,
            )
            direct = reader.query(
                "fuzzy_contains", parsed,
                sim_threshold=0.5, semantics=semantics,
            )
            assert _canon(routed["value"]) == _canon(
                value_payload(reader, "fuzzy_contains", direct.value)
            ), f"fuzzy_contains[{semantics}] diverged on {text!r}"
        for gid in range(reader.database_size):
            routed = router.query("similarity_score", text, graph_id=gid)
            direct = reader.query(
                "similarity_score", parsed, graph_id=gid
            )
            assert routed["value"] == direct.value, (text, gid)


class TestRoutedStaticIdentity:
    def test_replicated_similarity_is_bit_identical(self, tmp_path):
        store = _mine_store(tmp_path)
        copy = tmp_path / "copy"
        shutil.copytree(store, copy)
        router = QueryRouter([LocalReplica(store), LocalReplica(copy)])
        try:
            _assert_similar_identical(router, StoreReader(store))
        finally:
            router.close()


class TestRoutedCatchUpIdentity:
    def test_every_intermediate_version_answers_identically(
        self, tmp_path
    ):
        service, url, thread = _unapplied_primary(tmp_path, 4)
        try:
            with Follower(
                tmp_path / "replica",
                tmp_path / "rwal",
                url,
                options=FollowerOptions(poll_interval_seconds=0.02),
                applier_options=ApplierOptions(max_batch_records=2),
            ) as follower:
                follower.sync_once()
                versions_checked = 0
                while True:
                    router = QueryRouter(
                        [LocalReplica(tmp_path / "replica")]
                    )
                    try:
                        _assert_similar_identical(
                            router, StoreReader(tmp_path / "replica")
                        )
                    finally:
                        router.close()
                    versions_checked += 1
                    if not follower.applier.apply_next_batch():
                        break
                assert follower.lag() == 0
                assert versions_checked >= 3
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()


class TestRoutedShardedIdentity:
    @staticmethod
    def _sharded_stores(tmp_path):
        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})

        def build(names, out):
            db = GraphDatabase(node_labels=taxonomy.interner)
            for name in names:
                db.new_graph(["b", "c"], [(0, 1, name)])
            Taxogram(
                TaxogramOptions(min_support=0.25, store_out=str(out))
            ).mine(db, taxonomy)

        names = ["x", "y", "x", "y", "x", "x"]
        build(names, tmp_path / "global")
        build(names[:3], tmp_path / "shard0")
        build(names[3:], tmp_path / "shard1")
        return tmp_path / "global", [
            tmp_path / "shard0", tmp_path / "shard1"
        ]

    def test_sharded_similarity_merges_exactly(self, tmp_path):
        global_dir, shard_dirs = self._sharded_stores(tmp_path)
        router = QueryRouter(
            [LocalReplica(d, name=d.name) for d in shard_dirs],
            options=RouterOptions(sharded=True),
        )
        reader = StoreReader(global_dir)
        try:
            for text in SIMILAR_PATTERNS:
                parsed = reader.parse_pattern(text)
                routed = router.query("similar", text, sim_threshold=0.2)
                direct = reader.query(
                    "similar", parsed, sim_threshold=0.2
                )
                assert _canon(routed["value"]) == _canon(
                    value_payload(reader, "similar", direct.value)
                ), f"sharded similar diverged on {text!r}"
                # Global top-k: the k-th best may sit entirely in one
                # shard, so truncation happens at the router.
                top = router.query(
                    "similar", text, sim_threshold=0.2, k=2
                )
                assert top["value"] == routed["value"][:2]
                fuzzy = router.query(
                    "fuzzy_contains", text, sim_threshold=0.5
                )
                local = reader.query(
                    "fuzzy_contains", parsed, sim_threshold=0.5
                )
                assert fuzzy["value"]["support"] == (
                    local.value.support_count
                )
                assert fuzzy["value"]["graph_ids"] == sorted(
                    local.value.graph_ids
                )
                for gid in range(reader.database_size):
                    scored = router.query(
                        "similarity_score", text, graph_id=gid
                    )
                    assert scored["value"] == reader.query(
                        "similarity_score", parsed, graph_id=gid
                    ).value
        finally:
            router.close()

    def test_out_of_range_graph_id_rejected(self, tmp_path):
        from repro.replication.router import QueryRejected

        _global_dir, shard_dirs = self._sharded_stores(tmp_path)
        router = QueryRouter(
            [LocalReplica(d) for d in shard_dirs],
            options=RouterOptions(sharded=True),
        )
        try:
            with pytest.raises(QueryRejected, match="out of range"):
                router.query("similarity_score", GENERAL, graph_id=99)
        finally:
            router.close()


class TestRoutedLiveIngestIdentity:
    def test_similar_follows_live_ingest(self, primary, tmp_path):
        """Ingest into the primary while querying ``POST /similar``
        through a router over a catching-up follower: read-your-writes
        via ``min_applied_seq``, then full bit-identity at convergence.
        """
        _service, url = primary
        fsvc = None
        fthread = None
        router_service = None
        rthread = None
        try:
            fsvc = FollowerService(
                tmp_path / "replica",
                tmp_path / "rwal",
                url,
                port=0,
                options=FollowerOptions(poll_interval_seconds=0.02),
                applier_options=ApplierOptions(max_latency_seconds=0.02),
            )
            fsvc.start()
            fthread = threading.Thread(
                target=fsvc.serve_forever, daemon=True
            )
            fthread.start()
            furl = f"http://{fsvc.address[0]}:{fsvc.address[1]}"
            router_service = RouterService([HTTPReplica(furl)], port=0)
            rthread = threading.Thread(
                target=router_service.serve_forever, daemon=True
            )
            rthread.start()
            rurl = (
                f"http://{router_service.address[0]}"
                f":{router_service.address[1]}"
            )

            supports = []
            for _ in range(3):
                status, body, _ = _request(
                    url, "/ingest", {"add": ADD_ONE}
                )
                assert status in (200, 202)
                seq = json.loads(body)["seq"]
                deadline = time.monotonic() + 30
                while True:
                    status, body, headers = _request(
                        rurl,
                        "/similar",
                        {
                            "op": "fuzzy_contains",
                            "pattern": GENERAL,
                            "threshold": 1.0,
                            "min_applied_seq": seq,
                        },
                    )
                    if status == 200:
                        break
                    assert status == 429
                    assert time.monotonic() < deadline, "never caught up"
                    time.sleep(0.05)
                supports.append(json.loads(body)["value"]["support"])
            # Each ingested b-c/x graph fuzzily contains a-a/x exactly.
            base = supports[0]
            for i, value in enumerate(supports):
                assert value >= base + i
            # Convergence: the routed answers are bit-identical to a
            # reader over the follower's own store.
            router = QueryRouter([LocalReplica(tmp_path / "replica")])
            try:
                _assert_similar_identical(
                    router, StoreReader(tmp_path / "replica")
                )
            finally:
                router.close()
        finally:
            if router_service is not None:
                router_service.server.shutdown()
                rthread.join(timeout=10)
                router_service.close()
            if fsvc is not None:
                fsvc.server.shutdown()
                fthread.join(timeout=10)
                fsvc.close()
