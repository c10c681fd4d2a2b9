"""Tests for :mod:`repro.serving`: the concurrent store query engine.

Three layers:

* unit tests over a hand-built store whose classes, border and
  over-generalized patterns are known exactly — including the
  acceptance-criteria assertion that class-covered queries perform zero
  isomorphism tests;
* a property-based differential harness: every ``support()`` /
  ``graphs_matching()`` answer over randomized DAG / multi-root cases
  must equal a brute-force VF2 oracle, and ``contains()`` must equal
  membership in a fresh mining run — including over-generalized and
  sub-threshold patterns;
* concurrency: version fencing across :meth:`IncrementalTaxogram.apply`
  and an 8-thread mixed-query stress test (``RUN_SLOW=1``).
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions, mine
from repro.exceptions import MiningError, ReproError, StoreError, TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.subgraphs import connected_edge_subgraphs
from repro.incremental import (
    DatabaseDelta,
    IncrementalTaxogram,
    PatternStore,
    fence_state,
)
from repro.isomorphism.vf2 import is_generalized_subgraph_isomorphic
from repro.mining.dfs_code import min_dfs_code
from repro.serving import (
    BatchExecutor,
    MatchResult,
    Query,
    StoreReader,
    VersionedResultCache,
    serve_async,
)
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.conftest import make_differential_case


def _taxonomy():
    # Multi-root on purpose: step 1 relabels to the most-general *real*
    # concepts (A, B, C), so the store has distinct per-root classes.
    return taxonomy_from_parent_names(
        {
            "A": [],
            "B": [],
            "C": [],
            "a1": "A",
            "a2": "A",
            "b1": "B",
            "b2": "B",
            "c1": "C",
        }
    )


def _database(tax):
    db = GraphDatabase(node_labels=tax.interner)
    # g0: triangle a1-b1-c1; g1: a1-b1; g2: a1-b2; g3: a1-c1.
    db.new_graph(["a1", "b1", "c1"], [(0, 1), (1, 2), (0, 2)])
    db.new_graph(["a1", "b1"], [(0, 1)])
    db.new_graph(["a1", "b2"], [(0, 1)])
    db.new_graph(["a1", "c1"], [(0, 1)])
    return db


def _pattern(tax, labels, edges):
    return Graph.from_edges([tax.id_of(name) for name in labels], edges)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A mined store over the fixture database (sigma=0.5, max_edges=2).

    With ``min_count = 2``: classes A-B (support 3) and A-C (support 2);
    B-C (support 1) and the 2-edge B-A-C path (support 1) sit on the
    negative border with exact graph-id sets.  Every A in an A-B / A-C
    occurrence is an ``a1``, so both class patterns are over-generalized
    (their ``a1`` specialization has equal support).
    """
    directory = tmp_path_factory.mktemp("serving") / "store"
    tax = _taxonomy()
    db = _database(tax)
    Taxogram(
        TaxogramOptions(min_support=0.5, max_edges=2, store_out=str(directory))
    ).mine(db, tax)
    return directory


@pytest.fixture
def reader(store_dir):
    return StoreReader(store_dir)


@pytest.fixture
def tax(reader):
    # The reader's own taxonomy instance, so label ids line up.
    return reader._state.store.taxonomy


class TestSupport:
    def test_class_pattern_exact(self, reader, tax):
        assert reader.support(_pattern(tax, ["A", "B"], [(0, 1)])) == 3
        assert reader.support(_pattern(tax, ["A", "C"], [(0, 1)])) == 2

    def test_specialized_pattern_exact(self, reader, tax):
        assert reader.support(_pattern(tax, ["a1", "b1"], [(0, 1)])) == 2
        assert reader.support(_pattern(tax, ["a1", "B"], [(0, 1)])) == 3

    def test_never_materialized_overgeneralized_pattern(self, reader, tax):
        # A-B is over-generalized (a1-B has equal support), so it was
        # never emitted by mining — its support is still answered
        # exactly from the class bit-sets.
        mined = {
            p.code
            for p in mine(
                reader._state.store.database,
                tax,
                min_support=0.5,
                max_edges=2,
            )
        }
        query = _pattern(tax, ["A", "B"], [(0, 1)])
        assert min_dfs_code(query) not in mined
        assert reader.support(query) == 3

    def test_subthreshold_inside_class_exact(self, reader, tax):
        # a1-b2 occurs only in g2: below min_count=2, never mined,
        # still exact.
        assert reader.support(_pattern(tax, ["a1", "b2"], [(0, 1)])) == 1
        assert reader.support(_pattern(tax, ["a2", "b1"], [(0, 1)])) == 0

    def test_border_structure_exact_subthreshold(self, reader, tax):
        # B-C is infrequent (only g0): its negative-border entry gives
        # the exact graph set with no isomorphism tests.
        assert reader.support(_pattern(tax, ["B", "C"], [(0, 1)])) == 1
        assert reader.metrics.counter("serving.vf2_tests") == 0
        match = reader.graphs_matching(_pattern(tax, ["B", "C"], [(0, 1)]))
        assert match.path == "border"
        assert match.graph_ids == frozenset({0})

    def test_border_specialized_uses_restricted_vf2(self, reader, tax):
        query = _pattern(tax, ["b1", "c1"], [(0, 1)])
        assert reader.support(query) == 1
        match = reader.graphs_matching(query)
        assert match.path == "vf2-border"
        # Each of the two queries tested only the single border
        # candidate graph, not all four database graphs.
        assert reader.metrics.counter("serving.vf2_tests") == 2

    def test_beyond_cap_falls_back_to_full_vf2(self, reader, tax):
        triangle = _pattern(
            tax, ["A", "B", "C"], [(0, 1), (1, 2), (0, 2)]
        )
        match = reader.graphs_matching(triangle)
        assert match.path == "vf2"
        assert match.graph_ids == frozenset({0})
        assert reader.metrics.counter("serving.vf2_fallbacks") == 1
        assert reader.metrics.counter("serving.vf2_tests") == 4

    def test_single_node_label_scan(self, reader, tax):
        assert reader.support(_pattern(tax, ["A"], [])) == 4
        assert reader.support(_pattern(tax, ["b2"], [])) == 1
        assert reader.support(_pattern(tax, ["B"], [])) == 3
        assert reader.metrics.counter("serving.vf2_tests") == 0

    def test_hot_path_performs_zero_isomorphism_tests(self, reader, tax):
        """Acceptance criterion: class-covered queries never call VF2."""
        reader.support(_pattern(tax, ["A", "B"], [(0, 1)]))
        reader.support(_pattern(tax, ["a1", "b1"], [(0, 1)]))
        reader.contains(_pattern(tax, ["a1", "B"], [(0, 1)]))
        reader.specializations(_pattern(tax, ["A", "C"], [(0, 1)]))
        reader.graphs_matching(_pattern(tax, ["a1", "c1"], [(0, 1)]))
        reader.top_k(10)
        counters = reader.metrics.as_dict()["counters"]
        assert counters.get("serving.vf2_tests", 0) == 0
        assert counters.get("serving.vf2_fallbacks", 0) == 0
        assert counters["serving.bitset_queries"] >= 5
        assert counters["serving.bitset_intersections"] > 0


class TestContains:
    def test_mined_patterns_contained(self, reader, tax):
        assert reader.contains(_pattern(tax, ["a1", "B"], [(0, 1)]))
        assert reader.contains(_pattern(tax, ["a1", "b1"], [(0, 1)]))
        assert reader.contains(_pattern(tax, ["a1", "c1"], [(0, 1)]))

    def test_overgeneralized_not_contained(self, reader, tax):
        # Frequent but over-generalized: a specialization matches every
        # occurrence (every A here is an a1; every C is a c1).
        assert not reader.contains(_pattern(tax, ["A", "B"], [(0, 1)]))
        assert not reader.contains(_pattern(tax, ["A", "C"], [(0, 1)]))
        assert not reader.contains(_pattern(tax, ["a1", "C"], [(0, 1)]))

    def test_infrequent_not_contained(self, reader, tax):
        assert not reader.contains(_pattern(tax, ["a1", "b2"], [(0, 1)]))
        assert not reader.contains(_pattern(tax, ["B", "C"], [(0, 1)]))

    def test_single_node_not_contained(self, reader, tax):
        assert not reader.contains(_pattern(tax, ["A"], []))

    def test_matches_fresh_mining_exactly(self, reader, tax):
        mined = {
            p.code
            for p in mine(
                reader._state.store.database,
                tax,
                min_support=0.5,
                max_edges=2,
            )
        }
        for labels in (
            ["A", "B"], ["a1", "B"], ["a1", "b1"], ["a1", "b2"],
            ["A", "C"], ["a1", "C"], ["a1", "c1"], ["B", "C"],
            ["a2", "b1"], ["b1", "c1"],
        ):
            query = _pattern(tax, labels, [(0, 1)])
            assert reader.contains(query) == (min_dfs_code(query) in mined)


class TestGraphsMatching:
    def test_graph_ids_and_occurrences(self, reader, tax):
        match = reader.graphs_matching(_pattern(tax, ["a1", "b1"], [(0, 1)]))
        assert isinstance(match, MatchResult)
        assert match.graph_ids == frozenset({0, 1})
        assert match.support_count == 2
        assert match.path == "bitset"
        assert match.occurrences is not None
        assert {gid for gid, _nodes in match.occurrences} == {0, 1}
        for gid, nodes in match.occurrences:
            db = reader._state.store.database
            labels = {tax.name_of(db[gid].node_label(v)) for v in nodes}
            assert labels == {"a1", "b1"}

    def test_empty_match(self, reader, tax):
        match = reader.graphs_matching(_pattern(tax, ["a2", "c1"], [(0, 1)]))
        assert match.graph_ids == frozenset()
        assert match.support_count == 0
        assert match.occurrences == ()


class TestSpecializations:
    def test_matches_fresh_mining_for_class(self, reader, tax):
        mined = mine(
            reader._state.store.database, tax, min_support=0.5, max_edges=2
        )
        expected = {
            p.code: p.support_set
            for p in mined
            if p.num_edges == 1
            and {tax.name_of(p.graph.node_label(v)) for v in p.graph.nodes()}
            & {"B", "b1", "b2"}
        }
        specs = reader.specializations(_pattern(tax, ["A", "B"], [(0, 1)]))
        assert {p.code: p.support_set for p in specs} == expected

    def test_sorted_by_support(self, reader, tax):
        specs = reader.specializations(_pattern(tax, ["A", "B"], [(0, 1)]))
        supports = [p.support_count for p in specs]
        assert supports == sorted(supports, reverse=True)

    def test_subthreshold_inside_class(self, reader, tax):
        specs = reader.specializations(
            _pattern(tax, ["A", "B"], [(0, 1)]), min_support=0.25
        )
        names = {
            tuple(
                sorted(
                    tax.name_of(p.graph.node_label(v))
                    for v in p.graph.nodes()
                )
            )
            for p in specs
        }
        assert ("a1", "b2") in names  # support 1 < sigma, still exact

    def test_restricted_base_labels(self, reader, tax):
        specs = reader.specializations(_pattern(tax, ["a1", "B"], [(0, 1)]))
        for p in specs:
            names = {
                tax.name_of(p.graph.node_label(v)) for v in p.graph.nodes()
            }
            assert "a2" not in names and "A" not in names

    def test_infrequent_structure_at_or_above_sigma_is_empty(
        self, reader, tax
    ):
        assert reader.specializations(_pattern(tax, ["B", "C"], [(0, 1)])) == []

    def test_subthreshold_outside_class_raises(self, reader, tax):
        with pytest.raises(MiningError, match="min_support"):
            reader.specializations(
                _pattern(tax, ["B", "C"], [(0, 1)]), min_support=0.1
            )

    def test_beyond_edge_cap_raises(self, reader, tax):
        with pytest.raises(MiningError, match="max_edges"):
            reader.specializations(
                _pattern(tax, ["A", "B", "C"], [(0, 1), (1, 2), (0, 2)])
            )

    def test_single_node_raises(self, reader, tax):
        with pytest.raises(MiningError, match="at least one edge"):
            reader.specializations(_pattern(tax, ["A"], []))


class TestTopK:
    def test_matches_fresh_mining(self, reader, tax):
        mined = mine(
            reader._state.store.database, tax, min_support=0.5, max_edges=2
        )
        top = reader.top_k(len(mined) + 5)
        assert len(top) == len(mined)
        assert {p.code: p.support_set for p in top} == {
            p.code: p.support_set for p in mined
        }
        supports = [p.support_count for p in top]
        assert supports == sorted(supports, reverse=True)

    def test_k_truncates(self, reader):
        assert len(reader.top_k(1)) == 1
        assert reader.top_k(0) == []

    def test_label_filter(self, reader, tax):
        only_c = reader.top_k(10, label_filter="C")
        assert only_c
        for p in only_c:
            names = {
                tax.name_of(p.graph.node_label(v)) for v in p.graph.nodes()
            }
            assert names & {"C", "c1"}
        assert len(only_c) < len(reader.top_k(10))

    def test_unknown_filter_label_raises(self, reader):
        with pytest.raises(TaxonomyError):
            reader.top_k(3, label_filter="no_such_concept")

    def test_negative_k_raises(self, reader):
        with pytest.raises(MiningError):
            reader.top_k(-1)


class TestValidation:
    def test_unknown_label_raises(self, reader, tax):
        stray = tax.interner.intern("not_a_concept")
        with pytest.raises(TaxonomyError, match="not_a_concept"):
            reader.support(Graph.from_edges([stray, tax.id_of("B")], [(0, 1)]))

    def test_disconnected_pattern_raises(self, reader, tax):
        query = Graph.from_edges(
            [tax.id_of("A"), tax.id_of("B"), tax.id_of("C")], [(0, 1)]
        )
        with pytest.raises(MiningError):
            reader.support(query)

    def test_unknown_op_raises(self, reader, tax):
        with pytest.raises(MiningError, match="unknown query op"):
            reader.query("explode", _pattern(tax, ["A", "B"], [(0, 1)]))

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(StoreError):
            StoreReader(tmp_path / "nope")


class TestCache:
    def test_repeat_query_hits_cache(self, reader, tax):
        query = _pattern(tax, ["A", "B"], [(0, 1)])
        first = reader.query("support", query)
        second = reader.query("support", query)
        assert not first.cached and second.cached
        assert first.value == second.value == 3
        assert reader.metrics.counter("serving.cache_hits") == 1

    def test_automorphic_phrasings_share_entry(self, reader, tax):
        reader.query("support", _pattern(tax, ["A", "B"], [(0, 1)]))
        flipped = reader.query("support", _pattern(tax, ["B", "A"], [(0, 1)]))
        assert flipped.cached  # same canonical DFS code

    def test_lru_eviction(self):
        cache = VersionedResultCache(maxsize=2)
        cache.put(1, "a", 1)
        cache.put(1, "b", 2)
        assert cache.get(1, "a") == 1  # refresh "a"
        cache.put(1, "c", 3)  # evicts "b"
        assert cache.is_miss(cache.get(1, "b"))
        assert cache.get(1, "a") == 1
        assert len(cache) == 2

    def test_versioned_keys_do_not_collide(self):
        cache = VersionedResultCache()
        cache.put(1, "k", "old")
        cache.put(2, "k", "new")
        assert cache.get(1, "k") == "old"
        assert cache.get(2, "k") == "new"
        cache.clear()
        assert cache.is_miss(cache.get(2, "k"))


class TestVersionFencing:
    @pytest.fixture
    def live_store(self, store_dir, tmp_path):
        directory = tmp_path / "live"
        shutil.copytree(store_dir, directory)
        return directory

    def test_fence_state_reports_version_and_stability(self, live_store):
        version, stable = fence_state(live_store)
        assert version == 1 and stable
        (live_store / "update.inprogress").touch()
        version, stable = fence_state(live_store)
        assert version == 1 and not stable
        assert fence_state(live_store / "missing") == (None, False)

    def test_reader_survives_incremental_update(self, live_store):
        tax = _taxonomy()
        reader = StoreReader(live_store)
        query = _pattern(tax, ["a1", "b1"], [(0, 1)])
        before = reader.query("support", query)
        assert before.value == 2 and before.store_version == 1

        IncrementalTaxogram(str(live_store)).apply(DatabaseDelta.removing([1]))

        after = reader.query("support", query)
        assert after.store_version == 2
        assert not after.cached  # version bump invalidated the cache
        assert after.value == 1  # g1 removed
        assert reader.version == 2
        assert reader.metrics.counter("serving.reloads") == 2

    def test_update_invalidates_whole_cache(self, live_store):
        tax = _taxonomy()
        reader = StoreReader(live_store)
        queries = [
            _pattern(tax, ["A", "B"], [(0, 1)]),
            _pattern(tax, ["A", "C"], [(0, 1)]),
        ]
        for query in queries:
            reader.query("support", query)
            assert reader.query("support", query).cached

        IncrementalTaxogram(str(live_store)).apply(DatabaseDelta.removing([3]))

        for query in queries:
            assert not reader.query("support", query).cached

    def test_reader_blocks_out_while_marker_present(self, live_store):
        reader = StoreReader(live_store, max_retries=3, retry_wait=0.001)
        tax = _taxonomy()
        query = _pattern(tax, ["A", "B"], [(0, 1)])
        assert reader.support(query) == 3
        # A marker alone (no version bump) must not force a reload: the
        # loaded snapshot is still the latest committed version.
        (live_store / "update.inprogress").touch()
        try:
            answer = reader.query("support", query)
            assert answer.value == 3
            assert answer.store_version == 1
        finally:
            (live_store / "update.inprogress").unlink()


class TestBatchExecutor:
    def test_results_in_input_order_with_errors(self, reader, tax):
        stray = tax.interner.intern("stray_label")
        queries = [
            Query("support", _pattern(tax, ["A", "B"], [(0, 1)])),
            Query("contains", _pattern(tax, ["a1", "b1"], [(0, 1)])),
            Query("support", Graph.from_edges([stray], [])),
            Query("top_k", k=2),
            Query("graphs", _pattern(tax, ["A", "C"], [(0, 1)])),
        ]
        results = BatchExecutor(reader, max_workers=3).run(queries)
        assert len(results) == 5
        assert results[0].value == 3
        assert results[1].value is True
        assert isinstance(results[2], ReproError)
        assert len(results[3].value) == 2
        assert results[4].value.graph_ids == frozenset({0, 3})

    def test_missing_pattern_is_an_error_result(self, reader):
        results = BatchExecutor(reader).run([Query("support")])
        assert isinstance(results[0], ReproError)

    def test_empty_batch(self, reader):
        assert BatchExecutor(reader).run([]) == []

    def test_unexpected_exception_is_isolated_and_wrapped(self, reader, tax):
        """A non-``ReproError`` escaping one query must not abandon the
        rest of its group (regression: it used to propagate through
        ``future.result()`` and leave ``None`` slots)."""

        class ExplodingReader:
            def class_key(self, pattern):
                return reader.class_key(pattern)

            def query(self, op, pattern=None, **kwargs):
                if op == "boom":
                    raise RuntimeError("disk on fire")
                return reader.query(op, pattern, **kwargs)

        results = BatchExecutor(ExplodingReader()).run(
            [Query("top_k", k=2),
             Query("boom", _pattern(tax, ["A", "B"], [(0, 1)])),
             Query("top_k", k=1)]
        )
        assert len(results[0].value) == 2
        assert len(results[2].value) == 1
        error = results[1]
        assert isinstance(error, ReproError)
        assert "query failed" in str(error)
        assert isinstance(error.__cause__, RuntimeError)

    def test_unexpected_exception_in_grouping_is_wrapped(self, reader, tax):
        class ExplodingKeyReader:
            def class_key(self, pattern):
                raise RuntimeError("index corrupted")

            def query(self, op, pattern=None, **kwargs):
                return reader.query(op, pattern, **kwargs)

        results = BatchExecutor(ExplodingKeyReader()).run(
            [Query("support", _pattern(tax, ["A", "B"], [(0, 1)])),
             Query("top_k", k=2)]
        )
        assert isinstance(results[0], ReproError)
        assert isinstance(results[0].__cause__, RuntimeError)
        assert len(results[1].value) == 2


class TestHTTPServer:
    @pytest.fixture
    def server(self, store_dir):
        server, _reader = serve_async(store_dir, port=0)
        server.start_background()
        yield server
        server.stop_background()

    def _get(self, server, path):
        host, port = server.host, server.port
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}{path}"
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def _post(self, server, path, doc):
        host, port = server.host, server.port
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=json.dumps(doc).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_health(self, server):
        status, doc = self._get(server, "/health")
        assert status == 200
        assert doc["store_version"] == 1
        assert doc["database_size"] == 4

    def test_query_support(self, server):
        status, doc = self._post(
            server,
            "/query",
            {"op": "support", "pattern": "t # 0\nv 0 A\nv 1 B\ne 0 1 -\n"},
        )
        assert status == 200
        assert doc["value"] == 3

    def test_query_graphs(self, server):
        status, doc = self._post(
            server,
            "/query",
            {"op": "graphs", "pattern": "t # 0\nv 0 a1\nv 1 b1\ne 0 1 -\n"},
        )
        assert status == 200
        assert doc["value"]["graph_ids"] == [0, 1]
        assert doc["value"]["path"] == "bitset"

    def test_top_endpoint(self, server):
        status, doc = self._get(server, "/top?k=2")
        assert status == 200
        assert len(doc["value"]) == 2
        assert doc["value"][0]["support_count"] >= doc["value"][1][
            "support_count"
        ]

    def test_metrics_endpoint(self, server):
        self._post(
            server,
            "/query",
            {"op": "support", "pattern": "t # 0\nv 0 A\nv 1 B\ne 0 1 -\n"},
        )
        status, doc = self._get(server, "/metrics")
        assert status == 200
        assert doc["counters"]["serving.queries"] >= 1

    def test_bad_pattern_is_400(self, server):
        status, doc = self._post(
            server,
            "/query",
            {"op": "support", "pattern": "t # 0\nv 0 no_such\n"},
        )
        assert status == 400
        assert "no_such" in doc["error"]

    def test_malformed_body_is_400(self, server):
        status, _doc = self._post(server, "/query", {"op": "support"})
        assert status == 400

    def test_unknown_path_is_404(self, server):
        status, _doc = self._get(server, "/nope")
        assert status == 404

    def test_concurrent_requests(self, server):
        payload = {"op": "support", "pattern": "t # 0\nv 0 A\nv 1 B\ne 0 1 -\n"}
        values = []
        def hit():
            values.append(self._post(server, "/query", payload)[1]["value"])
        threads = [threading.Thread(target=hit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert values == [3] * 6


# -- property-based differential harness ---------------------------------------


def _oracle_graph_ids(pattern, database, taxonomy):
    return frozenset(
        graph.graph_id
        for graph in database
        if is_generalized_subgraph_isomorphic(pattern, graph, taxonomy)
    )


def _query_universe(database, taxonomy, rng, cap):
    """Deduped query patterns: occurring subgraphs, random ancestor
    generalizations of them, and random (often non-occurring) relabelings
    of their structures."""
    all_labels = sorted(taxonomy.labels())
    seen: dict[tuple, Graph] = {}
    for graph in database:
        for sub, _mapping in connected_edge_subgraphs(graph, 2):
            generalized = sub.copy()
            for v in generalized.nodes():
                ancestors = sorted(
                    taxonomy.ancestors_or_self(generalized.node_label(v))
                )
                generalized.relabel_node(v, rng.choice(ancestors))
            scrambled = sub.copy()
            for v in scrambled.nodes():
                scrambled.relabel_node(v, rng.choice(all_labels))
            for candidate in (sub, generalized, scrambled):
                code = min_dfs_code(candidate)
                if code.edges not in seen:
                    seen[code.edges] = candidate
    universe = list(seen.values())
    rng.shuffle(universe)
    return universe[:cap]


def _check_seed(seed, tmp_path, cap=40):
    database, taxonomy, sigma = make_differential_case(seed)
    directory = tmp_path / f"store{seed}"
    Taxogram(
        TaxogramOptions(
            min_support=sigma, max_edges=2, store_out=str(directory)
        )
    ).mine(database, taxonomy)
    mined_codes = {
        p.code
        for p in mine(database, taxonomy, min_support=sigma, max_edges=2)
    }
    reader = StoreReader(directory)
    rng = random.Random(seed * 7919 + 17)
    for pattern in _query_universe(database, taxonomy, rng, cap):
        expected = _oracle_graph_ids(pattern, database, taxonomy)
        label = f"seed={seed} pattern={min_dfs_code(pattern).edges}"
        assert reader.support(pattern) == len(expected), label
        match = reader.graphs_matching(pattern)
        assert match.graph_ids == expected, label
        assert reader.contains(pattern) == (
            min_dfs_code(pattern) in mined_codes
        ), label


class TestDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 6, 9])
    def test_reader_matches_vf2_oracle(self, seed, tmp_path):
        _check_seed(seed, tmp_path)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", list(range(10, 50)))
    def test_reader_matches_vf2_oracle_wide(self, seed, tmp_path):
        _check_seed(seed, tmp_path, cap=80)


# -- concurrency stress ---------------------------------------------------------


class TestFirstTouch:
    def test_threads_share_one_index_build_per_class(self, store_dir):
        """Eight threads touch a fresh reader's classes at once, with a
        short switch interval: each class's occurrence index is built
        once, and every thread's Step-3 walk (which shares the index's
        children cache) answers as a single-threaded reader does."""
        tax = _taxonomy()
        patterns = [
            _pattern(tax, ["A", "B"], [(0, 1)]),
            _pattern(tax, ["A", "C"], [(0, 1)]),
        ]

        def specializations(reader):
            return [
                [str(p) for p in reader.specializations(q, min_support=0.25)]
                for q in patterns
            ]

        expected = specializations(StoreReader(store_dir))
        reader = StoreReader(store_dir)
        answers: list = []
        failures: list[BaseException] = []

        def worker() -> None:
            try:
                answers.append(specializations(reader))
            except BaseException as exc:  # noqa: BLE001 - recorded
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert answers == [expected] * 8
        assert reader.metrics.counter("serving.row_loads") == len(patterns)


@pytest.mark.slow
class TestConcurrencyStress:
    def test_eight_threads_during_incremental_update(self, tmp_path):
        """8 threads of mixed queries against one StoreReader while an
        IncrementalTaxogram applies a delta to the same directory: every
        answer must be consistent with the pre- or post-update version
        (no torn reads, no stale cache)."""
        tax = _taxonomy()
        database = _database(tax)
        directory = tmp_path / "store"
        Taxogram(
            TaxogramOptions(
                min_support=0.5, max_edges=2, store_out=str(directory)
            )
        ).mine(database, tax)
        delta = DatabaseDelta.removing([1])

        queries = [
            ("support", _pattern(tax, ["A", "B"], [(0, 1)])),
            ("support", _pattern(tax, ["a1", "b1"], [(0, 1)])),
            ("contains", _pattern(tax, ["a1", "C"], [(0, 1)])),
            ("graphs", _pattern(tax, ["A", "C"], [(0, 1)])),
            ("support", _pattern(tax, ["B", "C"], [(0, 1)])),
        ]

        def normalize(op, value):
            return value.graph_ids if op == "graphs" else value

        def snapshot(snap_reader):
            return [
                normalize(op, snap_reader.query(op, pattern).value)
                for op, pattern in queries
            ]

        # Expected answers for both versions, computed on copies.
        pre_copy = tmp_path / "pre"
        shutil.copytree(directory, pre_copy)
        pre_reader = StoreReader(pre_copy)
        v_pre = pre_reader.version
        expected = {v_pre: snapshot(pre_reader)}
        post_copy = tmp_path / "post"
        shutil.copytree(directory, post_copy)
        IncrementalTaxogram(str(post_copy)).apply(delta)
        post_reader = StoreReader(post_copy)
        v_post = post_reader.version
        expected[v_post] = snapshot(post_reader)
        assert v_post == v_pre + 1
        assert expected[v_pre] != expected[v_post]  # the delta is visible

        reader = StoreReader(directory, max_retries=500, retry_wait=0.002)
        observations: list[tuple[int, int, object]] = []
        failures: list[BaseException] = []
        stop = threading.Event()

        def worker(worker_id: int) -> None:
            rng = random.Random(worker_id)
            while not stop.is_set():
                index = rng.randrange(len(queries))
                op, pattern = queries[index]
                try:
                    answer = reader.query(op, pattern)
                    observations.append(
                        (
                            index,
                            answer.store_version,
                            normalize(op, answer.value),
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)
                    return

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        IncrementalTaxogram(str(directory)).apply(delta)
        time.sleep(0.1)
        stop.set()
        for thread in threads:
            thread.join()

        assert not failures, failures[:3]
        assert observations
        versions_seen = {version for _i, version, _v in observations}
        assert versions_seen <= {v_pre, v_post}
        for index, version, value in observations:
            assert value == expected[version][index], (
                f"query {index} returned {value!r} at version {version}"
            )

        # After the update the reader converges to the new version.
        final = reader.query(*queries[0])
        assert final.store_version == v_post
        assert normalize("support", final.value) == expected[v_post][0]
