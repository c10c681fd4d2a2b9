"""Tests for directed mining: DiGraph through the core canonical codes,
gSpan, VF2, Taxogram and oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import mine_with_oracle
from repro.core.tacgm import TAcGM, TAcGMOptions
from repro.core.taxogram import Taxogram, TaxogramOptions, mine
from repro.exceptions import GraphError, MiningError, TaxonomyError
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.graphs.graph import Graph
from repro.isomorphism.vf2 import (
    is_generalized_isomorphic,
    is_generalized_subgraph_isomorphic,
    is_subgraph_isomorphic,
    iter_embeddings,
)
from repro.mining.brute_force import brute_force_frequent_subgraphs
from repro.mining.dfs_code import (
    DFSCode,
    clear_canonical_caches,
    graph_from_code,
    is_min_code,
    min_dfs_code,
)
from repro.mining.gspan import GSpanMiner
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.util.interner import LabelInterner
from tests.conftest import make_random_taxonomy


def random_weak_digraph(rng: random.Random, labels: int = 3,
                        max_nodes: int = 5) -> DiGraph:
    n = rng.randint(2, max_nodes)
    g = DiGraph()
    for _ in range(n):
        g.add_node(rng.randrange(labels))
    for v in range(1, n):
        u = rng.randrange(v)
        if rng.random() < 0.5:
            g.add_arc(u, v, rng.randrange(2))
        else:
            g.add_arc(v, u, rng.randrange(2))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_arc(u, v):
            g.add_arc(u, v, rng.randrange(2))
    return g


class TestDiGraph:
    def test_arcs_are_directional(self):
        g = DiGraph.from_arcs([1, 2], [(0, 1, 5)])
        assert g.has_arc(0, 1)
        assert not g.has_arc(1, 0)
        assert g.arc_label(0, 1) == 5
        with pytest.raises(GraphError, match="no arc"):
            g.arc_label(1, 0)

    def test_antiparallel_arcs_allowed(self):
        g = DiGraph.from_arcs([1, 1], [(0, 1, 2), (1, 0, 3)])
        assert g.num_edges == 2
        assert g.arc_label(0, 1) == 2
        assert g.arc_label(1, 0) == 3

    def test_duplicate_and_self_loop_rejected(self):
        g = DiGraph.from_arcs([1, 2], [(0, 1)])
        with pytest.raises(GraphError, match="duplicate"):
            g.add_arc(0, 1)
        with pytest.raises(GraphError, match="self-loop"):
            g.add_arc(0, 0)

    def test_in_out_items_and_degree(self):
        g = DiGraph.from_arcs([1, 2, 3], [(0, 1, 7), (2, 1, 8)])
        assert dict(g.out_items(0)) == {1: 7}
        assert dict(g.in_items(1)) == {0: 7, 2: 8}
        assert g.degree(1) == 2

    def test_weak_connectivity(self):
        assert DiGraph.from_arcs([1, 2], [(0, 1)]).is_connected()
        assert not DiGraph.from_arcs([1, 2, 3], [(0, 1)]).is_connected()

    def test_database(self):
        db = DiGraphDatabase()
        g = db.new_graph(["a", "b"], [(0, 1, "x")])
        assert g.graph_id == 0
        assert len(db) == 1
        assert db.stats().avg_edges == 1.0
        clone = db.copy()
        clone[0].relabel_node(0, clone.node_labels.intern("z"))
        assert db.node_labels.name_of(db[0].node_label(0)) == "a"


class TestDirectedCanonicalForm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        g = random_weak_digraph(rng)
        code = min_dfs_code(g)
        assert is_min_code(code)
        perm = list(range(g.num_nodes))
        rng.shuffle(perm)
        g2 = DiGraph()
        for _ in range(g.num_nodes):
            g2.add_node(0)
        for v in g.nodes():
            g2.relabel_node(perm[v], g.node_label(v))
        for u, v, e in g.arcs():
            g2.add_arc(perm[u], perm[v], e)
        assert min_dfs_code(g2) == code

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        g = random_weak_digraph(rng)
        code = min_dfs_code(g)
        rebuilt = graph_from_code(code)
        assert rebuilt.num_nodes == g.num_nodes
        assert rebuilt.num_edges == g.num_edges
        assert min_dfs_code(rebuilt) == code

    def test_direction_distinguishes_codes(self):
        forward = DiGraph.from_arcs([1, 2], [(0, 1, 0)])
        backward = DiGraph.from_arcs([1, 2], [(1, 0, 0)])
        assert min_dfs_code(forward) != min_dfs_code(backward)

    def test_disconnected_rejected(self):
        g = DiGraph.from_arcs([1, 2, 3], [(0, 1)])
        with pytest.raises(MiningError, match="not connected"):
            min_dfs_code(g)

    def test_empty_code(self):
        assert min_dfs_code(DiGraph.from_arcs([5], [])).edges == ()
        assert is_min_code(DFSCode(()))


class TestDirectedIsomorphism:
    def test_direction_respected(self):
        pattern = DiGraph.from_arcs([1, 2], [(0, 1, 0)])
        host_same = DiGraph.from_arcs([1, 2, 3], [(0, 1, 0), (2, 1, 0)])
        host_flip = DiGraph.from_arcs([1, 2], [(1, 0, 0)])
        assert is_subgraph_isomorphic(pattern, host_same)
        assert not is_subgraph_isomorphic(pattern, host_flip)

    def test_generalized(self):
        tax = taxonomy_from_parent_names({"b": "a", "x": []})
        a, b, x = (tax.id_of(n) for n in "abx")
        pattern = DiGraph.from_arcs([a, x], [(0, 1, 0)])
        host = DiGraph.from_arcs([b, x], [(0, 1, 0)])
        assert is_generalized_subgraph_isomorphic(pattern, host, tax)
        assert not is_generalized_subgraph_isomorphic(host, pattern, tax)
        assert is_generalized_isomorphic(pattern, host, tax)

    def test_embedding_count_on_antiparallel(self):
        # Pattern a->a in host with arcs both ways: two embeddings.
        pattern = DiGraph.from_arcs([1, 1], [(0, 1, 0)])
        host = DiGraph.from_arcs([1, 1], [(0, 1, 0), (1, 0, 0)])
        assert len(list(iter_embeddings(pattern, host))) == 2


class TestDirectedGSpan:
    def test_direction_separates_patterns(self):
        db = DiGraphDatabase()
        db.new_graph(["a", "b"], [(0, 1, "x")])
        db.new_graph(["a", "b"], [(0, 1, "x")])
        db.new_graph(["a", "b"], [(1, 0, "x")])
        patterns = GSpanMiner(db, min_support=0.5).mine()
        supports = sorted(p.support_count for p in patterns)
        # a->b in two graphs; b->a only in one (below threshold 2).
        assert supports == [2]

    def test_matches_directed_brute_force(self):
        rng = random.Random(3)
        for _ in range(10):
            db = DiGraphDatabase()
            for index in range(3):  # label ids 0..2 used by the generator
                db.node_labels.intern(f"l{index}")
            for _g in range(rng.randint(2, 3)):
                db.add_graph(random_weak_digraph(rng, max_nodes=4))
            sigma = 0.5
            miner = GSpanMiner(db, sigma, max_edges=2)
            mined = {p.code: p.support_set for p in miner.mine()}
            expected = brute_force_frequent_subgraphs(db, sigma, 2)
            assert mined == expected


class TestDirectedTaxogram:
    def _fixture(self):
        tax = taxonomy_from_parent_names({"b": "a", "c": "a", "x": []})
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["b", "x"], [(0, 1)])
        db.new_graph(["c", "x"], [(0, 1)])
        return db, tax

    def test_implied_directed_pattern(self):
        db, tax = self._fixture()
        result = mine(db, tax, min_support=1.0)
        assert result.algorithm == "taxogram-directed"
        assert len(result) == 1
        pattern = result.patterns[0]
        names = [
            tax.name_of(pattern.graph.node_label(v))
            for v in pattern.graph.nodes()
        ]
        assert sorted(names) == ["a", "x"]
        # The arc points from the 'a' node to the 'x' node.
        (source, target, _label), = pattern.graph.arcs()
        assert tax.name_of(pattern.graph.node_label(source)) == "a"

    def test_direction_matters_for_support(self):
        tax = taxonomy_from_parent_names({"b": "a", "x": []})
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["b", "x"], [(0, 1)])
        db.new_graph(["b", "x"], [(1, 0)])  # reversed
        result = mine(db, tax, min_support=1.0)
        assert len(result) == 0  # no direction-consistent common pattern

    def test_unknown_label_rejected(self):
        tax = taxonomy_from_parent_names({"b": "a"})
        db = DiGraphDatabase(node_labels=tax.interner)
        db.node_labels.intern("alien")
        db.new_graph(["alien"], [])
        with pytest.raises(TaxonomyError):
            mine(db, tax)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_equals_directed_oracle(self, seed):
        rng = random.Random(seed)
        interner = LabelInterner()
        tax = make_random_taxonomy(
            rng, interner, rng.randint(3, 7),
            dag=seed % 2 == 1, multiroot=seed % 5 == 4,
        )
        labels = list(tax.labels())
        db = DiGraphDatabase(node_labels=interner)
        for _ in range(rng.randint(2, 4)):
            n = rng.randint(2, 4)
            names = [interner.name_of(rng.choice(labels)) for _ in range(n)]
            graph = db.new_graph(names, [])
            for _ in range(rng.randint(1, 5)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not graph.has_arc(u, v):
                    graph.add_arc(u, v, 0)
        sigma = rng.choice([0.5, 1.0])
        oracle = mine_with_oracle(db, tax, sigma, max_edges=2)
        result = mine(db, tax, min_support=sigma, max_edges=2)
        assert result.pattern_codes() == oracle.pattern_codes()


class TestDirectedLemma2:
    """sup(P) <= sup(Pg) for every generalization Pg of a directed P."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_generalizing_never_lowers_support(self, seed):
        from repro.core.relabel import repair_taxonomy
        from repro.isomorphism.vf2 import find_embedding
        from repro.isomorphism.matchers import GeneralizedMatcher

        rng = random.Random(seed)
        interner = LabelInterner()
        tax = make_random_taxonomy(rng, interner, rng.randint(3, 6),
                                   dag=seed % 2 == 0)
        labels = list(tax.labels())
        db = DiGraphDatabase(node_labels=interner)
        for _ in range(rng.randint(2, 3)):
            n = rng.randint(2, 4)
            names = [interner.name_of(rng.choice(labels)) for _ in range(n)]
            graph = db.new_graph(names, [])
            for _ in range(rng.randint(1, 4)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not graph.has_arc(u, v):
                    graph.add_arc(u, v, 0)
        working, _mg = repair_taxonomy(tax)
        matcher = GeneralizedMatcher(working)
        result = mine(db, tax, min_support=0.5, max_edges=2)
        for pattern in result.patterns[:8]:
            graph = pattern.graph
            for v in graph.nodes():
                for parent in working.parents_of(graph.node_label(v)):
                    generalized = graph.copy()
                    generalized.relabel_node(v, parent)
                    support = sum(
                        1
                        for g in db
                        if find_embedding(generalized, g, matcher)
                        is not None
                    )
                    assert support >= pattern.support_count


class TestCanonicalCacheKeys:
    """min_dfs_code memoizes on structure_key(); a Graph and a DiGraph
    with the same labels and (u, v, label) list must not share a code."""

    @pytest.mark.parametrize("digraph_first", [False, True])
    def test_code_width_follows_graph_type(self, digraph_first):
        clear_canonical_caches()
        graph = Graph.from_edges([1, 2], [(0, 1, 0)])
        digraph = DiGraph.from_arcs([1, 2], [(0, 1, 0)])
        first, second = (digraph, graph) if digraph_first else (graph, digraph)
        codes = {id(first): min_dfs_code(first), id(second): min_dfs_code(second)}
        assert [len(edge) for edge in codes[id(graph)].edges] == [5]
        assert [len(edge) for edge in codes[id(digraph)].edges] == [6]


class TestDirectedLibraryGuards:
    """Directed databases are mined by the sequential pipeline (memory or
    disk index) and refused by the parallel, store and TAcGM paths."""

    def _fixture(self):
        tax = taxonomy_from_parent_names(
            {"b": "a", "c": "a", "y": "x", "z": "x"}
        )
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["b", "y", "c"], [(0, 1), (2, 1)])
        db.new_graph(["c", "z", "b"], [(0, 1), (1, 2)])
        db.new_graph(["b", "z"], [(1, 0)])
        return db, tax

    def test_memory_and_disk_index_equal_oracle(self, tmp_path):
        db, tax = self._fixture()
        oracle = mine_with_oracle(db, tax, 0.5, max_edges=2)
        assert len(oracle) > 0
        for backend in ("memory", "disk"):
            result = Taxogram(
                TaxogramOptions(
                    min_support=0.5,
                    max_edges=2,
                    occurrence_index_backend=backend,
                    disk_index_directory=str(tmp_path),
                )
            ).mine(db, tax)
            assert result.algorithm == "taxogram-directed"
            assert result.pattern_codes() == oracle.pattern_codes()

    def test_workers_rejected(self):
        db, tax = self._fixture()
        with pytest.raises(MiningError, match="workers"):
            Taxogram(TaxogramOptions(min_support=0.5, workers=2)).mine(db, tax)

    def test_store_out_rejected(self, tmp_path):
        db, tax = self._fixture()
        options = TaxogramOptions(min_support=0.5, store_out=str(tmp_path / "s"))
        with pytest.raises(MiningError, match="store_out"):
            Taxogram(options).mine(db, tax)
        assert not (tmp_path / "s").exists()

    def test_tacgm_rejected(self):
        db, tax = self._fixture()
        with pytest.raises(MiningError, match="TAcGM"):
            TAcGM(TAcGMOptions(min_support=0.5)).mine(db, tax)
