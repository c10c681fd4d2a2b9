"""Tests for VF2-style (generalized) subgraph isomorphism."""

from __future__ import annotations

import random
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.isomorphism.matchers import ExactMatcher, GeneralizedMatcher
from repro.isomorphism.vf2 import (
    count_embeddings,
    find_embedding,
    is_generalized_isomorphic,
    is_generalized_subgraph_isomorphic,
    is_subgraph_isomorphic,
    iter_embeddings,
)
from repro.similarity.homomorphism import iter_homomorphisms
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.util.interner import LabelInterner
from tests.conftest import make_random_taxonomy


def _tax():
    return taxonomy_from_parent_names(
        {"root": [], "a": "root", "b": "root", "a1": "a", "a2": "a", "b1": "b"}
    )


class TestMatchers:
    def test_exact(self):
        m = ExactMatcher()
        assert m.matches(1, 1)
        assert not m.matches(1, 2)

    def test_generalized(self):
        tax = _tax()
        m = GeneralizedMatcher(tax)
        root, a, a1, b1 = (tax.id_of(n) for n in ("root", "a", "a1", "b1"))
        assert m.matches(a, a1)  # ancestor matches descendant
        assert m.matches(a1, a1)
        assert not m.matches(a1, a)  # descendant does not match ancestor
        assert not m.matches(a, b1)
        assert m.matches(root, b1)

    def test_generalized_labels_outside_taxonomy(self):
        tax = _tax()
        interner = tax.interner
        foreign = interner.intern("not_in_taxonomy")
        m = GeneralizedMatcher(tax)
        assert m.matches(foreign, foreign)  # equality still works
        assert not m.matches(foreign, tax.id_of("a1"))
        assert not m.matches(tax.id_of("a"), foreign)


class TestExactSubgraphIso:
    def test_edge_in_triangle(self):
        pattern = Graph.from_edges([1, 2], [(0, 1, 7)])
        triangle = Graph.from_edges([1, 2, 3], [(0, 1, 7), (1, 2, 7), (0, 2, 7)])
        assert is_subgraph_isomorphic(pattern, triangle)

    def test_edge_label_must_match(self):
        pattern = Graph.from_edges([1, 2], [(0, 1, 7)])
        host = Graph.from_edges([1, 2], [(0, 1, 8)])
        assert not is_subgraph_isomorphic(pattern, host)

    def test_non_induced_semantics(self):
        # A 3-path embeds into a triangle (extra host edge allowed).
        path = Graph.from_edges([1, 1, 1], [(0, 1), (1, 2)])
        triangle = Graph.from_edges([1, 1, 1], [(0, 1), (1, 2), (0, 2)])
        assert is_subgraph_isomorphic(path, triangle)

    def test_pattern_larger_than_host(self):
        pattern = Graph.from_edges([1, 1, 1], [(0, 1), (1, 2)])
        host = Graph.from_edges([1, 1], [(0, 1)])
        assert not is_subgraph_isomorphic(pattern, host)

    def test_empty_pattern_has_one_embedding(self):
        host = Graph.from_edges([1], [])
        assert list(iter_embeddings(Graph(), host)) == [()]

    def test_count_embeddings_automorphisms(self):
        # Symmetric edge a-a in a single a-a host edge: 2 embeddings.
        pattern = Graph.from_edges([1, 1], [(0, 1)])
        host = Graph.from_edges([1, 1], [(0, 1)])
        assert count_embeddings(pattern, host) == 2

    def test_disconnected_pattern(self):
        pattern = Graph.from_edges([1, 2], [])
        host = Graph.from_edges([2, 1, 3], [(0, 1)])
        embedding = find_embedding(pattern, host)
        assert embedding is not None
        assert host.node_label(embedding[0]) == 1
        assert host.node_label(embedding[1]) == 2


class TestGeneralizedSubgraphIso:
    def test_paper_semantics(self):
        tax = _tax()
        pattern = Graph.from_edges([tax.id_of("a"), tax.id_of("b")], [(0, 1)])
        host = Graph.from_edges([tax.id_of("a1"), tax.id_of("b1")], [(0, 1)])
        assert is_generalized_subgraph_isomorphic(pattern, host, tax)
        # The reverse is not true: specific labels do not match general ones.
        assert not is_generalized_subgraph_isomorphic(host, pattern, tax)

    def test_strict_structure_isomorphism(self):
        tax = _tax()
        a, a1 = tax.id_of("a"), tax.id_of("a1")
        pattern = Graph.from_edges([a, a], [(0, 1)])
        host_path = Graph.from_edges([a1, a1, a1], [(0, 1), (1, 2)])
        host_edge = Graph.from_edges([a1, a1], [(0, 1)])
        assert is_generalized_isomorphic(pattern, host_edge, tax)
        assert not is_generalized_isomorphic(pattern, host_path, tax)  # sizes

    def test_strict_structure_rejects_extra_edges(self):
        tax = _tax()
        a, a1 = tax.id_of("a"), tax.id_of("a1")
        path = Graph.from_edges([a, a, a], [(0, 1), (1, 2)])
        triangle = Graph.from_edges([a1, a1, a1], [(0, 1), (1, 2), (0, 2)])
        assert not is_generalized_isomorphic(path, triangle, tax)
        assert is_generalized_isomorphic(
            path, triangle, tax, strict_structure=False
        )


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_embeddings_match_permutation_search(self, seed):
        rng = random.Random(seed)
        tax = make_random_taxonomy(rng, LabelInterner(), rng.randint(3, 6), dag=True)
        labels = list(tax.labels())

        def random_graph(n_max):
            n = rng.randint(1, n_max)
            g = Graph()
            for _ in range(n):
                g.add_node(rng.choice(labels))
            present = set()
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (min(u, v), max(u, v)) in present:
                    continue
                present.add((min(u, v), max(u, v)))
                g.add_edge(u, v, rng.randrange(2))
            return g

        pattern = random_graph(3)
        host = random_graph(5)
        matcher = GeneralizedMatcher(tax)
        found = set(iter_embeddings(pattern, host, matcher))

        expected = set()
        host_nodes = list(host.nodes())
        if pattern.num_nodes <= host.num_nodes:
            for perm in permutations(host_nodes, pattern.num_nodes):
                ok = True
                for p in pattern.nodes():
                    if not matcher.matches(
                        pattern.node_label(p), host.node_label(perm[p])
                    ):
                        ok = False
                        break
                if ok:
                    for u, v, e in pattern.edges():
                        if (
                            not host.has_edge(perm[u], perm[v])
                            or host.edge_label(perm[u], perm[v]) != e
                        ):
                            ok = False
                            break
                if ok:
                    expected.add(tuple(perm))
        assert found == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_homomorphisms_match_product_search(self, seed):
        # A concept and one of its ancestors-or-self, one edge label, and
        # patterns of 3-4 nodes into hosts of 2-3 make folded maps common,
        # so a cut that is sound only for injective maps (used marks,
        # degree, pattern size) drops some.
        rng = random.Random(seed)
        tax = make_random_taxonomy(rng, LabelInterner(), rng.randint(3, 6), dag=True)
        concept = rng.choice(sorted(tax.labels()))
        labels = [concept, rng.choice(sorted(tax.ancestors_or_self(concept)))]

        def random_graph(n_min, n_max):
            n = rng.randint(n_min, n_max)
            g = Graph()
            for _ in range(n):
                g.add_node(rng.choice(labels))
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v, 0)
            return g

        pattern = random_graph(3, 4)
        host = random_graph(2, 3)
        matcher = GeneralizedMatcher(tax)
        found = list(iter_homomorphisms(pattern, host, matcher))

        expected = set()
        for image in product(host.nodes(), repeat=pattern.num_nodes):
            if all(
                matcher.matches(pattern.node_label(p), host.node_label(image[p]))
                for p in pattern.nodes()
            ) and all(
                host.has_edge(image[u], image[v])
                and host.edge_label(image[u], image[v]) == e
                for u, v, e in pattern.edges()
            ):
                expected.add(image)
        assert len(found) == len(set(found))
        assert set(found) == expected
        assert set(iter_embeddings(pattern, host, matcher)) == {
            image for image in expected if len(set(image)) == len(image)
        }
