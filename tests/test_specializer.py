"""Unit tests for Step 3: specialized-pattern enumeration.

The fixtures mirror the mechanics of the paper's Figures 3.2-3.4: a
two-node pattern class with a hand-built occurrence index, so occurrence
sets, supports and over-generalization decisions can be checked against
hand-computed values.
"""

from __future__ import annotations

from repro.core.occurrence_index import build_occurrence_index
from repro.core.results import MiningCounters
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.graphs.graph import Graph
from repro.mining.gspan import Embedding
from repro.taxonomy.builders import taxonomy_from_parent_names


def _run(taxonomy, structure, embeddings, originals, min_count,
         database_size, options=None):
    counters = MiningCounters()
    store, index = build_occurrence_index(
        structure.num_nodes, embeddings, originals, taxonomy, None, counters
    )
    patterns = specialize_class(
        class_id=0,
        structure=structure,
        store=store,
        index=index,
        taxonomy=taxonomy,
        min_count=min_count,
        database_size=database_size,
        options=options or SpecializerOptions(),
        counters=counters,
    )
    return patterns, counters


def _paper_like_fixture():
    """Three graphs, one a—a pattern class with four occurrences.

    Taxonomy: a -> {b, c}; b -> d; c -> w.
    Originals at (top, bottom) positions per occurrence:
        G0.1: (d, c)   G1.1: (b, c)   G1.2: (c, w)   G2.1: (a, c)
    """
    taxonomy = taxonomy_from_parent_names(
        {"a": [], "b": "a", "c": "a", "d": "b", "w": "c"}
    )
    ids = {n: taxonomy.id_of(n) for n in "abcdw"}
    structure = Graph.from_edges([ids["a"], ids["a"]], [(0, 1, 0)])
    originals = [
        [ids["d"], ids["c"]],
        [ids["b"], ids["c"], ids["c"], ids["w"]],
        [ids["a"], ids["c"]],
    ]
    embeddings = [
        Embedding(0, (0, 1), frozenset()),
        Embedding(1, (0, 1), frozenset()),
        Embedding(1, (2, 3), frozenset()),
        Embedding(2, (0, 1), frozenset()),
    ]
    return taxonomy, ids, structure, originals, embeddings


class TestEnumeration:
    def test_support_by_intersection(self):
        taxonomy, ids, structure, originals, embeddings = _paper_like_fixture()
        patterns, _ = _run(taxonomy, structure, embeddings, originals,
                           min_count=2, database_size=3)
        by_labels = {
            tuple(
                taxonomy.name_of(p.graph.node_label(v))
                for v in p.graph.nodes()
            ): p
            for p in patterns
        }
        # Keys are canonical-code ordered; collect as frozensets of names.
        supports = {
            frozenset(k): p.support_count for k, p in by_labels.items()
        }
        # b at the top position covers occurrences G0.1 (d<=b) and G1.1;
        # combined with c at the bottom -> graphs {0, 1}.
        assert supports.get(frozenset({"b", "c"})) == 2

    def test_infrequent_specializations_pruned(self):
        taxonomy, ids, structure, originals, embeddings = _paper_like_fixture()
        patterns, _ = _run(taxonomy, structure, embeddings, originals,
                           min_count=3, database_size=3)
        for p in patterns:
            assert p.support_count >= 3

    def test_no_duplicate_patterns_from_automorphisms(self):
        taxonomy = taxonomy_from_parent_names({"a": [], "b": "a"})
        a, b = taxonomy.id_of("a"), taxonomy.id_of("b")
        structure = Graph.from_edges([a, a], [(0, 1, 0)])
        # One graph: edge (b, b) -> two automorphic embeddings.
        originals = [[b, b]]
        embeddings = [
            Embedding(0, (0, 1), frozenset()),
            Embedding(0, (1, 0), frozenset()),
        ]
        patterns, _ = _run(taxonomy, structure, embeddings, originals,
                           min_count=1, database_size=1)
        codes = [p.code for p in patterns]
        assert len(codes) == len(set(codes))
        # b-b is the only minimal pattern (a-a and a-b over-generalized).
        names = {
            frozenset(
                taxonomy.name_of(p.graph.node_label(v))
                for v in p.graph.nodes()
            )
            for p in patterns
        }
        assert names == {frozenset({"b"})}

    def test_overgeneralized_intermediate_eliminated(self):
        taxonomy, ids, structure, originals, embeddings = _paper_like_fixture()
        patterns, counters = _run(taxonomy, structure, embeddings, originals,
                                  min_count=3, database_size=3)
        # Bottom position is always c-or-below: a—a (support 3) is
        # over-generalized by a—c (support 3).
        label_sets = {
            tuple(
                sorted(
                    taxonomy.name_of(p.graph.node_label(v))
                    for v in p.graph.nodes()
                )
            )
            for p in patterns
        }
        assert ("a", "a") not in label_sets
        assert ("a", "c") in label_sets
        assert counters.overgeneralized_eliminated >= 1


class TestEnhancements:
    def test_collapse_skips_equal_occurrence_chain(self):
        # Chain a -> b -> c where every occurrence is c: the class base
        # collapses straight to c and a/b are counted as eliminated.
        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "b", "x": []})
        a, b, c, x = (taxonomy.id_of(n) for n in "abcx")
        structure = Graph.from_edges([a, x], [(0, 1, 0)])
        originals = [[c, x], [c, x]]
        embeddings = [
            Embedding(0, (0, 1), frozenset()),
            Embedding(1, (0, 1), frozenset()),
        ]
        with_collapse, counters = _run(
            taxonomy, structure, embeddings, originals, 2, 2,
            SpecializerOptions(occurrence_collapse=True),
        )
        without_collapse, _ = _run(
            taxonomy, structure, embeddings, originals, 2, 2,
            SpecializerOptions(occurrence_collapse=False),
        )
        assert {p.code for p in with_collapse} == {
            p.code for p in without_collapse
        }
        assert counters.overgeneralized_eliminated >= 2  # a and b skipped

    def test_equal_child_label_dropped_where_collapse_cannot_fire(self):
        # DAG a -> {b, c}, d -> {b, c}, e -> c, and y -> {y1, y2}.  Every
        # base label has two covered children, so the pre-enumeration
        # collapse cannot fire.  The partial-assignment rule drops a (its
        # set equals c's), b (equals d's) and, with d at position 0, y
        # (equals y1's there though not globally).
        taxonomy = taxonomy_from_parent_names({
            "a": [], "b": "a", "c": "a", "d": ["b", "c"], "e": "c",
            "y": [], "y1": "y", "y2": "y",
        })
        ids = {n: taxonomy.id_of(n) for n in ("a", "d", "e", "y", "y1", "y2")}
        structure = Graph.from_edges([ids["a"], ids["y"]], [(0, 1, 0)])
        originals = [
            [ids["d"], ids["y1"]],
            [ids["d"], ids["y1"]],
            [ids["e"], ids["y2"]],
        ]
        embeddings = [
            Embedding(gid, (0, 1), frozenset()) for gid in range(3)
        ]
        with_rule, counters_on = _run(
            taxonomy, structure, embeddings, originals, 1, 3,
            SpecializerOptions(occurrence_collapse=True),
        )
        without_rule, counters_off = _run(
            taxonomy, structure, embeddings, originals, 1, 3,
            SpecializerOptions(occurrence_collapse=False),
        )

        def view(patterns):
            return {
                (p.code, p.support_count, p.support_mask) for p in patterns
            }

        assert view(with_rule) == view(without_rule)
        assert {
            tuple(
                taxonomy.name_of(p.graph.node_label(v))
                for v in p.graph.nodes()
            )
            for p in with_rule
        } == {("c", "y"), ("d", "y1"), ("e", "y2")}
        assert (
            counters_on.candidates_enumerated
            < counters_off.candidates_enumerated
        )

    def test_descendant_pruning_changes_work_not_results(self):
        taxonomy, ids, structure, originals, embeddings = _paper_like_fixture()
        pruned, counters_pruned = _run(
            taxonomy, structure, embeddings, originals, 2, 3,
            SpecializerOptions(descendant_pruning=True,
                               occurrence_collapse=False),
        )
        exhaustive, counters_full = _run(
            taxonomy, structure, embeddings, originals, 2, 3,
            SpecializerOptions(descendant_pruning=False,
                               occurrence_collapse=False),
        )
        assert {p.code for p in pruned} == {p.code for p in exhaustive}
        assert (
            counters_full.bitset_intersections
            >= counters_pruned.bitset_intersections
        )
