"""Unit tests for :mod:`repro.similarity`.

The differential suite (``tests/test_similarity_differential.py``)
pins the subsystem against brute-force oracles and the exact serving
path; these tests pin the individual pieces — the measure's defining
invariant (``sim == 1.0`` iff exact generalized match), threshold
validation, homomorphism semantics, the MCS solver on hand-checked
fixtures, treelet decomposition, and the engine's counters and
prefilter bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.isomorphism.matchers import GeneralizedMatcher
from repro.isomorphism.vf2 import (
    find_embedding,
    is_generalized_subgraph_isomorphic,
    iter_embeddings,
)
from repro.similarity import (
    MaximumCommonSubgraphSolver,
    SimilarityEngine,
    TaxonomySimilarity,
    ThresholdMatcher,
    TreeletIndex,
    find_homomorphism,
    fuzzy_contains,
    is_generalized_subgraph_homomorphic,
    iter_homomorphisms,
    pattern_fragments,
)
from repro.similarity.engine import validate_semantics
from repro.similarity.matcher import validate_threshold
from repro.taxonomy.builders import taxonomy_from_parent_names


def _go_taxonomy():
    # The tutorial's GO excerpt; longest-path depths in comments.
    return taxonomy_from_parent_names(
        {
            "molecular_function": [],            # 0
            "transporter": "molecular_function",  # 1
            "catalytic_activity": "molecular_function",  # 1
            "carrier": "transporter",             # 2
            "cation_transporter": "transporter",  # 2
            "helicase": "catalytic_activity",     # 2
            "dna_helicase": "helicase",           # 3
        }
    )


def _go_database(tax):
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(
        ["carrier", "dna_helicase", "cation_transporter"],
        [(0, 1, "interacts"), (1, 2, "interacts")],
    )
    db.new_graph(["cation_transporter", "helicase"], [(0, 1, "interacts")])
    db.new_graph(["carrier", "helicase"], [(0, 1, "interacts")])
    return db


def _graph(tax, labels, edges):
    return Graph.from_edges([tax.id_of(name) for name in labels], edges)


class TestTaxonomySimilarity:
    def test_equal_labels_score_one(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        carrier = tax.id_of("carrier")
        assert measure.node_similarity(carrier, carrier) == 1.0

    def test_generalization_scores_one_and_is_directional(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        helicase = tax.id_of("helicase")
        dna = tax.id_of("dna_helicase")
        assert measure.node_similarity(helicase, dna) == 1.0
        # The reverse direction is *not* an exact match: a pattern
        # label strictly below the graph label scores high, not 1.0.
        assert measure.node_similarity(dna, helicase) == pytest.approx(
            3 / 4
        )

    def test_sibling_score_is_normalized_common_ancestor_depth(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        carrier = tax.id_of("carrier")
        cation = tax.id_of("cation_transporter")
        helicase = tax.id_of("helicase")
        # Siblings under transporter (depth 1), both at depth 2.
        assert measure.node_similarity(carrier, cation) == pytest.approx(
            2 / 3
        )
        # Across the two depth-1 branches only the root is shared.
        assert measure.node_similarity(carrier, helicase) == pytest.approx(
            1 / 3
        )

    def test_one_iff_exact_generalized_match_over_all_pairs(self):
        # The subsystem's defining invariant, exhaustively.
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        for a in tax.labels():
            for b in tax.labels():
                sim = measure.node_similarity(a, b)
                assert 0.0 <= sim <= 1.0
                assert (sim == 1.0) == tax.is_ancestor_or_self(a, b), (
                    tax.name_of(a),
                    tax.name_of(b),
                )

    def test_non_taxonomy_labels_match_only_themselves(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        assert measure.node_similarity(10_000, 10_000) == 1.0
        assert measure.node_similarity(10_000, tax.id_of("carrier")) == 0.0
        assert measure.node_similarity(tax.id_of("carrier"), 10_000) == 0.0

    def test_excluded_root_keeps_components_dissimilar(self):
        # An artificial repair root would give unrelated components a
        # phantom resemblance; excluding it restores similarity 0.
        tax = taxonomy_from_parent_names(
            {"root": [], "A": "root", "B": "root"}
        )
        a, b = tax.id_of("A"), tax.id_of("B")
        assert TaxonomySimilarity(tax).node_similarity(a, b) == 0.5
        excluded = TaxonomySimilarity(
            tax, exclude_labels={tax.id_of("root")}
        )
        assert excluded.node_similarity(a, b) == 0.0

    def test_edge_similarity_is_binary(self):
        measure = TaxonomySimilarity(_go_taxonomy())
        assert measure.edge_similarity(3, 3) == 1.0
        assert measure.edge_similarity(3, 4) == 0.0

    def test_compatible_labels_filters_by_threshold(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        carrier = tax.id_of("carrier")
        labels = sorted(tax.labels())
        exact = set(measure.compatible_labels(carrier, labels, 1.0))
        assert exact == {carrier}
        loose = set(measure.compatible_labels(carrier, labels, 0.6))
        assert carrier in loose
        assert tax.id_of("cation_transporter") in loose  # 2/3
        assert tax.id_of("helicase") not in loose        # 1/3


class TestValidateThreshold:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, 2.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(MiningError):
            validate_threshold(bad)

    @pytest.mark.parametrize("ok", [1.0, 0.5, 1e-9, 1])
    def test_valid_accepted_and_coerced(self, ok):
        assert validate_threshold(ok) == float(ok)

    def test_semantics_validated(self):
        assert validate_semantics("isomorphism") == "isomorphism"
        assert validate_semantics("homomorphism") == "homomorphism"
        with pytest.raises(MiningError):
            validate_semantics("telepathy")


class TestThresholdMatcher:
    def test_threshold_one_equals_generalized_matcher(self):
        tax = _go_taxonomy()
        fuzzy = ThresholdMatcher(TaxonomySimilarity(tax), 1.0)
        exact = GeneralizedMatcher(tax)
        for a in tax.labels():
            for b in tax.labels():
                assert fuzzy.matches(a, b) == exact.matches(a, b)

    def test_lower_threshold_admits_siblings(self):
        tax = _go_taxonomy()
        matcher = ThresholdMatcher(TaxonomySimilarity(tax), 0.6)
        assert matcher.matches(
            tax.id_of("carrier"), tax.id_of("cation_transporter")
        )
        assert not matcher.matches(
            tax.id_of("carrier"), tax.id_of("helicase")
        )

    def test_invalid_threshold_rejected_at_construction(self):
        with pytest.raises(MiningError):
            ThresholdMatcher(TaxonomySimilarity(_go_taxonomy()), 0.0)


class TestHomomorphism:
    def test_every_embedding_is_a_homomorphism(self):
        tax = _go_taxonomy()
        matcher = GeneralizedMatcher(tax)
        pattern = _graph(tax, ["transporter", "helicase"], [(0, 1)])
        graph = _graph(
            tax,
            ["carrier", "dna_helicase", "cation_transporter"],
            [(0, 1), (1, 2)],
        )
        embeddings = set(iter_embeddings(pattern, graph, matcher))
        homs = set(iter_homomorphisms(pattern, graph, matcher))
        assert embeddings
        assert embeddings <= homs

    def test_folding_path_onto_single_edge(self):
        # carrier - helicase - carrier folds onto one carrier-helicase
        # edge: a homomorphism exists where no embedding can (the graph
        # has only two nodes).
        tax = _go_taxonomy()
        matcher = GeneralizedMatcher(tax)
        pattern = _graph(
            tax, ["carrier", "helicase", "carrier"], [(0, 1), (1, 2)]
        )
        graph = _graph(tax, ["carrier", "helicase"], [(0, 1)])
        assert find_embedding(pattern, graph, matcher) is None
        mapping = find_homomorphism(pattern, graph, matcher)
        assert mapping is not None
        assert mapping[0] == mapping[2]  # the two carriers collapsed

    def test_no_degree_pruning(self):
        # A degree-1 graph node legally hosts a degree-2 pattern node:
        # both leaves collapse onto the single neighbor.
        tax = _go_taxonomy()
        matcher = GeneralizedMatcher(tax)
        star = _graph(
            tax, ["helicase", "carrier", "carrier"], [(0, 1), (0, 2)]
        )
        edge = _graph(tax, ["helicase", "carrier"], [(0, 1)])
        mapping = find_homomorphism(star, edge, matcher)
        assert mapping is not None
        assert mapping[1] == mapping[2]

    def test_edge_labels_must_match(self):
        tax = _go_taxonomy()
        matcher = GeneralizedMatcher(tax)
        pattern = _graph(tax, ["carrier", "helicase"], [(0, 1, 7)])
        graph = _graph(tax, ["carrier", "helicase"], [(0, 1, 8)])
        assert find_homomorphism(pattern, graph, matcher) is None

    def test_empty_pattern_and_empty_graph(self):
        tax = _go_taxonomy()
        matcher = GeneralizedMatcher(tax)
        empty = Graph.from_edges([], [])
        node = _graph(tax, ["carrier"], [])
        assert list(iter_homomorphisms(empty, node, matcher)) == [()]
        assert list(iter_homomorphisms(node, empty, matcher)) == []

    def test_generalized_containment_wrapper(self):
        tax = _go_taxonomy()
        pattern = _graph(
            tax, ["transporter", "helicase", "transporter"], [(0, 1), (1, 2)]
        )
        graph = _graph(tax, ["carrier", "dna_helicase"], [(0, 1)])
        assert is_generalized_subgraph_homomorphic(pattern, graph, tax)
        assert not is_generalized_subgraph_isomorphic(pattern, graph, tax)

    def test_fuzzy_contains_selects_semantics(self):
        tax = _go_taxonomy()
        measure = TaxonomySimilarity(tax)
        pattern = _graph(
            tax, ["carrier", "helicase", "carrier"], [(0, 1), (1, 2)]
        )
        graph = _graph(tax, ["carrier", "helicase"], [(0, 1)])
        assert not fuzzy_contains(pattern, graph, measure, 1.0)
        assert fuzzy_contains(
            pattern, graph, measure, 1.0, semantics="homomorphism"
        )
        with pytest.raises(MiningError):
            fuzzy_contains(
                pattern, graph, measure, 1.0, semantics="telepathy"
            )


class TestMaximumCommonSubgraph:
    def _solver(self, tax):
        return MaximumCommonSubgraphSolver(TaxonomySimilarity(tax))

    def test_exact_containment_scores_one(self):
        tax = _go_taxonomy()
        pattern = _graph(tax, ["transporter", "helicase"], [(0, 1)])
        graph = _graph(tax, ["carrier", "dna_helicase"], [(0, 1)])
        result = self._solver(tax).solve(pattern, graph)
        assert result.score == 1.0
        assert -1 not in result.mapping

    def test_hand_checked_partial_score(self):
        # carrier-dna_helicase vs cation_transporter-helicase:
        # node sims 2/3 and 3/4, edge preserved -> (2/3 + 3/4 + 1) / 3.
        tax = _go_taxonomy()
        pattern = _graph(tax, ["carrier", "dna_helicase"], [(0, 1)])
        graph = _graph(tax, ["cation_transporter", "helicase"], [(0, 1)])
        result = self._solver(tax).solve(pattern, graph)
        assert result.score == pytest.approx((2 / 3 + 3 / 4 + 1) / 3)
        assert result.mapping == (0, 1)

    def test_mismatched_edge_label_loses_the_edge_bonus(self):
        tax = _go_taxonomy()
        pattern = _graph(tax, ["carrier", "helicase"], [(0, 1, 7)])
        graph = _graph(tax, ["carrier", "helicase"], [(0, 1, 8)])
        result = self._solver(tax).solve(pattern, graph)
        assert result.score == pytest.approx(2 / 3)  # (1 + 1 + 0) / 3

    def test_disjoint_components_score_zero(self):
        tax = taxonomy_from_parent_names(
            {"A": [], "B": [], "a": "A", "b": "B"}
        )
        pattern = _graph(tax, ["a", "a"], [(0, 1)])
        graph = _graph(tax, ["b", "b"], [(0, 1)])
        result = self._solver(tax).solve(pattern, graph)
        assert result.score == 0.0
        assert result.mapping == (-1, -1)

    def test_empty_pattern_scores_one(self):
        tax = _go_taxonomy()
        empty = Graph.from_edges([], [])
        graph = _graph(tax, ["carrier"], [])
        assert self._solver(tax).solve(empty, graph).score == 1.0

    def test_single_node_pattern_scores_best_node_similarity(self):
        tax = _go_taxonomy()
        pattern = _graph(tax, ["dna_helicase"], [])
        graph = _graph(tax, ["carrier", "helicase"], [(0, 1)])
        result = self._solver(tax).solve(pattern, graph)
        assert result.score == pytest.approx(3 / 4)

    def test_deterministic_across_solves(self):
        tax = _go_taxonomy()
        pattern = _graph(
            tax, ["carrier", "dna_helicase", "helicase"], [(0, 1), (1, 2)]
        )
        graph = _graph(
            tax,
            ["cation_transporter", "helicase", "carrier"],
            [(0, 1), (1, 2)],
        )
        solver = self._solver(tax)
        first = solver.solve(pattern, graph)
        second = solver.solve(pattern, graph)
        assert first == second


class TestTreelets:
    def test_path_fragments(self):
        tax = _go_taxonomy()
        path = _graph(
            tax, ["carrier", "helicase", "cation_transporter"],
            [(0, 1), (1, 2)],
        )
        keys = pattern_fragments(path)
        kinds = [key[0] for key in keys]
        assert kinds.count("n") == 3
        assert kinds.count("e") == 2
        assert kinds.count("w") == 1  # the single wedge centered at 1

    def test_triangle_fragments(self):
        tax = _go_taxonomy()
        triangle = _graph(
            tax, ["carrier", "helicase", "cation_transporter"],
            [(0, 1), (1, 2), (0, 2)],
        )
        kinds = [key[0] for key in pattern_fragments(triangle)]
        assert kinds.count("n") == 3
        assert kinds.count("e") == 3
        assert kinds.count("w") == 3

    def test_duplicate_fragments_dedupe(self):
        tax = _go_taxonomy()
        twin = _graph(tax, ["carrier", "carrier"], [(0, 1)])
        kinds = [key[0] for key in pattern_fragments(twin)]
        assert kinds.count("n") == 1
        assert kinds.count("e") == 1

    def test_index_fragment_sets_and_floors(self):
        tax = _go_taxonomy()
        db = _go_database(tax)
        index = TreeletIndex(db)
        assert index.num_graphs == 3
        assert index.num_fragments > 0
        # Every graph holds the carrier node fragment except g1.
        carrier_key = ("n", tax.id_of("carrier"))
        [(fid,)] = [
            (fid,)
            for key, fid in index.keys_of_kind("n")
            if key == carrier_key
        ]
        assert set(index.graphs_with(fid)) == {0, 2}
        # Size floors: only g0 has 3 nodes / 2 edges.
        from repro.util.bitset import BitSet

        survivors = index.candidates([], min_nodes=3, min_edges=2)
        assert set(survivors) == {0}
        empty = index.candidates([BitSet()])
        assert not empty

    def test_profile_jaccard_bounds_and_self(self):
        tax = _go_taxonomy()
        db = _go_database(tax)
        index = TreeletIndex(db)
        for gid in range(3):
            assert index.profile_jaccard(index.fingerprint(gid), gid) == 1.0
            for other in range(3):
                value = index.profile_jaccard(
                    index.fingerprint(gid), other
                )
                assert 0.0 <= value <= 1.0


class TestSimilarityEngine:
    def _engine(self, prefilter=True):
        tax = _go_taxonomy()
        db = _go_database(tax)
        return tax, db, SimilarityEngine(db, tax, prefilter=prefilter)

    def _pattern(self, tax, db, labels):
        interact = db.edge_labels.intern("interacts")
        return Graph.from_edges(
            [tax.id_of(name) for name in labels],
            [(i, i + 1, interact) for i in range(len(labels) - 1)],
        )

    def test_fuzzy_match_at_one_equals_exact_oracle(self):
        tax, db, engine = self._engine()
        for labels in (
            ["transporter", "helicase"],
            ["carrier", "dna_helicase"],
            ["carrier", "helicase", "carrier"],
        ):
            pattern = self._pattern(tax, db, labels)
            expected = frozenset(
                g.graph_id
                for g in db
                if is_generalized_subgraph_isomorphic(pattern, g, tax)
            )
            assert engine.fuzzy_match(pattern, 1.0) == expected

    def test_prefilter_off_gives_identical_answers(self):
        tax, db, engine = self._engine()
        _, _, unfiltered = self._engine(prefilter=False)
        pattern = self._pattern(tax, db, ["carrier", "dna_helicase"])
        for threshold in (1.0, 0.7, 0.3):
            for semantics in ("isomorphism", "homomorphism"):
                assert engine.fuzzy_match(
                    pattern, threshold, semantics
                ) == unfiltered.fuzzy_match(pattern, threshold, semantics)
        assert engine.similar(pattern, 0.2) == unfiltered.similar(
            pattern, 0.2
        )

    def test_similar_ranks_by_score_then_id_and_truncates(self):
        tax, db, engine = self._engine()
        pattern = self._pattern(tax, db, ["carrier", "dna_helicase"])
        ranked = engine.similar(pattern, 0.2)
        assert [s.graph_id for s in ranked] == [0, 2, 1]
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == 1.0
        assert engine.similar(pattern, 0.2, k=2) == ranked[:2]
        assert engine.similar(pattern, 0.2, k=0) == ()
        # A high threshold filters below-threshold graphs out entirely.
        assert [
            s.graph_id for s in engine.similar(pattern, 0.95)
        ] == [0]

    def test_similar_rejects_negative_k_and_bad_threshold(self):
        tax, db, engine = self._engine()
        pattern = self._pattern(tax, db, ["carrier", "helicase"])
        with pytest.raises(MiningError):
            engine.similar(pattern, 0.5, k=-1)
        with pytest.raises(MiningError):
            engine.similar(pattern, 0.0)

    def test_score_bounds_and_out_of_range(self):
        tax, db, engine = self._engine()
        pattern = self._pattern(tax, db, ["carrier", "dna_helicase"])
        assert engine.score(pattern, 0) == 1.0
        assert engine.score(pattern, 1) == pytest.approx(
            (2 / 3 + 3 / 4 + 1) / 3
        )
        with pytest.raises(MiningError):
            engine.score(pattern, 3)
        with pytest.raises(MiningError):
            engine.score(pattern, -1)

    def test_counters_and_single_index_build(self):
        tax, db, engine = self._engine()
        pattern = self._pattern(tax, db, ["carrier", "dna_helicase"])
        engine.fuzzy_match(pattern, 1.0)
        engine.fuzzy_match(pattern, 0.5, "homomorphism")
        engine.similar(pattern, 0.5)
        assert engine.metrics.counter("similarity.index_builds") == 1
        assert engine.metrics.counter("similarity.queries") == 3
        assert engine.metrics.counter("similarity.hom_tests") > 0

    def test_missing_edge_label_prefilters_everything(self):
        tax, db, engine = self._engine()
        binds = db.edge_labels.intern("binds")
        pattern = Graph.from_edges(
            [tax.id_of("carrier"), tax.id_of("helicase")], [(0, 1, binds)]
        )
        assert engine.fuzzy_match(pattern, 0.5) == frozenset()
        assert engine.metrics.counter("similarity.vf2_tests") == 0
        assert engine.metrics.counter("similarity.prefilter_skipped") == 3

    def test_exact_shortcut_counter(self):
        tax, db, engine = self._engine()
        pattern = self._pattern(tax, db, ["transporter", "helicase"])
        assert engine.score(pattern, 1) == 1.0
        assert engine.metrics.counter("similarity.exact_shortcuts") == 1
        assert engine.metrics.counter("similarity.mcs_solves") == 0
