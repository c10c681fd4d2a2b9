"""Randomized equivalence: Taxogram == baseline == TAcGM == oracle.

These are the library's strongest correctness guarantees: on random
databases over random tree/DAG, single-/multi-root taxonomies, all three
algorithms must produce exactly the pattern set defined by the brute
force oracle (frequent, minimal, complete).
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.oracle import mine_with_oracle
from repro.core.tacgm import TAcGM, TAcGMOptions
from repro.core.taxogram import Taxogram, TaxogramOptions, mine, mine_baseline
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy


def _random_instance(seed: int, directed: bool = False):
    rng = random.Random(seed)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(
        rng,
        interner,
        rng.randint(3, 8),
        dag=seed % 2 == 1,
        multiroot=seed % 4 == 3,
    )
    database = make_random_database(
        rng, taxonomy, rng.randint(2, 4), directed=directed
    )
    sigma = rng.choice([0.4, 0.5, 0.67, 1.0])
    return database, taxonomy, sigma


class TestAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_taxogram_equals_oracle(self, seed):
        database, taxonomy, sigma = _random_instance(seed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=2)
        result = mine(database, taxonomy, min_support=sigma, max_edges=2)
        assert result.pattern_codes() == oracle.pattern_codes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_baseline_equals_oracle(self, seed):
        database, taxonomy, sigma = _random_instance(seed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=2)
        result = mine_baseline(database, taxonomy, min_support=sigma, max_edges=2)
        assert result.pattern_codes() == oracle.pattern_codes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_tacgm_equals_oracle(self, seed):
        database, taxonomy, sigma = _random_instance(seed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=2)
        result = TAcGM(TAcGMOptions(min_support=sigma, max_edges=2)).mine(
            database, taxonomy
        )
        assert result.pattern_codes() == oracle.pattern_codes()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_three_edge_patterns(self, seed):
        database, taxonomy, sigma = _random_instance(seed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=3)
        result = mine(database, taxonomy, min_support=sigma, max_edges=3)
        assert result.pattern_codes() == oracle.pattern_codes()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_support_sets_match_not_just_counts(self, seed):
        database, taxonomy, sigma = _random_instance(seed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=2)
        result = mine(database, taxonomy, min_support=sigma, max_edges=2)
        oracle_map = oracle.pattern_codes()
        for pattern in result:
            assert pattern.support_set == oracle_map[pattern.code]
            assert pattern.support_count == len(pattern.support_set)


class TestOvergeneralizedLabelRule:
    """Enhancement (c) drops a label whose partial-assignment occurrence
    set equals a covered child's; the rule changes work, not results."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    # Instances on which the rule fires: tree, DAG, multi-root DAG.
    @example(seed=0, directed=False)
    @example(seed=4, directed=True)
    @example(seed=5, directed=False)
    @example(seed=5, directed=True)
    @example(seed=19, directed=False)
    @example(seed=3, directed=True)
    def test_taxogram_equals_baseline_and_oracle(self, seed, directed):
        database, taxonomy, sigma = _random_instance(seed, directed)
        oracle = mine_with_oracle(database, taxonomy, sigma, max_edges=2)
        result = mine(database, taxonomy, min_support=sigma, max_edges=2)
        baseline = mine_baseline(
            database, taxonomy, min_support=sigma, max_edges=2
        )
        without_rule = Taxogram(
            TaxogramOptions(
                min_support=sigma,
                max_edges=2,
                enhancement_occurrence_collapse=False,
            )
        ).mine(database, taxonomy)
        assert result.pattern_codes() == oracle.pattern_codes()
        assert baseline.pattern_codes() == oracle.pattern_codes()
        assert without_rule.pattern_codes() == oracle.pattern_codes()
        assert (
            result.counters.candidates_enumerated
            <= without_rule.counters.candidates_enumerated
        )
