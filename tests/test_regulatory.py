"""Tests for the directed regulatory-network dataset generator."""

from __future__ import annotations

import pytest

from repro.core.taxogram import mine
from repro.datagen.regulatory import RegulatoryConfig, generate_regulatory_database
from repro.exceptions import MiningError
from repro.taxonomy.go import go_like_taxonomy


class TestGenerator:
    @pytest.fixture(scope="class")
    def taxonomy(self):
        return go_like_taxonomy(concept_count=120, seed=2)

    def test_counts_and_labels(self, taxonomy):
        db = generate_regulatory_database(
            taxonomy, RegulatoryConfig(network_count=12, seed=1)
        )
        assert len(db) == 12
        for graph in db:
            assert graph.num_nodes >= 2
            for label in graph.node_labels():
                assert label in taxonomy

    def test_deterministic_by_seed(self, taxonomy):
        config = RegulatoryConfig(network_count=6, seed=7)
        a = generate_regulatory_database(taxonomy, config)
        b = generate_regulatory_database(taxonomy, config)
        for ga, gb in zip(a, b):
            assert ga.structure_key() == gb.structure_key()

    def test_invalid_config_rejected(self, taxonomy):
        with pytest.raises(MiningError):
            generate_regulatory_database(
                taxonomy, RegulatoryConfig(network_count=0)
            )

    def test_directed_patterns_minable(self, taxonomy):
        db = generate_regulatory_database(
            taxonomy, RegulatoryConfig(network_count=15, seed=3)
        )
        result = mine(db, taxonomy, min_support=0.25, max_edges=2)
        # Planted motifs with shared concepts yield taxonomy-implied
        # directed patterns.
        assert len(result) > 0
        for pattern in result:
            assert pattern.graph.num_edges >= 1
            assert pattern.support >= 0.25
