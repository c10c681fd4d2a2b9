"""Tests for result containers and rendering."""

from __future__ import annotations

from repro.core.results import (
    MiningCounters,
    TaxogramResult,
    TaxonomyPattern,
    format_pattern,
)
from repro.graphs.graph import Graph
from repro.mining.dfs_code import min_dfs_code
from repro.util.interner import LabelInterner


def _pattern(labels, edges, support_count=1, database_size=2):
    graph = Graph.from_edges(labels, edges)
    return TaxonomyPattern(
        code=min_dfs_code(graph),
        graph=graph,
        support_count=support_count,
        support=support_count / database_size,
        support_mask=(1 << support_count) - 1,
        class_id=0,
    )


class TestTaxonomyPattern:
    def test_shape_properties(self):
        p = _pattern([1, 2, 3], [(0, 1), (1, 2)])
        assert p.num_nodes == 3
        assert p.num_edges == 2

    def test_sort_key_orders_by_size_then_code(self):
        small = _pattern([1, 2], [(0, 1)])
        large = _pattern([1, 2, 3], [(0, 1), (1, 2)])
        assert small.sort_key() < large.sort_key()


class TestTaxogramResult:
    def _result(self):
        patterns = [
            _pattern([1, 2, 3], [(0, 1), (1, 2)]),
            _pattern([1, 2], [(0, 1)]),
        ]
        return TaxogramResult(
            patterns=patterns,
            database_size=2,
            min_support=0.5,
            algorithm="taxogram",
            counters=MiningCounters(pattern_classes=2),
            stage_seconds={"relabel": 0.001, "mine_classes": 0.002,
                           "specialize": 0.003},
        )

    def test_patterns_sorted_on_construction(self):
        result = self._result()
        assert [p.num_edges for p in result] == [1, 2]

    def test_pattern_codes_view(self):
        result = self._result()
        codes = result.pattern_codes()
        assert len(codes) == 2
        for pattern in result:
            assert codes[pattern.code] == pattern.support_set

    def test_total_seconds_and_summary(self):
        result = self._result()
        assert abs(result.total_seconds - 0.006) < 1e-9
        summary = result.summary()
        assert "taxogram" in summary
        assert "2 patterns" in summary

    def test_counters_merge(self):
        a = MiningCounters(isomorphism_tests=2, memory_cells_peak=10)
        b = MiningCounters(isomorphism_tests=3, memory_cells_peak=7,
                           bitset_intersections=4)
        a.merge(b)
        assert a.isomorphism_tests == 5
        assert a.bitset_intersections == 4
        assert a.memory_cells_peak == 10  # max, not sum


class TestFormatPattern:
    def test_edge_labels_rendered_when_distinguishing(self):
        interner = LabelInterner(["n"])
        labeled = _pattern([0, 0], [(0, 1, 3)])
        assert "0-1:3" in format_pattern(labeled, interner)
        edge_interner = LabelInterner(["zero", "one", "two", "binds"])
        assert "0-1:binds" in format_pattern(labeled, interner, edge_interner)
        plain = _pattern([0, 0], [(0, 1)])
        text = format_pattern(plain, interner)
        assert "0-1" in text and "0-1:" not in text

    def test_renders_names_edges_and_support(self):
        interner = LabelInterner(["alpha", "beta"])
        p = _pattern([0, 1], [(0, 1)], support_count=1, database_size=2)
        text = format_pattern(p, interner)
        assert "alpha" in text
        assert "beta" in text
        assert "0-1" in text
        assert "sup=0.500" in text
