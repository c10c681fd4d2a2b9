"""Unit tests for :mod:`repro.observability` itself.

Covers the subsystem's own contracts — span nesting, counter merge
across process boundaries, the disabled-mode no-op guarantees, and JSON
round-tripping — independent of the mining pipeline that consumes it.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.results import MiningCounters
from repro.observability import (
    NOOP_TRACER,
    NULL_SPAN,
    MetricsRegistry,
    PhaseClock,
    RunReport,
    SpanRecord,
    Tracer,
    peak_rss_kb,
)


class TestSpanNesting:
    def test_nested_spans_form_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        root = tracer.root
        assert list(root.children) == ["outer"]
        outer = root.children["outer"]
        assert outer.count == 1
        assert list(outer.children) == ["inner"]
        assert outer.children["inner"].count == 2

    def test_reentry_accumulates_one_record(self):
        # Re-entering a phase under the same parent accumulates into the
        # existing record: report size tracks phase structure, not the
        # number of pattern classes.
        tracer = Tracer()
        for _ in range(100):
            with tracer.span("phase"):
                pass
        assert len(tracer.root.children) == 1
        record = tracer.root.children["phase"]
        assert record.count == 100
        assert record.wall_seconds >= 0.0
        assert record.cpu_seconds >= 0.0

    def test_same_name_at_different_depths_is_distinct(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("a"):
                pass
        top = tracer.root.children["a"]
        assert top.count == 1
        assert top.children["a"].count == 1

    def test_depth_tracks_open_spans(self):
        tracer = Tracer()
        assert tracer.depth == 0
        with tracer.span("a"):
            assert tracer.depth == 1
            with tracer.span("b"):
                assert tracer.depth == 2
        assert tracer.depth == 0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        assert tracer.depth == 0
        assert tracer.root.children["explodes"].count == 1

    def test_record_span_attributes_under_open_span(self):
        tracer = Tracer()
        with tracer.span("gspan.extend"):
            tracer.record_span("parallel.shard[0]", 0.5, 0.4, 1024)
            tracer.record_span("parallel.shard[0]", 0.25, 0.2, 2048)
        shard = tracer.root.children["gspan.extend"].children[
            "parallel.shard[0]"
        ]
        assert shard.count == 2
        assert shard.wall_seconds == pytest.approx(0.75)
        assert shard.cpu_seconds == pytest.approx(0.6)
        assert shard.peak_rss_kb == 2048  # max, not sum

    def test_walk_is_deterministic_preorder(self):
        tracer = Tracer()
        with tracer.span("b"):
            pass
        with tracer.span("a"):
            with tracer.span("z"):
                pass
        names = [record.name for _depth, record in tracer.root.walk()]
        assert names == ["run", "a", "z", "b"]

    def test_threads_sharing_a_tracer_each_root_at_run(self):
        # Each thread nests on its own stack: four workers that each
        # open "wN" -> "inner" 200 times give run > wN x200 > inner
        # x200, not a chain that interleaves the threads' spans.
        tracer = Tracer()
        start = threading.Barrier(4)

        def work(index: int) -> None:
            start.wait()
            for _ in range(200):
                with tracer.span(f"w{index}"):
                    with tracer.span("inner"):
                        time.sleep(0)  # yield: let the threads interleave

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        root = tracer.root
        assert sorted(root.children) == ["w0", "w1", "w2", "w3"]
        for record in root.children.values():
            assert record.count == 200
            assert list(record.children) == ["inner"]
            inner = record.children["inner"]
            assert inner.count == 200
            assert inner.children == {}
        assert tracer.depth == 0

    def test_span_record_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record_span("child", 1.5, 1.0, 512, count=3)
        data = json.loads(json.dumps(tracer.root.as_dict()))
        restored = SpanRecord.from_dict(data)
        assert restored.as_dict() == tracer.root.as_dict()


class TestDisabledMode:
    def test_disabled_span_is_shared_singleton(self):
        # Zero allocation when disabled: every call returns the same
        # module-level null span.
        assert NOOP_TRACER.span("a") is NULL_SPAN
        assert NOOP_TRACER.span("b") is NULL_SPAN
        assert Tracer(enabled=False).span("x") is NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("phase"):
            pass
        tracer.record_span("external", 1.0, 1.0, 999)
        assert tracer.root.children == {}
        assert tracer.depth == 0

    def test_null_span_reusable_and_reentrant(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass
        with NULL_SPAN:
            pass  # no state to corrupt

    def test_noop_tracer_never_appears_in_reports(self):
        report = RunReport.from_run(
            "taxogram", MiningCounters(), tracer=NOOP_TRACER
        )
        assert report.spans is None


def _count_in_worker(n: int) -> MiningCounters:
    """Module-level so ProcessPoolExecutor can pickle it."""
    counters = MiningCounters()
    for _ in range(n):
        counters.isomorphism_tests += 1
        counters.gspan_candidates_generated += 2
    return counters


class TestCrossProcessMerge:
    def test_counters_merge_across_process_boundary(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            shards = list(pool.map(_count_in_worker, [3, 5]))
        merged = MiningCounters()
        for shard in shards:
            merged.merge(shard)
        assert merged.isomorphism_tests == 8
        assert merged.gspan_candidates_generated == 16

    def test_counters_survive_pickling(self):
        import pickle

        counters = MiningCounters()
        counters.oie_entries = 7
        counters.candidates_pruned = 3
        clone = pickle.loads(pickle.dumps(counters))
        assert clone.as_metrics() == counters.as_metrics()

    def test_every_field_reaches_as_metrics_and_survives_merge(self):
        # Distinct values per field, so a field missing from (or
        # duplicated in) as_metrics changes the multiset of values.
        names = [spec.name for spec in dataclasses.fields(MiningCounters)]
        a = MiningCounters(**{n: 3 + i for i, n in enumerate(names)})
        b = MiningCounters(**{n: 10 * (i + 1) for i, n in enumerate(names)})
        metrics = a.as_metrics()
        assert len(metrics) == len(names)
        assert list(metrics) == sorted(metrics)
        assert sorted(metrics.values()) == [3 + i for i in range(len(names))]
        a.merge(b)
        for i, name in enumerate(names):
            if name == "memory_cells_peak":  # a peak: merges by max
                expected = max(3 + i, 10 * (i + 1))
            else:
                expected = 3 + i + 10 * (i + 1)
            assert getattr(a, name) == expected, name
        assert sorted(a.as_metrics().values()) == sorted(
            getattr(a, name) for name in names
        )

    def test_registry_counters_sum_gauges_max(self):
        a = MetricsRegistry({"work": 3}, {"peak": 10.0, "only_a": 1.0})
        b = MetricsRegistry({"work": 4, "extra": 1}, {"peak": 7.0})
        a.merge(b)
        assert a.counters == {"work": 7, "extra": 1}
        assert a.gauges == {"peak": 10.0, "only_a": 1.0}

    def test_registry_round_trip_and_equality(self):
        registry = MetricsRegistry()
        registry.add("parallel.shards", 2)
        registry.set_gauge("parallel.shard[0].patterns", 5)
        registry.max_gauge("parallel.shard[0].patterns", 3)  # keeps 5
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.as_dict()))
        )
        assert clone == registry
        assert clone.gauges["parallel.shard[0].patterns"] == 5.0


class TestPhaseClock:
    def test_measures_nonnegative_and_accumulates(self):
        clock = PhaseClock()
        with clock:
            sum(range(1000))
        first = clock.wall_seconds
        assert first >= 0.0
        assert clock.cpu_seconds >= 0.0
        with clock:
            pass
        assert clock.wall_seconds >= first

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss >= 0
        clock = PhaseClock()
        with clock:
            pass
        assert clock.peak_rss_kb == pytest.approx(rss, rel=0.5)


class TestRunReport:
    def _sample(self) -> RunReport:
        tracer = Tracer()
        with tracer.span("relabel"):
            pass
        with tracer.span("gspan.extend"):
            tracer.record_span("parallel.shard[0]", 0.1, 0.1, 100)
        counters = MiningCounters()
        counters.isomorphism_tests = 42
        metrics = MetricsRegistry({"parallel.shards": 2}, {"db.graphs": 4.0})
        return RunReport.from_run(
            "taxogram",
            counters,
            stage_seconds={"mine": 0.5, "relabel": 0.1},
            tracer=tracer,
            metrics=metrics,
        )

    def test_json_round_trip_exact(self):
        report = self._sample()
        restored = RunReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.to_json() == report.to_json()

    def test_json_keys_sorted(self):
        data = json.loads(self._sample().to_json())
        assert list(data) == sorted(data)
        assert list(data["counters"]) == sorted(data["counters"])

    def test_counter_absent_reads_zero(self):
        report = self._sample()
        assert report.counter("iso.tests") == 42
        assert report.counter("never.touched") == 0

    def test_diff_counters_cross_feature_sets(self):
        a = self._sample()
        b = RunReport(algorithm="taxogram", counters={"iso.tests": 40})
        deltas = a.diff_counters(b)
        assert deltas["iso.tests"] == (42, 40)
        assert deltas["parallel.shards"] == (2, 0)
        assert "counter deltas" in RunReport.render_diff("a", "b", deltas)
        assert "agree" in RunReport.render_diff("a", "b", {})

    def test_render_mentions_all_sections(self):
        text = self._sample().render()
        assert "counters:" in text
        assert "gauges:" in text
        assert "stages:" in text
        assert "spans:" in text
        assert "parallel.shard[0]" in text

    def test_render_marks_every_volatile_value(self):
        # Golden-file contract: every duration carries "ms", every RSS
        # figure carries "KB", so tooling can normalize them away.
        import re

        text = self._sample().render()
        for line in text.splitlines():
            for match in re.finditer(r"(wall|cpu)=(\S+)", line):
                assert match.group(2).endswith("ms")
            for match in re.finditer(r"rss=(\S+)", line):
                assert match.group(1).endswith("KB")
