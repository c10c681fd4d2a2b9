"""The :class:`RunReport`: one mining run's observable state.

A report bundles four things:

* ``counters`` — namespaced work counters (``gspan.*``, ``specialize.*``,
  ``index.*``, ``parallel.*``), sourced from
  :meth:`repro.core.results.MiningCounters.as_metrics` plus any runtime
  extras;
* ``gauges`` — point-in-time values (dataset shape, per-shard pattern
  counts, peak RSS);
* ``stage_seconds`` — the coarse per-stage wall clock that
  :class:`~repro.core.results.TaxogramResult` has always carried;
* ``spans`` — the hierarchical span tree when the run was traced
  (``None`` otherwise).

Reports are attached to ``TaxogramResult.report``, serialize to JSON
with deterministic key order (:meth:`RunReport.to_json` /
:meth:`RunReport.from_json` round-trip exactly), render human-readably
(:meth:`RunReport.render`), and diff against another run
(:meth:`RunReport.diff_counters`) so a regression in pruning behaviour
shows up as a counter delta rather than a wall-clock anecdote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import MiningCounters

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Counters, gauges, stage times and (optionally) spans of one run."""

    algorithm: str
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    spans: SpanRecord | None = None

    @classmethod
    def from_run(
        cls,
        algorithm: str,
        counters: "MiningCounters | None" = None,
        stage_seconds: dict[str, float] | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "RunReport":
        """Assemble a report from pipeline state.

        ``counters`` is a mining run's fixed counter block (``None`` for
        reader-side commands, which have none); ``tracer`` contributes
        its span tree only when enabled; ``metrics`` contributes a
        snapshot of a registry (runtime extras such as ``parallel.*``,
        or a reader's ``serving.*``).
        """
        report = cls(
            algorithm=algorithm,
            counters={} if counters is None else dict(counters.as_metrics()),
            stage_seconds=dict(stage_seconds or {}),
        )
        if metrics is not None:
            snapshot = metrics.as_dict()
            report.counters.update(snapshot["counters"])
            report.gauges.update(snapshot["gauges"])
        if tracer is not None and tracer.enabled:
            report.spans = tracer.root
        return report

    # -- accessors ------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Counter value, 0 when the run never touched it."""
        return self.counters.get(name, 0)

    def diff_counters(
        self, other: "RunReport"
    ) -> dict[str, tuple[int, int]]:
        """``name -> (self, other)`` for every counter that differs.

        Counters absent from one side read as 0, so two runs with
        different feature sets (e.g. sequential vs parallel) diff
        cleanly.
        """
        names = set(self.counters) | set(other.counters)
        out: dict[str, tuple[int, int]] = {}
        for name in sorted(names):
            mine, theirs = self.counter(name), other.counter(name)
            if mine != theirs:
                out[name] = (mine, theirs)
        return out

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "stage_seconds": {
                k: self.stage_seconds[k] for k in sorted(self.stage_seconds)
            },
            "spans": self.spans.as_dict() if self.spans is not None else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        spans = data.get("spans")
        return cls(
            algorithm=data["algorithm"],
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            stage_seconds=dict(data.get("stage_seconds", {})),
            spans=SpanRecord.from_dict(spans) if spans is not None else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Human-readable report: counters, gauges, stages, span tree.

        Values are deterministic except durations and RSS, which always
        carry a ``ms``/``KB`` suffix so tooling (and the golden-file
        tests) can normalize them away.
        """
        lines = [f"== run report: {self.algorithm} =="]
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}}  {self.gauges[name]:g}")
        if self.stage_seconds:
            lines.append("stages:")
            width = max(len(name) for name in self.stage_seconds)
            for name in sorted(self.stage_seconds):
                lines.append(
                    f"  {name:<{width}}  "
                    f"{self.stage_seconds[name] * 1000.0:.1f}ms"
                )
        if self.spans is not None:
            lines.append("spans:")
            for depth, record in self.spans.walk():
                if depth == 0:
                    continue  # the synthetic "run" root carries no timing
                indent = "  " * depth
                lines.append(
                    f"{indent}{record.name} x{record.count} "
                    f"wall={record.wall_seconds * 1000.0:.1f}ms "
                    f"cpu={record.cpu_seconds * 1000.0:.1f}ms "
                    f"rss={record.peak_rss_kb}KB"
                )
        return "\n".join(lines)

    @staticmethod
    def render_diff(
        label_a: str,
        label_b: str,
        deltas: dict[str, tuple[int, int]],
    ) -> str:
        """Render a :meth:`diff_counters` result as an aligned table."""
        if not deltas:
            return f"counters agree: {label_a} == {label_b}"
        width = max(len(name) for name in deltas)
        lines = [f"counter deltas ({label_a} vs {label_b}):"]
        for name in sorted(deltas):
            a, b = deltas[name]
            lines.append(f"  {name:<{width}}  {a} -> {b}")
        return "\n".join(lines)
