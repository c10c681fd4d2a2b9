"""Observability for mining and serving: spans, metrics, run reports.

The subsystem has three layers:

* :mod:`repro.observability.trace` — hierarchical phase spans
  (:class:`Tracer`, :class:`SpanRecord`) carrying wall/CPU time and peak
  RSS, safe to share between threads (each thread keeps its own span
  stack), with a zero-overhead disabled mode (:data:`NOOP_TRACER`);
* :mod:`repro.observability.metrics` — named counters and gauges in one
  thread-safe :class:`MetricsRegistry` per process: every component of a
  serving role writes into the registry its HTTP front renders at
  ``GET /metrics``, and a mining run keeps its runtime extras in one;
* :mod:`repro.observability.report` — the :class:`RunReport` attached to
  every :class:`~repro.core.results.TaxogramResult`, with JSON
  round-trip, human-readable rendering and cross-run counter diffs.

Typical use::

    from repro import Taxogram, TaxogramOptions
    from repro.observability import Tracer

    tracer = Tracer()
    result = Taxogram(TaxogramOptions(min_support=0.5)).mine(
        db, taxonomy, tracer=tracer
    )
    print(result.report.render())
    result_path.write_text(result.report.to_json())
"""

from repro.observability.metrics import LatencyHistogram, MetricsRegistry
from repro.observability.report import RunReport
from repro.observability.trace import (
    NOOP_TRACER,
    NULL_SPAN,
    PhaseClock,
    SpanRecord,
    Tracer,
    peak_rss_kb,
)

__all__ = [
    "LatencyHistogram",
    "MetricsRegistry",
    "RunReport",
    "SpanRecord",
    "Tracer",
    "PhaseClock",
    "NOOP_TRACER",
    "NULL_SPAN",
    "peak_rss_kb",
]
