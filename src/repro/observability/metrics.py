"""Named counters and gauges: one thread-safe registry per process.

:class:`MetricsRegistry` is where every component of a process writes
its work counters.  A serving role (standalone ``serve``, an ingest
primary, a follower, the router) builds one registry and hands it to
its reader, WAL, applier, shipper, router, admission controller and
HTTP front, so ``GET /metrics`` renders that one registry; a mining run
uses one for the metrics that do not fit the fixed
:class:`repro.core.results.MiningCounters` block — above all the
parallel runtime's per-shard statistics (``parallel.shard[3].
patterns``), whose key set depends on the shard count.

Every update takes the registry's lock, so concurrent request threads
and a background applier never drop an increment.  Counters are
additive across merges (worker totals sum); gauges hold point-in-time
values and merge by maximum, which is the right semantics for peaks
(RSS, resident entries) and harmless for constants like ``db.graphs``
that agree on both sides.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = ["LatencyHistogram", "MetricsRegistry"]


class MetricsRegistry:
    """A thread-safe bag of named counters (int, additive) and gauges
    (float, max)."""

    __slots__ = ("counters", "gauges", "_lock")

    def __init__(
        self,
        counters: dict[str, int] | None = None,
        gauges: dict[str, float] | None = None,
    ) -> None:
        self.counters: dict[str, int] = dict(counters or {})
        self.gauges: dict[str, float] = dict(gauges or {})
        self._lock = threading.Lock()

    def add(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (peak semantics)."""
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = float(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: counters sum, gauges keep the maximum.

        ``other`` is copied under its own lock first, so the two locks
        are never held at once.
        """
        with other._lock:
            counters = list(other.counters.items())
            gauges = list(other.gauges.items())
        with self._lock:
            for name, value in counters:
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in gauges:
                current = self.gauges.get(name)
                if current is None or value > current:
                    self.gauges[name] = float(value)

    def counter(self, name: str) -> int:
        """Point read of one counter (0 when never touched)."""
        with self._lock:
            return self.counters.get(name, 0)

    def as_dict(self) -> dict:
        """A consistent, key-sorted snapshot of every counter and gauge."""
        with self._lock:
            return {
                "counters": {
                    k: self.counters[k] for k in sorted(self.counters)
                },
                "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        return cls(data.get("counters"), data.get("gauges"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)})"
        )


def _log_boundaries(
    min_seconds: float, max_seconds: float, per_decade: int
) -> list[float]:
    decades = math.log10(max_seconds / min_seconds)
    steps = max(1, int(math.ceil(decades * per_decade)))
    return [
        min_seconds * 10.0 ** (i * decades / steps)
        for i in range(steps + 1)
    ]


class LatencyHistogram:
    """A fixed, log-spaced latency histogram with cheap quantiles.

    Counters and gauges cannot answer "what was p99?"; sorting raw
    samples would grow without bound on a long-lived server.  This
    keeps a constant number of logarithmic buckets (default: 10 per
    decade from 1µs to 60s), so ``observe`` is O(log buckets) and
    quantiles are O(buckets) — accurate to the bucket width (~26%),
    which is the standard trade for serving histograms.  Thread-safe.
    """

    __slots__ = (
        "_boundaries", "_counts", "_lock", "count", "total_seconds",
        "max_seconds",
    )

    def __init__(
        self,
        min_seconds: float = 1e-6,
        max_seconds: float = 60.0,
        buckets_per_decade: int = 10,
    ) -> None:
        self._boundaries = _log_boundaries(
            min_seconds, max_seconds, buckets_per_decade
        )
        # One bucket per boundary gap, plus underflow and overflow.
        self._counts = [0] * (len(self._boundaries) + 1)
        self._lock = threading.Lock()
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect.bisect_left(self._boundaries, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total_seconds += seconds
            if seconds > self.max_seconds:
                self.max_seconds = seconds

    def quantile(self, q: float) -> float:
        """The latency below which fraction ``q`` of samples fall.

        Returns the upper boundary of the bucket holding the quantile
        (the max for the overflow bucket); 0.0 when empty.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for index, bucket in enumerate(self._counts):
                seen += bucket
                if seen >= rank:
                    if index < len(self._boundaries):
                        return self._boundaries[index]
                    return self.max_seconds
            return self.max_seconds

    def merge(self, other: "LatencyHistogram") -> None:
        if other._boundaries != self._boundaries:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            count = other.count
            total = other.total_seconds
            peak = other.max_seconds
        with self._lock:
            for index, bucket in enumerate(counts):
                self._counts[index] += bucket
            self.count += count
            self.total_seconds += total
            if peak > self.max_seconds:
                self.max_seconds = peak

    def as_dict(self) -> dict:
        """Summary in milliseconds, for reports and ``/metrics``."""
        return {
            "count": self.count,
            "mean_ms": (
                0.0
                if self.count == 0
                else self.total_seconds / self.count * 1000.0
            ),
            "p50_ms": self.quantile(0.50) * 1000.0,
            "p90_ms": self.quantile(0.90) * 1000.0,
            "p99_ms": self.quantile(0.99) * 1000.0,
            "max_ms": self.max_seconds * 1000.0,
        }
