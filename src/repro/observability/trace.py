"""Hierarchical phase spans: wall/CPU time and peak RSS per pipeline phase.

A :class:`Tracer` keeps one stack of open spans per thread; ``with
tracer.span("relabel"):`` opens a child of whatever span is currently on
top of the calling thread's stack, so nested pipeline phases
(``gspan.extend`` containing one ``specialize.class`` per pattern class)
form a tree of :class:`SpanRecord` nodes.  Records are keyed by name
under their parent, so re-entering the same phase accumulates into one
record (``count`` says how many times it ran) instead of growing an
unbounded list — the report stays proportional to the phase structure,
not to the number of pattern classes.

One tracer may be shared by many threads (request threads and a
background applier in a server): a thread's first span roots at the
tree's ``run`` record, children are created atomically, and totals are
updated under a lock that only an enabled tracer takes.

Zero overhead when disabled: a disabled tracer's :meth:`Tracer.span`
returns the module-level :data:`NULL_SPAN` singleton — no allocation, no
clock reads, nothing recorded — so instrumentation can stay permanently
threaded through hot paths.  Externally measured work (worker processes
cannot share a tracer) is attributed with :meth:`Tracer.record_span`,
and :class:`PhaseClock` is the worker-side measuring primitive.
"""

from __future__ import annotations

import threading
import time

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None

__all__ = [
    "SpanRecord",
    "Tracer",
    "PhaseClock",
    "NULL_SPAN",
    "NOOP_TRACER",
    "peak_rss_kb",
]


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 when unknown)."""
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class SpanRecord:
    """Accumulated measurements of one named phase at one tree position."""

    __slots__ = ("name", "count", "wall_seconds", "cpu_seconds",
                 "peak_rss_kb", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.peak_rss_kb = 0
        self.children: dict[str, "SpanRecord"] = {}

    def child(self, name: str) -> "SpanRecord":
        record = self.children.get(name)
        if record is None:
            # Atomic under concurrent first entries: one record wins.
            record = self.children.setdefault(name, SpanRecord(name))
        return record

    def as_dict(self) -> dict:
        """Plain-data view with deterministically ordered children."""
        return {
            "name": self.name,
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "peak_rss_kb": self.peak_rss_kb,
            "children": {
                name: self.children[name].as_dict()
                for name in sorted(self.children)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        record = cls(data["name"])
        record.count = data["count"]
        record.wall_seconds = data["wall_seconds"]
        record.cpu_seconds = data["cpu_seconds"]
        record.peak_rss_kb = data["peak_rss_kb"]
        record.children = {
            name: cls.from_dict(child)
            for name, child in data.get("children", {}).items()
        }
        return record

    def walk(self, depth: int = 0):
        """Yield ``(depth, record)`` in deterministic pre-order."""
        yield depth, self
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, count={self.count}, "
            f"wall={self.wall_seconds:.6f})"
        )


class _NullSpan:
    """The shared do-nothing span of disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """An open span: pushes its record on enter, accumulates on exit."""

    __slots__ = ("_tracer", "_name", "_stack", "_record", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        stack = self._stack = self._tracer._thread_stack()
        self._record = stack[-1].child(self._name)
        stack.append(self._record)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        rss = peak_rss_kb()
        record = self._record
        self._tracer._accumulate(record, wall, cpu, rss, 1)
        stack = self._stack
        if len(stack) > 1 and stack[-1] is record:
            stack.pop()
        return False


class Tracer:
    """Span collector for one run or one server process.

    ``Tracer()`` records; ``Tracer(enabled=False)`` (or the shared
    :data:`NOOP_TRACER`) turns every operation into a no-op with no
    per-call allocation.

    Thread-safe: each thread nests spans on its own stack, so a span
    opened on a pool thread (a request handler, a shard fan-out worker,
    the background applier) roots at ``run``, not under whatever span
    another thread has open.
    """

    __slots__ = ("enabled", "root", "_local", "_lock")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.root = SpanRecord("run")
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_stack(self) -> list[SpanRecord]:
        """The calling thread's open spans, bottomed by ``root``."""
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = [self.root]
            return stack

    def _accumulate(
        self,
        record: SpanRecord,
        wall_seconds: float,
        cpu_seconds: float,
        peak_rss_kb: int,
        count: int,
    ) -> None:
        with self._lock:
            record.wall_seconds += wall_seconds
            record.cpu_seconds += cpu_seconds
            record.count += count
            if peak_rss_kb > record.peak_rss_kb:
                record.peak_rss_kb = peak_rss_kb

    def span(self, name: str):
        """Context manager timing one entry of phase ``name``."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name)

    def record_span(
        self,
        name: str,
        wall_seconds: float,
        cpu_seconds: float = 0.0,
        peak_rss_kb: int = 0,
        count: int = 1,
    ) -> None:
        """Attribute externally measured work (e.g. a worker process's
        phase) as a child of the currently open span."""
        if not self.enabled:
            return
        record = self._thread_stack()[-1].child(name)
        self._accumulate(record, wall_seconds, cpu_seconds, peak_rss_kb, count)

    @property
    def depth(self) -> int:
        """Number of spans the calling thread has open (0 when idle)."""
        return len(self._thread_stack()) - 1


NOOP_TRACER = Tracer(enabled=False)


class PhaseClock:
    """Worker-side wall/CPU/RSS measurement for one phase.

    Worker processes cannot share the driver's tracer; they measure with
    a ``PhaseClock`` and ship the plain numbers back, which the driver
    attributes via :meth:`Tracer.record_span`.

    >>> clock = PhaseClock()
    >>> with clock:
    ...     pass
    >>> clock.wall_seconds >= 0.0 and clock.cpu_seconds >= 0.0
    True
    """

    __slots__ = ("wall_seconds", "cpu_seconds", "peak_rss_kb",
                 "_wall0", "_cpu0")

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.peak_rss_kb = 0

    def __enter__(self) -> "PhaseClock":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.wall_seconds += time.perf_counter() - self._wall0
        self.cpu_seconds += time.process_time() - self._cpu0
        rss = peak_rss_kb()
        if rss > self.peak_rss_kb:
            self.peak_rss_kb = rss
        return False
