"""The load runner: fire a plan at a base URL, account for every
request.

Open-loop semantics: each planned request has an absolute arrival time
and is fired at that time (or immediately, if the runner is already
behind) regardless of how previous requests fared — a slow or dying
server faces the *same* offered load, which is exactly what makes
backpressure measurable.  Latency is timed from the due time, not the
fire time, so a worker stalled behind a slow request charges the delay
to every request it held back; how late each request was fired (the
generator's own lateness) is reported beside it.  Worker threads take
requests round-robin (worker ``w`` fires plan entries ``w, w+N, w+2N,
...``), so each worker's outcomes form a time-ordered subsequence — the
unit over which store-version monotonicity (no time travel) is
asserted.

Every request ends in exactly one :class:`RequestOutcome`; nothing is
dropped, including transport failures while a fault has the server
down.  :class:`LoadReport` aggregates outcomes into per-kind latency
histograms, an error-class histogram, throughput, and the acked-seq
watermark the durability check replays against.
:class:`Envelope` is the declared backpressure contract a report is
judged by.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReplicationError
from repro.loadtest.workload import PlannedRequest
from repro.observability.metrics import LatencyHistogram
from repro.serving.client import HTTPClient
from repro.serving.endpoints import query_request
from repro.serving.reader import Query

__all__ = ["Envelope", "LoadReport", "LoadRunner", "RequestOutcome"]

# Outcome classes, coarsest useful grain: shed (429) and transport
# failures (connection refused/reset mid-fault) are *expected* under
# chaos and budgeted by the envelope; server errors (5xx) and hangs
# (timeout) never are.
OUTCOME_CLASSES = ("ok", "shed", "rejected", "server_error", "transport",
                   "timeout")


@dataclass(frozen=True)
class RequestOutcome:
    """What one planned request actually did."""

    worker: int
    at: float  # planned offset (seconds from run start)
    kind: str  # "query" | "ingest" | "flush"
    op: str
    status: int | None  # HTTP status; None for transport/timeout
    outcome: str  # one of OUTCOME_CLASSES
    latency_seconds: float
    acked_seq: int | None = None  # ingest 202/200 ack
    applied: bool | None = None  # ingest: server applied before reply
    store_version: int | None = None  # query answers
    lateness_seconds: float = 0.0  # fired this long after its due time


def classify(status: int | None, timed_out: bool = False) -> str:
    if timed_out:
        return "timeout"
    if status is None:
        return "transport"
    if 200 <= status < 300:
        return "ok"
    if status == 429:
        return "shed"
    if 400 <= status < 500:
        return "rejected"
    return "server_error"


class LoadRunner:
    """Drive one plan against one base URL with a worker pool, whose
    workers share one pooled keep-alive :class:`HTTPClient`."""

    def __init__(
        self,
        base_url: str,
        plan: list[PlannedRequest],
        workers: int = 8,
        timeout: float = 30.0,
    ) -> None:
        self.client = HTTPClient(base_url, timeout)
        self.plan = sorted(plan, key=lambda r: r.at)
        self.workers = max(1, workers)
        self._outcomes: list[RequestOutcome] = []
        self._lock = threading.Lock()

    # -- one request ----------------------------------------------------------

    def _fire(self, planned: PlannedRequest) -> tuple[int | None, dict, bool]:
        """Returns ``(status, payload, timed_out)``."""
        if planned.kind == "query":
            method, path, body = query_request(
                Query("top_k", k=5)
                if planned.op == "top"
                else Query(planned.op, planned.pattern)
            )
        elif planned.kind == "ingest":
            doc: dict = {"add": planned.add_text}
            if planned.wait:
                doc["wait"] = True
            method, path, body = "POST", "/ingest", json.dumps(doc).encode()
        else:
            method, path, body = "POST", "/flush", b"{}"
        try:
            status, data, _headers = self.client.call(method, path, body)
        except TimeoutError:
            return None, {}, True
        except (OSError, ReplicationError):
            return None, {}, False
        return status, _json_object(data), False

    def _worker(self, index: int, start: float) -> None:
        for position in range(index, len(self.plan), self.workers):
            planned = self.plan[position]
            due = start + planned.at
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lateness = max(0.0, time.monotonic() - due)
            status, payload, timed_out = self._fire(planned)
            latency = time.monotonic() - due
            acked_seq = applied = version = None
            if status is not None and 200 <= status < 300:
                if planned.kind == "ingest":
                    acked_seq = _as_int(payload.get("seq"))
                    applied = bool(payload.get("applied"))
                    version = _as_int(payload.get("store_version"))
                elif planned.kind == "query":
                    version = _as_int(payload.get("store_version"))
            outcome = RequestOutcome(
                worker=index,
                at=planned.at,
                kind=planned.kind,
                op=planned.op,
                status=status,
                outcome=classify(status, timed_out),
                latency_seconds=latency,
                acked_seq=acked_seq,
                applied=applied,
                store_version=version,
                lateness_seconds=lateness,
            )
            with self._lock:
                self._outcomes.append(outcome)

    # -- the run --------------------------------------------------------------

    def run(self) -> "LoadReport":
        start = time.monotonic()
        threads = [
            threading.Thread(
                target=self._worker, args=(i, start), daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.client.close()
        return LoadReport(self._outcomes, time.monotonic() - start)


class LoadReport:
    """Aggregated outcomes of one run."""

    def __init__(
        self, outcomes: list[RequestOutcome], wall_seconds: float
    ) -> None:
        self.outcomes = sorted(outcomes, key=lambda o: (o.at, o.worker))
        self.wall_seconds = wall_seconds
        self.latency: dict[str, LatencyHistogram] = {}
        self.lateness = LatencyHistogram()
        self.counts: dict[str, int] = {c: 0 for c in OUTCOME_CLASSES}
        self.status_counts: dict[int, int] = {}
        for outcome in self.outcomes:
            self.counts[outcome.outcome] += 1
            if outcome.status is not None:
                self.status_counts[outcome.status] = (
                    self.status_counts.get(outcome.status, 0) + 1
                )
            hist = self.latency.get(outcome.kind)
            if hist is None:
                hist = self.latency[outcome.kind] = LatencyHistogram()
            hist.observe(outcome.latency_seconds)
            self.lateness.observe(outcome.lateness_seconds)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return self.counts["ok"]

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def fraction(self, outcome_class: str) -> float:
        if not self.outcomes:
            return 0.0
        return self.counts[outcome_class] / len(self.outcomes)

    @property
    def acked_seqs(self) -> list[int]:
        """Every journal sequence the server *acknowledged* — the set
        the durability check must find applied after recovery."""
        return sorted(
            o.acked_seq
            for o in self.outcomes
            if o.acked_seq is not None and o.outcome == "ok"
        )

    @property
    def max_acked_seq(self) -> int | None:
        acked = self.acked_seqs
        return acked[-1] if acked else None

    def version_regressions(self) -> list[str]:
        """Per-worker store-version time travel (should be empty).

        Each worker's outcomes are time-ordered, so within one worker
        the committed version it observes must never decrease — a
        regression means a query was answered from a torn or stale
        store image.
        """
        violations = []
        last: dict[int, int] = {}
        for outcome in self.outcomes:
            version = outcome.store_version
            if version is None:
                continue
            previous = last.get(outcome.worker)
            if previous is not None and version < previous:
                violations.append(
                    f"worker {outcome.worker}: store_version went "
                    f"{previous} -> {version} at t={outcome.at:.3f}s"
                )
            last[outcome.worker] = version
        return violations

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput,
            "outcomes": dict(self.counts),
            "statuses": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "latency": {
                kind: hist.as_dict()
                for kind, hist in sorted(self.latency.items())
            },
            "lateness": self.lateness.as_dict(),
            "max_acked_seq": self.max_acked_seq,
            "acked_writes": len(self.acked_seqs),
            "version_regressions": self.version_regressions(),
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2))


@dataclass(frozen=True)
class Envelope:
    """The declared backpressure contract a run is judged by.

    Shedding (429) is *allowed* up to a fraction — that is what
    admission control is for; server errors and hangs are not.
    ``max_transport_fraction`` is raised for chaos runs where the
    server is deliberately down for part of the window.
    """

    max_shed_fraction: float = 0.95
    max_server_error_fraction: float = 0.0
    max_timeout_fraction: float = 0.0
    max_transport_fraction: float = 0.0
    max_rejected_fraction: float = 0.05

    def violations(self, report: LoadReport) -> list[str]:
        checks = (
            ("shed", self.max_shed_fraction),
            ("server_error", self.max_server_error_fraction),
            ("timeout", self.max_timeout_fraction),
            ("transport", self.max_transport_fraction),
            ("rejected", self.max_rejected_fraction),
        )
        out = []
        for outcome_class, bound in checks:
            fraction = report.fraction(outcome_class)
            if fraction > bound:
                out.append(
                    f"{outcome_class} fraction {fraction:.3f} exceeds "
                    f"envelope {bound:.3f} "
                    f"({report.counts[outcome_class]}/{report.total})"
                )
        return out

    def check(self, report: LoadReport) -> None:
        violations = self.violations(report)
        if violations:
            raise AssertionError(
                "backpressure envelope violated:\n  "
                + "\n  ".join(violations)
            )


def _json_object(data: bytes) -> dict:
    try:
        doc = json.loads(data)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _as_int(value) -> int | None:
    return None if value is None else int(value)
