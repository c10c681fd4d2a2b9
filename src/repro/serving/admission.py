"""Admission control for the HTTP front.

The PR-5 ingest service shed load with one fixed rule — lag above
``--max-lag`` means 429 — which protects the WAL but says nothing about
query traffic, treats a backlog of 1 and 1000 identically once past the
bound, and stampedes every shed client back at the same instant
(``Retry-After: 1``).  This module replaces that cliff with a policy
that is *probabilistic*, *monotone* and *jittered*:

* every endpoint belongs to a kind — one of
  :data:`~repro.serving.endpoints.ENDPOINT_KINDS` — with its own
  concurrency limit and queue bound;
* the shed probability ramps linearly from 0 to 1 as the in-flight
  depth climbs from the concurrency limit to the queue bound, and (for
  ingest) as the applier lag climbs from ``soft_lag`` to ``hard_lag``;
* the kinds in :data:`~repro.serving.endpoints.NEVER_SHED_KINDS`
  (control-plane: health, metrics, lag, flush, session lifecycle) are
  never shed, so operators can always observe — and drain — an
  overloaded server.  The set is imported from
  :mod:`repro.serving.endpoints`, the module that registers the routes,
  so a newly added control-plane kind cannot silently miss the
  exemption (this used to be a hardcoded tuple here);
* the ``Retry-After`` hint grows with the shed probability and carries
  seeded jitter, so shed clients retry spread out instead of in lock
  step.  It is always positive and never exceeds ``retry_after_max``.

:class:`AdmissionPolicy` is pure (depth and lag are arguments), which
is what the Hypothesis suite in ``tests/test_admission.py`` pins;
:class:`AdmissionController` adds thread-safe in-flight tracking and
``admission.*`` counters for the live front-end.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.observability.metrics import MetricsRegistry

# The kind registry lives next to the route tables; re-exported here
# for back-compat with callers that import it from the admission module.
from repro.serving.endpoints import ENDPOINT_KINDS, NEVER_SHED_KINDS

__all__ = [
    "ENDPOINT_KINDS",
    "NEVER_SHED_KINDS",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionLimits",
    "AdmissionPolicy",
]


@dataclass(frozen=True)
class AdmissionLimits:
    """Tunables of one front-end's admission policy.

    ``*_concurrency`` is how many requests of a kind may compute at
    once; ``queue_factor`` scales it to the queue bound past which the
    kind is always shed.  ``soft_lag``/``hard_lag`` bracket the lag ramp
    for ingest.  ``retry_after_base`` seconds is the unloaded retry
    hint; the hint is capped at ``retry_after_max``.
    """

    query_concurrency: int = 16
    ingest_concurrency: int = 8
    control_concurrency: int = 8
    session_concurrency: int = 4
    queue_factor: float = 4.0
    soft_lag: int = 256
    hard_lag: int = 1024
    retry_after_base: float = 0.25
    retry_after_max: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "query_concurrency", "ingest_concurrency",
            "control_concurrency", "session_concurrency",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.queue_factor <= 1.0:
            raise ValueError("queue_factor must exceed 1")
        if self.soft_lag < 0 or self.hard_lag <= self.soft_lag:
            raise ValueError("need 0 <= soft_lag < hard_lag")
        if self.retry_after_base <= 0 or self.retry_after_max <= 0:
            raise ValueError("retry_after bounds must be positive")

    @classmethod
    def for_max_lag(cls, max_lag: int, **kwargs: object) -> "AdmissionLimits":
        """Limits whose lag ramp tops out at the CLI's ``--max-lag``."""
        hard = max(2, int(max_lag))
        return cls(soft_lag=hard // 4, hard_lag=hard, **kwargs)

    def concurrency(self, kind: str) -> int:
        if kind == "query":
            return self.query_concurrency
        if kind == "ingest":
            return self.ingest_concurrency
        if kind == "session":
            return self.session_concurrency
        if kind in NEVER_SHED_KINDS:
            # Control-plane kinds share one pool: they are cheap,
            # never shed, and must not starve each other.
            return self.control_concurrency
        raise ValueError(f"unknown endpoint kind {kind!r}")

    def queue_limit(self, kind: str) -> int:
        limit = self.concurrency(kind)
        return max(limit + 1, int(limit * self.queue_factor))


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit-or-shed verdict.

    ``retry_after`` is ``None`` on admits; on sheds it is the jittered
    hint in seconds (always positive, never above
    ``retry_after_max``).  ``reason`` names the dominating pressure
    (``queue_depth`` or ``lag``) or ``ok``.
    """

    admitted: bool
    shed_probability: float
    retry_after: float | None = None
    reason: str = "ok"


def _ramp(value: float, low: float, high: float) -> float:
    """0 at or below ``low``, 1 at or above ``high``, linear between."""
    if value <= low:
        return 0.0
    if value >= high:
        return 1.0
    return (value - low) / (high - low)


class AdmissionPolicy:
    """The pure decision function: (kind, depth, lag) -> shed or admit.

    Deterministic given its inputs and the caller's RNG; holds no
    mutable state, so properties (monotonicity, control immunity,
    bounded retry hints) are checkable in isolation.
    """

    def __init__(self, limits: AdmissionLimits | None = None) -> None:
        self.limits = limits if limits is not None else AdmissionLimits()

    def shed_probability(self, kind: str, depth: int, lag: int = 0) -> float:
        """Chance a request of ``kind`` is shed at this depth and lag.

        Monotone non-decreasing in both ``depth`` and ``lag``; exactly
        0 for every :data:`NEVER_SHED_KINDS` member whatever the
        pressure.
        """
        if kind in NEVER_SHED_KINDS:
            self.limits.concurrency(kind)  # still validate the kind
            return 0.0
        p_depth = _ramp(
            float(depth),
            float(self.limits.concurrency(kind)),
            float(self.limits.queue_limit(kind)),
        )
        p_lag = 0.0
        if kind == "ingest":
            p_lag = _ramp(
                float(lag), float(self.limits.soft_lag),
                float(self.limits.hard_lag),
            )
        return max(p_depth, p_lag)

    def retry_after(
        self, probability: float, rng: random.Random
    ) -> float:
        """A jittered retry hint that grows with the shed probability.

        Always strictly positive and at most ``retry_after_max``: the
        base hint is scaled up to 4x as pressure approaches the hard
        bound, then multiplied by a jitter in [1, 2) so a burst of shed
        clients does not retry in phase.
        """
        base = self.limits.retry_after_base
        hint = base * (1.0 + 3.0 * min(1.0, max(0.0, probability)))
        hint *= 1.0 + rng.random()
        return min(hint, self.limits.retry_after_max)

    def decide(
        self, kind: str, depth: int, lag: int, rng: random.Random
    ) -> AdmissionDecision:
        probability = self.shed_probability(kind, depth, lag)
        if probability <= 0.0:
            return AdmissionDecision(admitted=True, shed_probability=0.0)
        if kind == "ingest" and probability == _ramp(
            float(lag), float(self.limits.soft_lag), float(self.limits.hard_lag)
        ):
            reason = "lag"
        else:
            reason = "queue_depth"
        if probability < 1.0 and rng.random() >= probability:
            return AdmissionDecision(
                admitted=True, shed_probability=probability
            )
        return AdmissionDecision(
            admitted=False,
            shed_probability=probability,
            retry_after=self.retry_after(probability, rng),
            reason=reason,
        )


class AdmissionController:
    """Thread-safe admission gate with live in-flight accounting.

    ``try_admit`` counts waiting-plus-running requests per kind (the
    queue depth the policy sees) and must be paired with ``release`` —
    use it as the front-end's outermost bracket around a request.
    ``lag_fn`` supplies the applier backlog for ingest decisions (0
    when serving a read-only store).
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        lag_fn=None,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.metrics = metrics
        self._lag_fn = lag_fn
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._inflight = {kind: 0 for kind in ENDPOINT_KINDS}

    @property
    def limits(self) -> AdmissionLimits:
        return self.policy.limits

    def depth(self, kind: str) -> int:
        with self._lock:
            return self._inflight[kind]

    def current_lag(self) -> int:
        if self._lag_fn is None:
            return 0
        try:
            return int(self._lag_fn())
        except Exception:
            return 0

    def try_admit(self, kind: str) -> AdmissionDecision:
        lag = self.current_lag() if kind == "ingest" else 0
        with self._lock:
            decision = self.policy.decide(
                kind, self._inflight[kind], lag, self._rng
            )
            if decision.admitted:
                self._inflight[kind] += 1
            depth = self._inflight[kind]
        if self.metrics is not None:
            if decision.admitted:
                self.metrics.add("admission.admitted", 1)
                self.metrics.max_gauge(f"admission.depth_max.{kind}", depth)
            else:
                self.metrics.add("admission.shed", 1)
                self.metrics.add(f"admission.shed.{kind}", 1)
                self.metrics.add(f"admission.shed_{decision.reason}", 1)
        return decision

    def release(self, kind: str) -> None:
        with self._lock:
            if self._inflight[kind] <= 0:
                raise RuntimeError(
                    f"release({kind!r}) without a matching admit"
                )
            self._inflight[kind] -= 1

    def snapshot(self) -> dict:
        with self._lock:
            inflight = dict(self._inflight)
        return {
            "inflight": inflight,
            "limits": {
                kind: self.limits.concurrency(kind)
                for kind in ENDPOINT_KINDS
            },
            "queue_limits": {
                kind: self.limits.queue_limit(kind)
                for kind in ENDPOINT_KINDS
            },
        }
