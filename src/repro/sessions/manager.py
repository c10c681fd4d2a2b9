"""The session registry: multi-tenant interactive mining workspaces.

``POST /sessions`` opens a scratch workspace bound to a tenant; the
client submits example graphs and runs bounded example-driven mines
against the live store (:mod:`repro.sessions.miner`).  The manager
owns everything stateful about that interaction:

* a **registry** of live sessions with TTL eviction — every public
  operation first sweeps expired sessions, and an injectable clock
  keeps the sweep deterministic under test;
* **per-tenant quotas** (:mod:`repro.sessions.quotas`) on live
  sessions, concurrent mines, example volume and per-mine candidate
  budget — breaches raise :class:`QuotaExceeded`, which the HTTP layer
  maps to 429 + ``Retry-After``;
* a **per-tenant result cache** (the PR-10 extension of
  :class:`~repro.serving.cache.VersionedResultCache`): a repeated mine
  over the same examples and threshold answers from the tenant's own
  bucket, and one tenant's traffic can neither hit nor evict
  another's — the mixed-tenant stress test pins both;
* ``sessions.*`` counters and gauges on the reader's metrics registry,
  and a ``sessions.mine`` span per mine.

Everything released is released *fully*: deleting or expiring a
session returns its examples to the tenant's budget, releases the
session slot, and — when it was the tenant's last session — drops the
tenant's cache buckets in both the manager and the reader.  The
Hypothesis quota suite drives this invariant.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass

from repro.core.results import TaxonomyPattern
from repro.exceptions import MiningError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import parse_graph_database
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.serving.cache import VersionedResultCache, query_key
from repro.sessions.miner import mine_session_patterns
from repro.sessions.quotas import (
    QuotaAccountant,
    QuotaExceeded,
    TenantQuotas,
)
from repro.sessions.scratch import ScratchStore
from repro.similarity.matcher import validate_semantics

__all__ = [
    "QuotaExceeded",
    "Session",
    "SessionManager",
    "SessionMineResult",
    "SessionNotFound",
    "TenantQuotas",
]

DEFAULT_TTL_SECONDS = 300.0


class SessionNotFound(ReproError):
    """No live session has that id (never existed, or TTL-evicted)."""


@dataclass(frozen=True)
class SessionMineResult:
    """One session mine's outcome, fenced to a store version."""

    session_id: str
    patterns: tuple[TaxonomyPattern, ...]
    candidates: int
    store_version: int
    cached: bool
    semantics: str
    min_support: float


class Session:
    """One live scratch workspace (owned by the manager)."""

    def __init__(
        self, session_id: str, tenant: str, ttl_seconds: float, now: float
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.ttl_seconds = ttl_seconds
        self.expires_at = now + ttl_seconds
        self.scratch = ScratchStore()
        self.last: SessionMineResult | None = None
        self.mines = 0

    def touch(self, now: float) -> None:
        self.expires_at = now + self.ttl_seconds

    @property
    def num_examples(self) -> int:
        return self.scratch.num_examples

    @property
    def num_example_edges(self) -> int:
        return self.scratch.example_edges

    def describe(self) -> dict:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "ttl_seconds": self.ttl_seconds,
            "examples": self.num_examples,
            "example_edges": self.num_example_edges,
            "classes": self.scratch.num_classes,
            "mines": self.mines,
        }


class SessionManager:
    """Registry + quotas + per-tenant caching over one store reader."""

    def __init__(
        self,
        reader,
        quotas: TenantQuotas | None = None,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        cache_size: int = 256,
        metrics=None,
        tracer: Tracer | None = None,
        clock=None,
        instance: str | None = None,
    ) -> None:
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self.reader = reader
        self.quotas = quotas if quotas is not None else TenantQuotas()
        self.accountant = QuotaAccountant(self.quotas)
        self.ttl_seconds = ttl_seconds
        self.metrics = metrics if metrics is not None else reader.metrics
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._clock = clock if clock is not None else time.monotonic
        self._cache = VersionedResultCache(cache_size)
        self._lock = threading.RLock()
        self._sessions: dict[str, Session] = {}
        self._next_id = 0
        # Session ids must be unique across the whole fleet: the query
        # router keys its replica pins by session id, and every replica
        # runs its own manager.  A random instance tag keeps managers
        # from colliding; pass ``instance`` for deterministic ids.
        self.instance = (
            instance if instance is not None else uuid.uuid4().hex[:6]
        )

    # -- lifecycle ------------------------------------------------------------

    def create(
        self, tenant: str, ttl_seconds: float | None = None
    ) -> Session:
        """Open a scratch workspace for ``tenant``."""
        if not tenant or not str(tenant).strip():
            raise MiningError("session tenant must be a non-empty string")
        tenant = str(tenant)
        ttl = self.ttl_seconds if ttl_seconds is None else float(ttl_seconds)
        if ttl <= 0:
            raise MiningError("session ttl must be positive")
        with self._lock:
            self._evict_expired_locked()
            try:
                self.accountant.acquire_session(tenant)
            except QuotaExceeded:
                self.metrics.add("sessions.quota_rejections", 1)
                raise
            self._next_id += 1
            session = Session(
                f"sess-{self.instance}-{self._next_id:06d}",
                tenant,
                ttl,
                self._clock(),
            )
            self._sessions[session.session_id] = session
            self.metrics.add("sessions.created", 1)
            self._update_gauges_locked()
            return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            self._evict_expired_locked()
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionNotFound(
                    f"no live session {session_id!r} (expired or never "
                    f"created)"
                )
            session.touch(self._clock())
            return session

    def delete(self, session_id: str) -> None:
        with self._lock:
            self._evict_expired_locked()
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise SessionNotFound(f"no live session {session_id!r}")
            self._release_locked(session)
            self.metrics.add("sessions.deleted", 1)
            self._update_gauges_locked()

    def evict_expired(self) -> int:
        """Sweep expired sessions now; returns how many were evicted."""
        with self._lock:
            return self._evict_expired_locked()

    def active_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- examples -------------------------------------------------------------

    def add_examples(self, session_id: str, text: str) -> Session:
        """Parse graph-db ``text`` and add its graphs to the session."""
        session = self.get(session_id)
        if not text.strip():
            raise MiningError("examples request carries no graphs")
        graphs = list(
            parse_graph_database(
                text,
                node_labels=self.reader.database.node_labels,
                edge_labels=self.reader.database.edge_labels,
            )
        )
        if not graphs:
            raise MiningError("examples request carries no graphs")
        self._validate_examples(graphs)
        edges = sum(graph.num_edges for graph in graphs)
        with self._lock:
            if session.session_id not in self._sessions:
                raise SessionNotFound(
                    f"session {session_id!r} expired while parsing examples"
                )
            try:
                self.accountant.acquire_examples(
                    session.tenant, len(graphs), edges
                )
            except QuotaExceeded:
                self.metrics.add("sessions.quota_rejections", 1)
                raise
            session.scratch.add_examples(graphs)
            session.touch(self._clock())
            self.metrics.add("sessions.examples_added", len(graphs))
        return session

    def _validate_examples(self, graphs: list[Graph]) -> None:
        working = self.reader.working_taxonomy
        interner = self.reader.database.node_labels
        for graph in graphs:
            if graph.num_nodes == 0:
                raise MiningError("example graph has no nodes")
            for node in graph.nodes():
                label = graph.node_label(node)
                if label not in working:
                    raise MiningError(
                        f"example label {interner.name_of(label)!r} is "
                        f"not a taxonomy concept"
                    )

    # -- mining ---------------------------------------------------------------

    def mine(
        self,
        session_id: str,
        min_support: float | None = None,
        semantics: str = "isomorphism",
    ) -> SessionMineResult:
        """Run one bounded example-driven mine for the session."""
        session = self.get(session_id)
        validate_semantics(semantics)
        sigma = (
            self.reader.min_support if min_support is None else min_support
        )
        examples = tuple(session.scratch.examples)
        if not examples:
            raise MiningError(
                "session has no examples yet; POST some to "
                "/sessions/{id}/examples first"
            )
        tenant = session.tenant
        try:
            self.accountant.acquire_mine(tenant)
        except QuotaExceeded:
            self.metrics.add("sessions.quota_rejections", 1)
            raise
        try:
            with self.tracer.span("sessions.mine"):
                version = self.reader.refresh()
                key = query_key(
                    "session_mine",
                    self._examples_key(examples),
                    min_support=sigma,
                    semantics=semantics,
                )
                hit = self._cache.get(version, key, tenant=tenant)
                if not self._cache.is_miss(hit):
                    patterns, candidates = hit
                    self.metrics.add("sessions.cache_hits", 1)
                    cached = True
                else:
                    self.metrics.add("sessions.cache_misses", 1)
                    try:
                        patterns, candidates = mine_session_patterns(
                            self.reader,
                            examples,
                            min_support=sigma,
                            semantics=semantics,
                            tenant=tenant,
                            accountant=self.accountant,
                        )
                    except QuotaExceeded:
                        self.metrics.add("sessions.quota_rejections", 1)
                        raise
                    self._cache.put(
                        version, key, (patterns, candidates), tenant=tenant
                    )
                    cached = False
        finally:
            self.accountant.release_mine(tenant)
        result = SessionMineResult(
            session_id=session.session_id,
            patterns=patterns,
            candidates=candidates,
            store_version=version,
            cached=cached,
            semantics=semantics,
            min_support=sigma,
        )
        with self._lock:
            live = self._sessions.get(session.session_id)
            if live is session:
                session.scratch.record(patterns)
                session.last = result
                session.mines += 1
                session.touch(self._clock())
        self.metrics.add("sessions.mines", 1)
        self.metrics.add("sessions.candidates", candidates)
        self.metrics.add("sessions.patterns", len(patterns))
        return result

    def last_result(self, session_id: str) -> SessionMineResult | None:
        return self.get(session_id).last

    def render(self, pattern: TaxonomyPattern) -> str:
        return self.reader.render(pattern)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _examples_key(examples: tuple[Graph, ...]) -> tuple:
        """A structural fingerprint of the example set for cache keying
        (conservative: formatting-identical submissions share entries;
        isomorphic-but-renumbered ones simply miss, which is safe)."""
        return tuple(
            (
                tuple(graph.node_label(v) for v in graph.nodes()),
                tuple(sorted(
                    (min(u, v), max(u, v), label)
                    for u, v, label in graph.edges()
                )),
            )
            for graph in examples
        )

    def _evict_expired_locked(self) -> int:
        now = self._clock()
        expired = [
            session
            for session in self._sessions.values()
            if session.expires_at <= now
        ]
        for session in expired:
            del self._sessions[session.session_id]
            self._release_locked(session)
            self.metrics.add("sessions.expired", 1)
        if expired:
            self._update_gauges_locked()
        return len(expired)

    def _release_locked(self, session: Session) -> None:
        """Return everything the session held to its tenant's budget."""
        tenant = session.tenant
        self.accountant.release_examples(
            tenant, session.num_examples, session.num_example_edges
        )
        self.accountant.release_session(tenant)
        if not any(
            live.tenant == tenant for live in self._sessions.values()
        ):
            dropped = self._cache.drop_tenant(tenant)
            dropped += self.reader.drop_tenant(tenant)
            if dropped:
                self.metrics.add("sessions.cache_entries_dropped", dropped)

    def _update_gauges_locked(self) -> None:
        self.metrics.set_gauge("sessions.active", len(self._sessions))
        self.metrics.set_gauge(
            "sessions.tenants",
            len({session.tenant for session in self._sessions.values()}),
        )
