"""Scatter-gather query routing over replicas or shard-partitioned stores.

:class:`QueryRouter` answers the serving ops (``support`` /
``contains`` / ``graphs`` / ``specializations`` / ``top_k``) and the
similarity ops (``similar`` / ``similarity_score`` /
``fuzzy_contains``) through a pool of :class:`ReplicaEndpoint`\\ s —
HTTP servers (:class:`HTTPReplica`) or in-process readers
(:class:`LocalReplica`).
An :class:`HTTPReplica` is the package's one outbound client
(:class:`~repro.serving.client.HTTPClient`) plus the replica's status
mapping, so a routed read costs one request on an open connection, and
a truncated or garbled answer is a transport failure like a reset.
Every hop carries one :class:`~repro.serving.reader.Query`: the router
parses it off the wire with the fronts' own parser, an
:class:`HTTPReplica` asks it with the one serializer
(:func:`repro.serving.endpoints.query_request`), and answers are the
*payload* form every front serves
(:func:`repro.serving.endpoints.answer_payload`), so a routed answer and
a direct single-store answer are bit-identical after JSON encoding; the
differential harness pins that.

Two modes:

* **Replicated** (default): every replica holds a full store copy
  (WAL-shipped followers).  Requests round-robin across healthy
  replicas; a transport failure evicts the replica for
  ``eviction_seconds`` and the request retries on the next one (one
  failover loop serves queries and session requests alike).  A
  replica that answers 429 is alive but shedding load: it is skipped
  without eviction (:class:`ReplicaOverloaded`), and when every
  eligible replica sheds the router sheds too, relaying the replica's
  ``Retry-After``.
  Per-request freshness: ``min_applied_seq`` (the ingest ack's ``seq``)
  restricts dispatch to replicas whose committed WAL offset has reached
  it — read-your-writes across the fleet — and ``max_staleness``
  bounds how far behind the freshest known replica any serving replica
  may lag.  When every live replica is merely *stale* (not down), the
  router sheds with :class:`StaleReplicasError`, which the HTTP face
  maps to the streaming tier's 429 + ``Retry-After`` convention.
* **Sharded**: each endpoint holds a store mined over a contiguous
  shard of the database (:mod:`repro.parallel.sharding` order).
  ``support`` and ``graphs`` fan out to *every* shard and merge exactly
  by re-basing per-shard graph-id sets with
  :func:`repro.parallel.merge.merge_support_sets` — the same
  shifted-OR the parallel miner uses.  The similarity ops merge exactly
  too, because a similarity score depends only on ``(pattern, graph,
  taxonomy)``, never on cross-graph state: ``fuzzy_contains`` merges
  graph-id sets like ``graphs``, ``similar`` re-bases per-shard scored
  lists and re-sorts by ``(-score, graph_id)`` (per-shard ``k`` must
  stay unbounded so the global top-``k`` is exact), and
  ``similarity_score`` routes to the single shard owning the graph id.
  ``contains`` / ``specializations`` / ``top_k`` are refused: frequency
  and over-generalization are properties of the *global* occurrence
  state, and per-shard mined result sets cannot be merged into them
  exactly (the parallel runtime merges occurrence fragments *before*
  deciding either — shard-local decisions are unavoidably lossy).

:func:`router_routes` is the router's HTTP surface — ``POST /query``,
``POST /similar`` and ``GET /top`` (all accepting ``min_applied_seq``),
``GET /health`` listing per-replica liveness, ``GET /metrics`` and the
forwarded ``/sessions`` paths — and :class:`RouterService` mounts it
on an :class:`~repro.serving.aserver.AsyncHTTPFront`, the same front
(admission control, keep-alive, latency histograms) every replica
runs.

Interactive sessions are replica-local state — the scratch
workspace and per-tenant caches live in one server's memory — so the
router *pins* each session to the replica that created it:
``POST /sessions`` round-robins to a healthy replica and records the
``session_id -> replica`` binding; every later ``/sessions/...``
request forwards to the pinned replica for the session's lifetime.
When the pinned replica is evicted the pin is dropped and the request
falls through to the next healthy replica, which faithfully answers
404 (the session's state died with its replica) — clients re-create
and re-submit.  Sessions are refused outright in sharded mode: a
session's examples mine against one *whole* store.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from repro.exceptions import ReplicationError, ReproError
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.parallel.merge import merge_support_sets
from repro.serving.admission import AdmissionController
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.client import HTTPClient
from repro.serving.endpoints import (
    Endpoint,
    HTTPRequest,
    HTTPResult,
    RouteTable,
    answer_payload,
    health_payload,
    query_error,
    query_request,
    query_routes,
    session_routes,
)
from repro.serving.reader import (
    QUERY_OPS,
    SIMILARITY_OPS,
    Query,
    StoreReader,
)
from repro.util.bitset import BitSet

__all__ = [
    "HTTPReplica",
    "LocalReplica",
    "QueryRejected",
    "QueryRouter",
    "ReplicaOverloaded",
    "RouterOptions",
    "RouterService",
    "StaleReplicasError",
    "router_routes",
]

_SHARDED_OPS = ("support", "graphs") + SIMILARITY_OPS
# What a replica that failed (in transport, or with a broken answer) raises.
_REPLICA_FAILURES = (ReproError, OSError, ValueError)


class StaleReplicasError(ReplicationError):
    """Every live replica lags the request's staleness bound.

    Transient by construction — followers are catching up — so carries
    ``retry_after`` for the 429 + ``Retry-After`` shedding convention.
    """

    retry_after = 1


class ReplicaOverloaded(ReplicationError):
    """A replica answered 429: alive, but shedding load.

    Not a failure of the replica, so the router skips it without
    eviction; carries the replica's ``Retry-After`` for relaying.
    """

    def __init__(self, message: str, retry_after: str = "1") -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QueryRejected(ReproError):
    """The query itself is invalid (bad pattern, unknown op).

    Distinguished from transport failures: a rejection is the replica
    *answering* (HTTP 400), so it must propagate to the client instead
    of evicting the replica and retrying elsewhere.
    """


class HTTPReplica(HTTPClient):
    """A replica reached over the serving HTTP surface; a
    :class:`QueryRouter` counts the connections it opens in its
    registry as ``replication.router_connections_opened``."""

    role = "replica"
    connections_counter = "replication.router_connections_opened"

    @property
    def name(self) -> str:
        return self.base_url

    def health(self) -> dict:
        return json.loads(self.get("/health")[0])

    def query(self, query: Query) -> dict:
        """Ask ``query`` (its pattern in wire text) over HTTP."""
        status, payload, headers = self.request(*query_request(query))
        if 200 <= status < 300:
            return payload
        error = payload.get("error") if isinstance(payload, dict) else None
        message = payload if error is None else error
        if status == 400:
            raise QueryRejected(str(message))
        if status == 429:
            raise ReplicaOverloaded(
                f"replica {self.base_url} shed a {query.op} query: "
                f"{message}",
                retry_after=headers.get("Retry-After", "1"),
            )
        raise ReplicationError(
            f"replica {self.base_url} failed a {query.op} query: "
            f"{status} {message}"
        )

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Forward a raw request (session pinning path): unlike
        :meth:`query`, *every* HTTP status is an answer to relay (404
        session-not-found, 429 quota breach with ``Retry-After``), so
        the router evicts on dead replicas, never on application errors.
        """
        status, data, headers = self.call(method, path, body)
        try:
            payload: object = json.loads(data)
        except ValueError:
            if 200 <= status < 300:
                raise
            payload = {"error": data.decode("utf-8", "replace")}
        return status, payload, headers


class LocalReplica:
    """An in-process reader presenting the same payload surface.

    Useful for tests, for routing over local store directories without
    sockets, and as the reference the differential harness compares
    HTTP answers against.
    """

    def __init__(
        self, store: str | Path | StoreReader, name: str | None = None
    ) -> None:
        self.reader = (
            store if isinstance(store, StoreReader) else StoreReader(store)
        )
        self._name = (
            name if name is not None else f"local:{self.reader.directory}"
        )

    @property
    def name(self) -> str:
        return self._name

    def health(self) -> dict:
        self.reader.refresh()
        return health_payload(self.reader, "local")

    def query(self, query: Query) -> dict:
        try:
            return answer_payload(self.reader, query)
        except ReproError as exc:
            raise QueryRejected(str(exc)) from exc

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Dispatch a raw ``/sessions`` request against an in-process
        session surface (built lazily over this replica's reader)."""
        from repro.sessions.manager import SessionManager

        if getattr(self, "_session_routes", None) is None:
            self._session_routes = session_routes(
                SessionManager(self.reader)
            )
        endpoint, path_args = self._session_routes.match(method, path)
        if endpoint is None:
            return 404, {"error": f"unknown path {path!r}"}, {}
        request = HTTPRequest(
            method=method, path=path, body=body or b"",
            path_args=path_args,
        )
        return endpoint.handler(request)


@dataclass(frozen=True)
class RouterOptions:
    """Dispatch knobs for :class:`QueryRouter`.

    ``sharded`` switches to exact scatter-gather over disjoint shards
    (endpoints listed in :func:`~repro.parallel.sharding.shard_database`
    order).  ``max_staleness`` (replicated mode) is the most records a
    chosen replica may lag behind the freshest known replica; ``None``
    disables the fleet-relative bound (per-request ``min_applied_seq``
    still applies).

    Evictions back off exponentially: the first failure sidelines a
    replica for ``eviction_seconds``, each consecutive failure doubles
    the penalty up to ``eviction_seconds * eviction_backoff_cap``.  A
    flapping replica therefore costs the router at most one probe per
    capped window instead of one per ``eviction_seconds``; one healthy
    answer resets the streak.
    """

    sharded: bool = False
    max_staleness: int | None = None
    health_max_age_seconds: float = 1.0
    eviction_seconds: float = 2.0
    eviction_backoff_cap: float = 8.0


def _close_idle(replica) -> None:
    """Drop a replica's idle connections, if it keeps any."""
    if isinstance(replica, HTTPReplica):
        replica.close()


class _ReplicaState:
    def __init__(self, replica) -> None:
        self.replica = replica
        self.health: dict | None = None
        self.health_at = float("-inf")
        self.down_until = float("-inf")
        self.failures = 0

    @property
    def applied_seq(self) -> int:
        if not self.health:
            return -1
        applied = self.health.get("applied_seq")
        return -1 if applied is None else int(applied)

    def up(self, now: float) -> bool:
        return now >= self.down_until


class QueryRouter:
    """Fan queries across replicas; merge or retry as the mode demands."""

    def __init__(
        self,
        replicas,
        options: RouterOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        states = [_ReplicaState(replica) for replica in replicas]
        if not states:
            raise ReplicationError("router needs at least one replica")
        self.options = options if options is not None else RouterOptions()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        for state in states:
            if isinstance(state.replica, HTTPReplica):
                state.replica.metrics = self.metrics
        self._states = states
        self._lock = threading.Lock()
        self._round_robin = 0
        # session_id -> _ReplicaState: sessions are replica-local state,
        # so every request for a session must reach the replica that
        # created it (see the module docstring).
        self._session_pins: dict[str, _ReplicaState] = {}
        self._pool = (
            ThreadPoolExecutor(
                max_workers=len(states),
                thread_name_prefix="router-shard",
            )
            if self.options.sharded
            else None
        )

    def close(self) -> None:
        """Close idle replica connections and the shard pool."""
        for state in self._states:
            _close_idle(state.replica)
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -- health ---------------------------------------------------------------

    def _refresh_health(self, state: _ReplicaState, now: float) -> None:
        if now - state.health_at < self.options.health_max_age_seconds:
            return
        try:
            state.health = state.replica.health()
            state.health_at = now
            state.failures = 0
        except _REPLICA_FAILURES as exc:
            self._evict(state, now, f"health check failed: {exc}")

    def _evict(self, state: _ReplicaState, now: float, reason: str) -> None:
        state.failures += 1
        backoff = min(
            2.0 ** (state.failures - 1),
            max(1.0, self.options.eviction_backoff_cap),
        )
        state.down_until = now + self.options.eviction_seconds * backoff
        state.health = None
        state.health_at = float("-inf")
        _close_idle(state.replica)
        self.metrics.add("replication.router_evictions", 1)

    def replica_states(self) -> list[dict]:
        """Health snapshot for ``GET /health`` on the router."""
        now = time.monotonic()
        out = []
        for state in self._states:
            self._refresh_health(state, now)
            out.append(
                {
                    "replica": state.replica.name,
                    "up": state.up(now),
                    "applied_seq": (
                        state.applied_seq if state.health else None
                    ),
                    "store_version": (
                        state.health.get("store_version")
                        if state.health
                        else None
                    ),
                }
            )
        return out

    # -- dispatch -------------------------------------------------------------

    def query(
        self,
        op: str,
        pattern: str | None = None,
        *,
        min_applied_seq: int | None = None,
        **arguments,
    ) -> dict:
        """Route one query; returns the HTTP-shaped answer payload.

        ``pattern`` is graph-db text (the wire format), not a parsed
        graph — the router never opens a store itself; ``arguments``
        are :class:`~repro.serving.reader.Query`'s other fields.
        """
        return self.answer(Query(op, pattern, **arguments), min_applied_seq)

    def answer(
        self, query: Query, min_applied_seq: int | None = None
    ) -> dict:
        """Route one :class:`~repro.serving.reader.Query`, on replicas
        that have applied ``min_applied_seq``."""
        if query.op not in QUERY_OPS:
            raise QueryRejected(f"unknown query op {query.op!r}")
        with self.tracer.span(f"replication.route_{query.op}"):
            if self.options.sharded:
                payload = self._query_sharded(query, min_applied_seq)
            else:
                payload = self._query_replicated(query, min_applied_seq)
        self.metrics.add("replication.router_queries", 1)
        return payload

    # -- replicated mode ------------------------------------------------------

    def _eligible(self, min_applied_seq: int | None) -> list[_ReplicaState]:
        """Live replicas satisfying the staleness bounds.

        A live-but-stale replica gets one immediate health re-poll
        before being ruled out, since followers advance continuously.
        With no eligible replica, raises :class:`StaleReplicasError`
        when some replica is live (just behind), else
        :class:`~repro.exceptions.ReplicationError`.
        """
        now = time.monotonic()
        floor = -1 if min_applied_seq is None else min_applied_seq
        live = [s for s in self._states if s.up(now)]
        for state in live:
            self._refresh_health(state, now)
        live = [s for s in live if s.up(now)]
        if self.options.max_staleness is not None and live:
            freshest = max(s.applied_seq for s in live)
            floor = max(floor, freshest - self.options.max_staleness)
        eligible = []
        for state in live:
            if state.applied_seq < floor:
                # Maybe it caught up since the cached health: re-poll.
                state.health_at = float("-inf")
                self._refresh_health(state, now)
            if state.up(now) and state.applied_seq >= floor:
                eligible.append(state)
        if eligible:
            return eligible
        if live:
            self.metrics.add("replication.router_shed_stale", 1)
            behind = (
                "is within the staleness bound" if min_applied_seq is None
                else f"has reached applied seq {min_applied_seq} yet"
            )
            raise StaleReplicasError(f"no replica {behind}; retry shortly")
        raise ReplicationError("no healthy replica is available to route to")

    def _failover(self, what: str, ask, eligible, pinned=None):
        """Ask the ``eligible`` replicas in round-robin order (or
        ``pinned``, a session's live replica, alone) until one answers;
        returns ``(state, ask(state))``.  A transport failure evicts the
        replica and asks the next (``replication.router_retries``); a
        shed (:class:`ReplicaOverloaded`) skips it without eviction and
        is raised if no replica answers; :class:`QueryRejected` is an
        answer, so it propagates."""
        if pinned is not None:
            order = [pinned]
        else:
            with self._lock:
                start = self._round_robin % len(eligible)
                self._round_robin += 1
            order = eligible[start:] + eligible[:start]
        last_error: Exception | None = None
        shed: ReplicaOverloaded | None = None
        for state in order:
            try:
                return state, ask(state)
            except QueryRejected:
                raise
            except ReplicaOverloaded as exc:
                shed = exc
                self.metrics.add("replication.router_replica_sheds", 1)
            except _REPLICA_FAILURES as exc:
                last_error = exc
                self._evict(state, time.monotonic(), str(exc))
                self.metrics.add("replication.router_retries", 1)
        if shed is not None:
            raise shed
        raise ReplicationError(
            f"every eligible replica failed the {what}; "
            f"last error: {last_error}"
        )

    def _query_replicated(
        self, query: Query, min_applied_seq: int | None
    ) -> dict:
        state, payload = self._failover(
            f"{query.op} query",
            lambda state: state.replica.query(query),
            self._eligible(min_applied_seq),
        )
        # The answer names the op routed and the replica that gave it.
        payload.update(op=query.op, replica=state.replica.name)
        return payload

    # -- session pinning ------------------------------------------------------

    @staticmethod
    def _session_id_of(path: str) -> str | None:
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "sessions":
            return parts[1]
        return None

    def session_pins(self) -> dict[str, str]:
        """``session_id -> replica name`` (health snapshot surface)."""
        with self._lock:
            return {
                session_id: state.replica.name
                for session_id, state in self._session_pins.items()
            }

    def session_request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, object, dict]:
        """Route one ``/sessions`` request, honoring the session's pin.

        ``POST /sessions`` picks a healthy replica round-robin and pins
        the returned session id to it; every other request forwards to
        the pinned replica.  A pin whose replica has been evicted is
        dropped and the request falls through to the next healthy
        replica (which answers 404 for the dead session — faithful, the
        state is gone).  ``DELETE`` and 404 answers unpin.
        """
        if self.options.sharded:
            raise QueryRejected(
                "sessions are not supported over shard-partitioned "
                "stores; a session's examples mine against one whole "
                "store"
            )
        session_id = self._session_id_of(path)
        eligible = self._eligible(None)
        pinned: _ReplicaState | None = None
        if session_id is not None:
            with self._lock:
                pinned = self._session_pins.get(session_id)
            if pinned is not None and not pinned.up(time.monotonic()):
                # The pinned replica died; its session state died too.
                self._drop_pin(session_id)
                pinned = None

        def forward(state: _ReplicaState):
            try:
                return state.replica.request(method, path, body)
            except _REPLICA_FAILURES:
                if state is pinned:
                    self._drop_pin(session_id)
                raise

        state, (status, payload, headers) = self._failover(
            "session request", forward, eligible, pinned
        )
        self.metrics.add("replication.router_session_forwards", 1)
        created = (
            method == "POST"
            and session_id is None
            and status in (200, 201)
            and isinstance(payload, dict)
            and payload.get("session_id")
        )
        if created:
            with self._lock:
                self._session_pins[str(payload["session_id"])] = state
            self.metrics.add("replication.router_session_pins", 1)
        if session_id is not None and (
            status == 404 or (method == "DELETE" and status == 200)
        ):
            with self._lock:
                self._session_pins.pop(session_id, None)
        if isinstance(payload, dict):
            payload = dict(payload)
            payload["replica"] = state.replica.name
        return status, payload, headers

    def _drop_pin(self, session_id: str) -> None:
        """Forget a pin whose replica died (``router_session_repins``)."""
        with self._lock:
            self._session_pins.pop(session_id, None)
        self.metrics.add("replication.router_session_repins", 1)

    # -- sharded mode ---------------------------------------------------------

    def _shard_starts(self, now: float) -> list[int]:
        """Global start offsets from per-shard database sizes.

        Endpoints must be listed in shard order over a contiguous
        partition (the :func:`~repro.parallel.sharding.shard_database`
        invariant); the router derives each shard's global start as the
        prefix sum of the sizes reported by ``/health``.
        """
        starts = []
        total = 0
        for state in self._states:
            self._refresh_health(state, now)
            if not state.health:
                raise ReplicationError(
                    f"shard {state.replica.name} is unreachable; sharded "
                    f"answers need every shard"
                )
            starts.append(total)
            total += int(state.health["database_size"])
        return starts

    def _query_sharded(
        self, query: Query, min_applied_seq: int | None
    ) -> dict:
        op = query.op
        if op not in _SHARDED_OPS:
            raise QueryRejected(
                f"op {op!r} cannot be answered exactly over "
                f"shard-partitioned stores (shard-local mined sets do "
                f"not merge); sharded routing supports "
                f"{', '.join(_SHARDED_OPS)}"
            )
        if min_applied_seq is not None:
            raise QueryRejected(
                "min_applied_seq is not meaningful across shards (their "
                "WAL offsets are independent)"
            )
        now = time.monotonic()
        starts = self._shard_starts(now)
        if op == "similarity_score":
            return self._score_sharded(starts, query)
        # Per-shard k must stay unbounded: the globally k-th best score
        # may rank below a shard's local top-k cut.
        fanned = (
            replace(query, k=None)
            if op in SIMILARITY_OPS
            else replace(query, op="graphs")
        )
        answers = self._ask_shards(
            [(state, fanned) for state in self._states]
        )
        if op == "similar":
            # Scores depend only on (pattern, graph, taxonomy), so
            # re-basing shard-local ids and re-sorting is an exact merge.
            scored = [
                [int(gid) + start, score]
                for answer, start in zip(answers, starts)
                for gid, score in answer["value"]
            ]
            scored.sort(key=lambda entry: (-entry[1], entry[0]))
            value: object = scored if query.k is None else scored[:query.k]
        else:
            merged = merge_support_sets(
                [answer["value"]["graph_ids"] for answer in answers],
                starts,
            )
            if op == "support":
                value = merged.bit_count()
            else:
                value = {
                    "support": merged.bit_count(),
                    "graph_ids": list(BitSet.from_bits(merged)),
                    # Cross-shard occurrence ids live in different class-
                    # local spaces; exact occurrence merging is the
                    # parallel miner's job, not the router's.
                    "occurrences": None,
                    "path": "sharded:" + ",".join(
                        str(answer["value"]["path"]) for answer in answers
                    ),
                }
        return {
            "op": op,
            "sharded": True,
            "shards": len(answers),
            "store_versions": [a["store_version"] for a in answers],
            "value": value,
        }

    def _ask_shards(
        self, asks: list[tuple[_ReplicaState, Query]]
    ) -> list[dict]:
        """Ask each shard its query on the shard pool; a shard that
        fails is evicted and fails the whole answer."""
        futures = [
            self._pool.submit(state.replica.query, query)
            for state, query in asks
        ]
        answers = []
        for (state, _query), future in zip(asks, futures):
            try:
                answers.append(future.result())
            except (QueryRejected, ReplicaOverloaded):
                raise
            except _REPLICA_FAILURES as exc:
                self._evict(state, time.monotonic(), str(exc))
                raise ReplicationError(
                    f"shard {state.replica.name} failed; sharded answers "
                    f"need every shard: {exc}"
                ) from exc
        self.metrics.add("replication.router_shard_merges", 1)
        return answers

    def _score_sharded(self, starts, query: Query) -> dict:
        """Route ``similarity_score`` to the one shard owning the id."""
        graph_id = query.graph_id
        if graph_id is None:
            raise QueryRejected("similarity_score requires a graph_id")
        total = starts[-1] + int(self._states[-1].health["database_size"])
        if not 0 <= graph_id < total:
            raise QueryRejected(
                f"graph id {graph_id} is out of range for a database of "
                f"{total} graphs"
            )
        shard = max(
            index for index, start in enumerate(starts)
            if start <= graph_id
        )
        [answer] = self._ask_shards(
            [(self._states[shard],
              replace(query, graph_id=graph_id - starts[shard]))]
        )
        return {
            "op": "similarity_score",
            "sharded": True,
            "shards": 1,
            "store_versions": [answer["store_version"]],
            "value": answer["value"],
        }


# -- HTTP face ----------------------------------------------------------------


def router_routes(router: QueryRouter) -> RouteTable:
    """The router's HTTP surface, for an
    :class:`~repro.serving.aserver.AsyncHTTPFront`.

    ``GET /top``, ``POST /query`` and ``POST /similar`` are the fronts'
    own handlers (:func:`~repro.serving.endpoints.query_routes`) over
    :meth:`QueryRouter.answer`, so they read the same fields plus
    ``min_applied_seq``; ``GET /health`` lists per-replica liveness and
    session pins (the front adds ``GET /metrics``, from the router's
    registry); every ``/sessions`` path the replicas serve is forwarded
    through the session's pin, under the same admission kind as on the
    replica.
    """

    def handle_health(request: HTTPRequest) -> HTTPResult:
        return 200, {
            "status": "ok",
            "role": "router",
            "mode": "sharded" if router.options.sharded else "replicated",
            "replicas": router.replica_states(),
            "session_pins": router.session_pins(),
        }, {}

    def forward_session(request: HTTPRequest) -> HTTPResult:
        try:
            status, payload, headers = router.session_request(
                request.method, request.path, request.body or None
            )
        except ReproError as exc:
            return query_error(exc)
        retry_after = headers.get("Retry-After")
        return status, payload, (
            {} if retry_after is None else {"Retry-After": str(retry_after)}
        )

    # The replicas' own session table supplies the paths and kinds; its
    # handlers are never called, so it needs no manager.
    sessions = [
        Endpoint(e.method, e.path, e.name, e.kind, forward_session)
        for e in session_routes(None).endpoints()
    ]
    return RouteTable([
        Endpoint("GET", "/health", "health", "control", handle_health),
        *sessions,
    ]).merge(query_routes(router.answer))


class RouterService:
    """The router behind one HTTP front (``taxogram route``).

    ``metrics`` is the service's one registry, shared by the router,
    its replica connections and the front.  ``admission`` is forwarded
    to the front (``None`` admits every request).
    """

    def __init__(
        self,
        replicas,
        host: str = "127.0.0.1",
        port: int = 0,
        options: RouterOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.router = QueryRouter(
            replicas, options=options, metrics=metrics, tracer=tracer
        )
        self.metrics = self.router.metrics
        self.server = AsyncHTTPFront(
            router_routes(self.router),
            host,
            port,
            admission=admission,
            metrics=self.metrics,
        )

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self) -> None:
        self.server.server_close()
        self.router.close()
