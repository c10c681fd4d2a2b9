"""Endpoint logic, written once per endpoint and mounted on the HTTP front.

Every serving socket is an :class:`~repro.serving.aserver.AsyncHTTPFront`
over a :class:`RouteTable`; the tables here are the building blocks each
process role composes:

* :class:`HTTPRequest` is the lowest common denominator of a parsed
  request (method, path, query params, body bytes);
* an endpoint handler is a plain blocking function
  ``HTTPRequest -> (status, payload, headers)`` where ``payload`` is a
  JSON-compatible object (or raw ``bytes`` for segment/snapshot
  transfers);
* a :class:`RouteTable` maps ``(method, path)`` to an
  :class:`Endpoint`, which also carries the endpoint's admission
  *kind* (one of :data:`ENDPOINT_KINDS`) so a front-end can apply
  :mod:`repro.serving.admission` without knowing the routes.

The endpoint-kind registry lives *here*, next to the routes that use
it: :data:`ENDPOINT_KINDS` is the closed set of admission kinds and
:data:`NEVER_SHED_KINDS` the subset admission control must never shed.
:mod:`repro.serving.admission` imports both, so adding a control-plane
kind in this module automatically exempts it from shedding on every
socket — the registry replaced a hardcoded tuple in the admission
module that silently missed newly added control routes.

A query travels as one :class:`~repro.serving.reader.Query`:
:func:`parse_query` is the one reader of its fields off a request,
:func:`query_request` the one writer of a request asking it, and
:func:`answer_payload` the one answer shape.  :func:`query_routes` is
the one set of ``/top``, ``/query`` and ``/similar`` handlers, over an
answer function: ``serving_routes`` mounts them, with ``/health``, over
a :class:`~repro.serving.reader.StoreReader`, and the router over its
own dispatch.

``ingest_routes`` adds the streaming surface over an ingest
service/core; ``replication_routes`` adds the primary's
segment-publishing surface over a
:class:`~repro.replication.shipper.SegmentShipper`; ``session_routes``
adds the interactive-session surface over a
:class:`~repro.sessions.manager.SessionManager`; and
:func:`repro.replication.router.router_routes` is the router's surface.
No table here serves ``GET /metrics``: the front answers it from the
role's one registry (:class:`~repro.serving.aserver.AsyncHTTPFront`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping
from urllib.parse import urlencode

from repro.exceptions import MiningError, ReplicationError, ReproError
from repro.incremental.delta import DatabaseDelta
from repro.serving.reader import SIMILARITY_OPS, MatchResult, Query
from repro.util.bitset import BitSet

__all__ = [
    "ENDPOINT_KINDS",
    "NEVER_SHED_KINDS",
    "Endpoint",
    "HTTPRequest",
    "HTTPResult",
    "RouteTable",
    "answer_payload",
    "health_payload",
    "ingest_routes",
    "parse_query",
    "query_error",
    "query_request",
    "query_routes",
    "replication_routes",
    "serving_routes",
    "session_routes",
    "value_payload",
]

# Every admission kind an Endpoint may carry.  ``session`` is the
# example-driven mine path (expensive, sheddable under load);
# ``session_control`` is session lifecycle (create / inspect / submit
# examples / fetch results), which must stay reachable so a client can
# always observe and tear down its sessions — like ``control``, it is
# never shed.
ENDPOINT_KINDS = (
    "query", "ingest", "control", "session", "session_control",
)

# Kinds admission control must never shed, whatever the pressure.
NEVER_SHED_KINDS = frozenset({"control", "session_control"})

# (status, payload, extra headers); payload is JSON-encodable or bytes.
HTTPResult = tuple[int, object, dict]


@dataclass(frozen=True)
class HTTPRequest:
    """A parsed request, independent of the transport that read it."""

    method: str
    path: str
    params: Mapping[str, list] = field(default_factory=dict)
    body: bytes = b""
    # Values bound by a templated route (``/sessions/{id}`` matched
    # against ``/sessions/abc`` yields ``{"id": "abc"}``).
    path_args: Mapping[str, str] = field(default_factory=dict)

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.params.get(name)
        if not values:
            return default
        return values[0]

    def json(self) -> dict:
        """The body as a JSON object (``{}`` when empty).

        Raises ``ValueError`` for non-objects so every consumer turns
        malformed bodies into one consistent 400.
        """
        doc = json.loads(self.body or b"{}")
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc


@dataclass(frozen=True)
class Endpoint:
    """One routable handler plus its admission classification."""

    method: str
    path: str
    name: str
    kind: str  # "query" | "ingest" | "control"
    handler: Callable[[HTTPRequest], HTTPResult]


class RouteTable:
    """``(method, path)`` -> :class:`Endpoint` with merge support.

    Paths may contain ``{name}`` template segments; :meth:`match`
    resolves exact paths first (a dict lookup, the hot path) and falls
    back to template matching, binding the matched segments as
    ``path_args``.
    """

    def __init__(self, endpoints: list[Endpoint] | None = None) -> None:
        self._routes: dict[tuple[str, str], Endpoint] = {}
        for endpoint in endpoints or []:
            self.add(endpoint)

    def add(self, endpoint: Endpoint) -> None:
        self._routes[(endpoint.method, endpoint.path)] = endpoint

    def merge(self, other: "RouteTable") -> "RouteTable":
        for endpoint in other.endpoints():
            self.add(endpoint)
        return self

    def match(
        self, method: str, path: str
    ) -> tuple[Endpoint | None, dict[str, str]]:
        """Resolve ``path`` against exact and templated routes."""
        endpoint = self._routes.get((method, path))
        if endpoint is not None:
            return endpoint, {}
        parts = path.split("/")
        for (route_method, template), candidate in self._routes.items():
            if route_method != method or "{" not in template:
                continue
            segments = template.split("/")
            if len(segments) != len(parts):
                continue
            args: dict[str, str] = {}
            for segment, part in zip(segments, parts):
                if segment.startswith("{") and segment.endswith("}"):
                    if not part:
                        break
                    args[segment[1:-1]] = part
                elif segment != part:
                    break
            else:
                return candidate, args
        return None, {}

    def endpoints(self) -> list[Endpoint]:
        return list(self._routes.values())


def not_found(path: str) -> HTTPResult:
    return 404, {"error": f"unknown path {path!r}"}, {}


def _pattern_payload(reader, pattern) -> dict:
    return {
        "pattern": reader.render(pattern),
        "support": pattern.support,
        "support_count": pattern.support_count,
    }


def value_payload(reader, op: str, value) -> object:
    """Render a query answer as its canonical JSON-compatible value:
    the ``value`` of :func:`answer_payload`, so a routed answer and a
    direct server answer are byte-comparable after JSON encoding."""
    if op == "similar":
        # [[graph_id, score], ...] already ordered (-score, graph_id);
        # scores are plain floats so shard-routed and direct answers
        # JSON-encode identically.
        return [[scored.graph_id, scored.score] for scored in value]
    if op in ("graphs", "fuzzy_contains"):
        assert isinstance(value, MatchResult)
        return {
            "support": value.support_count,
            "graph_ids": list(BitSet.from_bits(value.support_mask)),
            "occurrences": (
                None
                if value.occurrences is None
                else [
                    [graph_id, list(nodes)]
                    for graph_id, nodes in value.occurrences
                ]
            ),
            "path": value.path,
        }
    if op in ("specializations", "top_k"):
        return [_pattern_payload(reader, p) for p in value]
    return value


# (Query field, wire name, cast of the wire value) for every query
# argument; ``op`` and the router's ``min_applied_seq`` ride beside them.
_WIRE_FIELDS = (
    ("pattern", "pattern", str),
    ("min_support", "min_support", float),
    ("k", "k", int),
    ("label_filter", "label", str),
    ("sim_threshold", "threshold", float),
    ("semantics", "semantics", str),
    ("graph_id", "graph_id", int),
)


def parse_query(request: HTTPRequest) -> tuple[Query, int | None]:
    """The query an HTTP request asks, and its ``min_applied_seq``.

    ``GET /top`` reads URL parameters and is always ``top_k``;
    ``POST /query`` and ``POST /similar`` read a JSON body whose ``op``
    defaults to ``support`` and ``similar``, and ``/similar`` takes only
    the similarity ops.  An absent field stays ``None``: the reader
    applies the defaults.  Every role reads the same fields; only a
    router acts on ``min_applied_seq``.  A malformed field raises
    ``ValueError``/``TypeError``.
    """
    if request.method == "GET":
        doc = {name: values[0] for name, values in request.params.items()}
        op = "top_k"
    else:
        doc = request.json()
        similar = request.path == "/similar"
        op = str(doc.get("op", "similar" if similar else "support"))
        if similar and op not in SIMILARITY_OPS:
            raise MiningError(
                f"op {op!r} is not a similarity op; expected one of "
                f"{', '.join(SIMILARITY_OPS)}"
            )

    def read(name: str, cast):
        value = doc.get(name)
        return None if value is None else cast(value)

    query = Query(
        op, **{field: read(wire, cast) for field, wire, cast in _WIRE_FIELDS}
    )
    return query, read("min_applied_seq", int)


def query_request(query: Query) -> tuple[str, str, bytes | None]:
    """``(method, path, body)`` of the HTTP request asking ``query``
    (its pattern in wire text): ``top_k`` is ``GET /top`` with a
    URL-encoded query string, a similarity op ``POST /similar`` and any
    other op ``POST /query``, with the fields that are set as JSON."""
    doc = {
        wire: getattr(query, field)
        for field, wire, _cast in _WIRE_FIELDS
        if getattr(query, field) is not None
    }
    if query.op == "top_k":
        return "GET", "/top?" + urlencode(doc), None
    path = "/similar" if query.op in SIMILARITY_OPS else "/query"
    return "POST", path, json.dumps({"op": query.op, **doc}).encode("utf-8")


def answer_payload(reader, query: Query) -> dict:
    """The answer payload of ``query`` on ``reader``: the one shape
    every front and :class:`~repro.replication.router.LocalReplica`
    serve."""
    answer = reader.answer(query)
    return {
        "op": query.op,
        "store_version": answer.store_version,
        "cached": answer.cached,
        "value": value_payload(reader, query.op, answer.value),
    }


def query_error(exc: ReproError) -> HTTPResult:
    """Map a failed query onto the serving tier's status codes.

    A replication failure that says when to retry (a stale or shedding
    fleet) is 429 with that ``Retry-After``, any other replication
    failure 503; every other error rejects the query itself, 400.
    """
    if isinstance(exc, ReplicationError):
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is None:
            return 503, {"error": str(exc)}, {}
        return 429, {"error": str(exc)}, {"Retry-After": str(retry_after)}
    return 400, {"error": str(exc)}, {}


def query_routes(
    answer: Callable[[Query, int | None], object]
) -> RouteTable:
    """``GET /top``, ``POST /query`` and ``POST /similar`` over one
    answer function ``answer(query, min_applied_seq) -> payload``: a
    reader's (:func:`serving_routes`) or a router's
    (:func:`~repro.replication.router.router_routes`)."""

    def handle(request: HTTPRequest) -> HTTPResult:
        try:
            return 200, answer(*parse_query(request)), {}
        except ReproError as exc:
            return query_error(exc)
        except (KeyError, ValueError, TypeError) as exc:
            return 400, {"error": f"malformed query request: {exc!r}"}, {}

    return RouteTable([
        Endpoint("GET", "/top", "top", "query", handle),
        Endpoint("POST", "/query", "query", "query", handle),
        Endpoint("POST", "/similar", "similar", "query", handle),
    ])


def health_payload(reader, role: str) -> dict:
    """``GET /health`` of a role serving ``reader``."""
    applied = reader.app_state.get("wal_applied_seq")
    return {
        "status": "ok",
        "role": role,
        "store_version": reader.version,
        "classes": reader.num_classes,
        "database_size": reader.database_size,
        "min_support": reader.min_support,
        "applied_seq": None if applied is None else int(applied),
    }


def serving_routes(
    reader,
    role: str = "standalone",
    health_extras: Callable[[], dict] | None = None,
) -> RouteTable:
    """The read-only surface: /health, /top, /query, /similar."""

    def handle_health(request: HTTPRequest) -> HTTPResult:
        payload = health_payload(reader, role)
        if health_extras is not None:
            payload.update(health_extras())
        return 200, payload, {}

    return RouteTable([
        Endpoint("GET", "/health", "health", "control", handle_health),
    ]).merge(query_routes(
        lambda query, _min_applied_seq: answer_payload(reader, query)
    ))


def ingest_routes(core) -> RouteTable:
    """The streaming surface over an ingest core: /ingest, /flush, /lag.

    ``core`` is anything with the :class:`~repro.streaming.service.
    IngestService` contract (``ingest``, ``flush``, ``lag_snapshot``,
    ``applier``).
    """

    def handle_ingest(request: HTTPRequest) -> HTTPResult:
        try:
            doc = request.json()
            delta = DatabaseDelta(
                add_text=str(doc.get("add", "")),
                remove_ids=tuple(int(g) for g in doc.get("remove", ())),
            )
            wait = bool(doc.get("wait", False))
        except ReproError as exc:
            return 400, {"error": str(exc)}, {}
        except (ValueError, TypeError, KeyError) as exc:
            return 400, {"error": f"malformed ingest request: {exc!r}"}, {}
        if delta.is_empty:
            return 400, {"error": "ingest delta is empty"}, {}
        status, payload = core.ingest(delta, wait=wait)
        headers = {"Retry-After": "1"} if status == 429 else {}
        return status, payload, headers

    def handle_flush(request: HTTPRequest) -> HTTPResult:
        try:
            applied = core.flush()
        except ReproError as exc:
            return 503, {"error": str(exc)}, {}
        if not applied:
            return 504, {"error": "flush timed out"}, {}
        return 200, {"applied_seq": core.applier.applied_seq}, {}

    def handle_lag(request: HTTPRequest) -> HTTPResult:
        return 200, core.lag_snapshot(), {}

    return RouteTable([
        Endpoint("POST", "/ingest", "ingest", "ingest", handle_ingest),
        Endpoint("POST", "/flush", "flush", "control", handle_flush),
        Endpoint("GET", "/lag", "lag", "control", handle_lag),
    ])


def replication_routes(shipper) -> RouteTable:
    """The primary's segment-publishing surface (PR 6)."""
    from repro.exceptions import WALError
    from repro.replication.shipper import DEFAULT_CHUNK_BYTES

    def handle_manifest(request: HTTPRequest) -> HTTPResult:
        return 200, shipper.manifest(), {}

    def handle_segment(request: HTTPRequest) -> HTTPResult:
        try:
            start = int(request.params["start"][0])
            offset = int(request.param("offset", "0"))
            length = int(request.param("length", str(DEFAULT_CHUNK_BYTES)))
        except (KeyError, ValueError, IndexError) as exc:
            return 400, {"error": f"malformed segment request: {exc!r}"}, {}
        try:
            data = shipper.read_chunk(start, offset, length)
        except WALError as exc:
            return 404, {"error": str(exc)}, {}
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        return 200, data, {}

    def handle_snapshot(request: HTTPRequest) -> HTTPResult:
        try:
            version, data = shipper.snapshot()
        except ReproError as exc:
            return 503, {"error": str(exc)}, {}
        return 200, data, {"X-Store-Version": str(version)}

    return RouteTable([
        Endpoint(
            "GET", "/replication/manifest", "replication_manifest",
            "control", handle_manifest,
        ),
        Endpoint(
            "GET", "/replication/segment", "replication_segment",
            "query", handle_segment,
        ),
        Endpoint(
            "GET", "/replication/snapshot", "replication_snapshot",
            "query", handle_snapshot,
        ),
    ])


def session_routes(manager) -> RouteTable:
    """The interactive-session surface over a
    :class:`~repro.sessions.manager.SessionManager` (PR 10).

    Lifecycle endpoints carry the ``session_control`` kind (never
    shed); the mine endpoint carries ``session`` (sheddable).  Quota
    breaches surface as 429 with the manager's ``Retry-After`` hint,
    matching the streaming tier's shedding convention.
    """
    from repro.sessions.manager import QuotaExceeded, SessionNotFound

    def _failed(exc: Exception) -> HTTPResult:
        if isinstance(exc, QuotaExceeded):
            retry = exc.retry_after
            return 429, {
                "error": str(exc),
                "retry_after": round(retry, 3),
            }, {"Retry-After": f"{retry:.3f}"}
        if isinstance(exc, SessionNotFound):
            return 404, {"error": str(exc)}, {}
        return 400, {"error": str(exc)}, {}

    def mine_payload(result) -> dict:
        return {
            "op": "session_mine",
            "session_id": result.session_id,
            "store_version": result.store_version,
            "cached": result.cached,
            "semantics": result.semantics,
            "min_support": result.min_support,
            "candidates": result.candidates,
            "patterns": [
                _pattern_payload(manager.reader, pattern)
                for pattern in result.patterns
            ],
        }

    def handle_create(request: HTTPRequest) -> HTTPResult:
        try:
            doc = request.json()
            tenant = str(doc.get("tenant", "default"))
            ttl = doc.get("ttl")
            session = manager.create(
                tenant, ttl_seconds=None if ttl is None else float(ttl)
            )
        except ReproError as exc:
            return _failed(exc)
        except (ValueError, TypeError) as exc:
            return 400, {"error": f"malformed session request: {exc!r}"}, {}
        return 201, session.describe(), {}

    def handle_get(request: HTTPRequest) -> HTTPResult:
        try:
            session = manager.get(request.path_args["id"])
        except ReproError as exc:
            return _failed(exc)
        return 200, session.describe(), {}

    def handle_delete(request: HTTPRequest) -> HTTPResult:
        session_id = request.path_args["id"]
        try:
            manager.delete(session_id)
        except ReproError as exc:
            return _failed(exc)
        return 200, {"session_id": session_id, "deleted": True}, {}

    def handle_examples(request: HTTPRequest) -> HTTPResult:
        session_id = request.path_args["id"]
        try:
            doc = request.json()
            session = manager.add_examples(
                session_id, str(doc.get("graphs", ""))
            )
        except ReproError as exc:
            return _failed(exc)
        except (ValueError, TypeError) as exc:
            return 400, {"error": f"malformed examples request: {exc!r}"}, {}
        return 200, {
            "session_id": session_id,
            "examples": session.num_examples,
            "example_edges": session.num_example_edges,
        }, {}

    def handle_mine(request: HTTPRequest) -> HTTPResult:
        session_id = request.path_args["id"]
        try:
            doc = request.json()
            min_support = doc.get("min_support")
            result = manager.mine(
                session_id,
                min_support=(
                    None if min_support is None else float(min_support)
                ),
                semantics=str(doc.get("semantics", "isomorphism")),
            )
        except ReproError as exc:
            return _failed(exc)
        except (ValueError, TypeError) as exc:
            return 400, {"error": f"malformed mine request: {exc!r}"}, {}
        return 200, mine_payload(result), {}

    def handle_result(request: HTTPRequest) -> HTTPResult:
        try:
            result = manager.last_result(request.path_args["id"])
        except ReproError as exc:
            return _failed(exc)
        if result is None:
            return 404, {"error": "session has no mine result yet"}, {}
        return 200, mine_payload(result), {}

    return RouteTable([
        Endpoint(
            "POST", "/sessions", "session_create", "session_control",
            handle_create,
        ),
        Endpoint(
            "GET", "/sessions/{id}", "session_get", "session_control",
            handle_get,
        ),
        Endpoint(
            "DELETE", "/sessions/{id}", "session_delete", "session_control",
            handle_delete,
        ),
        Endpoint(
            "POST", "/sessions/{id}/examples", "session_examples",
            "session_control", handle_examples,
        ),
        Endpoint(
            "POST", "/sessions/{id}/mine", "session_mine", "session",
            handle_mine,
        ),
        Endpoint(
            "GET", "/sessions/{id}/result", "session_result",
            "session_control", handle_result,
        ),
    ])
