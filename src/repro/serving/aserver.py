"""The HTTP front-end: async accept, pooled compute.

Every serving socket in the stack — ``serve``, ``ingest --serve``,
``replicate --serve`` and ``route``, and the in-process services that
embed them — is an :class:`AsyncHTTPFront` over a
:class:`~repro.serving.endpoints.RouteTable`.  The front keeps the
*compute* blocking and batch-friendly but moves *accept/parse/respond*
onto one event loop:

* connections are accepted and HTTP/1.1 requests parsed by
  ``asyncio.start_server`` coroutines — thousands of idle or slow
  connections cost bytes, not threads, and keep-alive connections are
  reused across requests;
* each admitted request runs its blocking
  :mod:`repro.serving.endpoints` handler on a bounded
  ``ThreadPoolExecutor`` via ``run_in_executor``, capped per endpoint
  kind by an ``asyncio.Semaphore``;
* *before* queueing, an optional :class:`~repro.serving.admission.
  AdmissionController` may shed the request with 429 and a jittered
  ``Retry-After`` — queue-depth and lag pressure shed probabilistically
  instead of at a cliff, and control endpoints (health/metrics/lag/
  flush) are never shed, so the server stays observable and drainable
  at any load;
* the front answers ``GET /metrics`` itself, from the role's one
  :class:`~repro.observability.metrics.MetricsRegistry` (its
  ``counters``/``gauges``, plus the nonzero ``bitset.*`` kernel
  counters) and a ``front`` block whose per-kind
  :class:`~repro.observability.metrics.LatencyHistogram`\\ s record
  end-to-end request latency;
* bodies are compact JSON (``json.dumps`` without ``indent``, which
  keeps CPython's C encoder), encoded once per response.

The listening socket is bound in the constructor, so the address is
known (and bind errors raise) before serving starts.  Drive the front
like a ``socketserver`` server: :meth:`~AsyncHTTPFront.serve_forever`
blocks, :meth:`~AsyncHTTPFront.shutdown` (thread-safe) stops it and
waits, :meth:`~AsyncHTTPFront.server_close` releases the socket.  On
shutdown, keep-alive connections waiting for their next request close
at once; requests in flight get a few seconds to finish writing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _HTTP_REASONS
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.observability.metrics import LatencyHistogram, MetricsRegistry
from repro.serving.admission import (
    ENDPOINT_KINDS,
    AdmissionController,
)
from repro.serving.endpoints import (
    Endpoint,
    HTTPRequest,
    HTTPResult,
    RouteTable,
    not_found,
    serving_routes,
)
from repro.serving.reader import StoreReader
from repro.util.bitset import kernel_counters

__all__ = ["AsyncHTTPFront", "serve_async"]

# Parse limits: a header section larger than this is hostile, not load.
_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadRequest(Exception):
    """The bytes on the wire are not a parseable HTTP/1.1 request."""


class AsyncHTTPFront:
    """One listening socket, one route table, one bounded compute pool.

    ``routes`` is owned by the front, which adds its ``GET /metrics``
    endpoint to it.  ``metrics`` is the registry that endpoint renders —
    the role's one registry, which every component of the role writes
    into; ``None`` gives the front a fresh one, so every front answers
    ``/metrics`` in the same shape.  ``admission=None`` disables
    shedding — every request is admitted, still bounded by the per-kind
    semaphores.
    ``max_requests`` stops the front after N responses (the CLI's
    ``--max-requests`` testing aid).

    :meth:`serve_forever` runs the event loop on the calling thread;
    :meth:`start_background` runs it on a daemon thread instead.
    """

    def __init__(
        self,
        routes: RouteTable,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        max_workers: int | None = None,
        max_requests: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.routes = routes
        self.admission = admission
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_requests = max_requests
        infos = socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
        )
        # A name that resolves to both families (``localhost``) binds
        # IPv4, as ``socketserver`` servers do.
        family, _, _, _, address = next(
            (info for info in infos if info[0] == socket.AF_INET), infos[0]
        )
        self._sock = socket.create_server(address, family=family)
        self.host, self.port = self._sock.getsockname()[:2]
        if max_workers is None:
            max_workers = (
                16
                if admission is None
                else sum(self._bound(kind) for kind in ENDPOINT_KINDS)
            )
        self.max_workers = max(1, min(64, max_workers))
        self.latency = {kind: LatencyHistogram() for kind in ENDPOINT_KINDS}
        self.handled = 0
        self.errors = 0
        # Reentrant: request_stop() may run in a signal handler that
        # interrupted this thread while it held the lock.
        self._lock = threading.RLock()
        self._stop_requested = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._idle = threading.Event()
        self._idle.set()
        self._executor: ThreadPoolExecutor | None = None
        self._semaphores: dict[str, asyncio.Semaphore] = {}
        self._clients: set[asyncio.Task] = set()
        # Connections waiting for their next request line: shutdown
        # drops these at once instead of waiting for a request.
        self._waiting: set[asyncio.Task] = set()
        self._draining = False
        self._thread: threading.Thread | None = None
        routes.add(
            Endpoint("GET", "/metrics", "metrics", "control", self._metrics)
        )

    def _bound(self, kind: str) -> int:
        """How many requests of ``kind`` may compute at once."""
        if self.admission is None:
            return 16
        return self.admission.limits.concurrency(kind)

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        """The front's own counters for ``/metrics`` and reports."""
        payload: dict = {
            "requests": self.handled,
            "internal_errors": self.errors,
            "latency": {
                kind: hist.as_dict() for kind, hist in self.latency.items()
            },
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        return payload

    def _metrics(self, request: HTTPRequest) -> HTTPResult:
        """``GET /metrics``: the role's registry, kernel work, the front."""
        payload = self.metrics.as_dict()
        # Process-cumulative bit-set kernel work (similarity scoring runs
        # on BitSet kernels); counters still at zero are left out.
        payload["counters"].update(
            {k: v for k, v in kernel_counters().items() if v}
        )
        payload["front"] = self.stats()
        return 200, payload, {}

    # -- lifecycle ------------------------------------------------------------

    def serve_forever(self) -> None:
        """Answer requests until :meth:`shutdown`, :meth:`request_stop`
        or ``max_requests``; blocks the calling thread."""
        with self._lock:
            if self._stop_requested:
                return
            self._idle.clear()
        try:
            asyncio.run(self._serve())
        finally:
            self._idle.set()

    def request_stop(self) -> None:
        """Thread-safe, non-blocking: make :meth:`serve_forever` return.
        Sticky — a stop requested before serving starts takes effect
        when it does."""
        with self._lock:
            self._stop_requested = True
            loop, stop = self._loop, self._stop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop closed in between: already stopped

    def shutdown(self) -> None:
        """Thread-safe: stop :meth:`serve_forever` and wait for it to
        return.  Must not be called from a request handler."""
        self.request_stop()
        self._idle.wait()

    def server_close(self) -> None:
        """Stop serving (if running) and release the listening socket."""
        self.shutdown()
        self._sock.close()

    def start_background(self) -> tuple[str, int]:
        """Run :meth:`serve_forever` on a daemon thread; returns the
        bound address."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="aserve-loop", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop_background(self) -> None:
        self.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    async def _serve(self) -> None:
        for kind in ENDPOINT_KINDS:
            self._semaphores[kind] = asyncio.Semaphore(self._bound(kind))
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="aserve"
        )
        stop = asyncio.Event()
        with self._lock:
            self._loop, self._stop = asyncio.get_running_loop(), stop
            if self._stop_requested:
                stop.set()
        server = await asyncio.start_server(
            self._handle_client, sock=self._sock
        )
        try:
            await stop.wait()
        finally:
            server.close()
            # Idle keep-alive connections hold no request: close them
            # now.  Let in-flight requests finish writing, then drop
            # stragglers.
            self._draining = True
            for task in self._waiting:
                task.cancel()
            pending = [task for task in self._clients if not task.done()]
            if pending:
                await asyncio.wait(pending, timeout=5.0)
            for task in self._clients:
                if not task.done():
                    task.cancel()
            await server.wait_closed()
            self._executor.shutdown(wait=False, cancel_futures=True)
            with self._lock:
                self._loop = self._stop = None

    # -- connection handling --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            while True:
                try:
                    request, keep_alive = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write_response(
                        writer, 400, {"error": str(exc)}, {}, False
                    )
                    break
                if request is None:
                    break
                status, payload, headers = await self._process(request)
                await self._write_response(
                    writer, status, payload, headers, keep_alive
                )
                self.handled += 1
                if (
                    self.max_requests is not None
                    and self.handled >= self.max_requests
                ):
                    self.request_stop()
                    break
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[HTTPRequest | None, bool]:
        if self._draining:
            return None, False
        task = asyncio.current_task()
        self._waiting.add(task)
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _BadRequest(f"request line too long: {exc}") from exc
        finally:
            self._waiting.discard(task)
        if not line:
            return None, False
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise _BadRequest(f"malformed request line {line!r}")
        method, target = parts[0].upper(), parts[1]
        version = parts[2] if len(parts) > 2 else "HTTP/1.1"
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise _BadRequest(f"header line too long: {exc}") from exc
            if raw in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(raw)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _BadRequest("header section too large")
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise _BadRequest(f"bad Content-Length: {exc}") from exc
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest(f"unacceptable Content-Length {length}")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _BadRequest("request body truncated") from exc
        parsed = urlparse(target)
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection == "keep-alive"
            or (version == "HTTP/1.1" and connection != "close")
        )
        request = HTTPRequest(
            method=method,
            path=parsed.path,
            params=parse_qs(parsed.query),
            body=body,
        )
        return request, keep_alive

    async def _process(self, request: HTTPRequest):
        endpoint, path_args = self.routes.match(request.method, request.path)
        if endpoint is None:
            return not_found(request.path)
        if path_args:
            request = dataclasses.replace(request, path_args=path_args)
        if self.admission is not None:
            decision = self.admission.try_admit(endpoint.kind)
            if not decision.admitted:
                retry = decision.retry_after
                return 429, {
                    "error": "server over capacity",
                    "reason": decision.reason,
                    "retry_after": round(retry, 3),
                }, {"Retry-After": f"{retry:.3f}"}
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            async with self._semaphores[endpoint.kind]:
                try:
                    future = loop.run_in_executor(
                        self._executor, endpoint.handler, request
                    )
                except RuntimeError:
                    # Submission failed: executor shutting down.  A
                    # handler's own RuntimeError takes the 500 path.
                    self.errors += 1
                    future = None
                if future is None:
                    result = (
                        503, {"error": "server is shutting down"}, {}
                    )
                else:
                    result = await future
        except Exception as exc:
            self.errors += 1
            result = (500, {"error": f"internal server error: {exc!r}"}, {})
        finally:
            if self.admission is not None:
                self.admission.release(endpoint.kind)
        self.latency[endpoint.kind].observe(loop.time() - start)
        return result

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        headers: dict,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            content_type = "application/octet-stream"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(body)}")
        head.append(
            "Connection: keep-alive" if keep_alive else "Connection: close"
        )
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


def serve_async(
    store_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    admission: AdmissionController | None = None,
    max_requests: int | None = None,
    sessions=True,
    metrics: MetricsRegistry | None = None,
) -> tuple[AsyncHTTPFront, StoreReader]:
    """A front over a read-only store (``taxogram serve``).

    Returns the bound, not yet serving front and its reader.
    ``metrics`` is the process's registry, shared by the reader, the
    session manager and the front (pass the same one to ``admission``
    so ``/metrics`` carries its ``admission.*`` counters); ``None``
    uses a fresh one.
    ``sessions`` mounts the interactive-session surface: ``True`` builds
    a default :class:`~repro.sessions.manager.SessionManager` over the
    reader, a manager instance is used as-is, and ``False``/``None``
    disables the surface.  The manager (if any) is exposed as
    ``front.sessions``.
    """
    from repro.serving.endpoints import session_routes
    from repro.sessions.manager import SessionManager

    reader = StoreReader(store_dir, metrics=metrics)
    routes = serving_routes(reader, role="standalone")
    manager = None
    if sessions is True:
        manager = SessionManager(reader)
    elif sessions:
        manager = sessions
    if manager is not None:
        routes.merge(session_routes(manager))
    front = AsyncHTTPFront(
        routes,
        host,
        port,
        admission=admission,
        max_requests=max_requests,
        metrics=reader.metrics,
    )
    front.sessions = manager
    return front, reader
