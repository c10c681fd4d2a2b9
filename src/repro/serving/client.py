"""The one outbound HTTP client: pooled keep-alive connections to one
server.  The router's replicas, the follower's primary and the load
harness all call through :class:`HTTPClient`; subclasses add only what
their server's statuses mean.
"""

from __future__ import annotations

import http.client
import threading

from repro.exceptions import ReplicationError
from repro.observability.metrics import MetricsRegistry

__all__ = ["HTTPClient"]

# How a reused keep-alive connection fails when the server closed it
# while it sat idle: before any byte of the answer arrives.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class HTTPClient:
    """Requests to the server at ``base_url`` (``http://host:port``;
    other URLs raise :class:`~repro.exceptions.ReplicationError`).

    Calls share a lock-guarded list of idle keep-alive connections, so
    the pool holds at most as many as callers ever ran at once.  A
    reused connection that fails before any answer byte was closed by
    the server while idle: the call retries once on a fresh one.  Each
    connection opened adds one to ``metrics``'
    :attr:`connections_counter`, when both are set.
    """

    #: What the server is called in error messages.
    role = "server"
    #: The counter each opened connection adds one to (``None``: none).
    connections_counter: str | None = None

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, _sep, self._netloc = self.base_url.partition("://")
        if scheme != "http" or not self._netloc or "/" in self._netloc:
            raise ReplicationError(
                f"{self.role} URL must be http://host:port, got {base_url!r}"
            )
        self.metrics = metrics
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection (calls in flight keep theirs)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "HTTPClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def call(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes, dict]:
        """``(status, data, headers)`` of one exchange, for every status.
        Transport failures raise :class:`OSError` (a timeout as
        :class:`TimeoutError`); a truncated or garbled answer raises
        :class:`~repro.exceptions.ReplicationError`."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        try:
            try:
                response = _exchange(connection, method, path, body)
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                response = _exchange(connection, method, path, body)
            data = response.read()
        except http.client.HTTPException as exc:
            connection.close()
            raise ReplicationError(
                f"{self.role} {self.base_url} sent a broken answer: {exc!r}"
            ) from exc
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, data, dict(response.headers)

    def get(self, path: str) -> tuple[bytes, dict]:
        """``GET path``: ``(data, headers)`` of a 200 answer; any other
        status raises :class:`~repro.exceptions.ReplicationError`."""
        status, data, headers = self.call("GET", path)
        if status != 200:
            raise ReplicationError(
                f"{self.role} {self.base_url} answered GET {path} with "
                f"{status}: {data.decode('utf-8', 'replace')}"
            )
        return data, headers

    def _connect(self) -> http.client.HTTPConnection:
        if self.metrics is not None and self.connections_counter:
            self.metrics.add(self.connections_counter, 1)
        return http.client.HTTPConnection(self._netloc, timeout=self.timeout)


def _exchange(connection, method, path, body):
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(method, path, body, headers)
    return connection.getresponse()
