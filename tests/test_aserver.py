"""In-process tests for the asyncio HTTP front.

Two contracts:

* **Lifecycle** — the socket binds at construction (bind errors raise
  there), ``GET /metrics`` gains the front's own block, keep-alive
  connections are reused, and ``max_requests`` stops the front.
* **Real backpressure** — with an :class:`AdmissionController`
  attached, saturating a kind's queue yields 429s with a positive
  decimal ``Retry-After``, never a hang or a 500, and control
  endpoints keep answering throughout.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.serving.admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionPolicy,
)
from repro.serving.aserver import AsyncHTTPFront, serve_async
from repro.serving.endpoints import Endpoint, RouteTable
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.conftest import wait_until

PATTERN = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


@pytest.fixture
def store_dir(tmp_path):
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in ["x", "x", "y"]:
        db.new_graph(["b", "c"], [(0, 1, name)])
    out = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.4, store_out=str(out))
    ).mine(db, taxonomy)
    return out


@pytest.fixture
def async_front(store_dir):
    front, _reader = serve_async(store_dir)
    host, port = front.start_background()
    try:
        yield front, f"{host}:{port}"
    finally:
        front.stop_background()


def _raw(address: str, method: str, path: str, body: dict | None = None):
    """Status and exact body bytes, bypassing urllib's error mapping."""
    connection = http.client.HTTPConnection(address, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {
            "Content-Type": "application/json"
        }
        connection.request(method, path, payload, headers)
        response = connection.getresponse()
        return response.status, response.read(), dict(
            response.getheaders()
        )
    finally:
        connection.close()


class TestByteParity:
    def test_metrics_adds_front_block(self, async_front):
        _front, address = async_front
        status, body, _ = _raw(address, "GET", "/metrics")
        assert status == 200
        doc = json.loads(body)
        front_block = doc.pop("front")
        assert set(front_block) >= {"requests", "latency"}
        assert set(doc) == {"counters", "gauges"}

    def test_keep_alive_reuses_the_connection(self, async_front):
        _front, address = async_front
        connection = http.client.HTTPConnection(address, timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestLifecycle:
    def test_max_requests_stops_the_front(self, store_dir):
        front, _reader = serve_async(store_dir, max_requests=2)
        host, port = front.start_background()
        address = f"{host}:{port}"
        assert _raw(address, "GET", "/health")[0] == 200
        assert _raw(address, "GET", "/health")[0] == 200
        if front._thread is not None:
            front._thread.join(timeout=30)
        with pytest.raises(OSError):
            _raw(address, "GET", "/health")

    def test_bind_error_surfaces(self, store_dir):
        front, _ = serve_async(store_dir)
        host, port = front.start_background()
        try:
            with pytest.raises(OSError):
                serve_async(store_dir, port=port)
        finally:
            front.stop_background()

    def test_dual_stack_name_binds_ipv4(self, store_dir):
        front, _ = serve_async(store_dir, host="localhost")
        try:
            assert front.host == "127.0.0.1"
        finally:
            front.server_close()

    def test_malformed_request_line_is_400(self, async_front):
        _front, address = async_front
        connection = http.client.HTTPConnection(address, timeout=30)
        try:
            connection.request("BREW", "/health")
            assert connection.getresponse().status in (400, 404, 405)
        finally:
            connection.close()


class TestBackpressure:
    def _slow_routes(self, release: threading.Event) -> RouteTable:
        def handler(request):
            release.wait(timeout=30)
            return 200, {"ok": True}, {}

        def control(request):
            return 200, {"ok": True}, {}

        return RouteTable([
            Endpoint("GET", "/slow", "slow", "query", handler),
            Endpoint("GET", "/ctl", "ctl", "control", control),
        ])

    def test_saturation_sheds_429_and_control_survives(self):
        release = threading.Event()
        limits = AdmissionLimits(query_concurrency=2, queue_factor=2.0)
        controller = AdmissionController(
            AdmissionPolicy(limits), seed=0
        )
        front = AsyncHTTPFront(
            self._slow_routes(release), admission=controller
        )
        host, port = front.start_background()
        address = f"{host}:{port}"
        url = f"http://{address}"
        results: list[tuple[int | None, dict]] = []
        lock = threading.Lock()

        def hit():
            try:
                with urllib.request.urlopen(
                    url + "/slow", timeout=30
                ) as response:
                    outcome = (response.status, dict(response.headers))
            except urllib.error.HTTPError as exc:
                outcome = (exc.code, dict(exc.headers))
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=hit, daemon=True) for _ in range(24)
        ]
        try:
            for thread in threads:
                thread.start()
            # Wait until the queue bound (4) guarantees sheds arrive.
            wait_until(
                lambda: any(s == 429 for s, _ in results),
                message="a shed response",
            )
            # Control traffic answers while queries are saturated.
            assert _raw(address, "GET", "/ctl")[0] == 200
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
            front.stop_background()
        statuses = [status for status, _ in results]
        assert statuses.count(200) >= 2
        assert 429 in statuses
        assert all(status in (200, 429) for status in statuses)
        for status, headers in results:
            if status == 429:
                retry_after = float(headers["Retry-After"])
                assert 0.0 < retry_after <= limits.retry_after_max

    def test_handler_crash_is_500_not_a_hang(self):
        def boom(request):
            raise RuntimeError("kaboom")

        routes = RouteTable(
            [Endpoint("GET", "/boom", "boom", "query", boom)]
        )
        front = AsyncHTTPFront(routes)
        host, port = front.start_background()
        try:
            status, body, _ = _raw(f"{host}:{port}", "GET", "/boom")
            assert status == 500
            assert b"error" in body
            assert front.stats()["internal_errors"] == 1
        finally:
            front.stop_background()

    def test_latency_histograms_fill(self, async_front):
        front, address = async_front
        for _ in range(5):
            assert _raw(address, "GET", "/top?k=2")[0] == 200
        # Latency is observed before the response bytes go out but the
        # request counter increments after, so poll both rather than
        # race the last request's bookkeeping.
        wait_until(
            lambda: (
                front.stats()["latency"]["query"]["count"] >= 5
                and front.stats()["requests"] >= 5
            ),
            message="request accounting to settle",
        )
        stats = front.stats()
        assert stats["requests"] >= 5
        assert stats["latency"]["query"]["p99_ms"] > 0.0


class TestAdmissionReleaseOnShed:
    def test_depth_returns_to_zero(self, store_dir):
        controller = AdmissionController(seed=0)
        front, _ = serve_async(store_dir, admission=controller)
        host, port = front.start_background()
        try:
            for _ in range(8):
                _raw(f"{host}:{port}", "GET", "/top?k=1")
            wait_until(
                lambda: controller.depth("query") == 0,
                message="in-flight count to drain",
            )
        finally:
            front.stop_background()
