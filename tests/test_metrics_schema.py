"""Every process role answers ``GET /metrics`` in one shape.

Standalone, primary, follower and router each run on the same HTTP
front, which answers ``GET /metrics`` from the role's one registry, so
each reports exactly ``counters``, ``gauges`` and the front's own block
with a latency histogram per endpoint kind — and every component of the
role (reader, WAL, applier, shipper, router, admission) reaches it.
"""

from __future__ import annotations

import json
import threading

from repro.loadtest.cluster import spawn_serve
from repro.replication import (
    FollowerOptions,
    FollowerService,
    HTTPReplica,
    RouterService,
)
from repro.serving import serve_async
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.endpoints import ENDPOINT_KINDS, Endpoint, RouteTable
from tests.test_replication_follower import _unapplied_primary
from tests.test_replication_shipper import ADD_ONE, _mine_store, _request

PATTERN = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


def _metrics(url: str) -> dict:
    status, body, _ = _request(url, "/metrics")
    assert status == 200
    doc = json.loads(body)
    assert set(doc) == {"counters", "gauges", "front"}
    assert set(doc["front"]["latency"]) == set(ENDPOINT_KINDS)
    return doc


def test_every_role_reports_its_own_counters_in_one_shape(tmp_path):
    solo_dir = tmp_path / "solo"
    solo_dir.mkdir()
    standalone, _reader = serve_async(_mine_store(solo_dir))
    host, port = standalone.start_background()
    solo = f"http://{host}:{port}"
    # Single-byte segments seal on every append, so the follower's
    # first sync verifies sealed-segment digests.
    primary, primary_url, primary_thread = _unapplied_primary(
        tmp_path, 3, segment_max_bytes=1
    )
    follower = router = None
    try:
        follower = FollowerService(
            tmp_path / "replica",
            tmp_path / "rwal",
            primary_url,
            options=FollowerOptions(poll_interval_seconds=0.02),
        )
        follower_thread = threading.Thread(
            target=follower.serve_forever, daemon=True
        )
        follower_thread.start()
        fhost, fport = follower.address
        follower_url = f"http://{fhost}:{fport}"
        router = RouterService([HTTPReplica(follower_url)])
        rhost, rport = router.server.start_background()
        routed = f"http://{rhost}:{rport}"

        query = {"op": "support", "pattern": PATTERN}
        assert _request(solo, "/query", query)[0] == 200
        assert _request(primary_url, "/ingest", {"add": ADD_ONE})[0] == 202
        assert _request(routed, "/query", query)[0] == 200
        assert _request(primary_url, "/query", query)[0] == 200

        own = {
            solo: "serving.queries",
            primary_url: "streaming.wal_appends",
            follower_url: "replication.segments_verified",
            routed: "replication.router_queries",
        }
        for url, counter in own.items():
            assert _metrics(url)["counters"].get(counter, 0) >= 1, counter
        # The reader writes into its role's one registry, so its
        # serving.* counters arrive through the same /metrics.
        for service, url in ((primary, primary_url), (follower, follower_url)):
            assert service.reader.metrics is service.metrics
            assert service.server.metrics is service.metrics
            assert _metrics(url)["counters"].get("serving.queries", 0) >= 1
    finally:
        if router is not None:
            router.server.stop_background()
            router.close()
        if follower is not None:
            follower.close()
        primary.server.shutdown()
        primary_thread.join(timeout=10)
        primary.close()
        standalone.stop_background()


def test_a_bare_front_answers_metrics_in_the_same_shape():
    routes = RouteTable([
        Endpoint("GET", "/ping", "ping", "query", lambda r: (200, {}, {})),
    ])
    front = AsyncHTTPFront(routes)
    host, port = front.start_background()
    url = f"http://{host}:{port}"
    try:
        assert _request(url, "/ping")[0] == 200
        doc = _metrics(url)
        assert doc["front"]["latency"]["query"]["count"] == 1
    finally:
        front.stop_background()


def test_standalone_serve_reports_admission_counters(tmp_path):
    # ``taxogram serve`` hands one registry to its reader, its admission
    # controller and its front, so admission.* reaches /metrics.
    process = spawn_serve(_mine_store(tmp_path), cwd=tmp_path)
    process.start()
    try:
        query = {"op": "support", "pattern": PATTERN}
        assert _request(process.url, "/query", query)[0] == 200
        counters = _metrics(process.url)["counters"]
        assert counters.get("admission.admitted", 0) >= 1
        assert counters.get("serving.queries", 0) >= 1
    finally:
        process.terminate()
