"""Every process role answers ``GET /metrics`` in one shape.

Standalone, primary, follower and router each run on the same HTTP
front, so each reports ``counters``, ``gauges`` and the front's own
block with a latency histogram per endpoint kind — and each role's own
registry (not just its reader's) reaches the endpoint.
"""

from __future__ import annotations

import json
import threading

from repro.replication import (
    FollowerOptions,
    FollowerService,
    HTTPReplica,
    RouterService,
)
from repro.serving import serve_async
from repro.serving.endpoints import ENDPOINT_KINDS
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

        own = {
            solo: "serving.queries",
            primary_url: "streaming.wal_appends",
            follower_url: "replication.segments_verified",
            routed: "replication.router_queries",
        }
        for url, counter in own.items():
            assert _metrics(url)["counters"].get(counter, 0) >= 1, counter
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
