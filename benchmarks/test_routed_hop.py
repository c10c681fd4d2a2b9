"""Routed hop vs direct read (serving-path per-layer benchmark).

Setup: the Figure 4.2 D5000 analog at ~500 graphs, sigma = 0.2, mined
once into a pattern store (the store of ``test_serving_latency``).  One
:func:`~repro.serving.serve_async` replica runs in-process behind one
:class:`~repro.replication.RouterService`.  Warm (cached) ``support``
and ``graphs`` lookups of the most frequent edge pattern go to the
replica directly and through the router, each client on its own
keep-alive connection, one request at a time.

Per op the benchmark records ``direct_ms`` and ``routed_ms`` (median
per request; their difference is the router's hop) with the router's
counter snapshot.  ``replication.router_connections_opened`` in that
snapshot is deterministic: the router's health checks and every routed
lookup share one connection to the replica.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import pytest

from benchmarks._common import (
    MAX_EDGES,
    dataset,
    print_header,
    print_row,
    record_bench_point,
)
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.graphs.io import serialize_graph_database
from repro.replication import HTTPReplica, RouterService
from repro.serving import serve_async

SIGMA = 0.2
_GRAPH_SCALE = 0.1  # D5000 -> ~500 graphs at default scale
_TAXONOMY_SCALE = 0.01
_WARM = 20  # requests per op and path before timing
_TIMED = 200  # timed requests per op and path
_OPS = ("support", "graphs")


class _HopPoint:
    """record_bench_point shim: request count + router counters and the
    per-request medians."""

    def __init__(self, requests: int, metrics: dict) -> None:
        self._requests = requests
        self._metrics = metrics

    def __len__(self) -> int:
        return self._requests

    @property
    def counters(self) -> "_HopPoint":
        return self

    def as_metrics(self) -> dict:
        return dict(self._metrics)


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    database, taxonomy = dataset("D5000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    store_dir = tmp_path_factory.mktemp("routed_hop_bench") / "store"
    result = Taxogram(
        TaxogramOptions(
            min_support=SIGMA, max_edges=MAX_EDGES, store_out=str(store_dir)
        )
    ).mine(database, taxonomy)
    pattern = max(
        (p for p in result.patterns if p.num_edges >= 1),
        key=lambda p: p.support_count,
    ).graph
    single = GraphDatabase(
        node_labels=database.node_labels, edge_labels=database.edge_labels
    )
    single.add_graph(pattern)
    return store_dir, serialize_graph_database(single)


def _timed(connection, body: bytes, count: int) -> tuple[list[float], dict]:
    """Send ``count`` identical queries; per-request seconds and the
    last answer."""
    seconds = []
    answer: dict = {}
    for _ in range(count):
        start = time.perf_counter()
        connection.request(
            "POST", "/query", body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        data = response.read()
        seconds.append(time.perf_counter() - start)
        assert response.status == 200, data
        answer = json.loads(data)
    return seconds, answer


def test_routed_hop_vs_direct(served_store):
    store_dir, pattern_text = served_store
    replica, _reader = serve_async(store_dir)
    host, port = replica.start_background()
    service = RouterService([HTTPReplica(f"http://{host}:{port}")])
    rhost, rport = service.server.start_background()
    direct = http.client.HTTPConnection(host, port, timeout=60)
    routed = http.client.HTTPConnection(rhost, rport, timeout=60)
    rows = []
    try:
        for op in _OPS:
            body = json.dumps({"op": op, "pattern": pattern_text}).encode()
            for connection in (direct, routed):
                _timed(connection, body, _WARM)
            direct_s, direct_answer = _timed(direct, body, _TIMED)
            routed_s, routed_answer = _timed(routed, body, _TIMED)
            assert routed_answer["value"] == direct_answer["value"]
            assert direct_answer["cached"] and routed_answer["cached"]
            rows.append(
                (op, statistics.median(direct_s), statistics.median(routed_s))
            )
    finally:
        direct.close()
        routed.close()
        service.server.stop_background()
        service.close()
        replica.stop_background()

    counters = service.metrics.as_dict()["counters"]
    print_header(
        "Routed hop vs direct read (warm cache)",
        f"{'op':>12}  {'direct':>12}  {'routed':>12}  {'hop':>12}",
    )
    for op, direct_median, routed_median in rows:
        print_row(
            op,
            f"{direct_median * 1e3:.3f}ms",
            f"{routed_median * 1e3:.3f}ms",
            f"{(routed_median - direct_median) * 1e3:.3f}ms",
        )
        metrics = {
            **counters,
            "direct_ms": direct_median * 1e3,
            "routed_ms": routed_median * 1e3,
        }
        point = _HopPoint(_TIMED, metrics)
        record_bench_point("routed_hop_direct", op, direct_median, point)
        record_bench_point("routed_hop_routed", op, routed_median, point)

    # One keep-alive connection carries every routed lookup and health
    # check; nothing was evicted or retried.
    assert counters["replication.router_connections_opened"] == 1
    assert counters.get("replication.router_evictions", 0) == 0
    assert counters.get("replication.router_retries", 0) == 0
    assert counters["replication.router_queries"] == len(_OPS) * (
        _WARM + _TIMED
    )
