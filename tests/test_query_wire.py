"""One query on the wire: parser, serializer, and direct = routed over HTTP.

A query is one :class:`~repro.serving.reader.Query` from the client to
the reader.  :func:`~repro.serving.endpoints.query_request` writes it as
an HTTP request and :func:`~repro.serving.endpoints.parse_query` reads
it back, on a front and on a router alike — so the same request sent to
a ``serve`` front and to a router over that front gets the same answer.
The store's labels ``b+b`` and ``c&d`` are the characters a hand-built
query string gets wrong.
"""

from __future__ import annotations

import json
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.graphs.database import GraphDatabase
from repro.replication import (
    HTTPReplica,
    LocalReplica,
    QueryRouter,
    RouterService,
)
from repro.serving import (
    QUERY_OPS,
    HTTPRequest,
    Query,
    parse_query,
    query_request,
    serve_async,
)
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.test_replication_shipper import _request

PATTERN = "t # 0\nv 0 b+b\nv 1 c&d\ne 0 1 x\n"


def _as_http_request(method: str, target: str, body: bytes | None):
    path, _sep, query_string = target.partition("?")
    return HTTPRequest(
        method=method,
        path=path,
        params=urllib.parse.parse_qs(query_string),
        body=body or b"",
    )


class TestWireRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        op=st.sampled_from(QUERY_OPS),
        pattern=st.none() | st.text(min_size=1),
        min_support=st.none() | st.floats(0.01, 1.0),
        k=st.none() | st.integers(0, 50),
        label=st.none() | st.text(min_size=1),
        threshold=st.none() | st.floats(0.01, 1.0),
        semantics=st.none() | st.sampled_from(("isomorphism", "other")),
        graph_id=st.none() | st.integers(0, 1000),
    )
    def test_parse_reads_back_what_the_serializer_writes(
        self, op, pattern, min_support, k, label, threshold, semantics,
        graph_id,
    ):
        query = Query(
            op, pattern, min_support=min_support, k=k, label_filter=label,
            sim_threshold=threshold, semantics=semantics, graph_id=graph_id,
        )
        parsed, min_applied_seq = parse_query(
            _as_http_request(*query_request(query))
        )
        assert parsed == query
        assert min_applied_seq is None

    def test_label_filter_is_url_encoded(self):
        method, target, body = query_request(
            Query("top_k", k=5, label_filter="c&d")
        )
        assert (method, target, body) == (
            "GET", "/top?k=5&label=c%26d", None,
        )

    def test_ops_pick_their_endpoint(self):
        assert query_request(Query("support", PATTERN))[:2] == (
            "POST", "/query",
        )
        assert query_request(Query("fuzzy_contains", PATTERN))[:2] == (
            "POST", "/similar",
        )

    def test_router_reads_min_applied_seq(self):
        request = _as_http_request(
            "POST", "/query",
            json.dumps({"pattern": PATTERN, "min_applied_seq": 3}).encode(),
        )
        assert parse_query(request) == (Query("support", PATTERN), 3)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    taxonomy = taxonomy_from_parent_names(
        {"b+b": "a", "c&d": "a", "e": "c&d"}
    )
    db = GraphDatabase(node_labels=taxonomy.interner)
    db.new_graph(["b+b", "c&d"], [(0, 1, "x")])
    db.new_graph(["b+b", "e"], [(0, 1, "x")])
    db.new_graph(["b+b", "b+b"], [(0, 1, "x")])
    db.new_graph(["c&d", "c&d", "b+b"], [(0, 1, "x"), (1, 2, "x")])
    store_dir = tmp_path_factory.mktemp("wire") / "store"
    Taxogram(
        TaxogramOptions(min_support=0.5, store_out=str(store_dir))
    ).mine(db, taxonomy)
    return store_dir


@pytest.fixture(scope="module")
def fronts(store):
    """``(direct, routed)`` base URLs: a ``serve`` front and a router
    over it."""
    front, _reader = serve_async(store, port=0)
    host, port = front.start_background()
    direct = f"http://{host}:{port}"
    router = RouterService([HTTPReplica(direct)], port=0)
    host, port = router.server.start_background()
    try:
        yield direct, f"http://{host}:{port}"
    finally:
        router.server.stop_background()
        router.close()
        front.stop_background()


def _answer(url: str, path: str, doc=None) -> tuple[int, dict]:
    status, body, _headers = _request(url, path, doc)
    payload = json.loads(body)
    for key in ("replica", "cached", "store_version"):
        payload.pop(key, None)
    return status, payload


# Each differed between a ``serve`` front and a router over it until
# both read requests with one parser.
_DIVERGED = [
    ("/query", {"op": "similar", "pattern": PATTERN, "threshold": 0.99}),
    ("/query", {"op": "fuzzy_contains", "pattern": PATTERN,
                "threshold": 0.5}),
    ("/query", {"op": "similarity_score", "pattern": PATTERN,
                "graph_id": 2}),
    ("/query", {"op": "top_k", "k": 1}),
    ("/query", {"op": "top_k"}),
    ("/query", {"op": "support", "pattern": PATTERN, "min_support": "abc"}),
]

# Each got the same status from both, but a differently worded error.
_WORDED_APART = [
    ("/similar", {"pattern": PATTERN, "k": "many"}),
    ("/top?k=two", None),
]

_AGREED = [
    ("/similar", {"pattern": PATTERN, "k": 2}),
    ("/query", {"op": "explode", "pattern": PATTERN}),
    ("/similar", {"op": "support", "pattern": PATTERN}),
    ("/query", {"op": "support", "pattern": PATTERN}),
    ("/query", {"op": "graphs", "pattern": PATTERN}),
    ("/query", {"op": "specializations", "pattern": PATTERN,
                "min_support": 0.25}),
    ("/query", {"op": "support", "pattern": "t # 0\nv 0 nope\n"}),
    ("/top?k=2", None),
    ("/top", None),
]


class TestDirectEqualsRouted:
    @pytest.mark.parametrize(
        "path,doc",
        _DIVERGED + _WORDED_APART + _AGREED,
        ids=lambda value: str(value)[:40],
    )
    def test_same_request_same_answer(self, fronts, path, doc):
        direct, routed = fronts
        assert _answer(routed, path, doc) == _answer(direct, path, doc)

    def test_the_parity_cases_answer(self, fronts):
        direct, _routed = fronts
        statuses = [_answer(direct, path, doc)[0] for path, doc in _DIVERGED]
        assert statuses == [200, 200, 200, 200, 200, 400]
        similar = _answer(direct, *_DIVERGED[0])[1]["value"]
        assert [gid for gid, _score in similar] == [0, 1, 3]
        fuzzy = _answer(direct, *_DIVERGED[1])[1]["value"]
        assert fuzzy["support"] == 4


class TestRoutedLabelFilter:
    @pytest.mark.parametrize("label", ["b+b", "c&d"])
    def test_top_k_label_filter_over_http_replica(self, fronts, label):
        direct, _routed = fronts
        router = QueryRouter([HTTPReplica(direct)])
        try:
            routed = router.query("top_k", k=5, label_filter=label)
        finally:
            router.close()
        target = "/top?" + urllib.parse.urlencode({"k": 5, "label": label})
        status, expected = _answer(direct, target)
        assert status == 200 and expected["value"]
        assert routed["value"] == expected["value"]

    @pytest.mark.parametrize("label", ["b+b", "c&d"])
    def test_top_k_label_filter_through_router_service(self, fronts, label):
        direct, routed = fronts
        target = "/top?" + urllib.parse.urlencode({"k": 5, "label": label})
        status, expected = _answer(direct, target)
        assert status == 200 and expected["value"]
        assert _answer(routed, target) == (status, expected)


class TestTopKDefault:
    def test_every_path_answers_the_top_ten(self, store, fronts):
        direct, routed = fronts
        status, expected = _answer(direct, "/top?k=10")
        assert status == 200 and expected["value"]
        routers = [
            QueryRouter([LocalReplica(store)]),
            QueryRouter([HTTPReplica(direct)]),
        ]
        try:
            for router in routers:
                assert router.query("top_k")["value"] == expected["value"]
        finally:
            for router in routers:
                router.close()
        for url in (direct, routed):
            for path, doc in (("/top", None), ("/query", {"op": "top_k"})):
                assert _answer(url, path, doc) == (200, expected)
