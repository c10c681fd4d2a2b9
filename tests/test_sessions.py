"""Tests for :mod:`repro.sessions`: multi-tenant interactive mining.

Four layers:

* manager unit tests over a hand-built store — lifecycle, TTL eviction
  under an injectable clock, quota enforcement, mine-result caching;
* per-tenant cache isolation, structurally (bucketed
  :class:`VersionedResultCache`) and behaviorally (the cached flag);
* the HTTP surface, over a caller-owned manager and over
  ``serve_async``'s own, including 429 + ``Retry-After`` on quota
  breach and admission classification (``session`` sheds under
  pressure, ``session_control`` never does);
* the acceptance-criteria stress test: 8 threads of mixed-tenant
  traffic against the HTTP front — no cross-tenant cache hits, all
  quota breaches surface as 429 + ``Retry-After``, and successful
  mines stay inside a latency envelope.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.serving.admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionPolicy,
)
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.cache import VersionedResultCache
from repro.serving.endpoints import (
    ENDPOINT_KINDS,
    NEVER_SHED_KINDS,
    RouteTable,
    session_routes,
    serving_routes,
)
from repro.serving.reader import StoreReader
from repro.sessions import (
    QuotaAccountant,
    QuotaExceeded,
    SessionManager,
    SessionNotFound,
    TenantQuotas,
)
from repro.taxonomy.builders import taxonomy_from_parent_names

EXAMPLE = "t # 0\nv 0 a1\nv 1 b1\ne 0 1 -\n"
EXAMPLE_2 = "t # 0\nv 0 a1\nv 1 c1\ne 0 1 -\n"


def _taxonomy():
    return taxonomy_from_parent_names(
        {
            "A": [],
            "B": [],
            "C": [],
            "a1": "A",
            "a2": "A",
            "b1": "B",
            "b2": "B",
            "c1": "C",
        }
    )


def _database(tax):
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(["a1", "b1", "c1"], [(0, 1), (1, 2), (0, 2)])
    db.new_graph(["a1", "b1"], [(0, 1)])
    db.new_graph(["a1", "b2"], [(0, 1)])
    db.new_graph(["a1", "c1"], [(0, 1)])
    return db


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sessions") / "store"
    tax = _taxonomy()
    Taxogram(
        TaxogramOptions(min_support=0.5, max_edges=2, store_out=str(directory))
    ).mine(_database(tax), tax)
    return directory


@pytest.fixture
def reader(store_dir):
    return StoreReader(store_dir)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSessionLifecycle:
    def test_create_get_delete(self, reader):
        manager = SessionManager(reader, instance="test")
        session = manager.create("acme")
        assert session.session_id == "sess-test-000001"
        assert manager.get(session.session_id) is session
        manager.delete(session.session_id)
        with pytest.raises(SessionNotFound):
            manager.get(session.session_id)
        with pytest.raises(SessionNotFound):
            manager.delete(session.session_id)

    def test_tenant_must_be_nonempty(self, reader):
        manager = SessionManager(reader)
        with pytest.raises(MiningError):
            manager.create("")
        with pytest.raises(MiningError):
            manager.create("  ")

    def test_ttl_eviction_releases_everything(self, reader):
        clock = FakeClock()
        manager = SessionManager(reader, ttl_seconds=10.0, clock=clock)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        assert manager.accountant.snapshot("acme")["sessions"] == 1
        assert manager.accountant.snapshot("acme")["examples"] == 1
        clock.advance(10.1)
        assert manager.evict_expired() == 1
        with pytest.raises(SessionNotFound):
            manager.get(session.session_id)
        # Eviction returned the session slot AND its examples.
        assert manager.accountant.is_idle()
        assert manager.metrics.counters["sessions.expired"] == 1
        assert manager.metrics.gauges["sessions.active"] == 0

    def test_activity_refreshes_ttl(self, reader):
        clock = FakeClock()
        manager = SessionManager(reader, ttl_seconds=10.0, clock=clock)
        session = manager.create("acme")
        for _ in range(5):
            clock.advance(8.0)
            manager.get(session.session_id)  # touch
        assert manager.active_sessions() == 1

    def test_expiry_is_lazy_on_any_operation(self, reader):
        clock = FakeClock()
        manager = SessionManager(reader, ttl_seconds=5.0, clock=clock)
        stale = manager.create("acme")
        clock.advance(6.0)
        # Creating for another tenant sweeps the expired session too.
        manager.create("beta")
        with pytest.raises(SessionNotFound):
            manager.get(stale.session_id)
        assert manager.accountant.snapshot("acme")["sessions"] == 0

    def test_examples_must_parse_and_be_taxonomy_labeled(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        with pytest.raises(MiningError):
            manager.add_examples(session.session_id, "   ")
        bad = "t # 0\nv 0 mystery\nv 1 b1\ne 0 1 -\n"
        with pytest.raises(MiningError, match="mystery"):
            manager.add_examples(session.session_id, bad)


class TestQuotas:
    def test_session_quota_breach(self, reader):
        quotas = TenantQuotas(max_sessions=2)
        manager = SessionManager(reader, quotas=quotas)
        manager.create("acme")
        manager.create("acme")
        with pytest.raises(QuotaExceeded) as info:
            manager.create("acme")
        assert info.value.retry_after > 0
        # Another tenant is unaffected.
        manager.create("beta")
        assert manager.metrics.counters["sessions.quota_rejections"] == 1

    def test_example_quota_breach(self, reader):
        quotas = TenantQuotas(max_examples=1)
        manager = SessionManager(reader, quotas=quotas)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        with pytest.raises(QuotaExceeded):
            manager.add_examples(session.session_id, EXAMPLE_2)
        # The rejected batch must not have been partially accounted.
        assert manager.accountant.snapshot("acme")["examples"] == 1

    def test_example_edge_quota_spans_sessions(self, reader):
        quotas = TenantQuotas(max_example_edges=1)
        manager = SessionManager(reader, quotas=quotas)
        first = manager.create("acme")
        manager.add_examples(first.session_id, EXAMPLE)
        second = manager.create("acme")
        with pytest.raises(QuotaExceeded):
            manager.add_examples(second.session_id, EXAMPLE_2)

    def test_candidate_budget_breach(self, reader):
        quotas = TenantQuotas(candidate_budget=1)
        manager = SessionManager(reader, quotas=quotas)
        session = manager.create("acme")
        # Two disconnected 2-node examples witness several structures.
        manager.add_examples(session.session_id, EXAMPLE)
        manager.add_examples(session.session_id, EXAMPLE_2)
        with pytest.raises(QuotaExceeded):
            manager.mine(session.session_id)
        # The mine slot was released despite the breach.
        assert manager.accountant.snapshot("acme")["mines"] == 0


class TestMine:
    def test_mine_and_cache(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        first = manager.mine(session.session_id)
        assert not first.cached
        assert first.candidates >= 1
        assert first.patterns
        rendered = [manager.render(p) for p in first.patterns]
        assert all("a1" in text or "B" in text for text in rendered)
        second = manager.mine(session.session_id)
        assert second.cached
        assert second.patterns == first.patterns
        assert manager.last_result(session.session_id) is second

    def test_semantics_are_separate_cache_keys(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        manager.mine(session.session_id, semantics="isomorphism")
        hom = manager.mine(session.session_id, semantics="homomorphism")
        assert not hom.cached

    def test_below_store_sigma_is_refused(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        with pytest.raises(MiningError, match="min_support"):
            manager.mine(session.session_id, min_support=0.1)

    def test_unknown_semantics(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        with pytest.raises(MiningError, match="semantics"):
            manager.mine(session.session_id, semantics="telepathy")

    def test_mine_without_examples(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        with pytest.raises(MiningError, match="example"):
            manager.mine(session.session_id)

    def test_scratch_store_records_classes(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        result = manager.mine(session.session_id)
        assert session.scratch.num_classes >= 1
        assert session.scratch.patterns() == result.patterns
        assert session.scratch.top_k(1) == result.patterns[:1]


class TestTenantCacheIsolation:
    def test_bucketed_cache_structure(self):
        cache = VersionedResultCache(maxsize=2)
        cache.put(1, "k", "acme-value", tenant="acme")
        assert cache.get(1, "k", tenant="acme") == "acme-value"
        # Same key, other tenant: structurally a miss.
        assert cache.is_miss(cache.get(1, "k", tenant="beta"))
        assert cache.is_miss(cache.get(1, "k"))  # shared bucket too
        # One tenant's churn cannot evict another's entries.
        for i in range(10):
            cache.put(1, f"churn-{i}", i, tenant="beta")
        assert cache.get(1, "k", tenant="acme") == "acme-value"
        assert cache.drop_tenant("acme") == 1
        assert cache.is_miss(cache.get(1, "k", tenant="acme"))

    def test_identical_mine_is_not_shared_across_tenants(self, reader):
        manager = SessionManager(reader)
        one = manager.create("acme")
        two = manager.create("beta")
        manager.add_examples(one.session_id, EXAMPLE)
        manager.add_examples(two.session_id, EXAMPLE)
        first = manager.mine(one.session_id)
        # Identical examples, identical sigma: a shared cache would
        # serve tenant beta from tenant acme's entry.
        other = manager.mine(two.session_id)
        assert not other.cached
        assert other.patterns == first.patterns  # same answer, own work

    def test_last_session_release_drops_tenant_buckets(self, reader):
        manager = SessionManager(reader)
        session = manager.create("acme")
        manager.add_examples(session.session_id, EXAMPLE)
        manager.mine(session.session_id)
        manager.delete(session.session_id)
        # A fresh session for the same tenant recomputes from scratch.
        again = manager.create("acme")
        manager.add_examples(again.session_id, EXAMPLE)
        assert not manager.mine(again.session_id).cached


class TestAdmissionClassification:
    def test_session_kinds_are_registered(self):
        assert "session" in ENDPOINT_KINDS
        assert "session_control" in ENDPOINT_KINDS
        assert "session_control" in NEVER_SHED_KINDS
        assert "session" not in NEVER_SHED_KINDS

    def test_route_kinds(self, reader):
        manager = SessionManager(reader)
        kinds = {
            endpoint.name: endpoint.kind
            for endpoint in session_routes(manager).endpoints()
        }
        assert kinds["session_mine"] == "session"
        for name in (
            "session_create", "session_get", "session_delete",
            "session_examples", "session_result",
        ):
            assert kinds[name] == "session_control"

    def test_mine_sheds_under_pressure_but_control_never(self):
        policy = AdmissionPolicy(AdmissionLimits(session_concurrency=2))
        crushing = 10_000
        assert policy.shed_probability("session", crushing) == 1.0
        assert policy.shed_probability("session_control", crushing) == 0.0

    def test_controller_tracks_session_kinds(self):
        controller = AdmissionController()
        decision = controller.try_admit("session")
        assert decision.admitted
        assert controller.depth("session") == 1
        controller.release("session")
        assert controller.depth("session") == 0


def _serve(reader, manager) -> tuple[AsyncHTTPFront, str]:
    """A front over ``reader`` whose session surface is ``manager``."""
    routes = serving_routes(reader).merge(session_routes(manager))
    server = AsyncHTTPFront(routes)
    host, port = server.start_background()
    return server, f"http://{host}:{port}"


def _call(base, method, path, doc=None):
    data = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestThreadedFront:
    """The session surface over a caller-owned manager, served from a
    background thread."""

    def test_full_session_round_trip(self, reader):
        manager = SessionManager(reader)
        server, base = _serve(reader, manager)
        try:
            status, doc, _ = _call(
                base, "POST", "/sessions", {"tenant": "acme"}
            )
            assert status == 201
            sid = doc["session_id"]
            status, doc, _ = _call(
                base, "POST", f"/sessions/{sid}/examples",
                {"graphs": EXAMPLE},
            )
            assert (status, doc["examples"]) == (200, 1)
            status, doc, _ = _call(base, "POST", f"/sessions/{sid}/mine", {})
            assert status == 200
            assert doc["op"] == "session_mine"
            assert doc["candidates"] >= 1
            assert doc["patterns"]
            status, again, _ = _call(base, "GET", f"/sessions/{sid}/result")
            assert status == 200
            assert again["patterns"] == doc["patterns"]
            status, doc, _ = _call(base, "GET", f"/sessions/{sid}")
            assert (status, doc["mines"]) == (200, 1)
            status, doc, _ = _call(base, "DELETE", f"/sessions/{sid}")
            assert (status, doc["deleted"]) == (200, True)
            status, _doc, _ = _call(base, "GET", f"/sessions/{sid}")
            assert status == 404
        finally:
            server.shutdown()

    def test_quota_breach_is_429_with_retry_after(self, reader):
        manager = SessionManager(reader, quotas=TenantQuotas(max_sessions=1))
        server, base = _serve(reader, manager)
        try:
            status, _, _ = _call(base, "POST", "/sessions", {"tenant": "t"})
            assert status == 201
            status, doc, headers = _call(
                base, "POST", "/sessions", {"tenant": "t"}
            )
            assert status == 429
            assert doc["retry_after"] > 0
            assert float(headers["Retry-After"]) > 0
        finally:
            server.shutdown()

    def test_result_before_any_mine_is_404(self, reader):
        manager = SessionManager(reader)
        server, base = _serve(reader, manager)
        try:
            _, doc, _ = _call(base, "POST", "/sessions", {})
            sid = doc["session_id"]
            status, doc, _ = _call(base, "GET", f"/sessions/{sid}/result")
            assert status == 404
            assert "no mine result" in doc["error"]
        finally:
            server.shutdown()


class TestAsyncFront:
    def test_full_session_round_trip(self, store_dir):
        from repro.serving.aserver import serve_async

        front, reader = serve_async(store_dir, port=0)
        host, port = front.start_background()
        base = f"http://{host}:{port}"
        try:
            status, doc, _ = _call(
                base, "POST", "/sessions", {"tenant": "async"}
            )
            assert status == 201
            sid = doc["session_id"]
            status, _, _ = _call(
                base, "POST", f"/sessions/{sid}/examples",
                {"graphs": EXAMPLE},
            )
            assert status == 200
            status, doc, _ = _call(base, "POST", f"/sessions/{sid}/mine", {})
            assert status == 200
            assert doc["patterns"]
            status, doc, _ = _call(base, "DELETE", f"/sessions/{sid}")
            assert status == 200
        finally:
            front.stop_background()

    def test_byte_identical_mine_payload_across_fronts(self, store_dir):
        """A caller-owned manager and ``serve_async``'s default one
        answer the same mine with the same payload."""
        from repro.serving.aserver import serve_async

        reader = StoreReader(store_dir)
        manager = SessionManager(reader)
        server, base_threaded = _serve(reader, manager)
        front, _ = serve_async(store_dir, port=0)
        host, port = front.start_background()
        base_async = f"http://{host}:{port}"
        try:
            payloads = []
            for base in (base_threaded, base_async):
                _, doc, _ = _call(base, "POST", "/sessions", {"tenant": "x"})
                sid = doc["session_id"]
                _call(
                    base, "POST", f"/sessions/{sid}/examples",
                    {"graphs": EXAMPLE},
                )
                _, mined, _ = _call(
                    base, "POST", f"/sessions/{sid}/mine", {}
                )
                mined.pop("session_id")
                payloads.append(mined)
            assert payloads[0] == payloads[1]
        finally:
            front.stop_background()
            server.shutdown()


class TestMixedTenantStress:
    """Acceptance criteria: 8 threads of mixed-tenant traffic."""

    THREADS = 8
    ROUNDS = 4

    def test_eight_thread_mixed_tenant_stress(self, reader):
        quotas = TenantQuotas(max_concurrent_mines=1)
        manager = SessionManager(reader, quotas=quotas)
        server, base = _serve(reader, manager)
        results: list[dict] = []
        lock = threading.Lock()
        start_barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            tenant = f"tenant-{index % 4}"
            _, doc, _ = _call(base, "POST", "/sessions", {"tenant": tenant})
            sid = doc["session_id"]
            # Every tenant submits the IDENTICAL example set: a shared
            # cache would hand tenant N tenant 0's warm entry.
            _call(
                base, "POST", f"/sessions/{sid}/examples",
                {"graphs": EXAMPLE},
            )
            start_barrier.wait()
            rows = []
            for _ in range(self.ROUNDS):
                began = time.monotonic()
                status, mined, headers = _call(
                    base, "POST", f"/sessions/{sid}/mine", {}
                )
                rows.append(
                    {
                        "tenant": tenant,
                        "status": status,
                        "cached": mined.get("cached"),
                        "retry_after": headers.get("Retry-After"),
                        "began": began,
                        "latency": time.monotonic() - began,
                    }
                )
            with lock:
                results.extend(rows)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            server.shutdown()
        assert all(not t.is_alive() for t in threads)
        assert len(results) == self.THREADS * self.ROUNDS

        # Every answer is a success or a well-formed shed; never 5xx.
        assert {row["status"] for row in results} <= {200, 429}
        for row in results:
            if row["status"] == 429:
                assert float(row["retry_after"]) > 0

        # No cross-tenant cache hits: every tenant computed its own
        # answer exactly once, even though all tenants mined the
        # IDENTICAL example set.  A shared cache would leave later
        # tenants with zero fresh mines; broken per-tenant keying or a
        # leaky put would show more than one.  (Per-tenant mines are
        # serialized at concurrency 1 and the cache is filled before
        # the slot releases, so a second fresh mine is impossible.)
        for tenant in {row["tenant"] for row in results}:
            mine_results = [
                row for row in results
                if row["tenant"] == tenant and row["status"] == 200
            ]
            assert mine_results, f"{tenant} never completed a mine"
            fresh = sum(
                1 for row in mine_results if row["cached"] is False
            )
            assert fresh == 1, f"{tenant}: {fresh} fresh mines"

        # Structural proof of isolation: every tenant's entry sits in
        # its own cache bucket.
        assert set(manager._cache.tenants()) == {
            f"tenant-{index}" for index in range(4)
        }

        # Latency envelope: quota shedding on one tenant must not
        # stall the others' successful mines.
        worst = max(
            row["latency"] for row in results if row["status"] == 200
        )
        assert worst < 10.0

        # Nothing leaked: all mine slots were released.
        for index in range(4):
            held = manager.accountant.snapshot(f"tenant-{index}")
            assert held["mines"] == 0

    def test_stress_left_no_cross_tenant_state(self, reader):
        # Guard against bucket bleed at the structural level after the
        # behavioral test: a fresh manager's cache starts empty and
        # tenants() reflects only tenants that actually wrote.
        cache = VersionedResultCache()
        cache.put(1, "k", 1, tenant="a")
        cache.put(1, "k", 2, tenant="b")
        assert set(cache.tenants()) == {"a", "b"}
        assert cache.get(1, "k", tenant="a") == 1
        assert cache.get(1, "k", tenant="b") == 2


class TestRouteTableTemplates:
    def test_exact_match_wins(self, reader):
        manager = SessionManager(reader)
        routes = serving_routes(reader).merge(session_routes(manager))
        endpoint, args = routes.match("GET", "/health")
        assert (endpoint.name, args) == ("health", {})

    def test_template_binding(self, reader):
        manager = SessionManager(reader)
        routes = session_routes(manager)
        endpoint, args = routes.match("GET", "/sessions/sess-42")
        assert endpoint.name == "session_get"
        assert args == {"id": "sess-42"}
        endpoint, args = routes.match("POST", "/sessions/sess-42/mine")
        assert (endpoint.name, args["id"]) == ("session_mine", "sess-42")

    def test_no_match(self, reader):
        manager = SessionManager(reader)
        routes = session_routes(manager)
        assert routes.match("GET", "/sessions")[0] is None
        assert routes.match("GET", "/sessions/a/b/c/d")[0] is None
        assert routes.match("GET", "/sessions//mine")[0] is None

    def test_route_table_is_default_constructible(self):
        assert RouteTable().match("GET", "/x") == (None, {})
