"""Scatter-gather router: dispatch, failover, staleness, shard merges.

Replica-pool behaviour is pinned with :class:`LocalReplica` (no
sockets); the HTTP face and the failover path run against real
follower/primary servers.
"""

from __future__ import annotations

import http.server
import json
import shutil
import threading
import urllib.request

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import ReplicationError
from repro.graphs.database import GraphDatabase
from repro.replication import (
    HTTPReplica,
    LocalReplica,
    QueryRouter,
    RouterOptions,
    RouterService,
    StaleReplicasError,
)
from repro.replication.router import QueryRejected
from repro.serving import StoreReader
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.test_replication_shipper import ADD_ONE, _mine_store, _request

GENERAL = "t # 0\nv 0 a\nv 1 a\ne 0 1 x\n"


@pytest.fixture
def store(tmp_path):
    return _mine_store(tmp_path)


def _replicas(tmp_path, store, n):
    dirs = [store]
    for i in range(1, n):
        copy = tmp_path / f"copy{i}"
        shutil.copytree(store, copy)
        dirs.append(copy)
    return [LocalReplica(d, name=f"r{i}") for i, d in enumerate(dirs)]


class TestReplicatedDispatch:
    def test_answers_match_direct_reader(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 3))
        reader = StoreReader(store)
        for op in ("support", "contains", "graphs", "specializations"):
            routed = router.query(op, GENERAL)
            direct = reader.query(op, reader.parse_pattern(GENERAL))
            from repro.serving import value_payload

            assert routed["value"] == value_payload(
                reader, op, direct.value
            )
        routed = router.query("top_k", k=2)
        direct = reader.query("top_k", None, k=2)
        from repro.serving import value_payload

        assert routed["value"] == value_payload(
            reader, "top_k", direct.value
        )
        router.close()

    def test_round_robin_spreads_load(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 3))
        served = [router.query("support", GENERAL)["replica"]
                  for _ in range(6)]
        assert set(served) == {"r0", "r1", "r2"}
        router.close()

    def test_unknown_op_rejected_without_eviction(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 2))
        with pytest.raises(QueryRejected):
            router.query("explode", GENERAL)
        with pytest.raises(QueryRejected, match="unknown record type"):
            router.query("support", "not a graph")
        assert router.metrics.counter("replication.router_evictions") == 0
        assert all(s["up"] for s in router.replica_states())
        router.close()

    def test_dead_replica_evicted_and_failed_over(self, tmp_path, store):
        class Dead:
            name = "dead"

            def health(self):
                raise OSError("connection refused")

            def query(self, *args, **kwargs):
                raise OSError("connection refused")

        replicas = [Dead(), *_replicas(tmp_path, store, 1)]
        router = QueryRouter(
            replicas, options=RouterOptions(health_max_age_seconds=0.0)
        )
        for _ in range(3):
            answer = router.query("support", GENERAL)
            assert answer["replica"] == "r0"
        assert router.metrics.counter("replication.router_evictions") >= 1
        states = {s["replica"]: s for s in router.replica_states()}
        assert states["dead"]["up"] is False
        assert states["r0"]["up"] is True
        router.close()

    def test_all_replicas_down_is_an_error(self):
        class Dead:
            name = "dead"

            def health(self):
                raise OSError("nope")

            def query(self, *args, **kwargs):
                raise OSError("nope")

        router = QueryRouter([Dead()])
        with pytest.raises(ReplicationError, match="healthy"):
            router.query("support", GENERAL)
        router.close()


class TestStaleness:
    def test_min_applied_seq_gates_dispatch(self, tmp_path, store):
        # A freshly mined store has no applied offset (-1): any
        # min_applied_seq >= 0 must shed rather than serve stale data.
        router = QueryRouter(_replicas(tmp_path, store, 2))
        router.query("support", GENERAL, min_applied_seq=-1)
        with pytest.raises(StaleReplicasError) as info:
            router.query("support", GENERAL, min_applied_seq=0)
        assert info.value.retry_after == 1
        assert router.metrics.counter(
            "replication.router_shed_stale"
        ) == 1
        router.close()

    def test_max_staleness_excludes_laggards(self, tmp_path, store):
        """With a fleet-relative bound, only replicas near the freshest
        applied offset serve."""
        from repro.incremental import PatternStore

        fresh_dir = tmp_path / "fresh"
        shutil.copytree(store, fresh_dir)
        fresh = PatternStore.open(fresh_dir)
        fresh.app_state["wal_applied_seq"] = 100
        fresh.save()
        replicas = [
            LocalReplica(store, name="laggard"),  # applied -1
            LocalReplica(fresh_dir, name="fresh"),  # applied 100
        ]
        router = QueryRouter(
            replicas, options=RouterOptions(max_staleness=10)
        )
        for _ in range(4):
            assert router.query("support", GENERAL)["replica"] == "fresh"
        router.close()


class TestShardedDispatch:
    @staticmethod
    def _sharded_stores(tmp_path):
        """One global store vs two stores mined over halves of the
        database, in shard order."""
        taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})

        def build(names, out):
            db = GraphDatabase(node_labels=taxonomy.interner)
            for name in names:
                db.new_graph(["b", "c"], [(0, 1, name)])
            Taxogram(
                TaxogramOptions(min_support=0.25, store_out=str(out))
            ).mine(db, taxonomy)

        names = ["x", "y", "x", "y", "x", "x"]
        build(names, tmp_path / "global")
        build(names[:3], tmp_path / "shard0")
        build(names[3:], tmp_path / "shard1")
        return tmp_path / "global", [
            tmp_path / "shard0", tmp_path / "shard1"
        ]

    def test_support_and_graphs_merge_exactly(self, tmp_path):
        global_dir, shard_dirs = self._sharded_stores(tmp_path)
        router = QueryRouter(
            [LocalReplica(d, name=d.name) for d in shard_dirs],
            options=RouterOptions(sharded=True),
        )
        reader = StoreReader(global_dir)
        for pattern in (GENERAL, ADD_ONE, "t # 0\nv 0 b\nv 1 c\ne 0 1 y\n"):
            routed = router.query("support", pattern)
            direct = reader.query(
                "support", reader.parse_pattern(pattern)
            )
            assert routed["value"] == direct.value
            assert routed["sharded"] is True and routed["shards"] == 2
            graphs = router.query("graphs", pattern)
            assert graphs["value"]["support"] == direct.value
            assert graphs["value"]["graph_ids"] == sorted(
                reader.query(
                    "graphs", reader.parse_pattern(pattern)
                ).value.graph_ids
            )
        router.close()

    def test_global_only_ops_refused(self, tmp_path):
        _global_dir, shard_dirs = self._sharded_stores(tmp_path)
        router = QueryRouter(
            [LocalReplica(d) for d in shard_dirs],
            options=RouterOptions(sharded=True),
        )
        for op in ("contains", "specializations", "top_k"):
            with pytest.raises(QueryRejected, match="shard"):
                router.query(op, GENERAL)
        with pytest.raises(QueryRejected, match="min_applied_seq"):
            router.query("support", GENERAL, min_applied_seq=0)
        router.close()

    def test_missing_shard_fails_the_answer(self, tmp_path):
        _global_dir, shard_dirs = self._sharded_stores(tmp_path)

        class Dead:
            name = "shard1"

            def health(self):
                raise OSError("gone")

            def query(self, *args, **kwargs):
                raise OSError("gone")

        router = QueryRouter(
            [LocalReplica(shard_dirs[0]), Dead()],
            options=RouterOptions(sharded=True),
        )
        with pytest.raises(ReplicationError, match="every shard"):
            router.query("support", GENERAL)
        router.close()


class TestRouterHTTP:
    @pytest.fixture
    def routed(self, tmp_path, store):
        service = RouterService(_replicas(tmp_path, store, 2), port=0)
        thread = threading.Thread(
            target=service.serve_forever, daemon=True
        )
        thread.start()
        host, port = service.address
        try:
            yield f"http://{host}:{port}"
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()

    def test_query_and_top_roundtrip(self, routed, store):
        status, body, _ = _request(
            routed, "/query", {"op": "support", "pattern": GENERAL}
        )
        assert status == 200
        doc = json.loads(body)
        reader = StoreReader(store)
        assert doc["value"] == reader.query(
            "support", reader.parse_pattern(GENERAL)
        ).value
        status, body, _ = _request(routed, "/top?k=2")
        assert status == 200
        assert len(json.loads(body)["value"]) <= 2

    def test_staleness_sheds_with_retry_after(self, routed):
        req = urllib.request.Request(
            routed + "/query",
            json.dumps(
                {
                    "op": "support",
                    "pattern": GENERAL,
                    "min_applied_seq": 5,
                }
            ).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 429
        assert info.value.headers["Retry-After"] == "1"

    def test_bad_pattern_is_400(self, routed):
        status, body, _ = _request(
            routed, "/query", {"op": "support", "pattern": "garbage"}
        )
        assert status == 400

    def test_health_lists_replicas(self, routed):
        status, body, _ = _request(routed, "/health")
        doc = json.loads(body)
        assert doc["role"] == "router"
        assert doc["mode"] == "replicated"
        assert [r["replica"] for r in doc["replicas"]] == ["r0", "r1"]
        assert all(r["up"] for r in doc["replicas"])
        status, body, _ = _request(routed, "/metrics")
        assert status == 200

    def test_partitioned_follower_evicted_router_keeps_answering(
        self, tmp_path
    ):
        """Kill one of two live follower servers; the router evicts it
        and keeps serving exact answers from the survivor."""
        import urllib.error

        from repro.replication import FollowerOptions, FollowerService
        from repro.streaming import ApplierOptions
        from tests.test_replication_follower import _unapplied_primary

        p_service, url, p_thread = _unapplied_primary(tmp_path, 2)
        followers = []
        threads = []
        try:
            for i in range(2):
                fsvc = FollowerService(
                    tmp_path / f"replica{i}",
                    tmp_path / f"rwal{i}",
                    url,
                    port=0,
                    options=FollowerOptions(poll_interval_seconds=0.02),
                    applier_options=ApplierOptions(
                        max_latency_seconds=0.02
                    ),
                )
                fsvc.follower.catch_up(timeout=30)
                thread = threading.Thread(
                    target=fsvc.serve_forever, daemon=True
                )
                thread.start()
                followers.append(fsvc)
                threads.append(thread)
            urls = [
                f"http://{f.address[0]}:{f.address[1]}" for f in followers
            ]
            router = QueryRouter(
                [HTTPReplica(u, timeout=2.0) for u in urls],
                options=RouterOptions(
                    health_max_age_seconds=0.0, eviction_seconds=60.0
                ),
            )
            before = router.query("support", GENERAL)["value"]
            # Partition follower 0 away entirely.
            followers[0].server.shutdown()
            followers[0].server.server_close()
            threads[0].join(timeout=10)
            for _ in range(4):
                answer = router.query("support", GENERAL)
                assert answer["value"] == before
                assert answer["replica"] == urls[1]
            assert router.metrics.counter(
                "replication.router_evictions"
            ) >= 1
            router.close()
        finally:
            for fsvc, thread in zip(followers, threads):
                try:
                    fsvc.server.shutdown()
                except Exception:
                    pass
                thread.join(timeout=5)
                fsvc.close()
            p_service.server.shutdown()
            p_thread.join(timeout=10)
            p_service.close()


_FOLLOWER_SERVER = """
import sys
from repro.replication import FollowerOptions, FollowerService
from repro.streaming import ApplierOptions

store_dir, wal_dir, url = sys.argv[1], sys.argv[2], sys.argv[3]
service = FollowerService(
    store_dir, wal_dir, url, port=int(sys.argv[4]),
    options=FollowerOptions(poll_interval_seconds=0.02, fetch_max_bytes=64),
    applier_options=ApplierOptions(max_batch_records=1),
)
service.start()
print("PORT", service.address[1], flush=True)
service.serve_forever()
"""


@pytest.mark.slow
def test_router_survives_sigkilled_follower_and_rejoin(tmp_path):
    """Nightly failover drill: two follower server subprocesses behind a
    router; one is SIGKILLed mid-replay.  The router must evict it and
    keep answering from the survivor; a restarted follower must recover
    its half-applied store and serve again."""
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    from tests.test_replication_follower import _unapplied_primary

    p_service, url, p_thread = _unapplied_primary(tmp_path, 8)
    worker = tmp_path / "follower_server.py"
    worker.write_text(_FOLLOWER_SERVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def spawn(i, port=0):
        proc = subprocess.Popen(
            [sys.executable, "-u", str(worker),
             str(tmp_path / f"replica{i}"), str(tmp_path / f"rwal{i}"),
             url, str(port)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        banner = proc.stdout.readline().decode()
        assert banner.startswith("PORT"), (
            banner + proc.stderr.read().decode()
        )
        return proc, int(banner.split()[1])

    procs = []
    try:
        (proc0, port0) = spawn(0)
        (proc1, port1) = spawn(1)
        procs = [proc0, proc1]
        urls = [f"http://127.0.0.1:{port0}", f"http://127.0.0.1:{port1}"]
        router = QueryRouter(
            [HTTPReplica(u, timeout=2.0) for u in urls],
            options=RouterOptions(
                health_max_age_seconds=0.0, eviction_seconds=0.2
            ),
        )
        expected = router.query("support", GENERAL)["value"]
        # Kill follower 0 mid-replay (1-record batches + tiny fetches
        # mean it is almost certainly inside the sync/apply loop).
        proc0.kill()
        proc0.wait()
        for _ in range(6):
            answer = router.query("support", GENERAL)
            assert answer["replica"] == urls[1]
            assert answer["value"] >= expected
        assert router.metrics.counter("replication.router_evictions") >= 1
        # Restart on the same port: recovery must settle the killed
        # replica's store and the router must route to it again.
        (proc0, _port) = spawn(0, port=port0)
        procs[0] = proc0
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            time.sleep(0.3)
            served = {
                router.query("support", GENERAL)["replica"]
                for _ in range(4)
            }
            if urls[0] in served:
                break
        else:
            pytest.fail("restarted follower never rejoined the pool")
        router.close()
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
        p_service.server.shutdown()
        p_thread.join(timeout=10)
        p_service.close()


class TestEvictionBackoff:
    """A flapping replica must not cost one probe per eviction window
    forever: consecutive failures double the down window up to
    ``eviction_backoff_cap``, and a single healthy answer resets the
    streak.  Driven with explicit clock values — no sleeps."""

    class _Flapper:
        name = "flapper"

        def __init__(self):
            self.broken = True

        def health(self):
            if self.broken:
                raise OSError("connection refused")
            return {"applied_seq": 0, "store_version": 1}

        def query(self, *args, **kwargs):
            raise OSError("connection refused")

    def _router(self, **options):
        flapper = self._Flapper()
        router = QueryRouter(
            [flapper],
            options=RouterOptions(
                health_max_age_seconds=0.0,
                eviction_seconds=2.0,
                **options,
            ),
        )
        return router, flapper, router._states[0]

    def test_down_window_doubles_up_to_the_cap(self):
        router, _flapper, state = self._router(eviction_backoff_cap=8.0)
        now = 0.0
        for expected in (1.0, 2.0, 4.0, 8.0, 8.0, 8.0):
            now = max(now, state.down_until)
            router._refresh_health(state, now)
            assert state.down_until - now == pytest.approx(
                2.0 * expected
            )
        router.close()

    def test_one_healthy_answer_resets_the_streak(self):
        router, flapper, state = self._router(eviction_backoff_cap=8.0)
        now = 0.0
        for _ in range(4):
            now = max(now, state.down_until)
            router._refresh_health(state, now)
        assert state.failures == 4
        flapper.broken = False
        now = state.down_until
        router._refresh_health(state, now)
        assert state.failures == 0
        assert state.up(now)
        # The next outage starts the ladder over at 1x.
        flapper.broken = True
        state.health_at = float("-inf")
        router._refresh_health(state, now)
        assert state.down_until - now == pytest.approx(2.0)
        router.close()

    def test_cap_of_one_disables_the_ladder(self):
        router, _flapper, state = self._router(eviction_backoff_cap=1.0)
        now = 0.0
        for _ in range(5):
            now = max(now, state.down_until)
            router._refresh_health(state, now)
            assert state.down_until - now == pytest.approx(2.0)
        router.close()

    def test_flapping_follower_readmitted_live(self, tmp_path, store):
        """Public-path version: evictions during query() while a healthy
        replica keeps serving, then recovery re-admits the flapper."""
        from tests.conftest import wait_until

        healthy = _replicas(tmp_path, store, 1)[0]
        flapper_reader = LocalReplica(store, name="flappy")

        class GatedReplica:
            name = "flappy"

            def __init__(self):
                self.broken = True

            def health(self):
                if self.broken:
                    raise OSError("connection refused")
                return flapper_reader.health()

            def query(self, *args, **kwargs):
                if self.broken:
                    raise OSError("connection refused")
                return flapper_reader.query(*args, **kwargs)

        gated = GatedReplica()
        router = QueryRouter(
            [gated, healthy],
            options=RouterOptions(
                health_max_age_seconds=0.0, eviction_seconds=0.05
            ),
        )
        try:
            for _ in range(4):
                assert router.query("support", GENERAL)["replica"] == "r0"
            assert (
                router.metrics.counter("replication.router_evictions") >= 1
            )
            gated.broken = False

            def flapper_serves():
                return any(
                    router.query("support", GENERAL)["replica"] == "flappy"
                    for _ in range(4)
                )

            wait_until(
                flapper_serves,
                interval=0.05,
                message="recovered replica to rejoin the pool",
            )
        finally:
            router.close()


class TestSessionPinning:
    """Interactive sessions are replica-local state: the router pins a
    session to the replica that created it and keeps every request of
    that session on the same replica for its whole lifetime."""

    EXAMPLE = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"

    def _create(self, router, tenant="acme"):
        status, payload, _ = router.session_request(
            "POST", "/sessions", json.dumps({"tenant": tenant}).encode()
        )
        assert status == 201
        return payload

    def test_session_sticks_to_its_replica_for_life(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 3))
        try:
            payload = self._create(router)
            sid, home = payload["session_id"], payload["replica"]
            assert router.session_pins() == {sid: home}
            # Round-robin would spread these over r0..r2; the pin
            # must hold them all on the creating replica.
            for _ in range(3):
                status, doc, _ = router.session_request(
                    "POST",
                    f"/sessions/{sid}/examples",
                    json.dumps({"graphs": self.EXAMPLE}).encode(),
                )
                assert (status, doc["replica"]) == (200, home)
            status, doc, _ = router.session_request(
                "POST", f"/sessions/{sid}/mine", b"{}"
            )
            assert (status, doc["replica"]) == (200, home)
            assert doc["patterns"]
            status, doc, _ = router.session_request(
                "GET", f"/sessions/{sid}"
            )
            assert (status, doc["replica"]) == (200, home)
            assert router.metrics.counter(
                "replication.router_session_forwards"
            ) == 6
        finally:
            router.close()

    def test_new_sessions_round_robin_across_replicas(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 3))
        try:
            homes = {self._create(router)["replica"] for _ in range(6)}
            assert homes == {"r0", "r1", "r2"}
            assert len(router.session_pins()) == 6
        finally:
            router.close()

    def test_delete_unpins(self, tmp_path, store):
        router = QueryRouter(_replicas(tmp_path, store, 2))
        try:
            sid = self._create(router)["session_id"]
            status, doc, _ = router.session_request(
                "DELETE", f"/sessions/{sid}"
            )
            assert (status, doc["deleted"]) == (200, True)
            assert router.session_pins() == {}
            # The session is gone fleet-wide, whatever replica answers.
            status, _doc, _ = router.session_request(
                "GET", f"/sessions/{sid}"
            )
            assert status == 404
        finally:
            router.close()

    class _Mortal:
        """A LocalReplica that can drop dead on command."""

        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name
            self.dead = False

        def _check(self):
            if self.dead:
                raise OSError("connection refused")

        def health(self):
            self._check()
            return self.inner.health()

        def query(self, *args, **kwargs):
            self._check()
            return self.inner.query(*args, **kwargs)

        def request(self, *args, **kwargs):
            self._check()
            return self.inner.request(*args, **kwargs)

    def test_dead_pinned_replica_drops_pin_and_404s(self, tmp_path, store):
        replicas = [
            self._Mortal(replica)
            for replica in _replicas(tmp_path, store, 2)
        ]
        router = QueryRouter(
            replicas, options=RouterOptions(health_max_age_seconds=0.0)
        )
        try:
            payload = self._create(router)
            sid, home = payload["session_id"], payload["replica"]
            next(r for r in replicas if r.name == home).dead = True
            # The pin's replica is detected down via health refresh:
            # the pin is dropped and the request falls through to a
            # healthy replica, which faithfully answers 404 — the
            # session's scratch state died with its replica.
            status, _doc, _ = router.session_request(
                "GET", f"/sessions/{sid}"
            )
            assert status == 404
            assert router.session_pins() == {}
            assert router.metrics.counter(
                "replication.router_session_repins"
            ) == 1
            # A fresh session lands on the survivor and works.
            payload = self._create(router)
            assert payload["replica"] != home
        finally:
            router.close()

    def test_sharded_mode_refuses_sessions(self, tmp_path, store):
        router = QueryRouter(
            _replicas(tmp_path, store, 2),
            options=RouterOptions(sharded=True),
        )
        try:
            with pytest.raises(QueryRejected, match="session"):
                router.session_request("POST", "/sessions", b"{}")
        finally:
            router.close()

    def test_http_front_round_trip_and_health_pins(self, tmp_path, store):
        service = RouterService(_replicas(tmp_path, store, 2), port=0)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        host, port = service.address
        base = f"http://{host}:{port}"
        try:
            status, body, _ = _request(base, "/sessions", {"tenant": "http"})
            assert status == 201
            doc = json.loads(body)
            sid, home = doc["session_id"], doc["replica"]
            status, body, _ = _request(
                base, f"/sessions/{sid}/examples", {"graphs": self.EXAMPLE}
            )
            assert status == 200
            status, body, _ = _request(base, f"/sessions/{sid}/mine", {})
            assert status == 200
            doc = json.loads(body)
            assert doc["replica"] == home
            assert doc["patterns"]
            status, body, _ = _request(base, "/health")
            assert json.loads(body)["session_pins"] == {sid: home}
            request = urllib.request.Request(
                base + f"/sessions/{sid}", method="DELETE"
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            status, body, _ = _request(base, "/health")
            assert json.loads(body)["session_pins"] == {}
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()


class TestRouterAdmission:
    """The router runs on the same HTTP front as its replicas: a
    replica's 429 is load shedding, not death, and the router's own
    admission control sheds while its control endpoints stay up."""

    @staticmethod
    def _tight_admission():
        from repro.serving.admission import (
            AdmissionController,
            AdmissionLimits,
            AdmissionPolicy,
        )

        limits = AdmissionLimits(query_concurrency=1, queue_factor=2.0)
        return limits, AdmissionController(AdmissionPolicy(limits))

    def test_replica_429_is_relayed_without_eviction(self, store):
        from repro.serving import serve_async

        limits, controller = self._tight_admission()
        replica, _reader = serve_async(store, admission=controller)
        host, port = replica.start_background()
        service = RouterService([HTTPReplica(f"http://{host}:{port}")])
        rhost, rport = service.server.start_background()
        routed = f"http://{rhost}:{rport}"
        query = {"op": "support", "pattern": GENERAL}
        # Hold the replica's query queue at its bound: every further
        # query sheds with probability 1.
        held = limits.queue_limit("query")
        for _ in range(held):
            assert controller.try_admit("query").admitted
        try:
            status, body, headers = _request(routed, "/query", query)
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "shed" in json.loads(body)["error"]
            assert service.metrics.counter(
                "replication.router_evictions"
            ) == 0
            assert service.metrics.counter(
                "replication.router_replica_sheds"
            ) == 1
            assert all(s["up"] for s in service.router.replica_states())
            for _ in range(held):
                controller.release("query")
            held = 0
            status, body, _ = _request(routed, "/query", query)
            assert status == 200
            assert json.loads(body)["replica"] == f"http://{host}:{port}"
        finally:
            for _ in range(held):
                controller.release("query")
            service.server.stop_background()
            service.close()
            replica.stop_background()

    def test_router_overload_sheds_while_control_answers(self):
        from tests.conftest import wait_until

        release = threading.Event()

        class Blocking:
            name = "blocking"

            def health(self):
                return {"status": "ok", "applied_seq": 0}

            def query(self, op, pattern=None, **kwargs):
                release.wait(timeout=30)
                return {"op": op, "store_version": 1, "value": 1}

        limits, admission = self._tight_admission()
        service = RouterService([Blocking()], admission=admission)
        host, port = service.server.start_background()
        url = f"http://{host}:{port}"
        results = []
        lock = threading.Lock()

        def hit():
            status, _body, headers = _request(
                url, "/query", {"op": "support", "pattern": GENERAL}
            )
            with lock:
                results.append((status, headers))

        threads = [
            threading.Thread(target=hit, daemon=True) for _ in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            wait_until(
                lambda: any(status == 429 for status, _ in results),
                message="the router to shed a query",
            )
            assert _request(url, "/health")[0] == 200
            assert _request(url, "/metrics")[0] == 200
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=30)
        try:
            statuses = [status for status, _ in results]
            assert len(statuses) == 8
            assert set(statuses) <= {200, 429}
            assert statuses.count(200) >= 1
            for status, headers in results:
                if status == 429:
                    retry_after = float(headers["Retry-After"])
                    assert 0.0 < retry_after <= limits.retry_after_max
            wait_until(
                lambda: not any(
                    admission.snapshot()["inflight"].values()
                ),
                message="the router's in-flight counts to drain",
            )
        finally:
            service.server.stop_background()
            service.close()


class _TruncatingHandler(http.server.BaseHTTPRequestHandler):
    """Answers ``/health`` and cuts every other answer short:
    ``Content-Length: 500``, then 10 body bytes, then close."""

    def _answer(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        body = json.dumps({"status": "ok", "applied_seq": 0}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if self.path == "/health":
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_header("Content-Length", "500")
            self.end_headers()
            self.wfile.write(body[:10])
        self.close_connection = True

    do_GET = do_POST = _answer

    def log_message(self, *args) -> None:
        pass


class TestTruncatedAnswer:
    """A replica that cuts its answer short failed in transport: the
    router evicts it and retries elsewhere, never answering 500."""

    @pytest.fixture
    def truncating(self):
        server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), _TruncatingHandler
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_evicts_and_retries_on_the_next_replica(
        self, truncating, store
    ):
        router = QueryRouter(
            [
                HTTPReplica(truncating, timeout=5.0),
                LocalReplica(store, name="healthy"),
            ],
            options=RouterOptions(eviction_seconds=60.0),
        )
        try:
            answer = router.query("support", GENERAL)
        finally:
            router.close()
        reader = StoreReader(store)
        assert answer["replica"] == "healthy"
        assert answer["value"] == reader.support(
            reader.parse_pattern(GENERAL)
        )
        assert router.metrics.counter("replication.router_evictions") == 1
        assert router.metrics.counter("replication.router_retries") == 1

    def test_lone_truncating_replica_is_503(self, truncating):
        service = RouterService([HTTPReplica(truncating, timeout=5.0)])
        host, port = service.server.start_background()
        try:
            status, body, _ = _request(
                f"http://{host}:{port}", "/query",
                {"op": "support", "pattern": GENERAL},
            )
        finally:
            service.server.stop_background()
            service.close()
        assert status == 503
        assert "broken answer" in json.loads(body)["error"]
        assert service.metrics.counter("replication.router_evictions") == 1


class TestKeepAlive:
    """:class:`HTTPReplica` reuses its connections; a connection the
    replica closed while idle is retried once, without eviction."""

    @pytest.fixture
    def replica(self, store):
        from repro.serving import serve_async

        front, _reader = serve_async(store)
        host, port = front.start_background()
        try:
            yield f"http://{host}:{port}"
        finally:
            front.stop_background()

    def test_sequential_queries_share_one_connection(self, replica, store):
        reader = StoreReader(store)
        expected = reader.support(reader.parse_pattern(GENERAL))
        router = QueryRouter([HTTPReplica(replica)])
        try:
            for _ in range(50):
                assert router.query("support", GENERAL)["value"] == expected
        finally:
            router.close()
        assert router.metrics.counter(
            "replication.router_connections_opened"
        ) == 1

    def test_replica_restart_reconnects_without_eviction(self, store):
        import time

        from repro.serving import serve_async

        front, _reader = serve_async(store)
        host, port = front.start_background()
        router = QueryRouter([HTTPReplica(f"http://{host}:{port}")])
        try:
            assert router.query("support", GENERAL)["value"] >= 1
            assert router.metrics.counter(
                "replication.router_connections_opened"
            ) == 1
            # The router's idle connection must not hold up shutdown.
            started = time.monotonic()
            front.stop_background()
            assert time.monotonic() - started < 4.0
            front, _reader = serve_async(store, port=port)
            front.start_background()
            answer = router.query("support", GENERAL)
            assert answer["replica"] == f"http://{host}:{port}"
            assert router.metrics.counter(
                "replication.router_evictions"
            ) == 0
            assert router.metrics.counter(
                "replication.router_connections_opened"
            ) == 2
        finally:
            router.close()
            front.stop_background()

    def test_concurrent_callers_share_the_pool(self, replica, store):
        """More callers than cores hammer one replica: every connection
        opened comes back to the pool exactly once."""
        import sys

        reader = StoreReader(store)
        expected = reader.support(reader.parse_pattern(GENERAL))
        http_replica = HTTPReplica(replica)
        router = QueryRouter([http_replica])
        answers = []
        lock = threading.Lock()

        def hammer():
            for _ in range(15):
                value = router.query("support", GENERAL)["value"]
                with lock:
                    answers.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        idle = list(http_replica._idle)
        opened = router.metrics.counter(
            "replication.router_connections_opened"
        )
        router.close()
        assert answers == [expected] * 120
        assert 1 <= opened <= 8
        assert len(idle) == opened
        assert len({id(connection) for connection in idle}) == opened

    def test_close_and_eviction_drop_idle_connections(self, replica):
        import time

        http_replica = HTTPReplica(replica)
        router = QueryRouter([http_replica])
        router.query("support", GENERAL)
        idle = list(http_replica._idle)
        assert len(idle) == 1 and idle[0].sock is not None
        router.close()
        assert http_replica._idle == []
        assert idle[0].sock is None
        router = QueryRouter([http_replica])
        router.query("support", GENERAL)
        idle = list(http_replica._idle)
        router._evict(router._states[0], time.monotonic(), "test")
        assert http_replica._idle == []
        assert idle[0].sock is None
        router.close()
