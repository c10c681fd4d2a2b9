"""Chaos under load: fault injection against real process trees.

The bounded applier-crash test runs in tier-1 (one SIGKILL + restart,
fixed seed, ~10s wall).  The wider sweeps — fsync stalls, follower
kills behind a router, torn WAL tails, a router overloaded past its
admission limits — are ``chaos``-marked and run
with ``RUN_CHAOS=1`` (the CI chaos job); the randomized sweep is
``slow``-marked for the nightly.

Every scenario asserts the same three invariants the harness exists
for: no acked write is ever lost, versions served to one client never
move backwards, and error rates stay inside the declared backpressure
envelope.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs.database import GraphDatabase
from repro.graphs.io import write_graph_database
from repro.loadtest import (
    Envelope,
    FaultInjector,
    LoadOptions,
    LoadRunner,
    build_plan,
    verify_no_lost_acks,
    verify_version_monotonic,
)
from repro.loadtest.cluster import (
    spawn_follower,
    spawn_ingest,
    spawn_router,
)
from repro.loadtest.faults import (
    FaultEvent,
    append_torn_frame,
    disk_full,
    kill_and_restart,
    seeded_scenario_plan,
    stall_fsync,
    truncate_segment,
)
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.endpoints import Endpoint, RouteTable
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.taxonomy.io import write_taxonomy
from tests.conftest import wait_until

ADD = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"
PATTERN = "t # 0\nv 0 a\nv 1 a\ne 0 1 x\n"


def _mined_store(tmp_path: Path) -> Path:
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a"})
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in ["x", "x", "y"]:
        db.new_graph(["b", "c"], [(0, 1, name)])
    write_taxonomy(taxonomy, str(tmp_path / "tax.txt"))
    write_graph_database(db, str(tmp_path / "db.graphs"))
    store = tmp_path / "store"
    assert main(
        ["mine", str(tmp_path / "db.graphs"), str(tmp_path / "tax.txt"),
         "--support", "0.4", "--store-out", str(store)]
    ) == 0
    return store


def _record(name: str, report, **extra) -> None:
    """Append the run's latency report to ``REPRO_BENCH_JSON_DIR`` (the
    CI chaos job uploads these as artifacts); no-op when unset."""
    bench_dir = os.environ.get("REPRO_BENCH_JSON_DIR")
    if not bench_dir:
        return
    Path(bench_dir).mkdir(parents=True, exist_ok=True)
    path = Path(bench_dir) / "BENCH_chaos.json"
    points = json.loads(path.read_text()) if path.exists() else []
    doc = report.as_dict()
    doc["scenario"] = name
    doc.update(extra)
    points.append(doc)
    path.write_text(json.dumps(points, indent=2, sort_keys=True) + "\n")


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _post(url: str, doc: dict) -> dict:
    request = urllib.request.Request(
        url,
        json.dumps(doc).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestApplierCrashUnderLoad:
    """Tier-1 bounded drill: SIGKILL the serving ingester mid-run."""

    def test_sigkill_mid_run_loses_no_acked_write(self, tmp_path):
        store = _mined_store(tmp_path)
        process = spawn_ingest(store, tmp_path / "wal", cwd=tmp_path)
        process.start()
        try:
            options = LoadOptions(
                duration_seconds=4.0, rate=25.0, seed=7, workers=4
            )
            plan = build_plan(options, [PATTERN], [ADD])
            injector = FaultInjector([
                FaultEvent(
                    2.0, "kill_applier",
                    lambda: kill_and_restart(process),
                )
            ])
            injector.start()
            try:
                report = LoadRunner(process.url, plan, workers=4).run()
            finally:
                injector.join()
            assert injector.fired == ["kill_applier"]
            assert injector.errors == []
            # Requests in flight across the kill fail at the socket;
            # everything else must be clean.
            Envelope(max_transport_fraction=0.75).check(report)
            assert report.counts["ok"] > 0
            verify_no_lost_acks(process.url, report)
            verify_version_monotonic(report)
            _record("applier-sigkill", report, seed=options.seed)
        finally:
            process.terminate()


@pytest.mark.chaos
class TestChaosSweeps:
    def test_fsync_stall_sheds_but_loses_nothing(self, tmp_path):
        store = _mined_store(tmp_path)
        faultpoints = tmp_path / "faultpoints.json"
        stall_fsync(faultpoints, 0)
        process = spawn_ingest(
            store, tmp_path / "wal", cwd=tmp_path, max_lag=8,
            env={"REPRO_FAULTPOINTS_FILE": str(faultpoints)},
        )
        process.start()
        try:
            options = LoadOptions(
                duration_seconds=5.0, rate=40.0, seed=11, workers=6,
                wait_fraction=0.0,
            )
            plan = build_plan(options, [PATTERN], [ADD])
            injector = FaultInjector([
                FaultEvent(
                    1.0, "stall_fsync",
                    lambda: stall_fsync(faultpoints, 200),
                ),
                FaultEvent(
                    3.5, "clear_stall",
                    lambda: stall_fsync(faultpoints, 0),
                ),
            ])
            injector.start()
            try:
                report = LoadRunner(process.url, plan, workers=6).run()
            finally:
                injector.join()
            assert injector.errors == []
            # Stalled fsyncs slow acks and push lag over the bound, so
            # sheds are expected — errors and losses are not.
            Envelope().check(report)
            verify_no_lost_acks(process.url, report)
            verify_version_monotonic(report)
            _record("fsync-stall", report, seed=options.seed)
        finally:
            process.terminate()

    def test_follower_kill_behind_router_and_rejoin(self, tmp_path):
        store = _mined_store(tmp_path)
        primary = spawn_ingest(
            store, tmp_path / "wal", cwd=tmp_path,
            publish=True, secret="hush",
        )
        followers = []
        router = None
        primary.start()
        try:
            for index in (1, 2):
                follower = spawn_follower(
                    tmp_path / f"replica{index}",
                    tmp_path / f"fwal{index}",
                    primary.url, cwd=tmp_path, secret="hush",
                )
                follower.start()
                followers.append(follower)
            router = spawn_router(
                [f.url for f in followers], cwd=tmp_path
            )
            router.start()
            applied = _post(
                primary.url + "/ingest", {"add": ADD, "wait": True}
            )
            for follower in followers:
                wait_until(
                    lambda f=follower: _get(f.url + "/health")[
                        "applied_seq"
                    ] >= applied["seq"],
                    message="follower catch-up",
                )

            options = LoadOptions(
                duration_seconds=4.0, rate=40.0, seed=13, workers=4
            )
            plan = build_plan(options, [PATTERN], [])  # query-only
            injector = FaultInjector([
                FaultEvent(1.5, "kill_follower", followers[0].sigkill)
            ])
            injector.start()
            try:
                report = LoadRunner(router.url, plan, workers=4).run()
            finally:
                injector.join()
            assert injector.errors == []
            # The router evicts the corpse and fails over; a handful of
            # in-flight queries may land on the dying socket.
            Envelope(
                max_server_error_fraction=0.25,
                max_transport_fraction=0.25,
            ).check(report)
            assert report.counts["ok"] > report.total / 2
            verify_version_monotonic(report)
            _record("follower-kill", report, seed=options.seed)

            followers[0].restart()
            wait_until(
                lambda: all(
                    state["up"]
                    for state in _get(router.url + "/health")["replicas"]
                ),
                interval=0.2,
                message="restarted follower to rejoin the router pool",
            )
        finally:
            if router is not None:
                router.terminate()
            for follower in followers:
                follower.terminate()
            primary.terminate()

    def test_torn_follower_wal_tail_repairs_on_restart(self, tmp_path):
        store = _mined_store(tmp_path)
        primary = spawn_ingest(
            store, tmp_path / "wal", cwd=tmp_path,
            publish=True, secret="hush",
        )
        primary.start()
        follower = None
        try:
            for _ in range(3):
                _post(primary.url + "/ingest", {"add": ADD, "wait": True})
            follower = spawn_follower(
                tmp_path / "replica", tmp_path / "fwal",
                primary.url, cwd=tmp_path, secret="hush",
            )
            follower.start()
            primary_applied = _get(primary.url + "/lag")["applied_seq"]
            wait_until(
                lambda: _get(follower.url + "/health")["applied_seq"]
                >= primary_applied,
                message="follower initial catch-up",
            )
            # Tear the follower's WAL tail while it is down — exactly
            # what a crash mid-append leaves behind.
            follower.sigkill()
            truncate_segment(tmp_path / "fwal")
            follower.restart()
            final = _post(
                primary.url + "/ingest", {"add": ADD, "wait": True}
            )
            wait_until(
                lambda: _get(follower.url + "/health")["applied_seq"]
                >= final["seq"],
                message="follower to repair its WAL and re-sync",
            )
            primary_support = _post(
                primary.url + "/query",
                {"op": "support", "pattern": PATTERN},
            )["value"]
            follower_support = _post(
                follower.url + "/query",
                {"op": "support", "pattern": PATTERN},
            )["value"]
            assert follower_support == primary_support
        finally:
            if follower is not None:
                follower.terminate()
            primary.terminate()


    def test_overloaded_router_sheds_and_stays_observable(self, tmp_path):
        # A replica whose queries block until released pins every
        # routed query in flight, so a burst past the router's queue
        # bound (query concurrency 16 x queue factor 4 = 64) must shed.
        release = threading.Event()

        def health(request):
            return 200, {
                "status": "ok", "role": "follower", "applied_seq": 0,
                "store_version": 1, "database_size": 3,
            }, {}

        def blocked_query(request):
            release.wait(30)
            return 200, {"op": "support", "store_version": 1,
                         "cached": False, "value": 1}, {}

        replica = AsyncHTTPFront(
            RouteTable([
                Endpoint("GET", "/health", "health", "control", health),
                Endpoint("POST", "/query", "query", "query", blocked_query),
            ]),
            max_workers=64,
        )
        rhost, rport = replica.start_background()
        router = spawn_router([f"http://{rhost}:{rport}"], cwd=tmp_path)
        router.start()
        outcomes: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def hit() -> None:
            request = urllib.request.Request(
                router.url + "/query",
                json.dumps({"op": "support", "pattern": PATTERN}).encode(),
                {"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as answer:
                    outcome = (answer.status, dict(answer.headers))
            except urllib.error.HTTPError as exc:
                outcome = (exc.code, dict(exc.headers))
            with lock:
                outcomes.append(outcome)

        clients = [threading.Thread(target=hit) for _ in range(80)]
        try:
            for client in clients:
                client.start()
            wait_until(
                lambda: any(status == 429 for status, _ in outcomes),
                message="the router to shed",
            )
            # Control traffic is never shed, whatever the query load.
            assert _get(router.url + "/health")["status"] == "ok"
        finally:
            release.set()
            for client in clients:
                client.join(timeout=60)
            try:
                counters = _get(router.url + "/metrics")["counters"]
            finally:
                router.terminate()
                replica.stop_background()
        statuses = [status for status, _ in outcomes]
        assert len(statuses) == len(clients)
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 16
        for status, headers in outcomes:
            if status == 429:
                assert float(headers["Retry-After"]) > 0.0
        assert counters["admission.shed"] >= 1
        assert counters["admission.shed"] == statuses.count(429)


@pytest.mark.slow
class TestRandomizedSweep:
    """Nightly: seed-randomized fault *scenarios*, not just kill times.

    Each run draws 1-2 scenarios from the menu — applier SIGKILL, fsync
    stall, torn-WAL-tail damage, disk-full on the WAL volume — so
    successive nightlies explore scenario combinations; a failure
    prints the seed that replays the exact draw.
    """

    def test_randomized_fault_scenario_sweep(self, tmp_path):
        seed = int(os.environ.get("CHAOS_SEED", "0"))
        if not seed:
            seed = int.from_bytes(os.urandom(4), "little") or 1
        print(f"CHAOS_SEED={seed} (export to reproduce this sweep)")
        store = _mined_store(tmp_path)
        wal_dir = tmp_path / "wal"
        faultpoints = tmp_path / "faultpoints.json"
        stall_fsync(faultpoints, 0)
        process = spawn_ingest(
            store, wal_dir, cwd=tmp_path, max_lag=8,
            env={"REPRO_FAULTPOINTS_FILE": str(faultpoints)},
        )
        process.start()

        def damage_wal_and_restart() -> None:
            # Torn tail on the *primary* WAL: append_torn_frame adds
            # junk after the last fsynced frame, so recovery truncates
            # only the junk and no acked write is at risk.
            process.sigkill()
            append_torn_frame(wal_dir)
            process.restart()

        try:
            options = LoadOptions(
                duration_seconds=6.0, rate=30.0, seed=seed, workers=4
            )
            plan = build_plan(options, [PATTERN], [ADD])
            menu = [
                "kill_applier", "stall_fsync", "wal_damage", "disk_full",
            ]
            events = []
            for at, kind in seeded_scenario_plan(
                seed, options.duration_seconds, menu
            ):
                if kind == "kill_applier":
                    events.append(FaultEvent(
                        at, kind, lambda: kill_and_restart(process)
                    ))
                elif kind == "stall_fsync":
                    events.append(FaultEvent(
                        at, kind, lambda: stall_fsync(faultpoints, 180)
                    ))
                    events.append(FaultEvent(
                        at + 1.0, "clear_stall",
                        lambda: stall_fsync(faultpoints, 0),
                    ))
                elif kind == "disk_full":
                    # The WAL volume "fills" for ~1s: every ingest in
                    # the window must shed as 429 (the envelope's
                    # server_error budget of 0 catches any 500).
                    events.append(FaultEvent(
                        at, kind, lambda: disk_full(faultpoints, True)
                    ))
                    events.append(FaultEvent(
                        at + 1.0, "clear_disk_full",
                        lambda: disk_full(faultpoints, False),
                    ))
                else:
                    events.append(FaultEvent(
                        at, kind, damage_wal_and_restart
                    ))
            injector = FaultInjector(events)
            injector.start()
            try:
                report = LoadRunner(process.url, plan, workers=4).run()
            finally:
                injector.join()
            assert injector.errors == []
            Envelope(max_transport_fraction=0.75).check(report)
            verify_no_lost_acks(process.url, report)
            verify_version_monotonic(report)
            _record(
                "randomized-sweep", report, seed=seed,
                scenarios=[e.name for e in injector.events],
            )
        finally:
            process.terminate()
