"""Unit tests for the load harness itself.

The chaos suite trusts the harness's bookkeeping, so that bookkeeping
gets its own tests: plan determinism (same seed, same schedule),
outcome classification, report math (latency histograms, acked-seq
watermark, version-regression detection), and envelope judgement —
all without subprocesses.  One in-process
:class:`~repro.serving.aserver.AsyncHTTPFront` with canned endpoints
stands in for the real service where a live socket is needed.
"""

from __future__ import annotations

import http.server
import json
import socket
import threading
import time

import pytest

from repro.loadtest.harness import (
    Envelope,
    LoadReport,
    LoadRunner,
    RequestOutcome,
    classify,
)
from repro.loadtest.workload import (
    LoadOptions,
    PlannedRequest,
    WorkloadMix,
    build_plan,
)
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.endpoints import Endpoint, RouteTable

ADD_ONE = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


class TestWorkloadPlan:
    def test_same_seed_same_plan(self):
        options = LoadOptions(duration_seconds=3.0, rate=80.0, seed=17)
        first = build_plan(options, [ADD_ONE], [ADD_ONE])
        second = build_plan(options, [ADD_ONE], [ADD_ONE])
        assert first == second
        assert len(first) > 100

    def test_different_seeds_differ(self):
        base = LoadOptions(duration_seconds=3.0, rate=80.0, seed=1)
        other = LoadOptions(duration_seconds=3.0, rate=80.0, seed=2)
        assert build_plan(base, [], [ADD_ONE]) != build_plan(
            other, [], [ADD_ONE]
        )

    def test_arrivals_sorted_and_inside_window(self):
        options = LoadOptions(duration_seconds=2.0, rate=100.0, seed=5)
        plan = build_plan(options, [], [ADD_ONE])
        times = [r.at for r in plan]
        assert times == sorted(times)
        assert all(0.0 < t < 2.0 for t in times)

    def test_mix_respected_roughly(self):
        options = LoadOptions(
            duration_seconds=20.0,
            rate=100.0,
            seed=3,
            mix=WorkloadMix(50, 50, 0),
        )
        plan = build_plan(options, [], [ADD_ONE])
        kinds = [r.kind for r in plan]
        assert not any(k == "flush" for k in kinds)
        ingest_share = kinds.count("ingest") / len(kinds)
        assert 0.4 < ingest_share < 0.6

    def test_no_add_texts_degrades_to_query_only(self):
        options = LoadOptions(duration_seconds=2.0, rate=100.0, seed=5)
        plan = build_plan(options, [ADD_ONE], [])
        assert all(r.kind == "query" for r in plan)

    def test_mix_parse(self):
        mix = WorkloadMix.parse("80:15:5")
        assert mix.weights() == (80.0, 15.0, 5.0)
        with pytest.raises(ValueError):
            WorkloadMix.parse("80:15")
        with pytest.raises(ValueError):
            WorkloadMix.parse("a:b:c")
        with pytest.raises(ValueError):
            WorkloadMix(0, 0, 0)

    def test_options_validated(self):
        with pytest.raises(ValueError):
            LoadOptions(duration_seconds=0)
        with pytest.raises(ValueError):
            LoadOptions(rate=-1)
        with pytest.raises(ValueError):
            LoadOptions(wait_fraction=2.0)


class TestScenarioPlan:
    MENU = ["kill_applier", "stall_fsync", "wal_damage"]

    def test_same_seed_same_scenarios(self):
        from repro.loadtest.faults import seeded_scenario_plan

        first = seeded_scenario_plan(12, 6.0, self.MENU)
        second = seeded_scenario_plan(12, 6.0, self.MENU)
        assert first == second

    def test_draws_kinds_from_the_menu(self):
        from repro.loadtest.faults import seeded_scenario_plan

        seen = set()
        for seed in range(1, 60):
            plan = seeded_scenario_plan(seed, 6.0, self.MENU)
            assert 1 <= len(plan) <= 2
            for _at, kind in plan:
                assert kind in self.MENU
                seen.add(kind)
        # Across seeds the whole menu gets exercised.
        assert seen == set(self.MENU)

    def test_times_sorted_spaced_and_inside_margin(self):
        from repro.loadtest.faults import seeded_scenario_plan

        for seed in range(1, 40):
            plan = seeded_scenario_plan(
                seed, 10.0, self.MENU, count=2, min_gap=1.2
            )
            times = [at for at, _kind in plan]
            assert times == sorted(times)
            assert times[0] >= 10.0 * 0.2
            assert times[1] - times[0] >= 1.2 - 1e-9

    def test_count_override(self):
        from repro.loadtest.faults import seeded_scenario_plan

        plan = seeded_scenario_plan(3, 6.0, self.MENU, count=4)
        assert len(plan) == 4


class TestAppendTornFrame:
    def test_appends_junk_header_to_newest_segment(self, tmp_path):
        import struct

        from repro.loadtest.faults import append_torn_frame

        old = tmp_path / "wal-000.seg"
        new = tmp_path / "wal-001.seg"
        old.write_bytes(b"older")
        new.write_bytes(b"acked-frames")
        touched = append_torn_frame(tmp_path)
        assert touched == new
        assert old.read_bytes() == b"older"  # acked bytes untouched
        tail = new.read_bytes()
        assert tail.startswith(b"acked-frames")
        assert tail[len(b"acked-frames"):] == (
            struct.pack(">I", 0x00FFFFFF) + b"torn"
        )

    def test_no_segments_is_an_error(self, tmp_path):
        from repro.loadtest.faults import append_torn_frame

        with pytest.raises(FileNotFoundError):
            append_torn_frame(tmp_path)


class TestClassify:
    @pytest.mark.parametrize(
        ("status", "timed_out", "expected"),
        [
            (200, False, "ok"),
            (202, False, "ok"),
            (429, False, "shed"),
            (400, False, "rejected"),
            (404, False, "rejected"),
            (500, False, "server_error"),
            (503, False, "server_error"),
            (504, False, "server_error"),
            (None, False, "transport"),
            (None, True, "timeout"),
        ],
    )
    def test_classes(self, status, timed_out, expected):
        assert classify(status, timed_out) == expected


def _outcome(**kwargs) -> RequestOutcome:
    defaults = dict(
        worker=0,
        at=0.0,
        kind="query",
        op="top",
        status=200,
        outcome="ok",
        latency_seconds=0.01,
    )
    defaults.update(kwargs)
    return RequestOutcome(**defaults)


class TestLoadReport:
    def test_acked_watermark(self):
        report = LoadReport(
            [
                _outcome(kind="ingest", op="ingest", status=202,
                         acked_seq=4),
                _outcome(kind="ingest", op="ingest", status=202,
                         acked_seq=9),
                _outcome(kind="ingest", op="ingest", status=429,
                         outcome="shed"),
            ],
            wall_seconds=1.0,
        )
        assert report.acked_seqs == [4, 9]
        assert report.max_acked_seq == 9

    def test_version_regression_detected_per_worker(self):
        report = LoadReport(
            [
                _outcome(worker=0, at=0.1, store_version=5),
                _outcome(worker=1, at=0.2, store_version=9),
                _outcome(worker=0, at=0.3, store_version=4),
            ],
            wall_seconds=1.0,
        )
        regressions = report.version_regressions()
        assert len(regressions) == 1
        assert "worker 0" in regressions[0]
        # Worker 1 seeing a lower version than worker 0 is fine —
        # monotonicity is per client connection.
        clean = LoadReport(
            [
                _outcome(worker=0, at=0.1, store_version=9),
                _outcome(worker=1, at=0.2, store_version=5),
            ],
            wall_seconds=1.0,
        )
        assert clean.version_regressions() == []

    def test_counts_and_throughput(self):
        report = LoadReport(
            [
                _outcome(),
                _outcome(status=429, outcome="shed"),
                _outcome(status=None, outcome="transport"),
            ],
            wall_seconds=2.0,
        )
        assert report.total == 3
        assert report.completed == 1
        assert report.throughput == pytest.approx(0.5)
        assert report.fraction("shed") == pytest.approx(1 / 3)
        doc = report.as_dict()
        assert doc["statuses"] == {"200": 1, "429": 1}
        assert doc["latency"]["query"]["count"] == 3

    def test_lateness_reported(self):
        report = LoadReport(
            [_outcome(lateness_seconds=0.5), _outcome()], wall_seconds=1.0
        )
        lateness = report.as_dict()["lateness"]
        assert lateness["count"] == 2
        assert lateness["max_ms"] == pytest.approx(500.0)

    def test_json_roundtrip(self, tmp_path):
        import json

        report = LoadReport([_outcome()], wall_seconds=1.0)
        path = tmp_path / "report.json"
        report.write_json(path)
        assert json.loads(path.read_text())["total"] == 1


class TestEnvelope:
    def test_sheds_allowed_errors_not(self):
        shed_heavy = LoadReport(
            [_outcome(status=429, outcome="shed")] * 9 + [_outcome()],
            wall_seconds=1.0,
        )
        assert Envelope().violations(shed_heavy) == []
        with_errors = LoadReport(
            [_outcome(status=500, outcome="server_error")]
            + [_outcome()] * 9,
            wall_seconds=1.0,
        )
        violations = Envelope().violations(with_errors)
        assert len(violations) == 1
        assert "server_error" in violations[0]
        with pytest.raises(AssertionError):
            Envelope().check(with_errors)

    def test_transport_budget_for_chaos(self):
        flaky = LoadReport(
            [_outcome(status=None, outcome="transport")] * 3
            + [_outcome()] * 7,
            wall_seconds=1.0,
        )
        assert Envelope().violations(flaky)
        assert Envelope(max_transport_fraction=0.5).violations(
            flaky
        ) == []


class _StallingRunner(LoadRunner):
    """Answers every request at once, except the first, which stalls."""

    STALL_SECONDS = 0.3

    def __init__(self, plan) -> None:
        super().__init__("http://unused.invalid", plan, workers=1)
        self.fired = 0

    def _fire(self, planned):
        self.fired += 1
        if self.fired == 1:
            time.sleep(self.STALL_SECONDS)
        return 200, {"store_version": 1}, False


class TestLoadRunnerClock:
    def test_stall_is_charged_to_the_requests_it_delays(self):
        plan = [PlannedRequest(at=at, kind="query") for at in (0.0, 0.05, 0.1)]
        report = _StallingRunner(plan).run()
        first, second, third = report.outcomes
        stall = _StallingRunner.STALL_SECONDS
        assert first.latency_seconds >= stall
        # Fired only once the stall ended: the wait behind the first
        # request counts against the delayed requests' latency.
        assert second.latency_seconds >= stall - second.at
        assert third.latency_seconds >= stall - third.at
        assert second.lateness_seconds >= stall - second.at
        assert third.lateness_seconds >= stall - third.at
        assert first.lateness_seconds < stall - second.at
        lateness = report.as_dict()["lateness"]
        assert lateness["count"] == 3
        assert lateness["max_ms"] >= (stall - second.at) * 1000.0


class TestLoadRunnerLive:
    """Short plans against an in-process canned service.

    Its ``POST /query`` stalls a ``support`` query until the test ends
    and sheds a ``graphs`` query with 429."""

    @pytest.fixture
    def front(self):
        versions = iter(range(100, 1000))
        seqs = iter(range(1000))
        released = threading.Event()

        def query(request):
            if json.loads(request.body)["op"] == "support":
                released.wait(10.0)
                return 200, {"store_version": 1, "value": 0}, {}
            return 429, {"error": "over capacity"}, {"Retry-After": "1"}

        def top(request):
            return 200, {"op": "top_k", "store_version": next(versions),
                         "value": []}, {}

        def ingest(request):
            return 202, {"seq": next(seqs), "applied": False}, {}

        def flush(request):
            return 200, {"applied_seq": 0}, {}

        routes = RouteTable([
            Endpoint("GET", "/top", "top", "query", top),
            Endpoint("POST", "/ingest", "ingest", "ingest", ingest),
            Endpoint("POST", "/flush", "flush", "control", flush),
            Endpoint("POST", "/query", "query", "query", query),
        ])
        front = AsyncHTTPFront(routes)
        host, port = front.start_background()
        try:
            yield f"http://{host}:{port}"
        finally:
            released.set()
            front.stop_background()

    @staticmethod
    def _outcome(url, planned, timeout=30.0):
        report = LoadRunner(url, [planned], workers=1, timeout=timeout).run()
        [outcome] = report.outcomes
        return outcome

    def test_closed_port_is_transport(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        outcome = self._outcome(
            f"http://127.0.0.1:{port}", PlannedRequest(at=0.0, kind="flush")
        )
        assert (outcome.status, outcome.outcome) == (None, "transport")

    def test_truncated_answer_is_transport(self):
        """A cut-short answer is accounted for, not lost with its worker."""
        from tests.test_replication_router import _TruncatingHandler

        server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), _TruncatingHandler
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            outcome = self._outcome(
                f"http://127.0.0.1:{server.server_address[1]}",
                PlannedRequest(at=0.0, kind="flush"),
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert (outcome.status, outcome.outcome) == (None, "transport")

    def test_answer_past_the_timeout_is_timeout(self, front):
        outcome = self._outcome(
            front,
            PlannedRequest(at=0.0, kind="query", op="support",
                           pattern=ADD_ONE),
            timeout=0.2,
        )
        assert (outcome.status, outcome.outcome) == (None, "timeout")
        assert outcome.latency_seconds < 5.0

    def test_429_is_shed(self, front):
        outcome = self._outcome(
            front,
            PlannedRequest(at=0.0, kind="query", op="graphs",
                           pattern=ADD_ONE),
        )
        assert (outcome.status, outcome.outcome) == (429, "shed")

    def test_every_planned_request_is_accounted(self, front):
        options = LoadOptions(
            duration_seconds=1.0, rate=60.0, seed=2, workers=4
        )
        plan = build_plan(options, [], [ADD_ONE])
        report = LoadRunner(front, plan, workers=4).run()
        assert report.total == len(plan)
        assert report.counts["ok"] == len(plan)
        ingests = [r for r in plan if r.kind == "ingest"]
        assert len(report.acked_seqs) == len(ingests)
        assert report.version_regressions() == []
