"""CLI tests for ``taxogram ingest --publish`` / ``replicate`` /
``route``.

End-to-end over real subprocesses where the pipeline shape matters
(primary → follower → router, the TUTORIAL step 15 topology), in-process
``main()`` where only argument handling is under test.  ``info`` on a
replica is golden-checked.
"""

from __future__ import annotations

import json
import os
import signal
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.incremental import DatabaseDelta
from repro.streaming import WriteAheadLog
from tests.conftest import wait_until
from tests.test_cli_streaming import (
    _PORT,
    _check_golden,
    _spawn_cli,
    workdir,  # noqa: F401 - fixture re-export
)

ADD_ONE = "t # 0\nv 0 b\nv 1 c\ne 0 1 x\n"


def _port_from_banner(banner: str) -> int:
    match = _PORT.search(banner)
    assert match, f"no address in banner: {banner!r}"
    return int(banner.rsplit(":", 1)[1].split()[0].rstrip("/"))


def _get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return json.loads(response.read())


def _post(port: int, path: str, doc: dict):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        json.dumps(doc).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestArgumentValidation:
    def test_publish_requires_serve(self, workdir, capsys):
        assert main(
            ["ingest", "store", "--wal", "wal", "--publish"]
        ) == 2
        assert "--publish requires --serve" in capsys.readouterr().err

    def test_secret_requires_publish(self, workdir, capsys):
        assert main(
            ["ingest", "store", "--wal", "wal", "--secret", "k"]
        ) == 2
        assert "--secret requires --publish" in capsys.readouterr().err

    def test_replicate_unreachable_primary_errors(self, workdir, capsys):
        assert main(
            ["replicate", "replica", "--from", "http://127.0.0.1:9",
             "--wal", "rwal", "--timeout", "1"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("url", ["notaurl", "http://127.0.0.1:9/x"])
    def test_replicate_rejects_a_url_that_is_not_host_port(
        self, workdir, capsys, url
    ):
        assert main(
            ["replicate", "replica", "--from", url, "--wal", "rwal"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "http://host:port" in err
        assert not Path("replica").exists() and not Path("rwal").exists()


class TestPipeline:
    def test_publish_replicate_route_end_to_end(self, workdir):
        """The full TUTORIAL step 15 topology as real processes:
        a publishing primary, a one-shot catch-up, a serving follower,
        and a router fanning out over it."""
        primary = _spawn_cli(
            ["ingest", "store", "--wal", "wal", "--serve", "--publish",
             "--secret", "hush", "--port", "0", "--batch-latency", "0.02"],
            workdir,
        )
        follower = router = None
        try:
            pport = _port_from_banner(primary.stdout.readline())
            for _ in range(3):
                _post(pport, "/ingest", {"add": ADD_ONE, "wait": True})
            health = _get(pport, "/health")
            assert health["role"] == "primary"
            assert health["applied_seq"] == 2

            # One-shot catch-up, then verify the replica offline.
            code = main(
                ["replicate", "replica", "--from",
                 f"http://127.0.0.1:{pport}", "--wal", "rwal",
                 "--secret", "hush", "--timeout", "60"]
            )
            assert code == 0

            # Serving follower over the already-caught-up replica.
            follower = _spawn_cli(
                ["replicate", "replica", "--from",
                 f"http://127.0.0.1:{pport}", "--wal", "rwal",
                 "--serve", "--secret", "hush", "--port", "0",
                 "--poll-interval", "0.05"],
                workdir,
            )
            fport = _port_from_banner(follower.stdout.readline())
            health = _get(fport, "/health")
            assert health["role"] == "follower"
            assert health["applied_seq"] == 2

            # Router over the follower.
            router = _spawn_cli(
                ["route", "--replica", f"http://127.0.0.1:{fport}",
                 "--port", "0"],
                workdir,
            )
            rport = _port_from_banner(router.stdout.readline())
            routed = _post(
                rport, "/query", {"op": "support", "pattern": ADD_ONE}
            )
            direct = _post(
                pport, "/query", {"op": "support", "pattern": ADD_ONE}
            )
            assert routed["value"] == direct["value"]
            health = _get(rport, "/health")
            assert health["role"] == "router"
            assert health["replicas"][0]["up"] is True

            # A write that propagates: ingest, then read-your-writes
            # through the router with min_applied_seq.
            ack = _post(pport, "/ingest", {"add": ADD_ONE})

            def _routed_fresh():
                try:
                    return _post(
                        rport,
                        "/query",
                        {
                            "op": "support",
                            "pattern": ADD_ONE,
                            "min_applied_seq": ack["seq"],
                        },
                    )
                except urllib.error.HTTPError as exc:
                    assert exc.code == 429
                    return None

            routed = wait_until(
                _routed_fresh, interval=0.05,
                message="follower to reach the acked seq",
            )
            assert routed["value"] == direct["value"] + 1
        finally:
            for proc in (router, follower, primary):
                if proc is None:
                    continue
                proc.send_signal(signal.SIGTERM)
            outs = {}
            for name, proc in (
                ("router", router), ("follower", follower),
                ("primary", primary),
            ):
                if proc is None:
                    continue
                try:
                    out, err = proc.communicate(timeout=30)
                    outs[name] = (proc.returncode, out, err)
                finally:
                    proc.kill()
        for name, (code, out, err) in outs.items():
            assert code == 0, f"{name}: {err}"
            assert "received shutdown signal" in out, f"{name}: {out}"
        # The follower's parting line reports the offset it actually
        # applied: the routed read-your-writes above proved seq 3 landed.
        assert "applied seq 3" in outs["follower"][1]

    def test_info_reports_replica_role_golden(self, workdir, capsys):
        primary = _spawn_cli(
            ["ingest", "store", "--wal", "wal", "--serve", "--publish",
             "--port", "0", "--batch-latency", "0.02"],
            workdir,
        )
        try:
            pport = _port_from_banner(primary.stdout.readline())
            _post(pport, "/ingest", {"add": ADD_ONE, "wait": True})
            assert main(
                ["replicate", "replica", "--from",
                 f"http://127.0.0.1:{pport}", "--wal", "rwal",
                 "--timeout", "60"]
            ) == 0
            capsys.readouterr()
            assert main(["info", "replica"]) == 0
            out = capsys.readouterr().out
            out = _PORT.sub("http://<primary>", out)
        finally:
            primary.send_signal(signal.SIGTERM)
            try:
                primary.communicate(timeout=30)
            finally:
                primary.kill()
        _check_golden("info_replica.txt", out)

    def test_route_sharded_refuses_top_k(self, workdir):
        # Two "shards" (the same store twice is fine for the refusal
        # path, which never reaches the shards).
        server = _spawn_cli(["serve", "store", "--port", "0"], workdir)
        router = None
        try:
            sport = _port_from_banner(server.stdout.readline())
            router = _spawn_cli(
                ["route", "--replica", f"http://127.0.0.1:{sport}",
                 "--sharded", "--port", "0", "--max-requests", "1"],
                workdir,
            )
            rport = _port_from_banner(router.stdout.readline())
            try:
                _get(rport, "/top?k=3")
                pytest.fail("sharded top_k was not refused")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                assert "shard" in json.loads(exc.read())["error"]
            out, err = router.communicate(timeout=30)
            assert router.returncode == 0, err
            assert "handled 1 requests" in out
        finally:
            if router is not None:
                router.kill()
            server.send_signal(signal.SIGTERM)
            try:
                server.communicate(timeout=30)
            finally:
                server.kill()
