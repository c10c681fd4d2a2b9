"""Follower replicas: sync, byte-identity, bootstrap, crash recovery.

The crash harness mirrors ``test_streaming_crash``: a worker subprocess
syncs and applies in small steps while the parent SIGKILLs it at random
instants; after every kill the replica must recover to a usable state,
and once it finally catches up its store must be semantically identical
to offline one-by-one replay of the primary's records.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import ReplicationError
from repro.graphs.database import GraphDatabase
from repro.incremental import DatabaseDelta, PatternStore
from repro.replication import Follower, FollowerOptions, FollowerService
from repro.streaming import ApplierOptions, IngestOptions, WriteAheadLog
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.test_replication_shipper import (
    ADD_ONE,
    _mine_store,
    _request,
    primary,  # noqa: F401 - fixture re-export
)
from tests.test_streaming_applier import _offline_replay, _store_digest
from tests.test_streaming_handoff import assert_reader_matches_fresh


def _segment_bytes(wal_dir: Path) -> bytes:
    return b"".join(
        path.read_bytes() for path in sorted(Path(wal_dir).iterdir())
    )


def _quick_options(**overrides):
    defaults = dict(poll_interval_seconds=0.02, secret="hush")
    defaults.update(overrides)
    return FollowerOptions(**defaults)


def _applier_options():
    return ApplierOptions(max_latency_seconds=0.02)


def _unapplied_primary(tmp_path, n_records, segment_max_bytes=None):
    """A served primary whose applier never runs: every journaled
    record is unapplied, so a follower must fetch and replay them all
    (a bootstrap snapshot alone cannot satisfy the watermark)."""
    from repro.replication import PrimaryService

    store_dir = _mine_store(tmp_path)
    service = PrimaryService(
        store_dir,
        tmp_path / "wal",
        port=0,
        options=IngestOptions(wait_timeout_seconds=60.0),
    )
    if segment_max_bytes is not None:
        service.wal.segment_max_bytes = segment_max_bytes
    for _ in range(n_records):
        service.wal.append(DatabaseDelta(add_text=ADD_ONE))
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    host, port = service.address
    return service, f"http://{host}:{port}", thread


class TestSync:
    def test_catch_up_replays_every_record(self, primary, tmp_path):
        service, url = primary
        for _ in range(4):
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        with Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        ) as follower:
            follower.catch_up(timeout=30)
            assert follower.applied_seq == 3
            assert follower.bootstrapped  # no local store existed
            store = PatternStore.open(tmp_path / "replica")
            assert store.app_state["replication_role"] == "follower"
            assert store.app_state["replication_source"] == url
        # Semantically identical to the primary's own applied store.
        assert _store_digest(tmp_path / "replica") == _store_digest(
            service.applier.store_dir
        )

    def test_rejournaled_wal_is_byte_identical(self, tmp_path):
        service, url, thread = _unapplied_primary(tmp_path, 3)
        try:
            with Follower(
                tmp_path / "replica",
                tmp_path / "rwal",
                url,
                options=FollowerOptions(poll_interval_seconds=0.02),
                applier_options=_applier_options(),
            ) as follower:
                follower.catch_up(timeout=30)
                assert follower.applied_seq == 2
            # Canonical delta encoding: the re-journaled log is byte-
            # for-byte the primary's log.
            assert _segment_bytes(tmp_path / "rwal") == _segment_bytes(
                service.wal.directory
            )
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()

    def test_small_fetch_chunks_split_frames(self, primary, tmp_path):
        """A 7-byte fetch budget cuts every frame across requests; the
        partial-frame buffer must reassemble all of them."""
        _service, url = primary
        for _ in range(3):
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        with Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(fetch_max_bytes=7),
            applier_options=_applier_options(),
        ) as follower:
            follower.catch_up(timeout=60)
            assert follower.applied_seq == 2

    def test_incremental_sync_fetches_only_new_records(
        self, primary, tmp_path
    ):
        _service, url = primary
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        with Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        ) as follower:
            follower.catch_up(timeout=30)
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
            assert follower.sync_once() == 1
            follower.applier.drain()
            assert follower.applied_seq == 1
            assert follower.lag() == 0

    def test_wrong_secret_is_refused(self, primary, tmp_path):
        _service, url = primary
        follower = Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(secret="wrong"),
        )
        with pytest.raises(ReplicationError, match="signature"):
            follower.sync_once()
        assert follower.metrics.counter(
            "replication.signature_failures"
        ) == 1

    def test_sealed_segment_digests_verified(self, tmp_path):
        """Small primary segments seal quickly; every sealed segment the
        follower consumes is digest-checked against the manifest."""
        service, url, thread = _unapplied_primary(
            tmp_path, 3, segment_max_bytes=1
        )
        try:
            with Follower(
                tmp_path / "replica",
                tmp_path / "rwal",
                url,
                options=FollowerOptions(poll_interval_seconds=0.02),
                applier_options=_applier_options(),
            ) as follower:
                follower.catch_up(timeout=30)
                assert follower.metrics.counter(
                    "replication.segments_verified"
                ) == 3
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()


class TestBootstrap:
    def test_truncated_history_triggers_snapshot_reseed(
        self, primary, tmp_path
    ):
        """When the primary truncates WAL history a late-joining (or
        lagging) follower still needs, sync falls back to a snapshot."""
        service, url = primary
        service.wal.segment_max_bytes = 1  # seal after every append
        for _ in range(5):
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        service.wal.truncate_applied(service.applier.applied_seq)
        manifest = service.shipper.manifest()
        assert manifest["earliest_seq"] == 5
        with Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        ) as follower:
            follower.catch_up(timeout=30)
            assert follower.bootstrapped
            assert follower.applied_seq == 4  # from the snapshot's state
        assert _store_digest(tmp_path / "replica") == _store_digest(
            service.applier.store_dir
        )

    def test_interrupted_bootstrap_is_settled_on_restart(
        self, primary, tmp_path
    ):
        _service, url = primary
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        replica = tmp_path / "replica"
        # A torn download (no manifest) must be discarded...
        stray = tmp_path / "replica.bootstrap"
        stray.mkdir()
        (stray / "partial").write_bytes(b"junk")
        with Follower(
            replica, tmp_path / "rwal", url, options=_quick_options()
        ) as follower:
            assert not stray.exists()
            assert not follower.bootstrapped
        # ...while a completed bootstrap next to a missing store is
        # adopted wholesale.
        with Follower(
            replica,
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        ) as follower:
            follower.catch_up(timeout=30)
        shutil.move(replica, stray)
        with Follower(
            replica, tmp_path / "rwal2", url, options=_quick_options()
        ) as follower:
            assert follower.bootstrapped
            assert (replica / "manifest.json").exists()
            assert not stray.exists()


class TestFollowerService:
    def test_serves_queries_and_health_while_syncing(
        self, primary, tmp_path
    ):
        _service, url = primary
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        service = FollowerService(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            port=0,
            options=_quick_options(),
            applier_options=_applier_options(),
        )
        thread = threading.Thread(
            target=service.serve_forever, daemon=True
        )
        thread.start()
        service.start()
        host, port = service.address
        furl = f"http://{host}:{port}"
        try:
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                import json as _json

                status, body, _ = _request(furl, "/health")
                doc = _json.loads(body)
                assert status == 200
                assert doc["role"] == "follower"
                assert doc["source"] == url
                if doc["applied_seq"] == 1 and doc["lag"] == 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"follower never caught up: {doc}")
            assert doc["sync_ok"] is True
            # The read-only face refuses ingestion.
            status, _body, _ = _request(furl, "/ingest", {"add": ADD_ONE})
            assert status in (404, 405)
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()

    def test_primary_outage_flips_sync_ok_not_serving(
        self, primary, tmp_path
    ):
        import json as _json

        p_service, url = primary
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        service = FollowerService(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            port=0,
            options=_quick_options(request_timeout_seconds=1.0),
            applier_options=_applier_options(),
        )
        thread = threading.Thread(
            target=service.serve_forever, daemon=True
        )
        thread.start()
        service.start()
        host, port = service.address
        furl = f"http://{host}:{port}"
        try:
            # Partition the primary away: stop serving AND close the
            # listening socket so connections fail fast.
            p_service.server.shutdown()
            p_service.server.server_close()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, body, _ = _request(furl, "/health")
                doc = _json.loads(body)
                if doc["sync_ok"] is False:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sync failure never surfaced in /health")
            assert doc["sync_error"]
            # Queries still answer from the last committed version.
            status, body, _ = _request(
                furl, "/query", {"op": "support", "pattern": ADD_ONE}
            )
            assert status == 200
        finally:
            service.server.shutdown()
            thread.join(timeout=10)
            service.close()


    def test_reader_is_handed_every_version(self, primary, tmp_path):
        """After a sync and a drain the service's reader answers as a
        fresh reader of the replica does, without reading the directory;
        after a snapshot bootstrap replaces the applier, the new applier
        hands its versions to the same reader."""
        p_service, url = primary
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        replica = tmp_path / "replica"
        service = FollowerService(
            replica,
            tmp_path / "rwal",
            url,
            port=0,
            options=_quick_options(),
            applier_options=_applier_options(),
        )
        follower = service.follower
        try:
            for _ in range(2):
                _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
            follower.sync_once()
            follower.applier.drain()
            assert follower.applied_seq == 2
            assert_reader_matches_fresh(service.reader, replica)
            # The primary drops history the follower still needs.
            p_service.wal.segment_max_bytes = 1
            for _ in range(3):
                _request(url, "/ingest", {"remove": [0], "wait": True})
            p_service.wal.truncate_applied(p_service.applier.applied_seq)
            replaced = follower.applier
            follower.sync_once()
            assert follower.applier is not replaced
            assert follower.applier.reader is service.reader
            follower.applier.drain()
            assert follower.applied_seq == 5
            assert_reader_matches_fresh(service.reader, replica)
            assert service.metrics.counter("serving.reloads") == 0
        finally:
            service.close()


class TestPrimaryConnection:
    """The follower's client to its primary reuses its connection from
    poll to poll, and a connection the primary closed by restarting is
    retried once without a sync failure.  These mirror the router's
    ``TestKeepAlive`` in ``test_replication_router.py``."""

    @staticmethod
    def _start_primary(store_dir, wal_dir, port=0):
        from repro.replication import PrimaryService

        service = PrimaryService(
            store_dir,
            wal_dir,
            secret="hush",
            port=port,
            options=IngestOptions(wait_timeout_seconds=60.0),
            applier_options=_applier_options(),
        )
        service.start()
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        return service, thread

    @staticmethod
    def _stop_primary(service, thread):
        service.server.shutdown()
        thread.join(timeout=10)
        service.close()

    def test_sequential_syncs_share_one_connection(self, primary, tmp_path):
        _service, url = primary
        with Follower(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        ) as follower:
            for _ in range(8):
                _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
                assert follower.sync_once() <= 1
                follower.applier.drain()
            assert follower.applied_seq == 7
            assert follower.metrics.counter(
                "replication.follower_connections_opened"
            ) == 1

    def test_primary_restart_reconnects_without_a_sync_failure(
        self, tmp_path
    ):
        store_dir, wal_dir = _mine_store(tmp_path), tmp_path / "wal"
        primary, thread = self._start_primary(store_dir, wal_dir)
        host, port = primary.address
        url = f"http://{host}:{port}"
        _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
        service = FollowerService(
            tmp_path / "replica",
            tmp_path / "rwal",
            url,
            options=_quick_options(),
            applier_options=_applier_options(),
        )
        try:
            assert service.follower.applied_seq == 0
            assert service.metrics.counter(
                "replication.follower_connections_opened"
            ) == 1
            self._stop_primary(primary, thread)
            primary, thread = self._start_primary(store_dir, wal_dir, port)
            _request(url, "/ingest", {"add": ADD_ONE, "wait": True})
            service.sync()
            assert service.follower.last_sync_error is None
            assert service.metrics.counter("replication.sync_failures") == 0
            assert service.follower.applied_seq == 1
            assert service.metrics.counter(
                "replication.follower_connections_opened"
            ) == 2
        finally:
            service.close()
            self._stop_primary(primary, thread)


# -- SIGKILL crash harness ----------------------------------------------------

_WORKER = """
import sys, time
from repro.replication import Follower, FollowerOptions
from repro.streaming import ApplierOptions

store_dir, wal_dir, url = sys.argv[1], sys.argv[2], sys.argv[3]
with Follower(
    store_dir, wal_dir, url,
    options=FollowerOptions(poll_interval_seconds=0.01, fetch_max_bytes=64),
    applier_options=ApplierOptions(max_batch_records=2),
) as follower:
    while True:
        follower.sync_once()
        while follower.applier.apply_next_batch():
            time.sleep(0.02)
        if follower.lag() == 0:
            break
        time.sleep(0.02)
print("caught-up", follower.applied_seq)
"""


def _build_primary_case(tmp_path, seed):
    """A served primary whose WAL holds a randomized delta mix.

    The primary's own applier is *not* started: the follower must do
    every apply itself, so kills land inside its replay path.
    """
    from repro.replication import PrimaryService

    rng = random.Random(seed)
    taxonomy = taxonomy_from_parent_names({"b": "a", "c": "a", "d": "b"})

    def edge_db(names, nodes=("b", "c")):
        db = GraphDatabase(node_labels=taxonomy.interner)
        for name in names:
            db.new_graph(list(nodes), [(0, 1, name)])
        return db

    store_dir = tmp_path / "pstore"
    Taxogram(
        TaxogramOptions(min_support=0.3, store_out=str(store_dir))
    ).mine(db := edge_db(["x", "x", "y", "y", "x"]), taxonomy)
    del db
    seed_copy = tmp_path / "seed"
    shutil.copytree(store_dir, seed_copy)
    records = []
    labels = ["x", "y", "w"]
    nodes_pool = [("b", "c"), ("d", "c"), ("b", "ghost")]  # ghost -> reject
    for _ in range(10):
        if rng.random() < 0.6:
            names = [rng.choice(labels) for _ in range(rng.randint(1, 2))]
            records.append(
                DatabaseDelta.adding(edge_db(names, rng.choice(nodes_pool)))
            )
        else:
            ids = rng.sample(range(10), rng.randint(1, 2))
            records.append(DatabaseDelta.removing(ids))
    service = PrimaryService(
        store_dir,
        tmp_path / "pwal",
        port=0,
        options=IngestOptions(wait_timeout_seconds=60.0),
    )
    for record in records:
        service.wal.append(record)
    return service, seed_copy, records


def _run_follower_with_kills(tmp_path, url, rng, max_rounds=40):
    worker = tmp_path / "worker.py"
    worker.write_text(_WORKER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    replica, rwal = tmp_path / "replica", tmp_path / "rwal"
    kills = 0
    for _ in range(max_rounds):
        proc = subprocess.Popen(
            [sys.executable, str(worker), str(replica), str(rwal), url],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        time.sleep(rng.uniform(0.0, 0.6))
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            kills += 1
        else:
            stdout, stderr = proc.communicate()
            assert proc.returncode == 0, stderr.decode()
            assert b"caught-up" in stdout
            return replica, kills
        # Crash invariant: whatever instant the kill landed — mid-
        # bootstrap, mid-fetch, mid-apply, mid-swap — a fresh Follower
        # settles the wreckage into an openable state.
        if (replica / "manifest.json").exists() or any(
            tmp_path.glob("replica.*")
        ):
            probe = Follower(
                replica,
                rwal,
                url,
                options=FollowerOptions(poll_interval_seconds=0.01),
            )
            probe.ensure_open()
            PatternStore.open(replica)
            probe.close()
    pytest.fail("follower worker never caught up")


def _crash_case(tmp_path, seed):
    service, seed_copy, records = _build_primary_case(tmp_path, seed)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    host, port = service.address
    url = f"http://{host}:{port}"
    rng = random.Random(seed + 1)
    try:
        replica, kills = _run_follower_with_kills(tmp_path, url, rng)
        oracle = _offline_replay(seed_copy, tmp_path / "oracle", records)
        assert _store_digest(replica) == _store_digest(oracle)
        return kills
    finally:
        service.server.shutdown()
        thread.join(timeout=10)
        service.close()


class TestCrashRecovery:
    def test_sigkilled_follower_converges_to_offline_replay(self, tmp_path):
        _crash_case(tmp_path, seed=7)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(20, 26))
    def test_sigkill_sweep(self, tmp_path, seed):
        _crash_case(tmp_path, seed=seed)
