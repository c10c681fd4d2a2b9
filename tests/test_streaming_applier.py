"""Unit and integration tests for the batching WAL applier.

The ground truth throughout is *offline one-by-one application*: a WAL
drained through :class:`StreamApplier` (whatever the batch bounds) must
leave the store semantically identical to opening a copy of the seed
store and applying each journaled record individually, skipping exactly
the records the incremental updater itself would reject.
"""

from __future__ import annotations

import shutil
import time

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import ReproError, StoreError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import serialize_graph_database
from repro.incremental import DatabaseDelta, IncrementalTaxogram, PatternStore
from repro.streaming import (
    ApplierOptions,
    StreamApplier,
    WriteAheadLog,
    applied_wal_seq,
    recover_store,
)
from repro.taxonomy.builders import taxonomy_from_parent_names
from tests.conftest import pattern_view, persisted_patterns, step3_oracle


def _taxonomy():
    return taxonomy_from_parent_names({"b": "a", "c": "a", "d": "b"})


def _edge_db(taxonomy, edge_names, nodes=("b", "c")):
    db = GraphDatabase(node_labels=taxonomy.interner)
    for name in edge_names:
        db.new_graph(list(nodes), [(0, 1, name)])
    return db


@pytest.fixture
def seeded(tmp_path):
    """A mined store plus a taxonomy-sharing delta factory."""
    taxonomy = _taxonomy()
    db = _edge_db(taxonomy, ["x", "x", "y", "y", "x"])
    store_dir = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.3, store_out=str(store_dir))
    ).mine(db, taxonomy)

    def adds(edge_names, nodes=("b", "c")):
        return DatabaseDelta.adding(_edge_db(taxonomy, edge_names, nodes))

    return store_dir, adds


def _store_digest(store_dir):
    """Semantic store state: database text, class codes + live
    occurrences, border.

    Dead-column (tombstone) layout legitimately differs with batching —
    compaction triggers at different points — so columns are compared as
    their live occurrence sets, which is what every support/OIE answer
    is derived from.
    """
    store = PatternStore.open(store_dir)
    return (
        serialize_graph_database(store.database),
        [
            (s.code, sorted(c for c in s.columns if c is not None))
            for s in store.classes
        ],
        store.border,
    )


def _offline_replay(seed_dir, oracle_dir, records):
    """Apply records one by one, skipping ones the updater rejects."""
    shutil.copytree(seed_dir, oracle_dir)
    for record in records:
        try:
            IncrementalTaxogram(oracle_dir).apply(record)
        except ReproError:
            pass
    return oracle_dir


class TestDrainEquivalence:
    def test_batched_equals_one_by_one(self, tmp_path, seeded):
        store_dir, adds = seeded
        records = [
            adds(["y", "x"]),
            DatabaseDelta.removing([0, 3]),
            adds(["x"]),
            DatabaseDelta.removing([5]),
            adds(["y"]),
        ]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=3)
            )
            assert applier.drain() == len(records)
            assert applier.lag == 0
        assert _store_digest(store_dir) == _store_digest(oracle)
        assert applied_wal_seq(PatternStore.open(store_dir)) == 4

    @pytest.mark.parametrize("batch_records", [1, 2, 100])
    def test_batch_boundary_invariance(self, tmp_path, seeded, batch_records):
        store_dir, adds = seeded
        records = [
            adds(["y"]),
            DatabaseDelta.removing([1, 2]),
            adds(["x", "y"]),
            DatabaseDelta.removing([0, 4]),
        ]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_batch_records=batch_records),
            ).drain()
        assert _store_digest(store_dir) == _store_digest(oracle)

    def test_remove_of_same_batch_add_cancels(self, tmp_path, seeded):
        store_dir, adds = seeded
        records = [adds(["zz"]), DatabaseDelta.removing([5])]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=100)
            )
            applier.drain()
        digest = _store_digest(store_dir)
        assert digest == _store_digest(oracle)
        # The added graph really was cancelled, not appended-then-removed.
        assert "zz" not in digest[0]

    def test_graph_budget_bounds_batches(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            for _ in range(4):
                wal.append(adds(["x", "y"]))  # 2 graphs per record
            applier = StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_batch_records=100, max_batch_graphs=4),
            )
            assert applier.apply_next_batch() == 2  # 4 graphs
            assert applier.apply_next_batch() == 2
            assert applier.apply_next_batch() == 0

    def test_oversized_single_record_still_applies(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(adds(["x", "y", "x"]))
            applier = StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_batch_graphs=1),
            )
            assert applier.apply_next_batch() == 1


class TestRejection:
    def test_rejects_match_offline_and_advance_offset(self, tmp_path, seeded):
        store_dir, adds = seeded
        records = [
            adds(["y"]),
            adds(["q"], nodes=("b", "nope")),  # unknown node label
            DatabaseDelta.removing([99]),  # out of range
            DatabaseDelta(add_text="this is not a graph\nv x\n"),
            adds(["x"]),
        ]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=100)
            )
            applier.drain()
        assert [seq for seq, _ in applier.rejected] == [1, 2, 3]
        assert _store_digest(store_dir) == _store_digest(oracle)
        # Rejected records still advance the committed offset.
        assert applied_wal_seq(PatternStore.open(store_dir)) == 4

    def test_rejected_labels_not_interned_into_store(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(adds(["q"], nodes=("b", "ghost")))
            StreamApplier(store_dir, wal).drain()
        store = PatternStore.open(store_dir)
        assert "ghost" not in store.database.node_labels.names()

    def test_delta_emptying_database_rejected(self, tmp_path, seeded):
        store_dir, _adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(DatabaseDelta.removing([0, 1, 2, 3, 4]))
            applier = StreamApplier(store_dir, wal)
            applier.drain()
        assert applier.rejected[0][1] == (
            "delta removes every graph in the database"
        )
        assert len(PatternStore.open(store_dir).database) == 5


class TestRecovery:
    def test_replay_is_idempotent_across_restarts(self, tmp_path, seeded):
        store_dir, adds = seeded
        records = [adds(["y"]), DatabaseDelta.removing([0]), adds(["x"])]
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=2)
            ).drain()
            digest = _store_digest(store_dir)
            # A second applier over the same WAL applies nothing.
            applier = StreamApplier(store_dir, wal)
            assert applier.drain() == 0
        assert _store_digest(store_dir) == digest

    def test_stray_shadow_discarded(self, tmp_path, seeded):
        store_dir, _adds = seeded
        shadow = store_dir.with_name("store.next")
        shutil.copytree(store_dir, shadow)
        assert recover_store(store_dir) == "clean"
        assert not shadow.exists()

    def test_mid_swap_crash_adopts_next(self, tmp_path, seeded):
        store_dir, _adds = seeded
        digest = _store_digest(store_dir)
        shadow = store_dir.with_name("store.next")
        shutil.copytree(store_dir, shadow)
        store_dir.rename(store_dir.with_name("store.prev"))
        assert recover_store(store_dir) == "adopted_next"
        assert _store_digest(store_dir) == digest
        assert not shadow.exists()
        assert not store_dir.with_name("store.prev").exists()

    def test_leftover_prev_after_swap_discarded(self, tmp_path, seeded):
        store_dir, _adds = seeded
        prev = store_dir.with_name("store.prev")
        shutil.copytree(store_dir, prev)
        assert recover_store(store_dir) == "clean"
        assert not prev.exists()

    def test_torn_shadow_discarded(self, tmp_path, seeded):
        store_dir, _adds = seeded
        shadow = store_dir.with_name("store.next")
        shutil.copytree(store_dir, shadow)
        (shadow / "manifest.json").unlink()  # crash mid shadow save
        assert recover_store(store_dir) == "clean"
        assert not shadow.exists()

    def test_nothing_to_recover_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no complete shadow"):
            recover_store(tmp_path / "missing")

    def test_applier_constructor_recovers(self, tmp_path, seeded):
        store_dir, adds = seeded
        digest = _store_digest(store_dir)
        shutil.copytree(store_dir, store_dir.with_name("store.next"))
        store_dir.rename(store_dir.with_name("store.prev"))
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(store_dir, wal)
            assert applier.recovery == "adopted_next"
        assert _store_digest(store_dir) == digest

    def test_full_remine_fallback_keeps_offset(self, tmp_path, seeded):
        store_dir, adds = seeded
        # 5 adds against a 5-graph base forces the remine fallback.
        big = adds(["x", "y", "x", "y", "x"])
        oracle = _offline_replay(store_dir, tmp_path / "oracle", [big])
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(big)
            applier = StreamApplier(store_dir, wal)
            applier.drain()
            assert applier.drain() == 0  # offset survived the remine swap
        store = PatternStore.open(store_dir)
        assert applied_wal_seq(store) == 0
        assert _store_digest(store_dir) == _store_digest(oracle)


class TestBackgroundThread:
    def test_background_apply_and_wait(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_latency_seconds=0.02),
            )
            applier.start()
            try:
                seq = wal.append(adds(["y"]))
                assert applier.wait_applied(seq, timeout=30.0)
                assert applier.lag == 0
            finally:
                applier.stop()
        assert applied_wal_seq(PatternStore.open(store_dir)) == 0

    def test_stop_drains_pending_records(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_latency_seconds=60.0),
            )
            applier.start()
            seq = wal.append(adds(["y"]))
            applier.stop()
            assert applier.applied_seq == seq

    def test_flush_forces_prompt_apply(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(
                store_dir,
                wal,
                ApplierOptions(max_latency_seconds=60.0),
            )
            applier.start()
            try:
                wal.append(adds(["y"]))
                assert applier.flush(timeout=30.0)
                assert applier.lag == 0
            finally:
                applier.stop()

    def test_thread_error_surfaces_to_waiters(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(store_dir, wal)
            applier.start()
            try:
                # Sabotage the store directory so the next batch fails.
                shutil.rmtree(store_dir)
                seq = wal.append(adds(["y"]))
                with pytest.raises(StoreError, match="stream applier failed"):
                    applier.wait_applied(seq, timeout=30.0)
                assert applier.error is not None
            finally:
                applier.stop()


class TestHeapRelease:
    def test_each_applied_batch_trims_the_heap(
        self, tmp_path, seeded, monkeypatch
    ):
        from repro.streaming import applier as applier_module

        calls = []
        monkeypatch.setattr(applier_module, "_MALLOC_TRIM", calls.append)
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            for name in ("x", "y", "x"):
                wal.append(adds([name]))
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            assert applier.drain() == 3
            assert applier.apply_next_batch() == 0
        assert calls == [0, 0, 0]


class TestPersistedPatterns:
    def test_every_committed_version_matches_step3(self, tmp_path, seeded):
        store_dir, adds = seeded
        records = [
            DatabaseDelta.removing([0]),  # graph 0: renumbers every id
            adds(["y"]),
            DatabaseDelta.removing([2]),  # a middle graph
            adds(["y", "x"]),  # 2 adds reach min_count: full remine
            DatabaseDelta.removing([0, 3]),
        ]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        reused = 0
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            while applier.apply_next_batch():
                persisted = persisted_patterns(store_dir)
                assert persisted == step3_oracle(store_dir)
                store = PatternStore.open(store_dir)
                fresh = Taxogram(TaxogramOptions(min_support=0.3)).mine(
                    store.database, store.taxonomy
                )
                assert [row[:5] for row in persisted] == [
                    row[:5] for row in pattern_view(fresh.patterns)
                ]
            reused = applier.metrics.counter("incremental.classes_reused")
        assert reused > 0
        assert _store_digest(store_dir) == _store_digest(oracle)
        assert persisted_patterns(store_dir) == persisted_patterns(oracle)


def _counting_opens(monkeypatch):
    """Record every ``PatternStore.open`` call from here on."""
    calls = []
    real_open = PatternStore.open.__func__

    def counting(cls, directory):
        calls.append(directory)
        return real_open(cls, directory)

    monkeypatch.setattr(PatternStore, "open", classmethod(counting))
    return calls


class TestCarriedStore:
    """The applier keeps the store it committed between batches."""

    def test_batches_adopt_the_committed_store(
        self, tmp_path, seeded, monkeypatch
    ):
        store_dir, adds = seeded
        records = [adds(["y"]), DatabaseDelta.removing([1]), adds(["x"])]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            opens = _counting_opens(monkeypatch)
            assert applier.drain() == 3
        assert opens == []
        assert _store_digest(store_dir) == _store_digest(oracle)

    def test_exception_drops_the_carried_store(
        self, tmp_path, seeded, monkeypatch
    ):
        from repro.incremental import updater as updater_module

        store_dir, adds = seeded
        records = [adds(["y"]), DatabaseDelta.removing([0]), adds(["x"])]
        oracle = _offline_replay(store_dir, tmp_path / "oracle", records)
        real_specialize = updater_module.specialize_class

        def failing(*args, **kwargs):
            raise RuntimeError("injected Step-3 failure")

        with WriteAheadLog(tmp_path / "wal") as wal:
            for record in records:
                wal.append(record)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            # The failure lands after maintenance already appended the
            # add's embeddings to the in-memory columns.
            monkeypatch.setattr(updater_module, "specialize_class", failing)
            with pytest.raises(RuntimeError, match="injected"):
                applier.apply_next_batch()
            monkeypatch.setattr(
                updater_module, "specialize_class", real_specialize
            )
            opens = _counting_opens(monkeypatch)
            assert applier.apply_next_batch() == 1
            assert len(opens) == 1  # reopened from disk
            assert applier.drain() == 2
            assert len(opens) == 1  # carried again after the good batch
        assert applied_wal_seq(PatternStore.open(store_dir)) == 2
        assert _store_digest(store_dir) == _store_digest(oracle)
        assert persisted_patterns(store_dir) == step3_oracle(store_dir)

    def test_version_committed_elsewhere_is_reopened(
        self, tmp_path, seeded, monkeypatch
    ):
        store_dir, adds = seeded
        first, offline, second = (
            adds(["y"]),
            DatabaseDelta.removing([0]),
            adds(["x"]),
        )
        oracle = _offline_replay(
            store_dir, tmp_path / "oracle", [first, offline, second]
        )
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(first)
            wal.append(second)
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            assert applier.apply_next_batch() == 1
            # A valid new version lands in the live directory behind the
            # applier's back: its carried store is stale now.
            IncrementalTaxogram(store_dir).apply(offline)
            opens = _counting_opens(monkeypatch)
            assert applier.apply_next_batch() == 1
            assert len(opens) == 1
        assert _store_digest(store_dir) == _store_digest(oracle)

    def test_flipped_byte_in_live_store_raises(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append(adds(["y"]))
            wal.append(adds(["x"]))
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_batch_records=1)
            )
            assert applier.apply_next_batch() == 1
            path = store_dir / "classes.json"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
            with pytest.raises(StoreError, match="integrity check"):
                applier.apply_next_batch()
            assert applier.applied_seq == 0


class TestForkedBatches:
    def test_forked_batches_write_the_bytes_of_reopened_ones(
        self, tmp_path, seeded, monkeypatch
    ):
        """A batch on a fork of the carried store commits the same files,
        byte for byte, as one on a store parsed from the shadow copy."""
        store_dir, adds = seeded
        records = [
            adds(["y"]),
            DatabaseDelta.removing([2]),
            adds(["x", "q"]),  # a new edge label extends the interner
            DatabaseDelta.removing([0, 3]),
            adds(["y"], nodes=("d", "ghost")),  # rejected
        ]
        copies = {}
        for name, carried in (("forked", True), ("reopened", False)):
            directory = tmp_path / name
            shutil.copytree(store_dir, directory)
            with WriteAheadLog(tmp_path / f"{name}.wal") as wal:
                for record in records:
                    wal.append(record)
                applier = StreamApplier(
                    directory, wal, ApplierOptions(max_batch_records=2)
                )
                if not carried:
                    monkeypatch.setattr(
                        PatternStore,
                        "is_committed_copy",
                        lambda self, directory: False,
                    )
                assert applier.drain() == len(records)
                monkeypatch.undo()
            copies[name] = {
                path.name: path.read_bytes() for path in directory.iterdir()
            }
        assert copies["forked"] == copies["reopened"]


class TestBatchDeadline:
    """A batch closes ``max_latency_seconds`` after its first record was
    appended, not after the applier turned to it."""

    def test_overdue_record_applies_without_waiting(self, tmp_path, seeded):
        store_dir, adds = seeded
        latency = 1.0
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_latency_seconds=latency)
            )
            seq = wal.append(adds(["y"]))
            time.sleep(latency + 0.1)
            started = time.monotonic()
            applier.start()
            try:
                assert applier.wait_applied(seq, timeout=30.0)
                assert time.monotonic() - started < latency
            finally:
                applier.stop()

    def test_replayed_record_applies_at_once(self, tmp_path, seeded):
        store_dir, adds = seeded
        with WriteAheadLog(tmp_path / "wal") as wal:
            seq = wal.append(adds(["y"]))
        # Reopened, as at a restart: no append time for the record.
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.appended_at(seq) is None
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_latency_seconds=60.0)
            )
            applier.start()
            try:
                assert applier.wait_applied(seq, timeout=30.0)
            finally:
                applier.stop()

    def test_trickle_waits_out_the_latency(self, tmp_path, seeded):
        store_dir, adds = seeded
        latency = 0.3
        with WriteAheadLog(tmp_path / "wal") as wal:
            applier = StreamApplier(
                store_dir, wal, ApplierOptions(max_latency_seconds=latency)
            )
            applier.start()
            try:
                time.sleep(0.1)  # idle
                appended = time.monotonic()
                seq = wal.append(adds(["y"]))
                assert applier.wait_applied(seq, timeout=30.0)
                assert time.monotonic() - appended >= latency
            finally:
                applier.stop()
