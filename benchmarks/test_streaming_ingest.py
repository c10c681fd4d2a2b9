"""Sustained micro-batch ingest through the WAL (beyond-paper).

Setup: the Figure 4.2 D5000 analog at ~500 graphs, sigma = 0.2, mined
once into a pattern store.  A stream of single-graph add records —
prefix graphs of the database duplicated, so realistic label/structure
mix — is journaled into the write-ahead log and drained through
:class:`~repro.streaming.applier.StreamApplier` in micro-batches.

Observations to reproduce in shape:

* **steady-state applies are pure bit-set work** — across the whole
  drain the incremental path performs zero isomorphism tests and zero
  silent full-remine fallbacks (the counters fold into the applier's
  registry, so the assertion covers every batch);
* **each store version runs Step 3 once** — the applier persists the
  version's pattern set, so the first ``top_k`` a reader answers after
  each batch adds zero ``serving.bitset_intersections``; the classes
  each batch reused untouched (``incremental.classes_reused``) are
  recorded per batch;
* the WAL's durability tax is bounded: the fsync'd append path is
  measured against an unsynced append of the same records and both
  per-record costs are reported alongside the end-to-end drain rate
  (the drain time sums the applier's batches only, not the reads).
"""

from __future__ import annotations

import shutil
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
from repro.incremental import DatabaseDelta
from repro.serving import StoreReader
from repro.streaming import ApplierOptions, StreamApplier, WriteAheadLog

SIGMA = 0.2
_GRAPH_SCALE = 0.1  # D5000 -> ~500 graphs at default scale
_TAXONOMY_SCALE = 0.01
N_RECORDS = 48
BATCH_RECORDS = 4


class _IngestPoint:
    """record_bench_point shim: record count + counter snapshot."""

    class _Counters:
        def __init__(self, counters):
            self._counters = counters

        def as_metrics(self):
            return dict(self._counters)

    def __init__(self, records: int, counters: dict) -> None:
        self._records = records
        self.counters = self._Counters(counters)

    def __len__(self) -> int:
        return self._records


@pytest.fixture(scope="module")
def mined_case(tmp_path_factory):
    database, taxonomy = dataset("D5000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    store_dir = tmp_path_factory.mktemp("streaming_bench") / "store"
    result = Taxogram(
        TaxogramOptions(
            min_support=SIGMA, max_edges=MAX_EDGES, store_out=str(store_dir)
        )
    ).mine(database, taxonomy)
    assert len(result) > 0
    records = []
    for gid in range(N_RECORDS):
        adds = GraphDatabase(database.node_labels, database.edge_labels)
        adds.add_graph(database[gid % len(database)].copy())
        records.append(DatabaseDelta.adding(adds))
    return store_dir, database, records


def _append_all(wal_dir, records, fsync):
    with WriteAheadLog(wal_dir, fsync=fsync) as wal:
        start = time.perf_counter()
        for record in records:
            wal.append(record)
        return time.perf_counter() - start, wal.total_bytes()


def test_sustained_ingest_drain(benchmark, tmp_path, mined_case):
    seed_dir, database, records = mined_case
    store_dir = tmp_path / "store"
    shutil.copytree(seed_dir, store_dir)

    fsync_seconds, wal_bytes = _append_all(tmp_path / "wal", records, True)
    nosync_seconds, _ = _append_all(tmp_path / "wal_nosync", records, False)

    with WriteAheadLog(tmp_path / "wal") as wal:
        applier = StreamApplier(
            store_dir,
            wal,
            ApplierOptions(max_batch_records=BATCH_RECORDS),
        )

        reader = StoreReader(store_dir)
        batch_seconds: list[float] = []
        batch_reused: list[int] = []
        top_intersections: list[int] = []

        def drain():
            consumed = 0
            while True:
                reused = metrics.counter("incremental.classes_reused")
                start = time.perf_counter()
                applied = applier.apply_next_batch()
                if not applied:
                    return consumed
                batch_seconds.append(time.perf_counter() - start)
                batch_reused.append(
                    metrics.counter("incremental.classes_reused") - reused
                )
                consumed += applied
                # The new version's first top: loaded, not re-specialized.
                reader.refresh()
                before = reader.metrics.counter("serving.bitset_intersections")
                reader.top_k(10)
                top_intersections.append(
                    reader.metrics.counter("serving.bitset_intersections")
                    - before
                )

        metrics = applier.metrics
        consumed = benchmark.pedantic(drain, rounds=1, iterations=1)
        drain_seconds = sum(batch_seconds)

    assert consumed == N_RECORDS
    assert applier.lag == 0
    assert applier.rejected == []

    batches = metrics.counter("streaming.batches_applied")
    label = f"+{N_RECORDS}r@{len(database)}g"
    point = _IngestPoint(N_RECORDS, metrics.as_dict()["counters"])
    record_bench_point("streaming_ingest_drain", label, drain_seconds, point)
    record_bench_point(
        "streaming_wal_append", label, fsync_seconds, point
    )
    for batch, (seconds, reused) in enumerate(
        zip(batch_seconds, batch_reused)
    ):
        record_bench_point(
            "streaming_ingest_classes_reused",
            f"{label}#b{batch}",
            seconds,
            _IngestPoint(
                BATCH_RECORDS, {"incremental.classes_reused": reused}
            ),
        )
    benchmark.extra_info["classes_reused_per_batch"] = batch_reused
    benchmark.extra_info["wal_fsync_seconds"] = fsync_seconds
    benchmark.extra_info["wal_nosync_seconds"] = nosync_seconds
    benchmark.extra_info["wal_bytes"] = wal_bytes

    print_header(
        "Sustained micro-batch ingest (WAL -> applier)",
        f"{'point':>12}  {'drain':>12}  {'rec/s':>12}  {'fsync/rec':>12}  "
        f"{'nosync/rec':>12}",
    )
    print_row(
        label,
        f"{drain_seconds * 1000:.0f}ms",
        f"{N_RECORDS / drain_seconds:.0f}",
        f"{fsync_seconds / N_RECORDS * 1e6:.0f}us",
        f"{nosync_seconds / N_RECORDS * 1e6:.0f}us",
    )

    # Acceptance: every batch ran on the incremental path with zero
    # isomorphism tests and no silent full-remine fallback; the stream
    # actually exercised micro-batching rather than one giant delta.
    assert batches >= N_RECORDS // BATCH_RECORDS
    assert metrics.counter("iso.tests") == 0
    assert metrics.counter("incremental.fallbacks") == 0
    assert metrics.counter("streaming.records_applied") == N_RECORDS
    assert wal_bytes > 0
    # Step 3 ran once per version, in the applier: every first top after
    # a batch read the persisted pattern set.
    assert len(top_intersections) == batches
    assert top_intersections == [0] * batches
