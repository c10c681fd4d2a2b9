"""Durable streaming ingestion for taxonomy-superimposed mining.

The streaming layer turns the incremental maintenance of
:mod:`repro.incremental` into a crash-safe online pipeline:

* :mod:`repro.streaming.wal` — a segmented, checksummed write-ahead log
  that makes an ingest durable before it is applied;
* :mod:`repro.streaming.applier` — a batching applier that folds WAL
  records into the pattern store through shadow-swap commits, recording
  the applied WAL offset atomically with the store version so a
  ``kill -9`` at any instant recovers by idempotent replay;
* :mod:`repro.streaming.service` — the PR-4 serving endpoints plus
  ``POST /ingest`` (with backpressure and read-your-writes),
  ``POST /flush`` and ``GET /lag``.
"""

from repro.streaming.applier import (
    ApplierOptions,
    StreamApplier,
    applied_wal_seq,
    recover_store,
)
from repro.streaming.service import (
    IngestOptions,
    IngestService,
)
from repro.streaming.wal import (
    SegmentView,
    WALRecord,
    WriteAheadLog,
    decode_frames,
)

__all__ = [
    "ApplierOptions",
    "IngestOptions",
    "IngestService",
    "SegmentView",
    "StreamApplier",
    "WALRecord",
    "WriteAheadLog",
    "applied_wal_seq",
    "decode_frames",
    "recover_store",
]
