"""Live ingest service: the serving HTTP front plus a WAL pipeline.

:class:`IngestService` composes the whole streaming stack on one
:class:`~repro.serving.aserver.AsyncHTTPFront` (``server``): a
:class:`~repro.streaming.wal.WriteAheadLog` as the durable front door,
a background :class:`~repro.streaming.applier.StreamApplier` folding
journaled deltas into the pattern store, and a
:class:`~repro.serving.reader.StoreReader` answering queries against
whichever store version is committed.  The process holds one in-memory
store per version: the reader starts on the store the applier opened,
and the applier hands it each version it commits, at the directory
swap, so the reader never parses the directory.  Readers never observe
a half-applied batch — a batch works on a copy-on-write fork of the
committed store, and the shadow-swap commit means the store directory
always holds a complete, checksummed version for readers in other
processes.
``taxogram ingest --serve`` builds the same service with lag-aware
admission control on its front.

Endpoints added on top of the serving surface:

* ``POST /ingest`` — body ``{"add": <graph-db text>, "remove": [ids],
  "wait": bool}``.  Acknowledged (``202``, with the record's ``seq``)
  once the record is durably journaled; with ``"wait": true`` the
  response is delayed until the record's batch commits (``200``,
  read-your-writes).  When the journaled-but-unapplied backlog exceeds
  ``max_lag_records`` the request is shed with ``429`` and a
  ``Retry-After`` hint instead of letting the WAL grow without bound.
* ``POST /flush`` — apply everything journaled so far; returns the
  committed offset.
* ``GET /lag`` — journaled/applied offsets, backlog size, rejected
  record count, and applier liveness.

A crashed applier turns ``/ingest`` into ``503`` (the journal would
accept records nobody will ever apply) while leaving query endpoints
up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReproError
from repro.incremental.delta import DatabaseDelta
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.serving.admission import AdmissionController
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.endpoints import ingest_routes, serving_routes
from repro.serving.reader import StoreReader
from repro.streaming.applier import ApplierOptions, StreamApplier
from repro.streaming.wal import WriteAheadLog

__all__ = [
    "IngestOptions",
    "IngestService",
]


@dataclass(frozen=True)
class IngestOptions:
    """Admission and wait knobs for :class:`IngestService`.

    ``max_lag_records`` is the hard backpressure bound: once that many
    acknowledged records await application, further ingests are shed
    with 429 (``ingest --serve`` additionally sheds probabilistically
    *before* this bound via :mod:`repro.serving.admission`).
    ``wait_timeout_seconds`` caps ``"wait": true`` blocking.
    ``wal_compress`` names the codec sealed WAL segments are rewritten
    with at rotation (None keeps the raw frame layout; see
    :mod:`repro.streaming.wal` for the logical-byte contract that keeps
    replication digests stable either way).
    """

    max_lag_records: int = 1024
    wait_timeout_seconds: float = 60.0
    wal_compress: str | None = None


class IngestService:
    """WAL + applier + reader over one pattern store directory, served
    on its own HTTP front (``server``).

    Construction recovers the store (crash repair), opens it once for
    both the applier and the reader, checks the journal still holds
    every unapplied record, and binds the socket;
    once :meth:`start` is called the applier folds batches in the
    background.  :meth:`close` stops serving, drains pending records
    and releases everything; it is what SIGTERM handling calls for a
    graceful exit.

    ``metrics`` is the service's one registry: the WAL, applier, reader
    and front (and a :class:`~repro.replication.shipper.PrimaryService`'s
    shipper) all write into it, and ``GET /metrics`` renders it.
    ``admission`` is forwarded to the front; the default ``None``
    admits every request, leaving back-pressure to the
    ``max_lag_records`` bound.
    :class:`~repro.replication.shipper.PrimaryService` adds the
    segment-publishing endpoints on the same socket.
    """

    role = "primary"

    def __init__(
        self,
        store_dir: str | Path,
        wal_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        options: IngestOptions | None = None,
        applier_options: ApplierOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.options = options if options is not None else IngestOptions()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.wal = WriteAheadLog(
            wal_dir,
            metrics=self.metrics,
            compress=self.options.wal_compress,
        )
        self.applier = StreamApplier(
            store_dir,
            self.wal,
            options=applier_options,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.reader = StoreReader(
            store_dir,
            tracer=self.tracer,
            metrics=self.metrics,
            store=self.applier.committed,
        )
        self.applier.reader = self.reader
        self._closed = False
        routes = serving_routes(
            self.reader, role=self.role, health_extras=self.health_extras
        )
        routes.merge(ingest_routes(self))
        self.server = AsyncHTTPFront(
            routes, host, port, admission=admission, metrics=self.metrics
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def start(self) -> None:
        """Start the background applier."""
        self.applier.start()

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self, drain: bool = True) -> None:
        """Stop serving, optionally drain the backlog, release files."""
        if self._closed:
            return
        self._closed = True
        self.server.server_close()
        if drain and self.applier.error is None:
            self.applier.stop()
        self.wal.close()

    def health_extras(self) -> dict:
        return {
            "applier_alive": self.applier.error is None,
            "applied_seq": self.applier.applied_seq,
            "journaled_seq": self.wal.last_seq,
            "lag": self.applier.lag,
        }

    # -- ingest path ----------------------------------------------------------

    def ingest(
        self, delta: DatabaseDelta, wait: bool = False
    ) -> tuple[int, dict]:
        """Journal one delta; returns ``(http_status, payload)``."""
        error = self.applier.error
        if error is not None:
            return 503, {"error": f"stream applier failed: {error}"}
        lag = self.applier.lag
        if lag >= self.options.max_lag_records:
            self.metrics.add("streaming.ingest_shed", 1)
            return 429, {"error": "ingest backlog is full", "lag": lag}
        try:
            seq = self.wal.append(delta)
        except OSError as exc:
            # The WAL volume rejected the write (disk full, EIO...).
            # Nothing was acked and the log is untouched, so this is
            # back-pressure, not a server fault: shed with 429 like the
            # lag cliff and let the client retry once space frees up.
            self.metrics.add("streaming.ingest_disk_full", 1)
            return 429, {
                "error": f"WAL volume rejected the write: {exc}",
                "lag": lag,
            }
        self.metrics.add("streaming.ingest_accepted", 1)
        if not wait:
            return 202, {"seq": seq, "applied": False, "lag": lag + 1}
        try:
            applied = self.applier.wait_applied(
                seq, timeout=self.options.wait_timeout_seconds
            )
        except ReproError as exc:
            return 503, {"error": str(exc), "seq": seq}
        if not applied:
            return 504, {
                "error": "timed out waiting for application",
                "seq": seq,
            }
        return 200, {
            "seq": seq,
            "applied": True,
            "store_version": self.reader.refresh(),
        }

    def flush(self) -> bool:
        return self.applier.flush(self.options.wait_timeout_seconds)

    def lag_snapshot(self) -> dict:
        error = self.applier.error
        return {
            "journaled_seq": self.wal.last_seq,
            "applied_seq": self.applier.applied_seq,
            "lag": self.applier.lag,
            "rejected_records": len(self.applier.rejected),
            "applier_alive": error is None,
            "error": None if error is None else str(error),
        }
