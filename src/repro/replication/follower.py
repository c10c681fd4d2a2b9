"""Follower replicas: pull the primary's WAL, replay it locally.

A :class:`Follower` never invents state.  It tails the primary's
published segments (:mod:`repro.replication.shipper`), verifies every
frame checksum (and, for sealed segments it read from byte 0, the
whole-segment SHA-256 from the manifest), then **re-journals the decoded
records into its own local WAL** at the same sequence numbers.  From
there the standard :class:`~repro.streaming.applier.StreamApplier` takes
over: batches apply through shadow-copy + atomic rename, the applied
offset commits in the same manifest write as the store version, and
:func:`~repro.streaming.applier.recover_store` makes a ``kill -9`` at
any instant recoverable by idempotent replay.  The WAL encoding is
canonical (sorted-key JSON), so a re-journaled record is byte-identical
to the primary's frame.  One :class:`PrimaryClient` keeps its
connections to the primary alive from poll to poll.

Bootstrap: when the local store does not exist yet — or the primary has
truncated the history the follower still needs — the follower downloads
a fenced store snapshot, extracts it next to the store directory
(``<store>.bootstrap``), integrity-checks it, stamps its role, and
swaps it in with the same "stray directory is adopted or discarded on
startup" discipline the applier uses for its shadow copies.  The local
WAL is wiped *before* the swap and recreated starting at the snapshot's
committed offset + 1, so no crash window can pair a new-epoch store
with stale-epoch journal bytes.

:class:`FollowerService` wraps a follower in an HTTP front (read-only
query endpoints + ``/health`` reporting role, applied offset, lag and
sync liveness, ``/metrics`` including the sync counters) and a
background poll loop that alternates fetching and applying.  As in
:class:`~repro.streaming.service.IngestService`, the applier hands each
committed version to the service's reader in memory; a bootstrap that
replaces the applier hands the new one the reader too.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tarfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReplicationError, ReproError
from repro.incremental.store import PatternStore
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.replication.shipper import verify_manifest
from repro.serving.admission import AdmissionController
from repro.serving.aserver import AsyncHTTPFront
from repro.serving.client import HTTPClient
from repro.serving.endpoints import serving_routes
from repro.serving.reader import StoreReader
from repro.streaming.applier import (
    ApplierOptions,
    StreamApplier,
    applied_wal_seq,
    recover_store,
)
from repro.streaming.wal import WriteAheadLog, decode_frames

__all__ = [
    "Follower",
    "FollowerOptions",
    "FollowerService",
    "PrimaryClient",
]

_BOOTSTRAP_SUFFIX = ".bootstrap"
_STORE_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class FollowerOptions:
    """Sync knobs for :class:`Follower`.

    ``fetch_max_bytes`` bounds one segment byte-range request;
    ``secret`` turns on manifest signature verification (it must match
    the primary's); ``verify_segment_digests`` cross-checks every
    sealed segment read from byte 0 against its manifest SHA-256.
    """

    poll_interval_seconds: float = 0.2
    fetch_max_bytes: int = 1 << 18
    request_timeout_seconds: float = 30.0
    secret: str | None = None
    verify_segment_digests: bool = True


class PrimaryClient(HTTPClient):
    """The shipper's replication endpoints over pooled keep-alive
    connections (``replication.follower_connections_opened`` counts
    the ones opened).  An unreachable primary and any status but 200
    raise :class:`~repro.exceptions.ReplicationError`."""

    role = "primary"
    connections_counter = "replication.follower_connections_opened"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        secret: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if metrics is None:
            metrics = MetricsRegistry()
        super().__init__(base_url, timeout, metrics)
        self.secret = secret

    def get(self, path: str) -> tuple[bytes, dict]:
        try:
            return super().get(path)
        except OSError as exc:
            raise ReplicationError(
                f"primary {self.base_url} is unreachable: {exc}"
            ) from exc

    def manifest(self) -> dict:
        doc = json.loads(self.get("/replication/manifest")[0])
        if self.secret is not None and not verify_manifest(doc, self.secret):
            self.metrics.add("replication.signature_failures", 1)
            raise ReplicationError(
                f"manifest from {self.base_url} failed signature "
                f"verification"
            )
        return doc

    def segment_chunk(self, start_seq: int, offset: int, length: int) -> bytes:
        return self.get(
            f"/replication/segment?start={start_seq}"
            f"&offset={offset}&length={length}"
        )[0]

    def snapshot(self) -> tuple[int, bytes]:
        data, headers = self.get("/replication/snapshot")
        return int(headers.get("X-Store-Version", "0")), data


class Follower:
    """One replica: local store + local WAL, synced from a primary.

    Single-threaded by design — :meth:`sync_once` (fetch) and the
    applier's :meth:`~repro.streaming.applier.StreamApplier.drain`
    (apply) are driven by one loop, so bootstrap can tear the pair down
    without cross-thread coordination.  All durability comes from the
    streaming layer's commit protocol, not from this class.
    """

    def __init__(
        self,
        store_dir: str | Path,
        wal_dir: str | Path,
        primary_url: str,
        options: FollowerOptions | None = None,
        applier_options: ApplierOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.wal_dir = Path(wal_dir)
        self.options = options if options is not None else FollowerOptions()
        self.applier_options = applier_options
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.client = PrimaryClient(
            primary_url,
            timeout=self.options.request_timeout_seconds,
            secret=self.options.secret,
            metrics=self.metrics,
        )
        self.wal: WriteAheadLog | None = None
        self.applier: StreamApplier | None = None
        # The in-process reader every applier (a bootstrap replaces it)
        # hands its committed versions to.
        self.reader: StoreReader | None = None
        self.recovery: str | None = None
        self.bootstrapped = False
        self.last_watermark = -1
        self.last_sync_error: BaseException | None = None
        self._reset_cursor()
        self._settle_stray_bootstrap()

    # -- lifecycle ------------------------------------------------------------

    @property
    def applied_seq(self) -> int:
        return -1 if self.applier is None else self.applier.applied_seq

    def close(self) -> None:
        """Release the local WAL and the idle connections to the primary."""
        self._close_wal()
        self.client.close()

    def _close_wal(self) -> None:
        self.applier = None
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def __enter__(self) -> "Follower":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    # -- crash recovery of an interrupted bootstrap ---------------------------

    def _settle_stray_bootstrap(self) -> None:
        """Adopt or discard a ``<store>.bootstrap`` left by a crash.

        If the store (or a recoverable shadow of it) still exists, the
        interrupted bootstrap never reached its commit point and the
        stray is discarded; if only the completed bootstrap remains, it
        *is* the store — adopt it and wipe the (stale-epoch) WAL.
        """
        stray = self.store_dir.with_name(
            self.store_dir.name + _BOOTSTRAP_SUFFIX
        )
        if not stray.exists():
            return
        if self._store_exists():
            shutil.rmtree(stray)
            return
        if (stray / _STORE_MANIFEST).exists():
            if self.store_dir.exists():
                shutil.rmtree(self.store_dir)
            if self.wal_dir.exists():
                shutil.rmtree(self.wal_dir)
            stray.rename(self.store_dir)
            self.bootstrapped = True
            return
        shutil.rmtree(stray)  # torn download, never verified

    def _store_exists(self) -> bool:
        base = self.store_dir
        for candidate in (
            base,
            base.with_name(base.name + ".next"),
            base.with_name(base.name + ".prev"),
        ):
            if (candidate / _STORE_MANIFEST).exists():
                return True
        return False

    # -- bootstrap ------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Re-seed store + WAL from a fenced primary snapshot.

        Ordering is crash-safe: shadow dirs and the old WAL are wiped
        *before* the store swap, so recovery never pairs a new store
        with stale journal bytes, and :meth:`_settle_stray_bootstrap`
        makes every interruption land on "old state intact" or "new
        state adopted".
        """
        self.metrics.add("replication.bootstraps", 1)
        self._close_wal()
        version, data = self.client.snapshot()
        stray = self.store_dir.with_name(
            self.store_dir.name + _BOOTSTRAP_SUFFIX
        )
        if stray.exists():
            shutil.rmtree(stray)
        stray.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as archive:
            for member in archive.getmembers():
                parts = Path(member.name).parts
                if member.name.startswith("/") or ".." in parts:
                    raise ReplicationError(
                        f"snapshot member {member.name!r} escapes the "
                        f"store directory"
                    )
            archive.extractall(stray)
        # Integrity-check before adopting, and stamp the role so
        # ``taxogram info`` on the replica tells the truth immediately.
        store = PatternStore.open(stray)
        store.app_state["replication_role"] = "follower"
        store.app_state["replication_source"] = self.client.base_url
        store.save()
        del store
        base = self.store_dir
        for shadow in (
            base.with_name(base.name + ".next"),
            base.with_name(base.name + ".prev"),
        ):
            if shadow.exists():
                shutil.rmtree(shadow)
        if self.wal_dir.exists():
            shutil.rmtree(self.wal_dir)
        if base.exists():
            shutil.rmtree(base)
        stray.rename(base)
        self.bootstrapped = True
        self._reset_cursor()

    # -- opening --------------------------------------------------------------

    def _open(self) -> None:
        self.recovery = recover_store(self.store_dir)
        applied = applied_wal_seq(PatternStore.open(self.store_dir))
        self.wal = WriteAheadLog(
            self.wal_dir, metrics=self.metrics, initial_seq=applied + 1
        )
        self.applier = StreamApplier(
            self.store_dir,
            self.wal,
            options=self.applier_options,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.applier.app_state_extra.update(
            {
                "replication_role": "follower",
                "replication_source": self.client.base_url,
            }
        )
        if self.reader is not None:
            # A bootstrap replaced the store: serve the new one now.
            self.reader.adopt(lambda: self.applier.committed)
            self.applier.reader = self.reader
        self._reset_cursor()

    def ensure_open(self) -> None:
        """Bootstrap if no local store exists, then open WAL + applier."""
        if self.applier is not None:
            return
        if not self._store_exists():
            self._bootstrap()
        self._open()

    def _reset_cursor(self) -> None:
        self._cursor_start: int | None = None
        self._cursor_offset = 0
        self._buffer = b""
        self._buffer_seq = 0
        self._hasher: "hashlib._Hash | None" = None

    # -- syncing --------------------------------------------------------------

    def sync_once(self) -> int:
        """One manifest round: fetch every record up to the watermark
        into the local WAL.  Returns the number of records journaled.
        (Application is the applier's job — call ``applier.drain()`` or
        use :meth:`catch_up`.)
        """
        manifest = self.client.manifest()
        self.metrics.add("replication.polls", 1)
        self.ensure_open()
        watermark = int(manifest["watermark"])
        earliest = int(manifest["earliest_seq"])
        self.last_watermark = watermark
        if self.wal.next_seq > watermark:
            raise ReplicationError(
                f"local WAL is ahead of primary {self.client.base_url} "
                f"(local next {self.wal.next_seq}, watermark {watermark}); "
                f"refusing to follow a diverged log"
            )
        if self.wal.next_seq < earliest:
            # The primary truncated history we still need: re-seed.
            self._bootstrap()
            self._open()
            if self.wal.next_seq < earliest:
                raise ReplicationError(
                    f"snapshot from {self.client.base_url} is older than "
                    f"its own retained WAL (need {self.wal.next_seq}, "
                    f"earliest {earliest})"
                )
        fetched = self._fetch_into_wal(manifest)
        self.metrics.add("replication.records_fetched", fetched)
        return fetched

    def _segment_entry(self, manifest: dict, seq: int) -> dict:
        for entry in manifest["segments"]:
            if int(entry["start_seq"]) <= seq < int(entry["end_seq"]):
                return entry
        raise ReplicationError(
            f"manifest from {self.client.base_url} has no segment "
            f"holding record {seq}"
        )

    def _fetch_into_wal(self, manifest: dict) -> int:
        wal = self.wal
        watermark = int(manifest["watermark"])
        appended = 0
        while wal.next_seq < watermark:
            entry = self._segment_entry(manifest, wal.next_seq)
            start = int(entry["start_seq"])
            if self._cursor_start != start:
                self._cursor_start = start
                self._cursor_offset = 0
                self._buffer = b""
                self._buffer_seq = start
                self._hasher = hashlib.sha256()
            want = int(entry["bytes"]) - self._cursor_offset
            chunk = b""
            if want > 0:
                chunk = self.client.segment_chunk(
                    start,
                    self._cursor_offset,
                    min(want, self.options.fetch_max_bytes),
                )
                if self._hasher is not None:
                    self._hasher.update(chunk)
                self._cursor_offset += len(chunk)
                self._buffer += chunk
                self.metrics.add("replication.bytes_fetched", len(chunk))
            records, consumed = decode_frames(self._buffer, self._buffer_seq)
            for record in records:
                if record.seq < wal.next_seq:
                    continue  # already journaled locally
                if record.seq != wal.next_seq:
                    raise ReplicationError(
                        f"replication stream out of order: got record "
                        f"{record.seq}, expected {wal.next_seq}"
                    )
                # Canonical encoding makes this re-append byte-identical
                # to the primary's frame.
                wal.append(record.delta)
                appended += 1
            self._buffer = self._buffer[consumed:]
            self._buffer_seq += len(records)
            if (
                bool(entry["sealed"])
                and self._cursor_offset >= int(entry["bytes"])
            ):
                self._finish_sealed_segment(entry)
            elif not records and not chunk:
                break  # nothing more published yet this round
        return appended

    def _finish_sealed_segment(self, entry: dict) -> None:
        if self._buffer:
            raise ReplicationError(
                f"sealed segment {entry['name']} ends in "
                f"{len(self._buffer)} trailing bytes that frame no record"
            )
        expected = entry.get("sha256")
        if (
            self.options.verify_segment_digests
            and expected is not None
            and self._hasher is not None
            and self._cursor_offset == int(entry["bytes"])
            # Only meaningful when we hashed the segment from byte 0.
            and self._cursor_start is not None
        ):
            actual = self._hasher.hexdigest()
            if actual != expected:
                self.metrics.add("replication.digest_failures", 1)
                raise ReplicationError(
                    f"sealed segment {entry['name']} digest mismatch: "
                    f"manifest says {expected}, fetched bytes hash to "
                    f"{actual}"
                )
            self.metrics.add("replication.segments_verified", 1)
        self._cursor_start = None  # advance to the next segment

    def catch_up(self, timeout: float = 60.0) -> int:
        """Sync and apply until the local store reaches the primary's
        watermark as of each round; returns records journaled.
        """
        deadline = time.monotonic() + timeout
        total = 0
        while True:
            total += self.sync_once()
            self.applier.drain()
            if self.applier.applied_seq >= self.last_watermark - 1:
                return total
            if time.monotonic() > deadline:
                raise ReplicationError(
                    f"follower did not reach watermark "
                    f"{self.last_watermark} within {timeout}s "
                    f"(applied {self.applier.applied_seq})"
                )
            time.sleep(0.01)

    def lag(self) -> int:
        """Records behind the last known primary watermark."""
        return max(0, self.last_watermark - 1 - self.applied_seq)


class FollowerService:
    """A follower plus its HTTP face and background sync loop.

    Construction performs the first sync (bootstrapping if needed) so
    the reader has a store to open; :meth:`start` begins the poll loop;
    :meth:`close` stops it and releases the WAL.  Sync failures (the
    primary being down, a partition) are recorded — and visible in
    ``/health`` as ``sync_ok: false`` — while queries keep serving the
    last committed version.  ``metrics`` is the service's one registry,
    shared by the follower's client, WAL and applier, the reader and
    the front.  ``admission`` is forwarded to the front (``None`` admits
    every request).
    """

    def __init__(
        self,
        store_dir: str | Path,
        wal_dir: str | Path,
        primary_url: str,
        host: str = "127.0.0.1",
        port: int = 0,
        options: FollowerOptions | None = None,
        applier_options: ApplierOptions | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.follower = Follower(
            store_dir,
            wal_dir,
            primary_url,
            options=options,
            applier_options=applier_options,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.follower.sync_once()
        self.follower.applier.drain()
        self.reader = StoreReader(
            store_dir,
            tracer=tracer,
            metrics=self.metrics,
            store=self.follower.applier.committed,
        )
        self.follower.reader = self.reader
        self.follower.applier.reader = self.reader
        routes = serving_routes(
            self.reader, role="follower", health_extras=self.health_extras
        )
        self.server = AsyncHTTPFront(
            routes, host, port, admission=admission, metrics=self.metrics
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def health_extras(self) -> dict:
        """Follower liveness for ``GET /health``."""
        follower = self.follower
        error = follower.last_sync_error
        return {
            "applied_seq": follower.applied_seq,
            "source": follower.client.base_url,
            "watermark": follower.last_watermark,
            "lag": follower.lag(),
            "sync_ok": error is None,
            "sync_error": None if error is None else str(error),
        }

    def start(self) -> None:
        """Start the background fetch-and-apply loop."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="replication-follower", daemon=True
        )
        self._thread.start()

    def sync(self) -> None:
        """One fetch-and-apply round of the poll loop; a failure is
        recorded (``replication.sync_failures``), not raised."""
        try:
            self.follower.sync_once()
            self.follower.applier.drain()
            self.follower.last_sync_error = None
        except (ReproError, OSError) as exc:
            self.follower.last_sync_error = exc
            self.metrics.add("replication.sync_failures", 1)

    def _run(self) -> None:
        interval = self.follower.options.poll_interval_seconds
        while not self._stop.is_set():
            self.sync()
            self._stop.wait(interval)

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.server.server_close()
        self.follower.close()
