"""Primary-side segment publisher: the WAL as a replicated artifact.

:class:`SegmentShipper` exposes three things a follower needs:

* **Manifest** — a versioned snapshot of the log's shape: the offset
  watermark (``next_seq``), the earliest retained sequence, and one
  entry per segment with its published byte length and (for sealed
  segments) a cached SHA-256.  With a shared secret the manifest is
  HMAC-signed, so a follower can refuse to replay a forged log.
* **Segment byte ranges** — served straight off
  :meth:`~repro.streaming.wal.WriteAheadLog.read_segment_chunk`, which
  never blocks appends and always ends on a frame boundary.
* **Store snapshots** — a fence-bracketed tar of the committed store
  directory, for followers that have fallen behind truncated WAL
  history and must re-seed (same two-stable-fences discipline the
  :class:`~repro.serving.reader.StoreReader` uses for torn-free reads).

:class:`PrimaryService` is an :class:`~repro.streaming.service.
IngestService` whose front additionally mounts::

    GET /replication/manifest
    GET /replication/segment?start=S&offset=O&length=N
    GET /replication/snapshot

so one socket serves queries, ingestion and replication.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import json
import tarfile
import threading
import time
from pathlib import Path

from repro.exceptions import ReplicationError
from repro.incremental.store import fence_state
from repro.observability.metrics import MetricsRegistry
from repro.streaming.service import IngestService
from repro.streaming.wal import WriteAheadLog

__all__ = [
    "MANIFEST_FORMAT",
    "PrimaryService",
    "SegmentShipper",
    "sign_manifest",
    "verify_manifest",
]

MANIFEST_FORMAT = 1

# Default byte-range size for GET /replication/segment.
DEFAULT_CHUNK_BYTES = 1 << 18


def sign_manifest(doc: dict, secret: str) -> str:
    """HMAC-SHA256 over the canonical JSON of ``doc`` sans signature."""
    body = json.dumps(
        {k: v for k, v in doc.items() if k != "signature"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hmac.new(
        secret.encode("utf-8"), body.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def verify_manifest(doc: dict, secret: str) -> bool:
    """Constant-time check of a manifest's ``signature`` field."""
    signature = doc.get("signature")
    if not isinstance(signature, str):
        return False
    return hmac.compare_digest(signature, sign_manifest(doc, secret))


class SegmentShipper:
    """Publish one WAL (and its store) for follower consumption.

    Thread-safe: manifest versioning and the sealed-digest cache are
    guarded by one lock; byte ranges go straight to the WAL's read-only
    API.  ``manifest_version`` bumps whenever the published shape —
    retained segments or their published lengths — changes, so a
    follower can cheaply detect "nothing new".
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        store_dir: str | Path,
        secret: str | None = None,
        metrics: MetricsRegistry | None = None,
        fence_retries: int = 100,
        fence_wait: float = 0.02,
    ) -> None:
        self.wal = wal
        self.store_dir = Path(store_dir)
        self.secret = secret
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._fence_retries = max(1, fence_retries)
        self._fence_wait = fence_wait
        self._lock = threading.Lock()
        self._manifest_version = 0
        self._last_shape: tuple | None = None
        self._sealed_digests: dict[int, str] = {}

    # -- manifest -------------------------------------------------------------

    def manifest(self) -> dict:
        views = self.wal.segment_views()
        segments = []
        for view in views:
            entry = {
                "name": view.name,
                "start_seq": view.start_seq,
                "end_seq": view.end_seq,
                "bytes": view.size_bytes,
                "sealed": view.sealed,
            }
            if view.sealed:
                entry["sha256"] = self._sealed_digest(view.start_seq)
            segments.append(entry)
        shape = tuple((v.start_seq, v.size_bytes) for v in views)
        with self._lock:
            if shape != self._last_shape:
                self._manifest_version += 1
                self._last_shape = shape
            version = self._manifest_version
            # Drop digest-cache entries for truncated segments.
            retained = {v.start_seq for v in views}
            for start in list(self._sealed_digests):
                if start not in retained:
                    del self._sealed_digests[start]
        doc = {
            "format": MANIFEST_FORMAT,
            "manifest_version": version,
            "watermark": views[-1].end_seq,
            "earliest_seq": views[0].start_seq,
            "segments": segments,
        }
        if self.secret is not None:
            doc["signature"] = sign_manifest(doc, self.secret)
        self.metrics.add("replication.manifests_served", 1)
        return doc

    def _sealed_digest(self, start_seq: int) -> str:
        with self._lock:
            cached = self._sealed_digests.get(start_seq)
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        offset = 0
        while True:
            chunk = self.wal.read_segment_chunk(
                start_seq, offset, DEFAULT_CHUNK_BYTES
            )
            if not chunk:
                break
            hasher.update(chunk)
            offset += len(chunk)
        digest = hasher.hexdigest()
        with self._lock:
            self._sealed_digests[start_seq] = digest
        return digest

    # -- byte ranges ----------------------------------------------------------

    def read_chunk(self, start_seq: int, offset: int, max_bytes: int) -> bytes:
        data = self.wal.read_segment_chunk(start_seq, offset, max_bytes)
        self.metrics.add("replication.segment_bytes_served", len(data))
        return data

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> tuple[int, bytes]:
        """``(store_version, tar.gz bytes)`` of a committed store state.

        Bracketed by two stable, equal version fences: the applier's
        shadow-swap bumps the version on every commit, so equal fences
        mean no commit landed while the files were read — the archive
        is a torn-free store image.
        """
        for _attempt in range(self._fence_retries):
            before, stable = fence_state(self.store_dir)
            if before is None or not stable:
                time.sleep(self._fence_wait)
                continue
            buffer = io.BytesIO()
            try:
                with tarfile.open(fileobj=buffer, mode="w:gz") as archive:
                    for path in sorted(self.store_dir.rglob("*")):
                        if path.is_file():
                            archive.add(
                                path,
                                arcname=str(
                                    path.relative_to(self.store_dir)
                                ),
                            )
            except OSError:
                # The store directory was swapped mid-walk; retry.
                time.sleep(self._fence_wait)
                continue
            after, stable = fence_state(self.store_dir)
            if stable and after == before:
                self.metrics.add("replication.snapshots_served", 1)
                return before, buffer.getvalue()
            time.sleep(self._fence_wait)
        raise ReplicationError(
            f"store {self.store_dir} kept changing while building a "
            f"snapshot"
        )


class PrimaryService(IngestService):
    """An ingest service that also publishes its WAL for followers
    (``taxogram ingest --serve --publish``).

    ``secret`` turns on manifest signing.  The applier keeps its default
    WAL truncation: a follower that outlives the retained history
    re-seeds itself from ``GET /replication/snapshot``.
    """

    def __init__(
        self,
        store_dir: str | Path,
        wal_dir: str | Path,
        secret: str | None = None,
        **kwargs: object,
    ) -> None:
        from repro.serving.endpoints import replication_routes

        super().__init__(store_dir, wal_dir, **kwargs)
        self.shipper = SegmentShipper(
            self.wal, Path(store_dir), secret=secret, metrics=self.metrics
        )
        # Not serving yet, so the front's table can still grow.
        self.server.routes.merge(replication_routes(self.shipper))
        # Stamp the role into app_state with each committed batch so
        # ``taxogram info`` can report it offline.
        self.applier.app_state_extra["replication_role"] = "primary"
