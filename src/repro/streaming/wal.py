"""Segmented, checksummed write-ahead log of database deltas.

The WAL is the durable front door of the streaming pipeline: an ingest
request is acknowledged the moment its delta record is framed, written
and (by default) fsync'd here, long before the batching applier folds it
into the pattern store.  Records are :class:`~repro.incremental.delta.
DatabaseDelta` payloads numbered by a monotonic sequence; the applier
commits the highest applied sequence atomically with the store version,
so recovery is always "replay everything after the committed offset".

On-disk layout::

    <wal>/
      wal-00000000000000000000.seg     records 0..k-1
      wal-000000000000000000<k>.seg    records k..        (active)

Each segment is a concatenation of frames::

    [4-byte big-endian payload length][32-byte SHA-256 of payload][payload]

and is named after the sequence number of its first record, so sequence
numbering survives both restarts and the truncation of fully-applied
segments.  Opening the log scans the *active* (last) segment: a frame
that runs past end-of-file, or whose checksum fails on the very last
frame, is a torn append from a crash and is truncated away silently
(``streaming.wal_torn_records``); a checksum failure anywhere *before*
the tail is a bit flip and raises :class:`~repro.exceptions.WALError`
instead of dropping acknowledged data.  Earlier segments are verified
lazily as they are read back.

With ``compress`` set, a segment is rewritten as a compressed container
(:mod:`repro.util.compression`) the moment rotation seals it; the active
segment always stays raw so appends remain append-only.  Compression is
invisible above the file layer: every sequence-and-offset API —
:meth:`WriteAheadLog.segment_views`, :meth:`~WriteAheadLog.
read_segment_chunk`, :func:`decode_frames` — keeps speaking *logical*
(uncompressed) frame bytes, so replication shippers hash and followers
replay identical byte streams whether any primary, follower, or old
segment in the same fleet is compressed or not.  If a crash lands
between sealing and creating the next segment, reopening detects the
compressed tail file and treats it as sealed (it is complete by
construction) rather than appending raw frames into a container.

The log is thread-safe: HTTP handler threads append while the applier
thread reads, coordinated by one lock and a condition variable
(:meth:`WriteAheadLog.wait_for`).  Readers only ever see frames whose
write completed before ``next_seq`` advanced.  The log also remembers,
in memory only, when this process appended each record
(:meth:`WriteAheadLog.appended_at`): the applier's batch deadline runs
from that instant.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import CompressionError, WALError
from repro.incremental.delta import DatabaseDelta
from repro.observability.metrics import MetricsRegistry
from repro.util.compression import (
    container_raw_length,
    decode_container,
    encode_container,
    is_container,
    normalize_codec,
)
from repro.util.faultpoints import Faultpoints

__all__ = ["SegmentView", "WALRecord", "WriteAheadLog", "decode_frames"]

_HEADER = struct.Struct(">I")
_DIGEST_SIZE = 32
_FRAME_OVERHEAD = _HEADER.size + _DIGEST_SIZE
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"
_SEGMENT_DIGITS = 20


@dataclass(frozen=True)
class WALRecord:
    """One journaled delta with its log sequence number."""

    seq: int
    delta: DatabaseDelta

    def size(self) -> int:
        """Graphs touched (added + removed) — the batching size measure."""
        return self.delta.size()


def _segment_name(start_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{start_seq:0{_SEGMENT_DIGITS}d}{_SEGMENT_SUFFIX}"


@dataclass(frozen=True)
class SegmentView:
    """A point-in-time, read-only view of one segment.

    ``size_bytes`` is the *published* length: bytes whose append
    completed (and whose sequence was acknowledged) before the view was
    taken.  A concurrent append may grow the file past it, but the view
    is always frame-aligned — appends publish whole frames under the
    writer lock.  ``end_seq`` is exclusive.
    """

    start_seq: int
    end_seq: int
    size_bytes: int
    sealed: bool

    @property
    def name(self) -> str:
        return _segment_name(self.start_seq)

    @property
    def record_count(self) -> int:
        return self.end_seq - self.start_seq


def _encode(delta: DatabaseDelta) -> bytes:
    doc = {"add": delta.add_text, "remove": list(delta.remove_ids)}
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _decode(payload: bytes) -> DatabaseDelta:
    doc = json.loads(payload.decode("utf-8"))
    return DatabaseDelta(
        add_text=doc.get("add", ""),
        remove_ids=tuple(int(g) for g in doc.get("remove", ())),
    )


def _frame(payload: bytes) -> bytes:
    return (
        _HEADER.pack(len(payload))
        + hashlib.sha256(payload).digest()
        + payload
    )


def decode_frames(
    data: bytes, start_seq: int
) -> tuple[list[WALRecord], int]:
    """Strictly decode the complete frames at the head of ``data``.

    The reader-side counterpart of the framing in :meth:`WriteAheadLog.
    append`, for consumers that fetch raw segment byte ranges (a
    replication follower tailing a remote primary).  Returns
    ``(records, consumed_bytes)``: a trailing *partial* frame — a chunk
    boundary cutting a frame in half — is left unconsumed for the caller
    to complete with the next fetch.  A checksum mismatch or undecodable
    payload in a complete frame raises :class:`~repro.exceptions.
    WALError`: published byte ranges never end in a torn append, so a
    bad digest here is corruption, not a crash artifact.
    """
    records: list[WALRecord] = []
    offset = 0
    size = len(data)
    while True:
        frame_start = offset
        if size - offset < _FRAME_OVERHEAD:
            break
        (length,) = _HEADER.unpack_from(data, offset)
        if size - frame_start < _FRAME_OVERHEAD + length:
            break
        offset += _HEADER.size
        digest = data[offset:offset + _DIGEST_SIZE]
        offset += _DIGEST_SIZE
        payload = data[offset:offset + length]
        offset += length
        if hashlib.sha256(payload).digest() != digest:
            raise WALError(
                f"WAL frame for record {start_seq + len(records)} is "
                f"corrupt at byte {frame_start} (checksum mismatch)"
            )
        try:
            delta = _decode(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise WALError(
                f"WAL frame for record {start_seq + len(records)} holds "
                f"an undecodable payload at byte {frame_start}: {exc}"
            ) from exc
        records.append(WALRecord(start_seq + len(records), delta))
    return records, frame_start


class WriteAheadLog:
    """A durable, segmented delta journal under one directory.

    ``segment_max_bytes`` bounds segment size: an append that lands at
    or past the bound rotates to a fresh segment, so fully-applied
    history can be reclaimed file-by-file with
    :meth:`truncate_applied`.  ``fsync=False`` trades power-loss
    durability for speed (process crashes still lose nothing once the
    OS has the write).
    """

    def __init__(
        self,
        directory: str | Path,
        segment_max_bytes: int = 1 << 20,
        fsync: bool = True,
        metrics: MetricsRegistry | None = None,
        initial_seq: int = 0,
        compress: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.segment_max_bytes = max(1, segment_max_bytes)
        self.fsync = fsync
        # Codec for sealed segments ("auto"/"none" accepted); the active
        # segment is always raw.  A log opened without compression still
        # reads compressed segments left by an earlier configuration,
        # and vice versa — the container header is self-describing.
        self.compress = normalize_codec(compress)
        # First sequence number of a brand-new log.  Ignored when the
        # directory already holds segments; a replication follower that
        # bootstrapped its store from a snapshot uses it to start its
        # local journal at the snapshot's committed offset + 1.
        self._initial_seq = max(0, initial_seq)
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        # None unless REPRO_FAULTPOINTS_FILE is set (chaos harness).
        self._faultpoints = Faultpoints.from_env()
        self._lock = threading.Lock()
        self._appended = threading.Condition(self._lock)
        self._segments: list[int] = []  # start seqs, ascending
        self._next_seq = 0
        self._active_file = None
        # start seq -> (logical size, compressed?) for sealed segments,
        # and a one-slot decompressed-segment cache for chunk reads.
        self._sealed_info: dict[int, tuple[int, bool]] = {}
        self._chunk_cache: tuple[int, bytes] | None = None
        self.directory.mkdir(parents=True, exist_ok=True)
        self._open_segments()
        # time.monotonic() of each record this process appended, for
        # records _times_from.. (see appended_at); kept in memory only.
        self._append_times: deque[float] = deque()
        self._times_from = self._next_seq

    # -- opening / recovery ---------------------------------------------------

    def _segment_path(self, start_seq: int) -> Path:
        return self.directory / _segment_name(start_seq)

    def _open_segments(self) -> None:
        starts = sorted(
            int(p.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])
            for p in self.directory.iterdir()
            if p.name.startswith(_SEGMENT_PREFIX)
            and p.name.endswith(_SEGMENT_SUFFIX)
        )
        if not starts:
            starts = [self._initial_seq]
            self._segment_path(self._initial_seq).touch()
        self._segments = starts
        # Only the active segment can hold a torn append: every earlier
        # rotation completed, so earlier segments are verified lazily on
        # read-back.  Scanning the tail both repairs it and recovers
        # next_seq.
        last_start = starts[-1]
        last_path = self._segment_path(last_start)
        if self._file_is_compressed(last_path):
            # A rotation sealed and compressed this segment, then the
            # process died before creating the next active file.  The
            # segment is complete (compression happens only after the
            # last frame was fsync'd), so do not tail-repair it: treat
            # it as sealed and start a fresh active segment after it.
            records, _truncate, _torn = self._scan_segment(
                last_path, last_start, repair=False
            )
            self._next_seq = last_start + len(records)
            self._segments.append(self._next_seq)
            self._segment_path(self._next_seq).touch()
            self._fsync_directory()
        else:
            records, truncate_at, torn = self._scan_segment(
                last_path, last_start, repair=True
            )
            if truncate_at is not None:
                with open(last_path, "r+b") as handle:
                    handle.truncate(truncate_at)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.metrics.add("streaming.wal_torn_records", torn)
            self._next_seq = last_start + len(records)
        self._active_file = open(self._segment_path(self._segments[-1]), "ab")

    @staticmethod
    def _file_is_compressed(path: Path) -> bool:
        try:
            with open(path, "rb") as handle:
                return is_container(handle.read(4))
        except OSError:
            return False

    def _scan_segment(
        self, path: Path, start_seq: int, repair: bool
    ) -> tuple[list[WALRecord], int | None, int]:
        """Parse one segment file.

        Returns ``(records, truncate_at, torn)``: with ``repair=True`` a
        torn tail yields the byte offset to truncate at and the number
        of discarded frames instead of raising.  A checksum failure that
        is *not* the final frame always raises — that is corruption, not
        a crashed append.  Compressed (sealed) segments decompress
        transparently; their frames were complete before compression, so
        any damage inside one is corruption regardless of ``repair``.
        """
        data = path.read_bytes()
        if is_container(data[:4]):
            try:
                data, _ = decode_container(data)
            except CompressionError as exc:
                raise WALError(
                    f"WAL segment {path.name}: {exc}"
                ) from exc
            repair = False
        records: list[WALRecord] = []
        offset = 0
        size = len(data)
        while offset < size:
            frame_start = offset
            if size - offset < _FRAME_OVERHEAD:
                return self._torn(path, records, frame_start, repair)
            (length,) = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size
            digest = data[offset:offset + _DIGEST_SIZE]
            offset += _DIGEST_SIZE
            if size - offset < length:
                return self._torn(path, records, frame_start, repair)
            payload = data[offset:offset + length]
            offset += length
            if hashlib.sha256(payload).digest() != digest:
                if repair and offset == size:
                    # Checksum failure on the very last frame: either a
                    # torn append or a flip in it; both drop one
                    # unacknowledged-or-unreadable record at the tail.
                    return self._torn(path, records, frame_start, repair)
                raise WALError(
                    f"WAL segment {path.name} is corrupt at byte "
                    f"{frame_start} (checksum mismatch before the tail)"
                )
            try:
                delta = _decode(payload)
            except (ValueError, KeyError, TypeError) as exc:
                raise WALError(
                    f"WAL segment {path.name} holds an undecodable record "
                    f"at byte {frame_start}: {exc}"
                ) from exc
            records.append(WALRecord(start_seq + len(records), delta))
        return records, None, 0

    def _torn(
        self, path: Path, records: list[WALRecord], frame_start: int,
        repair: bool,
    ) -> tuple[list[WALRecord], int | None, int]:
        if not repair:
            raise WALError(
                f"WAL segment {path.name} ends in a torn record at byte "
                f"{frame_start} outside the active segment"
            )
        return records, frame_start, 1

    # -- appending ------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence of the newest record (-1 when the log is empty)."""
        with self._lock:
            return self._next_seq - 1

    def append(self, delta: DatabaseDelta) -> int:
        """Durably journal one delta; returns its sequence number.

        The record is on disk (and fsync'd unless disabled) before the
        sequence is published to readers, so an acknowledged append is
        never lost to a process crash.
        """
        payload = _encode(delta)
        frame = _frame(payload)
        with self._appended:
            if self._active_file is None:
                raise WALError(f"WAL {self.directory} is closed")
            if self._faultpoints is not None:
                # Fires BEFORE the frame reaches the file so an injected
                # write failure (errno 28: WAL volume full) leaves the
                # log byte-identical — nothing half-written to repair,
                # nothing acked.
                self._faultpoints.fire("wal.append")
            self._active_file.write(frame)
            self._active_file.flush()
            if self._faultpoints is not None:
                self._faultpoints.fire("wal.fsync")
            if self.fsync:
                os.fsync(self._active_file.fileno())
            seq = self._next_seq
            self._next_seq += 1
            self._append_times.append(time.monotonic())
            self.metrics.add("streaming.wal_appends", 1)
            self.metrics.add("streaming.wal_bytes", len(frame))
            if self._active_file.tell() >= self.segment_max_bytes:
                self._rotate_locked()
            self._appended.notify_all()
        return seq

    def _rotate_locked(self) -> None:
        self._active_file.close()
        if self.compress is not None:
            self._compress_sealed_locked(self._segments[-1])
        self._segments.append(self._next_seq)
        self._active_file = open(
            self._segment_path(self._next_seq), "ab"
        )
        self._fsync_directory()
        self.metrics.add("streaming.wal_rotations", 1)

    def _compress_sealed_locked(self, start_seq: int) -> None:
        """Rewrite the just-sealed segment as a compressed container.

        The rewrite goes through a temp file and an atomic replace, so a
        crash leaves either the raw segment or the complete container —
        never a truncated mix (``.tmp`` files do not match the segment
        name pattern and are ignored on reopen).
        """
        path = self._segment_path(start_seq)
        raw = path.read_bytes()
        packed = encode_container(raw, self.compress)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(packed)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        tmp.replace(path)
        self._sealed_info[start_seq] = (len(raw), True)
        self.metrics.add("streaming.wal_segments_compressed", 1)
        self.metrics.add(
            "streaming.wal_compression_saved_bytes", len(raw) - len(packed)
        )

    def _fsync_directory(self) -> None:
        if not self.fsync:
            return
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def appended_at(self, seq: int) -> float | None:
        """``time.monotonic()`` when this process appended record ``seq``.

        None for a record it did not append — one already in the journal
        when the log was opened, such as a record replayed after a
        restart — or one released by :meth:`forget_appended`.
        """
        with self._lock:
            index = seq - self._times_from
            if 0 <= index < len(self._append_times):
                return self._append_times[index]
            return None

    def forget_appended(self, applied_seq: int) -> None:
        """Drop the append times of records up to ``applied_seq``."""
        with self._lock:
            times = self._append_times
            while times and self._times_from <= applied_seq:
                times.popleft()
                self._times_from += 1

    # -- reading --------------------------------------------------------------

    def wait_for(self, seq: int, timeout: float | None = None) -> bool:
        """Block until record ``seq`` exists (True) or timeout (False)."""
        with self._appended:
            return self._appended.wait_for(
                lambda: self._next_seq > seq, timeout
            )

    def read_from(
        self, start_seq: int, max_records: int | None = None
    ) -> list[WALRecord]:
        """Records ``start_seq..`` in order, up to ``max_records``.

        Raises :class:`~repro.exceptions.WALError` when ``start_seq``
        predates the truncated history — an applier never asks for
        applied (hence truncatable) records, so that means offset
        bookkeeping was lost.
        """
        with self._lock:
            segments = list(self._segments)
            end_seq = self._next_seq
        if start_seq >= end_seq:
            return []
        if start_seq < segments[0]:
            raise WALError(
                f"WAL records before {segments[0]} were truncated; "
                f"cannot read from {start_seq}"
            )
        out: list[WALRecord] = []
        for index, seg_start in enumerate(segments):
            next_start = (
                segments[index + 1] if index + 1 < len(segments) else end_seq
            )
            if next_start <= start_seq:
                continue
            records, _truncate, _torn = self._scan_segment(
                self._segment_path(seg_start),
                seg_start,
                repair=index == len(segments) - 1,
            )
            for record in records:
                if record.seq < start_seq or record.seq >= end_seq:
                    continue
                out.append(record)
                if max_records is not None and len(out) >= max_records:
                    return out
        return out

    # -- read-only segment access (replication followers) ---------------------

    def _sealed_logical_locked(self, start_seq: int) -> tuple[int, bool]:
        """(logical size, compressed?) of a sealed segment, cached.

        Reads at most the container header, so reporting logical sizes
        never decompresses a segment.
        """
        info = self._sealed_info.get(start_seq)
        if info is None:
            path = self._segment_path(start_seq)
            with open(path, "rb") as handle:
                head = handle.read(64)
            if is_container(head[:4]):
                info = (container_raw_length(head), True)
            else:
                info = (path.stat().st_size, False)
            self._sealed_info[start_seq] = info
        return info

    def segment_views(self) -> list[SegmentView]:
        """Point-in-time views of every segment, oldest first.

        The writer lock is held only while the bounds are sampled —
        never across file I/O — so followers can tail segments with
        :meth:`read_segment_chunk` without stalling appends.  The active
        (last) segment's ``size_bytes`` is its published length; sealed
        segments are immutable until :meth:`truncate_applied` reclaims
        them.  ``size_bytes`` is always the *logical* (uncompressed)
        frame-byte count — compressed sealed segments report the same
        size they did before compression, keeping shipper manifests and
        follower offsets identical across mixed fleets.
        """
        with self._lock:
            segments = list(self._segments)
            end_seq = self._next_seq
            if self._active_file is not None:
                active_size = self._active_file.tell()
            else:
                active_size = self._segment_path(segments[-1]).stat().st_size
            views: list[SegmentView] = []
            for index, start in enumerate(segments[:-1]):
                views.append(
                    SegmentView(
                        start_seq=start,
                        end_seq=segments[index + 1],
                        size_bytes=self._sealed_logical_locked(start)[0],
                        sealed=True,
                    )
                )
            views.append(
                SegmentView(
                    start_seq=segments[-1],
                    end_seq=end_seq,
                    size_bytes=active_size,
                    sealed=False,
                )
            )
        return views

    def read_segment_chunk(
        self, start_seq: int, offset: int, max_bytes: int
    ) -> bytes:
        """Up to ``max_bytes`` published bytes of one segment at ``offset``.

        Reads through a separate handle — concurrent appends are never
        blocked — and clamps to the published length, so the returned
        bytes always end on a frame boundary *if* ``offset`` started on
        one (decode them with :func:`decode_frames`).  Raises
        :class:`~repro.exceptions.WALError` for a segment that does not
        exist (never written, or truncated after being applied).
        """
        if offset < 0 or max_bytes < 0:
            raise ValueError("offset and max_bytes must be non-negative")
        with self._lock:
            if start_seq not in self._segments:
                raise WALError(
                    f"WAL segment starting at {start_seq} does not exist "
                    f"(truncated or never written)"
                )
            is_active = (
                start_seq == self._segments[-1]
                and self._active_file is not None
            )
            compressed = False
            if is_active:
                published = self._active_file.tell()
            else:
                try:
                    published, compressed = self._sealed_logical_locked(
                        start_seq
                    )
                except OSError as exc:
                    raise WALError(
                        f"WAL segment starting at {start_seq} vanished "
                        f"while being read (truncated concurrently): {exc}"
                    ) from exc
        end = min(published, offset + max_bytes)
        if offset >= end:
            return b""
        if compressed:
            return self._sealed_bytes(start_seq)[offset:end]
        try:
            with open(self._segment_path(start_seq), "rb") as handle:
                handle.seek(offset)
                return handle.read(end - offset)
        except OSError as exc:
            raise WALError(
                f"WAL segment starting at {start_seq} vanished while "
                f"being read (truncated concurrently): {exc}"
            ) from exc

    def _sealed_bytes(self, start_seq: int) -> bytes:
        """Logical bytes of a compressed sealed segment.

        A one-slot cache keeps the common follower access pattern —
        many sequential chunk reads over one segment — from paying the
        decompression once per chunk.
        """
        with self._lock:
            cache = self._chunk_cache
        if cache is not None and cache[0] == start_seq:
            return cache[1]
        try:
            packed = self._segment_path(start_seq).read_bytes()
        except OSError as exc:
            raise WALError(
                f"WAL segment starting at {start_seq} vanished while "
                f"being read (truncated concurrently): {exc}"
            ) from exc
        try:
            data, _ = decode_container(packed)
        except CompressionError as exc:
            raise WALError(
                f"WAL segment starting at {start_seq}: {exc}"
            ) from exc
        with self._lock:
            self._chunk_cache = (start_seq, data)
        return data

    # -- maintenance ----------------------------------------------------------

    def truncate_applied(self, applied_seq: int) -> int:
        """Delete segments whose every record is ``<= applied_seq``.

        The active segment always survives (it receives the next
        append); returns the number of segments removed.
        """
        removed = 0
        with self._lock:
            while len(self._segments) > 1 and self._segments[1] <= applied_seq + 1:
                start = self._segments.pop(0)
                self._segment_path(start).unlink(missing_ok=True)
                self._sealed_info.pop(start, None)
                if self._chunk_cache and self._chunk_cache[0] == start:
                    self._chunk_cache = None
                removed += 1
        if removed:
            self._fsync_directory()
            self.metrics.add("streaming.wal_truncated_segments", removed)
        return removed

    def total_bytes(self) -> int:
        """Bytes currently held across all segments."""
        with self._lock:
            segments = list(self._segments)
        return sum(
            self._segment_path(s).stat().st_size
            for s in segments
            if self._segment_path(s).exists()
        )

    def close(self) -> None:
        with self._lock:
            if self._active_file is not None:
                self._active_file.close()
                self._active_file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False
