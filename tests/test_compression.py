"""Compression layer tests: codecs, store round-trips, WAL parity.

Three claims, each load-bearing for the PR 9 compression work:

1. the self-describing container format round-trips under every
   available codec and fails loudly (``CompressionError``) for unknown
   or unavailable codecs — ``zstd`` included;
2. a compressed :class:`~repro.incremental.store.PatternStore` holds
   exactly the same logical content as a raw one, and legacy raw stores
   open unchanged (their manifests carry no ``compression`` block);
3. a WAL that compresses sealed segments exposes byte-identical
   *logical* segment views, chunks and shipper digests as a raw WAL
   over the same records — the mixed-fleet replication contract — and
   survives the crash window where the tail segment was compressed but
   no new active segment was created yet.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.exceptions import CompressionError, StoreError
from repro.incremental.delta import DatabaseDelta
from repro.incremental.store import PatternStore
from repro.replication.shipper import SegmentShipper
from repro.streaming.wal import WriteAheadLog, decode_frames
from repro.util.compression import (
    available_codecs,
    best_codec,
    container_raw_length,
    decode_container,
    encode_container,
    get_codec,
    is_container,
    normalize_codec,
)
from repro.util.interner import LabelInterner

from tests.conftest import (
    index_rows,
    make_random_database,
    make_random_taxonomy,
)


class TestContainerFormat:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_roundtrip(self, codec):
        for payload in (b"", b"x", b"abc" * 5000, bytes(range(256)) * 64):
            blob = encode_container(payload, codec)
            assert is_container(blob)
            assert container_raw_length(blob) == len(payload)
            raw, name = decode_container(blob)
            assert raw == payload
            assert name == codec

    def test_raw_bytes_are_not_containers(self):
        assert not is_container(b"")
        assert not is_container(b"RPZ")
        assert not is_container(b"\x00\x01\x02\x03" * 10)

    def test_unknown_codec_rejected(self):
        with pytest.raises(CompressionError):
            get_codec("lz77")
        with pytest.raises(CompressionError):
            normalize_codec("lz77")

    def test_normalize(self):
        assert normalize_codec(None) is None
        assert normalize_codec("none") is None
        assert normalize_codec("auto") == best_codec()
        assert normalize_codec("zlib") == "zlib"

    def test_zstd_absent_is_a_clear_error(self):
        with pytest.raises(CompressionError, match="zstd"):
            get_codec("zstd")
        assert "zlib" in available_codecs()
        assert best_codec() == "zlib"

    def test_corrupt_container_rejected(self):
        blob = encode_container(b"hello world" * 100, "zlib")
        with pytest.raises(CompressionError):
            decode_container(blob[:10])
        # Wrong declared length: flip the raw-length field.
        broken = bytearray(blob)
        broken[9] ^= 0x01
        with pytest.raises(CompressionError):
            decode_container(bytes(broken))


def _mine_store(tmp_path, name: str, compression: str | None):
    from repro.core.taxogram import Taxogram, TaxogramOptions

    rng = random.Random(7)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(rng, interner, 6, dag=True)
    database = make_random_database(rng, taxonomy, 5)
    options = TaxogramOptions(
        min_support=0.5,
        max_edges=2,
        store_out=str(tmp_path / name),
        store_compression=compression,
    )
    result = Taxogram(options).mine(database, taxonomy)
    return result, tmp_path / name


class TestStoreCompression:
    def test_compressed_store_matches_raw(self, tmp_path):
        raw_result, raw_dir = _mine_store(tmp_path, "raw", None)
        z_result, z_dir = _mine_store(tmp_path, "zlib", "zlib")
        assert [str(p) for p in raw_result.patterns] == [
            str(p) for p in z_result.patterns
        ]
        raw_store = PatternStore.open(raw_dir)
        z_store = PatternStore.open(z_dir)
        assert raw_store.compression is None
        assert z_store.compression == "zlib"
        assert [c.code for c in raw_store.classes] == [
            c.code for c in z_store.classes
        ]
        assert raw_store.border == z_store.border
        assert index_rows(raw_store) == index_rows(z_store)

    def test_manifest_negotiation(self, tmp_path):
        _, raw_dir = _mine_store(tmp_path, "raw", None)
        _, z_dir = _mine_store(tmp_path, "zlib", "zlib")
        raw_manifest = json.loads(
            (raw_dir / "manifest.json").read_text(encoding="utf-8")
        )
        z_manifest = json.loads(
            (z_dir / "manifest.json").read_text(encoding="utf-8")
        )
        # Raw stores stay on the legacy layout: no compression block,
        # same format version, plain JSON store files.
        assert "compression" not in raw_manifest
        assert raw_manifest["format_version"] == z_manifest["format_version"]
        block = z_manifest["compression"]
        assert block["codec"] == "zlib"
        for name, stats in block["files"].items():
            blob = (z_dir / name).read_bytes()
            assert is_container(blob)
            assert stats["stored"] == len(blob)
            assert container_raw_length(blob) == stats["raw"]
            assert (raw_dir / name).exists()
            assert not is_container((raw_dir / name).read_bytes())

    def test_compressed_store_saves_bytes(self, tmp_path):
        _, z_dir = _mine_store(tmp_path, "zlib", "zlib")
        store = PatternStore.open(z_dir)
        raw = sum(s["raw"] for s in store.compression_stats.values())
        stored = sum(s["stored"] for s in store.compression_stats.values())
        assert 0 < stored < raw

    def test_corrupt_compressed_file_is_a_store_error(self, tmp_path):
        _, z_dir = _mine_store(tmp_path, "zlib", "zlib")
        manifest_path = z_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        victim = sorted(manifest["compression"]["files"])[0]
        blob = bytearray((z_dir / victim).read_bytes())
        blob[-1] ^= 0xFF
        (z_dir / victim).write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            PatternStore.open(z_dir)

    def test_zstd_container_is_a_store_error_naming_the_codec(self, tmp_path):
        _, z_dir = _mine_store(tmp_path, "zlib", "zlib")
        manifest_path = z_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        victim = next(
            name
            for name in sorted(manifest["checksums"])
            if is_container((z_dir / name).read_bytes())
        )
        blob = (z_dir / victim).read_bytes()
        # Same-length codec name, so only the header's name field moves.
        renamed = blob.replace(b"\x04zlib", b"\x04zstd", 1)
        assert renamed != blob
        (z_dir / victim).write_bytes(renamed)
        manifest["checksums"][victim] = hashlib.sha256(renamed).hexdigest()
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreError, match="zstd"):
            PatternStore.open(z_dir)


def _fill_wal(directory, compress, n=24, segment_max_bytes=600):
    wal = WriteAheadLog(
        directory,
        segment_max_bytes=segment_max_bytes,
        fsync=False,
        compress=compress,
    )
    for i in range(n):
        wal.append(
            DatabaseDelta(add_text=f"# delta {i}\n" + "g\n" * (i % 5 + 1))
        )
    return wal


class TestWALCompression:
    def test_mixed_fleet_parity(self, tmp_path):
        """Raw and compressed WALs agree on every logical byte.

        Segment views, chunk reads and shipper digests are all defined
        over *uncompressed frame bytes*, so a follower syncing from a
        compressed primary sees exactly what a raw primary would send.
        """
        raw = _fill_wal(tmp_path / "raw", None)
        comp = _fill_wal(tmp_path / "comp", "zlib")
        try:
            raw_views = raw.segment_views()
            comp_views = comp.segment_views()
            assert [
                (v.start_seq, v.end_seq, v.size_bytes, v.sealed)
                for v in raw_views
            ] == [
                (v.start_seq, v.end_seq, v.size_bytes, v.sealed)
                for v in comp_views
            ]
            assert len(raw_views) > 2  # rotation actually happened
            for view in raw_views:
                a = raw.read_segment_chunk(view.start_seq, 0, 1 << 20)
                b = comp.read_segment_chunk(view.start_seq, 0, 1 << 20)
                assert a == b
                records, _ = decode_frames(b, view.start_seq)
                assert [r.seq for r in records] == list(
                    range(view.start_seq, view.start_seq + len(records))
                )
            # Interior chunk reads address logical offsets too.
            sealed = raw_views[0]
            assert raw.read_segment_chunk(
                sealed.start_seq, 10, 32
            ) == comp.read_segment_chunk(sealed.start_seq, 10, 32)
            raw_ship = SegmentShipper(raw, tmp_path / "raw-store")
            comp_ship = SegmentShipper(comp, tmp_path / "comp-store")
            raw_doc = raw_ship.manifest()
            comp_doc = comp_ship.manifest()
            assert raw_doc["segments"] == comp_doc["segments"]
            assert raw_doc["watermark"] == comp_doc["watermark"]
        finally:
            raw.close()
            comp.close()

    def test_sealed_files_are_actually_compressed(self, tmp_path):
        wal = _fill_wal(tmp_path / "wal", "zlib")
        try:
            views = wal.segment_views()
            paths = sorted(wal.directory.glob("*.seg"))
            assert len(paths) == len(views)
            for path, view in zip(paths, views):
                head = path.read_bytes()[:4]
                if view.sealed:
                    assert is_container(head)
                    # Physical file is smaller than the logical bytes.
                    assert path.stat().st_size < view.size_bytes
                else:
                    assert not is_container(head)
        finally:
            wal.close()

    def test_reopen_and_append(self, tmp_path):
        wal = _fill_wal(tmp_path / "wal", "zlib")
        last = wal.last_seq
        wal.close()
        reopened = WriteAheadLog(
            tmp_path / "wal", fsync=False, compress="zlib"
        )
        try:
            assert reopened.last_seq == last
            seq = reopened.append(DatabaseDelta(add_text="# after reopen\n"))
            assert seq == last + 1
            records = list(reopened.read_from(0))
            assert [r.seq for r in records] == list(range(last + 2))
        finally:
            reopened.close()

    def test_raw_log_reads_compressed_leftovers(self, tmp_path):
        """Turning compression off never strands old sealed segments."""
        wal = _fill_wal(tmp_path / "wal", "zlib")
        last = wal.last_seq
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal", fsync=False)
        try:
            assert reopened.last_seq == last
            assert [r.seq for r in reopened.read_from(0)] == list(
                range(last + 1)
            )
        finally:
            reopened.close()

    def test_crash_window_between_seal_and_new_active(self, tmp_path):
        """A compressed tail with no fresh active segment is recoverable.

        Rotation compresses the sealed segment and *then* creates the
        next active file; a crash in between leaves the newest on-disk
        segment compressed.  Reopen must treat it as sealed (it is
        complete by construction) and start a new active segment rather
        than appending raw frames into a container.
        """
        wal = _fill_wal(tmp_path / "wal", "zlib", n=6, segment_max_bytes=1 << 20)
        last = wal.last_seq
        wal.close()
        (active,) = sorted(tmp_path.joinpath("wal").glob("*.seg"))
        active.write_bytes(encode_container(active.read_bytes(), "zlib"))

        reopened = WriteAheadLog(
            tmp_path / "wal", fsync=False, compress="zlib"
        )
        try:
            assert reopened.last_seq == last
            views = reopened.segment_views()
            assert views[0].sealed and not views[-1].sealed
            seq = reopened.append(DatabaseDelta(add_text="# post crash\n"))
            assert seq == last + 1
            assert [r.seq for r in reopened.read_from(0)] == list(
                range(last + 2)
            )
        finally:
            reopened.close()

    def test_truncate_applied_drops_compressed_segments(self, tmp_path):
        wal = _fill_wal(tmp_path / "wal", "zlib")
        try:
            views = wal.segment_views()
            assert views[1].sealed
            dropped = wal.truncate_applied(views[1].end_seq)
            assert dropped >= 1
            remaining = wal.segment_views()
            assert remaining[0].start_seq > views[0].start_seq
            chunk = wal.read_segment_chunk(remaining[0].start_seq, 0, 1 << 20)
            records, _ = decode_frames(chunk, remaining[0].start_seq)
            assert records
        finally:
            wal.close()
