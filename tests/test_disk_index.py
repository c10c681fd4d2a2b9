"""Tests for the disk-backed occurrence index (the paper's future work)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.disk_index import DiskOccurrenceIndex, build_disk_occurrence_index
from repro.core.occurrence_index import build_occurrence_index
from repro.core.results import MiningCounters
from repro.core.taxogram import Taxogram, TaxogramOptions, mine
from repro.exceptions import MiningError
from repro.mining.gspan import Embedding
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy


def _fixture():
    tax = taxonomy_from_parent_names({"b": "a", "c": "a", "d": "b"})
    ids = {n: tax.id_of(n) for n in "abcd"}
    originals = [[ids["d"], ids["c"]], [ids["b"], ids["c"]]]
    embeddings = [
        Embedding(0, (0, 1), frozenset()),
        Embedding(1, (0, 1), frozenset()),
        Embedding(1, (1, 0), frozenset()),
    ]
    return tax, originals, embeddings


class TestDiskIndex:
    def test_matches_memory_index(self, tmp_path):
        tax, originals, embeddings = _fixture()
        mem_store, mem_index = build_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters()
        )
        disk_store, disk_index = build_disk_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters(),
            directory=tmp_path,
        )
        try:
            assert len(disk_store) == len(mem_store)
            for position in range(2):
                assert disk_index.covered(position) == mem_index.covered(position)
                for label in mem_index.covered(position):
                    assert disk_index.bits(position, label) == mem_index.bits(
                        position, label
                    )
                    assert disk_index.covered_children(
                        position, label, tax
                    ) == mem_index.covered_children(position, label, tax)
        finally:
            disk_index.close()

    def test_spills_to_sqlite_with_tiny_staging(self, tmp_path):
        tax, originals, embeddings = _fixture()
        _store, index = build_disk_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters(),
            directory=tmp_path, max_resident_entries=1,
        )
        try:
            assert index.database_path.exists()
            assert index.database_path.stat().st_size > 0
            # Entries survive the spill/merge cycle.
            mem_store, mem_index = build_occurrence_index(
                2, embeddings, originals, tax, None, MiningCounters()
            )
            for position in range(2):
                for label in mem_index.covered(position):
                    assert index.bits(position, label) == mem_index.bits(
                        position, label
                    )
        finally:
            index.close()

    def test_uncovered_label_bits_zero(self, tmp_path):
        tax, originals, embeddings = _fixture()
        _store, index = build_disk_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters(),
            directory=tmp_path,
        )
        try:
            assert index.bits(1, tax.id_of("d")) == 0
            assert not index.is_covered(1, tax.id_of("d"))
        finally:
            index.close()

    def test_temporary_directory_cleanup(self):
        index = DiskOccurrenceIndex(1)
        path = index.database_path
        index.insert(0, 0, 1)
        index.finish()
        assert path.exists()
        index.close()
        assert not path.exists()  # temp dir removed

    def test_context_manager(self):
        with DiskOccurrenceIndex(1) as index:
            index.insert(0, 3, 0b1)
            index.finish()
            assert index.bits(0, 3) == 0b1

    def test_close_idempotent(self):
        index = DiskOccurrenceIndex(1)
        index.close()
        index.close()


class TestIncrementalMaintenance:
    def test_reopen_without_reset_preserves_rows(self, tmp_path):
        with DiskOccurrenceIndex(2, directory=tmp_path) as index:
            index.insert(0, 7, 0b101)
            index.insert(1, 9, 0b010)
            index.finish()
        with DiskOccurrenceIndex(2, directory=tmp_path, reset=False) as index:
            assert index.bits(0, 7) == 0b101
            assert index.bits(1, 9) == 0b010
            assert index.is_covered(0, 7)
            assert len(index.dump_rows()) == 2

    def test_clear_bits_masks_entries(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 3, 0b111)
            index.insert(0, 4, 0b100)
            index.finish()
            assert index.clear_bits(0b100) == 1  # label 4 emptied
            assert index.bits(0, 3) == 0b011
            assert index.bits(0, 4) == 0

    def test_clear_bits_deletes_emptied_rows(self, tmp_path):
        # Regression: an emptied entry must disappear entirely — a stale
        # zero-bit tombstone would re-enter specialization through
        # is_covered / covered_children with an empty occurrence set.
        tax = taxonomy_from_parent_names({"b": "a"})
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, tax.id_of("b"), 0b1)
            index.finish()
            index.clear_bits(0b1)
            assert not index.is_covered(0, tax.id_of("b"))
            assert index.covered(0) == {}
            assert index.covered_children(0, tax.id_of("a"), tax) == []
            assert len(index.dump_rows()) == 0

    def test_clear_bits_empty_mask_is_noop(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 1, 0b1)
            index.finish()
            assert index.clear_bits(0) == 0
            assert index.bits(0, 1) == 0b1

    def test_remap_bits_compacts_occurrence_ids(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 1, 0b1010)  # occurrences 1 and 3
            index.insert(0, 2, 0b0010)  # occurrence 1 only
            index.finish()
            index.remap_bits(0b1010)  # occurrence 1 -> 0, 3 -> 1
            assert index.bits(0, 1) == 0b11
            assert index.bits(0, 2) == 0b01

    def test_remap_bits_deletes_emptied_rows(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 1, 0b100)
            index.insert(0, 2, 0b011)
            index.finish()
            index.remap_bits(0b011)  # occurrence 2 dropped
            assert not index.is_covered(0, 1)
            assert len(index.dump_rows()) == 1
            assert index.bits(0, 2) == 0b011

    def test_clear_then_reopen_roundtrip(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 5, 0b110)
            index.finish()
            index.clear_bits(0b010)
        with DiskOccurrenceIndex(1, directory=tmp_path, reset=False) as index:
            assert index.bits(0, 5) == 0b100
            assert index.is_covered(0, 5)


class TestTaxogramDiskBackend:
    def test_identical_results_randomized(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=8, deadline=None)
        @given(st.integers(min_value=0, max_value=10_000))
        def check(seed):
            rng = random.Random(seed)
            interner = LabelInterner()
            tax = make_random_taxonomy(
                rng, interner, rng.randint(3, 7), dag=seed % 2 == 0
            )
            db = make_random_database(rng, tax, rng.randint(2, 4))
            memory = mine(db, tax, min_support=0.5, max_edges=2)
            disk = Taxogram(
                TaxogramOptions(
                    min_support=0.5,
                    max_edges=2,
                    occurrence_index_backend="disk",
                    disk_max_resident_entries=2,
                )
            ).mine(db, tax)
            assert disk.pattern_codes() == memory.pattern_codes()

        check()

    def test_identical_results(self):
        rng = random.Random(13)
        interner = LabelInterner()
        tax = make_random_taxonomy(rng, interner, 7, dag=True)
        db = make_random_database(rng, tax, 4)
        memory = mine(db, tax, min_support=0.5, max_edges=2)
        disk = Taxogram(
            TaxogramOptions(
                min_support=0.5,
                max_edges=2,
                occurrence_index_backend="disk",
                disk_max_resident_entries=4,
            )
        ).mine(db, tax)
        assert disk.pattern_codes() == memory.pattern_codes()

    def test_explicit_directory_used(self, tmp_path, go_excerpt, pathway_db):
        result = Taxogram(
            TaxogramOptions(
                min_support=1.0,
                occurrence_index_backend="disk",
                disk_index_directory=str(tmp_path),
            )
        ).mine(pathway_db, go_excerpt)
        assert result.patterns
        assert (tmp_path / "occurrence_index.sqlite3").exists()

    def test_unknown_backend_rejected(self, go_excerpt, pathway_db):
        with pytest.raises(MiningError, match="occurrence_index_backend"):
            Taxogram(
                TaxogramOptions(occurrence_index_backend="cloud")
            ).mine(pathway_db, go_excerpt)


class TestThreading:
    """Connection-sharing semantics: reads from any thread, writes only
    from the owner thread, read-only views fully immutable."""

    def _run(self, target):
        result: list[object] = []
        failure: list[BaseException] = []

        def call():
            try:
                result.append(target())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failure.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        thread.join()
        if failure:
            raise failure[0]
        return result[0]

    def test_cross_thread_read(self, tmp_path):
        # Regression: the single SQLite connection used to be created
        # with thread affinity, so a read from any other thread raised
        # sqlite3.ProgrammingError.  Readers now get a lazy per-thread
        # read-only connection.
        with DiskOccurrenceIndex(
            1, directory=tmp_path, max_resident_entries=1
        ) as index:
            index.insert(0, 3, 0b101)
            index.insert(0, 4, 0b010)
            index.finish()  # force SQLite residency
            assert self._run(lambda: index.bits(0, 3)) == 0b101
            assert set(self._run(lambda: index.covered(0))) == {3, 4}
            assert self._run(lambda: index.is_covered(0, 4))

    def test_cross_thread_mutation_rejected(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 3, 0b1)
            with pytest.raises(MiningError, match="thread that opened"):
                self._run(lambda: index.insert(0, 4, 0b1))
            with pytest.raises(MiningError, match="thread that opened"):
                self._run(lambda: index.clear_bits(0b1))

    def test_read_only_rejects_mutation(self, tmp_path):
        with DiskOccurrenceIndex(1, directory=tmp_path) as index:
            index.insert(0, 3, 0b11)
            index.finish()
        with DiskOccurrenceIndex(
            1, directory=tmp_path, reset=False, read_only=True
        ) as index:
            assert index.bits(0, 3) == 0b11
            with pytest.raises(MiningError, match="read-only"):
                index.insert(0, 4, 0b1)
            with pytest.raises(MiningError, match="read-only"):
                index.clear_bits(0b1)
            with pytest.raises(MiningError, match="read-only"):
                index.remap_bits(0b1)

    def test_read_only_requires_existing_rows(self, tmp_path):
        with pytest.raises(MiningError, match="read-only"):
            DiskOccurrenceIndex(1, directory=tmp_path, read_only=True)

    def test_dump_rows_merges_staged_and_flushed(self, tmp_path):
        with DiskOccurrenceIndex(
            2, directory=tmp_path, max_resident_entries=1
        ) as index:
            index.insert(0, 3, 0b1)   # spills
            index.insert(1, 5, 0b10)  # spills
            index.insert(1, 5, 0b100)  # staged on top of a flushed row
            assert index.dump_rows() == [(0, 3, 0b1), (1, 5, 0b110)]

    def test_concurrent_read_hammer(self, tmp_path):
        rng = random.Random(11)
        rows = {
            (position, label): rng.getrandbits(30) | 1
            for position in range(3)
            for label in range(8)
        }
        with DiskOccurrenceIndex(
            3, directory=tmp_path, max_resident_entries=2
        ) as index:
            for (position, label), bits in rows.items():
                index.insert(position, label, bits)
            index.finish()

            failures: list[BaseException] = []

            def reader(seed: int) -> None:
                local = random.Random(seed)
                try:
                    for _ in range(200):
                        position = local.randrange(3)
                        label = local.randrange(8)
                        assert index.bits(position, label) == rows[
                            (position, label)
                        ]
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures[:1]
