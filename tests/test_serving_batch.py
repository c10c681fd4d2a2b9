"""Focused error-path and scheduling tests for the batch executor.

Complements the ordering/isolation tests in ``test_serving.py``: what
happens when *every* slot fails, when the pool is forced down to one
worker, that distinct pattern classes genuinely overlap on the pool,
and that a failing group never abandons the other groups' slots.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.exceptions import ReproError
from repro.graphs.database import GraphDatabase
from repro.serving import BatchExecutor, Query, StoreReader
from repro.taxonomy.builders import taxonomy_from_parent_names

AB = "t # 0\nv 0 A\nv 1 B\ne 0 1 e\n"


@pytest.fixture
def reader(tmp_path):
    tax = taxonomy_from_parent_names(
        {"A": [], "B": [], "a1": "A", "a2": "A", "b1": "B"}
    )
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(["a1", "b1"], [(0, 1, "e")])
    db.new_graph(["a2", "b1"], [(0, 1, "e")])
    db.new_graph(["a1", "a2"], [(0, 1, "e")])
    store = tmp_path / "store"
    Taxogram(
        TaxogramOptions(min_support=0.5, store_out=str(store))
    ).mine(db, tax)
    return StoreReader(store)


class TestAllErrorBatch:
    def test_every_slot_fails_independently(self, reader):
        pattern = reader.parse_pattern(AB)
        results = BatchExecutor(reader).run(
            [
                Query("support"),  # missing pattern
                Query("definitely_not_an_op", pattern),
                Query("top_k", k=-1),  # negative k
            ]
        )
        assert len(results) == 3
        assert all(isinstance(r, ReproError) for r in results)

    def test_unknown_label_fails_at_query_not_batch(self, reader):
        """Parsing interns the stray label; the *query* slot errors."""
        stray = reader.parse_pattern("t # 0\nv 0 not_a_concept\n")
        good = reader.parse_pattern(AB)
        results = BatchExecutor(reader).run(
            [Query("support", stray), Query("support", good)]
        )
        assert isinstance(results[0], ReproError)
        assert "not_a_concept" in str(results[0])
        assert results[1].value == 2


class TestScheduling:
    def test_single_worker_still_answers_everything(self, reader):
        pattern = reader.parse_pattern(AB)
        queries = [Query("support", pattern), Query("top_k", k=1)] * 4
        results = BatchExecutor(reader, max_workers=1).run(queries)
        assert len(results) == 8
        assert not any(isinstance(r, ReproError) for r in results)

    def test_distinct_classes_overlap_on_the_pool(self, reader):
        """Two groups must be in flight at once when workers allow."""
        barrier = threading.Barrier(2, timeout=30)
        inner = reader

        class RendezvousReader:
            def class_key(self, pattern):
                return inner.class_key(pattern)

            def query(self, op, pattern=None, **kwargs):
                # Both groups must reach this point concurrently or
                # the barrier times out and the test fails loudly.
                barrier.wait()
                return inner.query(op, pattern, **kwargs)

        pattern = reader.parse_pattern(AB)
        results = BatchExecutor(RendezvousReader(), max_workers=2).run(
            [Query("support", pattern), Query("top_k", k=1)]
        )
        assert not any(isinstance(r, ReproError) for r in results)

    def test_group_failure_leaves_other_groups_answered(self, reader):
        inner = reader

        class HalfBrokenReader:
            def class_key(self, pattern):
                return inner.class_key(pattern)

            def query(self, op, pattern=None, **kwargs):
                if op == "top_k":
                    raise OSError("store directory vanished")
                return inner.query(op, pattern, **kwargs)

        pattern = reader.parse_pattern(AB)
        results = BatchExecutor(HalfBrokenReader()).run(
            [Query("top_k", k=1), Query("support", pattern),
             Query("top_k", k=2)]
        )
        assert isinstance(results[0], ReproError)
        assert isinstance(results[0].__cause__, OSError)
        assert isinstance(results[2], ReproError)
        assert results[1].value == 2

    def test_results_align_with_interleaved_groups(self, reader):
        """Slot alignment survives arbitrary group interleavings."""
        pattern = reader.parse_pattern(AB)
        queries = []
        for index in range(12):
            if index % 3 == 0:
                queries.append(Query("top_k", k=1 + index % 2))
            elif index % 3 == 1:
                queries.append(Query("support", pattern))
            else:
                queries.append(Query("support"))  # always an error
        results = BatchExecutor(reader, max_workers=3).run(queries)
        for index, result in enumerate(results):
            if index % 3 == 0:
                # The miniature store holds one pattern, so top_k
                # returns it regardless of k.
                assert 1 <= len(result.value) <= 1 + index % 2
            elif index % 3 == 1:
                assert result.value == 2
            else:
                assert isinstance(result, ReproError)
