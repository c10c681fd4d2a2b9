"""Tests for occurrence stores and taxonomy-projected occurrence indices."""

from __future__ import annotations

import random

import pytest

from repro.core.occurrence_index import (
    AncestorTable,
    OccurrenceStore,
    build_occurrence_index,
    generalized_label_supports,
)
from repro.core.relabel import relabel_database
from repro.core.results import MiningCounters
from repro.graphs.database import GraphDatabase
from repro.mining.gspan import Embedding, GSpanMiner
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy


class TestOccurrenceStore:
    def test_add_and_masks(self):
        store = OccurrenceStore()
        assert store.add(0, (1, 2)) == 0
        assert store.add(0, (2, 1)) == 1
        assert store.add(3, (0, 1)) == 2
        assert len(store) == 3
        assert store.all_bits == 0b111

    def test_support_counts_distinct_graphs(self):
        store = OccurrenceStore()
        store.add(0, (1,))
        store.add(0, (2,))
        store.add(1, (1,))
        assert store.support_count(0b011) == 1  # both occurrences in graph 0
        assert store.support_count(0b101) == 2
        assert store.support_count(0b000) == 0
        assert store.support_count(store.all_bits) == 2

    def test_support_set(self):
        store = OccurrenceStore()
        store.add(4, (1,))
        store.add(9, (1,))
        assert store.support_mask(0b01) == 1 << 4
        assert store.support_mask(0b11) == 1 << 4 | 1 << 9

    def test_occurrence_ids_paper_notation(self):
        store = OccurrenceStore()
        store.add(1, (0,))
        store.add(1, (1,))
        store.add(2, (0,))
        assert store.occurrence_ids(0b111) == ["G1.1", "G1.2", "G2.1"]


def _tax():
    return taxonomy_from_parent_names(
        {"a": [], "b": "a", "c": "a", "d": "b"}
    )


class TestBuildOccurrenceIndex:
    def test_projection_covers_ancestors(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d, c]]
        embeddings = [Embedding(0, (0, 1), frozenset())]
        counters = MiningCounters()
        store, index = build_occurrence_index(
            2, embeddings, originals, tax, None, counters
        )
        assert len(store) == 1
        # Position 0 saw original d -> covers d, b, a.
        assert set(index.covered(0)) == {d, b, a}
        # Position 1 saw original c -> covers c, a.
        assert set(index.covered(1)) == {c, a}
        assert index.bits(0, d) == 0b1
        assert index.bits(1, c) == 0b1
        assert index.bits(0, c) == 0  # uncovered labels yield empty sets
        assert counters.occurrence_index_updates == 5

    def test_multiple_occurrences_accumulate_bits(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[b, c], [d, d]]
        embeddings = [
            Embedding(0, (0, 1), frozenset()),
            Embedding(1, (0, 1), frozenset()),
            Embedding(1, (1, 0), frozenset()),
        ]
        store, index = build_occurrence_index(
            2, embeddings, originals, tax, None, MiningCounters()
        )
        assert index.bits(0, a) == 0b111
        assert index.bits(0, b) == 0b111  # b covers b and d originals
        assert index.bits(0, c) == 0  # c never appears at position 0
        assert index.bits(0, d) == 0b110
        assert index.bits(1, c) == 0b001
        assert index.bits(1, d) == 0b110

    def test_allowed_labels_filter(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d]]
        embeddings = [Embedding(0, (0,), frozenset())]
        store, index = build_occurrence_index(
            1, embeddings, originals, tax,
            allowed_labels=frozenset({a, b}),
            counters=MiningCounters(),
        )
        assert set(index.covered(0)) == {a, b}  # d filtered out

    def test_covered_children_follow_taxonomy(self):
        tax = _tax()
        a, b, c, d = (tax.id_of(n) for n in "abcd")
        originals = [[d]]
        embeddings = [Embedding(0, (0,), frozenset())]
        _store, index = build_occurrence_index(
            1, embeddings, originals, tax, None, MiningCounters()
        )
        assert index.covered_children(0, a, tax) == [b]  # c uncovered
        assert index.covered_children(0, b, tax) == [d]
        assert index.covered_children(0, d, tax) == []
        assert index.is_covered(0, b)
        assert not index.is_covered(0, c)
        assert index.num_positions == 1


def _reference_index(num_positions, embeddings, originals, taxonomy, allowed):
    """The per-occurrence projection loop: one OR per occurrence, position
    and allowed ancestor, each counted as one Lemma 5 update."""
    store = OccurrenceStore()
    entries: list[dict[int, int]] = [{} for _ in range(num_positions)]
    updates = 0
    for emb in embeddings:
        occ_bit = 1 << store.add(emb.graph_id, emb.nodes)
        for position, node in enumerate(emb.nodes):
            pool = taxonomy.ancestors_or_self(originals[emb.graph_id][node])
            if allowed is not None:
                pool = pool & allowed
            for label in tuple(pool):
                entries[position][label] = (
                    entries[position].get(label, 0) | occ_bit
                )
                updates += 1
    return store, entries, updates


class TestGroupedProjection:
    @pytest.mark.parametrize(
        "filtered", [False, True], ids=["all", "allowed"]
    )
    @pytest.mark.parametrize(
        "shared_table", [False, True], ids=["own", "shared"]
    )
    def test_matches_per_occurrence_reference(self, filtered, shared_table):
        classes = largest = 0
        for seed in range(6):
            rng = random.Random(seed)
            raw_taxonomy = make_random_taxonomy(
                rng, LabelInterner(), rng.randint(4, 8), dag=True
            )
            db = make_random_database(rng, raw_taxonomy, rng.randint(6, 10))
            # Mine most-general classes as Step 2 does, so a class has
            # many occurrences per original label.
            relabeled = relabel_database(db, raw_taxonomy)
            taxonomy, originals = relabeled.taxonomy, relabeled.original_labels
            labels = sorted(taxonomy.labels())
            allowed = (
                frozenset(rng.sample(labels, len(labels) // 2))
                if filtered
                else None
            )
            table = AncestorTable(taxonomy, allowed) if shared_table else None
            miner = GSpanMiner(
                relabeled.dmg, min_support=0.3, max_edges=3,
                keep_embeddings=True,
            )
            for pattern in miner.mine():
                classes += 1
                largest = max(largest, len(pattern.embeddings))
                positions = pattern.code.num_vertices
                counters = MiningCounters()
                store, index = build_occurrence_index(
                    positions, pattern.embeddings, originals, taxonomy,
                    allowed, counters, ancestors=table,
                )
                ref_store, ref_entries, ref_updates = _reference_index(
                    positions, pattern.embeddings, originals, taxonomy, allowed
                )
                assert store.occurrences == ref_store.occurrences
                assert list(index.entries) == ref_entries
                for entry, ref_entry in zip(index.entries, ref_entries):
                    assert list(entry) == list(ref_entry)  # same label order
                assert counters.occurrence_index_updates == ref_updates
                assert counters.oie_entries == sum(map(len, ref_entries))
        assert classes > 0, "no seed produced patterns; test exercised nothing"
        assert largest > 16, "no class spans several bytes of occurrence ids"


class TestGeneralizedLabelSupports:
    def test_counts_distinct_graphs_via_ancestors(self):
        tax = _tax()
        db = GraphDatabase(node_labels=tax.interner)
        db.new_graph(["d", "d"], [(0, 1)])
        db.new_graph(["c"], [])
        db.new_graph(["b"], [])
        supports = generalized_label_supports(db, tax)
        assert supports[tax.id_of("a")] == 3
        assert supports[tax.id_of("b")] == 2  # graphs 0 (via d) and 2
        assert supports[tax.id_of("c")] == 1
        assert supports[tax.id_of("d")] == 1
