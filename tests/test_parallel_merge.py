"""Tests for :mod:`repro.parallel.merge`.

The central property: per-shard occurrence state, re-based and merged,
equals the state a single global build would produce — for every pattern
class, on both regular and DAG taxonomies.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.occurrence_index import build_occurrence_index
from repro.core.relabel import relabel_database
from repro.core.results import MiningCounters
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.mining.dfs_code import DFSCode, code_lt
from repro.mining.gspan import GSpanMiner
from repro.mining.projection import project_code
from repro.parallel.merge import (
    merge_support_sets,
    ClassFragment,
    merge_class_fragments,
    merge_label_supports,
    union_candidate_codes,
)
from repro.parallel.sharding import shard_database
from repro.util.bitset import BitSet
from repro.util.interner import LabelInterner
from tests.conftest import make_random_database, make_random_taxonomy


def _mined_setup(seed: int, dag: bool):
    rng = random.Random(seed)
    interner = LabelInterner()
    taxonomy = make_random_taxonomy(rng, interner, rng.randint(4, 8), dag=dag)
    db = make_random_database(rng, taxonomy, rng.randint(3, 6))
    relabeled = relabel_database(db, taxonomy)
    miner = GSpanMiner(
        relabeled.dmg, min_support=0.4, max_edges=3, keep_embeddings=True
    )
    return db, relabeled, miner.mine()


def _slice_fragments(db, relabeled, code, num_shards):
    """Worker-equivalent fragments via copy-based database slices."""
    manifest = shard_database(db, num_shards)
    fragments = []
    for shard in manifest.shards:
        local_dmg = GraphDatabase(db.node_labels, db.edge_labels)
        originals = []
        for graph in relabeled.dmg.graphs[shard.start : shard.stop]:
            local_dmg.add_graph(graph.copy())
            originals.append(relabeled.original_labels[graph.graph_id])
        embeddings = project_code(local_dmg, code)
        counters = MiningCounters()
        store, index = build_occurrence_index(
            code.num_vertices,
            embeddings,
            originals,
            relabeled.taxonomy,
            None,
            counters,
        )
        fragments.append(
            ClassFragment(
                shard_id=shard.shard_id,
                code=code.edges,
                occurrences=tuple(store.occurrences),
                entries=index.entries,
                index_updates=counters.occurrence_index_updates,
            )
        )
    return manifest, fragments


class TestMergeClassFragments:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    @pytest.mark.parametrize("dag", [False, True])
    def test_merged_state_equals_global_build(self, num_shards, dag):
        for seed in range(4):
            db, relabeled, patterns = _mined_setup(seed, dag)
            if len(db) < num_shards:
                continue
            assert patterns, f"seed {seed} produced no classes"
            for pattern in patterns:
                counters = MiningCounters()
                store, index = build_occurrence_index(
                    pattern.code.num_vertices,
                    pattern.embeddings,
                    relabeled.original_labels,
                    relabeled.taxonomy,
                    None,
                    counters,
                )
                manifest, fragments = _slice_fragments(
                    db, relabeled, pattern.code, num_shards
                )
                merged = merge_class_fragments(
                    fragments, [s.start for s in manifest.shards]
                )
                assert merged.occurrences == tuple(store.occurrences)
                assert merged.entries == index.entries
                assert merged.index_updates == counters.occurrence_index_updates
                assert merged.support_mask == pattern.support_mask
                assert merged.support_count == pattern.support_count
                assert merged.embedding_count == len(pattern.embeddings)

    def test_empty_fragment_list_rejected(self):
        with pytest.raises(MiningError, match="empty"):
            merge_class_fragments([], [])

    def test_out_of_order_fragments_rejected(self):
        fragment = ClassFragment(1, ((0, 1, 0, 0, 0),), (), ({},), 0)
        with pytest.raises(MiningError, match="shard order"):
            merge_class_fragments([fragment], [0, 2])

    def test_mismatched_codes_rejected(self):
        a = ClassFragment(0, ((0, 1, 0, 0, 0),), (), ({},), 0)
        b = ClassFragment(1, ((0, 1, 0, 0, 1),), (), ({},), 0)
        with pytest.raises(MiningError, match="different classes"):
            merge_class_fragments([a, b], [0, 2])


class TestMergeLabelSupports:
    def test_sums_per_label(self):
        merged = merge_label_supports([{1: 2, 2: 1}, {2: 3, 5: 1}, {}])
        assert merged == {1: 2, 2: 4, 5: 1}

    def test_partitioned_shards_sum_to_global(self):
        from repro.core.occurrence_index import generalized_label_supports

        db, relabeled, _patterns = _mined_setup(3, dag=True)
        whole = generalized_label_supports(db, relabeled.taxonomy)
        manifest = shard_database(db, 2)
        per_shard = []
        for shard in manifest.shards:
            part = GraphDatabase(db.node_labels, db.edge_labels)
            for graph in db.graphs[shard.start : shard.stop]:
                part.add_graph(graph.copy())
            per_shard.append(
                generalized_label_supports(part, relabeled.taxonomy)
            )
        assert merge_label_supports(per_shard) == whole


class TestUnionCandidateCodes:
    def test_dedupes_and_sorts_lexicographically(self):
        db, relabeled, patterns = _mined_setup(1, dag=False)
        codes = [p.code.edges for p in patterns]
        # The miner reports in DFS preorder == lexicographic order; a
        # scrambled, duplicated union must restore exactly that order.
        shuffled = list(reversed(codes)) + codes[: len(codes) // 2]
        merged = union_candidate_codes([shuffled, codes])
        assert merged == codes
        for earlier, later in zip(merged, merged[1:]):
            assert code_lt(earlier, later)

    def test_empty_union(self):
        assert union_candidate_codes([[], []]) == []


class TestMergeSupportSets:
    """Properties of the shifted-OR used by the replication router.

    The router merges per-shard graph-id answers with exactly this
    re-basing, so these properties are what make sharded ``support`` /
    ``graphs`` answers exact.
    """

    @staticmethod
    def _partition(rng: random.Random, total: int, shards: int):
        """Random contiguous partition: per-shard local ids + starts."""
        cuts = sorted(rng.randint(0, total) for _ in range(shards - 1))
        bounds = [0, *cuts, total]
        starts, per_shard = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            starts.append(lo)
            members = [g for g in range(lo, hi) if rng.random() < 0.5]
            per_shard.append([g - lo for g in members])
        return per_shard, starts

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        total=st.integers(min_value=0, max_value=64),
        shards=st.integers(min_value=1, max_value=6),
    )
    def test_rebasing_reconstructs_global_ids(self, seed, total, shards):
        rng = random.Random(seed)
        per_shard, starts = self._partition(rng, total, shards)
        expected = sorted(
            start + local
            for locals_, start in zip(per_shard, starts)
            for local in locals_
        )
        merged = merge_support_sets(per_shard, starts)
        assert list(BitSet.from_bits(merged)) == expected
        assert merged.bit_count() == len(expected)  # disjoint: no overlap

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        total=st.integers(min_value=1, max_value=48),
        shards=st.integers(min_value=2, max_value=6),
    )
    def test_merge_is_associative_over_shard_grouping(
        self, seed, total, shards
    ):
        """Merging all shards at once equals merging a prefix first and
        OR-ing the rest in — the order routers receive answers in must
        not matter."""
        rng = random.Random(seed)
        per_shard, starts = self._partition(rng, total, shards)
        whole = merge_support_sets(per_shard, starts)
        split = rng.randint(1, shards - 1)
        left = merge_support_sets(per_shard[:split], starts[:split])
        right = merge_support_sets(per_shard[split:], starts[split:])
        assert left | right == whole

    @given(shards=st.integers(min_value=1, max_value=5))
    def test_empty_shards_contribute_nothing(self, shards):
        starts = [i * 10 for i in range(shards)]
        merged = merge_support_sets([[] for _ in range(shards)], starts)
        assert merged.bit_count() == 0
        assert list(BitSet.from_bits(merged)) == []

    @given(
        gids=st.lists(
            st.integers(min_value=0, max_value=200), unique=True
        )
    )
    def test_single_shard_is_identity(self, gids):
        merged = merge_support_sets([gids], [0])
        assert list(BitSet.from_bits(merged)) == sorted(gids)
        assert merged.bit_count() == len(gids)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MiningError, match="shard answers"):
            merge_support_sets([[0], [1]], [0])
