"""Merging per-shard mining products into global, sequential-identical state.

Shards are contiguous graph-id ranges (:mod:`repro.parallel.sharding`),
so three merge operations recover exactly what a sequential run over the
whole database would have computed:

* **Label supports** — generalized size-1 supports are distinct-graph
  counts; shards partition the graphs, so per-shard counts sum to the
  global counts (:func:`merge_label_supports`).

* **Candidate classes** — each shard reports the minimum DFS codes of
  its locally frequent classes (at the relaxed threshold); the union,
  sorted in DFS-lexicographic order, enumerates a superset of the
  sequential class list *in the sequential report order* — gSpan's DFS
  preorder coincides with the lexicographic order on codes because a
  prefix precedes its extensions and sibling subtrees inherit their
  roots' order (:func:`union_candidate_codes`).

* **Occurrence state** — a class's occurrence ids are assigned in
  embedding-list order, which groups by ascending graph id; per-shard
  occurrence lists therefore concatenate in shard order, and per-shard
  occurrence-index entries re-base onto the global id space by shifting
  each shard's bit masks up by the number of occurrences before it and
  OR-ing.  Graph ids re-base by adding the shard's start offset
  (:func:`merge_class_fragments`).

The merged support (distinct global graph ids) is exact, so candidates
that were only locally frequent are discarded here — the superset
collapses back to precisely the sequential class set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import MiningError
from repro.mining.dfs_code import DFSEdge, code_key
from repro.util.bitset import BitSet

__all__ = [
    "ClassFragment",
    "MergedClass",
    "merge_label_supports",
    "merge_support_sets",
    "union_candidate_codes",
    "merge_class_fragments",
]


@dataclass(frozen=True)
class ClassFragment:
    """One shard's share of one candidate pattern class.

    ``occurrences`` lists ``(local_graph_id, mapped_nodes)`` in the
    shard's embedding order; ``entries`` is the shard-local occurrence
    index (per pattern position: covered label -> local occurrence
    bit-mask).  Both use shard-local id spaces; the merge re-bases them.
    A shard without embeddings of the class contributes an empty
    fragment.
    """

    shard_id: int
    code: tuple[DFSEdge, ...]
    occurrences: tuple[tuple[int, tuple[int, ...]], ...]
    entries: tuple[dict[int, int], ...]
    index_updates: int


@dataclass(frozen=True)
class MergedClass:
    """One candidate class in global id space, ready for Step 3.

    ``occurrences`` carry global graph ids; ``entries`` global
    occurrence bits.  ``support_mask`` is the exact global support
    (a graph-id mask), used to drop locally-frequent-only candidates.
    """

    code: tuple[DFSEdge, ...]
    occurrences: tuple[tuple[int, tuple[int, ...]], ...]
    entries: tuple[dict[int, int], ...]
    index_updates: int
    support_mask: int

    @property
    def embedding_count(self) -> int:
        return len(self.occurrences)

    @property
    def support_count(self) -> int:
        return self.support_mask.bit_count()


def merge_label_supports(
    per_shard: Iterable[dict[int, int]],
) -> dict[int, int]:
    """Sum per-shard generalized label supports into global supports."""
    merged: dict[int, int] = {}
    for supports in per_shard:
        for label, count in supports.items():
            merged[label] = merged.get(label, 0) + count
    return merged


def merge_support_sets(
    per_shard: Sequence[Iterable[int]],
    shard_starts: Sequence[int],
) -> int:
    """Re-base per-shard graph-id sets onto the global id space and OR.

    ``per_shard[s]`` holds shard ``s``'s local ids of the graphs
    containing some pattern; ``shard_starts[s]`` is the global id of the
    shard's first graph.  Because shards are disjoint contiguous ranges,
    the shifted OR is exact: the result is the pattern's global support
    mask, and its popcount the global support.  This is the same
    shift-and-OR re-basing :func:`merge_class_fragments` applies to
    occurrence bits and support masks; the replication query router
    uses it to merge per-shard ``graphs`` answers into one global
    support mask.
    """
    if len(per_shard) != len(shard_starts):
        raise MiningError(
            f"got {len(per_shard)} shard answers for "
            f"{len(shard_starts)} shard offsets"
        )
    merged = 0
    for gids, start in zip(per_shard, shard_starts):
        merged |= BitSet(gids).bits << start
    return merged


def union_candidate_codes(
    per_shard: Iterable[Sequence[tuple[DFSEdge, ...]]],
) -> list[tuple[DFSEdge, ...]]:
    """Distinct candidate codes in DFS-lexicographic (sequential) order."""
    distinct: set[tuple[DFSEdge, ...]] = set()
    for codes in per_shard:
        distinct.update(codes)
    return sorted(distinct, key=code_key)


def merge_class_fragments(
    fragments: Sequence[ClassFragment],
    shard_starts: Sequence[int],
) -> MergedClass:
    """Concatenate one class's shard fragments into global id space.

    ``fragments`` must hold exactly one fragment per shard, in shard
    order; ``shard_starts[s]`` is the global graph id of shard ``s``'s
    first graph.
    """
    if not fragments:
        raise MiningError("cannot merge an empty fragment list")
    code = fragments[0].code
    num_positions = len(fragments[0].entries)
    merged_entries: list[dict[int, int]] = [{} for _ in range(num_positions)]
    occurrences: list[tuple[int, tuple[int, ...]]] = []
    support = 0
    updates = 0
    offset = 0  # occurrences merged so far == this shard's bit shift
    for expected_shard, fragment in enumerate(fragments):
        if fragment.shard_id != expected_shard:
            raise MiningError(
                f"fragments out of shard order: expected shard "
                f"{expected_shard}, got {fragment.shard_id}"
            )
        if fragment.code != code:
            raise MiningError("cannot merge fragments of different classes")
        if len(fragment.entries) != num_positions:
            raise MiningError("fragment position counts disagree")
        start = shard_starts[fragment.shard_id]
        for local_gid, nodes in fragment.occurrences:
            occurrences.append((local_gid + start, nodes))
        local = BitSet([gid for gid, _nodes in fragment.occurrences]).bits
        support |= local << start
        for position, entry in enumerate(fragment.entries):
            target = merged_entries[position]
            for label, bits in entry.items():
                target[label] = target.get(label, 0) | (bits << offset)
        updates += fragment.index_updates
        offset += len(fragment.occurrences)
    return MergedClass(
        code=code,
        occurrences=tuple(occurrences),
        entries=tuple(merged_entries),
        index_updates=updates,
        support_mask=support,
    )
