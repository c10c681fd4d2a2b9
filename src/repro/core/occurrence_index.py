"""Taxonomy-projected occurrence indices (paper §3, Step 2).

For one pattern class, the *occurrence store* registers every occurrence
(embedding) of the class's most general pattern, numbered
``graph#.occurrence#`` exactly as in the paper, and keeps a per-graph bit
mask so that support (distinct containing graphs) of any occurrence
bit-set is a popcount-style scan.

The *occurrence index* holds one entry (OIE) per pattern node position: a
mapping from covered taxonomy label to the bit-set of occurrences whose
node at that position carries an original label generalized by it.  The
index is exactly the paper's sub-taxonomy projection — the sub-taxonomy
structure itself is recovered on demand through
:meth:`OccurrenceIndex.covered_children`, which walks taxonomy children
restricted to covered labels.

Occurrence sets are raw Python ints (see :mod:`repro.util.bitset` for the
user-facing wrapper); AND + popcount keeps Step 3 free of isomorphism
tests (Lemma 7).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.results import MiningCounters
from repro.graphs.database import GraphDatabase
from repro.mining.gspan import Embedding
from repro.taxonomy.taxonomy import Taxonomy

__all__ = [
    "OccurrenceStore",
    "OccurrenceIndex",
    "build_occurrence_index",
    "generalized_label_supports",
]


class OccurrenceStore:
    """Registry of the occurrences of one pattern class.

    :class:`repro.incremental.delta.OccurrenceColumns` extends it with
    tombstoned (``None``) occurrences; :attr:`all_bits` is the one place
    that knows which occurrences are live, so the support kernel below
    serves both classes.
    """

    __slots__ = ("occurrences", "_graph_masks")

    def __init__(self) -> None:
        # occurrence id -> (graph id, mapped nodes); ids are dense.
        self.occurrences: list[tuple[int, tuple[int, ...]] | None] = []
        self._graph_masks: dict[int, int] = {}

    def add(self, graph_id: int, nodes: tuple[int, ...]) -> int:
        occ_id = len(self.occurrences)
        self.occurrences.append((graph_id, nodes))
        self._graph_masks[graph_id] = self._graph_masks.get(graph_id, 0) | (
            1 << occ_id
        )
        return occ_id

    def __len__(self) -> int:
        return len(self.occurrences)

    @property
    def all_bits(self) -> int:
        """Mask of every live occurrence."""
        return (1 << len(self.occurrences)) - 1

    def support_count(self, bits: int) -> int:
        """Distinct graphs with at least one live occurrence in ``bits``.

        Adaptive kernel: when the candidate set is much smaller than the
        number of graphs, walking its set bits and collecting owning
        graph ids is O(popcount) instead of the O(#graphs) mask scan —
        the dominant cost of the specialize phase on large databases.
        Both strategies return identical counts.
        """
        if bits == 0:
            return 0
        live = self.all_bits
        if bits == live:
            return len(self._graph_masks)
        if bits.bit_count() * 4 < len(self._graph_masks):
            occurrences = self.occurrences
            graphs: set[int] = set()
            # Clamping to the live mask skips tombstoned occurrences (their
            # graphs' masks are gone, so the dense scan skips them too).
            probe = bits & live
            while probe:
                low = probe & -probe
                graphs.add(occurrences[low.bit_length() - 1][0])
                probe ^= low
            return len(graphs)
        return sum(1 for mask in self._graph_masks.values() if mask & bits)

    def support_set(self, bits: int) -> frozenset[int]:
        """Graph ids with at least one occurrence in ``bits``."""
        return frozenset(
            gid for gid, mask in self._graph_masks.items() if mask & bits
        )

    def occurrence_ids(self, bits: int) -> list[str]:
        """Render set members as the paper's ``graph#.occurrence#`` ids."""
        per_graph: dict[int, int] = {}
        out: list[str] = []
        probe = bits
        while probe:
            low = probe & -probe
            occ_id = low.bit_length() - 1
            probe ^= low
            gid = self.occurrences[occ_id][0]
            per_graph[gid] = per_graph.get(gid, 0) + 1
            out.append(f"G{gid}.{per_graph[gid]}")
        return out


class OccurrenceIndex:
    """One occurrence-index entry (label -> occurrence bit-set) per
    pattern-node position."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[dict[int, int]]) -> None:
        self.entries: tuple[dict[int, int], ...] = tuple(entries)

    @property
    def num_positions(self) -> int:
        return len(self.entries)

    def bits(self, position: int, label: int) -> int:
        """Occurrence set of ``label`` at ``position`` (0 if uncovered)."""
        return self.entries[position].get(label, 0)

    def covered(self, position: int) -> dict[int, int]:
        """The full OIE at ``position``: covered label -> occurrence bits."""
        return self.entries[position]

    def is_covered(self, position: int, label: int) -> bool:
        return label in self.entries[position]

    def covered_children(
        self, position: int, label: int, taxonomy: Taxonomy
    ) -> list[int]:
        """Children of ``label`` that are covered at ``position`` — the
        sub-taxonomy edges of the paper's OIE."""
        entry = self.entries[position]
        return [c for c in taxonomy.children_of(label) if c in entry]


def build_occurrence_index(
    num_positions: int,
    embeddings: Iterable[Embedding],
    original_labels: list[list[int]],
    taxonomy: Taxonomy,
    allowed_labels: frozenset[int] | None = None,
    counters: MiningCounters | None = None,
) -> tuple[OccurrenceStore, OccurrenceIndex]:
    """Register embeddings and project them onto the taxonomy.

    For each occurrence and each pattern position, the node's *original*
    label and all of its ancestors receive the occurrence id — the
    paper's index-construction updates (Lemma 5 counts these).  With
    ``allowed_labels`` set (efficiency enhancement (b)), labels outside
    the set are skipped: they cannot reach the support threshold, so no
    pattern will ever need their occurrence sets.
    """
    store = OccurrenceStore()
    entries: list[dict[int, int]] = [{} for _ in range(num_positions)]
    updates = 0
    ancestor_cache: dict[int, tuple[int, ...]] = {}
    for emb in embeddings:
        occ_bit = 1 << store.add(emb.graph_id, emb.nodes)
        graph_originals = original_labels[emb.graph_id]
        for position, node in enumerate(emb.nodes):
            original = graph_originals[node]
            ancestors = ancestor_cache.get(original)
            if ancestors is None:
                pool = taxonomy.ancestors_or_self(original)
                if allowed_labels is not None:
                    pool = pool & allowed_labels
                ancestors = tuple(pool)
                ancestor_cache[original] = ancestors
            entry = entries[position]
            for label in ancestors:
                entry[label] = entry.get(label, 0) | occ_bit
                updates += 1
    if counters is not None:
        counters.occurrence_index_updates += updates
        counters.oie_entries += sum(len(entry) for entry in entries)
    return store, OccurrenceIndex(entries)


def generalized_label_supports(
    database: GraphDatabase, taxonomy: Taxonomy
) -> dict[int, int]:
    """Generalized size-1 support per taxonomy label.

    ``result[l]`` is the number of distinct graphs containing at least
    one node whose label is ``l`` or a descendant of ``l`` — i.e. the
    support of the single-node pattern labeled ``l`` under generalized
    isomorphism.  Backs efficiency enhancement (b) and TAcGM's candidate
    label pool.
    """
    counts: dict[int, int] = {}
    for graph in database:
        reached: set[int] = set()
        for label in set(graph.node_labels()):
            reached |= taxonomy.ancestors_or_self(label)
        for label in reached:
            counts[label] = counts.get(label, 0) + 1
    return counts
