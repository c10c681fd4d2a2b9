"""Taxonomy-projected occurrence indices (paper §3, Step 2).

For one pattern class, the *occurrence store* registers every occurrence
(embedding) of the class's most general pattern, numbered
``graph#.occurrence#`` exactly as in the paper.  Each graph's
occurrences hold contiguous ids (a *run*), so the support (distinct
containing graphs) of any occurrence bit-set is four big-int operations
on two cached run masks: the run-carry kernel of DESIGN.md §3.

The *occurrence index* holds one entry (OIE) per pattern node position: a
mapping from covered taxonomy label to the bit-set of occurrences whose
node at that position carries an original label generalized by it.  The
index is exactly the paper's sub-taxonomy projection — the sub-taxonomy
structure itself is recovered on demand through
:meth:`OccurrenceIndex.covered_children`, which walks taxonomy children
restricted to covered labels.

Occurrence sets and the support masks derived from them are raw Python
ints (see :mod:`repro.util.bitset`); AND + the run-carry count keeps
Step 3 free of isomorphism tests (Lemma 7).
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.results import MiningCounters
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.mining.gspan import Embedding
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.bitset import BitSet, bit_flags

__all__ = [
    "AncestorTable",
    "OccurrenceStore",
    "OccurrenceIndex",
    "build_occurrence_index",
    "generalized_label_supports",
    "index_occurrences",
    "project_occurrences",
]

class OccurrenceStore:
    """Registry of the occurrences of one pattern class; a graph's
    occurrences must be added together (else :class:`MiningError`).

    :class:`repro.incremental.delta.OccurrenceColumns` extends it with
    tombstoned (``None``) occurrences, which belong to no run.
    """

    __slots__ = ("occurrences", "_graph_ids", "_runs")

    def __init__(self) -> None:
        # occurrence id -> (graph id, mapped nodes); ids are dense.
        self.occurrences: list[tuple[int, tuple[int, ...]] | None] = []
        self._graph_ids = 0  # bit-set of the graph ids that own a run
        self._runs: tuple[int, int, list] | None = None  # see _run_masks

    def add(self, graph_id: int, nodes: tuple[int, ...]) -> int:
        occurrences = self.occurrences
        tail = occurrences[-1] if occurrences else None
        if tail is None or tail[0] != graph_id:
            if self._graph_ids >> graph_id & 1:
                raise MiningError(f"graph {graph_id}'s occurrences are split")
            self._graph_ids |= 1 << graph_id
        occurrences.append((graph_id, nodes))
        self._runs = None
        return len(occurrences) - 1

    def __len__(self) -> int:
        return len(self.occurrences)

    @property
    def all_bits(self) -> int:
        """Mask of every live occurrence: the union of the runs."""
        inner, last, _owners = self._runs or self._run_masks()
        return inner | last

    def _run_masks(self) -> tuple[int, int, list[int | None]]:
        """Cache ``(inner, last, owners)``: each run's top bit is in
        ``last``, its other bits in ``inner``; tombstones are in neither.
        ``owners[occ_id]`` is the occurrence's graph id (``None`` for a
        tombstone)."""
        gids = [column and column[0] for column in self.occurrences]
        inner, last = [], []
        for gid, after in zip(gids, [*gids[1:], None]):
            inner.append("01"[gid is not None and gid == after])
            last.append("01"[gid is not None and gid != after])
        self._runs = (
            *(int("".join(reversed(d)) or "0", 2) for d in (inner, last)),
            gids,
        )
        return self._runs

    def support_count(self, bits: int) -> int:
        """Distinct graphs with at least one live occurrence in ``bits``.

        Adding ``inner`` carries into a run's top bit exactly when a lower
        bit of the run is in ``bits``, and stops there (the top bit is 0
        in both operands); OR-ing ``bits`` back covers a set top bit.
        """
        inner, last, _owners = self._runs or self._run_masks()
        return ((((bits & inner) + inner) | bits) & last).bit_count()

    def support_mask(self, bits: int) -> int:
        """Graph-id mask of the run top bits :meth:`support_count` counts.

        Each hit is the top bit of a distinct graph's run, so summing the
        owners' bits is their union; ``compress`` picks them in C.
        """
        inner, last, owners = self._runs or self._run_masks()
        hits = (((bits & inner) + inner) | bits) & last
        return sum(map((1).__lshift__, compress(owners, bit_flags(hits))))

    def occurrence_ids(self, bits: int) -> list[str]:
        """Render set members as the paper's ``graph#.occurrence#`` ids."""
        per_graph: dict[int, int] = {}
        out: list[str] = []
        for occ_id in BitSet.from_bits(bits):
            gid = self.occurrences[occ_id][0]
            per_graph[gid] = per_graph.get(gid, 0) + 1
            out.append(f"G{gid}.{per_graph[gid]}")
        return out


class OccurrenceIndex:
    """One occurrence-index entry (label -> occurrence bit-set) per
    pattern-node position.

    The entries never change after the index is built, and an index is
    always walked under the taxonomy it was projected onto, so
    :meth:`covered_children` answers each (position, label) once and
    keeps the list for the life of the index.
    """

    __slots__ = ("entries", "_children")

    def __init__(self, entries: Sequence[dict[int, int]]) -> None:
        self.entries: tuple[dict[int, int], ...] = tuple(entries)
        self._children: dict[tuple[int, int], list[int]] = {}

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
        sub-taxonomy edges of the paper's OIE.  The list is shared by
        every call for the same (position, label); do not mutate it."""
        key = (position, label)
        children = self._children.get(key)
        if children is None:
            entry = self.entries[position]
            children = self._children[key] = [
                c for c in taxonomy.children_of(label) if c in entry
            ]
        return children


class AncestorTable(dict):
    """``original label -> allowed ancestors-or-self``, filled on first use.

    One table serves every class of a mine: the taxonomy and the allowed
    labels (efficiency enhancement (b)) are fixed for the whole run, so
    each label's projection target is computed once, not once per class.
    """

    __slots__ = ("taxonomy", "allowed_labels")

    def __init__(
        self, taxonomy: Taxonomy, allowed_labels: frozenset[int] | None = None
    ) -> None:
        super().__init__()
        self.taxonomy = taxonomy
        self.allowed_labels = allowed_labels

    def __missing__(self, label: int) -> tuple[int, ...]:
        pool = self.taxonomy.ancestors_or_self(label)
        if self.allowed_labels is not None:
            pool = pool & self.allowed_labels
        ancestors = self[label] = tuple(pool)
        return ancestors


def project_occurrences(
    register: Callable[[int, tuple[int, ...]], int],
    embeddings: Iterable[Embedding | tuple[int, tuple[int, ...]]],
    original_labels: Sequence[Sequence[int]],
    ancestors: Mapping[int, tuple[int, ...]],
) -> tuple[list[tuple[int, tuple[int, ...], int]], int]:
    """Register embeddings and group their taxonomy projection.

    Each embedding starts with ``(graph_id, nodes)``: an
    :class:`~repro.mining.gspan.Embedding` or a stored occurrence.
    ``register(graph_id, nodes)`` returns each embedding's occurrence id.
    The ids are grouped per (position, original label); each group's
    bit-set is built once, to be OR-ed into every allowed ancestor of the
    label.  Returns ``(position, ancestors, bits)`` per group, by
    position and then in order of first appearance, and the paper's
    per-occurrence update count (Lemma 5): ``len(ids) * len(ancestors)``
    summed over the groups.
    """
    groups: list[dict[int, list[int]]] = []  # per position: original -> ids
    for emb in embeddings:
        graph_id, nodes = emb[0], emb[1]
        if not groups:
            groups = [{} for _ in nodes]
        occ_id = register(graph_id, nodes)
        graph_originals = original_labels[graph_id]
        for group, node in zip(groups, nodes):
            original = graph_originals[node]
            ids = group.get(original)
            if ids is None:
                group[original] = [occ_id]
            else:
                ids.append(occ_id)
    projected: list[tuple[int, tuple[int, ...], int]] = []
    updates = 0
    for position, group in enumerate(groups):
        for original, ids in group.items():
            labels = ancestors[original]
            updates += len(ids) * len(labels)
            if not labels:
                continue
            if len(ids) == 1:
                bits = 1 << ids[0]
            else:
                buffer = bytearray((ids[-1] >> 3) + 1)
                for occ_id in ids:
                    buffer[occ_id >> 3] |= 1 << (occ_id & 7)
                bits = int.from_bytes(buffer, "little")
            projected.append((position, labels, bits))
    return projected, updates


def build_occurrence_index(
    num_positions: int,
    embeddings: Iterable[Embedding],
    original_labels: list[list[int]],
    taxonomy: Taxonomy,
    allowed_labels: frozenset[int] | None = None,
    counters: MiningCounters | None = None,
    ancestors: AncestorTable | None = None,
) -> tuple[OccurrenceStore, OccurrenceIndex]:
    """Register embeddings and project them onto the taxonomy.

    For each occurrence and each pattern position, the node's *original*
    label and all of its ancestors receive the occurrence id — the
    paper's index-construction updates (Lemma 5 counts these).  With
    ``allowed_labels`` set (efficiency enhancement (b)), labels outside
    the set are skipped: they cannot reach the support threshold, so no
    pattern will ever need their occurrence sets.  A mine passes one
    ``ancestors`` table for all its classes; without it the taxonomy and
    ``allowed_labels`` build a private one.
    """
    if ancestors is None:
        ancestors = AncestorTable(taxonomy, allowed_labels)
    store = OccurrenceStore()
    projected, updates = project_occurrences(
        store.add, embeddings, original_labels, ancestors
    )
    entries = _entries(num_positions, projected)
    if counters is not None:
        counters.occurrence_index_updates += updates
        counters.oie_entries += sum(len(entry) for entry in entries)
    return store, OccurrenceIndex(entries)


def index_occurrences(
    num_positions: int,
    occurrences: Sequence[tuple[int, tuple[int, ...]] | None],
    original_labels: Sequence[Sequence[int]],
    ancestors: Mapping[int, tuple[int, ...]],
) -> OccurrenceIndex:
    """The occurrence index of an already numbered occurrence space.

    ``occurrences[occ_id]`` is ``(graph_id, nodes)``, or ``None`` for a
    tombstone (see :class:`repro.incremental.delta.OccurrenceColumns`),
    which no entry holds.  This is how a pattern store's class gets its
    index back: the store keeps the class's occurrences and the
    database's original labels, and the index is their projection,
    equal to what :func:`build_occurrence_index` built when the same
    occurrences were registered under the same ``ancestors``.
    """
    live_ids = compress(count(), occurrences)
    projected, _updates = project_occurrences(
        lambda _graph_id, _nodes: next(live_ids),
        filter(None, occurrences),
        original_labels,
        ancestors,
    )
    return OccurrenceIndex(_entries(num_positions, projected))


def _entries(
    num_positions: int, projected: list[tuple[int, tuple[int, ...], int]]
) -> list[dict[int, int]]:
    """OR each projected group's bit-set into the entry of every label it
    reaches: one ``label -> bits`` dict per position."""
    entries: list[dict[int, int]] = [{} for _ in range(num_positions)]
    for position, labels, bits in projected:
        entry = entries[position]
        for label in labels:
            entry[label] = entry.get(label, 0) | bits
    return entries


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
