"""Step 3 of Taxogram: enumerate specialized patterns per pattern class.

Given a pattern class — its most general structure from Step 2 plus the
taxonomy-projected occurrence index — this module enumerates every
frequent member of the class and drops the over-generalized ones, using
only bit-set intersections for support (Lemma 7: no database scans, no
isomorphism tests).

Enumeration walks pattern-node positions in a fixed order; at each
position every covered descendant-or-self of the class's base label is
considered via a DFS through the occurrence-index sub-taxonomy.  This is
equivalent to the paper's child-replacement scheme with a processed-nodes
set (PNS): positions already passed are exactly the PNS, and the
unconditional single-child-step check in :func:`is_overgeneralized`
subsumes the paper's follow-up PNS inspection (support monotonicity along
specialization chains, Lemma 2, makes the single-step check detect any
multi-step equal-support specialization).  Per-position visited sets
handle DAG taxonomies where a label is reachable through several parents,
mirroring the paper's "visited vertex labels within an occurrence index
are marked".

Enhancement (c) drops provably over-generalized labels early: before
enumeration along single-covered-child chains (:func:`_collapse`), and at
every partial assignment, where a frequent label whose occurrence
intersection equals a covered child's is not offered (every completion
with it has the child as a same-support specialization).  The final
check still runs, since later positions can make a child's set equal.

Patterns whose structure has automorphisms are reached under several
label assignments; canonical minimum DFS codes deduplicate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.occurrence_index import OccurrenceIndex, OccurrenceStore
from repro.core.results import MiningCounters, TaxonomyPattern
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.mining.dfs_code import min_dfs_code
from repro.taxonomy.taxonomy import Taxonomy

__all__ = ["SpecializerOptions", "is_overgeneralized", "specialize_class"]


@dataclass(frozen=True)
class SpecializerOptions:
    """Toggles for the paper's Step-3 efficiency enhancements (a) and (c).

    ``descendant_pruning`` (enhancement (a)): once a label's occurrence
    intersection falls below the support threshold, do not descend into
    its children.  Disabling it still yields correct results (children
    are tested and fail individually) but performs the paper's baseline
    amount of work.

    ``occurrence_collapse`` (enhancement (c)): skip labels that are
    provably over-generalized.  Before enumeration, advance a position's
    base label to its only covered child when the child's occurrence set
    is identical.  During enumeration, do not offer a frequent label
    whose occurrence intersection equals a covered child's (every
    completion with it is over-generalized), though its children are
    still walked.  Both steps are sound on DAG taxonomies (see
    DESIGN.md).  Disabling it yields the same patterns with the paper's
    baseline amount of work.
    """

    descendant_pruning: bool = True
    occurrence_collapse: bool = True


def specialize_class(
    class_id: int,
    structure: Graph | DiGraph,
    store: OccurrenceStore,
    index: OccurrenceIndex,
    taxonomy: Taxonomy,
    min_count: int,
    database_size: int,
    options: SpecializerOptions,
    counters: MiningCounters,
) -> list[TaxonomyPattern]:
    """All frequent, non-over-generalized members of one pattern class.

    ``structure`` may be a ``Graph`` or a ``DiGraph``:
    :func:`~repro.mining.dfs_code.min_dfs_code` canonicalizes either
    when it deduplicates automorphic label assignments.
    """
    num_positions = structure.num_nodes
    base_labels = [structure.node_label(i) for i in range(num_positions)]
    if options.occurrence_collapse:
        for position in range(num_positions):
            base_labels[position] = _collapse(
                index, taxonomy, position, base_labels[position], counters
            )

    emitted: dict = {}
    labels = list(base_labels)
    all_bits = store.all_bits

    def finalize(bits: int) -> None:
        counters.candidates_enumerated += 1
        support_count = store.support_count(bits)
        if is_overgeneralized(
            labels, bits, support_count, store, index, taxonomy, counters
        ):
            counters.overgeneralized_eliminated += 1
            return
        pattern_graph = structure.copy()
        for position, label in enumerate(labels):
            pattern_graph.relabel_node(position, label)
        code = min_dfs_code(pattern_graph)
        if code in emitted:
            return  # automorphism duplicate of an already-emitted pattern
        emitted[code] = TaxonomyPattern(
            code=code,
            graph=pattern_graph,
            support_count=support_count,
            support=support_count / database_size,
            support_mask=store.support_mask(bits),
            class_id=class_id,
        )

    def recurse(position: int, bits: int) -> None:
        if position == num_positions:
            finalize(bits)
            return
        for label, label_bits in _position_options(
            index,
            taxonomy,
            position,
            base_labels[position],
            bits,
            store,
            min_count,
            options.descendant_pruning,
            options.occurrence_collapse,
            counters,
        ):
            labels[position] = label
            recurse(position + 1, label_bits)
        labels[position] = base_labels[position]

    recurse(0, all_bits)
    return list(emitted.values())


def _position_options(
    index: OccurrenceIndex,
    taxonomy: Taxonomy,
    position: int,
    base_label: int,
    bits: int,
    store: OccurrenceStore,
    min_count: int,
    descendant_pruning: bool,
    occurrence_collapse: bool,
    counters: MiningCounters,
) -> list[tuple[int, int]]:
    """Frequent label choices for ``position``: every covered
    descendant-or-self of ``base_label`` whose occurrence intersection
    keeps the support threshold.

    With ``occurrence_collapse`` (enhancement (c)) a frequent label whose
    intersection equals a covered child's is not offered: each of its
    completions has a same-support specialization (the child), so it is
    over-generalized.  Its children are still walked.  The check's child
    intersections are kept and reused when the child is visited, so the
    walk still does one intersection per visited label.
    """
    out: list[tuple[int, int]] = []
    visited: set[int] = set()
    intersections: dict[int, int] = {}  # label -> bits & OIE(position, label)
    stack = [base_label]
    while stack:
        label = stack.pop()
        if label in visited:
            continue
        visited.add(label)
        label_bits = intersections.get(label)
        if label_bits is None:
            label_bits = bits & index.bits(position, label)
            counters.bitset_intersections += 1
            intersections[label] = label_bits  # a later DAG parent's check
        frequent = store.support_count(label_bits) >= min_count
        if not frequent:
            counters.candidates_pruned += 1
            # Enhancement (a): an infrequent label's descendants cannot be
            # frequent (their occurrence sets are subsets).
            if not descendant_pruning:
                stack.extend(index.covered_children(position, label, taxonomy))
            continue
        children = index.covered_children(position, label, taxonomy)
        stack.extend(children)
        if occurrence_collapse:
            overgeneralized = False
            for child in children:
                child_bits = intersections.get(child)
                if child_bits is None:
                    child_bits = bits & index.bits(position, child)
                    counters.bitset_intersections += 1
                    intersections[child] = child_bits
                if child_bits == label_bits:
                    overgeneralized = True
                    break
            if overgeneralized:
                counters.overgeneralized_eliminated += 1
                continue
        out.append((label, label_bits))
    return out


def is_overgeneralized(
    labels: list[int],
    bits: int,
    support_count: int,
    store: OccurrenceStore,
    index: OccurrenceIndex,
    taxonomy: Taxonomy,
    counters: MiningCounters,
) -> bool:
    """Paper §2: a pattern is over-generalized when replacing some node
    label with a child yields a specialized pattern with equal support.

    By Lemma 2 any deeper equal-support specialization forces equality on
    every intermediate step, so checking direct children is complete.
    """
    for position, label in enumerate(labels):
        for child in index.covered_children(position, label, taxonomy):
            counters.bitset_intersections += 1
            child_bits = bits & index.bits(position, child)
            if child_bits and store.support_count(child_bits) == support_count:
                return True
    return False


def _collapse(
    index: OccurrenceIndex,
    taxonomy: Taxonomy,
    position: int,
    label: int,
    counters: MiningCounters,
) -> int:
    """Enhancement (c): slide the base label down single-covered-child
    chains with identical occurrence sets; every skipped label is
    over-generalized at this position."""
    while True:
        children = index.covered_children(position, label, taxonomy)
        if len(children) != 1:
            return label
        child = children[0]
        if index.bits(position, child) != index.bits(position, label):
            return label
        counters.overgeneralized_eliminated += 1
        label = child
