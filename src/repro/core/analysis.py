"""Post-mining analysis utilities for pattern sets.

Mining runs on taxonomy-superimposed data routinely return hundreds or
thousands of patterns (paper §4: up to ~60k).  These helpers support the
workflows the paper's application sections imply: slicing a result set
by concept, browsing generalization relationships between patterns, and
summarizing where in the taxonomy the signal sits.

All functions are pure: they never mutate the result they are given.
"""

from __future__ import annotations

from collections import Counter

from repro.core.relabel import repair_taxonomy
from repro.core.results import TaxogramResult, TaxonomyPattern
from repro.isomorphism.matchers import GeneralizedMatcher
from repro.isomorphism.vf2 import find_embedding, is_generalized_isomorphic
from repro.taxonomy.taxonomy import Taxonomy

__all__ = [
    "filter_patterns",
    "group_by_class",
    "specialization_edges",
    "label_depth_profile",
    "top_patterns",
    "closed_patterns",
]


def filter_patterns(
    result: TaxogramResult,
    taxonomy: Taxonomy | None = None,
    involves: int | None = None,
    min_support: float | None = None,
    min_edges: int | None = None,
    max_edges: int | None = None,
) -> list[TaxonomyPattern]:
    """Select patterns by concept involvement, support, and size.

    ``involves`` keeps patterns with at least one node labeled by the
    concept *or any of its descendants* (requires ``taxonomy``); e.g.
    "all patterns involving some kind of transporter".
    """
    if involves is not None and taxonomy is None:
        raise ValueError("filtering by 'involves' requires the taxonomy")
    selected: list[TaxonomyPattern] = []
    for pattern in result:
        if min_support is not None and pattern.support < min_support:
            continue
        if min_edges is not None and pattern.num_edges < min_edges:
            continue
        if max_edges is not None and pattern.num_edges > max_edges:
            continue
        if involves is not None:
            assert taxonomy is not None
            wanted = taxonomy.descendants_or_self(involves)
            if not any(
                pattern.graph.node_label(v) in wanted
                for v in pattern.graph.nodes()
            ):
                continue
        selected.append(pattern)
    return selected


def group_by_class(result: TaxogramResult) -> dict[int, list[TaxonomyPattern]]:
    """Patterns grouped by their pattern class (same structure, labels
    related through the taxonomy).  Miners that do not track classes
    (TAcGM, the oracle) put everything under class ``-1``."""
    groups: dict[int, list[TaxonomyPattern]] = {}
    for pattern in result:
        groups.setdefault(pattern.class_id, []).append(pattern)
    return groups


def specialization_edges(
    patterns: list[TaxonomyPattern],
    taxonomy: Taxonomy,
) -> list[tuple[int, int]]:
    """The generalization lattice over ``patterns``.

    Returns index pairs ``(general, specific)`` where pattern ``general``
    is generalized-isomorphic to pattern ``specific`` (same structure,
    every label an ancestor-or-self of its image).  Quadratic — intended
    for browsing a filtered slice, not a 60k-pattern dump.
    """
    working, _mg = repair_taxonomy(taxonomy)
    edges: list[tuple[int, int]] = []
    for i, general in enumerate(patterns):
        for j, specific in enumerate(patterns):
            if i == j:
                continue
            if general.num_nodes != specific.num_nodes:
                continue
            if general.num_edges != specific.num_edges:
                continue
            if general.code == specific.code:
                continue
            if is_generalized_isomorphic(
                general.graph, specific.graph, working
            ):
                edges.append((i, j))
    return edges


def label_depth_profile(
    result: TaxogramResult, taxonomy: Taxonomy
) -> dict[int, int]:
    """How deep in the taxonomy the mined labels sit: depth -> node count.

    A profile concentrated near the root signals over-general data (or a
    threshold set too high); deep profiles mean the taxonomy genuinely
    sharpened the patterns.  Labels outside the taxonomy (e.g. artificial
    roots that were repaired away) count at depth -1.
    """
    profile: Counter[int] = Counter()
    for pattern in result:
        for v in pattern.graph.nodes():
            label = pattern.graph.node_label(v)
            depth = taxonomy.depth_of(label) if label in taxonomy else -1
            profile[depth] += 1
    return dict(sorted(profile.items()))


def closed_patterns(
    result: TaxogramResult,
    taxonomy: Taxonomy,
) -> list[TaxonomyPattern]:
    """The *closed* subset: patterns no strict super-pattern matches at
    equal support.

    Complements over-generalization elimination, which is minimality
    along the label axis; closedness is minimality along the *structure*
    axis (CloseGraph's criterion, cited by the paper as [20]).  A pattern
    P is dropped when some pattern Q with more edges exists such that P
    is generalized subgraph isomorphic to Q and ``sup(P) == sup(Q)`` —
    then P carries no information beyond Q.

    Quadratic with an isomorphism test per candidate pair; use on result
    sets of moderate size.
    """
    working, _mg = repair_taxonomy(taxonomy)
    matcher = GeneralizedMatcher(working)
    by_support: dict[int, list[TaxonomyPattern]] = {}
    for pattern in result:
        by_support.setdefault(pattern.support_mask, []).append(pattern)
    closed: list[TaxonomyPattern] = []
    for pattern in result:
        absorbed = False
        for other in by_support[pattern.support_mask]:
            if other.num_edges <= pattern.num_edges:
                continue
            if find_embedding(pattern.graph, other.graph, matcher) is not None:
                absorbed = True
                break
        if not absorbed:
            closed.append(pattern)
    return closed


def top_patterns(
    result: TaxogramResult, count: int = 10
) -> list[TaxonomyPattern]:
    """The ``count`` patterns with the highest support, largest first
    (ties broken toward larger, then canonical order)."""
    return sorted(
        result.patterns,
        key=lambda p: (-p.support_count, -p.num_edges, p.code.edges),
    )[:count]
