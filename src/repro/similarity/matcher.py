"""Similarity-thresholded containment through the exact VF2 engine.

:class:`ThresholdMatcher` implements the
:class:`~repro.isomorphism.matchers.NodeMatcher` protocol, so the
*same* VF2 search (:func:`repro.isomorphism.vf2.iter_embeddings`) that
answers exact queries also answers fuzzy ones — the only thing that
changes is the node-compatibility predicate.  Because the measure
scores ``1.0`` exactly on generalized matches, a matcher at threshold
``1.0`` accepts precisely the pairs
:class:`~repro.isomorphism.matchers.GeneralizedMatcher` accepts: the
exact semantics is the fuzzy semantics' fixed point, not a special
case (the differential suite pins the reduction bit-for-bit).

Edge labels stay exact at every threshold: edge similarity is binary
(:meth:`TaxonomySimilarity.edge_similarity`), so any threshold in the
valid range ``(0, 1]`` requires equality — which is what VF2's edge
feasibility check already enforces.

:data:`SEMANTICS` is the one list of match semantics that every surface
takes (similarity queries, session mines, the CLI's ``--semantics``),
checked by :func:`validate_semantics`.  Each selects a mode of the one
search: ``"isomorphism"`` runs it injectively, ``"homomorphism"``
non-injectively.
"""

from __future__ import annotations

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.isomorphism.vf2 import find_embedding
from repro.similarity.measure import TaxonomySimilarity

__all__ = [
    "SEMANTICS",
    "ThresholdMatcher",
    "validate_semantics",
    "validate_threshold",
    "fuzzy_contains",
]

SEMANTICS = ("isomorphism", "homomorphism")


def validate_semantics(semantics: str) -> str:
    """``semantics`` when it is one of :data:`SEMANTICS`."""
    if semantics not in SEMANTICS:
        raise MiningError(
            f"unknown match semantics {semantics!r}; expected one of "
            f"{', '.join(SEMANTICS)}"
        )
    return semantics


def validate_threshold(threshold: float) -> float:
    """Thresholds live in ``(0, 1]``; ``0`` would accept every node
    pair (and degenerately every edge), ``1.0`` is the exact semantics."""
    threshold = float(threshold)
    if not 0.0 < threshold <= 1.0:
        raise MiningError(
            f"similarity threshold must be in (0, 1], got {threshold}"
        )
    return threshold


class ThresholdMatcher:
    """Accept a node pair when its taxonomy similarity reaches ``t``."""

    __slots__ = ("_measure", "_threshold")

    def __init__(self, measure: TaxonomySimilarity, threshold: float) -> None:
        self._measure = measure
        self._threshold = validate_threshold(threshold)

    @property
    def threshold(self) -> float:
        return self._threshold

    def matches(self, pattern_label: int, graph_label: int) -> bool:
        return (
            self._measure.node_similarity(pattern_label, graph_label)
            >= self._threshold
        )


def fuzzy_contains(
    pattern: Graph,
    graph: Graph,
    measure: TaxonomySimilarity,
    threshold: float,
    semantics: str = "isomorphism",
) -> bool:
    """Does ``graph`` contain ``pattern`` at similarity ``threshold``?

    ``semantics`` selects injective (``"isomorphism"``, the paper's
    occurrence definition) or non-injective (``"homomorphism"``)
    matching.  At ``threshold=1.0`` with isomorphism semantics this is
    exactly :func:`~repro.isomorphism.vf2.
    is_generalized_subgraph_isomorphic`.
    """
    matcher = ThresholdMatcher(measure, threshold)
    injective = validate_semantics(semantics) == "isomorphism"
    return (
        find_embedding(pattern, graph, matcher, injective=injective)
        is not None
    )
