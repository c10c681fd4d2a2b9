"""Approximate matching and similarity queries over taxonomy graphs.

Every query the serving tier answered before this package was *exact*
(generalized) subgraph isomorphism.  The taxonomy ``T`` gives a node
similarity measure for free — normalized distance between two labels in
``T`` — and this package turns it into three approximate regimes:

* **Similarity-thresholded containment** — the exact VF2 engine run
  under a :class:`ThresholdMatcher` that accepts a node pair when its
  taxonomy similarity reaches ``sim_threshold``.  The measure is built
  so that similarity is ``1.0`` *iff* the pair matches under today's
  generalized-exact semantics, hence ``sim_threshold=1.0`` reduces
  bit-identically to the exact path (pinned by differential tests).
* **MCS scoring** — :class:`MaximumCommonSubgraphSolver` finds the
  heaviest partial embedding of a pattern into a graph (node pairs
  weighted by similarity, preserved edges by 1) and normalizes it into
  a graph-to-pattern score in ``[0, 1]``; ``1.0`` iff the graph
  contains the pattern exactly.
* **Homomorphism semantics** — a second, cheaper match semantics
  (Dries & Nijssen) that drops injectivity; selectable per query, and
  run by the same VF2 search with ``injective=False``.

A :class:`TreeletIndex` decomposes every database graph into node /
edge / wedge fragments and serves as a *sound* candidate prefilter: a
graph is only handed to VF2 or the MCS solver when every pattern
fragment has a similarity-compatible witness fragment, which never
eliminates a true match (also pinned differentially).

:class:`SimilarityEngine` ties the pieces together for the serving
tier; see :mod:`repro.serving.reader` for the query surface
(``similar`` / ``similarity_score`` / ``fuzzy_contains``).
"""

from repro.similarity.engine import ScoredGraph, SimilarityEngine
from repro.similarity.homomorphism import (
    find_homomorphism,
    is_generalized_subgraph_homomorphic,
    iter_homomorphisms,
)
from repro.similarity.matcher import ThresholdMatcher, fuzzy_contains
from repro.similarity.mcs import MaximumCommonSubgraphSolver, MCSResult
from repro.similarity.measure import TaxonomySimilarity
from repro.similarity.treelets import TreeletIndex, pattern_fragments

__all__ = [
    "MCSResult",
    "MaximumCommonSubgraphSolver",
    "ScoredGraph",
    "SimilarityEngine",
    "TaxonomySimilarity",
    "ThresholdMatcher",
    "TreeletIndex",
    "find_homomorphism",
    "fuzzy_contains",
    "is_generalized_subgraph_homomorphic",
    "iter_homomorphisms",
    "pattern_fragments",
]
