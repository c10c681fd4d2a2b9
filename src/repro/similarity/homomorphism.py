"""Homomorphism-based matching: the non-injective second semantics.

"Mining Patterns in Networks using Homomorphism" (Dries & Nijssen,
PAPERS.md) motivates homomorphism as a cheaper alternative to subgraph
isomorphism for support counting: a *homomorphism* of a pattern ``P``
into a graph ``G`` maps every pattern node to some graph node —
**not necessarily injectively** — such that every pattern edge lands on
a graph edge with an equal label.  Every embedding is a homomorphism,
so homomorphic support is always a superset of isomorphic support
(pinned by the differential suite).

There is one search: these functions are
:func:`repro.isomorphism.vf2.iter_embeddings` with ``injective=False``,
whose docstring says which of its cuts that setting skips and why.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.graph import Graph
from repro.isomorphism.matchers import GeneralizedMatcher, NodeMatcher
from repro.isomorphism.vf2 import find_embedding, iter_embeddings
from repro.taxonomy.taxonomy import Taxonomy

__all__ = [
    "iter_homomorphisms",
    "find_homomorphism",
    "is_generalized_subgraph_homomorphic",
]


def iter_homomorphisms(
    pattern: Graph,
    graph: Graph,
    matcher: NodeMatcher,
) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism of ``pattern`` into ``graph``.

    Each result is a tuple ``m`` with ``m[i]`` the (not necessarily
    distinct) graph node that pattern node ``i`` maps to.
    """
    return iter_embeddings(pattern, graph, matcher, injective=False)


def find_homomorphism(
    pattern: Graph,
    graph: Graph,
    matcher: NodeMatcher,
) -> tuple[int, ...] | None:
    """The first homomorphism found, or None."""
    return find_embedding(pattern, graph, matcher, injective=False)


def is_generalized_subgraph_homomorphic(
    pattern: Graph, graph: Graph, taxonomy: Taxonomy
) -> bool:
    """Homomorphic containment under the exact generalized label
    semantics (the homomorphism analog of paper §2 containment)."""
    matcher = GeneralizedMatcher(taxonomy)
    return find_homomorphism(pattern, graph, matcher) is not None
