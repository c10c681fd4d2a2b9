"""A VF2-style backtracking solver for (generalized) subgraph isomorphism
and homomorphism: the one subgraph-matching search.

Semantics follow frequent-subgraph-mining convention: an *embedding* of a
pattern ``P`` into a graph ``G`` is an injective node mapping under which
every pattern edge maps onto a graph edge with an equal edge label.  The
graph may have additional edges among the mapped nodes (non-induced
subgraph isomorphism) — this matches the paper's definition of an
occurrence.

With ``injective=False`` the same search yields *homomorphisms* ("Mining
Patterns in Networks using Homomorphism", Dries & Nijssen, PAPERS.md):
distinct pattern nodes may share an image.  Three cuts of the injective
search are unsound there and are skipped:

* no ``used`` marks — a graph node may host several pattern nodes;
* no degree cut — a graph node of degree 1 can host a pattern node of
  degree 3, whose pattern neighbors all fold onto its one neighbor;
* no pattern-size cut — a pattern larger than the graph can still fold
  into it.

Adjacent pattern nodes still map to distinct graph nodes: their images
must be joined by a graph edge, and graphs have no self-loops.  Every
embedding is a homomorphism, so homomorphic containment is implied by
isomorphic containment.

Label compatibility is delegated to a
:class:`~repro.isomorphism.matchers.NodeMatcher`, which is how the
*generalized* variant (taxonomy ancestors allowed) is obtained.

The solver orders pattern nodes so that each node after the first
attaches to an already-mapped node whenever the pattern is connected,
which keeps the candidate sets small (neighbor-anchored search).

Pattern and graph may both be :class:`~repro.graphs.digraph.DiGraph`:
edges are checked through ``has_link`` with the pattern's DFS-code
tails, so an arc must map onto an arc in the same direction.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.isomorphism.matchers import ExactMatcher, GeneralizedMatcher, NodeMatcher
from repro.taxonomy.taxonomy import Taxonomy

__all__ = [
    "iter_embeddings",
    "find_embedding",
    "count_embeddings",
    "is_subgraph_isomorphic",
    "is_generalized_subgraph_isomorphic",
    "is_generalized_isomorphic",
]

_EXACT = ExactMatcher()


def iter_embeddings(
    pattern: Graph | DiGraph,
    graph: Graph | DiGraph,
    matcher: NodeMatcher | None = None,
    *,
    injective: bool = True,
) -> Iterator[tuple[int, ...]]:
    """Yield every embedding of ``pattern`` into ``graph``, or with
    ``injective=False`` every homomorphism.

    Each result is a tuple ``m`` with ``m[i]`` the graph node that
    pattern node ``i`` maps to (distinct nodes unless ``injective`` is
    false).  Automorphic images are distinct embeddings, matching the
    paper's occurrence accounting.
    """
    matcher = matcher if matcher is not None else _EXACT
    np = pattern.num_nodes
    if np == 0:
        yield ()
        return
    if injective and np > graph.num_nodes:
        return

    order = _matching_order(pattern)
    # For each position in the order, a pattern neighbor already mapped
    # (or -1 when none exists, e.g. the first node of a component), and
    # the (neighbor, tail) pairs of the edges to mapped neighbors.
    anchors: list[int] = []
    checks: list[list[tuple[int, tuple]]] = []
    placed: set[int] = set()
    for p in order:
        anchor = -1
        for q in pattern.neighbors(p):
            if q in placed:
                anchor = q
                break
        anchors.append(anchor)
        checks.append(
            [(q, tail) for q, _key, tail in pattern.incident(p) if q in placed]
        )
        placed.add(p)

    mapping = [-1] * np
    used = [False] * graph.num_nodes

    def candidates(position: int) -> Iterator[int]:
        p = order[position]
        anchor = anchors[position]
        if anchor >= 0:
            pool: Iterator[int] = graph.neighbors(mapping[anchor])
        else:
            pool = iter(graph.nodes())
        p_label = pattern.node_label(p)
        if injective:
            p_degree = pattern.degree(p)
            for g in pool:
                if used[g] or graph.degree(g) < p_degree:
                    continue
                if matcher.matches(p_label, graph.node_label(g)):
                    yield g
        else:
            for g in pool:
                if matcher.matches(p_label, graph.node_label(g)):
                    yield g

    def feasible(position: int, g: int) -> bool:
        for q, tail in checks[position]:
            if not graph.has_link(g, mapping[q], tail):
                return False
        return True

    def search(position: int) -> Iterator[tuple[int, ...]]:
        if position == np:
            yield tuple(mapping)
            return
        p = order[position]
        for g in candidates(position):
            if feasible(position, g):
                mapping[p] = g
                used[g] = injective
                yield from search(position + 1)
                mapping[p] = -1
                used[g] = False

    yield from search(0)


def find_embedding(
    pattern: Graph | DiGraph,
    graph: Graph | DiGraph,
    matcher: NodeMatcher | None = None,
    *,
    injective: bool = True,
) -> tuple[int, ...] | None:
    """The first embedding (homomorphism, with ``injective=False``)
    found, or None."""
    for embedding in iter_embeddings(
        pattern, graph, matcher, injective=injective
    ):
        return embedding
    return None


def count_embeddings(
    pattern: Graph | DiGraph,
    graph: Graph | DiGraph,
    matcher: NodeMatcher | None = None,
) -> int:
    """Number of distinct embeddings (occurrences) of ``pattern`` in ``graph``."""
    return sum(1 for _ in iter_embeddings(pattern, graph, matcher))


def is_subgraph_isomorphic(
    pattern: Graph | DiGraph, graph: Graph | DiGraph
) -> bool:
    """Traditional subgraph isomorphism (exact labels)."""
    return find_embedding(pattern, graph, _EXACT) is not None


def is_generalized_subgraph_isomorphic(
    pattern: Graph | DiGraph, graph: Graph | DiGraph, taxonomy: Taxonomy
) -> bool:
    """Paper §2: ``graph`` contains a subgraph that ``pattern`` generalizes."""
    return find_embedding(pattern, graph, GeneralizedMatcher(taxonomy)) is not None


def is_generalized_isomorphic(
    general: Graph | DiGraph,
    specific: Graph | DiGraph,
    taxonomy: Taxonomy,
    strict_structure: bool = True,
) -> bool:
    """Paper §2 ``IS_GEN_ISO``: a bijection maps ``general`` onto ``specific``
    with every ``general`` label an ancestor-or-self of its image's label.

    With ``strict_structure=True`` (default, the pattern-class semantics
    used by the mining algorithms) the two graphs must have the same edge
    count, so the bijection is an isomorphism of the underlying structure.
    With ``strict_structure=False`` the literal definition is used:
    ``specific`` may have extra edges among the mapped nodes.
    """
    if general.num_nodes != specific.num_nodes:
        return False
    if strict_structure and general.num_edges != specific.num_edges:
        return False
    if general.num_edges > specific.num_edges:
        return False
    matcher = GeneralizedMatcher(taxonomy)
    return find_embedding(general, specific, matcher) is not None


def _matching_order(pattern: Graph | DiGraph) -> list[int]:
    """BFS order from the highest-degree node; new components appended as
    encountered.  Guarantees (within a component) that every node after
    the first has a previously-ordered neighbor."""
    n = pattern.num_nodes
    visited = [False] * n
    order: list[int] = []
    seeds = sorted(pattern.nodes(), key=pattern.degree, reverse=True)
    for seed in seeds:
        if visited[seed]:
            continue
        queue = [seed]
        visited[seed] = True
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in sorted(pattern.neighbors(u), key=pattern.degree, reverse=True):
                if not visited[v]:
                    visited[v] = True
                    queue.append(v)
    return order
