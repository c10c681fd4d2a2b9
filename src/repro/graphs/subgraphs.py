"""Connected-subgraph enumeration.

Used by the brute-force mining oracles to enumerate candidate pattern
occurrences exhaustively.  The enumerator yields *node sets* inducing
connected subgraphs; callers materialize them with
:func:`induced_subgraph`.

The algorithm is the standard "extension by neighbors of the newest
node, restricted to ids greater than the anchor" scheme, which emits each
connected node set exactly once.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

__all__ = [
    "connected_subgraph_node_sets",
    "induced_subgraph",
    "connected_edge_subgraphs",
]


def connected_subgraph_node_sets(
    graph: Graph, max_nodes: int
) -> Iterator[frozenset[int]]:
    """Yield every node set of size 1..max_nodes inducing a connected subgraph.

    Each set is yielded exactly once.  Enumeration is exhaustive, so keep
    ``max_nodes`` small; this function backs test oracles, not production
    mining.
    """
    if max_nodes < 1:
        return
    for anchor in graph.nodes():
        yield from _grow(graph, anchor, max_nodes)


def _grow(graph: Graph, anchor: int, max_nodes: int) -> Iterator[frozenset[int]]:
    """Enumerate connected sets whose minimum node id is ``anchor``."""
    initial_frontier = frozenset(v for v in graph.neighbors(anchor) if v > anchor)
    stack: list[tuple[frozenset[int], frozenset[int], frozenset[int]]] = [
        (frozenset((anchor,)), initial_frontier, frozenset())
    ]
    while stack:
        current, frontier, forbidden = stack.pop()
        yield current
        if len(current) == max_nodes:
            continue
        # Classic polynomial-delay scheme: pick each frontier node in turn;
        # once a node has been "skipped" it is forbidden for the rest of
        # this branch, which guarantees uniqueness.
        blocked = forbidden
        for v in sorted(frontier):
            new_frontier = (
                frontier
                | frozenset(w for w in graph.neighbors(v) if w > anchor)
            ) - current - blocked - frozenset((v,))
            stack.append((current | frozenset((v,)), new_frontier, blocked))
            blocked = blocked | frozenset((v,))


def induced_subgraph(graph: Graph, nodes: frozenset[int] | set[int]) -> Graph:
    """The subgraph induced by ``nodes`` (labels preserved, ids remapped).

    Node ids in the result are ``0..k-1`` in ascending order of the
    original ids.
    """
    ordered = sorted(nodes)
    remap = {old: new for new, old in enumerate(ordered)}
    out = Graph(graph.graph_id)
    for old in ordered:
        out.add_node(graph.node_label(old))
    for old in ordered:
        for nbr, elabel in graph.neighbor_items(old):
            if nbr in remap and old < nbr:
                out.add_edge(remap[old], remap[nbr], elabel)
    return out


def connected_edge_subgraphs(
    graph: Graph | DiGraph, max_edges: int
) -> Iterator[tuple[Graph | DiGraph, tuple[int, ...]]]:
    """Yield connected (not necessarily induced) subgraphs up to ``max_edges``.

    Every connected subset of edges is yielded exactly once, as a
    ``(subgraph, node_mapping)`` pair where ``node_mapping[i]`` is the
    original node id for subgraph node ``i``.  This matches the pattern
    universe of frequent subgraph mining (patterns are arbitrary connected
    subgraphs, not only induced ones).  For a ``DiGraph`` the subgraphs
    are the weakly connected arc subsets, as digraphs.
    """
    # An edge's key is (u, v) as edges() yields it: u < v for a Graph,
    # (source, target) for a DiGraph.
    edges = sorted(graph.edges())
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(edges)}

    def incident_edge_ids(node_set: frozenset[int]) -> set[int]:
        return {
            edge_index[key]
            for u in node_set
            for _w, key, _tail in graph.incident(u)
        }

    for start in range(len(edges)):
        u0, v0, _ = edges[start]
        start_nodes = frozenset((u0, v0))
        # States: (edge id set, node set, forbidden edge ids).  Only edges
        # with id > start may be added, so each edge set has a unique
        # minimal "anchor" edge.
        stack = [
            (
                frozenset((start,)),
                start_nodes,
                frozenset(range(start + 1)),
            )
        ]
        while stack:
            edge_set, node_set, forbidden = stack.pop()
            yield _materialize(graph, edges, edge_set, node_set)
            if len(edge_set) == max_edges:
                continue
            candidates = sorted(
                eid
                for eid in incident_edge_ids(node_set)
                if eid not in edge_set and eid not in forbidden
            )
            blocked = forbidden
            for eid in candidates:
                eu, ev, _ = edges[eid]
                stack.append(
                    (
                        edge_set | frozenset((eid,)),
                        node_set | frozenset((eu, ev)),
                        blocked,
                    )
                )
                blocked = blocked | frozenset((eid,))


def _materialize(
    graph: Graph | DiGraph,
    edges: list[tuple[int, int, int]],
    edge_set: frozenset[int],
    node_set: frozenset[int],
) -> tuple[Graph | DiGraph, tuple[int, ...]]:
    ordered = sorted(node_set)
    remap = {old: new for new, old in enumerate(ordered)}
    out = type(graph)(graph.graph_id)
    for old in ordered:
        out.add_node(graph.node_label(old))
    for eid in sorted(edge_set):
        u, v, elabel = edges[eid]
        out.add_edge(remap[u], remap[v], elabel)
    return out, tuple(ordered)
