"""Labeled undirected graph with integer node and edge labels.

This is the data substrate for the whole library.  Node labels are
integer ids resolved through a :class:`~repro.util.interner.LabelInterner`
owned by the enclosing :class:`~repro.graphs.database.GraphDatabase` (or
by the caller for standalone graphs).  Edge labels are plain integers
with no taxonomy attached; the paper taxonomizes node labels only.

Nodes are dense integers ``0..n-1``; parallel edges and self-loops are
rejected (neither the paper's data model nor gSpan's DFS codes support
them).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.exceptions import GraphError

__all__ = ["Graph"]

DEFAULT_EDGE_LABEL = 0


class Graph:
    """An undirected graph with labeled nodes and labeled edges."""

    __slots__ = ("graph_id", "_labels", "_adj")

    def __init__(self, graph_id: int = -1) -> None:
        self.graph_id = graph_id
        self._labels: list[int] = []
        # _adj[v] maps neighbor -> edge label
        self._adj: list[dict[int, int]] = []

    # -- construction ----------------------------------------------------------

    def add_node(self, label: int) -> int:
        """Append a node with ``label``; returns the new node id."""
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels.append(label)
        self._adj.append({})
        return len(self._labels) - 1

    def add_edge(self, u: int, v: int, label: int = DEFAULT_EDGE_LABEL) -> None:
        """Add an undirected edge ``{u, v}`` with an edge label."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loops are not supported (node {u})")
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        if label < 0:
            raise GraphError(f"edge label must be non-negative, got {label}")
        self._adj[u][v] = label
        self._adj[v][u] = label

    def relabel_node(self, v: int, label: int) -> None:
        """Replace node ``v``'s label (used by Taxogram's Step 1)."""
        self._check_node(v)
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels[v] = label

    @classmethod
    def from_edges(
        cls,
        node_labels: Iterable[int],
        edges: Iterable[tuple[int, int] | tuple[int, int, int]],
        graph_id: int = -1,
    ) -> "Graph":
        """Build a graph in one call.

        ``edges`` entries are ``(u, v)`` or ``(u, v, edge_label)``.
        """
        graph = cls(graph_id)
        for label in node_labels:
            graph.add_node(label)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v)
            else:
                u, v, elabel = edge  # type: ignore[misc]
                graph.add_edge(u, v, elabel)
        return graph

    # -- inspection ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def node_label(self, v: int) -> int:
        self._check_node(v)
        return self._labels[v]

    def node_labels(self) -> list[int]:
        """Labels of all nodes, indexed by node id (a copy)."""
        return list(self._labels)

    def nodes(self) -> range:
        return range(len(self._labels))

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_node(v)
        return iter(self._adj[v])

    def neighbor_items(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(neighbor, edge_label)`` pairs of ``v``."""
        self._check_node(v)
        return iter(self._adj[v].items())

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self._adj) and v in self._adj[u]

    def edge_label(self, u: int, v: int) -> int:
        self._check_node(u)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate edges once each as ``(u, v, edge_label)`` with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v, elabel in nbrs.items():
                if u < v:
                    yield (u, v, elabel)

    # -- DFS-code adjacency ------------------------------------------------------
    #
    # The canonical-code builder, gSpan and VF2 read adjacency through
    # these accessors only, so they run unchanged on a DiGraph, whose
    # tails carry a direction component (see repro.graphs.digraph).  An
    # undirected tail is ``(edge label, neighbour label)``: appended to
    # ``(i, j, label of i)`` it is a DFS-code edge.

    def incident(self, v: int) -> list[tuple[int, tuple[int, int], tuple]]:
        """``(neighbour, edge key, tail)`` for every edge at ``v``."""
        labels = self._labels
        return [
            (w, (v, w) if v < w else (w, v), (label, labels[w]))
            for w, label in self._adj[v].items()
        ]

    def links(self, u: int, w: int) -> tuple[tuple[tuple[int, int], tuple], ...]:
        """``(edge key, tail)`` for the edge between ``u`` and ``w``, if any."""
        label = self._adj[u].get(w)
        if label is None:
            return ()
        return (((u, w) if u < w else (w, u), (label, self._labels[w])),)

    def has_link(self, u: int, w: int, tail: tuple) -> bool:
        """Whether the edge ``{u, w}`` exists with ``tail``'s edge label
        (the neighbour label is not compared)."""
        return self._adj[u].get(w) == tail[0]

    def edge_orientations(
        self,
    ) -> Iterator[tuple[int, int, tuple[int, int], tuple, tuple]]:
        """``(u, v, key, tail u->v, tail v->u)`` once per edge, as
        :meth:`edges` orders them."""
        labels = self._labels
        for u, v, label in self.edges():
            yield u, v, (u, v), (label, labels[v]), (label, labels[u])

    def is_connected(self) -> bool:
        """True for the empty graph and any graph with one component."""
        n = len(self._labels)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    def copy(self, graph_id: int | None = None) -> "Graph":
        out = Graph(self.graph_id if graph_id is None else graph_id)
        out._labels = list(self._labels)
        out._adj = [dict(nbrs) for nbrs in self._adj]
        return out

    # -- comparison ------------------------------------------------------------

    def structure_key(self) -> tuple:
        """A hashable identity key: exact labels, nodes and edges.

        Two graphs with equal keys are identical as labeled graphs *with
        the same node numbering* (not merely isomorphic).  Use the
        canonical DFS code from :mod:`repro.mining.dfs_code` for
        isomorphism-invariant keys.
        """
        return (tuple(self._labels), tuple(sorted(self.edges())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.structure_key() == other.structure_key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.structure_key())

    def __repr__(self) -> str:
        return (
            f"Graph(id={self.graph_id}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    # -- internal --------------------------------------------------------------

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"unknown node {v} (graph has {len(self._labels)} nodes)")
