"""Directed labeled graphs and databases.

Arcs are ordered pairs ``u -> v`` with an integer label.  Both ``u -> v``
and ``v -> u`` may exist (with independent labels); self-loops and
parallel arcs in the same direction are rejected, matching the
undirected :class:`~repro.graphs.graph.Graph`'s conventions.

:class:`DiGraph` offers the same read interface as ``Graph`` — the
canonical-code builder, gSpan, VF2 and the oracle run on either type.
Its adjacency accessors (:meth:`DiGraph.incident`, :meth:`DiGraph.links`,
:meth:`DiGraph.edge_orientations`) yield DFS-code tails
``(arc label, neighbour label, d)``, where ``d`` is 1 when the arc runs
along the traversal and 0 against it; connectivity is weak (traversal
may cross an arc in either direction).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import GraphError, MiningError
from repro.graphs.database import GraphDatabase

__all__ = ["DiGraph", "DiGraphDatabase", "reject_directed"]


class DiGraph:
    """A directed graph with labeled nodes and labeled arcs."""

    __slots__ = ("graph_id", "_labels", "_out", "_in")

    def __init__(self, graph_id: int = -1) -> None:
        self.graph_id = graph_id
        self._labels: list[int] = []
        self._out: list[dict[int, int]] = []  # u -> {v: arc label}
        self._in: list[dict[int, int]] = []  # v -> {u: arc label}

    # -- construction ----------------------------------------------------------

    def add_node(self, label: int) -> int:
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels.append(label)
        self._out.append({})
        self._in.append({})
        return len(self._labels) - 1

    def add_arc(self, source: int, target: int, label: int = 0) -> None:
        self._check_node(source)
        self._check_node(target)
        if source == target:
            raise GraphError(f"self-loops are not supported (node {source})")
        if target in self._out[source]:
            raise GraphError(f"duplicate arc ({source} -> {target})")
        if label < 0:
            raise GraphError(f"arc label must be non-negative, got {label}")
        self._out[source][target] = label
        self._in[target][source] = label

    # The name graph-generic code (parsers, subgraph enumeration) uses.
    add_edge = add_arc

    def relabel_node(self, v: int, label: int) -> None:
        self._check_node(v)
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels[v] = label

    @classmethod
    def from_arcs(
        cls,
        node_labels: Iterable[int],
        arcs: Iterable[tuple[int, int] | tuple[int, int, int]],
        graph_id: int = -1,
    ) -> "DiGraph":
        graph = cls(graph_id)
        for label in node_labels:
            graph.add_node(label)
        for arc in arcs:
            graph.add_arc(*arc)
        return graph

    # -- inspection ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Arc count (named ``num_edges`` like ``Graph``'s)."""
        return sum(len(targets) for targets in self._out)

    def node_label(self, v: int) -> int:
        self._check_node(v)
        return self._labels[v]

    def node_labels(self) -> list[int]:
        return list(self._labels)

    def nodes(self) -> range:
        return range(len(self._labels))

    def out_items(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(target, arc label)`` for arcs leaving ``v``."""
        self._check_node(v)
        return iter(self._out[v].items())

    def in_items(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(source, arc label)`` for arcs entering ``v``."""
        self._check_node(v)
        return iter(self._in[v].items())

    def neighbors(self, v: int) -> Iterator[int]:
        """Nodes joined to ``v`` by an arc in either direction, once each."""
        self._check_node(v)
        return iter(self._out[v].keys() | self._in[v].keys())

    def degree(self, v: int) -> int:
        """Incident arc count, both directions."""
        self._check_node(v)
        return len(self._out[v]) + len(self._in[v])

    def has_arc(self, source: int, target: int) -> bool:
        return 0 <= source < len(self._out) and target in self._out[source]

    def arc_label(self, source: int, target: int) -> int:
        self._check_node(source)
        try:
            return self._out[source][target]
        except KeyError:
            raise GraphError(f"no arc ({source} -> {target})") from None

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Iterate arcs as ``(source, target, label)``."""
        for source, targets in enumerate(self._out):
            for target, label in targets.items():
                yield (source, target, label)

    # The name graph-generic code uses; an arc's key is (source, target).
    edges = arcs

    # -- DFS-code adjacency (see the module docstring) ---------------------------

    def incident(self, v: int) -> list[tuple[int, tuple[int, int], tuple]]:
        """``(neighbour, arc key, tail)`` for every arc at ``v``, traversed
        from ``v``: out-arcs (``d`` = 1) first, then in-arcs."""
        labels = self._labels
        return [
            (w, (v, w), (label, labels[w], 1))
            for w, label in self._out[v].items()
        ] + [
            (w, (w, v), (label, labels[w], 0))
            for w, label in self._in[v].items()
        ]

    def links(self, u: int, w: int) -> list[tuple[tuple[int, int], tuple]]:
        """``(arc key, tail)`` for the arcs between ``u`` and ``w``,
        traversed from ``u``: ``u -> w`` first, then ``w -> u``."""
        found = []
        label = self._out[u].get(w)
        if label is not None:
            found.append(((u, w), (label, self._labels[w], 1)))
        label = self._in[u].get(w)
        if label is not None:
            found.append(((w, u), (label, self._labels[w], 0)))
        return found

    def has_link(self, u: int, w: int, tail: tuple) -> bool:
        """Whether an arc between ``u`` and ``w`` has ``tail``'s label and
        direction (the neighbour label is not compared)."""
        return (self._out if tail[2] else self._in)[u].get(w) == tail[0]

    def edge_orientations(
        self,
    ) -> Iterator[tuple[int, int, tuple[int, int], tuple, tuple]]:
        """``(u, v, key, tail u->v, tail v->u)`` once per arc ``u -> v``."""
        labels = self._labels
        for u, v, label in self.arcs():
            yield u, v, (u, v), (label, labels[v], 1), (label, labels[u], 0)

    def is_connected(self) -> bool:
        """Weak connectivity: one component of the undirected skeleton."""
        n = len(self._labels)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in list(self._out[u]) + list(self._in[u]):
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    def copy(self, graph_id: int | None = None) -> "DiGraph":
        out = DiGraph(self.graph_id if graph_id is None else graph_id)
        out._labels = list(self._labels)
        out._out = [dict(d) for d in self._out]
        out._in = [dict(d) for d in self._in]
        return out

    def structure_key(self) -> tuple:
        """Like ``Graph.structure_key``, tagged so that a digraph never
        shares a key (or a cached canonical code) with a ``Graph``."""
        return ("arcs", tuple(self._labels), tuple(sorted(self.arcs())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DiGraph):
            return self.structure_key() == other.structure_key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.structure_key())

    def __repr__(self) -> str:
        return (
            f"DiGraph(id={self.graph_id}, nodes={self.num_nodes}, "
            f"arcs={self.num_edges})"
        )

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"unknown node {v} (graph has {len(self._labels)} nodes)")


class DiGraphDatabase(GraphDatabase):
    """A :class:`GraphDatabase` of :class:`DiGraph` objects."""

    __slots__ = ()

    def new_graph(
        self,
        node_labels: Sequence[str],
        arcs: Iterable[tuple[int, int] | tuple[int, int, str]] = (),
    ) -> DiGraph:
        """Create, intern, add and return a digraph from string labels;
        ``arcs`` entries are ``(source, target[, arc label string])``."""
        graph = DiGraph()
        for name in node_labels:
            graph.add_node(self.node_labels.intern(name))
        for source, target, *name in arcs:
            label = self.edge_labels.intern(name[0] if name else "-")
            graph.add_arc(source, target, label)
        self.add_graph(graph)
        return graph


def reject_directed(database: GraphDatabase, feature: str) -> None:
    """Raise :class:`MiningError` when ``feature`` meets a digraph database.

    The parallel runtime, pattern stores and TAcGM handle undirected
    databases only; they refuse a ``DiGraphDatabase`` rather than
    return a wrong result.
    """
    if isinstance(database, DiGraphDatabase):
        raise MiningError(f"{feature} does not support directed databases")
