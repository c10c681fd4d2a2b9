"""A graph database: an ordered collection of graphs over shared labels.

The database owns the node-label interner (shared with the taxonomy the
database is mined against) and an edge-label interner.  Graph ids are the
positions in the database, assigned on insertion.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.util.interner import LabelInterner
from repro.util.stats import DatabaseStats, describe_database

__all__ = ["GraphDatabase"]


class GraphDatabase:
    """An indexed list of :class:`Graph` objects with shared label interners.

    :class:`repro.graphs.digraph.DiGraphDatabase` holds ``DiGraph``
    objects instead; every method but :meth:`new_graph` serves both.
    """

    __slots__ = ("node_labels", "edge_labels", "_graphs")

    def __init__(
        self,
        node_labels: LabelInterner | None = None,
        edge_labels: LabelInterner | None = None,
    ) -> None:
        self.node_labels = node_labels if node_labels is not None else LabelInterner()
        self.edge_labels = edge_labels if edge_labels is not None else LabelInterner()
        self._graphs: list[Graph] = []

    # -- construction ----------------------------------------------------------

    def add_graph(self, graph: Graph) -> int:
        """Add ``graph``; its ``graph_id`` is set to its database position."""
        for label in graph.node_labels():
            if label >= len(self.node_labels):
                raise GraphError(
                    f"graph uses node label id {label} not present in the "
                    f"database interner ({len(self.node_labels)} labels)"
                )
        graph.graph_id = len(self._graphs)
        self._graphs.append(graph)
        return graph.graph_id

    def new_graph(
        self,
        node_labels: Sequence[str],
        edges: Iterable[tuple[int, int] | tuple[int, int, str]] = (),
    ) -> Graph:
        """Create, intern, add and return a graph from string labels.

        ``edges`` entries are ``(u, v)`` or ``(u, v, edge_label_string)``.
        This is the convenient front door for examples and tests.
        """
        graph = Graph()
        for name in node_labels:
            graph.add_node(self.node_labels.intern(name))
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v, self.edge_labels.intern("-"))
            else:
                u, v, ename = edge  # type: ignore[misc]
                graph.add_edge(u, v, self.edge_labels.intern(ename))
        self.add_graph(graph)
        return graph

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self._graphs)

    def __getitem__(self, graph_id: int) -> Graph:
        return self._graphs[graph_id]

    @property
    def graphs(self) -> list[Graph]:
        """The underlying graph list (do not mutate)."""
        return self._graphs

    def node_label_name(self, label_id: int) -> str:
        return self.node_labels.name_of(label_id)

    def edge_label_name(self, label_id: int) -> str:
        return self.edge_labels.name_of(label_id)

    def stats(self) -> DatabaseStats:
        """Table 1-style aggregate statistics."""
        return describe_database(self._graphs)

    def distinct_node_labels(self) -> set[int]:
        """All node label ids actually used by some graph."""
        used: set[int] = set()
        for graph in self._graphs:
            used.update(graph.node_labels())
        return used

    def with_interners(
        self, node_labels: LabelInterner, edge_labels: LabelInterner
    ) -> "GraphDatabase":
        """The same graph objects (not copies) under other interners,
        which must hold at least this database's labels at the same ids:
        a caller that may intern new labels passes copies, so this
        database's interners stay as they are."""
        out = type(self)(node_labels, edge_labels)
        out._graphs = list(self._graphs)
        return out

    def copy(self) -> "GraphDatabase":
        """Deep copy of graphs; interners are copied too."""
        out = type(self)(self.node_labels.copy(), self.edge_labels.copy())
        for graph in self._graphs:
            out._graphs.append(graph.copy())
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(graphs={len(self._graphs)}, "
            f"node_labels={len(self.node_labels)}, "
            f"edge_labels={len(self.edge_labels)})"
        )
