"""NetworkX bridges.

The core library is dependency-free; these helpers let users move data
between :mod:`repro` and `networkx` for visualization, file formats
(GraphML, GML) or downstream analysis.  ``networkx`` is imported lazily
so the core package works without it.

Conventions: node labels become the node attribute ``label`` (the
human-readable string when an interner is supplied, else the integer
id); edge labels likewise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.results import TaxonomyPattern
from repro.exceptions import GraphError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.interner import LabelInterner

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx

__all__ = [
    "graph_to_networkx",
    "graph_from_networkx",
    "digraph_to_networkx",
    "pattern_to_networkx",
    "taxonomy_to_networkx",
]


def _networkx():
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise ImportError(
            "networkx is required for repro.interop.nx; install it with "
            "'pip install networkx'"
        ) from exc
    return networkx


def graph_to_networkx(
    graph: Graph,
    node_labels: LabelInterner | None = None,
    edge_labels: LabelInterner | None = None,
) -> "networkx.Graph":
    """Convert a :class:`~repro.graphs.graph.Graph` to ``networkx.Graph``.

    With interners supplied, ``label`` attributes carry the original
    strings; otherwise the integer ids.
    """
    nx = _networkx()
    out = nx.Graph(graph_id=graph.graph_id)
    for v in graph.nodes():
        label = graph.node_label(v)
        out.add_node(
            v, label=node_labels.name_of(label) if node_labels else label
        )
    for u, v, elabel in graph.edges():
        out.add_edge(
            u, v, label=edge_labels.name_of(elabel) if edge_labels else elabel
        )
    return out


def digraph_to_networkx(
    graph: "DiGraph",
    node_labels: LabelInterner | None = None,
    edge_labels: LabelInterner | None = None,
) -> "networkx.DiGraph":
    """Convert a :class:`~repro.graphs.digraph.DiGraph` to
    ``networkx.DiGraph`` (arc direction preserved)."""
    nx = _networkx()
    out = nx.DiGraph(graph_id=graph.graph_id)
    for v in graph.nodes():
        label = graph.node_label(v)
        out.add_node(
            v, label=node_labels.name_of(label) if node_labels else label
        )
    for source, target, label in graph.arcs():
        out.add_edge(
            source,
            target,
            label=edge_labels.name_of(label) if edge_labels else label,
        )
    return out


def graph_from_networkx(
    nx_graph: "networkx.Graph",
    database: GraphDatabase,
) -> Graph:
    """Import an undirected ``networkx`` graph into ``database``.

    Node/edge ``label`` attributes (strings) are interned through the
    database; missing labels raise :class:`GraphError`.  Node identifiers
    may be arbitrary hashables; they are remapped to dense ints in sorted
    order when possible, else insertion order.
    """
    nx = _networkx()
    if nx_graph.is_directed():
        raise GraphError("directed networkx graphs are not supported")
    graph = Graph()
    try:
        ordered = sorted(nx_graph.nodes())
    except TypeError:
        ordered = list(nx_graph.nodes())
    remap: dict[object, int] = {}
    for node in ordered:
        data = nx_graph.nodes[node]
        if "label" not in data:
            raise GraphError(f"node {node!r} has no 'label' attribute")
        remap[node] = graph.add_node(database.node_labels.intern(str(data["label"])))
    for u, v, data in nx_graph.edges(data=True):
        name = str(data.get("label", "-"))
        graph.add_edge(remap[u], remap[v], database.edge_labels.intern(name))
    database.add_graph(graph)
    return graph


def pattern_to_networkx(
    pattern: TaxonomyPattern,
    node_labels: LabelInterner | None = None,
    edge_labels: LabelInterner | None = None,
) -> "networkx.Graph":
    """Convert a mined pattern (a directed one to ``networkx.DiGraph``);
    support metadata lands in ``graph.graph``."""
    if isinstance(pattern.graph, DiGraph):
        out = digraph_to_networkx(pattern.graph, node_labels, edge_labels)
    else:
        out = graph_to_networkx(pattern.graph, node_labels, edge_labels)
    out.graph["support"] = pattern.support
    out.graph["support_count"] = pattern.support_count
    out.graph["class_id"] = pattern.class_id
    return out


def taxonomy_to_networkx(taxonomy: Taxonomy) -> "networkx.DiGraph":
    """Convert a taxonomy to a ``networkx.DiGraph`` (edges child -> parent,
    matching the paper's is-a direction)."""
    nx = _networkx()
    out = nx.DiGraph()
    for label in taxonomy.labels():
        out.add_node(taxonomy.name_of(label), depth=taxonomy.depth_of(label))
    for label in taxonomy.labels():
        for parent in taxonomy.parents_of(label):
            out.add_edge(taxonomy.name_of(label), taxonomy.name_of(parent))
    return out
