"""Text serialization for graph databases.

The format is the line-oriented dialect used by gSpan-era tools, with
string labels:

.. code-block:: text

    t # 0              # graph header (index after '#' is informational)
    v 0 transporter    # node <id> <label>
    v 1 helicase
    e 0 1 binds        # edge <u> <v> <label>
    t # 1
    ...

Blank lines and ``#``-prefixed comment lines are ignored.  Node ids must
be dense and ascending within a graph.

A directed database (``directed=True``) uses ``a`` (arc) records instead
of ``e`` records:

.. code-block:: text

    t # 0
    v 0 kinase
    v 1 transcription_factor
    a 0 1 activates    # arc <source> <target> [label]

Each reader rejects the other's edge record: direction must not be
silently invented or dropped.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, TextIO

from repro.exceptions import FormatError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.graphs.graph import Graph
from repro.util.interner import LabelInterner

__all__ = [
    "parse_graph_database",
    "read_graph_database",
    "serialize_graph_database",
    "write_graph_database",
]


def parse_graph_database(
    text: str,
    node_labels: LabelInterner | None = None,
    edge_labels: LabelInterner | None = None,
    directed: bool = False,
) -> GraphDatabase:
    """Parse the text format into a :class:`GraphDatabase`, or a
    :class:`DiGraphDatabase` of ``a`` records with ``directed=True``.

    Pass an existing ``node_labels`` interner (typically the taxonomy's)
    to keep label ids consistent with a taxonomy parsed separately.
    """
    return _parse(io.StringIO(text), node_labels, edge_labels, directed)


def read_graph_database(
    path: str | Path,
    node_labels: LabelInterner | None = None,
    edge_labels: LabelInterner | None = None,
    directed: bool = False,
) -> GraphDatabase:
    """Read a graph database file (see module docstring for the format)."""
    with open(path, "r", encoding="utf-8") as handle:
        return _parse(handle, node_labels, edge_labels, directed)


def serialize_graph_database(db: GraphDatabase) -> str:
    """Render ``db`` in the text format; inverse of :func:`parse_graph_database`."""
    record = "a" if isinstance(db, DiGraphDatabase) else "e"
    out: list[str] = []
    for graph in db:
        out.append(f"t # {graph.graph_id}")
        for v in graph.nodes():
            out.append(f"v {v} {db.node_label_name(graph.node_label(v))}")
        for u, v, elabel in graph.edges():
            out.append(f"{record} {u} {v} {db.edge_label_name(elabel)}")
    out.append("")
    return "\n".join(out)


def write_graph_database(db: GraphDatabase, path: str | Path) -> None:
    """Write ``db`` to ``path`` in the text format."""
    Path(path).write_text(serialize_graph_database(db), encoding="utf-8")


def _parse(
    handle: TextIO | Iterable[str],
    node_labels: LabelInterner | None,
    edge_labels: LabelInterner | None,
    directed: bool,
) -> GraphDatabase:
    if directed:
        db: GraphDatabase = DiGraphDatabase(node_labels, edge_labels)
        new_graph, record = DiGraph, "a"
        usage = "a <source> <target> [label]"
    else:
        db = GraphDatabase(node_labels, edge_labels)
        new_graph, record = Graph, "e"
        usage = "e <u> <v> [label]"
    graph: Graph | DiGraph | None = None
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "t":
            if graph is not None:
                db.add_graph(graph)
            graph = new_graph()
        elif kind == "v":
            if graph is None:
                raise FormatError(f"line {lineno}: 'v' before any 't' header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'v <id> <label>'")
            node_id = _parse_int(parts[1], lineno)
            if node_id != graph.num_nodes:
                raise FormatError(
                    f"line {lineno}: node ids must be dense and ascending "
                    f"(expected {graph.num_nodes}, got {node_id})"
                )
            graph.add_node(db.node_labels.intern(parts[2]))
        elif kind == record:
            if graph is None:
                raise FormatError(
                    f"line {lineno}: {record!r} before any 't' header"
                )
            if len(parts) not in (3, 4):
                raise FormatError(f"line {lineno}: expected {usage!r}")
            u = _parse_int(parts[1], lineno)
            v = _parse_int(parts[2], lineno)
            name = parts[3] if len(parts) == 4 else "-"
            try:
                graph.add_edge(u, v, db.edge_labels.intern(name))
            except Exception as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        elif kind == "e":  # only reached when directed
            raise FormatError(
                f"line {lineno}: undirected 'e' record in a directed "
                "database; use 'a <source> <target>'"
            )
        else:
            raise FormatError(f"line {lineno}: unknown record type {kind!r}")
    if graph is not None:
        db.add_graph(graph)
    return db


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: expected integer, got {token!r}") from None
