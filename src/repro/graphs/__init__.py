"""Labeled graphs and digraphs, graph databases, serialization, enumeration."""

from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.io import (
    parse_graph_database,
    read_graph_database,
    serialize_graph_database,
    write_graph_database,
)
from repro.graphs.subgraphs import connected_subgraph_node_sets, induced_subgraph

__all__ = [
    "Graph",
    "GraphDatabase",
    "DiGraph",
    "DiGraphDatabase",
    "parse_graph_database",
    "read_graph_database",
    "serialize_graph_database",
    "write_graph_database",
    "connected_subgraph_node_sets",
    "induced_subgraph",
]
