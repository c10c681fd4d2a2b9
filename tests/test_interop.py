"""Tests for the networkx bridges."""

from __future__ import annotations

import pytest

networkx = pytest.importorskip("networkx")

from repro.core.taxogram import mine
from repro.exceptions import GraphError
from repro.graphs.database import GraphDatabase
from repro.interop.nx import (
    graph_from_networkx,
    graph_to_networkx,
    pattern_to_networkx,
    taxonomy_to_networkx,
)
from repro.taxonomy.builders import taxonomy_from_parent_names


class TestGraphConversion:
    def test_to_networkx_with_names(self):
        db = GraphDatabase()
        g = db.new_graph(["a", "b"], [(0, 1, "x")])
        nx_graph = graph_to_networkx(g, db.node_labels, db.edge_labels)
        assert nx_graph.number_of_nodes() == 2
        assert nx_graph.nodes[0]["label"] == "a"
        assert nx_graph.edges[0, 1]["label"] == "x"
        assert nx_graph.graph["graph_id"] == g.graph_id

    def test_to_networkx_raw_ids(self):
        db = GraphDatabase()
        g = db.new_graph(["a"], [])
        nx_graph = graph_to_networkx(g)
        assert nx_graph.nodes[0]["label"] == g.node_label(0)

    def test_round_trip(self):
        db = GraphDatabase()
        g = db.new_graph(["a", "b", "c"], [(0, 1, "x"), (1, 2, "y")])
        nx_graph = graph_to_networkx(g, db.node_labels, db.edge_labels)
        db2 = GraphDatabase()
        back = graph_from_networkx(nx_graph, db2)
        assert back.num_nodes == 3
        assert back.num_edges == 2
        assert [db2.node_label_name(l) for l in back.node_labels()] == [
            "a", "b", "c",
        ]
        assert back.graph_id == 0  # registered in db2

    def test_from_networkx_rejects_directed(self):
        db = GraphDatabase()
        with pytest.raises(GraphError, match="directed"):
            graph_from_networkx(networkx.DiGraph(), db)

    def test_from_networkx_requires_labels(self):
        db = GraphDatabase()
        nx_graph = networkx.Graph()
        nx_graph.add_node(0)
        with pytest.raises(GraphError, match="label"):
            graph_from_networkx(nx_graph, db)

    def test_from_networkx_arbitrary_node_ids(self):
        db = GraphDatabase()
        nx_graph = networkx.Graph()
        nx_graph.add_node("enzyme-1", label="a")
        nx_graph.add_node("enzyme-2", label="b")
        nx_graph.add_edge("enzyme-1", "enzyme-2", label="binds")
        back = graph_from_networkx(nx_graph, db)
        assert back.num_edges == 1


class TestDiGraphConversion:
    def test_direction_preserved(self):
        from repro.graphs.digraph import DiGraphDatabase
        from repro.interop.nx import digraph_to_networkx

        db = DiGraphDatabase()
        g = db.new_graph(["kinase", "tf"], [(0, 1, "activates")])
        nx_graph = digraph_to_networkx(g, db.node_labels, db.edge_labels)
        assert nx_graph.is_directed()
        assert nx_graph.has_edge(0, 1)
        assert not nx_graph.has_edge(1, 0)
        assert nx_graph.edges[0, 1]["label"] == "activates"
        assert nx_graph.nodes[0]["label"] == "kinase"

    def test_directed_pattern_keeps_direction(self):
        from repro.graphs.digraph import DiGraphDatabase

        tax = taxonomy_from_parent_names({"b": "a", "y": "x"})
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["b", "y"], [(0, 1)])
        (pattern,) = mine(db, tax, min_support=1.0, max_edges=1).patterns
        nx_pattern = pattern_to_networkx(pattern, tax.interner, db.edge_labels)
        (source, target, _label), = pattern.graph.arcs()
        assert nx_pattern.is_directed()
        assert list(nx_pattern.edges) == [(source, target)]
        assert nx_pattern.graph["support_count"] == 1


class TestPatternAndTaxonomy:
    def test_pattern_conversion_carries_support(self):
        tax = taxonomy_from_parent_names({"b": "a"})
        db = GraphDatabase(node_labels=tax.interner)
        db.new_graph(["b", "b"], [(0, 1)])
        result = mine(db, tax, min_support=1.0)
        nx_pattern = pattern_to_networkx(
            result.patterns[0], tax.interner, db.edge_labels
        )
        assert nx_pattern.graph["support"] == 1.0
        assert nx_pattern.graph["support_count"] == 1

    def test_taxonomy_conversion(self, go_excerpt):
        nx_tax = taxonomy_to_networkx(go_excerpt)
        assert nx_tax.is_directed()
        assert nx_tax.has_edge("carrier", "transporter")  # child -> parent
        assert nx_tax.nodes["molecular_function"]["depth"] == 0
        assert nx_tax.nodes["protein_carrier"]["depth"] == 3
        # Acyclic, as a taxonomy must be.
        assert networkx.is_directed_acyclic_graph(nx_tax)
