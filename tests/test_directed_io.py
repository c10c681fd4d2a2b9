"""Tests for directed graph database serialization and the CLI path."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datagen.regulatory import RegulatoryConfig, generate_regulatory_database
from repro.exceptions import FormatError
from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.graphs.io import (
    parse_graph_database,
    read_graph_database,
    serialize_graph_database,
    write_graph_database,
)
from repro.mining.dfs_code import min_dfs_code
from repro.taxonomy.builders import taxonomy_from_parent_names
from repro.taxonomy.go import go_like_taxonomy
from repro.taxonomy.io import write_taxonomy


def parse_digraph_database(text: str) -> DiGraphDatabase:
    return parse_graph_database(text, directed=True)


SAMPLE = """
t # 0
v 0 kinase
v 1 tf
a 0 1 activates
t # 1
v 0 tf
"""


class TestParse:
    def test_parse_sample(self):
        db = parse_digraph_database(SAMPLE)
        assert len(db) == 2
        assert db[0].has_arc(0, 1)
        assert not db[0].has_arc(1, 0)
        assert db.edge_labels.name_of(db[0].arc_label(0, 1)) == "activates"

    def test_arc_without_label_gets_default(self):
        db = parse_digraph_database("t # 0\nv 0 a\nv 1 b\na 1 0\n")
        assert db.edge_labels.name_of(db[0].arc_label(1, 0)) == "-"

    def test_undirected_record_rejected(self):
        with pytest.raises(FormatError, match="undirected 'e' record"):
            parse_digraph_database("t # 0\nv 0 a\nv 1 b\ne 0 1\n")

    def test_structural_errors(self):
        with pytest.raises(FormatError, match="before any 't'"):
            parse_digraph_database("a 0 1\n")
        with pytest.raises(FormatError, match="dense"):
            parse_digraph_database("t # 0\nv 3 a\n")
        with pytest.raises(FormatError, match="unknown record"):
            parse_digraph_database("t # 0\nq x\n")
        with pytest.raises(FormatError, match="line 4"):
            parse_digraph_database("t # 0\nv 0 a\nv 1 b\na 0 0\n")


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        db = DiGraphDatabase()
        db.new_graph(["a", "b", "c"], [(0, 1, "x"), (2, 1, "y"), (1, 0, "x")])
        path = tmp_path / "db.digraphs"
        write_graph_database(db, path)
        loaded = read_graph_database(path, directed=True)
        assert serialize_graph_database(loaded) == serialize_graph_database(db)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        db = DiGraphDatabase()
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 4)
            graph = db.new_graph([rng.choice("abc") for _ in range(n)], [])
            for _ in range(rng.randint(0, 6)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not graph.has_arc(u, v):
                    graph.add_arc(u, v, db.edge_labels.intern(rng.choice("xy")))
        text = serialize_graph_database(db)
        assert serialize_graph_database(parse_digraph_database(text)) == text


class TestDirectedCLI:
    def test_mine_directed(self, tmp_path, capsys):
        tax = taxonomy_from_parent_names({"kinase": "protein", "tf": "protein"})
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["kinase", "tf"], [(0, 1, "activates")])
        db.new_graph(["kinase", "tf"], [(0, 1, "activates")])
        db_path = tmp_path / "db.digraphs"
        tax_path = tmp_path / "tax.txt"
        write_graph_database(db, db_path)
        write_taxonomy(tax, tax_path)
        code = main(
            ["mine", str(db_path), str(tax_path), "--directed",
             "--support", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "taxogram-directed" in out
        assert "[0:tf, 1:kinase | 1->0:activates] sup=1.000" in out

    def test_directed_rejects_other_algorithms(self, tmp_path, capsys):
        tax = taxonomy_from_parent_names({"b": "a"})
        tax_path = tmp_path / "t.txt"
        write_taxonomy(tax, tax_path)
        db = DiGraphDatabase(node_labels=tax.interner)
        db.new_graph(["b"], [])
        db_path = tmp_path / "d.txt"
        write_graph_database(db, db_path)
        code = main(
            ["mine", str(db_path), str(tax_path), "--directed",
             "--algorithm", "tacgm"]
        )
        assert code == 1
        assert "TAcGM does not support directed" in capsys.readouterr().err


class TestDirectedCLIOptions:
    """``--directed`` only picks the reader: the mine flags work as for an
    undirected database."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("regulatory")
        taxonomy = go_like_taxonomy(concept_count=60, seed=2)
        db = generate_regulatory_database(
            taxonomy, RegulatoryConfig(network_count=12, seed=1)
        )
        write_graph_database(db, tmp / "d.graphs")
        write_taxonomy(taxonomy, tmp / "t.tax")
        return tmp / "d.graphs", tmp / "t.tax"

    def _mine(self, files, capsys, *flags):
        db_path, tax_path = files
        code = main(
            ["mine", str(db_path), str(tax_path), "--directed",
             "--support", "0.25", "--max-edges", "2", "--limit", "0", *flags]
        )
        assert code == 0
        return capsys.readouterr().out.splitlines()

    def test_disk_index_matches_memory(self, files, capsys):
        memory = self._mine(files, capsys)
        disk = self._mine(files, capsys, "--disk-index")
        assert len(memory) > 10
        assert disk[1:] == memory[1:]  # line 1 is the timing summary

    def test_baseline_matches_taxogram(self, files, capsys):
        taxogram = self._mine(files, capsys)
        baseline = self._mine(files, capsys, "--algorithm", "baseline")
        assert taxogram[0].startswith("taxogram-directed:")
        assert baseline[0].startswith("baseline-directed:")
        # Automorphic patterns may print with different node orders.
        assert _canonical(baseline[1:]) == _canonical(taxogram[1:])

    def test_trace_shows_specialize_spans(self, files, capsys):
        out = "\n".join(self._mine(files, capsys, "--trace"))
        assert "== run report: taxogram-directed ==" in out
        assert "specialize.class x" in out


def _canonical(lines: list[str]) -> set:
    """``(canonical code, support)`` of each printed pattern line
    ``[0:A, 1:B | 1->0:label] sup=0.500``."""
    names: dict[str, int] = {}
    out = set()
    for line in lines:
        body, support = line.strip().split("] sup=")
        nodes, arcs = body.lstrip("[").split(" | ")
        graph = DiGraph()
        for node in nodes.split(", "):
            graph.add_node(names.setdefault(node.split(":", 1)[1], len(names)))
        for arc in arcs.split(", "):
            ends, label = arc.split(":")
            source, target = ends.split("->")
            graph.add_arc(int(source), int(target), names.setdefault(label, len(names)))
        out.add((min_dfs_code(graph), support))
    return out
