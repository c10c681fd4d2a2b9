"""Extension benchmark: directed mining (beyond the paper's evaluation).

The paper's implementation could not mine directed graphs (§4.1); this
library can.  The benchmark mines regulatory-network-like digraphs
directly and, for contrast, their undirected skeletons, validating the
projection property: the skeleton of every frequent directed pattern is
a frequent undirected pattern, while direction-sensitive patterns (e.g.
cascades vs. co-regulation) stay separated only in the directed run.
Both mines go through the same ``mine`` call; each records a
``BENCH_directed_extension`` point (labels ``directed`` and
``skeleton``) for CI's bench-regression gate.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._common import print_header, print_row, record_bench_point
from repro.core.taxogram import mine
from repro.datagen.regulatory import RegulatoryConfig, generate_regulatory_database
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.taxonomy.go import go_like_taxonomy

SIGMA = 0.2
MAX_EDGES = 3

_shared: dict[str, object] = {}


def _data():
    if "directed" not in _shared:
        taxonomy = go_like_taxonomy(concept_count=150, seed=5)
        directed = generate_regulatory_database(
            taxonomy, RegulatoryConfig(network_count=30, seed=9)
        )
        skeleton = GraphDatabase(node_labels=taxonomy.interner)
        skeleton.edge_labels.intern("regulates")
        for digraph in directed:
            graph = Graph()
            for v in digraph.nodes():
                graph.add_node(digraph.node_label(v))
            for source, target, label in digraph.arcs():
                if not graph.has_edge(source, target):
                    graph.add_edge(source, target, label)
            skeleton.add_graph(graph)
        _shared["taxonomy"] = taxonomy
        _shared["directed"] = directed
        _shared["skeleton"] = skeleton
    return _shared["directed"], _shared["skeleton"], _shared["taxonomy"]


def test_directed_mining(benchmark):
    directed, _skeleton, taxonomy = _data()

    def run():
        start = time.perf_counter()
        result = mine(directed, taxonomy, min_support=SIGMA, max_edges=MAX_EDGES)
        record_bench_point(
            "directed_extension", "directed", time.perf_counter() - start, result
        )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _shared["directed_result"] = result
    benchmark.extra_info["patterns"] = len(result)
    print_row("directed", f"{result.total_seconds * 1000:.0f}ms",
              f"{len(result)} patterns")
    assert len(result) > 0


def test_skeleton_mining(benchmark):
    _directed, skeleton, taxonomy = _data()

    def run():
        start = time.perf_counter()
        result = mine(skeleton, taxonomy, min_support=SIGMA, max_edges=MAX_EDGES)
        record_bench_point(
            "directed_extension", "skeleton", time.perf_counter() - start, result
        )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _shared["skeleton_result"] = result
    benchmark.extra_info["patterns"] = len(result)
    print_row("skeleton", f"{result.total_seconds * 1000:.0f}ms",
              f"{len(result)} patterns")


def test_directed_extension_shape(benchmark):
    if "directed_result" not in _shared or "skeleton_result" not in _shared:
        pytest.skip("run the mining benchmarks first")
    directed_result = _shared["directed_result"]
    skeleton_result = _shared["skeleton_result"]
    print_header(
        "Directed extension: directed vs skeleton mining",
        f"{'mode':>12}  {'patterns':>12}",
    )
    print_row("directed", len(directed_result))
    print_row("skeleton", len(skeleton_result))

    # Projection property: every frequent directed pattern's skeleton is
    # frequent — support can only grow when direction is forgotten.  The
    # minimal skeleton pattern set drops over-generalized members, so
    # supports are checked against the skeleton database directly.
    from repro.isomorphism.matchers import GeneralizedMatcher
    from repro.isomorphism.vf2 import find_embedding
    from repro.core.relabel import repair_taxonomy

    _d, skeleton_db, taxonomy = _data()
    working, _mg = repair_taxonomy(taxonomy)
    matcher = GeneralizedMatcher(working)
    for pattern in directed_result.patterns[:40]:
        projected = Graph()
        for v in pattern.graph.nodes():
            projected.add_node(pattern.graph.node_label(v))
        for source, target, label in pattern.graph.arcs():
            if not projected.has_edge(source, target):
                projected.add_edge(source, target, label)
        support = sum(
            1
            for g in skeleton_db
            if find_embedding(projected, g, matcher) is not None
        )
        assert support >= pattern.support_count
