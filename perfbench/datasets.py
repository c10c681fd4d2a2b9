"""Seeded benchmark inputs.

Every workload mines one fixed dataset *shape*: the Fig. 4.2 D5000
analog (500 graphs over a 78-concept GO-like taxonomy) and, for the
directed path, 400 regulatory networks over ``go_like_taxonomy(150)``.
The benchmark seed does not pick a different random dataset — mining
time across independently generated datasets of one spec varies by 3x,
which would drown every regression.  Instead the seed draws an
isomorphic copy of the fixed shape: it shuffles the graph order, the
node order inside every graph, and the order in which concept and edge
labels are interned (so label ids, and with them every DFS-code
comparison gSpan makes, differ from seed to seed).  The pattern set is
the same up to renaming, so the work per run is steady while the
program never sees the same input twice.
"""

from __future__ import annotations

import random

from repro import GraphDatabase, Taxonomy, go_like_taxonomy
from repro.datagen import (
    RegulatoryConfig,
    build_dataset,
    dataset_spec,
    generate_regulatory_database,
)
from repro.directed import DiGraph, DiGraphDatabase
from repro.graphs.graph import Graph
from repro.util.interner import LabelInterner

# Fig. 4.2 D5000 at laptop scale: 500 graphs, 78 concepts.
GRAPH_SCALE = 0.1
TAXONOMY_SCALE = 0.01
DIRECTED_CONCEPTS = 150
DIRECTED_NETWORKS = 400


def _shuffled_ids(names: list[str], rng: random.Random) -> dict[str, int]:
    order = list(names)
    rng.shuffle(order)
    return {name: i for i, name in enumerate(order)}


def _permuted_taxonomy(
    taxonomy: Taxonomy, rng: random.Random
) -> tuple[Taxonomy, dict[int, int]]:
    """The same concept DAG with a seeded label-id assignment."""
    names = [taxonomy.name_of(label) for label in taxonomy.labels()]
    new_ids = _shuffled_ids(names, rng)
    interner = LabelInterner(sorted(new_ids, key=new_ids.__getitem__))
    relabel = {
        label: new_ids[taxonomy.name_of(label)] for label in taxonomy.labels()
    }
    parents = {
        relabel[label]: tuple(relabel[p] for p in taxonomy.parents_of(label))
        for label in taxonomy.labels()
    }
    return Taxonomy(parents, interner), relabel


def undirected_dataset(seed: int) -> tuple[GraphDatabase, Taxonomy]:
    """The D5000 analog, permuted by ``seed``."""
    base, taxonomy = build_dataset(
        dataset_spec("D5000"),
        graph_scale=GRAPH_SCALE,
        taxonomy_scale=TAXONOMY_SCALE,
    )
    rng = random.Random(seed)
    permuted_tax, relabel = _permuted_taxonomy(taxonomy, rng)
    edge_names = base.edge_labels.names()
    edge_ids = _shuffled_ids(edge_names, rng)
    edge_relabel = {i: edge_ids[name] for i, name in enumerate(edge_names)}
    edge_labels = LabelInterner(sorted(edge_ids, key=edge_ids.__getitem__))
    database = GraphDatabase(
        node_labels=permuted_tax.interner, edge_labels=edge_labels
    )
    graphs = list(base)
    rng.shuffle(graphs)
    for old in graphs:
        order = list(old.nodes())
        rng.shuffle(order)
        position = {v: i for i, v in enumerate(order)}
        graph = Graph()
        for v in order:
            graph.add_node(relabel[old.node_label(v)])
        edges = [
            (position[u], position[v], edge_relabel[label])
            for u, v, label in old.edges()
        ]
        rng.shuffle(edges)
        for u, v, label in edges:
            graph.add_edge(u, v, label)
        database.add_graph(graph)
    return database, permuted_tax


def directed_dataset(seed: int) -> tuple[DiGraphDatabase, Taxonomy]:
    """400 regulatory networks over ``go_like_taxonomy(150)``, permuted
    by ``seed``."""
    taxonomy = go_like_taxonomy(DIRECTED_CONCEPTS)
    base = generate_regulatory_database(
        taxonomy, RegulatoryConfig(network_count=DIRECTED_NETWORKS)
    )
    rng = random.Random(seed ^ 0x5EED)
    permuted_tax, relabel = _permuted_taxonomy(taxonomy, rng)
    database = DiGraphDatabase(
        node_labels=permuted_tax.interner, edge_labels=base.edge_labels
    )
    graphs = list(base)
    rng.shuffle(graphs)
    for old in graphs:
        order = list(old.nodes())
        rng.shuffle(order)
        position = {v: i for i, v in enumerate(order)}
        graph = DiGraph()
        for v in order:
            graph.add_node(relabel[old.node_label(v)])
        arcs = [
            (position[u], position[v], label) for u, v, label in old.arcs()
        ]
        rng.shuffle(arcs)
        for u, v, label in arcs:
            graph.add_arc(u, v, label)
        database.add_graph(graph)
    return database, permuted_tax
