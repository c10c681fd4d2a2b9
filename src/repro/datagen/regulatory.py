"""Regulatory-network-like directed dataset generator.

Gene-regulation networks are the natural directed analog of the paper's
pathway data: nodes are regulators/targets annotated with taxonomy
concepts, arcs mean "regulates" and their direction carries meaning.
The generator plants directed motifs — cascades (A -> B -> C) and
feed-forward loops (A -> B, A -> C, B -> C) — whose node labels are
specialized per network, then adds noise arcs.  Frequent *directed*
patterns therefore exist only through the taxonomy, mirroring the
undirected generator's design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graphs.digraph import DiGraph, DiGraphDatabase
from repro.exceptions import MiningError
from repro.taxonomy.taxonomy import Taxonomy

__all__ = ["RegulatoryConfig", "generate_regulatory_database"]


@dataclass(frozen=True)
class RegulatoryConfig:
    """Parameters for :func:`generate_regulatory_database`."""

    network_count: int = 30
    motifs_per_network: tuple[int, int] = (1, 2)
    noise_nodes: tuple[int, int] = (1, 3)
    noise_arcs: tuple[int, int] = (1, 3)
    seed: int = 0


# Directed motif templates as arc lists over template positions.
_MOTIFS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 1), (1, 2)),  # cascade
    ((0, 1), (0, 2), (1, 2)),  # feed-forward loop
    ((0, 1), (1, 0)),  # mutual regulation
)


def generate_regulatory_database(
    taxonomy: Taxonomy, config: RegulatoryConfig
) -> DiGraphDatabase:
    """Generate directed networks over ``taxonomy``."""
    if config.network_count < 1:
        raise MiningError("network_count must be positive")
    rng = random.Random(config.seed)
    database = DiGraphDatabase(node_labels=taxonomy.interner)
    regulates = database.edge_labels.intern("regulates")

    # One fixed concept assignment per (motif, position): networks agree
    # on the abstract regulator/target concepts and differ by refinement.
    concept_pool = [
        label
        for label in taxonomy.labels()
        if taxonomy.parents_of(label) and taxonomy.children_of(label)
    ] or list(taxonomy.labels())
    motif_concepts = [
        [rng.choice(concept_pool) for _ in range(1 + max(max(arc) for arc in motif))]
        for motif in _MOTIFS
    ]

    all_labels = list(taxonomy.labels())
    for _ in range(config.network_count):
        graph = DiGraph()
        for _ in range(rng.randint(*config.motifs_per_network)):
            motif_index = rng.randrange(len(_MOTIFS))
            motif = _MOTIFS[motif_index]
            concepts = motif_concepts[motif_index]
            mapping = [
                graph.add_node(_refine(taxonomy, rng, concept))
                for concept in concepts
            ]
            for source, target in motif:
                if not graph.has_arc(mapping[source], mapping[target]):
                    graph.add_arc(mapping[source], mapping[target], regulates)
        for _ in range(rng.randint(*config.noise_nodes)):
            graph.add_node(rng.choice(all_labels))
        for _ in range(rng.randint(*config.noise_arcs)):
            if graph.num_nodes < 2:
                break
            u, v = rng.sample(range(graph.num_nodes), 2)
            if not graph.has_arc(u, v):
                graph.add_arc(u, v, regulates)
        database.add_graph(graph)
    return database


def _refine(taxonomy: Taxonomy, rng: random.Random, label: int) -> int:
    steps = rng.choices((0, 1, 2), weights=(60, 30, 10))[0]
    current = label
    for _ in range(steps):
        children = taxonomy.children_of(current)
        if not children:
            break
        current = rng.choice(children)
    return current
