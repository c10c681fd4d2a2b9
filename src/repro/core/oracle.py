"""Brute-force taxonomy-superimposed mining oracle.

Enumerates the complete pattern universe — every generalization of every
connected subgraph of every database graph — computes exact supports,
filters by threshold, and eliminates over-generalized patterns by
pairwise comparison.  Exponential in every direction; it exists solely as
the correctness oracle that Taxogram, the baseline, and TAcGM are tested
against on small inputs.
"""

from __future__ import annotations

from itertools import product

from repro.core.relabel import repair_taxonomy
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.subgraphs import connected_edge_subgraphs
from repro.isomorphism.vf2 import is_generalized_isomorphic
from repro.mining.dfs_code import DFSCode, min_dfs_code
from repro.mining.gspan import min_support_count
from repro.taxonomy.taxonomy import ARTIFICIAL_ROOT_NAME, Taxonomy
from repro.util.bitset import BitSet

__all__ = ["mine_with_oracle"]


def mine_with_oracle(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    min_support: float,
    max_edges: int,
    artificial_root_name: str = ARTIFICIAL_ROOT_NAME,
) -> TaxogramResult:
    """Reference implementation of the full mining problem (paper §2).

    ``max_edges`` is mandatory: the oracle's pattern universe is finite
    only under a size cap, so compare algorithms with the same cap.  A
    ``DiGraphDatabase`` is enumerated by weakly connected arc subsets and
    matched direction-preserving, like ``Taxogram`` mines it.
    """
    working, _most_general = repair_taxonomy(taxonomy, artificial_root_name)
    min_count = min_support_count(min_support, len(database))

    # 1. Support of every generalization of every concrete subgraph.
    supports: dict[DFSCode, set[int]] = {}
    graphs_by_code: dict[DFSCode, Graph] = {}
    for graph in database:
        seen_here: set[DFSCode] = set()
        for subgraph, _nodes in connected_edge_subgraphs(graph, max_edges):
            for generalized in _generalizations(subgraph, working):
                code = min_dfs_code(generalized)
                if code in seen_here:
                    continue
                seen_here.add(code)
                supports.setdefault(code, set()).add(graph.graph_id)
                graphs_by_code.setdefault(code, generalized)

    frequent = {
        code: frozenset(gids)
        for code, gids in supports.items()
        if len(gids) >= min_count
    }

    # 2. Eliminate over-generalized patterns (pairwise, within equal
    #    support sets — Lemma 2 makes set equality necessary).
    overgeneralized: set[DFSCode] = set()
    by_support: dict[frozenset[int], list[DFSCode]] = {}
    for code, gids in frequent.items():
        by_support.setdefault(gids, []).append(code)
    for group in by_support.values():
        for general_code in group:
            general = graphs_by_code[general_code]
            for specific_code in group:
                if specific_code == general_code:
                    continue
                if is_generalized_isomorphic(
                    general, graphs_by_code[specific_code], working
                ):
                    overgeneralized.add(general_code)
                    break

    patterns = [
        TaxonomyPattern(
            code=code,
            graph=graphs_by_code[code],
            support_count=len(gids),
            support=len(gids) / len(database),
            support_mask=BitSet(gids).bits,
            class_id=-1,
        )
        for code, gids in frequent.items()
        if code not in overgeneralized
    ]
    return TaxogramResult(
        patterns=patterns,
        database_size=len(database),
        min_support=min_support,
        algorithm="oracle",
        counters=MiningCounters(),
        stage_seconds={},
    )


def _generalizations(subgraph: Graph, taxonomy: Taxonomy):
    """Yield every node-label generalization of ``subgraph`` (including
    itself), taking per-node ancestor sets from the working taxonomy."""
    choices = [
        sorted(taxonomy.ancestors_or_self(subgraph.node_label(v)))
        for v in subgraph.nodes()
    ]
    for assignment in product(*choices):
        generalized = subgraph.copy()
        for v, label in enumerate(assignment):
            generalized.relabel_node(v, label)
        yield generalized
