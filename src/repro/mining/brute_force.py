"""A brute-force frequent-subgraph miner used as a test oracle for gSpan.

Enumerates every connected edge-subgraph of every database graph up to a
size cap, canonicalizes with minimum DFS codes, and counts distinct
containing graphs.  Exponential — strictly for small test inputs.
"""

from __future__ import annotations

from repro.graphs.database import GraphDatabase
from repro.graphs.subgraphs import connected_edge_subgraphs
from repro.mining.dfs_code import DFSCode, min_dfs_code
from repro.mining.gspan import min_support_count

__all__ = ["brute_force_frequent_subgraphs"]


def brute_force_frequent_subgraphs(
    database: GraphDatabase,
    min_support: float,
    max_edges: int,
) -> dict[DFSCode, frozenset[int]]:
    """All frequent connected subgraphs with at most ``max_edges`` edges.

    Returns a mapping from canonical (minimum) DFS code to the support
    set of graph ids.  Compare against
    :class:`~repro.mining.gspan.GSpanMiner` output in tests.
    """
    min_count = min_support_count(min_support, len(database))
    supports: dict[DFSCode, set[int]] = {}
    for graph in database:
        seen_here: set[DFSCode] = set()
        for subgraph, _nodes in connected_edge_subgraphs(graph, max_edges):
            code = min_dfs_code(subgraph)
            if code in seen_here:
                continue
            seen_here.add(code)
            supports.setdefault(code, set()).add(graph.graph_id)
    return {
        code: frozenset(gids)
        for code, gids in supports.items()
        if len(gids) >= min_count
    }
