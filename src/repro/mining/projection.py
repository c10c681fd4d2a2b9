"""Targeted gSpan projection: replay one DFS code's embedding list.

:class:`~repro.mining.gspan.GSpanMiner` grows patterns depth-first and
carries the projection (embedding) list of every visited code.  The
parallel runtime needs the reverse direction: given an arbitrary
*candidate* code (mined by some other shard), enumerate its embeddings in
a database that never grew that code itself.

:func:`project_code` replays the code edge by edge with exactly the
candidate-generation loops of :meth:`GSpanMiner._extensions`, restricted
at each step to the one DFS edge the code prescribes.  The result is the
same embedding list — same embeddings, same order — that the miner would
have held for that code, so per-shard occurrence indices built from
replayed projections concatenate (in shard order) into the occurrence
numbering of a sequential run over the whole database.

A code whose prefix has no embeddings short-circuits to the empty list;
callers use this to compute a shard's contribution to the global support
of a pattern that is locally infrequent (possibly absent entirely).
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.mining.dfs_code import DFSCode, DFSEdge
from repro.mining.gspan import Embedding

__all__ = ["project_code"]


def project_code(
    database: GraphDatabase, code: DFSCode | Sequence[DFSEdge]
) -> list[Embedding]:
    """All embeddings of ``code`` in ``database``, in gSpan's order.

    The code must be a valid DFS code (every non-initial edge a
    rightmost-path extension of its prefix), which every code produced by
    :class:`~repro.mining.gspan.GSpanMiner` is.
    """
    edges = tuple(code.edges if isinstance(code, DFSCode) else code)
    if not edges:
        raise MiningError("cannot project an empty DFS code")
    embeddings = _project_initial(database, edges[0])
    for position in range(1, len(edges)):
        if not embeddings:
            return []
        prefix = DFSCode(edges[:position])
        embeddings = _project_extension(database, prefix, embeddings, edges[position])
    return embeddings


def _project_initial(database: GraphDatabase, edge: DFSEdge) -> list[Embedding]:
    """Replay of :meth:`GSpanMiner._initial_projections` for one edge."""
    i, j, li = edge[:3]
    if (i, j) != (0, 1):
        raise MiningError(f"DFS code must start with a (0, 1) edge, got ({i}, {j})")
    tail = edge[3:]
    out: list[Embedding] = []
    for graph in database:
        gid = graph.graph_id
        for u, v, key, tail_uv, tail_vu in graph.edge_orientations():
            # Same orientation order as the miner: (u, v) first, then
            # (v, u); both fire when the two orientations' codes are equal.
            if tail_uv == tail and graph.node_label(u) == li:
                out.append(Embedding(gid, (u, v), frozenset((key,))))
            if tail_vu == tail and graph.node_label(v) == li:
                out.append(Embedding(gid, (v, u), frozenset((key,))))
    return out


def _project_extension(
    database: GraphDatabase,
    prefix: DFSCode,
    embeddings: list[Embedding],
    edge: DFSEdge,
) -> list[Embedding]:
    """Replay of :meth:`GSpanMiner._extensions` restricted to ``edge``."""
    i, j = edge[:2]
    tail = edge[3:]
    vlabels = prefix.vertex_labels
    rmpath = prefix.rightmost_path
    out: list[Embedding] = []
    if j < i:  # backward: rightmost vertex back to a rightmost-path vertex
        if i != rmpath[-1] or j not in rmpath[:-1]:
            raise MiningError(f"invalid backward extension ({i}, {j})")
        for emb in embeddings:
            graph = database[emb.graph_id]
            for key, link in graph.links(emb.nodes[i], emb.nodes[j]):
                if link == tail and key not in emb.used:
                    out.append(
                        Embedding(emb.graph_id, emb.nodes, emb.used | {key})
                    )
    else:  # forward: discover vertex j from rightmost-path vertex i
        if j != len(vlabels) or i not in rmpath:
            raise MiningError(f"invalid forward extension ({i}, {j})")
        for emb in embeddings:
            graph = database[emb.graph_id]
            nodes = emb.nodes
            for w, key, link in graph.incident(nodes[i]):
                if link == tail and w not in nodes:
                    out.append(
                        Embedding(emb.graph_id, nodes + (w,), emb.used | {key})
                    )
    return out
