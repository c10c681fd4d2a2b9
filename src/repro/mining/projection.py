"""Targeted gSpan projection: replay one DFS code's embedding list.

:class:`~repro.mining.gspan.GSpanMiner` grows patterns depth-first and
carries the projection (embedding) list of every visited code.  The
parallel runtime needs the reverse direction: given an arbitrary
*candidate* code (mined by some other shard), enumerate its embeddings in
a database that never grew that code itself.

:func:`project_code` is :meth:`GSpanMiner.project
<repro.mining.gspan.GSpanMiner.project>` on a fresh miner, which replays
the code edge by edge through the miner's own seed table and extension
loop.  The result is the same embedding list — same embeddings, same
order — that the miner would have held for that code, so per-shard
occurrence indices built from replayed projections concatenate (in shard
order) into the occurrence numbering of a sequential run over the whole
database.

A code whose prefix has no embeddings short-circuits to the empty list;
callers use this to compute a shard's contribution to the global support
of a pattern that is locally infrequent (possibly absent entirely).
"""

from __future__ import annotations

from typing import Sequence

from repro.graphs.database import GraphDatabase
from repro.mining.dfs_code import DFSCode, DFSEdge
from repro.mining.gspan import Embedding, GSpanMiner

__all__ = ["project_code"]


def project_code(
    database: GraphDatabase, code: DFSCode | Sequence[DFSEdge]
) -> list[Embedding]:
    """All embeddings of ``code`` in ``database``, in gSpan's order.

    The code must be a valid DFS code (every non-initial edge a
    rightmost-path extension of its prefix), which every code produced by
    :class:`~repro.mining.gspan.GSpanMiner` is.
    """
    if len(database) == 0:
        return []  # nothing embeds; the miner refuses an empty database
    return GSpanMiner(database, min_count=1).project(code)
