"""gSpan: frequent connected-subgraph mining over a graph database.

This is a from-scratch implementation of Yan & Han's gSpan (ICDM 2002):
depth-first pattern growth along minimum DFS codes, with projection
(embedding) lists carried down the search tree so that support counting
never rescans the database.

The miner is deliberately callback-friendly: Taxogram's Step 2 subscribes
to each reported pattern *with its full embedding list* to build the
taxonomy-projected occurrence index, then discards the embeddings —
memory stays proportional to one pattern at a time, exactly as the paper
argues for the DFS strategy.

Support is the number of distinct database graphs containing at least one
embedding; patterns have at least one edge.

The same miner mines a :class:`~repro.graphs.digraph.DiGraphDatabase`:
graphs hand out DFS-code tails through their adjacency accessors
(``incident``, ``links``, ``edge_orientations``), so directed codes carry
their direction component with no branch here.  Patterns of a digraph
database are weakly connected digraphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.mining.dfs_code import DFSCode, DFSEdge, dfs_edge_lt, is_min_code
from repro.util.bitset import BitSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import MiningCounters

__all__ = [
    "Embedding",
    "Extension",
    "MinedPattern",
    "GSpanMiner",
    "child_embeddings",
    "extension_graph_ids",
    "min_support_count",
]


def min_support_count(min_support: float, database_size: int) -> int:
    """Smallest absolute graph count satisfying a fractional threshold.

    ``sup(P) >= sigma`` with ``sup(P) = count / |D|`` means
    ``count >= ceil(sigma * |D|)`` up to floating-point noise.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    return max(1, math.ceil(min_support * database_size - 1e-9))


class Embedding(NamedTuple):
    """One occurrence of a pattern: a mapping into a database graph.

    ``nodes[i]`` is the graph node that DFS-code vertex ``i`` maps to;
    ``used`` holds the graph-edge keys consumed so far (gSpan never
    reuses an edge within one embedding).  A named tuple, because gSpan
    builds one per extension of every embedding.
    """

    graph_id: int
    nodes: tuple[int, ...]
    used: frozenset[tuple[int, int]]


@dataclass
class MinedPattern:
    """A frequent pattern as reported by the miner.

    ``support_mask`` has bit ``g`` set iff graph ``g`` holds an
    embedding; ``support_set`` is the same set as a frozenset.
    """

    code: DFSCode
    graph: Graph | DiGraph
    support_count: int
    support_mask: int
    embeddings: list[Embedding] = field(repr=False, default_factory=list)

    @property
    def support_set(self) -> frozenset[int]:
        return frozenset(BitSet.from_bits(self.support_mask))

    def support(self, database_size: int) -> float:
        return self.support_count / database_size

    @property
    def num_edges(self) -> int:
        return len(self.code)

    @property
    def num_nodes(self) -> int:
        return self.code.num_vertices


ReportCallback = Callable[[MinedPattern], None]


class GSpanMiner:
    """Mines frequent connected subgraphs from a :class:`GraphDatabase`
    (or weakly connected ones from a ``DiGraphDatabase``).

    Parameters
    ----------
    database:
        The graph database to mine.
    min_support:
        Fractional support threshold in ``(0, 1]``.
    max_edges:
        Optional cap on pattern size in edges (``None`` = unbounded).
    keep_embeddings:
        Whether reported patterns retain their embedding lists.  The
        Taxogram class miner needs them; plain mining usually does not.
    min_count:
        Optional absolute support threshold (distinct graphs) that
        overrides ``min_support``.  The parallel runtime mines shards at
        a relaxed absolute threshold derived from the global one, which a
        fraction cannot always express exactly.  May exceed the database
        size, in which case nothing is frequent.
    counters:
        Optional :class:`repro.core.results.MiningCounters` receiving the
        candidate stream statistics (``gspan_candidates_generated`` /
        ``..._pruned_infrequent`` / ``..._pruned_nonminimal``).  ``None``
        (the default) skips all counting.
    prune_report:
        Optional callback ``(code_edges, support_mask)`` invoked for every
        *minimal* candidate pruned as infrequent — the search's negative
        border.  :mod:`repro.incremental` persists this fringe so a later
        database delta can re-seed growth from exactly the codes a fresh
        run would prune.  Only minimal codes are reported (non-minimal
        duplicates re-appear under their canonical parent), and only
        candidates with at least one embedding exist to be generated.
    """

    def __init__(
        self,
        database: GraphDatabase,
        min_support: float = 0.1,
        max_edges: int | None = None,
        keep_embeddings: bool = False,
        min_count: int | None = None,
        counters: "MiningCounters | None" = None,
        prune_report: "Callable[[tuple[DFSEdge, ...], int], None] | None" = None,
    ) -> None:
        if len(database) == 0:
            raise MiningError("cannot mine an empty database")
        if max_edges is not None and max_edges < 1:
            raise MiningError("max_edges must be at least 1")
        self.database = database
        self.min_support = min_support
        if min_count is not None:
            if min_count < 1:
                raise MiningError(f"min_count must be at least 1, got {min_count}")
            self.min_count = min_count
        else:
            self.min_count = min_support_count(min_support, len(database))
        self.max_edges = max_edges
        self.keep_embeddings = keep_embeddings
        self.counters = counters
        self.prune_report = prune_report
        # graph id -> per-node incident lists, built on first touch.
        self._incident: dict[int, list[list[tuple]]] = {}

    # -- public API -------------------------------------------------------------

    def mine(self, report: ReportCallback | None = None) -> list[MinedPattern]:
        """Run the miner; returns all frequent patterns.

        If ``report`` is given it is invoked once per pattern, always with
        the embedding list attached; the returned copies honor
        ``keep_embeddings``.
        """
        results: list[MinedPattern] = []

        def deliver(pattern: MinedPattern) -> None:
            if report is not None:
                report(pattern)
            if not self.keep_embeddings:
                pattern = MinedPattern(
                    code=pattern.code,
                    graph=pattern.graph,
                    support_count=pattern.support_count,
                    support_mask=pattern.support_mask,
                    embeddings=[],
                )
            results.append(pattern)

        for edge, embeddings in self._initial_projections():
            self._grow(DFSCode((edge,)), embeddings, deliver)
        return results

    # -- internals ----------------------------------------------------------------

    def _initial_projections(
        self,
    ) -> Iterable[tuple[DFSEdge, list[Embedding]]]:
        """Frequent one-edge seeds in ascending DFS order.

        A one-edge code is minimal iff its label tuple is no larger than
        the reverse orientation's (``(la, le, lb) <= (lb, le, la)``, i.e.
        ``la <= lb``, for an undirected edge); both orientations are
        embedded when the two codes are equal.  Seeds are grouped as
        ``(graph id, u, v, edge key)`` records first, so a pruned seed
        costs no ``Embedding``.
        """
        seeds: dict[DFSEdge, list[tuple[int, int, int, tuple]]] = {}
        for graph in self.database:
            gid = graph.graph_id
            for u, v, key, tail_uv, tail_vu in graph.edge_orientations():
                uv = (0, 1, graph.node_label(u)) + tail_uv
                vu = (0, 1, graph.node_label(v)) + tail_vu
                if uv[2:] <= vu[2:]:
                    seeds.setdefault(uv, []).append((gid, u, v, key))
                if vu[2:] <= uv[2:]:
                    seeds.setdefault(vu, []).append((gid, v, u, key))
        frequent: list[tuple[DFSEdge, list[Embedding]]] = []
        for edge, records in seeds.items():
            graph_ids = {record[0] for record in records}
            if len(graph_ids) >= self.min_count:
                embeddings = [
                    Embedding(gid, (u, v), frozenset((key,)))
                    for gid, u, v, key in records
                ]
                frequent.append((edge, embeddings))
            elif self.prune_report is not None:
                self.prune_report((edge,), BitSet(graph_ids).bits)
        counters = self.counters
        if counters is not None:
            counters.gspan_candidates_generated += len(seeds)
            counters.gspan_candidates_pruned_infrequent += (
                len(seeds) - len(frequent)
            )
        frequent.sort(key=lambda item: item[0][2:])
        return frequent

    def _grow(
        self,
        code: DFSCode,
        embeddings: list[Embedding],
        deliver: Callable[[MinedPattern], None],
    ) -> None:
        support_mask = BitSet([e.graph_id for e in embeddings]).bits
        deliver(
            MinedPattern(
                code=code,
                graph=code.to_graph(),
                support_count=support_mask.bit_count(),
                support_mask=support_mask,
                embeddings=embeddings,
            )
        )
        if self.max_edges is not None and len(code) >= self.max_edges:
            return

        extensions = self._extensions(code, embeddings)
        counters = self.counters
        for edge in sorted(extensions, key=_DfsEdgeKey):
            records = extensions[edge]
            if counters is not None:
                counters.gspan_candidates_generated += 1
            graph_ids = extension_graph_ids(records)
            if len(graph_ids) < self.min_count:
                if counters is not None:
                    counters.gspan_candidates_pruned_infrequent += 1
                if self.prune_report is not None:
                    fringe = code.extended(edge)
                    if is_min_code(fringe):
                        self.prune_report(fringe.edges, BitSet(graph_ids).bits)
                continue
            child = code.extended(edge)
            if not is_min_code(child):
                if counters is not None:
                    counters.gspan_candidates_pruned_nonminimal += 1
                continue
            self._grow(child, child_embeddings(records), deliver)

    def _extensions(
        self, code: DFSCode, embeddings: list[Embedding]
    ) -> dict[DFSEdge, list[Extension]]:
        """All rightmost-path one-edge extensions, grouped by DFS edge.

        Each is a raw :data:`Extension` record; :func:`child_embeddings`
        turns the records of a kept candidate into embeddings, so a
        discarded candidate costs no ``Embedding`` or ``used`` set.
        """
        rmpath = code.rightmost_path
        rm = rmpath[-1]
        vlabels = code.vertex_labels
        new_id = len(vlabels)
        backward = [(j, (rm, j, vlabels[rm])) for j in rmpath[:-1]]
        forward = [(i, (i, new_id, vlabels[i])) for i in rmpath]
        database = self.database
        adjacency = self._incident
        out: dict[DFSEdge, list[Extension]] = {}
        for emb in embeddings:
            gid, nodes, used = emb
            graph = database[gid]
            incident = adjacency.get(gid)
            if incident is None:
                incident = adjacency[gid] = [
                    graph.incident(v) for v in graph.nodes()
                ]
            # Backward extensions: rightmost vertex to rightmost path.
            g_rm = nodes[rm]
            for j, head in backward:
                for key, tail in graph.links(g_rm, nodes[j]):
                    if key not in used:
                        record = (emb, None, key)
                        out.setdefault(head + tail, []).append(record)
            # Forward extensions from every rightmost-path vertex.
            for i, head in forward:
                for w, key, tail in incident[nodes[i]]:
                    if w not in nodes:
                        record = (emb, w, key)
                        out.setdefault(head + tail, []).append(record)
        return out


Extension = tuple[Embedding, "int | None", tuple[int, int]]
"""A raw extension record: ``(parent embedding, new node, edge key)``.

The new node is the graph node a forward edge discovers, ``None`` for a
backward edge; the edge key joins the parent's ``used`` set."""


def extension_graph_ids(records: list[Extension]) -> frozenset[int]:
    """The support set of a candidate: its parent embeddings' graphs."""
    return frozenset([record[0][0] for record in records])


def child_embeddings(records: list[Extension]) -> list[Embedding]:
    """The embeddings of a candidate, in the order gSpan generated them."""
    return [
        Embedding(
            emb.graph_id,
            emb.nodes if w is None else emb.nodes + (w,),
            emb.used | {key},
        )
        for emb, w, key in records
    ]


class _DfsEdgeKey:
    """Sort key adapter exposing :func:`dfs_edge_lt` to ``sorted``."""

    __slots__ = ("edge",)

    def __init__(self, edge: DFSEdge) -> None:
        self.edge = edge

    def __lt__(self, other: "_DfsEdgeKey") -> bool:
        return dfs_edge_lt(self.edge, other.edge)
