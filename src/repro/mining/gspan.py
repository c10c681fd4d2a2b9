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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

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
        # Minimal one-edge code -> (graph id, u, v, edge key) records,
        # grouped on first use.
        self._seeds: dict[DFSEdge, list[tuple]] | None = None

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
            self.grow(DFSCode((edge,)), embeddings, deliver)
        return results

    def grow(
        self,
        code: DFSCode,
        embeddings: list[Embedding],
        deliver: ReportCallback,
    ) -> None:
        """Deliver ``code`` and every frequent minimal descendant, in DFS
        preorder, growing from ``code``'s embedding list.

        ``mine`` calls this once per frequent seed; the incremental
        updater calls it to re-expand a promoted border code.
        """
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
        prune_report = self.prune_report
        for edge in sorted(extensions, key=_DfsEdgeKey):
            records = extensions[edge]
            if counters is not None:
                counters.gspan_candidates_generated += 1
            graph_ids = extension_graph_ids(records)
            if len(graph_ids) < self.min_count:
                if counters is not None:
                    counters.gspan_candidates_pruned_infrequent += 1
                if prune_report is not None:
                    candidate = [(edge, graph_ids)]
                    for fringe in self._border(code.edges, candidate):
                        prune_report(*fringe)
                continue
            child = code.extended(edge)
            if not is_min_code(child):
                if counters is not None:
                    counters.gspan_candidates_pruned_nonminimal += 1
                continue
            self.grow(child, child_embeddings(records), deliver)

    def project(self, code: DFSCode | Sequence[DFSEdge]) -> list[Embedding]:
        """All embeddings of ``code``, in the order ``mine`` holds them.

        Replays the code edge by edge: the seed table gives the first
        edge's embeddings, and each later edge is the one candidate of
        :meth:`_extensions` that the code prescribes.  ``code`` must be a
        code gSpan can visit — a minimal one-edge seed followed by
        rightmost-path extensions — but need not be frequent: a prefix
        with no embeddings short-circuits to ``[]``.
        """
        edges = tuple(code.edges if isinstance(code, DFSCode) else code)
        if not edges:
            raise MiningError("cannot project an empty DFS code")
        i, j = edges[0][:2]
        if (i, j) != (0, 1):
            raise MiningError(
                f"DFS code must start with a (0, 1) edge, got ({i}, {j})"
            )
        embeddings = _seed_embeddings(self._seed_records().get(edges[0], []))
        for position in range(1, len(edges)):
            if not embeddings:
                return []
            edge = edges[position]
            prefix = DFSCode(edges[:position])
            records = self._extensions(prefix, embeddings, edge).get(edge, [])
            embeddings = child_embeddings(records)
        return embeddings

    def border(
        self,
        code: DFSCode | None = None,
        embeddings: Sequence[Embedding] = (),
    ) -> list[tuple[tuple[DFSEdge, ...], int]]:
        """The negative border directly below ``code``, as ``(code edges,
        support mask)`` pairs: what ``mine`` hands ``prune_report``.

        With no ``code`` these are the infrequent one-edge seeds;
        otherwise the infrequent minimal rightmost-path children grown
        from ``embeddings``, ``code``'s embedding list.  A code at
        ``max_edges`` has no children.
        """
        if code is None:
            return self._border((), self._seed_supports())
        if self.max_edges is not None and len(code) >= self.max_edges:
            return []
        extensions = self._extensions(code, embeddings)
        return self._border(
            code.edges,
            (
                (edge, extension_graph_ids(records))
                for edge, records in extensions.items()
            ),
        )

    # -- internals ----------------------------------------------------------------

    def _seed_records(self) -> dict[DFSEdge, list[tuple]]:
        """Every minimal one-edge code with its ``(graph id, u, v, edge
        key)`` records, grouped once per miner, before any threshold.

        A one-edge code is minimal iff its label tuple is no larger than
        the reverse orientation's (``(la, le, lb) <= (lb, le, la)``, i.e.
        ``la <= lb``, for an undirected edge); both orientations are
        recorded when the two codes are equal.  Records cost no
        ``Embedding`` until a seed is kept or projected.
        """
        seeds = self._seeds
        if seeds is None:
            seeds = self._seeds = {}
            for graph in self.database:
                gid = graph.graph_id
                for u, v, key, tail_uv, tail_vu in graph.edge_orientations():
                    uv = (0, 1, graph.node_label(u)) + tail_uv
                    vu = (0, 1, graph.node_label(v)) + tail_vu
                    if uv[2:] <= vu[2:]:
                        seeds.setdefault(uv, []).append((gid, u, v, key))
                    if vu[2:] <= uv[2:]:
                        seeds.setdefault(vu, []).append((gid, v, u, key))
        return seeds

    def _seed_supports(self) -> list[tuple[DFSEdge, set[int]]]:
        """Each one-edge seed with the ids of the graphs it occurs in."""
        return [
            (edge, {record[0] for record in records})
            for edge, records in self._seed_records().items()
        ]

    def _initial_projections(
        self,
    ) -> Iterable[tuple[DFSEdge, list[Embedding]]]:
        """Frequent one-edge seeds in ascending DFS order."""
        seeds = self._seed_records()
        supports = self._seed_supports()
        frequent: list[tuple[DFSEdge, list[Embedding]]] = [
            (edge, _seed_embeddings(seeds[edge]))
            for edge, graph_ids in supports
            if len(graph_ids) >= self.min_count
        ]
        if self.prune_report is not None:
            for fringe in self._border((), supports):
                self.prune_report(*fringe)
        counters = self.counters
        if counters is not None:
            counters.gspan_candidates_generated += len(seeds)
            counters.gspan_candidates_pruned_infrequent += (
                len(seeds) - len(frequent)
            )
        frequent.sort(key=lambda item: item[0][2:])
        return frequent

    def _border(
        self,
        code: tuple[DFSEdge, ...],
        supports: Iterable[tuple[DFSEdge, set[int] | frozenset[int]]],
    ) -> list[tuple[tuple[DFSEdge, ...], int]]:
        """The infrequent minimal children of ``code``, given each
        candidate edge with its support set.  One-edge seeds (the
        children of the empty code) are minimal by construction."""
        out: list[tuple[tuple[DFSEdge, ...], int]] = []
        for edge, graph_ids in supports:
            if len(graph_ids) >= self.min_count:
                continue
            child = code + (edge,)
            if code and not is_min_code(child):
                continue
            out.append((child, BitSet(graph_ids).bits))
        return out

    def _extensions(
        self,
        code: DFSCode,
        embeddings: Sequence[Embedding],
        only: DFSEdge | None = None,
    ) -> dict[DFSEdge, list[Extension]]:
        """All rightmost-path one-edge extensions, grouped by DFS edge.

        Each is a raw :data:`Extension` record; :func:`child_embeddings`
        turns the records of a kept candidate into embeddings, so a
        discarded candidate costs no ``Embedding`` or ``used`` set.
        ``only`` narrows the scan to the one head that extension edge
        leaves from, as :meth:`project` needs; candidates stay keyed by
        their full DFS edge.
        """
        rmpath = code.rightmost_path
        rm = rmpath[-1]
        vlabels = code.vertex_labels
        new_id = len(vlabels)
        backward = [(j, (rm, j, vlabels[rm])) for j in rmpath[:-1]]
        forward = [(i, (i, new_id, vlabels[i])) for i in rmpath]
        if only is not None:
            backward = [b for b in backward if b[1][:2] == only[:2]]
            forward = [f for f in forward if f[1][:2] == only[:2]]
            if not backward and not forward:
                i, j = only[:2]
                kind = "backward" if j < i else "forward"
                raise MiningError(f"invalid {kind} extension ({i}, {j})")
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


def _seed_embeddings(records: list[tuple]) -> list[Embedding]:
    """The embeddings of a one-edge seed, in record order."""
    return [
        Embedding(gid, (u, v), frozenset((key,)))
        for gid, u, v, key in records
    ]


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
