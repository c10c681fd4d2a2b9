"""DFS codes: gSpan's canonical representation of connected labeled graphs.

A DFS code is a sequence of edge 5-tuples ``(i, j, li, le, lj)`` where
``i``/``j`` are discovery indices of the edge endpoints, ``li``/``lj``
their node labels and ``le`` the edge label.  ``i < j`` marks a *forward*
edge (discovering vertex ``j``), ``i > j`` a *backward* edge.

A :class:`~repro.graphs.digraph.DiGraph`'s code edges are 6-tuples
``(i, j, li, le, lj, d)``: ``d`` is 1 when the arc runs along the
traversal (``i -> j``) and 0 when it runs against it.  Traversal may
cross an arc either way, so codes describe weakly connected digraphs.
The builder reads adjacency only through the graph's DFS-code accessors
(``incident``, ``links``, ``edge_orientations``), which hand out the
tuple's tail after ``(i, j, li)``; nothing here branches on direction
except :func:`graph_from_code`, which picks the graph type from the
tuple width.

Among all DFS codes of a graph, the lexicographically smallest under the
DFS lexicographic order (Yan & Han 2002) is the *minimum DFS code* — a
canonical form.  Two connected labeled graphs are isomorphic iff their
minimum DFS codes are equal, which is how the whole library deduplicates
patterns.

This module provides:

* :func:`dfs_edge_lt` — the DFS lexicographic edge order;
* :func:`code_lt` / :data:`code_key` — that order on whole codes, as a
  predicate and as a sort key;
* :class:`DFSCode` — an immutable code with rightmost-path bookkeeping;
* :func:`is_min_code` — gSpan's minimality check;
* :func:`min_dfs_code` — canonical form of an arbitrary connected graph.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from typing import Iterable, Sequence

from repro.exceptions import MiningError
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

__all__ = [
    "DFSEdge",
    "canonical_cache_info",
    "clear_canonical_caches",
    "code_key",
    "code_lt",
    "dfs_edge_lt",
    "DFSCode",
    "graph_from_code",
    "is_min_code",
    "min_code_with_embeddings",
    "min_dfs_code",
]

# (i, j, from_label, edge_label, to_label), plus a direction component
# for a DiGraph's codes.
DFSEdge = tuple[int, ...]


def dfs_edge_lt(e1: DFSEdge, e2: DFSEdge) -> bool:
    """True iff ``e1`` precedes ``e2`` in the DFS lexicographic order.

    Rules (Yan & Han, gSpan TR):

    * backward vs forward: backward ``(i1, j1)`` precedes forward
      ``(i2, j2)`` iff ``i1 < j2``; forward precedes backward iff
      ``j1 <= i2``.
    * two backward edges: smaller ``i`` first, then smaller ``j``, then
      label tuple.
    * two forward edges: smaller ``j`` first, then *larger* ``i``, then
      label tuple.

    The label tuple is ``(li, le, lj)``, or ``(li, le, lj, d)`` for
    directed codes.
    """
    i1, j1 = e1[0], e1[1]
    i2, j2 = e2[0], e2[1]
    fwd1, fwd2 = i1 < j1, i2 < j2
    if fwd1 != fwd2:
        if not fwd1:  # e1 backward, e2 forward
            return i1 < j2
        return j1 <= i2  # e1 forward, e2 backward
    if not fwd1:  # both backward
        if i1 != i2:
            return i1 < i2
        if j1 != j2:
            return j1 < j2
        return e1[2:] < e2[2:]
    # both forward
    if j1 != j2:
        return j1 < j2
    if i1 != i2:
        return i1 > i2
    return e1[2:] < e2[2:]


def code_lt(code1: Sequence[DFSEdge], code2: Sequence[DFSEdge]) -> bool:
    """Lexicographic order on whole codes (prefix is smaller)."""
    for e1, e2 in zip(code1, code2):
        if e1 == e2:
            continue
        return dfs_edge_lt(e1, e2)
    return len(code1) < len(code2)


def _code_cmp(code1: Sequence[DFSEdge], code2: Sequence[DFSEdge]) -> int:
    if code_lt(code1, code2):
        return -1
    return 1 if code_lt(code2, code1) else 0


# Sort key for whole codes in code_lt order; sorting classes by it
# reproduces the class ids a sequential gSpan run assigns.
code_key = cmp_to_key(_code_cmp)


class DFSCode:
    """An immutable DFS code with derived vertex labels and rightmost path."""

    __slots__ = ("edges", "vertex_labels", "rightmost_path")

    def __init__(self, edges: Iterable[DFSEdge]) -> None:
        self.edges: tuple[DFSEdge, ...] = tuple(edges)
        self.vertex_labels: tuple[int, ...] = self._derive_vertex_labels()
        self.rightmost_path: tuple[int, ...] = self._derive_rightmost_path()

    def _derive_vertex_labels(self) -> tuple[int, ...]:
        labels: dict[int, int] = {}
        for edge in self.edges:
            i, j, li, lj = edge[0], edge[1], edge[2], edge[4]
            labels.setdefault(i, li)
            labels.setdefault(j, lj)
            if labels[i] != li or labels[j] != lj:
                raise MiningError("inconsistent vertex labels in DFS code")
        if not labels:
            return ()
        n = max(labels) + 1
        if sorted(labels) != list(range(n)):
            raise MiningError("DFS code vertex ids must be dense")
        return tuple(labels[v] for v in range(n))

    def _derive_rightmost_path(self) -> tuple[int, ...]:
        """Vertex ids from the root (0) to the rightmost vertex, following
        forward edges."""
        if not self.edges:
            return ()
        parent: dict[int, int] = {}
        rightmost = 0
        for i, j, *_ in self.edges:
            if i < j:  # forward
                parent[j] = i
                rightmost = max(rightmost, j)
        path = [rightmost]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def rightmost_vertex(self) -> int:
        if not self.edges:
            raise MiningError("empty DFS code has no rightmost vertex")
        return self.rightmost_path[-1]

    def extended(self, edge: DFSEdge) -> "DFSCode":
        return DFSCode(self.edges + (edge,))

    def to_graph(self, graph_id: int = -1) -> Graph | DiGraph:
        return graph_from_code(self.edges, graph_id)

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DFSCode):
            return self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.edges)

    def __lt__(self, other: "DFSCode") -> bool:
        return code_lt(self.edges, other.edges)

    def __repr__(self) -> str:
        return f"DFSCode({list(self.edges)})"


def graph_from_code(
    edges: Sequence[DFSEdge], graph_id: int = -1
) -> Graph | DiGraph:
    """Materialize the labeled graph a DFS code describes: a ``DiGraph``
    for 6-wide code edges, else a ``Graph``."""
    code = edges if isinstance(edges, DFSCode) else DFSCode(edges)
    directed = bool(code.edges) and len(code.edges[0]) == 6
    graph = DiGraph(graph_id) if directed else Graph(graph_id)
    for label in code.vertex_labels:
        graph.add_node(label)
    for edge in code.edges:
        i, j = edge[0], edge[1]
        if directed and not edge[5]:  # the arc runs against the traversal
            i, j = j, i
        graph.add_edge(i, j, edge[3])
    return graph


# ---------------------------------------------------------------------------
# Minimum DFS code construction
# ---------------------------------------------------------------------------
#
# Both the minimality check (is_min_code) and canonicalization
# (min_dfs_code) run the same incremental construction: grow the minimum
# code one edge at a time on the target graph, keeping every partial
# embedding that realizes the minimum prefix.  At each step the candidate
# extensions follow gSpan's rightmost-path rule; the DFS lexicographic
# order picks the unique minimum next edge.


class _State:
    """A partial embedding of the code being built into the host graph."""

    __slots__ = ("nodes", "used")

    def __init__(self, nodes: tuple[int, ...], used: frozenset[tuple[int, int]]):
        self.nodes = nodes  # code vertex id -> graph node
        self.used = used  # edge keys already consumed


def _min_code_steps(graph: Graph | DiGraph) -> "_MinCodeBuilder":
    return _MinCodeBuilder(graph)


class _MinCodeBuilder:
    """Incrementally constructs the minimum DFS code of ``graph``."""

    def __init__(self, graph: Graph | DiGraph) -> None:
        self.graph = graph
        self.code: list[DFSEdge] = []
        self.vertex_labels: list[int] = []
        self.states: list[_State] = []
        self._start()

    def _start(self) -> None:
        graph = self.graph
        best: DFSEdge | None = None
        states: list[_State] = []
        for u, v, key, tail_uv, tail_vu in graph.edge_orientations():
            for a, b, tail in ((u, v, tail_uv), (v, u, tail_vu)):
                cand: DFSEdge = (0, 1, graph.node_label(a)) + tail
                if best is None or cand[2:] < best[2:]:
                    best = cand
                    states = []
                if cand == best:
                    states.append(_State((a, b), frozenset((key,))))
        if best is None:
            return  # edgeless graph: empty code
        self.code.append(best)
        self.vertex_labels = [best[2], best[4]]
        self.states = states

    def step(self) -> DFSEdge | None:
        """Append the next minimum edge; None when the code is complete."""
        if len(self.code) == self.graph.num_edges:
            return None
        rmpath = DFSCode(self.code).rightmost_path
        best = self._min_backward(rmpath)
        if best is None:
            best = self._min_forward(rmpath)
        if best is None:
            raise MiningError("graph is not connected")
        edge, new_states = best
        self.code.append(edge)
        if edge[0] < edge[1]:  # forward discovers a vertex
            self.vertex_labels.append(edge[4])
        self.states = new_states
        return edge

    def _min_backward(
        self, rmpath: tuple[int, ...]
    ) -> tuple[DFSEdge, list[_State]] | None:
        graph = self.graph
        rm = rmpath[-1]
        best: DFSEdge | None = None
        best_states: list[_State] = []
        for state in self.states:
            g_rm = state.nodes[rm]
            for j in rmpath[:-1]:
                for key, tail in graph.links(g_rm, state.nodes[j]):
                    if key in state.used:
                        continue
                    cand: DFSEdge = (rm, j, self.vertex_labels[rm]) + tail
                    if best is None or dfs_edge_lt(cand, best):
                        best = cand
                        best_states = []
                    if cand == best:
                        best_states.append(
                            _State(state.nodes, state.used | {key})
                        )
        if best is None:
            return None
        return best, best_states

    def _min_forward(
        self, rmpath: tuple[int, ...]
    ) -> tuple[DFSEdge, list[_State]] | None:
        graph = self.graph
        new_id = len(self.vertex_labels)
        best: DFSEdge | None = None
        best_states: list[_State] = []
        # Larger anchor i = smaller edge, so scan the rightmost path from
        # the rightmost vertex toward the root and stop at the first depth
        # with any candidate.
        for i in reversed(rmpath):
            head = (i, new_id, self.vertex_labels[i])
            for state in self.states:
                mapped = set(state.nodes)
                for w, key, tail in graph.incident(state.nodes[i]):
                    if w in mapped:
                        continue
                    cand: DFSEdge = head + tail
                    if best is None or dfs_edge_lt(cand, best):
                        best = cand
                        best_states = []
                    if cand == best:
                        best_states.append(
                            _State(state.nodes + (w,), state.used | {key})
                        )
            if best is not None:
                break
        if best is None:
            return None
        return best, best_states


@lru_cache(maxsize=1 << 16)
def _is_min_code_cached(edges: tuple[DFSEdge, ...]) -> bool:
    graph = graph_from_code(edges)
    builder = _min_code_steps(graph)
    if builder.code[0] != edges[0]:
        return False
    for position in range(1, len(edges)):
        min_edge = builder.step()
        if min_edge != edges[position]:
            return False
    return True


def is_min_code(code: DFSCode | Sequence[DFSEdge]) -> bool:
    """gSpan's minimality test: is ``code`` the minimum DFS code of the
    graph it describes?

    Memoized on the edge tuple: the specializer and the streaming
    updater re-test the same candidate codes across taxonomy levels and
    deltas, and minimality is a pure function of the code.  Parallel
    workers are separate processes, so each keeps a private cache and
    the counter/differential invariants are unaffected.
    """
    edges = code.edges if isinstance(code, DFSCode) else tuple(code)
    if not edges:
        return True
    return _is_min_code_cached(edges)


# structure_key -> canonical code; bounded by wholesale clearing, which
# beats lru_cache bookkeeping here because hits vastly outnumber
# evictions during a mining run.
_MIN_CODE_CACHE: dict[tuple, DFSCode] = {}
_MIN_CODE_CACHE_MAX = 1 << 15
_min_code_hits = 0
_min_code_misses = 0


def min_dfs_code(graph: Graph | DiGraph) -> DFSCode:
    """The canonical (minimum) DFS code of a connected labeled graph.

    Raises :class:`MiningError` for disconnected graphs.  An edgeless
    single-vertex graph yields the empty code; since frequent patterns
    always contain an edge this is only relevant to callers using codes
    as general-purpose canonical keys.

    Memoized on :meth:`Graph.structure_key` — equal keys mean identical
    labeled graphs, hence identical canonical codes.  A ``DiGraph``'s key
    is tagged with its type, so a digraph and a ``Graph`` with the same
    labels and ``(u, v, label)`` list never share a cached code.  gSpan enumerates
    the same candidate graph through many extension orders, so the
    canonicalization in the specializer's ``finalize`` step hits the
    cache heavily.
    """
    global _min_code_hits, _min_code_misses
    if graph.num_edges == 0:
        if graph.num_nodes > 1:
            raise MiningError("graph is not connected")
        return DFSCode(())
    key = graph.structure_key()
    cached = _MIN_CODE_CACHE.get(key)
    if cached is not None:
        _min_code_hits += 1
        return cached
    if not graph.is_connected():
        raise MiningError("graph is not connected")
    builder = _min_code_steps(graph)
    while builder.step() is not None:
        pass
    code = DFSCode(builder.code)
    _min_code_misses += 1
    if len(_MIN_CODE_CACHE) >= _MIN_CODE_CACHE_MAX:
        _MIN_CODE_CACHE.clear()
    _MIN_CODE_CACHE[key] = code
    return code


def canonical_cache_info() -> dict[str, int]:
    """Hit/miss/size statistics for both canonicality caches."""
    info = _is_min_code_cached.cache_info()
    return {
        "is_min_code_hits": info.hits,
        "is_min_code_misses": info.misses,
        "is_min_code_size": info.currsize,
        "min_dfs_code_hits": _min_code_hits,
        "min_dfs_code_misses": _min_code_misses,
        "min_dfs_code_size": len(_MIN_CODE_CACHE),
    }


def clear_canonical_caches() -> None:
    global _min_code_hits, _min_code_misses
    _is_min_code_cached.cache_clear()
    _MIN_CODE_CACHE.clear()
    _min_code_hits = 0
    _min_code_misses = 0


def min_code_with_embeddings(
    graph: Graph | DiGraph,
) -> tuple[DFSCode, list[tuple[int, ...]]]:
    """The minimum DFS code of ``graph`` plus every embedding realizing it.

    Each embedding maps code vertex id -> graph node; for a pattern
    graph these are exactly the isomorphisms from the code's position
    space onto the graph — one per automorphism.  The serving layer uses
    them to translate query-node labels into occurrence-index positions
    without any isomorphism search: the builder already tracked every
    minimal embedding while canonicalizing.
    """
    if graph.num_edges == 0:
        if graph.num_nodes > 1:
            raise MiningError("graph is not connected")
        embeddings = [(0,)] if graph.num_nodes == 1 else []
        return DFSCode(()), embeddings
    if not graph.is_connected():
        raise MiningError("graph is not connected")
    builder = _min_code_steps(graph)
    while builder.step() is not None:
        pass
    seen: set[tuple[int, ...]] = set()
    embeddings = []
    for state in builder.states:
        if state.nodes not in seen:
            seen.add(state.nodes)
            embeddings.append(state.nodes)
    return DFSCode(builder.code), embeddings
