"""The similarity engine: measure + treelet prefilter + VF2/MCS.

One engine serves one immutable ``(database, taxonomy)`` snapshot —
the serving reader builds it lazily per committed store version — and
answers the three similarity ops:

* :meth:`SimilarityEngine.fuzzy_match` — similarity-thresholded
  containment under one of :data:`~repro.similarity.matcher.SEMANTICS`,
  each one VF2 search, injective or not;
* :meth:`SimilarityEngine.score` — the MCS-based graph-to-pattern
  similarity of one graph;
* :meth:`SimilarityEngine.similar` — all graphs scoring at least a
  threshold, ranked.

Everything expensive sits behind the :class:`~repro.similarity.
treelets.TreeletIndex` prefilter.  For containment the filter is the
sound fragment AND (wedges and size floors only under injective
semantics); for scoring it is an upper-bound cut: a graph whose
fragment profile cannot witness enough of the pattern's nodes and
edges to reach the threshold is skipped without touching the solver.
Candidate evaluation is ordered by treelet-profile Jaccard
(:meth:`~repro.util.bitset.BitSet.jaccard`) so the most promising
graphs are scored first; results are finally ordered by
``(-score, graph_id)`` so routed and direct answers are bit-identical.

Counters (``similarity.*``) mirror the serving conventions: every
containment test and MCS solve on the hot path is counted —
``vf2_tests`` for injective searches, ``hom_tests`` for non-injective
ones — which is how the benchmark suite proves the prefilter's cut.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.isomorphism.vf2 import find_embedding
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.similarity.matcher import (
    ThresholdMatcher,
    validate_semantics,
    validate_threshold,
)
from repro.similarity.mcs import MaximumCommonSubgraphSolver
from repro.similarity.measure import TaxonomySimilarity
from repro.similarity.treelets import TreeletIndex, pattern_fragments
from repro.util.bitset import BitSet

__all__ = ["ScoredGraph", "SimilarityEngine"]

# Sentinel threshold for "any positive similarity" fragment expansion
# (used by the scoring upper bound, where mapped pairs need sim > 0).
_POSITIVE = 0.0


@dataclass(frozen=True)
class ScoredGraph:
    """One database graph with its graph-to-pattern similarity."""

    graph_id: int
    score: float


class SimilarityEngine:
    """Similarity queries over one immutable database snapshot."""

    def __init__(
        self,
        database,
        taxonomy,
        exclude_labels=(),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        prefilter: bool = True,
    ) -> None:
        self.database = database
        self.measure = TaxonomySimilarity(taxonomy, exclude_labels)
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.prefilter = prefilter
        self._solver = MaximumCommonSubgraphSolver(self.measure)
        self._exact = ThresholdMatcher(self.measure, 1.0)
        self._index: TreeletIndex | None = None
        self._index_lock = threading.Lock()
        self._compat_cache: dict[tuple, BitSet] = {}

    # -- index and fragment compatibility -------------------------------------

    def index(self) -> TreeletIndex:
        """The treelet index, built once per engine (= store version)."""
        if self._index is None:
            with self._index_lock:
                if self._index is None:
                    with self.tracer.span("similarity.index_build"):
                        self._index = TreeletIndex(self.database)
                    self.metrics.add("similarity.index_builds", 1)
        return self._index

    def _sim_ok(self, a: int, b: int, threshold: float) -> bool:
        sim = self.measure.node_similarity(a, b)
        return sim > 0.0 if threshold == _POSITIVE else sim >= threshold

    def _compat_ids(self, key: tuple, threshold: float) -> BitSet:
        """Graph fragment ids compatible with one pattern fragment.

        ``threshold == 0.0`` means "any positive similarity" (the
        scoring upper bound); otherwise node labels must reach the
        threshold.  Edge labels are always exact.
        """
        cache_key = (key, threshold)
        cached = self._compat_cache.get(cache_key)
        if cached is not None:
            return cached
        index = self.index()
        out = BitSet()
        kind = key[0]
        if kind == "n":
            _, label = key
            for (_, other), fid in index.keys_of_kind("n"):
                if self._sim_ok(label, other, threshold):
                    out.add(fid)
        elif kind == "e":
            _, elabel, a, b = key
            for (_, f, x, y), fid in index.keys_of_kind("e"):
                if f != elabel:
                    continue
                if (
                    self._sim_ok(a, x, threshold)
                    and self._sim_ok(b, y, threshold)
                ) or (
                    self._sim_ok(a, y, threshold)
                    and self._sim_ok(b, x, threshold)
                ):
                    out.add(fid)
        else:
            _, center, (e1, a1), (e2, a2) = key
            for (_, z, (f1, x1), (f2, x2)), fid in index.keys_of_kind("w"):
                if not self._sim_ok(center, z, threshold):
                    continue
                if (
                    e1 == f1
                    and e2 == f2
                    and self._sim_ok(a1, x1, threshold)
                    and self._sim_ok(a2, x2, threshold)
                ) or (
                    e1 == f2
                    and e2 == f1
                    and self._sim_ok(a1, x2, threshold)
                    and self._sim_ok(a2, x1, threshold)
                ):
                    out.add(fid)
        self._compat_cache[cache_key] = out
        return out

    def candidate_graphs(
        self, pattern: Graph, threshold: float, semantics: str
    ) -> BitSet:
        """Sound containment prefilter: graphs that *may* contain the
        pattern at ``threshold`` under ``semantics``."""
        index = self.index()
        if not self.prefilter:
            return index.all_graphs
        fragments = pattern_fragments(pattern)
        if semantics == "homomorphism":
            # Wedge arms may collapse onto one node and images may
            # repeat, so only node/edge fragments (and no size floors)
            # are sound.
            fragments = [key for key in fragments if key[0] != "w"]
            min_nodes = min_edges = None
        else:
            min_nodes = pattern.num_nodes
            min_edges = pattern.num_edges
        return index.candidates(
            [self._compat_ids(key, threshold) for key in fragments],
            min_nodes=min_nodes,
            min_edges=min_edges,
        )

    # -- public ops ------------------------------------------------------------

    def fuzzy_match(
        self,
        pattern: Graph,
        threshold: float,
        semantics: str = "isomorphism",
    ) -> frozenset[int]:
        """Graph ids containing ``pattern`` at similarity ``threshold``."""
        threshold = validate_threshold(threshold)
        injective = validate_semantics(semantics) == "isomorphism"
        self.metrics.add("similarity.queries", 1)
        with self.tracer.span("similarity.prefilter"):
            candidates = self.candidate_graphs(pattern, threshold, semantics)
        total = len(self.database)
        self.metrics.add("similarity.prefilter_candidates", len(candidates))
        self.metrics.add(
            "similarity.prefilter_skipped", total - len(candidates)
        )
        matcher = ThresholdMatcher(self.measure, threshold)
        counter = (
            "similarity.vf2_tests" if injective else "similarity.hom_tests"
        )
        gids = set()
        with self.tracer.span("similarity.evaluate"):
            for gid in candidates:
                self.metrics.add(counter, 1)
                graph = self.database[gid]
                if find_embedding(
                    pattern, graph, matcher, injective=injective
                ) is not None:
                    gids.add(gid)
        return frozenset(gids)

    def score(self, pattern: Graph, graph_id: int) -> float:
        """MCS-based similarity of one database graph to the pattern."""
        self.metrics.add("similarity.queries", 1)
        return self._score_one(pattern, graph_id)

    def _score_one(self, pattern: Graph, graph_id: int) -> float:
        if not 0 <= graph_id < len(self.database):
            raise MiningError(
                f"graph id {graph_id} is out of range for a database of "
                f"{len(self.database)} graphs"
            )
        graph = self.database[graph_id]
        # Exact containment short-circuits to the score's fixed point
        # (score == 1.0 iff generalized containment) without the solver.
        self.metrics.add("similarity.vf2_tests", 1)
        if find_embedding(pattern, graph, self._exact) is not None:
            self.metrics.add("similarity.exact_shortcuts", 1)
            return 1.0
        self.metrics.add("similarity.mcs_solves", 1)
        return self._solver.solve(pattern, graph).score

    def similar(
        self,
        pattern: Graph,
        threshold: float,
        k: int | None = None,
    ) -> tuple[ScoredGraph, ...]:
        """Graphs scoring at least ``threshold``, ordered by
        ``(-score, graph_id)``, optionally truncated to ``k``."""
        threshold = validate_threshold(threshold)
        if k is not None and k < 0:
            raise MiningError("similar requires a non-negative k")
        self.metrics.add("similarity.queries", 1)
        size = pattern.num_nodes + pattern.num_edges
        index = self.index()
        total = len(self.database)
        with self.tracer.span("similarity.prefilter"):
            if self.prefilter:
                candidates, profile = self._score_candidates(
                    pattern, threshold, size, index
                )
            else:
                candidates = list(index.all_graphs)
                profile = None
        self.metrics.add("similarity.prefilter_candidates", len(candidates))
        self.metrics.add(
            "similarity.prefilter_skipped", total - len(candidates)
        )
        if profile is not None:
            # Most-promising-first evaluation: treelet-profile Jaccard
            # is a cheap proxy for the MCS score.
            candidates.sort(
                key=lambda gid: (-index.profile_jaccard(profile, gid), gid)
            )
        scored = []
        with self.tracer.span("similarity.evaluate"):
            for gid in candidates:
                score = self._score_one(pattern, gid)
                if score >= threshold:
                    scored.append(ScoredGraph(graph_id=gid, score=score))
        scored.sort(key=lambda s: (-s.score, s.graph_id))
        if k is not None:
            scored = scored[:k]
        return tuple(scored)

    def _score_candidates(
        self, pattern: Graph, threshold: float, size: int, index: TreeletIndex
    ) -> tuple[list[int], BitSet]:
        """Upper-bound cut for scoring: each pattern node (edge) can
        contribute at most 1 to the MCS weight, and only when the graph
        holds a positive-similarity witness fragment for it — so a
        graph witnessing fewer than ``threshold * size`` fragments
        cannot reach the threshold."""
        terms: list[tuple[BitSet, int]] = []
        counts: dict[tuple, int] = {}
        for v in pattern.nodes():
            key = ("n", pattern.node_label(v))
            counts[key] = counts.get(key, 0) + 1
        for u, v, elabel in pattern.edges():
            la, lb = pattern.node_label(u), pattern.node_label(v)
            a, b = (la, lb) if la <= lb else (lb, la)
            key = ("e", elabel, a, b)
            counts[key] = counts.get(key, 0) + 1
        profile = BitSet()
        for key, multiplicity in counts.items():
            compat = self._compat_ids(key, _POSITIVE)
            profile.union_update(compat)
            terms.append((compat, multiplicity))
        needed = threshold * size
        candidates = []
        for gid in range(index.num_graphs):
            fingerprint = index.fingerprint(gid)
            bound = sum(
                multiplicity
                for compat, multiplicity in terms
                if not compat.isdisjoint(fingerprint)
            )
            if bound >= needed:
                candidates.append(gid)
        return candidates, profile
