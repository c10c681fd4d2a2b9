"""Result types shared by all taxonomy-superimposed miners."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.mining.dfs_code import DFSCode, code_key
from repro.util.bitset import BitSet
from repro.util.interner import LabelInterner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.report import RunReport

__all__ = ["TaxonomyPattern", "MiningCounters", "TaxogramResult", "format_pattern"]


@dataclass(frozen=True)
class TaxonomyPattern:
    """One mined (non-over-generalized, frequent) pattern.

    ``graph`` carries the actual (possibly specialized) node labels;
    ``code`` is its canonical minimum DFS code, usable as a dictionary
    key for cross-algorithm comparisons.  ``support_mask`` has bit ``g``
    set iff graph ``g`` contains the pattern; ``support_set`` is the same
    set as a frozenset, built on each read.  ``class_id`` groups patterns
    of the same pattern class (same structure, labels related through
    the taxonomy); miners that do not track classes use ``-1``.

    For a class whose structure has interchangeable positions, the node
    order of ``graph`` follows the working taxonomy: a store build (which
    turns taxonomy contraction off) and a plain mine can list the same
    pattern with its nodes in a different order.  Compare patterns by
    ``code``, which is canonical.
    """

    code: DFSCode
    graph: Graph | DiGraph
    support_count: int
    support: float
    support_mask: int
    class_id: int = -1

    @property
    def support_set(self) -> frozenset[int]:
        return frozenset(BitSet.from_bits(self.support_mask))

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def sort_key(self) -> tuple:
        return (self.num_edges, self.code.edges)

    def rank_key(self) -> tuple:
        """Ranked-listing order: highest support first, ties in DFS-code
        order."""
        return (-self.support_count, code_key(self.code.edges))


def _counter(metric: str, peak: bool = False):
    """A :class:`MiningCounters` field: its metric key, and whether it
    merges by maximum (a peak) rather than by sum."""
    return field(default=0, metadata={"metric": metric, "peak": peak})


@dataclass
class MiningCounters:
    """Work counters backing the paper's efficiency claims.

    ``isomorphism_tests`` counts full (generalized) subgraph isomorphism
    calls; ``embedding_extensions`` counts gSpan projection growth steps
    (the DFS analogue of isomorphism work); ``bitset_intersections``
    counts Step-3 support computations that replaced isomorphism tests;
    ``occurrence_index_updates`` counts occurrence-set insertions during
    index construction (Lemma 5's cost term); ``oie_entries`` counts the
    distinct (position, label) occurrence-index entries materialized.

    The ``gspan_candidates_*`` trio splits gSpan's candidate stream into
    generated / pruned-as-infrequent / pruned-as-non-minimal, and
    ``candidates_pruned`` counts Step-3 label choices whose occurrence
    intersection fell below the threshold — together they make pruning
    regressions visible as counter deltas (see
    :mod:`repro.observability`).  ``candidates_enumerated`` counts the
    complete label assignments Step 3 builds, and
    ``overgeneralized_eliminated`` the over-generalized ones it drops:
    one per label enhancement (c) skips before or during enumeration,
    plus one per built assignment the final check rejects.
    """

    isomorphism_tests: int = _counter("iso.tests")
    embedding_extensions: int = _counter("mine.embedding_extensions")
    bitset_intersections: int = _counter("specialize.bitset_intersections")
    occurrence_index_updates: int = _counter("index.updates")
    pattern_classes: int = _counter("mine.pattern_classes")
    candidates_enumerated: int = _counter("specialize.candidates_enumerated")
    candidates_pruned: int = _counter("specialize.candidates_pruned")
    overgeneralized_eliminated: int = _counter(
        "specialize.overgeneralized_eliminated"
    )
    memory_cells_peak: int = _counter("memory.cells_peak", peak=True)
    gspan_candidates_generated: int = _counter("gspan.candidates_generated")
    gspan_candidates_pruned_infrequent: int = _counter(
        "gspan.candidates_pruned_infrequent"
    )
    gspan_candidates_pruned_nonminimal: int = _counter(
        "gspan.candidates_pruned_nonminimal"
    )
    oie_entries: int = _counter("index.oie_entries")

    def merge(self, other: "MiningCounters") -> None:
        """Fold ``other`` in: counters sum, peaks keep the maximum."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            setattr(
                self,
                spec.name,
                max(mine, theirs) if spec.metadata["peak"] else mine + theirs,
            )

    def as_metrics(self) -> dict[str, int]:
        """Namespaced counter view consumed by
        :class:`repro.observability.report.RunReport`, keys sorted."""
        return dict(
            sorted(
                (spec.metadata["metric"], getattr(self, spec.name))
                for spec in fields(self)
            )
        )


@dataclass
class TaxogramResult:
    """The output of a mining run: the pattern set plus provenance."""

    patterns: list[TaxonomyPattern]
    database_size: int
    min_support: float
    algorithm: str = "taxogram"
    counters: MiningCounters = field(default_factory=MiningCounters)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # Aggregated per-phase CPU seconds across worker processes (parallel
    # runs only; empty for sequential runs).  Kept apart from
    # ``stage_seconds`` so ``total_seconds`` stays a wall-clock sum.
    worker_seconds: dict[str, float] = field(default_factory=dict)
    # The run's observability report (counters, gauges, stage times and
    # — when the run was traced — the span tree).  Populated by the
    # Taxogram pipelines; miners predating repro.observability leave it
    # None and callers fall back to RunReport.from_run(...).
    report: "RunReport | None" = None

    def __post_init__(self) -> None:
        self.patterns.sort(key=TaxonomyPattern.sort_key)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def pattern_codes(self) -> dict[DFSCode, frozenset[int]]:
        """Canonical code -> support set; the comparison-friendly view."""
        return {p.code: p.support_set for p in self.patterns}

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def summary(self) -> str:
        stages = ", ".join(
            f"{name}={seconds * 1000.0:.1f}ms"
            for name, seconds in self.stage_seconds.items()
        )
        return (
            f"{self.algorithm}: {len(self.patterns)} patterns "
            f"(classes={self.counters.pattern_classes}, "
            f"over-generalized eliminated="
            f"{self.counters.overgeneralized_eliminated}) [{stages}]"
        )


def format_pattern(
    pattern: TaxonomyPattern,
    interner: LabelInterner,
    edge_labels: LabelInterner | None = None,
) -> str:
    """Human-readable one-liner: nodes, edges and support.

    With ``edge_labels`` supplied, edges render as ``u-v:name``; without
    it, a numeric edge-label suffix appears only when the pattern uses a
    label other than 0, so simple single-label data stays clean while
    multi-label patterns remain distinguishable.  A ``DiGraph``'s arcs
    render as ``u->v``.
    """
    graph = pattern.graph
    nodes = ", ".join(
        f"{v}:{interner.name_of(graph.node_label(v))}" for v in graph.nodes()
    )
    joint = "->" if isinstance(graph, DiGraph) else "-"

    def render_edge(u: int, v: int, label: int) -> str:
        if edge_labels is not None:
            return f"{u}{joint}{v}:{edge_labels.name_of(label)}"
        if label != 0:
            return f"{u}{joint}{v}:{label}"
        return f"{u}{joint}{v}"

    edges = ", ".join(render_edge(u, v, e) for u, v, e in graph.edges())
    return f"[{nodes} | {edges}] sup={pattern.support:.3f}"
