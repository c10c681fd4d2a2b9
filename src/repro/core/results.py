"""Result types shared by all taxonomy-superimposed miners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.mining.dfs_code import DFSCode
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
    :mod:`repro.observability`).
    """

    isomorphism_tests: int = 0
    embedding_extensions: int = 0
    bitset_intersections: int = 0
    occurrence_index_updates: int = 0
    pattern_classes: int = 0
    candidates_enumerated: int = 0
    candidates_pruned: int = 0
    overgeneralized_eliminated: int = 0
    memory_cells_peak: int = 0
    gspan_candidates_generated: int = 0
    gspan_candidates_pruned_infrequent: int = 0
    gspan_candidates_pruned_nonminimal: int = 0
    oie_entries: int = 0

    def merge(self, other: "MiningCounters") -> None:
        self.isomorphism_tests += other.isomorphism_tests
        self.embedding_extensions += other.embedding_extensions
        self.bitset_intersections += other.bitset_intersections
        self.occurrence_index_updates += other.occurrence_index_updates
        self.pattern_classes += other.pattern_classes
        self.candidates_enumerated += other.candidates_enumerated
        self.candidates_pruned += other.candidates_pruned
        self.overgeneralized_eliminated += other.overgeneralized_eliminated
        self.memory_cells_peak = max(self.memory_cells_peak, other.memory_cells_peak)
        self.gspan_candidates_generated += other.gspan_candidates_generated
        self.gspan_candidates_pruned_infrequent += (
            other.gspan_candidates_pruned_infrequent
        )
        self.gspan_candidates_pruned_nonminimal += (
            other.gspan_candidates_pruned_nonminimal
        )
        self.oie_entries += other.oie_entries

    def as_metrics(self) -> dict[str, int]:
        """Namespaced counter view consumed by
        :class:`repro.observability.report.RunReport`."""
        return {
            "gspan.candidates_generated": self.gspan_candidates_generated,
            "gspan.candidates_pruned_infrequent": (
                self.gspan_candidates_pruned_infrequent
            ),
            "gspan.candidates_pruned_nonminimal": (
                self.gspan_candidates_pruned_nonminimal
            ),
            "index.oie_entries": self.oie_entries,
            "index.updates": self.occurrence_index_updates,
            "iso.tests": self.isomorphism_tests,
            "memory.cells_peak": self.memory_cells_peak,
            "mine.embedding_extensions": self.embedding_extensions,
            "mine.pattern_classes": self.pattern_classes,
            "specialize.bitset_intersections": self.bitset_intersections,
            "specialize.candidates_enumerated": self.candidates_enumerated,
            "specialize.candidates_pruned": self.candidates_pruned,
            "specialize.overgeneralized_eliminated": (
                self.overgeneralized_eliminated
            ),
        }


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
