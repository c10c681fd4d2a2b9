"""The Taxogram algorithm (paper §3): the library's primary entry point.

Pipeline:

1. **Relabel** (:mod:`repro.core.relabel`) — produce :math:`D_{mg}` and
   the working taxonomy.
2. **Mine pattern classes** — run gSpan on :math:`D_{mg}`; for every
   frequent class build the taxonomy-projected occurrence index
   (:mod:`repro.core.occurrence_index`).
3. **Specialize** (:mod:`repro.core.specializer`) — enumerate class
   members through occurrence-set intersections and eliminate
   over-generalized patterns.

The paper's *baseline approach* is "the same as Taxogram except that the
baseline algorithm does not utilize efficiency enhancements"; use
:meth:`TaxogramOptions.baseline` or :func:`mine_baseline`.

Classes stream through Step 3 one at a time (gSpan's DFS order), so peak
memory holds a single occurrence index — the paper's Lemma 4 bound.

This module is the one driver: :func:`prepare_mine` (option checks and
Step 1), :func:`mine_classes` (Steps 2–3 in-process) and
:func:`build_result` serve the parallel runtime too, and a pattern-store
build is a :meth:`Taxogram.mine` run with a class sink attached
(:mod:`repro.incremental.pipeline`).

The paper notes (§4.1) that Taxogram "can handle both directed and
undirected graphs" but was held back by gSpan.  Here gSpan, the
canonical codes and VF2 take a :class:`~repro.graphs.digraph.DiGraphDatabase`
as well, so the same pipeline mines weakly connected directed patterns
(algorithm ``taxogram-directed``); the parallel runtime and pattern
stores stay undirected and refuse one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.disk_index import build_disk_occurrence_index
from repro.core.occurrence_index import (
    AncestorTable,
    build_occurrence_index,
    generalized_label_supports,
)
from repro.core.relabel import RelabeledDatabase, relabel_database
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import DiGraphDatabase
from repro.mining.gspan import GSpanMiner, MinedPattern, min_support_count
from repro.observability.report import RunReport
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.taxonomy.taxonomy import ARTIFICIAL_ROOT_NAME, Taxonomy
from repro.util.timing import Stopwatch

__all__ = ["TaxogramOptions", "Taxogram", "mine", "mine_baseline"]


@dataclass(frozen=True)
class TaxogramOptions:
    """Configuration for :class:`Taxogram`.

    The four ``enhancement_*`` flags map to the paper's §3 efficiency
    enhancements (a)–(d); disabling all four yields the paper's baseline
    algorithm.  ``occurrence_index_backend="disk"`` moves occurrence
    indices to SQLite (the paper's §6 future work) at identical results.
    """

    min_support: float = 0.2
    max_edges: int | None = None
    enhancement_descendant_pruning: bool = True  # (a)
    enhancement_frequent_label_filter: bool = True  # (b)
    enhancement_occurrence_collapse: bool = True  # (c)
    enhancement_taxonomy_contraction: bool = True  # (d)
    artificial_root_name: str = ARTIFICIAL_ROOT_NAME
    # Occurrence-index placement: "memory" (default) or "disk" — the
    # paper's future-work direction, backed by SQLite (see
    # repro.core.disk_index).  ``disk_index_directory`` of None uses a
    # temporary directory; ``disk_max_resident_entries`` bounds the
    # in-memory staging area during index construction.
    occurrence_index_backend: str = "memory"
    disk_index_directory: str | None = None
    disk_max_resident_entries: int = 4096
    # Parallelism knob: mine with this many worker processes.  ``1``
    # (the default) runs fully in-process; ``N > 1`` routes through
    # :class:`repro.parallel.runtime.ParallelTaxogram`, which shards the
    # database, mines shards at a relaxed local threshold, merges the
    # per-shard occurrence state and produces results identical to the
    # sequential pipeline (see docs/API.md, "Parallel mining").
    workers: int = 1
    # Persist the complete mining result (classes, occurrence state,
    # negative border) into this directory as a
    # :class:`repro.incremental.store.PatternStore`, enabling later
    # incremental maintenance under database deltas (see docs/API.md,
    # "Incremental mining").  ``None`` (the default) skips persistence.
    store_out: str | None = None
    # Compression codec for the persisted store ("zlib" or "auto", which
    # resolves to it; None/"none" for the legacy raw layout).  Only
    # meaningful together with ``store_out``; see
    # :mod:`repro.util.compression`.
    store_compression: str | None = None

    @classmethod
    def baseline(
        cls, min_support: float = 0.2, max_edges: int | None = None
    ) -> "TaxogramOptions":
        """The paper's baseline: Taxogram minus all enhancements."""
        return cls(
            min_support=min_support,
            max_edges=max_edges,
            enhancement_descendant_pruning=False,
            enhancement_frequent_label_filter=False,
            enhancement_occurrence_collapse=False,
            enhancement_taxonomy_contraction=False,
        )

    def with_support(self, min_support: float) -> "TaxogramOptions":
        return replace(self, min_support=min_support)


class Taxogram:
    """Taxonomy-superimposed graph miner (the paper's contribution)."""

    def __init__(self, options: TaxogramOptions | None = None) -> None:
        self.options = options if options is not None else TaxogramOptions()

    def mine(
        self,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        tracer: Tracer | None = None,
        *,
        class_sink: ClassSink | None = None,
        prune_report: PruneReport | None = None,
    ) -> TaxogramResult:
        """Mine the complete, minimal frequent pattern set of ``database``.

        ``tracer`` opts into phase spans (see :mod:`repro.observability`);
        ``None`` mines with the zero-overhead disabled tracer.  Either
        way the result carries a :class:`RunReport` of the work counters.

        ``class_sink`` and ``prune_report`` are the store build's hooks
        (:mod:`repro.incremental.pipeline`): the sink receives every
        class's ``(code edges, occurrences, patterns)`` after Step 3, in
        class-id order; ``prune_report`` receives gSpan's
        negative border (see :class:`~repro.mining.gspan.GSpanMiner`).
        """
        options = self.options
        check_options(options)
        if options.store_out is not None:
            from repro.incremental.pipeline import mine_to_store

            return mine_to_store(database, taxonomy, options, tracer)[0]
        if options.workers > 1:
            from repro.parallel.runtime import ParallelTaxogram

            return ParallelTaxogram(options).mine(
                database,
                taxonomy,
                tracer,
                class_sink=class_sink,
                prune_report=prune_report,
            )
        if tracer is None:
            tracer = NOOP_TRACER
        setup = prepare_mine(database, taxonomy, options, tracer)
        return mine_classes(
            database, options, setup, tracer, class_sink, prune_report
        )


ClassSink = Callable[
    [tuple, Sequence[tuple[int, tuple[int, ...]]], list[TaxonomyPattern]],
    None,
]
PruneReport = Callable[[tuple, int], None]


@dataclass
class MineSetup:
    """Step 1 and the run-wide state both runtimes mine from."""

    relabeled: RelabeledDatabase
    min_count: int
    # Enhancement (b): labels whose generalized support reaches
    # ``min_count``; None keeps every label in the occurrence indices.
    allowed: frozenset[int] | None
    specializer: SpecializerOptions
    stage_seconds: dict[str, float]


def check_options(options: TaxogramOptions) -> None:
    """Reject option values no runtime can mine with."""
    if options.workers < 1:
        raise MiningError(f"workers must be at least 1, got {options.workers}")
    if options.occurrence_index_backend not in ("memory", "disk"):
        raise MiningError(
            "occurrence_index_backend must be 'memory' or 'disk', got "
            f"{options.occurrence_index_backend!r}"
        )


def prepare_mine(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    options: TaxogramOptions,
    tracer: Tracer,
) -> MineSetup:
    """Step 1 plus what it decides: enhancement (d)'s contraction, the
    relabeled database, the support threshold and enhancement (b)'s
    label filter, timed as the ``relabel`` stage."""
    prepare = Stopwatch()
    with prepare, tracer.span("relabel"):
        if options.enhancement_taxonomy_contraction:
            taxonomy = _contract_taxonomy(
                taxonomy, database.distinct_node_labels()
            )
        relabeled = relabel_database(
            database, taxonomy, options.artificial_root_name
        )
        min_count = min_support_count(options.min_support, len(database))
        allowed: frozenset[int] | None = None
        if options.enhancement_frequent_label_filter:
            supports = generalized_label_supports(database, relabeled.taxonomy)
            allowed = frozenset(
                label for label, count in supports.items() if count >= min_count
            )
    return MineSetup(
        relabeled=relabeled,
        min_count=min_count,
        allowed=allowed,
        specializer=SpecializerOptions(
            descendant_pruning=options.enhancement_descendant_pruning,
            occurrence_collapse=options.enhancement_occurrence_collapse,
        ),
        stage_seconds={"relabel": prepare.elapsed},
    )


def mine_classes(
    database: GraphDatabase,
    options: TaxogramOptions,
    setup: MineSetup,
    tracer: Tracer,
    class_sink: ClassSink | None = None,
    prune_report: PruneReport | None = None,
) -> TaxogramResult:
    """Steps 2 and 3 in one process: classes stream from gSpan through
    the occurrence-index build and the specializer one at a time."""
    relabeled = setup.relabeled
    stage_seconds = setup.stage_seconds
    counters = MiningCounters()
    ancestors = AncestorTable(relabeled.taxonomy, setup.allowed)
    patterns: list[TaxonomyPattern] = []
    specialize = Stopwatch()

    def on_class(mined: MinedPattern) -> None:
        with specialize, tracer.span("specialize.class"):
            counters.pattern_classes += 1
            counters.embedding_extensions += len(mined.embeddings)
            if options.occurrence_index_backend == "disk":
                store, occurrence_index = build_disk_occurrence_index(
                    mined.code.num_vertices,
                    mined.embeddings,
                    relabeled.original_labels,
                    relabeled.taxonomy,
                    setup.allowed,
                    counters,
                    directory=options.disk_index_directory,
                    max_resident_entries=options.disk_max_resident_entries,
                    ancestors=ancestors,
                )
            else:
                store, occurrence_index = build_occurrence_index(
                    mined.code.num_vertices,
                    mined.embeddings,
                    relabeled.original_labels,
                    relabeled.taxonomy,
                    setup.allowed,
                    counters,
                    ancestors=ancestors,
                )
            try:
                class_patterns = specialize_class(
                    class_id=counters.pattern_classes - 1,
                    structure=mined.graph,
                    store=store,
                    index=occurrence_index,
                    taxonomy=relabeled.taxonomy,
                    min_count=setup.min_count,
                    database_size=len(database),
                    options=setup.specializer,
                    counters=counters,
                )
                patterns.extend(class_patterns)
                if class_sink is not None:
                    class_sink(
                        mined.code.edges, store.occurrences, class_patterns
                    )
            finally:
                close = getattr(occurrence_index, "close", None)
                if close is not None:
                    close()

    total = Stopwatch()
    with total, tracer.span("gspan.extend"):
        miner = GSpanMiner(
            relabeled.dmg,
            max_edges=options.max_edges,
            keep_embeddings=False,
            min_count=setup.min_count,
            counters=counters,
            prune_report=prune_report,
        )
        miner.mine(report=on_class)
    stage_seconds["mine_classes"] = max(0.0, total.elapsed - specialize.elapsed)
    stage_seconds["specialize"] = specialize.elapsed
    return build_result(database, options, patterns, counters, setup, tracer)


def build_result(
    database: GraphDatabase,
    options: TaxogramOptions,
    patterns: list[TaxonomyPattern],
    counters: MiningCounters,
    setup: MineSetup,
    tracer: Tracer,
    metrics=None,
    worker_seconds: dict[str, float] | None = None,
) -> TaxogramResult:
    """Assemble a run's :class:`TaxogramResult` and its report."""
    algorithm = algorithm_label(options, database)
    return TaxogramResult(
        patterns=patterns,
        database_size=len(database),
        min_support=options.min_support,
        algorithm=algorithm,
        counters=counters,
        stage_seconds=setup.stage_seconds,
        worker_seconds=worker_seconds or {},
        report=_build_report(
            algorithm,
            counters,
            setup.stage_seconds,
            tracer,
            database,
            metrics=metrics,
        ),
    )


def _build_report(
    algorithm: str,
    counters: MiningCounters,
    stage_seconds: dict[str, float],
    tracer: Tracer,
    database: GraphDatabase,
    metrics=None,
) -> RunReport:
    """Assemble the run's :class:`RunReport`.

    Dataset-shape gauges require a full database scan, so they are
    recorded only on traced runs; the counter block is always attached
    (it already exists, the report is just a namespaced view of it).
    """
    report = RunReport.from_run(
        algorithm, counters, stage_seconds, tracer=tracer, metrics=metrics
    )
    if tracer.enabled:
        report.gauges.update(database.stats().as_gauges())
    return report


def algorithm_label(options: TaxogramOptions, database: GraphDatabase) -> str:
    """``taxogram`` with any enhancement on, else ``baseline``; directed
    databases add ``-directed``."""
    enhanced = (
        options.enhancement_descendant_pruning
        or options.enhancement_frequent_label_filter
        or options.enhancement_occurrence_collapse
        or options.enhancement_taxonomy_contraction
    )
    algorithm = "taxogram" if enhanced else "baseline"
    if isinstance(database, DiGraphDatabase):
        algorithm += "-directed"
    return algorithm


def mine(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    min_support: float = 0.2,
    max_edges: int | None = None,
    workers: int = 1,
    tracer: Tracer | None = None,
) -> TaxogramResult:
    """One-call Taxogram mining with default enhancements; ``database``
    may be a ``GraphDatabase`` or a ``DiGraphDatabase``."""
    options = TaxogramOptions(
        min_support=min_support, max_edges=max_edges, workers=workers
    )
    return Taxogram(options).mine(database, taxonomy, tracer)


def mine_baseline(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    min_support: float = 0.2,
    max_edges: int | None = None,
) -> TaxogramResult:
    """The paper's baseline approach: Taxogram without enhancements."""
    options = TaxogramOptions.baseline(min_support=min_support, max_edges=max_edges)
    return Taxogram(options).mine(database, taxonomy)


def _contract_taxonomy(taxonomy: Taxonomy, observed: set[int]) -> Taxonomy:
    """Efficiency enhancement (d): drop redundant interior concepts.

    A non-root concept ``n`` that no graph uses directly is redundant
    when one of its children ``c`` generalizes every observed label that
    ``n`` generalizes — then any pattern containing ``n`` is
    over-generalized (replace ``n`` by ``c`` at no support loss) and
    every observed label stays reachable through ``c``.  This is the
    sound DAG-safe form of the paper's occurrence-set condition (see
    DESIGN.md).
    """
    current = taxonomy
    for _round in range(len(taxonomy)):
        removable: list[int] = []
        for label in current.labels():
            if label in observed or not current.parents_of(label):
                continue
            children = current.children_of(label)
            if not children:
                continue
            observed_below = observed & current.descendants_or_self(label)
            if not observed_below:
                continue  # never covered; enhancement (b) already skips it
            for child in children:
                if observed_below <= current.descendants_or_self(child):
                    removable.append(label)
                    break
        if not removable:
            break
        current = current.contracted(removable)
    return current
