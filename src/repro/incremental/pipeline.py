"""Mine a database into a persistent :class:`PatternStore`.

The store pipeline runs the standard Taxogram stages but persists, for
every pattern class, the occurrence-id space (:class:`OccurrenceColumns`)
and the taxonomy-projected occurrence index (one
:class:`~repro.core.disk_index.DiskOccurrenceIndex` per class), plus the
search's *negative border* — every minimal candidate code gSpan generated
and pruned as infrequent, with its exact supporting graph set.  The
border is what lets :class:`repro.incremental.updater.IncrementalTaxogram`
re-seed growth after a delta instead of remining from scratch.

Two store-build invariants keep updates equivalence-preserving; both are
pure efficiency toggles, so the *pattern output* is identical to a
default :class:`~repro.core.taxogram.Taxogram` run:

- occurrence indices are built without the frequent-label filter
  (enhancement (b)) — the filter depends on the database, which changes
  under deltas, and replayed embeddings must extend the same index a
  fresh run would build;
- taxonomy contraction (enhancement (d)) is disabled — contraction also
  depends on the observed label set.

Both paths also persist each class's Step-3 pattern set, so the store's
first reader loads it instead of specializing every class again.

With ``options.workers > 1`` the parallel runtime mines, and the driver
persists the merged class state through the runtime's ``class_sink``
hook; the border is reconstructed on the driver by enumerating the
rightmost-path extensions of every kept class (provably the same set a
sequential run reports, since sequential gSpan explores exactly the
frequent minimal codes).  If the pool degrades to the sequential
pipeline, the store build silently reruns sequentially.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.occurrence_index import AncestorTable, build_occurrence_index
from repro.core.relabel import relabel_database
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import reject_directed
from repro.incremental.delta import OccurrenceColumns
from repro.incremental.store import PatternStore, stored_patterns
from repro.mining.dfs_code import DFSCode, DFSEdge, is_min_code
from repro.mining.gspan import (
    Embedding,
    GSpanMiner,
    MinedPattern,
    extension_graph_ids,
    min_support_count,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.bitset import BitSet, kernel_counters, kernel_delta
from repro.util.compression import normalize_codec
from repro.util.timing import Stopwatch

__all__ = ["mine_to_store"]

_Code = tuple[DFSEdge, ...]


def mine_to_store(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    options,
    tracer: Tracer | None = None,
) -> tuple[TaxogramResult, PatternStore]:
    """Mine ``database`` and persist the result under ``options.store_out``."""
    if options.store_out is None:
        raise MiningError("mine_to_store requires options.store_out")
    reject_directed(database, "store_out")
    if tracer is None:
        tracer = NOOP_TRACER
    if options.workers > 1 and len(database) > 1:
        parallel = _mine_parallel(database, taxonomy, options, tracer)
        if parallel is not None:
            return parallel
    return _mine_sequential(database, taxonomy, options, tracer)


# ---------------------------------------------------------------------------
# Sequential path
# ---------------------------------------------------------------------------


def _mine_sequential(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    options,
    tracer: Tracer,
) -> tuple[TaxogramResult, PatternStore]:
    counters = MiningCounters()
    metrics = MetricsRegistry()
    stage_seconds: dict[str, float] = {}
    kernel_before = kernel_counters()

    prepare = Stopwatch()
    with prepare, tracer.span("relabel"):
        relabeled = relabel_database(
            database, taxonomy, options.artificial_root_name
        )
        min_count = min_support_count(options.min_support, len(database))
    stage_seconds["relabel"] = prepare.elapsed

    store = PatternStore.initialize(
        options.store_out,
        database,
        taxonomy,
        options.min_support,
        options.max_edges,
        options.artificial_root_name,
        compression=normalize_codec(
            getattr(options, "store_compression", None)
        ),
    )
    border: dict[_Code, BitSet] = {}
    ancestors = AncestorTable(relabeled.taxonomy)

    def capture(code: _Code, gids: frozenset[int]) -> None:
        if gids:
            border[code] = BitSet(gids)

    specializer_options = SpecializerOptions(
        descendant_pruning=options.enhancement_descendant_pruning,
        occurrence_collapse=options.enhancement_occurrence_collapse,
    )
    patterns: list[TaxonomyPattern] = []
    specialize = Stopwatch()

    def on_class(mined: MinedPattern) -> None:
        with specialize, tracer.span("specialize.class"):
            counters.pattern_classes += 1
            counters.embedding_extensions += len(mined.embeddings)
            mem_store, index = build_occurrence_index(
                mined.code.num_vertices,
                mined.embeddings,
                relabeled.original_labels,
                relabeled.taxonomy,
                None,
                counters,
                ancestors=ancestors,
            )
            class_patterns = specialize_class(
                class_id=counters.pattern_classes - 1,
                structure=mined.graph,
                store=mem_store,
                index=index,
                taxonomy=relabeled.taxonomy,
                min_count=min_count,
                database_size=len(database),
                options=specializer_options,
                counters=counters,
            )
            patterns.extend(class_patterns)
            stored = store.add_class(
                mined.code.edges, OccurrenceColumns(mem_store.occurrences)
            )
            stored.patterns = stored_patterns(class_patterns)
            _persist_entries(store, stored, index, options)

    total = Stopwatch()
    with total, tracer.span("gspan.extend"):
        miner = GSpanMiner(
            relabeled.dmg,
            min_support=options.min_support,
            max_edges=options.max_edges,
            keep_embeddings=False,
            counters=counters,
            prune_report=capture,
        )
        miner.mine(report=on_class)
    stage_seconds["mine_classes"] = max(0.0, total.elapsed - specialize.elapsed)
    stage_seconds["specialize"] = specialize.elapsed

    store.border = border
    store.save()
    metrics.set_gauge("store.classes", len(store.classes))
    metrics.set_gauge("store.border_size", len(store.border))
    _record_store_metrics(store, metrics, kernel_before)

    from repro.core.taxogram import _any_enhancement, _build_report

    algorithm = "taxogram" if _any_enhancement(options) else "baseline"
    result = TaxogramResult(
        patterns=patterns,
        database_size=len(database),
        min_support=options.min_support,
        algorithm=algorithm,
        counters=counters,
        stage_seconds=stage_seconds,
        report=_build_report(
            algorithm, counters, stage_seconds, tracer, database, metrics=metrics
        ),
    )
    return result, store


def _record_store_metrics(
    store: PatternStore,
    metrics: MetricsRegistry,
    kernel_before: dict[str, int],
) -> None:
    """Surface bit-set kernel work and compression ratio on the report.

    Kernel counters are process-cumulative, so only the delta since the
    run started is attributed; the compression gauge is the store-wide
    stored/raw ratio from the manifest block (absent on raw stores).
    """
    for name, value in kernel_delta(kernel_before).items():
        metrics.add(name, value)
    stats = store.compression_stats
    raw = sum(s["raw"] for s in stats.values())
    stored_bytes = sum(s["stored"] for s in stats.values())
    if raw:
        metrics.set_gauge("store.compression_ratio", stored_bytes / raw)


def _persist_entries(
    store: PatternStore, stored, index, options
) -> None:
    """Write one class's (memory or merged) OIE into its persisted index."""
    disk = store.create_index(stored, options.disk_max_resident_entries)
    try:
        for position in range(disk.num_positions):
            for label, bits in index.covered(position).items():
                disk.insert(position, label, bits)
        disk.finish()
    finally:
        disk.close()


# ---------------------------------------------------------------------------
# Parallel path
# ---------------------------------------------------------------------------


def _mine_parallel(
    database: GraphDatabase,
    taxonomy: Taxonomy,
    options,
    tracer: Tracer,
) -> "tuple[TaxogramResult, PatternStore] | None":
    """Store-aware parallel mining; None when the pool degraded.

    Contraction and the frequent-label filter are forced off (see module
    docstring); the merged classes stream back through ``class_sink`` in
    sequential class order, so persisting them reproduces the sequential
    store exactly.
    """
    from repro.core.occurrence_index import OccurrenceIndex
    from repro.parallel.runtime import ParallelTaxogram

    kept_sink: list = []
    kernel_before = kernel_counters()
    forced = replace(
        options,
        store_out=None,
        enhancement_frequent_label_filter=False,
        enhancement_taxonomy_contraction=False,
    )
    runner = ParallelTaxogram(forced, class_sink=kept_sink.extend)
    result = runner.mine(database, taxonomy, tracer)
    if not result.worker_seconds:
        return None  # pool degraded; the sink never saw the merge phase

    relabeled = relabel_database(database, taxonomy, options.artificial_root_name)
    min_count = min_support_count(options.min_support, len(database))
    store = PatternStore.initialize(
        options.store_out,
        database,
        taxonomy,
        options.min_support,
        options.max_edges,
        options.artificial_root_name,
        compression=normalize_codec(
            getattr(options, "store_compression", None)
        ),
    )
    by_class: dict[int, list[TaxonomyPattern]] = {}
    for pattern in result.patterns:
        by_class.setdefault(pattern.class_id, []).append(pattern)
    for class_id, merged in enumerate(kept_sink):
        stored = store.add_class(
            merged.code, OccurrenceColumns(merged.occurrences)
        )
        stored.patterns = stored_patterns(by_class.get(class_id, []))
        _persist_entries(store, stored, OccurrenceIndex(merged.entries), options)
    store.border = _driver_border(
        relabeled.dmg, kept_sink, min_count, options.max_edges
    )
    store.save()
    if result.report is not None:
        result.report.gauges["store.classes"] = float(len(store.classes))
        result.report.gauges["store.border_size"] = float(len(store.border))
        # Driver-side bit-set work only: workers are separate processes
        # and account for their own kernels.
        for name, value in kernel_delta(kernel_before).items():
            result.report.counters[name] = (
                result.report.counters.get(name, 0) + value
            )
        stats = store.compression_stats
        raw = sum(s["raw"] for s in stats.values())
        stored_bytes = sum(s["stored"] for s in stats.values())
        if raw:
            result.report.gauges["store.compression_ratio"] = (
                stored_bytes / raw
            )
    return result, store


def _driver_border(
    dmg: GraphDatabase,
    kept,
    min_count: int,
    max_edges: int | None,
) -> dict[_Code, BitSet]:
    """The negative border, reconstructed from the merged class list.

    Sequential gSpan explores exactly the frequent minimal codes — the
    kept classes — so its pruned-infrequent candidate stream is (a) the
    infrequent minimal one-edge codes and (b) the infrequent minimal
    rightmost-path children of kept classes.  Both are enumerable on the
    driver: class embeddings rebuild from the merged occurrence columns
    (``used`` is the embedding's pattern-edge image, which the code
    prescribes).
    """
    border: dict[_Code, BitSet] = {}
    initial: dict[DFSEdge, set[int]] = {}
    for graph in dmg:
        for u, v, elabel in graph.edges():
            lu, lv = graph.node_label(u), graph.node_label(v)
            la, lb = (lu, lv) if lu <= lv else (lv, lu)
            initial.setdefault((0, 1, la, elabel, lb), set()).add(graph.graph_id)
    for edge, gids in initial.items():
        if len(gids) < min_count:
            border[(edge,)] = BitSet(gids)

    miner = GSpanMiner(dmg, min_count=min_count, max_edges=max_edges)
    for merged in kept:
        code = DFSCode(merged.code)
        if max_edges is not None and len(code) >= max_edges:
            continue
        embeddings = _rebuild_embeddings(code, merged.occurrences)
        for edge, records in miner._extensions(code, embeddings).items():
            gids = extension_graph_ids(records)
            if len(gids) >= min_count:
                continue
            child = code.extended(edge)
            if is_min_code(child):
                border[child.edges] = BitSet(gids)
    return border


def _rebuild_embeddings(code: DFSCode, occurrences) -> list[Embedding]:
    edge_indices = [(i, j) for i, j, _li, _le, _lj in code.edges]
    out: list[Embedding] = []
    for gid, nodes in occurrences:
        used = frozenset(
            (nodes[i], nodes[j]) if nodes[i] < nodes[j] else (nodes[j], nodes[i])
            for i, j in edge_indices
        )
        out.append(Embedding(gid, tuple(nodes), used))
    return out
