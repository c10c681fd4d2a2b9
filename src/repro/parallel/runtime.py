"""The parallel Taxogram runtime: process-pool mining over shards.

:class:`ParallelTaxogram` reproduces :class:`repro.core.taxogram.Taxogram`
result-for-result (patterns, supports, counters) while spreading the
expensive middle of the pipeline over worker processes:

1. **Prepare** (driver) — :func:`~repro.core.taxogram.prepare_mine`,
   the sequential pipeline's own step: option checks, taxonomy
   contraction, Step-1 relabeling, the threshold and the frequent-label
   filter.
2. **Shard** (driver) — split the database into contiguous slices
   (:mod:`repro.parallel.sharding`) and build the worker configuration:
   interner name tables, the working taxonomy's parent map and the
   most-general-ancestor mapping, so every worker rebuilds bit-identical
   id spaces from plain picklable data.
3. **Mine** (workers) — each shard runs gSpan over its slice of
   :math:`D_{mg}` at the relaxed local threshold
   (:func:`~repro.parallel.sharding.local_min_count`) and builds the
   occurrence-index fragment for every locally frequent code straight
   from the miner's own embedding lists (the global frequent-label
   filter comes from the prepare step, which sees the whole database).
4. **Project** (workers) — the driver unions the candidate codes and
   ships each shard only the candidates it is *missing* (frequent in
   some other shard but not locally); those few are replayed with
   :func:`~repro.mining.projection.project_code`, which provably
   returns the exact embedding list the miner would have kept.
5. **Merge** (driver) — fragments concatenate into global occurrence
   state (:mod:`repro.parallel.merge`); exact global supports discard
   locally-frequent-only candidates, recovering the sequential class
   list in sequential order.
6. **Specialize** (workers) — surviving classes are dispatched in
   chunks; each worker reconstructs the class's occurrence store/index
   (memory or disk backend) and runs the sequential Step-3 specializer.

Degradation is graceful: ``workers <= 1``, a single-graph database, a
support threshold too low to shard safely (the shard count is capped so
the relaxed local threshold never collapses to 1 — that would mean
exhaustive per-shard enumeration), or a process pool that fails to
start (or breaks mid-run) falls back to the in-process sequential
pipeline (the pool failures with a :class:`RuntimeWarning`), reusing the
prepared Step-1 state.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from repro.core.disk_index import DiskOccurrenceIndex
from repro.core.occurrence_index import (
    AncestorTable,
    OccurrenceIndex,
    OccurrenceStore,
    build_occurrence_index,
)
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.core.taxogram import (
    ClassSink,
    MineSetup,
    PruneReport,
    TaxogramOptions,
    build_result,
    check_options,
    mine_classes,
    prepare_mine,
)
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import reject_directed
from repro.graphs.io import parse_graph_database
from repro.mining.dfs_code import DFSCode, DFSEdge, is_min_code
from repro.mining.gspan import Embedding, GSpanMiner, extension_graph_ids
from repro.mining.projection import project_code
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, PhaseClock, Tracer
from repro.parallel.merge import (
    ClassFragment,
    MergedClass,
    merge_class_fragments,
    union_candidate_codes,
)
from repro.parallel.sharding import Shard, local_min_count, shard_database
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.bitset import BitSet
from repro.util.interner import LabelInterner
from repro.util.timing import Stopwatch

__all__ = ["ParallelTaxogram"]

# Phase-3 classes are dispatched in this many chunks per pool worker, so
# an unlucky chunk of expensive classes cannot serialize the whole stage.
_CHUNKS_PER_WORKER = 4

_Code = tuple[DFSEdge, ...]


@dataclass(frozen=True)
class _PhaseStats:
    """Worker-measured phase cost, shipped back for span attribution."""

    wall_seconds: float
    cpu_seconds: float
    peak_rss_kb: int
    counters: MiningCounters | None = None


# ---------------------------------------------------------------------------
# Worker-side state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs, as plain picklable data.

    Label ids are meaningful only relative to an interner; shipping the
    driver's name tables (and the working taxonomy as a ``label ->
    parents`` item list in insertion order) lets workers rebuild id
    spaces — and therefore DFS codes, children ordering and topological
    order — bit-identical to the driver's.
    """

    node_label_names: tuple[str, ...]
    edge_label_names: tuple[str, ...]
    taxonomy_parent_items: tuple[tuple[int, tuple[int, ...]], ...]
    most_general: tuple[tuple[int, int], ...]
    shards: tuple[Shard, ...]
    local_min_count: int
    global_min_count: int
    database_size: int
    max_edges: int | None
    specializer: SpecializerOptions
    backend: str
    disk_index_directory: str | None
    disk_max_resident_entries: int


@dataclass
class _ShardData:
    """A parsed shard: original labels, relabeled copy, Step-1 originals."""

    dmg: GraphDatabase
    original_labels: list[list[int]]
    original_db: GraphDatabase


class _WorkerRuntime:
    """Per-process mining state, built once by the pool initializer."""

    def __init__(self, config: _WorkerConfig) -> None:
        self.config = config
        self.node_labels = LabelInterner(config.node_label_names)
        self.edge_labels = LabelInterner(config.edge_label_names)
        self.taxonomy = Taxonomy(
            dict(config.taxonomy_parent_items), self.node_labels
        )
        self.most_general = dict(config.most_general)
        self._shard_cache: dict[int, _ShardData] = {}
        self._ancestors: AncestorTable | None = None

    def ancestor_table(self, allowed: frozenset[int] | None) -> AncestorTable:
        """One :class:`AncestorTable` for every class a mine's phases
        build (``allowed`` is the same for all of them)."""
        table = self._ancestors
        if table is None or table.allowed_labels != allowed:
            table = self._ancestors = AncestorTable(self.taxonomy, allowed)
        return table

    def shard_data(self, shard_id: int) -> _ShardData:
        cached = self._shard_cache.get(shard_id)
        if cached is not None:
            return cached
        shard = self.config.shards[shard_id]
        # Parsing against the pre-seeded interners reuses the driver's
        # ids; graph ids are shard-local (0-based), re-based at merge.
        original_db = parse_graph_database(
            shard.text,
            node_labels=self.node_labels,
            edge_labels=self.edge_labels,
        )
        dmg = original_db.copy()
        originals: list[list[int]] = []
        for graph in dmg:
            originals.append(graph.node_labels())
            for v in graph.nodes():
                graph.relabel_node(v, self.most_general[graph.node_label(v)])
        data = _ShardData(
            dmg=dmg, original_labels=originals, original_db=original_db
        )
        self._shard_cache[shard_id] = data
        return data


_RUNTIME: _WorkerRuntime | None = None


def _init_worker(config: _WorkerConfig) -> None:
    global _RUNTIME
    _RUNTIME = _WorkerRuntime(config)


def _runtime() -> _WorkerRuntime:
    if _RUNTIME is None:  # pragma: no cover - initializer always runs first
        raise MiningError("worker runtime is not initialized")
    return _RUNTIME


def _build_fragment(
    data: _ShardData,
    shard_id: int,
    code: _Code,
    embeddings,
    ancestors: AncestorTable,
) -> ClassFragment:
    counters = MiningCounters()
    store, index = build_occurrence_index(
        DFSCode(code).num_vertices,
        embeddings,
        data.original_labels,
        ancestors.taxonomy,
        ancestors.allowed_labels,
        counters,
        ancestors=ancestors,
    )
    return ClassFragment(
        shard_id=shard_id,
        code=code,
        occurrences=tuple(store.occurrences),
        entries=index.entries,
        index_updates=counters.occurrence_index_updates,
    )


def _phase_mine(
    shard_id: int,
    allowed: frozenset[int] | None,
) -> tuple[int, tuple[ClassFragment, ...], _PhaseStats]:
    """Phase 3: shard-local gSpan + fragments for locally frequent codes.

    The miner already carries each frequent code's embedding list, so
    building the shard's occurrence-index fragments here costs no extra
    projection work; fragment order is the miner's DFS preorder.
    """
    runtime = _runtime()
    clock = PhaseClock()
    counters = MiningCounters()
    with clock:
        data = runtime.shard_data(shard_id)
        miner = GSpanMiner(
            data.dmg,
            max_edges=runtime.config.max_edges,
            keep_embeddings=True,
            min_count=runtime.config.local_min_count,
            counters=counters,
        )
        ancestors = runtime.ancestor_table(allowed)
        fragments = tuple(
            _build_fragment(
                data, shard_id, pattern.code.edges, pattern.embeddings,
                ancestors,
            )
            for pattern in miner.mine()
        )
    stats = _PhaseStats(
        clock.wall_seconds, clock.cpu_seconds, clock.peak_rss_kb, counters
    )
    return shard_id, fragments, stats


def _phase_project(
    shard_id: int,
    missing: Sequence[_Code],
    allowed: frozenset[int] | None,
) -> tuple[int, list[ClassFragment], _PhaseStats]:
    """Phase 4: replay candidates this shard did not find locally.

    ``missing`` holds only candidates frequent in some *other* shard,
    so the targeted replay is a small fraction of the candidate union
    (empty whenever the shards agree on the frequent set).
    """
    runtime = _runtime()
    clock = PhaseClock()
    fragments: list[ClassFragment] = []
    with clock:
        data = runtime.shard_data(shard_id)
        ancestors = runtime.ancestor_table(allowed)
        for code in missing:
            embeddings = project_code(data.dmg, code)
            fragments.append(
                _build_fragment(data, shard_id, code, embeddings, ancestors)
            )
    stats = _PhaseStats(
        clock.wall_seconds, clock.cpu_seconds, clock.peak_rss_kb
    )
    return shard_id, fragments, stats


def _phase_specialize(
    tasks: Sequence[tuple[int, _Code, tuple, tuple]],
) -> tuple[list[TaxonomyPattern], MiningCounters, _PhaseStats]:
    """Phase 6: run the sequential Step-3 specializer on merged classes."""
    runtime = _runtime()
    config = runtime.config
    clock = PhaseClock()
    counters = MiningCounters()
    patterns: list[TaxonomyPattern] = []
    with clock:
        for class_id, code, occurrences, entries in tasks:
            structure = DFSCode(code).to_graph()
            store = OccurrenceStore()
            for graph_id, nodes in occurrences:
                store.add(graph_id, nodes)
            if config.backend == "disk":
                patterns.extend(
                    _specialize_on_disk(
                        runtime, class_id, structure, store, entries, counters
                    )
                )
            else:
                patterns.extend(
                    specialize_class(
                        class_id=class_id,
                        structure=structure,
                        store=store,
                        index=OccurrenceIndex(entries),
                        taxonomy=runtime.taxonomy,
                        min_count=config.global_min_count,
                        database_size=config.database_size,
                        options=config.specializer,
                        counters=counters,
                    )
                )
    stats = _PhaseStats(
        clock.wall_seconds, clock.cpu_seconds, clock.peak_rss_kb
    )
    return patterns, counters, stats


def _specialize_on_disk(
    runtime: _WorkerRuntime,
    class_id: int,
    structure,
    store: OccurrenceStore,
    entries: Sequence[dict[int, int]],
    counters: MiningCounters,
) -> list[TaxonomyPattern]:
    """Rebuild the merged index on the disk backend and specialize.

    Each class gets a private temporary directory (under the configured
    ``disk_index_directory`` when set) so concurrent workers never share
    a SQLite file.
    """
    config = runtime.config
    with tempfile.TemporaryDirectory(
        prefix="taxogram-parallel-", dir=config.disk_index_directory
    ) as tmp:
        index = DiskOccurrenceIndex(
            len(entries), tmp, config.disk_max_resident_entries
        )
        try:
            for position, entry in enumerate(entries):
                for label, bits in entry.items():
                    index.insert(position, label, bits)
            index.finish()
            return specialize_class(
                class_id=class_id,
                structure=structure,
                store=store,
                index=index,
                taxonomy=runtime.taxonomy,
                min_count=config.global_min_count,
                database_size=config.database_size,
                options=config.specializer,
                counters=counters,
            )
        finally:
            index.close()


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class ParallelTaxogram:
    """Multi-process Taxogram with sequential-identical results.

    Accepts the same :class:`~repro.core.taxogram.TaxogramOptions` as the
    sequential miner; ``options.workers`` bounds the process count (the
    effective shard count is also capped by the database size).  Usually
    reached through ``Taxogram`` with ``TaxogramOptions(workers=N)``
    rather than instantiated directly.

    :meth:`mine` takes the same store-build hooks as
    :meth:`Taxogram.mine <repro.core.taxogram.Taxogram.mine>`.
    ``class_sink`` receives every merged class's ``(code edges,
    occurrences, patterns)`` after Step 3, in sequential class-id
    order.  ``prune_report`` receives the negative border, rebuilt on
    the driver from the merged classes (:func:`_report_border`) because
    no single shard sees the global candidate stream.  A run that
    degrades to the sequential pipeline hands both hooks to it, so every
    caller sees the same calls at any worker count and mines once.
    """

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
        options = self.options
        if tracer is None:
            tracer = NOOP_TRACER
        check_options(options)
        if options.workers > 1:
            reject_directed(database, "workers > 1")
        setup = prepare_mine(database, taxonomy, options, tracer)

        def sequential() -> TaxogramResult:
            return mine_classes(
                database, options, setup, tracer, class_sink, prune_report
            )

        # Cap the shard count so the relaxed local threshold stays >= 2:
        # at num_shards >= min_count the pigeonhole bound ceil(c/n)
        # collapses to 1 and every shard would exhaustively enumerate
        # its subgraphs — arbitrarily worse than mining sequentially.
        num_shards = min(
            options.workers, len(database), max(1, setup.min_count - 1)
        )
        if num_shards <= 1:
            return sequential()

        relabeled = setup.relabeled
        stage_seconds = setup.stage_seconds
        shard_watch = Stopwatch()
        with shard_watch:
            manifest = shard_database(database, num_shards)
            config = _WorkerConfig(
                node_label_names=tuple(relabeled.taxonomy.interner.names()),
                edge_label_names=tuple(database.edge_labels.names()),
                taxonomy_parent_items=tuple(
                    relabeled.taxonomy.parent_map().items()
                ),
                most_general=tuple(relabeled.most_general.items()),
                shards=manifest.shards,
                local_min_count=local_min_count(setup.min_count, num_shards),
                global_min_count=setup.min_count,
                database_size=len(database),
                max_edges=options.max_edges,
                specializer=setup.specializer,
                backend=options.occurrence_index_backend,
                disk_index_directory=options.disk_index_directory,
                disk_max_resident_entries=options.disk_max_resident_entries,
            )
        stage_seconds["shard"] = shard_watch.elapsed

        try:
            pool = ProcessPoolExecutor(
                max_workers=num_shards,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(config,),
            )
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"process pool failed to start ({exc}); mining sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
            return sequential()

        counters = MiningCounters()
        metrics = MetricsRegistry()
        metrics.add("parallel.shards", num_shards)
        worker_seconds: dict[str, float] = {}
        try:
            with pool:
                kept, patterns = self._run_phases(
                    pool,
                    manifest,
                    num_shards,
                    setup,
                    counters,
                    metrics,
                    worker_seconds,
                    tracer,
                )
        except BrokenProcessPool as exc:
            warnings.warn(
                f"process pool broke mid-run ({exc}); mining sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
            return sequential()

        if class_sink is not None:
            by_class: dict[int, list[TaxonomyPattern]] = {}
            for pattern in patterns:
                by_class.setdefault(pattern.class_id, []).append(pattern)
            for class_id, merged in enumerate(kept):
                class_sink(
                    merged.code,
                    merged.occurrences,
                    by_class.get(class_id, []),
                )
        if prune_report is not None:
            _report_border(
                relabeled.dmg,
                kept,
                setup.min_count,
                options.max_edges,
                prune_report,
            )

        return build_result(
            database,
            options,
            patterns,
            counters,
            setup,
            tracer,
            metrics=metrics,
            worker_seconds=worker_seconds,
        )

    # -- internals --------------------------------------------------------------

    def _run_phases(
        self,
        pool: ProcessPoolExecutor,
        manifest,
        num_shards: int,
        setup: MineSetup,
        counters: MiningCounters,
        metrics: MetricsRegistry,
        worker_seconds: dict[str, float],
        tracer: Tracer,
    ) -> tuple[list[MergedClass], list[TaxonomyPattern]]:
        """Phases 3–6 on the pool: the kept classes in sequential class
        order and their Step-3 patterns."""
        stage_seconds = setup.stage_seconds
        allowed = setup.allowed
        min_count = setup.min_count

        mine_watch = Stopwatch()
        with mine_watch, tracer.span("gspan.extend"):
            shard_results = list(
                pool.map(_phase_mine, range(num_shards), repeat(allowed))
            )
            worker_seconds["mine"] = sum(
                stats.wall_seconds for _s, _f, stats in shard_results
            )
            for shard_id, fragments, stats in shard_results:
                tracer.record_span(
                    f"parallel.shard[{shard_id}]",
                    stats.wall_seconds,
                    stats.cpu_seconds,
                    stats.peak_rss_kb,
                )
                metrics.set_gauge(
                    f"parallel.shard[{shard_id}].patterns", len(fragments)
                )
                metrics.add("parallel.shard_patterns_total", len(fragments))
                # Shard-local gSpan work (candidate stream at the relaxed
                # local threshold) folds into the run's gspan.* counters;
                # the merged totals are upper bounds on the sequential
                # counts, never identities.
                counters.merge(stats.counters)
            fragment_maps: list[dict[_Code, ClassFragment]] = [
                {fragment.code: fragment for fragment in r[1]}
                for r in shard_results
            ]
            candidates = union_candidate_codes(
                list(fragment_map) for fragment_map in fragment_maps
            )
            missing = [
                [c for c in candidates if c not in fragment_maps[s]]
                for s in range(num_shards)
            ]
            metrics.add(
                "parallel.projected_replays", sum(len(m) for m in missing)
            )
            worker_seconds["project"] = 0.0
            jobs = [s for s in range(num_shards) if missing[s]]
            for shard_id, fragments, stats in pool.map(
                _phase_project,
                jobs,
                (missing[s] for s in jobs),
                repeat(allowed),
            ):
                worker_seconds["project"] += stats.wall_seconds
                tracer.record_span(
                    f"parallel.shard[{shard_id}]",
                    stats.wall_seconds,
                    stats.cpu_seconds,
                    stats.peak_rss_kb,
                )
                for fragment in fragments:
                    fragment_maps[shard_id][fragment.code] = fragment
        stage_seconds["mine_classes"] = mine_watch.elapsed

        merge_watch = Stopwatch()
        with merge_watch, tracer.span("merge"):
            starts = [shard.start for shard in manifest.shards]
            kept: list[MergedClass] = []
            for code in candidates:
                merged = merge_class_fragments(
                    [fragment_maps[s][code] for s in range(num_shards)],
                    starts,
                )
                if merged.support_count >= min_count:
                    kept.append(merged)
            counters.pattern_classes = len(kept)
            for merged in kept:
                counters.embedding_extensions += merged.embedding_count
                counters.occurrence_index_updates += merged.index_updates
                counters.oie_entries += sum(
                    len(entry) for entry in merged.entries
                )
            metrics.add("parallel.candidates_union", len(candidates))
            metrics.add("parallel.classes_kept", len(kept))
        stage_seconds["merge"] = merge_watch.elapsed

        specialize_watch = Stopwatch()
        patterns: list[TaxonomyPattern] = []
        with specialize_watch, tracer.span("specialize.class"):
            tasks = [
                (class_id, merged.code, merged.occurrences, merged.entries)
                for class_id, merged in enumerate(kept)
            ]
            worker_seconds["specialize"] = 0.0
            for chunk_patterns, chunk_counters, stats in pool.map(
                _phase_specialize,
                _chunk(tasks, num_shards * _CHUNKS_PER_WORKER),
            ):
                patterns.extend(chunk_patterns)
                counters.merge(chunk_counters)
                worker_seconds["specialize"] += stats.wall_seconds
                tracer.record_span(
                    "parallel.specialize.chunk",
                    stats.wall_seconds,
                    stats.cpu_seconds,
                    stats.peak_rss_kb,
                )
        stage_seconds["specialize"] = specialize_watch.elapsed
        return kept, patterns


def _report_border(
    dmg: GraphDatabase,
    kept: Sequence[MergedClass],
    min_count: int,
    max_edges: int | None,
    prune_report: PruneReport,
) -> None:
    """Report the negative border, reconstructed from the merged classes.

    Sequential gSpan explores exactly the frequent minimal codes — the
    kept classes — so its pruned-infrequent candidate stream is (a) the
    infrequent minimal one-edge codes and (b) the infrequent minimal
    rightmost-path children of kept classes.  Both are enumerable on the
    driver: class embeddings rebuild from the merged occurrence columns
    (``used`` is the embedding's pattern-edge image, which the code
    prescribes).
    """
    initial: dict[DFSEdge, set[int]] = {}
    for graph in dmg:
        for u, v, elabel in graph.edges():
            lu, lv = graph.node_label(u), graph.node_label(v)
            la, lb = (lu, lv) if lu <= lv else (lv, lu)
            initial.setdefault((0, 1, la, elabel, lb), set()).add(graph.graph_id)
    for edge, gids in initial.items():
        if len(gids) < min_count:
            prune_report((edge,), BitSet(gids).bits)

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
                prune_report(child.edges, BitSet(gids).bits)


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


def _pool_context():
    """Prefer ``fork``: the config is large-ish and fork shares pages."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _chunk(items: list, num_chunks: int) -> list[list]:
    """Split into at most ``num_chunks`` contiguous, non-empty chunks."""
    if not items:
        return []
    num_chunks = max(1, min(num_chunks, len(items)))
    base, extra = divmod(len(items), num_chunks)
    out: list[list] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out
