"""The parallel Taxogram runtime: process-pool mining over shards.

:class:`ParallelTaxogram` reproduces :class:`repro.core.taxogram.Taxogram`
result-for-result (patterns, supports, counters) while spreading the
expensive middle of the pipeline over worker processes:

1. **Prepare** (driver) — taxonomy contraction, Step-1 relabeling and
   threshold computation, exactly as the sequential pipeline.
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
   filter is precomputed by the driver, which owns the whole database).
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
pipeline (the pool failures with a :class:`RuntimeWarning`).
"""

from __future__ import annotations

import multiprocessing
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

from repro.core.disk_index import DiskOccurrenceIndex
from repro.core.occurrence_index import (
    AncestorTable,
    OccurrenceIndex,
    OccurrenceStore,
    build_occurrence_index,
    generalized_label_supports,
)
from repro.core.relabel import relabel_database
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import reject_directed
from repro.graphs.io import parse_graph_database
from repro.mining.dfs_code import DFSCode, DFSEdge
from repro.mining.gspan import GSpanMiner, min_support_count
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

    ``class_sink`` (optional) receives the merged class list — the
    driver-side :class:`~repro.parallel.merge.MergedClass` objects in
    sequential class order — right after the merge phase.  The
    incremental store pipeline uses it to persist occurrence state
    without a second mining pass.  The sink is *not* invoked when the
    run degrades to the sequential pipeline; callers detect that via
    ``result.worker_seconds`` being empty.
    """

    def __init__(self, options=None, class_sink=None) -> None:
        from repro.core.taxogram import TaxogramOptions

        self.options = options if options is not None else TaxogramOptions()
        self.class_sink = class_sink

    def mine(
        self,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        tracer: Tracer | None = None,
    ) -> TaxogramResult:
        from repro.core.taxogram import _contract_taxonomy

        options = self.options
        if tracer is None:
            tracer = NOOP_TRACER
        if options.workers < 1:
            raise MiningError(
                f"workers must be at least 1, got {options.workers}"
            )
        if options.workers > 1:
            reject_directed(database, "workers > 1")
        if options.occurrence_index_backend not in ("memory", "disk"):
            raise MiningError(
                "occurrence_index_backend must be 'memory' or 'disk', got "
                f"{options.occurrence_index_backend!r}"
            )
        if min(options.workers, len(database)) <= 1:
            return self._sequential(database, taxonomy, tracer)

        counters = MiningCounters()
        stage_seconds: dict[str, float] = {}
        worker_seconds: dict[str, float] = {}

        prepare = Stopwatch()
        with prepare, tracer.span("relabel"):
            working = taxonomy
            if options.enhancement_taxonomy_contraction:
                working = _contract_taxonomy(
                    working, database.distinct_node_labels()
                )
            relabeled = relabel_database(
                database, working, options.artificial_root_name
            )
            min_count = min_support_count(options.min_support, len(database))
        stage_seconds["relabel"] = prepare.elapsed

        # Cap the shard count so the relaxed local threshold stays >= 2:
        # at num_shards >= min_count the pigeonhole bound ceil(c/n)
        # collapses to 1 and every shard would exhaustively enumerate
        # its subgraphs — arbitrarily worse than mining sequentially.
        num_shards = min(
            options.workers, len(database), max(1, min_count - 1)
        )
        if num_shards <= 1:
            return self._sequential(database, taxonomy, tracer)

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
                local_min_count=local_min_count(min_count, num_shards),
                global_min_count=min_count,
                database_size=len(database),
                max_edges=options.max_edges,
                specializer=SpecializerOptions(
                    descendant_pruning=options.enhancement_descendant_pruning,
                    occurrence_collapse=options.enhancement_occurrence_collapse,
                ),
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
            return self._sequential(database, taxonomy, tracer)

        try:
            with pool:
                return self._run_phases(
                    pool,
                    database,
                    relabeled,
                    manifest,
                    num_shards,
                    min_count,
                    counters,
                    stage_seconds,
                    worker_seconds,
                    tracer,
                )
        except BrokenProcessPool as exc:
            warnings.warn(
                f"process pool broke mid-run ({exc}); mining sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
            return self._sequential(database, taxonomy, tracer)

    # -- internals --------------------------------------------------------------

    def _sequential(
        self,
        database: GraphDatabase,
        taxonomy: Taxonomy,
        tracer: Tracer | None = None,
    ):
        from repro.core.taxogram import Taxogram

        return Taxogram(replace(self.options, workers=1)).mine(
            database, taxonomy, tracer
        )

    def _run_phases(
        self,
        pool: ProcessPoolExecutor,
        database: GraphDatabase,
        relabeled,
        manifest,
        num_shards: int,
        min_count: int,
        counters: MiningCounters,
        stage_seconds: dict[str, float],
        worker_seconds: dict[str, float],
        tracer: Tracer,
    ) -> TaxogramResult:
        options = self.options
        metrics = MetricsRegistry()
        metrics.add("parallel.shards", num_shards)

        mine_watch = Stopwatch()
        with mine_watch, tracer.span("gspan.extend"):
            # The label filter depends only on the (whole) original
            # database, not on mining — computing it up front lets the
            # mine phase build filtered fragments in a single pass.
            allowed: frozenset[int] | None = None
            if options.enhancement_frequent_label_filter:
                supports = generalized_label_supports(
                    database, relabeled.taxonomy
                )
                allowed = frozenset(
                    label
                    for label, count in supports.items()
                    if count >= min_count
                )
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

        if self.class_sink is not None:
            self.class_sink(kept)

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

        from repro.core.taxogram import _any_enhancement, _build_report

        algorithm = "taxogram" if _any_enhancement(options) else "baseline"
        return TaxogramResult(
            patterns=patterns,
            database_size=len(database),
            min_support=options.min_support,
            algorithm=algorithm,
            counters=counters,
            stage_seconds=stage_seconds,
            worker_seconds=worker_seconds,
            report=_build_report(
                algorithm,
                counters,
                stage_seconds,
                tracer,
                database,
                metrics=metrics,
            ),
        )


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
