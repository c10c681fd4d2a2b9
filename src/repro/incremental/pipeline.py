"""Mine a database into a persistent :class:`PatternStore`.

A store build is an ordinary Taxogram run with two sinks attached.  It
calls :meth:`Taxogram.mine <repro.core.taxogram.Taxogram.mine>`, which
routes ``workers > 1`` to the parallel runtime, and persists what the
run's hooks hand it:

- ``class_sink`` delivers, for every pattern class in class-id order,
  the occurrence-id space (stored as
  :class:`~repro.incremental.delta.OccurrenceColumns`) and the class's
  Step-3 pattern set, so the store's first reader loads it instead of
  specializing every class again.  The class's occurrence index is not
  stored: readers and the updater rebuild it from the columns with
  :func:`~repro.core.occurrence_index.index_occurrences`;
- ``prune_report`` delivers the search's *negative border* — every
  minimal candidate code gSpan generated and pruned as infrequent, with
  its exact support mask.  The border is what lets
  :class:`repro.incremental.updater.IncrementalTaxogram` re-seed growth
  after a delta instead of remining from scratch.

Both runtimes call both hooks identically, and a parallel run that
degrades to the sequential pipeline hands them on, so the store is the
same at every worker count and the database is mined once.

Two store-build invariants keep updates equivalence-preserving; both are
pure efficiency toggles, so the *pattern output* is identical to a
default :class:`~repro.core.taxogram.Taxogram` run:

- occurrence indices are built without the frequent-label filter
  (enhancement (b)) — the filter depends on the database, which changes
  under deltas, and an index rebuilt from a class's columns must equal
  the one a fresh run would build;
- taxonomy contraction (enhancement (d)) is disabled — contraction also
  depends on the observed label set.

Indices are built in memory, whatever ``occurrence_index_backend`` the
caller chose.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.results import TaxogramResult
from repro.core.taxogram import Taxogram, algorithm_label, check_options
from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.digraph import reject_directed
from repro.incremental.store import PatternStore
from repro.mining.dfs_code import DFSEdge
from repro.observability.report import RunReport
from repro.observability.trace import Tracer
from repro.taxonomy.taxonomy import Taxonomy
from repro.util.compression import normalize_codec

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
    check_options(options)
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
    border: dict[_Code, int] = {}

    def persist(code: _Code, occurrences, patterns) -> None:
        store.add_mined_class(code, occurrences, patterns)

    def capture(code: _Code, mask: int) -> None:
        if mask:
            border[code] = mask

    forced = replace(
        options,
        store_out=None,
        enhancement_frequent_label_filter=False,
        enhancement_taxonomy_contraction=False,
        occurrence_index_backend="memory",
    )
    result = Taxogram(forced).mine(
        database, taxonomy, tracer, class_sink=persist, prune_report=capture
    )
    store.border = border
    store.save()
    # The label describes the caller's options, not the forced ones.
    result.algorithm = result.report.algorithm = algorithm_label(
        options, database
    )
    _record_store_metrics(result.report, store)
    return result, store


def _record_store_metrics(report: RunReport, store: PatternStore) -> None:
    """Surface store size and compression ratio: the store-wide
    stored/raw ratio from the manifest block (absent on raw stores)."""
    report.gauges["store.classes"] = float(len(store.classes))
    report.gauges["store.border_size"] = float(len(store.border))
    stats = store.compression_stats
    raw = sum(s["raw"] for s in stats.values())
    stored_bytes = sum(s["stored"] for s in stats.values())
    if raw:
        report.gauges["store.compression_ratio"] = stored_bytes / raw

