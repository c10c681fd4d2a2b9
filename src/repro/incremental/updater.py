"""Incremental maintenance of a :class:`PatternStore` under deltas.

:meth:`IncrementalTaxogram.apply` brings a persisted mining result up to
date with a :class:`~repro.incremental.delta.DatabaseDelta` while
guaranteeing output *always* equivalent to fresh mining of the updated
database:

1. **Relabel the delta only** — added graphs pass through Step 1
   individually; survivors keep their relabeled occurrence state.
2. **Maintain existing classes** — removals clear occurrence columns;
   additions replay each class's DFS code over the relabeled adds via
   :func:`repro.mining.projection.project_code` and append columns.
   Supports are then recomputed by bit-set operations; classes falling
   below sigma are demoted into the border.
3. **Re-seed growth from the negative border** — each stored border
   code's exact support set is maintained the same way; codes reaching
   the new threshold are re-expanded with gSpan (the only subgraph
   search of the whole update).
4. **Specialize** every surviving and discovered class.  A surviving
   class's occurrence index is rebuilt from its maintained columns
   (:func:`~repro.core.occurrence_index.index_occurrences`); none is
   stored.  A surviving class the delta left untouched (no column
   cleared, no embedding appended) under an unchanged ``min_count`` is
   not specialized again: Step 3 reads only the class's columns, the
   original labels of their graphs, the taxonomy and ``min_count``, so
   its persisted pattern set is reused with support sets renumbered
   past the removed graphs and the class id taken from its new sort
   position (``incremental.classes_reused``).

Completeness rests on two invariants.  First, the border always holds
*every* minimal infrequent code with at least one embedding whose
canonical parent is explored — additions can mint such codes with
embeddings only inside added graphs, so the updater also scans the
one-edge codes of the adds and the add-embedding extensions of every
surviving class.  Second, a pattern with no border entry has no
pre-delta embeddings, so its new support is at most the number of added
graphs; whenever ``n_added >= min_count_new`` (or the delta exceeds
``full_remine_fraction`` of the database) the updater transparently
falls back to a full remine into a fresh store.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.core.occurrence_index import (
    AncestorTable,
    build_occurrence_index,
    index_occurrences,
    project_occurrences,
)
from repro.core.relabel import repair_taxonomy
from repro.core.results import (
    MiningCounters,
    TaxogramResult,
    TaxonomyPattern,
)
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.exceptions import MiningError, TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.incremental.delta import DatabaseDelta
from repro.incremental.store import PatternStore, StoredClass, stored_patterns
from repro.mining.dfs_code import (
    DFSCode,
    DFSEdge,
    code_key,
    graph_from_code,
    is_min_code,
)
from repro.mining.gspan import (
    GSpanMiner,
    MinedPattern,
    extension_graph_ids,
    min_support_count,
)
from repro.mining.projection import project_code
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.util.bitset import BitSet, squeeze
from repro.util.timing import Stopwatch

__all__ = ["IncrementalOptions", "IncrementalTaxogram"]

_Code = tuple[DFSEdge, ...]


@dataclass(frozen=True)
class IncrementalOptions:
    """Tuning knobs for :class:`IncrementalTaxogram`.

    ``full_remine_fraction``: deltas touching more than this fraction of
    the pre-delta database trigger a transparent full remine (the
    completeness guard ``n_added >= min_count`` does so independently).
    ``compact_dead_fraction``: once this fraction of a class's occurrence
    columns are tombstones, the columns are rewritten densely.
    """

    full_remine_fraction: float = 0.5
    compact_dead_fraction: float = 0.3


class IncrementalTaxogram:
    """Applies database deltas to a persisted :class:`PatternStore`."""

    def __init__(
        self,
        store: "PatternStore | str | Path",
        options: IncrementalOptions | None = None,
    ) -> None:
        if not isinstance(store, PatternStore):
            store = PatternStore.open(store)
        self.store = store
        self.options = options if options is not None else IncrementalOptions()

    def apply(
        self, delta: DatabaseDelta, tracer: Tracer | None = None
    ) -> TaxogramResult:
        """Update the store under ``delta``; returns the post-delta result.

        The returned result is equivalent to fresh mining of the updated
        database — identical patterns, supports and class ids.  The
        store on disk is rewritten only after the update completes.
        """
        if tracer is None:
            tracer = NOOP_TRACER
        store = self.store
        opts = self.options
        old_size = len(store.database)
        for gid in delta.remove_ids:
            if gid >= old_size:
                raise MiningError(
                    f"remove id {gid} is out of range for a database of "
                    f"{old_size} graphs"
                )
        adds_db = delta.added_database(
            store.database.node_labels, store.database.edge_labels
        )
        for label in adds_db.distinct_node_labels():
            if label not in store.taxonomy:
                raise TaxonomyError(
                    f"database node label {adds_db.node_label_name(label)!r} "
                    "is not a taxonomy concept"
                )
        n_added = len(adds_db)
        n_removed = len(delta.remove_ids)
        new_size = old_size - n_removed + n_added
        if new_size <= 0:
            raise MiningError("delta removes every graph in the database")
        min_count_new = min_support_count(store.min_support, new_size)
        if (
            n_added + n_removed > opts.full_remine_fraction * old_size
            or n_added >= min_count_new
        ):
            return self._full_remine(delta, adds_db, tracer)

        counters = MiningCounters()
        metrics = MetricsRegistry()
        stage_seconds: dict[str, float] = {}
        removed_set = frozenset(delta.remove_ids)

        watch = Stopwatch()
        with watch, tracer.span("incremental.relabel"):
            working, most_general = repair_taxonomy(
                store.taxonomy, store.artificial_root_name
            )
            # Surviving pre-delta ids; squeeze(mask, keep) renumbers a
            # graph-id mask past the removals.
            keep = ((1 << old_size) - 1) & ~BitSet(removed_set).bits
            base = old_size - n_removed  # first id of the added graphs
            updated_db = GraphDatabase(
                store.database.node_labels, store.database.edge_labels
            )
            for graph in store.database:
                if graph.graph_id in removed_set:
                    continue
                updated_db.add_graph(graph.copy())
            for graph in adds_db:
                updated_db.add_graph(graph.copy())
            adds_dmg = adds_db.copy()
            adds_originals: list[list[int]] = []
            for graph in adds_dmg:
                adds_originals.append(graph.node_labels())
                for v in graph.nodes():
                    graph.relabel_node(v, most_general[graph.node_label(v)])
        stage_seconds["relabel"] = watch.elapsed

        ancestors = AncestorTable(working)

        survivors: list[StoredClass] = []
        demoted: list[tuple[_Code, int]] = []
        adds_border: dict[_Code, int] = {}
        class_codes = {stored.code for stored in store.classes}
        scan_miner = (
            GSpanMiner(adds_dmg, min_count=min_count_new, max_edges=store.max_edges)
            if n_added
            else None
        )

        # The marker tells concurrent StoreReaders to treat on-disk state
        # as unstable until save() commits the new version.
        store.mark_update_in_progress()

        # A class whose columns the delta leaves untouched, under an
        # unchanged threshold, keeps its persisted Step-3 output (see the
        # class-reuse lemma in DESIGN.md §3).
        reusable: set[_Code] = set()
        same_threshold = min_count_new == min_support_count(
            store.min_support, old_size
        )

        watch = Stopwatch()
        with watch, tracer.span("incremental.maintain"):
            for stored in list(store.classes):
                cleared = 0
                if removed_set:
                    cleared = stored.columns.clear_graphs(removed_set)
                    if cleared:
                        metrics.add(
                            "incremental.columns_cleared", cleared.bit_count()
                        )
                    stored.columns.remap_graphs(keep)
                embeddings = (
                    project_code(adds_dmg, stored.code) if n_added else []
                )
                if n_added:
                    metrics.add(
                        "incremental.embeddings_replayed", len(embeddings)
                    )
                    counters.embedding_extensions += len(embeddings)
                touched = bool(cleared or embeddings)
                dead = stored.columns.dead_fraction
                if touched or dead > opts.compact_dead_fraction:
                    self._maintain_columns(
                        stored,
                        embeddings,
                        base,
                        adds_originals,
                        ancestors,
                        counters,
                        metrics,
                    )
                if (
                    not touched
                    and same_threshold
                    and stored.patterns is not None
                ):
                    reusable.add(stored.code)
                if embeddings and not (
                    store.max_edges is not None
                    and len(stored.code) >= store.max_edges
                ):
                    self._scan_new_children(
                        scan_miner,
                        stored.code,
                        embeddings,
                        base,
                        class_codes,
                        store.border,
                        adds_border,
                    )
                support = stored.columns.support_count(stored.columns.all_bits)
                if support >= min_count_new:
                    survivors.append(stored)
                else:
                    metrics.add("incremental.demotions", 1)
                    mask = stored.columns.support_mask(stored.columns.all_bits)
                    demoted.append((stored.code, mask))
        stage_seconds["maintain_classes"] = watch.elapsed

        promotions: list[tuple[_Code, int]] = []
        new_border: dict[_Code, int] = {}
        discovered: dict[_Code, MinedPattern] = {}
        surviving_codes = {stored.code for stored in survivors}
        # Original labels of the updated database: new classes project
        # their embeddings, and surviving ones their columns, through it.
        originals = [graph.node_labels() for graph in updated_db]

        watch = Stopwatch()
        with watch, tracer.span("incremental.border"):
            for code, mask in store.border.items():
                if removed_set:
                    mask = squeeze(mask, keep)
                if n_added:
                    embeddings = project_code(adds_dmg, code)
                    metrics.add(
                        "incremental.embeddings_replayed", len(embeddings)
                    )
                    for emb in embeddings:
                        mask |= 1 << (base + emb.graph_id)
                if mask.bit_count() >= min_count_new:
                    promotions.append((code, mask))
                elif mask:
                    new_border[code] = mask
            for code, mask in demoted:
                if mask:
                    new_border[code] = mask
            if n_added:
                self._scan_new_initial_edges(
                    adds_dmg, base, class_codes, store.border, adds_border
                )
            for code, mask in adds_border.items():
                new_border.setdefault(code, mask)

            if promotions:
                new_dmg = updated_db.copy()
                for graph in new_dmg:
                    for v in graph.nodes():
                        graph.relabel_node(v, most_general[graph.node_label(v)])

                def capture(code: _Code, mask: int) -> None:
                    if mask and code not in new_border:
                        new_border[code] = mask

                def deliver(pattern: MinedPattern) -> None:
                    code = pattern.code.edges
                    if code in surviving_codes or code in discovered:
                        return
                    counters.embedding_extensions += len(pattern.embeddings)
                    discovered[code] = pattern

                miner = GSpanMiner(
                    new_dmg,
                    max_edges=store.max_edges,
                    keep_embeddings=True,
                    min_count=min_count_new,
                    counters=counters,
                    prune_report=capture,
                )
                # Prefix seeds sort first, so a seed that is a descendant
                # of an earlier one is already discovered and skipped.
                for code, _mask in sorted(
                    promotions, key=lambda item: code_key(item[0])
                ):
                    if code in discovered:
                        continue
                    metrics.add("incremental.border_reexpansions", 1)
                    miner._grow(
                        DFSCode(code), project_code(new_dmg, code), deliver
                    )
        stage_seconds["border"] = watch.elapsed

        patterns: list[TaxonomyPattern] = []
        final_classes: list[StoredClass] = []
        specializer_options = SpecializerOptions()
        watch = Stopwatch()
        with watch, tracer.span("incremental.specialize"):
            entries: list[tuple[_Code, StoredClass | MinedPattern]] = [
                (stored.code, stored) for stored in survivors
            ]
            entries.extend(discovered.items())
            entries.sort(key=lambda item: code_key(item[0]))
            for class_id, (code, payload) in enumerate(entries):
                if isinstance(payload, StoredClass):
                    stored = payload
                    if stored.code in reusable:
                        # Same columns, taxonomy and threshold: Step 3
                        # would emit the same patterns, up to the
                        # graph-id shift and the class id.
                        if removed_set:
                            stored.patterns = [
                                pattern._replace(
                                    support_mask=squeeze(
                                        pattern.support_mask, keep
                                    )
                                )
                                for pattern in stored.patterns
                            ]
                        patterns.extend(
                            pattern.to_pattern(code, class_id, new_size)
                            for pattern in stored.patterns
                        )
                        metrics.add("incremental.classes_reused", 1)
                        final_classes.append(stored)
                        continue
                    class_patterns = specialize_class(
                        class_id=class_id,
                        structure=graph_from_code(stored.code),
                        store=stored.columns,
                        index=index_occurrences(
                            stored.num_positions,
                            stored.columns.occurrences,
                            originals,
                            ancestors,
                        ),
                        taxonomy=working,
                        min_count=min_count_new,
                        database_size=new_size,
                        options=specializer_options,
                        counters=counters,
                    )
                    patterns.extend(class_patterns)
                    stored.patterns = stored_patterns(class_patterns)
                    final_classes.append(stored)
                else:
                    mem_store, mem_index = build_occurrence_index(
                        payload.code.num_vertices,
                        payload.embeddings,
                        originals,
                        working,
                        None,
                        counters,
                        ancestors=ancestors,
                    )
                    class_patterns = specialize_class(
                        class_id=class_id,
                        structure=payload.graph,
                        store=mem_store,
                        index=mem_index,
                        taxonomy=working,
                        min_count=min_count_new,
                        database_size=new_size,
                        options=specializer_options,
                        counters=counters,
                    )
                    patterns.extend(class_patterns)
                    final_classes.append(
                        store.add_mined_class(
                            code, mem_store.occurrences, class_patterns
                        )
                    )
            counters.pattern_classes = len(entries)
        stage_seconds["specialize"] = watch.elapsed

        store.database = updated_db
        store.classes = final_classes
        store.border = new_border
        store.save()

        metrics.set_gauge("incremental.classes", len(final_classes))
        metrics.set_gauge("incremental.border_size", len(new_border))
        metrics.set_gauge("incremental.database_size", new_size)

        from repro.core.taxogram import _build_report

        return TaxogramResult(
            patterns=patterns,
            database_size=new_size,
            min_support=store.min_support,
            algorithm="taxogram",
            counters=counters,
            stage_seconds=stage_seconds,
            report=_build_report(
                "taxogram",
                counters,
                stage_seconds,
                tracer,
                updated_db,
                metrics=metrics,
            ),
        )

    # -- helpers ------------------------------------------------------------------

    def _maintain_columns(
        self,
        stored: StoredClass,
        embeddings,
        base: int,
        adds_originals: list[list[int]],
        ancestors: AncestorTable,
        counters: MiningCounters,
        metrics: MetricsRegistry,
    ) -> None:
        """Append the replayed ``embeddings`` to one class's columns (which
        already lost the removed graphs' occurrences) and compact them
        once tombstones pass ``compact_dead_fraction``.

        The appends go through the projection so that
        ``occurrence_index_updates`` keeps counting the paper's index
        updates (Lemma 5) of the replayed occurrences alone.
        """
        _projected, updates = project_occurrences(
            lambda gid, nodes: stored.columns.append(base + gid, nodes),
            embeddings,
            adds_originals,
            ancestors,
        )
        counters.occurrence_index_updates += updates
        if stored.columns.dead_fraction > self.options.compact_dead_fraction:
            stored.columns.compact()
            metrics.add("incremental.compactions", 1)

    @staticmethod
    def _scan_new_children(
        scan_miner: GSpanMiner,
        code: _Code,
        add_embeddings,
        base: int,
        class_codes: set[_Code],
        old_border: dict[_Code, int],
        adds_border: dict[_Code, int],
    ) -> None:
        """Border entries whose first embeddings live in added graphs.

        A minimal child of a surviving class with at least one pre-delta
        embedding is already a class or a border entry; any other child
        generated from the add-embeddings has *all* its embeddings inside
        added graphs (an embedding never spans graphs), so its exact
        support set is the added graphs below — and the
        ``n_added < min_count`` guard keeps it infrequent.
        """
        parent = DFSCode(code)
        for edge, records in scan_miner._extensions(
            parent, add_embeddings
        ).items():
            child = parent.extended(edge)
            if child.edges in class_codes or child.edges in old_border:
                continue
            if not is_min_code(child):
                continue
            adds_border[child.edges] = (
                BitSet(extension_graph_ids(records)).bits << base
            )

    @staticmethod
    def _scan_new_initial_edges(
        adds_dmg: GraphDatabase,
        base: int,
        class_codes: set[_Code],
        old_border: dict[_Code, int],
        adds_border: dict[_Code, int],
    ) -> None:
        """Minimal one-edge codes introduced by the added graphs.

        Every one-edge code with a pre-delta embedding is a class or a
        border entry (initial candidates are always generated), so only
        codes absent from both can appear here.
        """
        initial: dict[DFSEdge, set[int]] = {}
        for graph in adds_dmg:
            for u, v, elabel in graph.edges():
                lu, lv = graph.node_label(u), graph.node_label(v)
                la, lb = (lu, lv) if lu <= lv else (lv, lu)
                initial.setdefault((0, 1, la, elabel, lb), set()).add(
                    base + graph.graph_id
                )
        for edge, gids in initial.items():
            code: _Code = (edge,)
            if code in class_codes or code in old_border:
                continue
            adds_border.setdefault(code, BitSet(gids).bits)

    def _full_remine(
        self, delta: DatabaseDelta, adds_db: GraphDatabase, tracer: Tracer
    ) -> TaxogramResult:
        """Remine the updated database into a fresh store and swap it in.

        The rebuild lands in a sibling directory and replaces the old
        store only after it is complete, so a crash mid-remine leaves the
        previous store intact.
        """
        from repro.core.taxogram import TaxogramOptions
        from repro.incremental.pipeline import mine_to_store

        store = self.store
        removed_set = frozenset(delta.remove_ids)
        updated_db = GraphDatabase(
            store.database.node_labels, store.database.edge_labels
        )
        for graph in store.database:
            if graph.graph_id in removed_set:
                continue
            updated_db.add_graph(graph.copy())
        for graph in adds_db:
            updated_db.add_graph(graph.copy())

        base = store.directory.resolve()
        tmp = base.with_name(base.name + ".rebuild")
        if tmp.exists():
            shutil.rmtree(tmp)
        options = TaxogramOptions(
            min_support=store.min_support,
            max_edges=store.max_edges,
            artificial_root_name=store.artificial_root_name,
            store_out=str(tmp),
        )
        result, new_store = mine_to_store(
            updated_db, store.taxonomy, options, tracer
        )
        # Readers fence on a monotonic store_version; re-save the fresh
        # store so its version strictly advances past the old one.  The
        # app state (e.g. the streaming applier's WAL offset) must ride
        # along, or a crash after the swap would replay applied deltas.
        new_store.store_version = store.store_version
        new_store.app_state = dict(store.app_state)
        new_store.save()
        store.mark_update_in_progress()
        shutil.rmtree(base)
        tmp.rename(base)
        self.store = PatternStore.open(base)
        if result.report is not None:
            result.report.counters["incremental.fallbacks"] = 1
        return result
