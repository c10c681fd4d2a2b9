""":class:`StoreReader`: concurrent pattern queries over a pattern store.

The paper's central trade (PAPER.md §3) is to pay isomorphism tests once
— while mining — and answer every specialization question afterwards by
bit-set intersection on the taxonomy-projected occurrence index.  A
:class:`~repro.incremental.store.PatternStore` persists every class's
occurrences, from which the reader projects those bit-sets, so it can
answer support queries for *any* pattern at or below a mined class with
zero isomorphism tests, including patterns that were never materialized
because they were over-generalized, and exact sub-threshold supports for
negative-border structures.

Query resolution for a pattern ``P``:

1. Relabel every node of ``P`` to its most-general ancestor and compute
   the minimum DFS code of the result — the candidate class key — along
   with every embedding of that code into ``P``
   (:func:`repro.mining.dfs_code.min_code_with_embeddings`).
2. If the key is a mined class: for each embedding, AND together the
   per-position occurrence rows of ``P``'s labels and union the results.
   gSpan occurrence sets are closed under automorphism, so the union is
   the exact occurrence set of ``P`` (``serving.bitset_queries``).
3. If the key is a negative-border entry: the stored graph-id set *is*
   the exact sub-threshold support when ``P`` is the most-general
   assignment; otherwise it bounds the candidate set for a VF2 check.
4. Otherwise fall back to VF2 over the database — the only path that
   performs isomorphism tests, and it is counted
   (``serving.vf2_fallbacks`` / ``serving.vf2_tests``).

Concurrency: the reader serves one committed store version in memory
(columns, border, taxonomy) and builds each class's occurrence index
from it at most once per version.  A query never reads the store
directory after the version is loaded.  The version comes from one of
two places.  A reader in its own process loads it from the directory,
bracketing the load with :func:`repro.incremental.store.fence_state`
checks; when a writer commits a new version, the next query reloads.
A reader beside a :class:`~repro.streaming.applier.StreamApplier` in
one process is handed each committed :class:`~repro.incremental.store.
PatternStore` instead (:meth:`StoreReader.adopt`), which the applier
never mutates afterwards.  Either way the result cache is invalidated
wholesale at each new version, so answers are always consistent with
exactly one committed version — never a torn mix.  Query patterns are
parsed against per-version copies of the label interners, so a query
naming an unknown label never interns it into a store a writer saves.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

from repro.core.occurrence_index import (
    AncestorTable,
    OccurrenceIndex,
    index_occurrences,
)
from repro.core.relabel import repair_taxonomy
from repro.core.results import MiningCounters, TaxonomyPattern, format_pattern
from repro.core.specializer import (
    SpecializerOptions,
    is_overgeneralized,
    specialize_class,
)
from repro.exceptions import MiningError, StoreError, TaxonomyError
from repro.graphs.graph import Graph
from repro.graphs.io import parse_graph_database
from repro.incremental.store import PatternStore, StoredClass, fence_state
from repro.isomorphism.vf2 import is_generalized_subgraph_isomorphic
from repro.mining.dfs_code import (
    graph_from_code,
    min_code_with_embeddings,
    min_dfs_code,
)
from repro.mining.gspan import min_support_count
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.serving.cache import VersionedResultCache, query_key
from repro.similarity.engine import ScoredGraph, SimilarityEngine
from repro.util.bitset import BitSet

__all__ = [
    "DEFAULT_SIMILAR_THRESHOLD",
    "DEFAULT_TOP_K",
    "MatchResult",
    "QUERY_OPS",
    "Query",
    "SIMILARITY_OPS",
    "ServingAnswer",
    "StoreReader",
]

# The exact ops over one pattern, answered from its class's rows.
_PATTERN_OPS = ("support", "contains", "graphs", "specializations")

# The approximate regime (repro.similarity): ranked MCS scores, one
# graph's score, and similarity-thresholded containment.
SIMILARITY_OPS = ("similar", "similarity_score", "fuzzy_contains")

# Every op a reader answers and a router routes.
QUERY_OPS = _PATTERN_OPS + ("top_k",) + SIMILARITY_OPS

# A ``top_k`` query without ``k`` answers this many patterns, whichever
# path (HTTP front, router, in-process replica) carried it.
DEFAULT_TOP_K = 10

# ``similar`` needs a permissive default (1.0 would re-answer the exact
# query); ``fuzzy_contains`` defaults to the exact fixed point so a
# caller only gets fuzzy answers by asking for them.
DEFAULT_SIMILAR_THRESHOLD = 0.5


@dataclass(frozen=True)
class Query:
    """One query: an op plus its arguments.

    The one form a query takes from an HTTP client
    (:func:`~repro.serving.endpoints.parse_query`) through the router to
    :meth:`StoreReader.answer`.  ``op`` is one of :data:`QUERY_OPS`:
    ``support``, ``contains``, ``graphs``, ``specializations`` (which
    take ``pattern``; ``specializations`` also ``min_support``),
    ``top_k`` (which takes ``k``, default :data:`DEFAULT_TOP_K`, and
    optionally ``label_filter``), or a
    similarity op — ``similar`` / ``similarity_score`` /
    ``fuzzy_contains`` — which take ``pattern`` plus ``sim_threshold``
    / ``graph_id`` / ``semantics`` / ``k`` as applicable.  ``pattern``
    is a :class:`Graph` or its graph-db text (the wire form).
    """

    op: str
    pattern: Graph | str | None = None
    min_support: float | None = None
    k: int | None = None
    label_filter: str | None = None
    sim_threshold: float | None = None
    semantics: str | None = None
    graph_id: int | None = None

    def arguments(self) -> dict:
        """Every field but ``op`` and ``pattern``, by name: the keyword
        arguments of :meth:`StoreReader.query`."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}


@dataclass(frozen=True)
class MatchResult:
    """Exact match set of one query pattern.

    ``support_mask`` has bit ``g`` set iff graph ``g`` matches;
    ``support_count`` is its popcount and ``graph_ids`` the same set as
    a frozenset.  ``occurrences`` lists
    ``(graph_id, node_tuple)`` pairs — the occurrence ids of the pattern
    inside its class — and is ``None`` when the answer came from a
    border entry or a VF2 fallback, where no occurrence index exists.
    """

    support_mask: int
    occurrences: tuple[tuple[int, tuple[int, ...]], ...] | None
    path: str

    @property
    def support_count(self) -> int:
        return self.support_mask.bit_count()

    @property
    def graph_ids(self) -> frozenset[int]:
        return frozenset(BitSet.from_bits(self.support_mask))


@dataclass(frozen=True)
class ServingAnswer:
    """A query result fenced to one committed store version."""

    value: object
    store_version: int
    cached: bool


class _ReaderState:
    """One committed store version, snapshotted in memory."""

    def __init__(self, store: PatternStore) -> None:
        # Queries parse (and repair_taxonomy interns) against copies of
        # the store's interners: the store may be a writer's, whose
        # interners reach the next labels.json.
        store = self.store = store.with_own_labels()
        self.version = store.store_version
        self.working, self.most_general = repair_taxonomy(
            store.taxonomy, store.artificial_root_name
        )
        self.min_count = min_support_count(
            store.min_support, len(store.database)
        )
        self.classes: dict[tuple, StoredClass] = {
            stored.code: stored for stored in store.classes
        }
        self.border = store.border
        self.class_ids = {
            stored.code: class_id
            for class_id, stored in enumerate(store.classes)
        }
        # Class code -> its occurrence index, built on first touch.
        self.rows: dict[tuple, OccurrenceIndex] = {}
        self.ancestors = AncestorTable(self.working)
        self.patterns: tuple[TaxonomyPattern, ...] | None = None
        self.patterns_lock = threading.Lock()
        self.similarity: SimilarityEngine | None = None
        self.similarity_lock = threading.Lock()
        self._row_locks: dict[tuple, threading.Lock] = {}
        self._row_locks_guard = threading.Lock()

    @cached_property
    def originals(self) -> list[list[int]]:
        """Original node labels of every database graph, by graph id."""
        return [graph.node_labels() for graph in self.store.database]

    def row_lock(self, code: tuple) -> threading.Lock:
        with self._row_locks_guard:
            lock = self._row_locks.get(code)
            if lock is None:
                lock = self._row_locks[code] = threading.Lock()
            return lock


class StoreReader:
    """Read-only, thread-safe query view of a pattern store directory.

    Each committed store version is either loaded from the directory
    (manifest verified, files parsed) or handed over in memory by an
    in-process writer through :meth:`adopt`; ``store`` is the version
    to serve first, in place of loading one.  Each class's occurrence
    index is built lazily from the version (once per class per version)
    and shared across query threads.  All query methods may raise
    :class:`~repro.exceptions.StoreError` if the store keeps changing
    faster than the reader can fence a consistent snapshot.

    ``metrics`` is the registry the reader (and its similarity engine
    and session managers) writes ``serving.*``/``similarity.*``/
    ``sessions.*`` counters into — a serving role passes its one
    registry; the default is a fresh one.
    """

    def __init__(
        self,
        directory: str | Path,
        cache_size: int = 1024,
        max_retries: int = 100,
        retry_wait: float = 0.02,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        store: PatternStore | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._cache = VersionedResultCache(cache_size)
        self._max_retries = max(1, max_retries)
        self._retry_wait = retry_wait
        self._reload_lock = threading.Lock()
        self._state: _ReaderState | None = None
        if store is None:
            self._ensure_state()
        else:
            self.adopt(lambda: store)

    # -- public query API -----------------------------------------------------

    @property
    def version(self) -> int:
        """The committed store version the reader currently serves."""
        return self._state.version

    @property
    def database_size(self) -> int:
        return len(self._state.store.database)

    @property
    def num_classes(self) -> int:
        return len(self._state.store.classes)

    @property
    def min_support(self) -> float:
        return self._state.store.min_support

    def refresh(self) -> int:
        """Re-fence against disk and return the committed store version."""
        return self._ensure_state().version

    @property
    def max_edges(self) -> int | None:
        return self._state.store.max_edges

    @property
    def min_count(self) -> int:
        """The store's absolute support threshold (``ceil`` of sigma)."""
        return self._state.min_count

    @property
    def working_taxonomy(self):
        """The repaired working taxonomy of the served store version."""
        return self._state.working

    @property
    def most_general(self) -> dict:
        """Label -> most-general ancestor in the working taxonomy."""
        return self._state.most_general

    @property
    def database(self):
        """The served store version's database (read-only use); its
        interners are the reader's own copies."""
        return self._state.store.database

    def class_codes(self) -> tuple[tuple, ...]:
        """The DFS-code edge tuples of every mined pattern class.

        The session miner's homomorphism path scans these directly —
        folded witnesses need not embed injectively, so the example
        mini-mine cannot enumerate their classes.
        """
        return tuple(self._state.classes)

    @property
    def num_border_entries(self) -> int:
        return len(self._state.store.border)

    @property
    def app_state(self) -> dict:
        """The store's committed application state (e.g. WAL offset)."""
        return dict(self._state.store.app_state)

    @property
    def num_patterns(self) -> int:
        """Count of mined patterns (materializes them once per version)."""
        return len(self._materialized_patterns(self._ensure_state()))

    def support(self, pattern: Graph) -> int:
        """Exact number of database graphs containing ``pattern``."""
        return self.query("support", pattern).value

    def contains(self, pattern: Graph) -> bool:
        """Is ``pattern`` a member of the mined result set — frequent at
        the store's sigma and not over-generalized?"""
        return self.query("contains", pattern).value

    def graphs_matching(self, pattern: Graph) -> MatchResult:
        """Exact graph ids (and, inside a class, occurrence ids) that
        contain ``pattern``."""
        return self.query("graphs", pattern).value

    def specializations(
        self, pattern: Graph, min_support: float | None = None
    ) -> list[TaxonomyPattern]:
        """Frequent, non-over-generalized label specializations of
        ``pattern`` (same structure, labels at or below ``pattern``'s).

        ``min_support`` defaults to the store's sigma; inside a mined
        class any threshold is answerable exactly from the stored
        bit-sets, even below sigma.
        """
        return list(
            self.query("specializations", pattern, min_support=min_support)
            .value
        )

    def top_k(
        self, k: int, label_filter: str | None = None
    ) -> list[TaxonomyPattern]:
        """The ``k`` highest-support mined patterns, optionally only
        those mentioning ``label_filter`` or one of its specializations."""
        return list(
            self.query("top_k", k=k, label_filter=label_filter).value
        )

    def similar_patterns(
        self,
        pattern: Graph,
        threshold: float = DEFAULT_SIMILAR_THRESHOLD,
        k: int | None = None,
    ) -> tuple[ScoredGraph, ...]:
        """Database graphs whose MCS-based similarity to ``pattern``
        reaches ``threshold``, ranked by ``(-score, graph_id)``."""
        return self.query(
            "similar", pattern, sim_threshold=threshold, k=k
        ).value

    def similarity_score(self, pattern: Graph, graph_id: int) -> float:
        """The MCS-based graph-to-pattern similarity of one graph
        (``1.0`` iff the graph contains ``pattern`` exactly)."""
        return self.query(
            "similarity_score", pattern, graph_id=graph_id
        ).value

    def fuzzy_contains(
        self,
        pattern: Graph,
        threshold: float = 1.0,
        semantics: str = "isomorphism",
    ) -> MatchResult:
        """Similarity-thresholded containment; at the default
        ``threshold=1.0`` with isomorphism semantics the answer equals
        :meth:`graphs_matching`'s graph-id set (the differential suite
        pins this bit-for-bit)."""
        return self.query(
            "fuzzy_contains",
            pattern,
            sim_threshold=threshold,
            semantics=semantics,
        ).value

    def query(
        self, op: str, pattern: Graph | None = None, **arguments
    ) -> ServingAnswer:
        """Generic entry point; ``arguments`` are :class:`Query`'s other
        fields.  Returns the value fenced to a version."""
        return self.answer(Query(op, pattern, **arguments))

    def answer(self, query: Query) -> ServingAnswer:
        """Answer one query (a text pattern is parsed first), fenced to
        a store version."""
        if isinstance(query.pattern, str):
            query = replace(query, pattern=self.parse_pattern(query.pattern))
        start = time.perf_counter()
        with self._tracer.span(f"serving.{query.op}"):
            state = self._ensure_state()
            if query.op in SIMILARITY_OPS:
                value, cached = self._dispatch_similarity(state, query)
            else:
                value, cached = self._dispatch(state, query)
        self.metrics.add("serving.queries", 1)
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.add("serving.latency_us_total", int(latency_ms * 1000))
        self.metrics.max_gauge("serving.latency_ms_max", latency_ms)
        return ServingAnswer(
            value=value, store_version=state.version, cached=cached
        )

    def drop_tenant(self, tenant) -> int:
        """Release one tenant's result-cache bucket (session teardown)."""
        return self._cache.drop_tenant(tenant)

    def class_members(
        self,
        code_edges: tuple,
        min_count: int | None = None,
        tenant=None,
    ) -> tuple[TaxonomyPattern, ...]:
        """All non-over-generalized members of one stored class at
        ``min_count`` (defaulting to the store's threshold).

        The session miner's workhorse: answered purely from the
        persisted bit-sets, cached per ``(version, tenant)`` so one
        tenant's example-driven mines never evict another tenant's hot
        set, and ``()`` for structures that are not mined classes.
        """
        state = self._ensure_state()
        code_edges = tuple(code_edges)
        resolved = state.min_count if min_count is None else min_count
        key = query_key("class_members", code_edges, min_count=resolved)
        value = self._cache.get(state.version, key, tenant=tenant)
        if not self._cache.is_miss(value):
            self.metrics.add("serving.cache_hits", 1)
            return value
        self.metrics.add("serving.cache_misses", 1)
        stored = state.classes.get(code_edges)
        if stored is None:
            value = ()
        else:
            patterns = self._class_patterns(state, stored, resolved)
            patterns.sort(key=TaxonomyPattern.rank_key)
            value = tuple(patterns)
        self._cache.put(state.version, key, value, tenant=tenant)
        return value

    def _class_patterns(
        self, state: _ReaderState, stored: StoredClass, min_count: int
    ) -> list[TaxonomyPattern]:
        """One class's Step-3 output at ``min_count``, unsorted.

        At the store's own threshold this is the persisted pattern set;
        a legacy class without one, or any other threshold, runs Step 3
        over the class's occurrence rows.
        """
        class_id = state.class_ids[stored.code]
        database_size = len(state.store.database)
        if stored.patterns is not None and min_count == state.min_count:
            return [
                pattern.to_pattern(stored.code, class_id, database_size)
                for pattern in stored.patterns
            ]
        return self._specialize(
            state, stored, graph_from_code(stored.code), min_count
        )

    def _specialize(
        self,
        state: _ReaderState,
        stored: StoredClass,
        structure: Graph,
        min_count: int,
    ) -> list[TaxonomyPattern]:
        """Run Step 3 over one class's occurrence rows from ``structure``
        (the class code's graph, or a query relabeled into its
        position space), unsorted."""
        counters = MiningCounters()
        patterns = specialize_class(
            class_id=state.class_ids[stored.code],
            structure=structure,
            store=stored.columns,
            index=self._class_rows(state, stored),
            taxonomy=state.working,
            min_count=min_count,
            database_size=len(state.store.database),
            options=SpecializerOptions(),
            counters=counters,
        )
        self.metrics.add(
            "serving.bitset_intersections", counters.bitset_intersections
        )
        self.metrics.add("serving.bitset_queries", 1)
        return patterns

    def class_key(self, pattern: Graph) -> tuple:
        """Canonical key of the pattern's class structure.

        Two patterns share a key iff they belong to the same pattern
        class (same structure after relabeling to most-general
        ancestors); the batch executor groups queries by this key so
        one occurrence-row load serves the whole group.
        """
        state = self._ensure_state()
        labels = self._validated_labels(state, pattern)
        if pattern.num_edges == 0:
            return ("node", state.most_general[labels[0]])
        code, _isos = self._generalized(state, pattern, labels)
        return code.edges

    # -- rendering / parsing helpers (CLI and HTTP surface) -------------------

    def render(self, pattern: TaxonomyPattern) -> str:
        store = self._state.store
        return format_pattern(
            pattern, store.taxonomy.interner, store.database.edge_labels
        )

    def parse_pattern(self, text: str) -> Graph:
        """One query pattern from graph-db text (``t # 0`` / ``v`` / ``e``).

        Unknown labels are interned into the served version's interner
        copies only, never into the store's."""
        database = self._state.store.database
        parsed = parse_graph_database(
            text,
            node_labels=database.node_labels,
            edge_labels=database.edge_labels,
        )
        if len(parsed) != 1:
            raise MiningError(
                f"a query pattern file must contain exactly one graph, "
                f"got {len(parsed)}"
            )
        return parsed[0]

    # -- state management (version fencing) -----------------------------------

    def _fence(self) -> tuple[int | None, bool]:
        return fence_state(self.directory)

    def adopt(self, commit: Callable[[], PatternStore]) -> PatternStore:
        """Serve the store ``commit()`` returns, without reading the
        directory; returns that store.

        An in-process writer passes a ``commit`` that makes its new
        version current in the directory and returns it, and must not
        mutate that store afterwards.  ``commit`` runs under the reload
        lock, so a query that sees the new manifest before the handoff
        waits for it instead of parsing the directory.
        """
        with self._reload_lock:
            store = commit()
            self._install(store)
            self.metrics.add("serving.handoffs", 1)
        return store

    def _install(self, store: PatternStore) -> _ReaderState:
        """Serve ``store`` from now on; the caller holds the reload lock."""
        state = _ReaderState(store)
        self._state = state
        self._cache.clear()
        stats = store.compression_stats
        raw = sum(s["raw"] for s in stats.values())
        if raw:
            self.metrics.set_gauge(
                "serving.store_compression_ratio",
                sum(s["stored"] for s in stats.values()) / raw,
            )
        return state

    def _ensure_state(self) -> _ReaderState:
        """The current snapshot, reloading when a new version committed."""
        state = self._state
        version, stable = self._fence()
        if state is not None and (
            not stable or version is None or version == state.version
        ):
            return state
        with self._reload_lock:
            state = self._state
            version, stable = self._fence()
            if state is not None and (
                not stable or version is None or version == state.version
            ):
                return state
            attempts = self._max_retries if state is not None else 3
            last_error: StoreError | None = None
            for _attempt in range(attempts):
                try:
                    store = PatternStore.open(self.directory)
                except StoreError as exc:
                    last_error = exc
                    time.sleep(self._retry_wait)
                    continue
                version, stable = self._fence()
                if stable and version == store.store_version:
                    self.metrics.add("serving.reloads", 1)
                    return self._install(store)
                time.sleep(self._retry_wait)
            if last_error is not None and state is None:
                raise last_error
            raise StoreError(
                f"store {self.directory} kept changing while the reader "
                "tried to load a consistent snapshot"
            )

    def _class_rows(
        self, state: _ReaderState, stored: StoredClass
    ) -> OccurrenceIndex:
        """The class's occurrence index, built once per version from the
        snapshot's columns, original labels and working taxonomy."""
        rows = state.rows.get(stored.code)
        if rows is not None:
            return rows
        with state.row_lock(stored.code):
            rows = state.rows.get(stored.code)
            if rows is None:
                rows = state.rows[stored.code] = index_occurrences(
                    stored.num_positions,
                    stored.columns.occurrences,
                    state.originals,
                    state.ancestors,
                )
                self.metrics.add("serving.row_loads", 1)
            return rows

    # -- dispatch and caching -------------------------------------------------

    def _dispatch(self, state: _ReaderState, query: Query):
        op, pattern, k, label_filter = (
            query.op, query.pattern, query.k, query.label_filter
        )
        if op == "top_k":
            if k is None:
                k = DEFAULT_TOP_K
            if k < 0:
                raise MiningError("top_k requires a non-negative k")
            cached = state.patterns is not None
            patterns = self._materialized_patterns(state)
            if label_filter is not None:
                try:
                    filter_id = state.store.taxonomy.id_of(label_filter)
                except KeyError:
                    raise TaxonomyError(
                        f"label filter {label_filter!r} is not a taxonomy"
                        " concept"
                    ) from None
                patterns = tuple(
                    p
                    for p in patterns
                    if any(
                        state.working.matches(filter_id, p.graph.node_label(v))
                        for v in p.graph.nodes()
                    )
                )
            return patterns[:k], cached
        if op not in _PATTERN_OPS:
            raise MiningError(f"unknown query op {op!r}")
        if pattern is None:
            raise MiningError(f"op {op!r} requires a pattern")
        structure = self._structure_key(pattern)
        min_support = query.min_support
        if op == "specializations":
            # Key by the *resolved* absolute count so an explicit
            # min_support equal to the store's default shares an entry
            # with the default-argument phrasing.
            min_count = (
                state.min_count
                if min_support is None
                else min_support_count(
                    min_support, len(state.store.database)
                )
            )
            key = query_key(op, structure, min_count=min_count)
        else:
            # support and graphs share the underlying match; keep
            # separate entries (one is an int, one a MatchResult).
            key = query_key(op, structure)
        value = self._cache.get(state.version, key)
        if not self._cache.is_miss(value):
            self.metrics.add("serving.cache_hits", 1)
            return value, True
        self.metrics.add("serving.cache_misses", 1)
        if op == "contains":
            value = self._compute_contains(state, pattern)
        elif op == "specializations":
            value = self._compute_specializations(state, pattern, min_support)
        else:
            match = self._compute_match(state, pattern)
            value = match.support_count if op == "support" else match
        self._cache.put(state.version, key, value)
        return value, False

    def _structure_key(self, pattern):
        """The pattern's canonical DFS code (or single node label), so
        automorphic phrasings of one query share a cache entry."""
        code = min_dfs_code(pattern)  # validates connectivity too
        if code.edges:
            return code.edges
        return ("node", pattern.node_label(0))

    # -- similarity ops --------------------------------------------------------

    def _similarity_engine(self, state: _ReaderState) -> SimilarityEngine:
        """The similarity engine for one store version, built lazily.

        Labels present only in the *working* taxonomy are the repair
        layer's artificial roots; excluding them from the similarity
        measure keeps labels from unrelated taxonomy components at
        similarity ``0.0`` instead of meeting under a fake ancestor.
        """
        with state.similarity_lock:
            if state.similarity is None:
                exclude = frozenset(state.working.labels()) - frozenset(
                    state.store.taxonomy.labels()
                )
                state.similarity = SimilarityEngine(
                    state.store.database,
                    state.working,
                    exclude_labels=exclude,
                    metrics=self.metrics,
                    tracer=self._tracer,
                )
            return state.similarity

    def _dispatch_similarity(self, state: _ReaderState, query: Query):
        op, pattern, semantics, k = (
            query.op, query.pattern, query.semantics, query.k
        )
        sim_threshold, graph_id = query.sim_threshold, query.graph_id
        if pattern is None:
            raise MiningError(f"op {op!r} requires a pattern")
        if semantics is None:
            semantics = "isomorphism"
        elif op != "fuzzy_contains" and semantics != "isomorphism":
            raise MiningError(
                f"op {op!r} supports only isomorphism semantics"
            )
        self._validated_labels(state, pattern)
        structure = self._structure_key(pattern)
        if op == "similar":
            threshold = (
                DEFAULT_SIMILAR_THRESHOLD
                if sim_threshold is None
                else sim_threshold
            )
            key = query_key(op, structure, threshold=threshold, k=k)
        elif op == "similarity_score":
            if sim_threshold is not None:
                raise MiningError(
                    "similarity_score does not take a threshold"
                )
            if graph_id is None:
                raise MiningError("similarity_score requires a graph_id")
            key = query_key(op, structure, graph_id=graph_id)
        else:  # fuzzy_contains
            threshold = 1.0 if sim_threshold is None else sim_threshold
            key = query_key(
                op, structure, threshold=threshold, semantics=semantics
            )
        value = self._cache.get(state.version, key)
        if not self._cache.is_miss(value):
            self.metrics.add("serving.cache_hits", 1)
            return value, True
        self.metrics.add("serving.cache_misses", 1)
        engine = self._similarity_engine(state)
        if op == "similar":
            value = engine.similar(pattern, threshold, k=k)
        elif op == "similarity_score":
            value = engine.score(pattern, graph_id)
        else:
            gids = engine.fuzzy_match(pattern, threshold, semantics)
            value = MatchResult(
                support_mask=BitSet(gids).bits,
                occurrences=None,
                path=f"similarity:{semantics}",
            )
        self._cache.put(state.version, key, value)
        return value, False

    # -- query computations ---------------------------------------------------

    def _validated_labels(self, state: _ReaderState, pattern: Graph):
        if pattern.num_nodes == 0:
            raise MiningError("query pattern has no nodes")
        labels = [pattern.node_label(v) for v in pattern.nodes()]
        for label in labels:
            if label not in state.working:
                name = state.store.taxonomy.interner.name_of(label)
                raise TaxonomyError(
                    f"query pattern label {name!r} is not a taxonomy concept"
                )
        return labels

    def _generalized(self, state: _ReaderState, pattern: Graph, labels):
        generalized = pattern.copy()
        for v in generalized.nodes():
            generalized.relabel_node(v, state.most_general[labels[v]])
        return min_code_with_embeddings(generalized)

    def _compute_match(self, state: _ReaderState, pattern: Graph) -> MatchResult:
        labels = self._validated_labels(state, pattern)
        if pattern.num_edges == 0:
            if pattern.num_nodes != 1:
                raise MiningError("query pattern is not connected")
            # Single-node patterns have no pattern class; one pass over
            # the node labels (still zero isomorphism tests).
            label = labels[0]
            working = state.working
            mask = BitSet(
                graph.graph_id
                for graph in state.store.database
                if any(
                    working.matches(label, node_label)
                    for node_label in set(graph.node_labels())
                )
            ).bits
            self.metrics.add("serving.label_scans", 1)
            return MatchResult(mask, None, "label-scan")
        code, isos = self._generalized(state, pattern, labels)
        stored = state.classes.get(code.edges)
        if stored is not None:
            rows = self._class_rows(state, stored)
            columns = stored.columns
            total = 0
            intersections = 0
            for iso in isos:
                bits = columns.all_bits
                for position in range(stored.num_positions):
                    bits &= rows.bits(position, labels[iso[position]])
                    intersections += 1
                    if not bits:
                        break
                total |= bits
            self.metrics.add("serving.bitset_intersections", intersections)
            self.metrics.add("serving.bitset_queries", 1)
            mask = columns.support_mask(total)
            occurrences = tuple(
                (entry[0], entry[1])
                for occ_id, entry in enumerate(columns)
                if entry is not None and (total >> occ_id) & 1
            )
            return MatchResult(mask, occurrences, "bitset")
        border_mask = state.border.get(code.edges)
        if border_mask is not None:
            generalized_is_query = all(
                state.most_general[label] == label for label in labels
            )
            if generalized_is_query:
                # The stored border entry *is* the exact (sub-threshold)
                # support set of this structure's most-general pattern.
                self.metrics.add("serving.border_hits", 1)
                self.metrics.add("serving.bitset_queries", 1)
                return MatchResult(border_mask, None, "border")
            mask = self._vf2_scan(
                state, pattern, BitSet.from_bits(border_mask)
            )
            return MatchResult(mask, None, "vf2-border")
        mask = self._vf2_scan(
            state, pattern, range(len(state.store.database))
        )
        return MatchResult(mask, None, "vf2")

    def _vf2_scan(self, state, pattern, candidates) -> int:
        """Support mask of ``pattern`` over the ``candidates`` graph ids."""
        database = state.store.database
        working = state.working
        mask = 0
        tests = 0
        for gid in candidates:
            tests += 1
            if is_generalized_subgraph_isomorphic(
                pattern, database[gid], working
            ):
                mask |= 1 << gid
        self.metrics.add("serving.vf2_tests", tests)
        self.metrics.add("serving.vf2_fallbacks", 1)
        return mask

    def _compute_contains(self, state: _ReaderState, pattern: Graph) -> bool:
        labels = self._validated_labels(state, pattern)
        if pattern.num_edges == 0:
            return False  # mined patterns always contain an edge
        code, isos = self._generalized(state, pattern, labels)
        stored = state.classes.get(code.edges)
        if stored is None:
            # Frequent patterns within the edge cap always have a mined
            # class, so anything else is not in the result set.
            return False
        rows = self._class_rows(state, stored)
        columns = stored.columns
        iso = isos[0]  # support comparisons are automorphism-invariant
        bits = columns.all_bits
        intersections = 0
        for position in range(stored.num_positions):
            bits &= rows.bits(position, labels[iso[position]])
            intersections += 1
            if not bits:
                break
        support = columns.support_count(bits)
        self.metrics.add("serving.bitset_queries", 1)
        if support < state.min_count:
            self.metrics.add("serving.bitset_intersections", intersections)
            return False
        # A pattern with an equal-support covered child at any position
        # is over-generalized (paper Lemma 2), so it was not emitted.
        counters = MiningCounters()
        overgeneralized = is_overgeneralized(
            [labels[iso[position]] for position in range(stored.num_positions)],
            bits,
            support,
            columns,
            rows,
            state.working,
            counters,
        )
        self.metrics.add(
            "serving.bitset_intersections",
            intersections + counters.bitset_intersections,
        )
        return not overgeneralized

    def _compute_specializations(
        self, state: _ReaderState, pattern: Graph, min_support: float | None
    ) -> tuple[TaxonomyPattern, ...]:
        labels = self._validated_labels(state, pattern)
        database_size = len(state.store.database)
        min_count = (
            state.min_count
            if min_support is None
            else min_support_count(min_support, database_size)
        )
        if pattern.num_edges == 0:
            raise MiningError(
                "specializations require a pattern with at least one edge"
            )
        code, isos = self._generalized(state, pattern, labels)
        stored = state.classes.get(code.edges)
        if stored is None:
            if (
                state.store.max_edges is not None
                and len(code.edges) > state.store.max_edges
            ):
                raise MiningError(
                    f"pattern has {len(code.edges)} edges but the store "
                    f"was mined with max_edges={state.store.max_edges}"
                )
            if min_count >= state.min_count:
                return ()  # structure is infrequent; so is every member
            raise MiningError(
                f"store was mined at min_support={state.store.min_support}; "
                "sub-threshold specializations exist only inside mined "
                "classes"
            )
        # Rebuild the pattern in the class's position space: position p
        # takes the query label of the node it maps to.
        iso = isos[0]
        structure = graph_from_code(stored.code)
        for position in range(stored.num_positions):
            structure.relabel_node(position, labels[iso[position]])
        patterns = self._specialize(state, stored, structure, min_count)
        patterns.sort(key=TaxonomyPattern.rank_key)
        return tuple(patterns)

    def _materialized_patterns(
        self, state: _ReaderState
    ) -> tuple[TaxonomyPattern, ...]:
        """The store's full mined pattern set, built once per version from
        the persisted per-class sets (Step 3 runs only for a legacy class
        that has none)."""
        with state.patterns_lock:
            if state.patterns is None:
                patterns: list[TaxonomyPattern] = []
                for stored in state.store.classes:
                    patterns.extend(
                        self._class_patterns(state, stored, state.min_count)
                    )
                patterns.sort(key=TaxonomyPattern.rank_key)
                state.patterns = tuple(patterns)
            return state.patterns
