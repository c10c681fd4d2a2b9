"""The traced run: one walk through every layer, reporting per-layer metrics.

``--trace 1`` runs this walk instead of a workload, whichever workload is
named; the untraced workloads give the end-to-end numbers.  The walk has
a fixed size (about 70 s on one vCPU), so ``--seconds`` does not change
it.  It records benchmark-side spans (:class:`perfbench.common.SpanLog`)
around each public call and reads the counters the program already
exposes:

* mining path — ``Taxogram.mine`` with the ``tracer=`` argument (its
  ``relabel``, ``gspan.extend`` and ``specialize.class`` spans and
  ``TaxogramResult.report`` counters, from the first traced mine after
  a warm-up), the same call untraced for ``tracing.overhead``, and
  ``mine_directed`` ``stage_seconds``;
* store — ``mine_to_store`` (``TaxogramOptions.store_out``) and
  ``PatternStore.open``;
* serving path — a seeded query sample replayed in-process on a
  ``StoreReader``, then over HTTP directly to a ``taxogram serve``
  replica and routed through ``taxogram route``, all warm, so the
  differences are the HTTP front's and the router's own overhead;
  ``StoreReader.metrics``, ``/metrics`` and ``kernel_delta`` counters;
* ingest path — ``WriteAheadLog.append`` → ``StreamApplier.
  apply_next_batch`` → ``StoreReader.refresh`` → query, in-process,
  with ``StreamApplier.metrics``.
"""

from __future__ import annotations

import gc
import random

from perfbench.common import (
    CLIProcess,
    Client,
    Result,
    SpanLog,
    exact_mix,
    median,
    metric,
    one_cpu,
    tree_bytes,
    tree_self_seconds,
    tree_wall,
    workdir,
)
from perfbench.datasets import directed_dataset, undirected_dataset
from perfbench.ingest import graph_text
from perfbench.mine import MAX_EDGES, MIN_SUPPORT, digest
from perfbench.serve import (
    LOOKUP_MIX,
    LOOKUP_OPS,
    SIMILAR_THRESHOLD,
    STORE_SUPPORT,
    Pool,
    route,
)
from repro import (
    DatabaseDelta,
    PatternStore,
    StoreReader,
    Taxogram,
    TaxogramOptions,
    Tracer,
)
from repro.directed import mine_directed
from repro.observability import MetricsRegistry
from repro.streaming import StreamApplier, WriteAheadLog
from repro.util.bitset import kernel_counters, kernel_delta

CACHE_REPLAY = 800  # serve-mix lookups replayed in-process, in drawn order
TRANSPORT_SAMPLE = 60  # lookups timed in-process, direct and routed
SPECIALIZATIONS_SAMPLE = 20
SIMILAR_SAMPLE = 4
INGEST_BATCHES = 2
RECORDS_PER_BATCH = 4

# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = {
    "datagen.build_s": ("s", "lower"),
    "relabel.wall_s": ("s", "lower"),
    "gspan.self_s": ("s", "lower"),
    "gspan.candidates_generated": ("count", "lower"),
    "gspan.pruned_nonminimal": ("count", "lower"),
    "gspan.useful_ratio": ("ratio", "higher"),
    "directed.gspan_s": ("s", "lower"),
    "directed.specialize_s": ("s", "lower"),
    "index.oie_entries": ("count", "lower"),
    "index.updates": ("count", "lower"),
    "specialize.wall_s": ("s", "lower"),
    "specialize.bitset_intersections": ("count", "lower"),
    "specialize.useful_ratio": ("ratio", "higher"),
    "specialize.overgeneralized_eliminated": ("count", "lower"),
    "bitset.intersections": ("count", "lower"),
    "bitset.jaccards": ("count", "lower"),
    "bitset.blocks_visited": ("count", "lower"),
    "store.mine_to_store_s": ("s", "lower"),
    "store.open_s": ("s", "lower"),
    "store.bytes": ("bytes", "lower"),
    "updater.classes_per_batch": ("count", "lower"),
    "updater.bitset_intersections_per_batch": ("count", "lower"),
    "updater.embeddings_replayed": ("count", "lower"),
    "incremental.fallbacks": ("count", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.bytes_per_record": ("bytes", "lower"),
    "applier.batch_s": ("s", "lower"),
    "applier.records_per_batch": ("count", "higher"),
    "applier.lag_max": ("count", "lower"),
    "reader.open_s": ("s", "lower"),
    "reader.refresh_s": ("s", "lower"),
    "reader.query_ms.support": ("ms", "lower"),
    "reader.query_ms.graphs": ("ms", "lower"),
    "reader.query_ms.contains": ("ms", "lower"),
    "reader.query_ms.specializations": ("ms", "lower"),
    "reader.query_ms.top_k": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "reader.row_loads": ("count", "lower"),
    "front.overhead_ms": ("ms", "lower"),
    "admission.shed": ("count", "lower"),
    "router.overhead_ms": ("ms", "lower"),
    "router.retries": ("count", "lower"),
    "similarity.similar_ms": ("ms", "lower"),
    "similarity.prefilter_ratio": ("ratio", "lower"),
    "tracing.overhead": ("ratio", "lower"),
}


def _median_ms(spans: SpanLog, name: str) -> float:
    return median(spans.samples(name)) * 1000.0


def _delta(before: dict, after: dict, name: str) -> int:
    """How much counter ``name`` grew between two metrics snapshots."""
    return after.get(name, 0) - before.get(name, 0)


def _timed_queries(spans: SpanLog, name: str, call, queries) -> list:
    """Run ``call(query)`` for each query inside one span each."""
    answers = []
    for query in queries:
        with spans.span(name):
            answers.append(call(query))
    return answers


def run(seed: int, seconds: float) -> Result:
    # On one CPU like the serve and ingest workloads, so the transport
    # overheads are the program's, not the hypervisor's.
    with one_cpu():
        return _run(seed)


def _run(seed: int) -> Result:
    work = workdir("trace")
    rng = random.Random(seed)
    spans = SpanLog()
    values: dict[str, float] = {}
    problems: list[str] = []
    attempted = 0
    snapshot = kernel_counters()

    # -- mining path ---------------------------------------------------------
    with spans.span("datagen"):
        database, taxonomy = undirected_dataset(seed)
        directed, directed_taxonomy = directed_dataset(seed)
    options = TaxogramOptions(min_support=MIN_SUPPORT, max_edges=MAX_EDGES)
    # tracing.overhead: one discarded warm-up mine fills the process's
    # memo caches, then untraced (U) and traced (T) mines alternate
    # U, T, T, U, each after the previous result is released and
    # collected, so neither side runs with warmer caches or a larger heap.
    digests = {digest(Taxogram(options).mine(database, taxonomy))}
    tracer = None
    for traced in (False, True, True, False):
        gc.collect()
        run_tracer = Tracer() if traced else None
        with spans.span("mine.traced" if traced else "mine.untraced"):
            result = Taxogram(options).mine(
                database, taxonomy, tracer=run_tracer
            )
        digests.add(digest(result))
        if traced and tracer is None:
            tracer, counters = run_tracer, result.report.counters
            classes, patterns = (
                result.counters.pattern_classes, len(result.patterns)
            )
        result = None
    attempted += 5
    if len(digests) != 1:
        problems.append("traced and untraced mines differ")
    tree = tracer.root.as_dict()
    values["datagen.build_s"] = spans.wall("datagen")
    values["relabel.wall_s"] = tree_wall(tree, "relabel")
    values["gspan.self_s"] = tree_self_seconds(
        tree, "gspan.extend", "specialize.class"
    )
    values["specialize.wall_s"] = tree_wall(tree, "specialize.class")
    candidates = counters["gspan.candidates_generated"]
    values["gspan.candidates_generated"] = candidates
    values["gspan.pruned_nonminimal"] = counters[
        "gspan.candidates_pruned_nonminimal"
    ]
    values["gspan.useful_ratio"] = (
        classes / candidates
    )
    values["index.oie_entries"] = counters["index.oie_entries"]
    values["index.updates"] = counters["index.updates"]
    values["specialize.bitset_intersections"] = counters[
        "specialize.bitset_intersections"
    ]
    values["specialize.useful_ratio"] = (
        patterns / counters["specialize.candidates_enumerated"]
    )
    values["specialize.overgeneralized_eliminated"] = counters[
        "specialize.overgeneralized_eliminated"
    ]
    values["tracing.overhead"] = (
        median(spans.samples("mine.traced"))
        / median(spans.samples("mine.untraced"))
    )

    stages = mine_directed(
        directed,
        directed_taxonomy,
        min_support=MIN_SUPPORT,
        max_edges=MAX_EDGES,
    ).stage_seconds
    attempted += 1
    values["directed.gspan_s"] = stages["mine_classes"]
    values["directed.specialize_s"] = stages["specialize"]

    # -- store ---------------------------------------------------------------
    store = work / "store"
    with spans.span("store.mine_to_store"):
        stored = Taxogram(
            TaxogramOptions(
                min_support=STORE_SUPPORT,
                max_edges=MAX_EDGES,
                store_out=str(store),
            )
        ).mine(database, taxonomy)
    with spans.span("store.open"):
        PatternStore.open(store)
    attempted += 1
    values["store.mine_to_store_s"] = spans.wall("store.mine_to_store")
    values["store.open_s"] = spans.wall("store.open")
    values["store.bytes"] = tree_bytes(store)

    # -- serving path: in-process --------------------------------------------
    patterns = stored.patterns
    with spans.span("reader.open"):
        reader = StoreReader(store)
    values["reader.open_s"] = spans.wall("reader.open")
    pool = Pool(patterns, database, rng)
    replay = [
        pool.request(op)[1] for op in exact_mix(CACHE_REPLAY, LOOKUP_MIX, rng)
    ]
    before = reader.metrics.as_dict()["counters"]
    for op, index in replay:
        with spans.span(f"reader.{op}"):
            reader.query(op, patterns[index].graph)
    after = reader.metrics.as_dict()["counters"]
    hits = _delta(before, after, "serving.cache_hits")
    misses = _delta(before, after, "serving.cache_misses")
    values["cache.hit_ratio"] = hits / (hits + misses)
    values["reader.row_loads"] = after.get("serving.row_loads", 0)
    for op in LOOKUP_OPS:
        values[f"reader.query_ms.{op}"] = _median_ms(spans, f"reader.{op}")
    special = rng.sample(range(len(patterns)), SPECIALIZATIONS_SAMPLE)
    _timed_queries(
        spans, "reader.specializations",
        lambda i: reader.query("specializations", patterns[i].graph), special,
    )
    values["reader.query_ms.specializations"] = _median_ms(
        spans, "reader.specializations"
    )
    with spans.span("reader.top_k"):
        reader.query("top_k", k=10)
    values["reader.query_ms.top_k"] = spans.wall("reader.top_k") * 1000.0
    similar_sample = rng.sample(range(len(patterns)), SIMILAR_SAMPLE)
    before = reader.metrics.as_dict()["counters"]
    _timed_queries(
        spans, "reader.similar",
        lambda i: reader.similar_patterns(
            patterns[i].graph, threshold=SIMILAR_THRESHOLD
        ),
        similar_sample,
    )
    after = reader.metrics.as_dict()["counters"]
    values["similarity.similar_ms"] = _median_ms(spans, "reader.similar")
    values["similarity.prefilter_ratio"] = _delta(
        before, after, "similarity.mcs_solves"
    ) / max(1, _delta(before, after, "similarity.prefilter_candidates"))
    attempted += CACHE_REPLAY + SPECIALIZATIONS_SAMPLE + 1 + SIMILAR_SAMPLE

    # -- serving path: direct and routed HTTP --------------------------------
    transport = rng.sample(sorted(set(replay)), TRANSPORT_SAMPLE)
    bodies = [{"op": op, "pattern": pool.texts[i]} for op, i in transport]
    expected = [pool.expected(reader, key) for key in transport]
    replica = router = None
    try:
        replica = CLIProcess(["serve", str(store), "--port", "0"])
        router = route(replica)
        direct = Client(replica.port)
        routed = Client(router.port)
        # Warm every layer's cache first, so the three passes below time
        # the same cached lookups and differ only by transport.
        for body in bodies:
            direct.request("POST", "/query", body)
        _timed_queries(
            spans, "serving.inprocess",
            lambda key: reader.query(key[0], patterns[key[1]].graph),
            transport,
        )
        answers_direct = _timed_queries(
            spans, "serving.direct",
            lambda body: direct.request("POST", "/query", body), bodies,
        )
        answers_routed = _timed_queries(
            spans, "serving.routed",
            lambda body: routed.request("POST", "/query", body), bodies,
        )
        attempted += 3 * TRANSPORT_SAMPLE
        for label, answers in (
            ("direct", answers_direct), ("routed", answers_routed)
        ):
            wrong = sum(
                1
                for (status, payload), want in zip(answers, expected)
                if status != 200 or payload["value"] != want
            )
            if wrong:
                problems.append(
                    f"{wrong} {label} answers differ from in-process"
                )
        replica_metrics = direct.request("GET", "/metrics")[1]
        router_metrics = routed.request("GET", "/metrics")[1]
        direct.close()
        routed.close()
        exits = (router.stop(), replica.stop())
        router = replica = None
        if exits != (0, 0):
            problems.append(f"serving processes exited {exits}")
    finally:
        for process in (router, replica):
            if process is not None:
                process.stop()
    inprocess_ms = _median_ms(spans, "serving.inprocess")
    direct_ms = _median_ms(spans, "serving.direct")
    routed_ms = _median_ms(spans, "serving.routed")
    values["front.overhead_ms"] = direct_ms - inprocess_ms
    values["router.overhead_ms"] = routed_ms - direct_ms
    values["admission.shed"] = replica_metrics.get("counters", {}).get(
        "admission.shed", 0
    )
    values["router.retries"] = router_metrics.get("counters", {}).get(
        "replication.router_retries", 0
    )

    # -- ingest path, in-process ---------------------------------------------
    wal_metrics = MetricsRegistry()
    wal = WriteAheadLog(work / "wal", metrics=wal_metrics)
    applier = StreamApplier(store, wal)
    size = len(database)
    lag_max = 0
    probe = patterns[0].graph
    try:
        for _ in range(INGEST_BATCHES):
            for _ in range(RECORDS_PER_BATCH):
                added = database[rng.randrange(size)]
                delta = DatabaseDelta(
                    add_text=graph_text(added, database),
                    remove_ids=(size - 1,),
                )
                with spans.span("wal.append"):
                    last_seq = wal.append(delta)
            lag_max = max(lag_max, applier.lag)
            with spans.span("applier.batch"):
                applier.apply_next_batch()
            with spans.span("reader.refresh"):
                reader.refresh()
            with spans.span("reader.after_refresh"):
                reader.support(probe)
        attempted += INGEST_BATCHES * (RECORDS_PER_BATCH + 2)
        if applier.applied_seq != last_seq:
            problems.append(
                f"applier stopped at seq {applier.applied_seq}, "
                f"journal at {last_seq}"
            )
    finally:
        wal.close()
    wal_counters = wal_metrics.as_dict()["counters"]
    applied = applier.metrics.as_dict()["counters"]
    batches = applied.get("streaming.batches_applied", 0)
    values["wal.append_ms"] = _median_ms(spans, "wal.append")
    values["wal.bytes_per_record"] = (
        wal_counters["streaming.wal_bytes"]
        / wal_counters["streaming.wal_appends"]
    )
    values["applier.batch_s"] = median(spans.samples("applier.batch"))
    values["applier.records_per_batch"] = (
        applied.get("streaming.records_applied", 0) / max(1, batches)
    )
    values["applier.lag_max"] = lag_max
    values["reader.refresh_s"] = median(spans.samples("reader.refresh"))
    values["updater.classes_per_batch"] = (
        applied.get("mine.pattern_classes", 0) / max(1, batches)
    )
    values["updater.bitset_intersections_per_batch"] = (
        applied.get("specialize.bitset_intersections", 0) / max(1, batches)
    )
    values["updater.embeddings_replayed"] = applied.get(
        "incremental.embeddings_replayed", 0
    )
    values["incremental.fallbacks"] = applied.get("incremental.fallbacks", 0)
    if batches != INGEST_BATCHES:
        problems.append(
            f"{batches} batches applied, expected {INGEST_BATCHES}"
        )

    kernel = kernel_delta(snapshot)
    for name in ("intersections", "jaccards", "blocks_visited"):
        values[f"bitset.{name}"] = kernel.get(f"bitset.{name}", 0)

    lines = [
        f"{name}: {values[name]:.6g} {unit}"
        for name, (unit, _) in PER_LAYER.items()
    ]
    lines.append(
        f"serving transport (same {TRANSPORT_SAMPLE} cached lookups): "
        f"in-process {inprocess_ms:.4g} ms, direct HTTP {direct_ms:.4g} ms, "
        f"routed {routed_ms:.4g} ms (medians)"
    )
    lines.append("check: " + ("; ".join(problems) or "ok"))
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=len(problems),
        metrics={
            name: metric(values[name], unit)
            for name, (unit, _) in PER_LAYER.items()
        },
        lines=lines,
    )
