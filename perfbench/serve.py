"""``serve`` workload: read-only routed query traffic.

The D5000 analog is mined at sigma 0.2 into a pattern store, served by
one ``taxogram serve`` replica behind one ``taxogram route`` router.
The client drives two independent streams, each on its own thread and
keep-alive connection:

* lookups — ``support``/``graphs``/``contains`` in equal shares on
  patterns drawn Zipf-skewed from all 1356 mined patterns, 4068
  (op, pattern) keys against the reader's 1024-entry result cache, so
  misses do real work;
* analysis — ``specializations`` sweeping one structure per class (each
  with a fresh ``min_support``, so never a cache hit), plus ``top`` and
  a small share of ``similar``.

Two streams rather than one shared queue, so a slow ``similar`` delays
lookups only through the server, never through the client's own
connections.  The first 40% of ``--seconds`` runs both streams open-loop
over a ladder of fixed rates, every request timed from its due time;
that gives the latency at each rate and ``query_max_rps``.  The rest
gives the gated metrics: measured blocks sent one request at a time on
one connection, each block a ``specializations`` sweep over every class
and three lookups per class, in seeded order.  ``primary_gmean_ms`` is
a routed lookup, ``secondary_gmean_ms`` a routed ``specializations``
(each the median over blocks of the block's geometric mean),
``peak_rss_mb`` the replica's VmHWM, ``setup_s`` dataset + store build
+ both processes ready + warm-up.  (Open-loop latencies at low rates
follow the hypervisor's wake-up delays more than the program, and two
concurrent closed-loop streams made each stream's latency depend on
how the scheduler interleaved them: both vary too much between runs to
gate on.)
"""

from __future__ import annotations

import json
import random
import time

from perfbench.common import (
    CLIProcess,
    Client,
    Result,
    Timing,
    arrivals,
    end_to_end,
    exact_mix,
    median,
    one_cpu,
    pattern_text,
    run_in_turn,
    run_open_loop,
    settle,
    tail,
    tree_bytes,
    workdir,
    zipf_sampler,
)
from perfbench.datasets import undirected_dataset
from repro import StoreReader, Taxogram, TaxogramOptions
from repro.graphs.io import serialize_graph_database
from repro.serving.endpoints import value_payload

STORE_SUPPORT = 0.2
MAX_EDGES = 3
LOOKUP_OPS = ("support", "graphs", "contains")
# The traffic shape below (Zipf exponent, the 3:1 lookup/analysis split,
# the analysis mix and the reference rate) is an assumption, not taken
# from measured traffic; perfbench/README.md lists each with its basis.
ZIPF_EXPONENT = 1.0
POPULARITY_SEED = 0  # fixes which patterns are popular, for every --seed
# Each rung's total rate splits 3:1 between the lookup and analysis streams.
LOOKUP_SHARE = 0.75
# Stream mixes: kind -> share (the first kind fills the rest).
LOOKUP_MIX = {op: 1.0 / len(LOOKUP_OPS) for op in LOOKUP_OPS}
ANALYSIS_MIX = {"specializations": 0.93, "top": 0.05, "similar": 0.02}
SPECIALIZATIONS_SUPPORT = (STORE_SUPPORT, 1.5 * STORE_SUPPORT)
SIMILAR_THRESHOLD = 0.9
TOP_K = (5, 10, 20)
REFERENCE_RATE = 20.0  # requests per second, both streams together
LADDER = (REFERENCE_RATE, 60.0, 100.0, 140.0)
LADDER_SHARE = 0.4  # share of --seconds on the ladder; the rest is measured
LOOKUPS_PER_STRUCTURE = 3  # per measured block, so lookups:analysis is 3:1
REFERENCE_SHARE = 0.4  # share of the ladder's time at the reference rate
TAIL_LIMIT_MS = 100.0  # latency limit on each rung's lookup tail
LATE_LIMIT_MS = 20.0  # generator lateness that counts as a growing backlog
REQUEST_TIMEOUT_S = 30.0


def name_key(pattern, database) -> tuple:
    """A pattern's identity by label names, the same in every isomorphic
    copy of the dataset (label ids and node order are not)."""
    graph = pattern.graph
    name = database.node_labels.name_of
    edges = sorted(
        (*sorted((name(graph.node_label(u)), name(graph.node_label(v)))),
         database.edge_labels.name_of(label))
        for u, v, label in graph.edges()
    )
    nodes = sorted(name(graph.node_label(v)) for v in graph.nodes())
    return (pattern.support_count, graph.num_edges, tuple(nodes), tuple(edges))


class Pool:
    """Every request the workload can send, keyed for answer checking.

    Which patterns are popular is a property of the workload, not of the
    seed: the Zipf ranking and the ``specializations`` and ``similar``
    sweeps follow one fixed order of the patterns by label names, and
    each rung sends exact counts of each kind and lookup op.  The seed
    picks the arrival times, the Zipf draws and how kinds interleave.
    (With seeded rankings and random kind draws the reference p50 moved
    by 2x between seeds: a few classes cost 50-100 ms to specialize,
    ``graphs`` answers are large, and what a run happened to draw
    decided the median.)
    """

    def __init__(self, patterns, database, rng: random.Random) -> None:
        self.texts = [
            pattern_text(p.graph, database.node_labels, database.edge_labels)
            for p in patterns
        ]
        self.graphs = [p.graph for p in patterns]
        self.order = sorted(
            range(len(patterns)), key=lambda i: name_key(patterns[i], database)
        )
        random.Random(POPULARITY_SEED).shuffle(self.order)
        self.draw = zipf_sampler(len(self.order), ZIPF_EXPONENT, rng)
        # One structure per class: its most general (highest-support)
        # member, swept cyclically so every run asks about every class.
        best: dict[int, int] = {}
        for i in self.order:
            j = best.get(patterns[i].class_id)
            support = patterns[i].support_count
            if j is None or support > patterns[j].support_count:
                best[patterns[i].class_id] = i
        self.structures = [
            i for i in self.order if best.get(patterns[i].class_id) == i
        ]
        self._sweeps = {"specializations": 0, "similar": 0}
        self.rng = rng

    def hot_lookups(self, count: int) -> list[tuple[str, int]]:
        """The ``count`` most popular lookup keys."""
        keys = [(op, i) for i in self.order for op in LOOKUP_OPS]
        return keys[:count]

    def _sweep(self, name: str, items: list[int]) -> int:
        position = self._sweeps[name]
        self._sweeps[name] = position + 1
        return items[position % len(items)]

    def request(self, kind: str):
        """``(kind, key, (method, path, body))`` for one ``kind`` request."""
        if kind in LOOKUP_OPS:
            index = self.order[self.draw()]
            return "lookup", (kind, index), (
                "POST", "/query", {"op": kind, "pattern": self.texts[index]}
            )
        if kind == "specializations":
            index = self._sweep(kind, self.structures)
            # A fresh threshold per request keeps these out of the cache.
            threshold = round(self.rng.uniform(*SPECIALIZATIONS_SUPPORT), 3)
            return kind, (kind, index, threshold), ("POST", "/query", {
                "op": kind, "pattern": self.texts[index],
                "min_support": threshold,
            })
        if kind == "similar":
            index = self._sweep(kind, self.order)
            return kind, (kind, index), (
                "POST", "/similar",
                {"pattern": self.texts[index], "threshold": SIMILAR_THRESHOLD},
            )
        k = self.rng.choice(TOP_K)
        return kind, ("top_k", k), ("GET", f"/top?k={k}", None)

    def schedules(self, rate: float, seconds: float):
        """The lookup and analysis schedules of one rung."""
        out = []
        for share, mix in (
            (LOOKUP_SHARE, LOOKUP_MIX),
            (1.0 - LOOKUP_SHARE, ANALYSIS_MIX),
        ):
            count = max(1, round(rate * share * seconds))
            kinds = exact_mix(count, mix, self.rng)
            out.append([
                (at, *self.request(kind))
                for at, kind in zip(arrivals(count, seconds, self.rng), kinds)
            ])
        return out

    def block(self) -> list:
        """One measured block: a ``specializations`` sweep over every
        class structure and ``LOOKUPS_PER_STRUCTURE`` lookups per
        structure, in seeded order."""
        count = len(self.structures)
        kinds = exact_mix(LOOKUPS_PER_STRUCTURE * count, LOOKUP_MIX, self.rng)
        kinds += ["specializations"] * count
        self.rng.shuffle(kinds)
        return [self.request(kind) for kind in kinds]

    def expected(self, reader: StoreReader, key):
        """The in-process reader's answer, rendered as the HTTP value."""
        op, arg = key[:2]
        if op == "top_k":
            value = reader.query("top_k", k=arg).value
        elif op == "similar":
            value = reader.similar_patterns(
                self.graphs[arg], threshold=SIMILAR_THRESHOLD
            )
        elif op == "specializations":
            value = reader.query(
                op, self.graphs[arg], min_support=key[2]
            ).value
        else:
            value = reader.query(op, self.graphs[arg]).value
        return json.loads(json.dumps(value_payload(reader, op, value)))


def build_store(seed: int, directory):
    """Dataset + store build; returns (database, mining result, store path)."""
    database, taxonomy = undirected_dataset(seed)
    store = directory / "store"
    options = TaxogramOptions(
        min_support=STORE_SUPPORT, max_edges=MAX_EDGES, store_out=str(store)
    )
    return database, Taxogram(options).mine(database, taxonomy), store


def route(replica: CLIProcess) -> CLIProcess:
    """A ``taxogram route`` router in front of one replica."""
    url = f"http://127.0.0.1:{replica.port}"
    return CLIProcess(["route", "--replica", url, "--port", "0"])


def check_answers(outcomes, pool: Pool, store) -> int:
    """Compare every successful answer with the in-process reader's;
    returns the number of wrong answers."""
    reader = StoreReader(store)
    expected: dict = {}
    wrong = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        if outcome.key not in expected:
            expected[outcome.key] = pool.expected(reader, outcome.key)
        if outcome.value.get("value") != expected[outcome.key]:
            wrong += 1
    return wrong


def describe_rung(rate, length, lookups, analysis) -> tuple[bool, str]:
    """Whether a rung meets the latency limit without a growing backlog."""
    latencies = [o.latency * 1000.0 if o.ok else float("inf") for o in lookups]
    label, value = tail(latencies)
    late = 0.0
    for outcomes in (lookups, analysis):
        last_quarter = outcomes[3 * len(outcomes) // 4:]
        late = max(late, median([o.late * 1000.0 for o in last_quarter]))
    late_max = max(o.late * 1000.0 for o in lookups + analysis)
    met = value <= TAIL_LIMIT_MS and late <= LATE_LIMIT_MS
    return met, (
        f"rung {rate:g} req/s for {length:.3g} s: lookup p50 "
        f"{median(latencies):.4g} ms, {label} {value:.4g} ms "
        f"(n={len(lookups)}, +{len(analysis)} analysis); generator late p50 "
        f"in last quarter {late:.3g} ms, max {late_max:.4g} ms; "
        f"{'meets' if met else 'misses'} the {TAIL_LIMIT_MS:g} ms limit"
    )


def run(seed: int, seconds: float) -> Result:
    with one_cpu():
        return _run(seed, seconds)


def _run(seed: int, seconds: float) -> Result:
    work = workdir("serve")
    rng = random.Random(seed)
    replica = router = None
    try:
        start = time.perf_counter()
        database, result, store = build_store(seed, work)
        replica = CLIProcess(["serve", str(store), "--port", "0"])
        router = route(replica)
        pool = Pool(result.patterns, database, rng)
        warm = Client(router.port)
        warm_ok = warm.request("GET", "/top?k=10")[0] == 200
        warm_ok &= warm.request(
            "POST", "/similar",
            {"pattern": pool.texts[0], "threshold": SIMILAR_THRESHOLD},
        )[0] == 200
        # Load every class's occurrence rows once, as a server that has
        # been up for a while would have.
        for index in pool.structures:
            body = {"op": "support", "pattern": pool.texts[index]}
            warm_ok &= warm.request("POST", "/query", body)[0] == 200
        warm.close()
        setup_s = time.perf_counter() - start
        settle()

        clients = (Client(router.port), Client(router.port))
        rungs = []
        ladder_s = seconds * LADDER_SHARE
        rest = ladder_s * (1.0 - REFERENCE_SHARE) / (len(LADDER) - 1)
        for i, rate in enumerate(LADDER):
            length = ladder_s * REFERENCE_SHARE if i == 0 else rest
            streams = list(zip(clients, pool.schedules(rate, length)))
            begin = time.perf_counter() + 0.05
            outcomes = run_open_loop(streams, begin, REQUEST_TIMEOUT_S)
            rungs.append((rate, length, *outcomes))
        # Measured blocks, one request at a time on one connection, until
        # the rest of --seconds has passed (at least one block).
        blocks = []
        measured_start = time.perf_counter()
        deadline = measured_start + seconds - ladder_s
        while not blocks or time.perf_counter() < deadline:
            blocks.append(run_in_turn(clients[0], pool.block()))
        measured_s = time.perf_counter() - measured_start
        for client in clients:
            client.close()
        peak = replica.peak_rss_mb()
        router_rss = router.peak_rss_mb()
        exits = (router.stop(), replica.stop())
        router = replica = None

        every = [o for rung in rungs for o in rung[2] + rung[3]]
        every += [o for block in blocks for o in block]
        wrong = check_answers(every, pool, store)
        store_bytes = tree_bytes(store)
        text_bytes = len(serialize_graph_database(database).encode("utf-8"))
    finally:
        for process in (router, replica):
            if process is not None:
                process.stop()

    def timing(name: str, kind: str, outcomes) -> Timing:
        samples = Timing(name)
        for outcome in outcomes:
            if outcome.ok and outcome.kind == kind:
                samples.add(outcome.latency)
        return samples

    _, _, reference_lookups, reference_analysis = rungs[0]
    lookup = timing("lookup_ms", "lookup", reference_lookups)
    specializations = timing(
        "specializations_ms", "specializations", reference_analysis
    )
    measured_lookup = timing(
        "lookup_ms", "lookup", [o for b in blocks for o in b]
    )
    measured_specializations = timing(
        "specializations_ms", "specializations", [o for b in blocks for o in b]
    )
    # The gated figures: the median over blocks of each block's
    # geometric mean, so a burst of host load costs one block at most.
    block_lookup = [timing("", "lookup", b).gmean_ms() for b in blocks]
    block_specializations = [
        timing("", "specializations", b).gmean_ms() for b in blocks
    ]
    similar = Timing("similar_ms")
    for outcome in every:
        if outcome.ok and outcome.kind == "similar":
            similar.add(outcome.latency)

    lines = [
        f"setup_s: {setup_s:.4g} s "
        "(dataset + store + replica + router + warm-up)"
    ]
    max_rps = 0.0
    for rate, length, lookups, analysis in rungs:
        met, line = describe_rung(rate, length, lookups, analysis)
        if met:
            max_rps = max(max_rps, rate)
        lines.append(line)
    failed = sum(1 for o in every if not o.ok)
    lines += [
        "lookup_p50_ms and tail at the reference rate: " + lookup.describe(),
        "specializations_p50_ms and tail at the reference rate: "
        + specializations.describe(),
        f"measured: {len(blocks)} blocks in {measured_s:.3g} s, one "
        "request at a time: " + measured_lookup.describe() + "; "
        + measured_specializations.describe(),
        "per-block geometric means (ms), lookup "
        + " ".join(f"{v:.4g}" for v in block_lookup)
        + "; specializations "
        + " ".join(f"{v:.4g}" for v in block_specializations),
        "similar_p50_ms over all rungs: " + similar.describe(),
        f"query_max_rps: {max_rps:g} req/s (highest rung whose lookup tail "
        f"meets {TAIL_LIMIT_MS:g} ms with generator lateness under "
        f"{LATE_LIMIT_MS:g} ms)",
        f"peak_rss_mb: {peak:.4g} MB replica VmHWM "
        f"(router {router_rss:.4g} MB)",
        f"store_bytes_ratio: {store_bytes / text_bytes:.4g} "
        f"({store_bytes} store bytes / {text_bytes} graph-db text bytes)",
        f"check: {wrong} answers differ from the in-process reader; "
        f"warm-up ok {warm_ok}; exit codes {exits}",
        f"failed_share: {failed / len(every):.4g} ({failed}/{len(every)})",
    ]
    return Result(
        correct=wrong == 0 and warm_ok and exits == (0, 0),
        attempted=len(every),
        failed=failed + wrong,
        metrics=end_to_end(
            setup_s, median(block_lookup), median(block_specializations), peak
        ),
        lines=lines,
    )
