"""``ingest`` workload: writes beside reads on one live ingest process.

The sigma-0.2 store of the ``serve`` workload is served by one
``taxogram ingest --wal DIR --serve`` process.  A writer thread sends
single-graph adds at a fixed rate, evenly spaced, each also removing the
graph the previous write added, so the database size stays steady;
writes are acknowledged from the journal.  Between writes it polls
``GET /lag`` to see when each acknowledged write became visible (its
batch committed).  A reader thread sends open-loop Poisson reads over a
hot set that fits in the reader's cache, with a small share of ``top``,
so every new store version pays its reader refresh and first ``top``.

End-to-end metrics (geometric means): ``primary_gmean_ms`` is
ingest-to-visible latency (from the write's due time to the first
``/lag`` poll showing it applied), ``secondary_gmean_ms`` the write
acknowledgement; ``peak_rss_mb`` is the ingest process's VmHWM and
``setup_s`` dataset + store build + process ready + warm-up.
"""

from __future__ import annotations

import random
import threading
import time

from perfbench.common import (
    CLIProcess,
    Client,
    Result,
    Timing,
    arrivals,
    end_to_end,
    exact_mix,
    one_cpu,
    run_open_loop,
    settle,
    tree_bytes,
    workdir,
)
from perfbench.serve import MAX_EDGES, STORE_SUPPORT, Pool, build_store
from repro import (
    GraphDatabase,
    PatternStore,
    StoreReader,
    Taxogram,
    TaxogramOptions,
)
from repro.graphs.io import parse_graph_database, serialize_graph_database

WRITE_RATE = 5.0  # writes per second, evenly spaced
# The read rate is an assumption; a 5% top share puts a top on every new
# store version soon after it appears (see perfbench/README.md).
READ_RATE = 20.0  # reads per second, Poisson
TOP_SHARE = 0.05
HOT_KEYS = 200  # the most popular serve lookups; the cache holds 1024
LAG_POLL_S = 0.1
DRAIN_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 30.0


def graph_text(graph, database) -> str:
    single = GraphDatabase(
        node_labels=database.node_labels, edge_labels=database.edge_labels
    )
    single.add_graph(graph.copy())
    return serialize_graph_database(single)


class Writer(threading.Thread):
    """Sends the writes on time and watches ``/lag`` for visibility."""

    def __init__(self, port: int, writes: list[dict], start_at: float) -> None:
        super().__init__(name="writer")
        self.client = Client(port)
        self.writes = writes
        self.start_at = start_at
        self.due: dict[int, float] = {}  # seq -> due time
        self.ack: dict[int, float] = {}  # seq -> ack latency (s)
        self.visible: dict[int, float] = {}  # seq -> due-to-visible (s)
        self.failed = 0
        self.lag_max = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # reported by the workload
            self.error = exc

    def _run(self) -> None:
        client = self.client
        interval = 1.0 / WRITE_RATE
        sent = 0
        deadline = None
        while True:
            now = time.perf_counter()
            if sent < len(self.writes):
                due = self.start_at + sent * interval
                if now >= due:
                    status, payload = client.request(
                        "POST", "/ingest", self.writes[sent]
                    )
                    sent += 1
                    if status == 202:
                        seq = payload["seq"]
                        self.due[seq] = due
                        self.ack[seq] = time.perf_counter() - due
                    else:
                        self.failed += 1
                    continue
            elif deadline is None:
                deadline = now + DRAIN_TIMEOUT_S
            elif len(self.visible) == len(self.due) or now > deadline:
                return
            status, lag = client.request("GET", "/lag")
            seen = time.perf_counter()
            if status == 200:
                self.lag_max = max(self.lag_max, lag["lag"])
                for seq, due in self.due.items():
                    if seq <= lag["applied_seq"] and seq not in self.visible:
                        self.visible[seq] = seen - due
            time.sleep(LAG_POLL_S)


def check_final_state(store, expected_text: str) -> list[str]:
    """The applied database must be the expected one, and the store's
    supports must equal a fresh in-process mine of it."""
    problems = []
    snapshot = PatternStore.open(store)
    if serialize_graph_database(snapshot.database) != expected_text:
        problems.append("final database differs from the writes sent")
    fresh = Taxogram(
        TaxogramOptions(min_support=STORE_SUPPORT, max_edges=MAX_EDGES)
    ).mine(snapshot.database, snapshot.taxonomy)
    reader = StoreReader(store)
    if reader.num_classes != fresh.counters.pattern_classes:
        problems.append(
            f"{reader.num_classes} stored classes, fresh mine has "
            f"{fresh.counters.pattern_classes}"
        )
    wrong = sum(
        1
        for p in fresh.patterns
        if reader.support(p.graph) != p.support_count
        or not reader.contains(p.graph)
    )
    if wrong:
        problems.append(f"{wrong}/{len(fresh.patterns)} supports differ")
    return problems


def run(seed: int, seconds: float) -> Result:
    with one_cpu():
        return _run(seed, seconds)


def _run(seed: int, seconds: float) -> Result:
    work = workdir("ingest")
    rng = random.Random(seed)
    server = None
    try:
        start = time.perf_counter()
        database, result, store = build_store(seed, work)
        wal = work / "wal"
        server = CLIProcess(
            ["ingest", str(store), "--wal", str(wal), "--serve", "--port", "0"]
        )
        pool = Pool(result.patterns, database, rng)
        texts = pool.texts
        hot = pool.hot_lookups(HOT_KEYS)
        warm = Client(server.port)
        warm_ok = warm.request("GET", "/top?k=10")[0] == 200
        for op, index in hot:
            warm_ok &= warm.request(
                "POST", "/query", {"op": op, "pattern": texts[index]}
            )[0] == 200
        warm.close()
        setup_s = time.perf_counter() - start
        settle()

        size = len(database)
        added = [
            graph_text(database[rng.randrange(size)], database)
            for _ in range(max(1, round(seconds * WRITE_RATE)))
        ]
        writes = [{"add": text, "remove": [size - 1]} for text in added]
        count = max(1, round(READ_RATE * seconds))
        kinds = exact_mix(
            count, {"lookup": 1.0 - TOP_SHARE, "top": TOP_SHARE}, rng
        )
        reads = []
        for at, kind in zip(arrivals(count, seconds, rng), kinds):
            if kind == "top":
                reads.append((at, kind, None, ("GET", "/top?k=10", None)))
            else:
                op, index = hot[rng.randrange(HOT_KEYS)]
                reads.append((at, kind, None, (
                    "POST", "/query", {"op": op, "pattern": texts[index]}
                )))
        reader_client = Client(server.port)
        begin = time.perf_counter() + 0.1
        writer = Writer(server.port, writes, begin)
        writer.start()
        (outcomes,) = run_open_loop(
            [(reader_client, reads)], begin, REQUEST_TIMEOUT_S
        )
        writer.join()
        reader_client.close()
        flush_status, flushed = writer.client.request("POST", "/flush")
        _, server_metrics = writer.client.request("GET", "/metrics")
        writer.client.close()
        footprint = tree_bytes(store) + tree_bytes(wal)
        peak = server.peak_rss_mb()
        exit_code = server.stop()
        server = None
        problems = [] if warm_ok else ["warm-up requests failed"]
        if writer.error is not None:
            problems.append(f"writer failed: {writer.error!r}")
        last_acked = max(writer.due, default=-1)
        if flush_status != 200 or flushed["applied_seq"] < last_acked:
            problems.append(
                f"flush did not cover every acked write: {flushed}"
            )
        if len(writer.visible) != len(writer.due):
            problems.append(
                f"{len(writer.due) - len(writer.visible)} acked writes never "
                "became visible"
            )
        if exit_code != 0:
            problems.append(f"ingest process exited {exit_code}")
        expected = GraphDatabase(
            node_labels=database.node_labels, edge_labels=database.edge_labels
        )
        for gid in range(size - 1):
            expected.add_graph(database[gid].copy())
        last = parse_graph_database(
            added[-1], database.node_labels, database.edge_labels
        )
        expected.add_graph(last[0])
        problems += check_final_state(
            store, serialize_graph_database(expected)
        )
        text_bytes = len(serialize_graph_database(database).encode("utf-8"))
    finally:
        if server is not None:
            server.stop()

    visible = Timing("ingest_visible_s", "s")
    for value in writer.visible.values():
        visible.add(value)
    ack = Timing("ingest_ack_ms")
    for value in writer.ack.values():
        ack.add(value)
    reads_ms = Timing("lookup_ms")
    tops = Timing("top_ms")
    for outcome in outcomes:
        if outcome.ok:
            timing = reads_ms if outcome.kind == "lookup" else tops
            timing.add(outcome.latency)
    counters = server_metrics.get("counters", {})
    hits = counters.get("serving.cache_hits", 0)
    misses = counters.get("serving.cache_misses", 0)
    read_failures = sum(1 for o in outcomes if not o.ok)
    lost = len(writer.due) - len(writer.visible)
    attempted = len(writes) + len(outcomes)
    failed = writer.failed + lost + read_failures
    lines = [
        f"setup_s: {setup_s:.4g} s "
        "(dataset + store + ingest process + warm-up)",
        visible.describe(),
        ack.describe(),
        "reads under churn: " + reads_ms.describe(),
        "top under churn: " + tops.describe(),
        f"cache hit ratio (server process, warm-up included): "
        f"{hits / max(1, hits + misses):.4g} ({hits}/{hits + misses})",
        f"writes: {len(writes)} at {WRITE_RATE:g}/s, acked {len(writer.due)}, "
        f"largest /lag backlog seen {writer.lag_max}",
        f"peak_rss_mb: {peak:.4g} MB ingest process VmHWM",
        f"store_bytes_ratio: {footprint / text_bytes:.4g} ({footprint} "
        f"store+WAL bytes / {text_bytes} graph-db text bytes)",
        "check: " + ("; ".join(problems) or "ok"),
        f"failed_share: {failed / attempted:.4g} ({failed}/{attempted})",
    ]
    return Result(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=end_to_end(
            setup_s, visible.gmean_ms(), ack.gmean_ms(), peak
        ),
        lines=lines,
    )
