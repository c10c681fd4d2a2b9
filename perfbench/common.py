"""Shared benchmark machinery: statistics, spans, HTTP, processes, load.

Everything here lives on the benchmark side.  The program under test is
reached only through its public Python API, its ``taxogram`` CLI
processes (``python -m repro ...``) and their HTTP endpoints.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# This process's scratch space for stores, WALs and temporary files;
# removed when the run ends.
WORK = ROOT / ".perfbench_work" / str(os.getpid())


@dataclass
class Result:
    """What one workload run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list[str] = field(default_factory=list)


def settle() -> None:
    """Collect and freeze the set-up garbage, so the client's own
    collector does not pause the timed window scanning it."""
    gc.collect()
    gc.freeze()


@contextmanager
def one_cpu():
    """Run this process, and the processes it starts, on one CPU.

    On a small VM a request that hops between vCPUs waits for the
    hypervisor to wake the other vCPU: with the client, router and
    replica spread over two vCPUs, routed lookups took twice as long and
    varied by +-30% from run to run, following host load rather than the
    program.  On one CPU the hops are plain context switches.
    """
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``; with fewer than eleven samples no
    percentile qualifies and the maximum is reported as ``"max"``.
    """
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0:
            return f"p{level:g}", percentile(values, level)
    return "max", max(values)


def gmean(values) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Timing:
    """A named set of durations (seconds), reported in ``unit``."""

    SCALE = {"s": 1.0, "ms": 1000.0}

    def __init__(self, name: str, unit: str = "ms") -> None:
        self.name = name
        self.unit = unit
        self.seconds: list[float] = []

    def add(self, seconds: float) -> None:
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.seconds)

    def gmean_ms(self) -> float:
        return gmean(self.seconds) * 1000.0

    def describe(self) -> str:
        """Median, named tail, geometric mean and sample count."""
        if not self.seconds:
            return f"{self.name}: no samples"
        scale = self.SCALE[self.unit]
        label, value = tail(self.seconds)
        return (
            f"{self.name}: p50 {median(self.seconds) * scale:.4g} "
            f"{self.unit}, {label} {value * scale:.4g} {self.unit}, "
            f"geometric mean {gmean(self.seconds) * scale:.4g} {self.unit} "
            f"(n={len(self.seconds)})"
        )


def end_to_end(
    setup_s: float, primary_ms: float, secondary_ms: float, peak_mb: float
) -> dict:
    """The gated metrics every workload reports (see BENCHMARK.json)."""
    return {
        "setup_s": metric(setup_s, "s"),
        "primary_gmean_ms": metric(primary_ms, "ms"),
        "secondary_gmean_ms": metric(secondary_ms, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


# -- benchmark-side spans -----------------------------------------------------


class SpanLog:
    """Spans recorded around calls into the program's layers.

    Each span keeps its name, start and end, in memory until the run
    ends.  Nesting inside the program comes from its own tracer (see
    :func:`tree_self_seconds`); the benchmark's spans are one per call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def samples(self, name: str) -> list[float]:
        return [end - start for n, start, end in self.spans if n == name]

    def wall(self, name: str) -> float:
        return sum(self.samples(name))


def _tree_nodes(record: dict, name: str):
    """Every node called ``name`` in a ``RunReport`` span tree."""
    stack = [record]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            yield node
        stack.extend(node["children"].values())


def tree_wall(record: dict, name: str) -> float:
    return sum(node["wall_seconds"] for node in _tree_nodes(record, name))


def tree_self_seconds(record: dict, name: str, minus: str) -> float:
    """Wall time of span ``name`` minus its ``minus`` children."""
    return sum(
        node["wall_seconds"]
        - sum(
            child["wall_seconds"]
            for child in node["children"].values()
            if child["name"] == minus
        )
        for node in _tree_nodes(record, name)
    )


# -- inputs -------------------------------------------------------------------


def zipf_sampler(n: int, s: float, rng: random.Random):
    """Draw ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s."""
    cumulative = list(
        itertools.accumulate(1.0 / (k + 1) ** s for k in range(n))
    )
    population = range(n)

    def draw() -> int:
        return rng.choices(population, cum_weights=cumulative)[0]

    return draw


def pattern_text(graph, node_labels, edge_labels) -> str:
    """One pattern as graph-db text with label names."""
    lines = ["t # 0"]
    for v in graph.nodes():
        lines.append(f"v {v} {node_labels.name_of(graph.node_label(v))}")
    for u, v, label in graph.edges():
        lines.append(f"e {u} {v} {edge_labels.name_of(label)}")
    return "\n".join(lines) + "\n"


def tree_bytes(path: Path) -> int:
    return sum(
        (Path(d) / f).stat().st_size
        for d, _, files in os.walk(path)
        for f in files
    )


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- HTTP ---------------------------------------------------------------------


class Client:
    """One keep-alive HTTP/1.1 connection to a server."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, doc=None) -> tuple[int, object]:
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                payload = response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                # The server closed an idle keep-alive connection; a
                # fresh connection is not a retry of a failed request.
                self.close()
                if attempt:
                    raise
                continue
            if response.getheader("Connection", "").lower() == "close":
                self.close()
            try:
                return response.status, json.loads(payload)
            except ValueError:
                return response.status, payload.decode("utf-8", "replace")
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- processes ----------------------------------------------------------------

_URL = re.compile(r"http://127\.0\.0\.1:(\d+)")


class CLIProcess:
    """A long-running ``taxogram`` CLI process (``python -m repro``)."""

    def __init__(self, args: list[str], ready_timeout: float = 120.0) -> None:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.args = args
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        self.port = self._await_port(ready_timeout)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip("\n"))
            match = _URL.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError(
            f"taxogram {' '.join(self.args)} did not start:\n"
            + "\n".join(self.lines[-20:])
        )

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for exit (SIGKILL after ``timeout``); exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_reader", None) is not None:
            self._reader.join(10.0)
        return self.proc.returncode


# -- load generation ----------------------------------------------------------


class Outcome:
    __slots__ = ("kind", "key", "due", "sent", "done", "status", "value")

    def __init__(self, kind, key, due, sent, done, status, value) -> None:
        self.kind = kind
        self.key = key
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.value = value

    @property
    def latency(self) -> float:
        """Seconds from when the request was *due*, not when it was sent."""
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


def arrivals(count: int, seconds: float, rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson process conditioned on ``count``
    arrivals in ``seconds``: sorted uniform draws."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def exact_mix(count: int, shares: dict, rng: random.Random) -> list:
    """``count`` kinds with ``round(count * share)`` of each non-first
    kind and the first kind filling the rest, in seeded order."""
    first, *rest = shares
    kinds = [kind for kind in rest for _ in range(round(count * shares[kind]))]
    kinds += [first] * (count - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _send(client, kind, key, due: float, request) -> Outcome:
    """Send one request now and record it, timed from ``due``."""
    sent = time.perf_counter()
    try:
        status, value = client.request(*request)
    except (OSError, http.client.HTTPException) as exc:
        status, value = None, repr(exc)
    return Outcome(kind, key, due, sent, time.perf_counter(), status, value)


def run_open_loop(
    streams, start: float, timeout: float
) -> list[list[Outcome]]:
    """Send each stream's schedule open-loop on its own connection.

    ``streams`` is a list of ``(client, schedule)``; a schedule is a
    sorted list of ``(offset, kind, key, (method, path, body))``.  Each
    stream runs on its own thread and sends its requests in order, each
    at ``start + offset``; every request is timed from that due time, so
    a stall shows up in every request queued behind it.  Requests still
    unsent ``timeout`` seconds after they were due are recorded as timed
    out (status ``None``) without being sent.  Returns the outcomes per
    stream.
    """

    def work(stream, outcomes: list[Outcome]) -> None:
        client, schedule = stream
        for offset, kind, key, request in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            now = time.perf_counter()
            if now - due > timeout:
                outcomes.append(Outcome(kind, key, due, now, now, None, None))
            else:
                outcomes.append(_send(client, kind, key, due, request))

    # The calling thread takes the last stream.
    outcomes: list[list[Outcome]] = [[] for _ in streams]
    threads = [
        threading.Thread(
            target=work, args=(streams[i], outcomes[i]), name=f"client-{i}"
        )
        for i in range(len(streams) - 1)
    ]
    for thread in threads:
        thread.start()
    work(streams[-1], outcomes[-1])
    for thread in threads:
        thread.join()
    return outcomes


def run_in_turn(client, requests) -> list[Outcome]:
    """Send ``requests``, each ``(kind, key, (method, path, body))``, one
    at a time: each as soon as the previous answer arrives, timed from
    when it was sent."""
    return [
        _send(client, kind, key, time.perf_counter(), request)
        for kind, key, request in requests
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
