"""Support-kernel and compression benchmarks.

Three measurements, each with a machine-readable point when
``REPRO_BENCH_JSON_DIR`` is set (the CI bench-regression job diffs
these against the previous nightly's artifacts):

* **support_adaptive** — ``OccurrenceStore.support_count`` (the one
  run-carry kernel, which ``OccurrenceColumns`` inherits) against the
  adaptive kernel it replaced, copied here verbatim as the reference,
  on one 4000-graph store: 200 sparse probes (the adaptive kernel walked
  their set bits) and 200 dense ones (it scanned every per-graph mask).
  Every answer must match, and the gate asserts the kernel is >= 3x
  faster on the sparse probes.
* **store_compression** — the fig 4.2-family store, persisted raw and
  zlib-compressed; records both byte totals and asserts compression
  actually saves space.
* **min_code_cache** — min-DFS-code memoization hit rate over a mining
  run (cold caches), asserting the memo genuinely fires.
"""

from __future__ import annotations

import random
import time

from benchmarks._common import (
    MAX_EDGES,
    dataset,
    print_header,
    print_row,
    record_bench_point,
)
from repro.core.occurrence_index import OccurrenceStore
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.mining.dfs_code import (
    canonical_cache_info,
    clear_canonical_caches,
)

SIGMA = 0.2
_GRAPH_SCALE = 0.1  # D5000 analog -> ~500 graphs at default scale
_TAXONOMY_SCALE = 0.01


class _KernelPoint:
    """record_bench_point shim: iteration count + ad-hoc gauges."""

    def __init__(self, iterations: int, gauges: dict) -> None:
        self._iterations = iterations
        self._gauges = gauges

    def __len__(self) -> int:
        return self._iterations

    @property
    def counters(self) -> "_KernelPoint":
        return self

    def as_metrics(self) -> dict:
        return dict(self._gauges)


class _AdaptiveKernel:
    """The adaptive support kernel the run-carry kernel replaced, kept as
    the reference: ``support_count`` below is the old
    ``OccurrenceStore.support_count`` verbatim, over its own per-graph
    masks (built before any timing, as the old store built them while
    occurrences were added)."""

    def __init__(self, store: OccurrenceStore) -> None:
        self.occurrences = list(store.occurrences)
        self._graph_masks: dict[int, int] = {}
        for occ_id, (gid, _nodes) in enumerate(self.occurrences):
            self._graph_masks[gid] = self._graph_masks.get(gid, 0) | (
                1 << occ_id
            )

    @property
    def all_bits(self) -> int:
        return (1 << len(self.occurrences)) - 1

    def support_count(self, bits: int) -> int:
        """Distinct graphs with at least one live occurrence in ``bits``.

        Adaptive kernel: when the candidate set is much smaller than the
        number of graphs, walking its set bits and collecting owning
        graph ids is O(popcount) instead of the O(#graphs) mask scan —
        the dominant cost of the specialize phase on large databases.
        Both strategies return identical counts.
        """
        if bits == 0:
            return 0
        live = self.all_bits
        if bits == live:
            return len(self._graph_masks)
        if bits.bit_count() * 4 < len(self._graph_masks):
            occurrences = self.occurrences
            graphs: set[int] = set()
            # Clamping to the live mask skips tombstoned occurrences (their
            # graphs' masks are gone, so the dense scan skips them too).
            probe = bits & live
            while probe:
                low = probe & -probe
                graphs.add(occurrences[low.bit_length() - 1][0])
                probe ^= low
            return len(graphs)
        return sum(1 for mask in self._graph_masks.values() if mask & bits)


def _timed(kernel, probes: list[int]) -> tuple[list[int], float]:
    start = time.perf_counter()
    answers = [kernel(bits) for bits in probes]
    return answers, time.perf_counter() - start


def test_adaptive_support_kernel():
    rng = random.Random(42)
    n_graphs = 4000
    store = OccurrenceStore()
    for gid in range(n_graphs):
        for _ in range(rng.randint(1, 3)):
            store.add(gid, (0, 1))
    # Sparse candidate sets: the shape the specialize phase produces
    # when a label's occurrence column intersects a small class.
    sparse = []
    for _ in range(200):
        bits = 0
        for _ in range(rng.randint(2, 40)):
            bits |= 1 << rng.randrange(len(store))
        sparse.append(bits)
    # Dense sets (about a quarter of all occurrences): the adaptive
    # kernel answered these with its O(#graphs) mask scan.
    dense = [
        rng.getrandbits(len(store)) & rng.getrandbits(len(store))
        for _ in range(200)
    ]
    assert all(b.bit_count() * 4 >= n_graphs for b in dense)
    adaptive = _AdaptiveKernel(store)
    store.support_count(0)  # build the run masks outside the timing

    rows = {}
    for name, probes in (("sparse", sparse), ("dense", dense)):
        new, new_seconds = _timed(store.support_count, probes)
        old, old_seconds = _timed(adaptive.support_count, probes)
        assert new == old  # identical answers on every probe
        speedup = old_seconds / max(new_seconds, 1e-9)
        rows[name] = (new_seconds, old_seconds, speedup)
    print_header(
        "support_count: run-carry kernel vs the adaptive kernel",
        f"{'probes':>12}  {'adaptive ms':>12}  {'run-carry ms':>12}  "
        f"{'speedup':>12}",
    )
    for name, (new_seconds, old_seconds, speedup) in rows.items():
        print_row(
            name,
            f"{old_seconds * 1e3:.2f}",
            f"{new_seconds * 1e3:.2f}",
            f"{speedup:.1f}x",
        )
    sparse_seconds, _, sparse_speedup = rows["sparse"]
    dense_seconds, scan_seconds, dense_speedup = rows["dense"]
    # The CI bench-regression job matches these two names against the
    # nightly baseline: the kernel on the sparse probes, and the adaptive
    # kernel's full mask scan (its dense branch, which dense probes take).
    record_bench_point(
        "bitset_support_adaptive",
        f"{n_graphs}g",
        sparse_seconds,
        _KernelPoint(
            len(sparse),
            {"speedup": sparse_speedup, "dense_speedup": dense_speedup,
             "dense_ms": dense_seconds * 1e3},
        ),
    )
    record_bench_point(
        "bitset_support_scan",
        f"{n_graphs}g",
        scan_seconds,
        _KernelPoint(len(dense), {}),
    )
    # The kernel is typically far more than 3x faster here; gate
    # conservatively so slow shared runners don't flake.
    assert sparse_speedup >= 3.0


def test_store_compression_ratio(tmp_path):
    database, taxonomy = dataset("D1000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    sizes = {}
    for name, codec in (("raw", None), ("zlib", "zlib")):
        start = time.perf_counter()
        Taxogram(
            TaxogramOptions(
                min_support=SIGMA,
                max_edges=MAX_EDGES,
                store_out=str(tmp_path / name),
                store_compression=codec,
            )
        ).mine(database, taxonomy)
        seconds = time.perf_counter() - start
        total = sum(
            p.stat().st_size
            for p in (tmp_path / name).rglob("*")
            if p.is_file()
        )
        sizes[name] = total
        record_bench_point(
            f"store_{name}",
            f"{len(database)}g@{SIGMA:g}",
            seconds,
            _KernelPoint(1, {"store_bytes": total}),
        )
    ratio = sizes["zlib"] / sizes["raw"]
    print_header(
        "Store size, raw vs zlib",
        f"{'layout':>12}  {'bytes':>12}  {'ratio':>12}",
    )
    print_row("raw", sizes["raw"], "1.000")
    print_row("zlib", sizes["zlib"], f"{ratio:.3f}")
    assert sizes["zlib"] < sizes["raw"]


def test_min_code_cache_hit_rate(tmp_path):
    """Canonicality memoization pays on incremental replay.

    A single cold gSpan run checks every code exactly once (zero hits
    by construction); the caches earn their keep when the incremental
    updater re-seeds growth after a delta and re-derives the canonical
    codes of surviving classes in the same process.
    """
    from repro.graphs.database import GraphDatabase
    from repro.incremental import DatabaseDelta, IncrementalTaxogram

    database, taxonomy = dataset("D1000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    clear_canonical_caches()
    Taxogram(
        TaxogramOptions(
            min_support=SIGMA,
            max_edges=MAX_EDGES,
            store_out=str(tmp_path / "store"),
        )
    ).mine(database, taxonomy)
    cold = canonical_cache_info()
    assert cold["is_min_code_hits"] == 0  # cold run: all misses

    add = GraphDatabase(
        node_labels=database.node_labels,
        edge_labels=database.edge_labels,
    )
    add.add_graph(database[0].copy())
    updater = IncrementalTaxogram(tmp_path / "store")
    start = time.perf_counter()
    updater.apply(DatabaseDelta.adding(add))
    seconds = time.perf_counter() - start
    info = canonical_cache_info()
    is_min_hits = info["is_min_code_hits"]
    min_code_hits = info["min_dfs_code_hits"]
    print_header(
        "min-DFS-code memoization (incremental replay)",
        f"{'metric':>12}  {'value':>12}",
    )
    print_row("is_min hits", is_min_hits)
    print_row("code hits", min_code_hits)
    print_row("code misses", info["min_dfs_code_misses"])
    record_bench_point(
        "min_code_cache",
        f"{len(database)}g@{SIGMA:g}",
        seconds,
        _KernelPoint(is_min_hits + min_code_hits, dict(info)),
    )
    assert is_min_hits > 0
    assert min_code_hits > 0
