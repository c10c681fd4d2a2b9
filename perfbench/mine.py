"""``mine`` workload: batch mining, the paper's own use.

Each run repeats ``Taxogram.mine`` on the Fig. 4.2 D5000 analog
(500 graphs, sigma 0.1, at most 3 edges) and ``mine_directed`` on 400
regulatory networks (sigma 0.1, at most 3 edges).  Relabel, gSpan, the
occurrence-index build and the Step-3 specializer do nearly all the
work; no store, WAL or server exists.

The number of repeats follows from ``--seconds`` alone (one pair per
``SECONDS_PER_REPEAT``, two at 15 s), never from how fast the code is:
the first pair runs with the process's memo caches cold and later pairs
warm, so a count that grew or shrank with speed would change the
cold/warm mix as well as the time.

End-to-end metrics: ``primary_gmean_ms`` is one undirected
``Taxogram.mine`` call, ``secondary_gmean_ms`` one ``mine_directed``
call, ``peak_rss_mb`` this process's VmHWM, ``setup_s`` one dataset
build (both datasets), the median over ``SETUP_BLOCKS`` timed blocks of
``BUILDS_PER_BLOCK`` builds each: a single build takes about 0.14 s and
varies by +-40% on a shared VM.
"""

from __future__ import annotations

import hashlib
import random
import time

from perfbench.common import Result, Timing, end_to_end, median, vm_hwm_mb
from perfbench.datasets import directed_dataset, undirected_dataset
from repro import Taxogram, TaxogramOptions
from repro.directed import (
    is_directed_generalized_subgraph_isomorphic,
    mine_directed,
)
from repro.isomorphism.vf2 import is_generalized_subgraph_isomorphic

MIN_SUPPORT = 0.1
MAX_EDGES = 3
SETUP_BLOCKS = 7
BUILDS_PER_BLOCK = 3
SECONDS_PER_REPEAT = 7.5
RECHECK_UNDIRECTED = 24
RECHECK_DIRECTED = 12


def digest(result) -> str:
    """Order-independent digest of a result's patterns and support sets."""
    rows = sorted(
        (p.code.edges, p.support_count, tuple(sorted(p.support_set)))
        for p in result.patterns
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def recheck(result, database, taxonomy, contains, count: int, rng) -> int:
    """Recount a seeded sample of supports by generalized VF2 matching;
    returns the number of mismatches."""
    sample = rng.sample(result.patterns, min(count, len(result.patterns)))
    wrong = 0
    for pattern in sample:
        support = sum(
            1 for graph in database if contains(pattern.graph, graph, taxonomy)
        )
        if support != pattern.support_count:
            wrong += 1
    return wrong


def run(seed: int, seconds: float) -> Result:
    setups = []
    for _ in range(SETUP_BLOCKS):
        start = time.perf_counter()
        for _ in range(BUILDS_PER_BLOCK):
            database = directed = None  # free the previous build first
            database, taxonomy = undirected_dataset(seed)
            directed, directed_taxonomy = directed_dataset(seed)
        setups.append((time.perf_counter() - start) / BUILDS_PER_BLOCK)

    miner = Taxogram(
        TaxogramOptions(min_support=MIN_SUPPORT, max_edges=MAX_EDGES)
    )
    mine_s = Timing("mine_s", "s")
    directed_s = Timing("directed_mine_s", "s")
    digests: set[str] = set()
    directed_digests: set[str] = set()
    result = directed_result = None
    for _ in range(max(1, round(seconds / SECONDS_PER_REPEAT))):
        # Drop the previous results first, so peak RSS is one mine's.
        result = directed_result = None
        start = time.perf_counter()
        result = miner.mine(database, taxonomy)
        mine_s.add(time.perf_counter() - start)
        digests.add(digest(result))
        start = time.perf_counter()
        directed_result = mine_directed(
            directed,
            directed_taxonomy,
            min_support=MIN_SUPPORT,
            max_edges=MAX_EDGES,
        )
        directed_s.add(time.perf_counter() - start)
        directed_digests.add(digest(directed_result))

    # Correctness, outside the timed window.
    rng = random.Random(seed)
    wrong = recheck(
        result, database, taxonomy, is_generalized_subgraph_isomorphic,
        RECHECK_UNDIRECTED, rng,
    )
    wrong_directed = recheck(
        directed_result, directed, directed_taxonomy,
        is_directed_generalized_subgraph_isomorphic, RECHECK_DIRECTED, rng,
    )
    repeats_agree = len(digests) == 1 and len(directed_digests) == 1
    attempted = len(mine_s) + len(directed_s)
    failed = (0 if repeats_agree else attempted) + wrong + wrong_directed

    peak = vm_hwm_mb()
    lines = [
        f"setup_s: {median(setups):.4g} s (one dataset build; median of "
        f"{len(setups)} blocks of {BUILDS_PER_BLOCK} builds)",
        mine_s.describe(),
        directed_s.describe(),
        f"peak_rss_mb: {peak:.4g} MB (benchmark process VmHWM)",
        f"patterns: {len(result.patterns)} in "
        f"{result.counters.pattern_classes} classes; directed "
        f"{len(directed_result.patterns)}",
        f"check: repeats identical={repeats_agree} "
        f"(n={len(mine_s)}+{len(directed_s)}), VF2 recount mismatches "
        f"{wrong}/{RECHECK_UNDIRECTED} undirected, "
        f"{wrong_directed}/{RECHECK_DIRECTED} directed",
        f"failed_share: {failed / attempted:.4g} ({failed}/{attempted})",
    ]
    return Result(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=end_to_end(
            median(setups), mine_s.gmean_ms(), directed_s.gmean_ms(), peak
        ),
        lines=lines,
    )
