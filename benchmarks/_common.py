"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure from the paper's
evaluation (§4).  The substrate here is pure Python (the paper used
Java 1.6 on a 3.2 GHz Pentium D), so absolute runtimes are not
comparable; each module therefore runs a *scaled* version of the paper's
workload and validates the **shape** of the result — who wins, where the
curves bend, where the bottom-up approach runs out of memory.

Scaling
-------
``REPRO_BENCH_SCALE`` (default 1.0) multiplies every module's built-in
scale factors.  At the default, the full benchmark suite runs in a few
minutes; raise it toward the paper's full sizes when you have the time
budget.

Conventions
-----------
* Mining is capped at ``MAX_EDGES`` edges per pattern (the paper's Java
  implementation ran uncapped; pure-Python pattern growth at full depth
  is impractical, and the relative ordering of the algorithms is already
  visible at small pattern sizes).
* TAcGM runs under a deterministic memory budget
  (:data:`TACGM_MEMORY_BUDGET` cells) so that its out-of-memory failures
  — a central observation of Figures 4.2, 4.3 and 4.7 — reproduce
  machine-independently.
* Each point prints one aligned row: measured milliseconds, pattern
  count, and the paper's reference where the paper states one.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

from repro.core.tacgm import TAcGM, TAcGMOptions
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.datagen.datasets import build_dataset, dataset_spec
from repro.exceptions import MemoryBudgetExceeded
from repro.graphs.database import GraphDatabase
from repro.taxonomy.taxonomy import Taxonomy

__all__ = [
    "SCALE",
    "MAX_EDGES",
    "TACGM_MEMORY_BUDGET",
    "dataset",
    "run_algorithm",
    "record_bench_point",
    "print_header",
    "print_row",
]

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# Machine-readable baselines: with REPRO_BENCH_JSON_DIR set, every
# run_algorithm() call appends one point — wall seconds, pattern count
# and the full observability counter snapshot — to
# ``BENCH_<algorithm>.json`` in that directory, giving later PRs a
# counter-level perf baseline to diff against (see docs/API.md,
# "Observability").
BENCH_JSON_DIR = os.environ.get("REPRO_BENCH_JSON_DIR")

# Pattern-size cap for all mining benchmarks (see module docstring).
MAX_EDGES = 3

# Deterministic TAcGM budget, calibrated against measured peaks so the
# paper's failure points trip at their scaled analogs: the D-family's
# largest dataset (weighted peak ~466k cells vs ~377k one size down),
# NC graphs beyond the smallest size, and supports below ~0.5.
TACGM_MEMORY_BUDGET = 420_000


@lru_cache(maxsize=32)
def dataset(
    name: str,
    graph_scale: float,
    taxonomy_scale: float,
    max_edges_override: int | None = None,
) -> tuple[GraphDatabase, Taxonomy]:
    """Build (and memoize) a scaled Table 1 dataset."""
    spec = dataset_spec(name)
    return build_dataset(
        spec,
        graph_scale=graph_scale * SCALE,
        taxonomy_scale=taxonomy_scale,
        max_edges_override=max_edges_override,
    )


def run_algorithm(
    algorithm: str,
    database: GraphDatabase,
    taxonomy: Taxonomy,
    min_support: float,
    max_edges: int = MAX_EDGES,
    memory_budget: int | None = TACGM_MEMORY_BUDGET,
):
    """Run one miner; returns ``(patterns_or_None, seconds, note)``.

    ``patterns_or_None`` is None when TAcGM exceeds its memory budget —
    the note then says ``OOM``, mirroring the paper's reporting.
    """
    start = time.perf_counter()
    try:
        if algorithm == "taxogram":
            result = Taxogram(
                TaxogramOptions(min_support=min_support, max_edges=max_edges)
            ).mine(database, taxonomy)
        elif algorithm == "baseline":
            result = Taxogram(
                TaxogramOptions.baseline(min_support=min_support,
                                         max_edges=max_edges)
            ).mine(database, taxonomy)
        elif algorithm == "tacgm":
            result = TAcGM(
                TAcGMOptions(
                    min_support=min_support,
                    max_edges=max_edges,
                    memory_budget=memory_budget,
                )
            ).mine(database, taxonomy)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    except MemoryBudgetExceeded:
        return None, time.perf_counter() - start, "OOM"
    seconds = time.perf_counter() - start
    record_bench_point(
        algorithm,
        f"{len(database)}g@{min_support:g}",
        seconds,
        result,
    )
    return result, seconds, ""


def record_bench_point(bench: str, label: str, seconds: float, result) -> None:
    """Append one benchmark point (with counter snapshot) to
    ``BENCH_<bench>.json`` when ``REPRO_BENCH_JSON_DIR`` is set."""
    if not BENCH_JSON_DIR:
        return
    path = Path(BENCH_JSON_DIR) / f"BENCH_{bench}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(
        {
            "label": label,
            "seconds": seconds,
            "patterns": len(result),
            "counters": result.counters.as_metrics(),
        }
    )
    path.write_text(json.dumps(points, indent=2, sort_keys=True) + "\n")


def print_header(title: str, columns: str) -> None:
    print()
    print(f"== {title} ==")
    print(columns)


def print_row(*cells: object) -> None:
    print("  ".join(f"{cell!s:>12}" for cell in cells))
