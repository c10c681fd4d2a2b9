"""Ablation: the contribution of Taxogram's efficiency enhancements.

The paper motivates four enhancements (§3, items a-d) and evaluates them
only in aggregate ("baseline" = all off).  This ablation measures each
enhancement's individual contribution on a D-family workload: runtime
plus the work counters (bit-set intersections, occurrence-index updates,
candidates enumerated).

Shape expectations: every configuration returns the identical pattern
set; the full configuration does the least enumeration work; the
baseline does the most.  Each configuration records a ``BENCH_ablation``
point (its label is the config name) with the run's ``gspan.*``,
``index.*`` and ``specialize.*`` counters for CI's bench-regression gate.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from benchmarks._common import (
    dataset,
    print_header,
    print_row,
    record_bench_point,
)
from repro.core.taxogram import Taxogram, TaxogramOptions

SIGMA = 0.2
MAX_EDGES = 3
_GRAPH_SCALE = 0.015
_TAXONOMY_SCALE = 0.05

CONFIGS: dict[str, TaxogramOptions] = {
    "full": TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES),
    "baseline": TaxogramOptions.baseline(SIGMA, MAX_EDGES),
    "no-(a)-descendant-pruning": replace(
        TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES),
        enhancement_descendant_pruning=False,
    ),
    "no-(b)-label-filter": replace(
        TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES),
        enhancement_frequent_label_filter=False,
    ),
    "no-(c)-collapse": replace(
        TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES),
        enhancement_occurrence_collapse=False,
    ),
    "no-(d)-contraction": replace(
        TaxogramOptions(min_support=SIGMA, max_edges=MAX_EDGES),
        enhancement_taxonomy_contraction=False,
    ),
}

_results: dict[str, tuple[float, object]] = {}


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_ablation_point(benchmark, config_name):
    database, taxonomy = dataset("D3000", _GRAPH_SCALE, _TAXONOMY_SCALE)
    options = CONFIGS[config_name]

    def run():
        start = time.perf_counter()
        result = Taxogram(options).mine(database, taxonomy)
        record_bench_point(
            "ablation", config_name, time.perf_counter() - start, result
        )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[config_name] = (result.total_seconds, result)
    benchmark.extra_info["patterns"] = len(result)
    benchmark.extra_info["bitset_ops"] = result.counters.bitset_intersections
    print_row(
        config_name,
        f"{result.total_seconds * 1000:.0f}ms",
        f"{len(result)} patterns",
        f"{result.counters.bitset_intersections} bitset ops",
    )


def test_ablation_shape():
    if len(_results) < len(CONFIGS):
        pytest.skip("run the full ablation sweep first")
    print_header(
        "Ablation: enhancement contributions (D3000 analog)",
        f"{'config':>26}  {'ms':>8}  {'patterns':>9}  {'bitset ops':>11}",
    )
    reference = _results["full"][1]
    for name, (seconds, result) in _results.items():
        print(
            f"{name:>26}  {seconds * 1000:8.0f}  {len(result):>9}  "
            f"{result.counters.bitset_intersections:>11}"
        )
        # Correctness is enhancement-independent.
        assert result.pattern_codes() == reference.pattern_codes(), name

    # The baseline performs at least as much enumeration work as the
    # fully enhanced configuration.
    full = _results["full"][1].counters
    base = _results["baseline"][1].counters
    assert base.bitset_intersections >= full.bitset_intersections
    assert base.candidates_enumerated >= full.candidates_enumerated
    # Dropping (a) specifically increases bit-set work.
    no_a = _results["no-(a)-descendant-pruning"][1].counters
    assert no_a.bitset_intersections >= full.bitset_intersections
    # (c) drops over-generalized labels at every partial assignment, so
    # without it strictly more completions are enumerated (and then
    # discarded): the pattern sets are equal, asserted above.
    no_c = _results["no-(c)-collapse"][1].counters
    assert full.candidates_enumerated < no_c.candidates_enumerated
