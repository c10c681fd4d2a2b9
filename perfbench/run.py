#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mine|serve|ingest|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  With ``--trace 0`` the workload runs
untraced and reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the traced layer walk (see ``perfbench/trace.py``) runs
instead and reports the per-layer metrics.  Human-readable lines, each
metric by name with its unit and sample count, come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs the
three workloads in turn for one seed.  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mine", "serve", "ingest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import common

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        # Keep every temporary file of this process and its servers
        # inside the checkout.
        scratch = common.WORK / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(scratch)
        for name in names:
            module = importlib.import_module(
                "perfbench.trace" if args.trace else f"perfbench.{name}"
            )
            result = module.run(args.seed, args.seconds)
            for line in result.lines:
                print(f"[{name}] {line}", flush=True)
            results.append((name, result))
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
        try:
            common.WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(results) == 1:
        metrics = results[0][1].metrics
    else:
        metrics = {
            f"{name}.{key}": value
            for name, result in results
            for key, value in result.metrics.items()
        }
    correct = all(result.correct for _, result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for _, result in results),
        "failed": sum(result.failed for _, result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
