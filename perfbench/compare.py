#!/usr/bin/env python3
"""Diff two benchmark results metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file holds the JSON object ``run.py`` prints as its last line.
Prints every metric present in either file with both values and the
change as a share of the first.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["metrics"]


def show(value) -> str:
    return "-" if value is None else format(value, ".6g")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    width = max(map(len, {**before, **after}), default=0)
    for name in sorted({**before, **after}):
        old = before.get(name, {}).get("value")
        new = after.get(name, {}).get("value")
        unit = (after.get(name) or before.get(name))["unit"]
        if old is None or new is None:
            change = "only in " + ("after" if old is None else "before")
        elif old == new:
            change = "same"
        elif old:
            change = f"{(new - old) / abs(old):+.1%}"
        else:
            change = "from 0"
        print(
            f"{name:<{width}}  {show(old):>12} -> {show(new):<12} "
            f"{unit:<6} {change}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
