#!/usr/bin/env python3
"""Says whether two sets of benchmark runs are comparable.

Each argument is a file holding runs of perfbench/run.py: either its
captured standard output (one or more runs) or the
.bench_build/perfbench-out/results.jsonl it appends to.  Every detail line's
host facts are read, and the two sides are comparable only when each fact
below has one value across all runs of both sides.  The commit is recorded
but expected to differ between the sides.

Usage:

    python3 perfbench/compare.py BASELINE_RUNS NEW_RUNS

Prints {"comparable": ..., "differs": {fact: [baseline values, new values]}}
and exits 0 when comparable, 1 when not, 2 when a file holds no run.
"""

import json
import sys

FACTS = ("nproc", "simd_tier", "build_type", "compiler", "threads")


def hosts(path):
    found = []
    with open(path) as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "detail" in obj:
                found.append(obj["detail"]["host"])
    return found


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = [hosts(path) for path in sys.argv[1:]]
    for path, side in zip(sys.argv[1:], sides):
        if not side:
            print("compare: no run in " + path, file=sys.stderr)
            return 2
    differs = {}
    for fact in FACTS:
        values = [sorted({json.dumps(h.get(fact)) for h in side}) for side in sides]
        if len(set(values[0]) | set(values[1])) > 1:
            differs[fact] = [[json.loads(v) for v in vs] for vs in values]
    print(json.dumps({"comparable": not differs, "differs": differs}))
    return 0 if not differs else 1


if __name__ == "__main__":
    sys.exit(main())
