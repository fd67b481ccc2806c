#!/usr/bin/env python3
"""Fixed-work self-test of the benchmark.

Runs every workload at a small scale (--seconds 1) twice with one seed and
once with another, through perfbench/run.py, and checks that:

  * every run reports correct: true;
  * `attempted` and every per-phase count are equal across all three runs
    (the seed never changes the amount of work);
  * the output digests are equal within the same-seed pair.

Usage (from the repository root):

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dse_sweep", "paper_flow", "serve_mix")
SECONDS = 1
SEEDS = (11, 12)


def run(workload, seed):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d: run.py exited %d" % (workload, seed,
                                                            done.returncode))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    seed_a, seed_b = SEEDS
    failures = []
    for workload in WORKLOADS:
        runs = [run(workload, seed) for seed in (seed_a, seed_a, seed_b)]
        for (detail, result), seed in zip(runs, (seed_a, seed_a, seed_b)):
            if not result["correct"]:
                failures.append("%s seed %d: correct is false: %s"
                                % (workload, seed, detail["errors"]))
        attempted = [result["attempted"] for _, result in runs]
        phases = [[(p["name"], p["attempted"]) for p in detail["phases"]]
                  for detail, _ in runs]
        if len(set(attempted)) != 1:
            failures.append("%s: attempted differs: %s" % (workload, attempted))
        if any(p != phases[0] for p in phases):
            failures.append("%s: per-phase counts differ: %s" % (workload, phases))
        if runs[0][0]["digests"] != runs[1][0]["digests"]:
            failures.append("%s: digests differ between two runs of seed %d"
                            % (workload, seed_a))
        print("%-10s attempted %s phases %s" % (workload, attempted, phases[0]))

    for failure in failures:
        print("FAIL: " + failure)
    print("selftest: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
