#!/usr/bin/env python3
"""Builds and runs the perfbench program on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dse_sweep|paper_flow|serve_mix \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the libraries in src/ plus the program) with CMake into
.bench_build/perfbench-cmake, runs it, checks that the metric names
it prints are the ones BENCHMARK.json declares, and appends the run to
.bench_build/perfbench-out/results.jsonl.  The line before the last of
standard output is the detail object (with the host facts that
perfbench/compare.py checks between two sides); the last line is the result
object.  Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("dse_sweep", "paper_flow", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(3, (os.cpu_count() or 2) - 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def commit_id():
    """The git commit, or a digest of the sources when ROOT is no git repo."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def declared_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR, "--commit", commit_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench exited with code %d" % done.returncode)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("perfbench printed no result")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])

    names = declared_names(args.trace == "1")
    if names is not None and list(result["metrics"]) != names:
        fail("metric names differ from BENCHMARK.json: %s" % list(result["metrics"]))

    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
