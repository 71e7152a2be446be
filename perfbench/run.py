#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The script builds the driver
(perfbench_driver, linked against the simulator libraries in src/) with
CMake in Release mode under $CARGO_TARGET_DIR (default .bench_build),
generates the workload's request lines from the seed, and runs them.

Standard output ends with the driver's result: one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes a Chrome
trace next to the request file. The exit code is nonzero when the build
fails, an output check fails, or an open-loop run is invalid; an invalid
run prints no result. Workloads, metrics and seeds are described in
perfbench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("functional_suite", "timing", "serve_mixed")
# The held-out seed 8191 is reserved for confirming claimed gains on a
# seed nobody tuned against (see METRICS.md).
DEFAULT_SEED = 2003

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's and the driver's scratch files inside the tree.
    env = dict(os.environ, TMPDIR=str(tmp))
    build(root, build_dir, env)

    driver = build_dir / "perfbench_driver"
    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    stem = runs / f"{args.workload}-{args.seed}"
    requests = stem.with_suffix(".ndjson")
    seconds = repr(args.seconds)
    gen = subprocess.run([str(driver), "gen", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", seconds,
                          "--out", str(requests)], env=env, timeout=RUN_TIMEOUT_S)
    if gen.returncode != 0:
        fail(f"request generation exited {gen.returncode}")

    # One malloc arena: with per-thread arenas the server's peak RSS
    # swings by a fifth from run to run on identical input.
    env["MALLOC_ARENA_MAX"] = "1"
    cmd = [str(driver), "run", "--workload", args.workload, "--requests", str(requests),
           "--seconds", seconds, "--trace", str(args.trace),
           "--work-out", str(stem.with_suffix(f".trace{args.trace}.work.json"))]
    if args.trace:
        cmd += ["--trace-out", str(stem.with_suffix(".trace.json"))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"driver exited {run.returncode} without a result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("driver result has unexpected keys")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
