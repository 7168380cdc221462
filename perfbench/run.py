#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary (perfbench/src,
linked against the S-CORE libraries compiled from src/) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks that the result names exactly the metrics BENCHMARK.json
declares for the mode, and prints it as the last line of stdout. Build logs
and diagnostics go to stderr.

Exit status: 0 with a result line; non-zero, without one, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "perfbench")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec = declared()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: perfbench exited with {proc.returncode}")

    result = json.loads(lines[-1])
    mode = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[mode]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.exit(f"run.py: result does not match the declared {mode} metrics")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
