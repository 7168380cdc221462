#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--sets 2]

Runs every workload BENCHMARK.json declares --runs times per set, seed
first-seed .. first-seed+runs-1, through perfbench/run.py for the declared
run_seconds with tracing off, and reports per end-to-end metric:

  * spread: (Q3 - Q1) / median over a set's runs, with the quartiles of
    statistics.quantiles(values, n=4). Must stay within the metric's bound
    (setup_s excepted); the target is a third of it.
  * drift: how much worse the second set's median is than the first's, as a
    share of the first. Must stay within the bound for every metric.
  * exactness: count and quality metrics (every unit that is neither a time
    nor a memory size) must be identical for the same seed in every set. A
    difference is nondeterminism, not noise.

Every run must report correct = true with no failed operation. Exit status 0
when all of this holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
INEXACT_UNITS = {"s", "ms", "us", "ns", "B"}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2, choices=[1, 2])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        sets = []
        for s in range(args.sets):
            results = []
            for seed in seeds:
                r = run_once(w, seed, spec["run_seconds"])
                if not r["correct"] or r["failed"]:
                    print(f"FAIL {w} set {s} seed {seed}: outputs failed checks "
                          f"({r['failed']} of {r['attempted']})")
                    ok = False
                results.append(r)
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                    flush=True)
            sets.append(results)

        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in results]
                       for results in sets]
            spreads = [spread(v) for v in per_set]
            line = f"{w:14s} {name:20s} bound {bound:.3f} spread " + " ".join(
                f"{x:.4f}" for x in spreads)
            if name != "setup_s" and max(spreads) > bound:
                line += "  SPREAD>BOUND"
                ok = False
            elif name != "setup_s" and max(spreads) > bound / 3:
                line += "  (above a third of the bound)"
            if len(per_set) == 2:
                d = worse_by(per_set[0], per_set[1], m["better"])
                line += f" drift {d:+.4f}"
                if d > bound:
                    line += "  DRIFT>BOUND"
                    ok = False
                if m["unit"] not in INEXACT_UNITS and per_set[0] != per_set[1]:
                    line += "  NONDETERMINISTIC"
                    ok = False
            print(line, flush=True)

    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
