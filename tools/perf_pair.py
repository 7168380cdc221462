#!/usr/bin/env python3
"""Same-host paired perfbench comparison: a parent revision against the
working tree.

    python3 tools/perf_pair.py --parent REV --workload W --pairs N \\
        --seconds S --first-seed K

Run from the repository root. REV is exported into a temporary directory
(git archive: nothing is registered in the repository, so an interrupted run
leaves nothing behind), and each side gets its own perfbench build
directory ($CARGO_TARGET_DIR). Pair i runs perfbench/run.py on both sides
with seed K + i, and the side that runs first alternates from pair to pair.
Repeat --workload to compare several workloads on one pair of builds.

For every end-to-end metric BENCHMARK.json declares it prints both sides'
median and Q1-Q3, the change of the median, the pairs the working tree won
and whether the medians differ by more than the parent's Q1-Q3 spread. It
flags any seed whose cost_reduction_pct differs between the sides and any
pair in which the working tree failed more operations. The report is
informational: the exit status is non-zero only when a run or the build
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks (p in [0, 1])."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: list[float]) -> dict:
    return {"median": percentile(values, 0.5), "q1": percentile(values, 0.25),
            "q3": percentile(values, 0.75)}


def summarize(pairs: list[tuple[int, dict, dict]],
              metrics: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows per end-to-end metric and flags for (seed, parent, head) pairs.

    `parent` and `head` are perfbench result objects; `metrics` is
    BENCHMARK.json's end_to_end list. A pair is won when the working tree's
    value is strictly better in the metric's direction.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        base = [p["metrics"][name]["value"] for _, p, _ in pairs]
        head = [h["metrics"][name]["value"] for _, _, h in pairs]
        lower = m["better"] == "lower"
        wins = sum(1 for b, c in zip(base, head) if (c < b if lower else c > b))
        b, c = spread(base), spread(head)
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "parent": b,
            "head": c,
            "change_pct": (100.0 * (c["median"] / b["median"] - 1.0)
                           if b["median"] else None),
            "wins": wins,
            "pairs": len(pairs),
            "beyond_parent_iqr":
                abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
        })
    flags = []
    for seed, p, h in pairs:
        before = p["metrics"]["cost_reduction_pct"]["value"]
        after = h["metrics"]["cost_reduction_pct"]["value"]
        if before != after:
            flags.append(f"seed {seed}: cost_reduction_pct {before!r} -> {after!r}")
        if h["failed"] > p["failed"]:
            flags.append(f"seed {seed}: failed {p['failed']} -> {h['failed']}")
    return rows, flags


def format_report(workload: str, rows: list[dict], flags: list[str]) -> str:
    def cell(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"

    lines = [f"{workload}:",
             f"  {'metric':<20} {'parent median [Q1-Q3]':<28} "
             f"{'head median [Q1-Q3]':<28} {'change':>8}  wins  beyond IQR"]
    for r in rows:
        change = "n/a" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        lines.append(
            f"  {r['metric']:<20} {cell(r['parent']):<28} {cell(r['head']):<28} "
            f"{change:>8}  {r['wins']}/{r['pairs']}  "
            f"{'yes' if r['beyond_parent_iqr'] else 'no'}")
    lines += [f"  FLAG {f}" for f in flags] or ["  no flags"]
    return "\n".join(lines)


def run_side(root: str, build_dir: str, workload: str, seed: int,
             seconds: int) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_pair.py: {' '.join(cmd)} failed in {root}")
    return json.loads(lines[-1])


def export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="perf_pair_") as tmp:
        parent_root = os.path.join(tmp, "parent")
        export(args.parent, parent_root)
        sides = {"parent": (parent_root, os.path.join(tmp, "parent-build")),
                 "head": (ROOT, os.path.join(tmp, "head-build"))}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ["parent", "head"] if i % 2 == 0 else ["head", "parent"]
                result = {side: run_side(*sides[side], workload, seed, args.seconds)
                          for side in order}
                pairs.append((seed, result["parent"], result["head"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} run_s {result[side]['metrics']['run_s']['value']:.4g}"
                    for side in order), file=sys.stderr, flush=True)
            print(format_report(workload, *summarize(pairs, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
