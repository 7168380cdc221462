#!/usr/bin/env python3
"""Render the ablation-tokens-threads suite of a score-bench/v1 file as a
Markdown speedup table.

The committed BENCH_results.json rows record hw_threads 4, but the
ablation runs fat-tree k=16, a world too small for par(n) to beat par(1)
(it runs at 0.86-0.93x); the CI `remeasure-multicore` job reruns the
ablation on a multi-core runner and uploads this table as an artifact so
the wall-clock-scaling claim of parallel token rounds is backed by a real
measurement (see ROADMAP).

Usage:  python3 tools/speedup_table.py BENCH_file.json [-o speedup.md]
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="score-bench/v1 JSON file")
    parser.add_argument("-o", "--out", help="also write the table here")
    args = parser.parse_args()

    with open(args.file, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = [r for r in doc.get("results", [])
            if r.get("suite") == "ablation-tokens-threads"]
    if not rows:
        print(f"speedup_table: no ablation-tokens-threads rows in {args.file}",
              file=sys.stderr)
        return 1

    hw = next((r["hw_threads"] for r in rows if "hw_threads" in r), None)
    lines = [
        "# Parallel token rounds: tokens × threads ablation",
        "",
        f"Measured on a host with hw_threads = {hw:g}." if hw else "",
        "",
        "| scenario | tokens | threads | sim wall (s) | speedup vs par(1) | "
        "reduction (%) | migrations |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for r in rows:
        speedup = r.get("speedup_vs_par1")
        lines.append(
            f"| {r['scenario']} | {r.get('tokens', 0):g} | "
            f"{r.get('threads', 0):g} | {r.get('sim_wall_s', 0):.3f} | "
            f"{'' if speedup is None else f'{speedup:.2f}x'} | "
            f"{r['cost_reduction_pct']:.2f} | {r['migrations']} |")
    table = "\n".join(line for line in lines if line is not None) + "\n"

    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
