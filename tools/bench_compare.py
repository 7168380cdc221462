#!/usr/bin/env python3
"""Perf-regression gate over score-bench/v1 trajectory files.

Two modes:

  bench_compare.py --validate FILE
      Schema check only: the file must be a score-bench/v1 document with
      well-typed records. Schema drift fails loudly (exit 1).

  bench_compare.py BASELINE CANDIDATE [options]
      Diff a fresh run (CANDIDATE, e.g. BENCH_ci.json) against the committed
      trajectory (BASELINE, BENCH_results.json). Records are joined on
      (suite, scenario); the gate fails (exit 1) when, for any joined pair:

        * ns_per_call regressed by more than --ns-tolerance (default 0.25,
          i.e. +25%); scenarios faster than --ns-floor (default 100 ns, e.g.
          the O(1) cached total_cost read) only fail above the floor itself,
          since single-digit-ns timings are dominated by timer noise,
        * checksum_per_call (rep-count invariant: bench_runner uses
          cycle-aligned rep counts) diverges by more than --checksum-rtol
          relative (default 1e-6); the raw checksum is additionally compared
          when both runs made the same number of calls,
        * cost_reduction_pct differs by more than --reduction-atol
          percentage points (default 1.0),
        * updates_per_sec (the streaming-ingest fold-throughput metric)
          dropped by more than --updates-tolerance fractional (default 0.4,
          i.e. -40%; throughput only gates downward — speedups pass),
        * bytes_per_vm (the huge-scale peak-RSS footprint) grew by more
          than --bytes-tolerance fractional (default 0.25, i.e. +25%;
          one-sided — shrinking always passes),
        * ns_per_migration (the huge-scale end-to-end migration latency)
          grew by more than --migration-tolerance fractional (default 0.5,
          i.e. +50%; one-sided — wall-clock timing is noisier across hosts
          than the memory footprint, hence the wider band),
        * the streaming-ingest per-batch fold latency grew by more than
          --fold-tolerance fractional (default 1.0, i.e. +100%; one-sided —
          fold latency is the noisiest gated metric, so only a clear
          blow-up fails). The gate reads fold_p99_ns where both sides
          folded at least 100 batches (the fold-throughput row folds 256);
          elsewhere — the drift-trigger and sharded rows fold 12 ticks, a
          --quick fold-throughput row 32 batches — a p99 is just the
          slowest sample or two, so it reads fold_p50_ns instead, deciding
          by the smaller side's count (`batches`, else `ticks`). A row that
          names no count keeps the p99 gate.

      A gated metric that is null (bench_runner writes NaN/inf as null) on
      either side of a joined pair fails the gate: an undefined value never
      passes as a benign default. So does a gated metric that only one side
      of a joined pair carries: a bench that stops emitting it would
      otherwise silently stop being gated. Ungated metrics may come and go.

      Scenarios present only in the baseline (e.g. the paper-scale suite
      when CI runs --scale default) are reported as skipped, not failed.
      Scenarios present only in the candidate — benches with no committed
      trajectory row — fail the gate by default: a new bench scenario must
      land together with its BENCH_results.json row, so the trajectory file
      stays the single source of truth. Pass --allow-new to permit them
      (e.g. when iterating locally on a brand-new suite before the
      regeneration run).

Stdlib only; used by .github/workflows/ci.yml after the bench-smoke step and
runnable locally:  python3 tools/bench_compare.py BENCH_results.json build/BENCH_ci.json
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "score-bench/v1"
SCALES = {"default", "paper", "huge"}
REQUIRED_FIELDS = {
    "suite": str,
    "scenario": str,
    "wall_time_s": (int, float),
    "cost_reduction_pct": (int, float),
    "migrations": int,
}


# Metrics compare() gates besides the required cost_reduction_pct.
GATED_METRICS = ("ns_per_call", "checksum_per_call", "checksum",
                 "updates_per_sec", "bytes_per_vm", "ns_per_migration",
                 "fold_p50_ns", "fold_p99_ns")

# Fewest fold samples on both sides for fold_p99_ns to be gated; below it
# the gate reads fold_p50_ns.
FOLD_P99_MIN_SAMPLES = 100


def fail(msg: str) -> None:
    print(f"bench_compare: FAIL: {msg}")


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")


def validate(doc: dict, path: str) -> list[str]:
    """Return a list of schema violations (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return [f"{path}: top level is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if doc.get("scale") not in SCALES:
        errors.append(f"{path}: scale is {doc.get('scale')!r}, expected one of {sorted(SCALES)}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return errors + [f"{path}: 'results' must be a non-empty array"]
    seen = set()
    for i, rec in enumerate(results):
        if not isinstance(rec, dict):
            errors.append(f"{path}: results[{i}] is not an object")
            continue
        for field, types in REQUIRED_FIELDS.items():
            if field not in rec:
                errors.append(f"{path}: results[{i}] missing required field {field!r}")
            elif not isinstance(rec[field], types) or isinstance(rec[field], bool):
                errors.append(f"{path}: results[{i}].{field} has type {type(rec[field]).__name__}")
        for key, value in rec.items():
            if key in ("suite", "scenario"):
                continue
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                errors.append(f"{path}: results[{i}].{key} is not numeric")
        key = (rec.get("suite"), rec.get("scenario"))
        if key in seen:
            errors.append(f"{path}: duplicate (suite, scenario) {key}")
        seen.add(key)
    return errors


def fold_gate_field(b: dict, c: dict) -> str:
    """The fold-latency percentile a joined pair is gated on."""
    counts = [rec.get("batches", rec.get("ticks")) for rec in (b, c)]
    if None in counts or min(counts) >= FOLD_P99_MIN_SAMPLES:
        return "fold_p99_ns"
    return "fold_p50_ns"


def index(doc: dict) -> dict[tuple[str, str], dict]:
    return {(r["suite"], r["scenario"]): r for r in doc["results"]}


def compare(baseline: dict, candidate: dict, args: argparse.Namespace) -> int:
    base, cand = index(baseline), index(candidate)
    failures = 0
    compared = 0
    skipped = 0
    new = 0
    for key in sorted(base.keys() | cand.keys()):
        name = "/".join(key)
        b, c = base.get(key), cand.get(key)
        if c is None:
            skipped += 1
            print(f"bench_compare: skip {name}: not in candidate "
                  "(e.g. paper-scale suite not run)")
            continue
        if b is None:
            # Newly added scenario: gated by default — its trajectory row must
            # be committed alongside the bench (escape hatch: --allow-new).
            new += 1
            if args.fail_on_new:
                fail(f"{name}: scenario absent from baseline "
                     "(new benches must land with their BENCH_results.json "
                     "row; pass --allow-new to bypass)")
                failures += 1
            else:
                print(f"bench_compare: new {name}: no baseline yet, not gated "
                      "(--allow-new)")
            continue
        compared += 1

        for field in GATED_METRICS:
            sides = (("baseline", b), ("candidate", c))
            nulls = [side for side, rec in sides
                     if field in rec and rec[field] is None]
            missing = [side for side, rec in sides if field not in rec]
            if nulls:
                fail(f"{name}: {field} is null in the {' and '.join(nulls)} "
                     "(undefined values fail the gate)")
                failures += 1
            elif len(missing) == 1:
                fail(f"{name}: {field} is missing from the {missing[0]} "
                     "(a gated metric must be on both sides)")
                failures += 1

        def gated(field: str) -> bool:
            """Present and defined on both sides (anything else failed)."""
            return b.get(field) is not None and c.get(field) is not None

        if gated("ns_per_call") and b["ns_per_call"] > 0:
            ratio = c["ns_per_call"] / b["ns_per_call"]
            allowed = max(b["ns_per_call"] * (1.0 + args.ns_tolerance), args.ns_floor)
            if c["ns_per_call"] > allowed:
                fail(f"{name}: ns_per_call regressed {b['ns_per_call']:.4g} -> "
                     f"{c['ns_per_call']:.4g} ({ratio:.2f}x, allowed up to "
                     f"{allowed:.4g} ns)")
                failures += 1
            else:
                print(f"bench_compare: ok {name}: ns_per_call "
                      f"{b['ns_per_call']:.4g} -> {c['ns_per_call']:.4g} ({ratio:.2f}x)")

        for field, need_equal_calls in (("checksum_per_call", False),
                                        ("checksum", True)):
            if not gated(field) or b[field] == 0:
                continue
            if need_equal_calls and b.get("calls") != c.get("calls"):
                continue
            rel = abs(c[field] - b[field]) / abs(b[field])
            if rel > args.checksum_rtol:
                fail(f"{name}: {field} diverged {b[field]:.9g} -> "
                     f"{c[field]:.9g} (rel {rel:.3g} > {args.checksum_rtol:.3g})")
                failures += 1

        if gated("updates_per_sec") and b["updates_per_sec"] > 0:
            ratio = c["updates_per_sec"] / b["updates_per_sec"]
            if ratio < 1.0 - args.updates_tolerance:
                fail(f"{name}: updates_per_sec regressed "
                     f"{b['updates_per_sec']:.4g} -> {c['updates_per_sec']:.4g} "
                     f"({ratio:.2f}x, allowed down to "
                     f"{1.0 - args.updates_tolerance:.2f}x)")
                failures += 1
            else:
                print(f"bench_compare: ok {name}: updates_per_sec "
                      f"{b['updates_per_sec']:.4g} -> "
                      f"{c['updates_per_sec']:.4g} ({ratio:.2f}x)")

        # One-sided growth gates (huge-scale suite): memory footprint and
        # end-to-end migration latency only fail upward — improvements pass.
        for field, tolerance in (("bytes_per_vm", args.bytes_tolerance),
                                 ("ns_per_migration", args.migration_tolerance),
                                 (fold_gate_field(b, c), args.fold_tolerance)):
            if gated(field) and b[field] > 0:
                ratio = c[field] / b[field]
                if ratio > 1.0 + tolerance:
                    fail(f"{name}: {field} regressed {b[field]:.4g} -> "
                         f"{c[field]:.4g} ({ratio:.2f}x, allowed up to "
                         f"{1.0 + tolerance:.2f}x)")
                    failures += 1
                else:
                    print(f"bench_compare: ok {name}: {field} "
                          f"{b[field]:.4g} -> {c[field]:.4g} ({ratio:.2f}x)")

        dr = abs(c["cost_reduction_pct"] - b["cost_reduction_pct"])
        if dr > args.reduction_atol:
            fail(f"{name}: cost_reduction_pct diverged "
                 f"{b['cost_reduction_pct']:.4f} -> {c['cost_reduction_pct']:.4f} "
                 f"(|Δ| {dr:.3f} > {args.reduction_atol:.3f} pp)")
            failures += 1

    if compared == 0:
        fail("no (suite, scenario) pairs in common — wrong files?")
        failures += 1
    print(f"bench_compare: {compared} scenarios compared, {new} new, "
          f"{skipped} skipped, {failures} failure(s)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="--validate FILE, or BASELINE CANDIDATE")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check a single file instead of diffing two")
    parser.add_argument("--ns-tolerance", type=float, default=0.25,
                        help="allowed fractional ns_per_call regression (default 0.25 = +25%%)")
    parser.add_argument("--ns-floor", type=float, default=100.0,
                        help="ns_per_call below this never fails the tolerance check "
                             "(timer noise floor for O(1) operations; default 100 ns)")
    parser.add_argument("--checksum-rtol", type=float, default=1e-6,
                        help="allowed relative checksum divergence at equal call counts")
    parser.add_argument("--reduction-atol", type=float, default=1.0,
                        help="allowed cost_reduction_pct divergence, percentage points")
    parser.add_argument("--updates-tolerance", type=float, default=0.4,
                        help="allowed fractional updates_per_sec drop (default 0.4 "
                             "= -40%%; increases never fail)")
    parser.add_argument("--bytes-tolerance", type=float, default=0.25,
                        help="allowed fractional bytes_per_vm growth (default 0.25 "
                             "= +25%%; decreases never fail)")
    parser.add_argument("--migration-tolerance", type=float, default=0.5,
                        help="allowed fractional ns_per_migration growth (default "
                             "0.5 = +50%%; decreases never fail)")
    parser.add_argument("--fold-tolerance", type=float, default=1.0,
                        help="allowed fractional fold latency growth, on "
                             "fold_p99_ns with >= 100 fold samples a side and "
                             "fold_p50_ns otherwise (default 1.0 = +100%%; "
                             "decreases never fail)")
    parser.add_argument("--fail-on-new", dest="fail_on_new", action="store_true",
                        default=True,
                        help="fail when the candidate has scenarios absent from the "
                             "baseline (the default since the committed trajectory "
                             "covers every suite)")
    parser.add_argument("--allow-new", dest="fail_on_new", action="store_false",
                        help="permit candidate scenarios absent from the baseline "
                             "(local iteration on a new bench before its trajectory "
                             "row is committed)")
    args = parser.parse_args()

    if args.validate:
        if len(args.files) != 1:
            parser.error("--validate takes exactly one file")
        errors = validate(load(args.files[0]), args.files[0])
        for e in errors:
            fail(e)
        if not errors:
            print(f"bench_compare: {args.files[0]}: valid {SCHEMA}")
        return 1 if errors else 0

    if len(args.files) != 2:
        parser.error("expected BASELINE CANDIDATE (or --validate FILE)")
    baseline, candidate = load(args.files[0]), load(args.files[1])
    errors = [*validate(baseline, args.files[0]), *validate(candidate, args.files[1])]
    for e in errors:
        fail(e)
    if errors:
        return 1
    return compare(baseline, candidate, args)


if __name__ == "__main__":
    sys.exit(main())
