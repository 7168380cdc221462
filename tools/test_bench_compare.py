#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (schema rejection, perf-gate trips,
--allow-new) and for tools/perf_pair.py's pair summary. Stdlib only; run
directly, via `ctest -R python_tools_test`, or through the CI
`python-tools-test` step:

    python3 tools/test_bench_compare.py -v
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare as bc
import perf_pair as pp


def make_record(suite="micro", scenario="total_cost", **overrides):
    record = {
        "suite": suite,
        "scenario": scenario,
        "wall_time_s": 1.5,
        "cost_reduction_pct": 40.0,
        "migrations": 12,
    }
    record.update(overrides)
    return record


def make_doc(records):
    return {"schema": "score-bench/v1", "scale": "default", "results": records}


def gate_args(**overrides):
    defaults = dict(ns_tolerance=0.25, ns_floor=100.0, checksum_rtol=1e-6,
                    reduction_atol=1.0, updates_tolerance=0.4,
                    bytes_tolerance=0.25, migration_tolerance=0.5,
                    fold_tolerance=1.0, fail_on_new=True)
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class ValidateTests(unittest.TestCase):
    def test_valid_document_passes(self):
        doc = make_doc([make_record()])
        self.assertEqual(bc.validate(doc, "f"), [])

    def test_top_level_must_be_object(self):
        self.assertTrue(bc.validate([], "f"))

    def test_wrong_schema_string_rejected(self):
        doc = make_doc([make_record()])
        doc["schema"] = "score-bench/v2"
        errors = bc.validate(doc, "f")
        self.assertTrue(any("schema" in e for e in errors))

    def test_unknown_scale_rejected(self):
        doc = make_doc([make_record()])
        doc["scale"] = "galactic"
        errors = bc.validate(doc, "f")
        self.assertTrue(any("scale" in e for e in errors))

    def test_empty_results_rejected(self):
        errors = bc.validate(make_doc([]), "f")
        self.assertTrue(any("non-empty" in e for e in errors))

    def test_missing_required_field_rejected(self):
        record = make_record()
        del record["migrations"]
        errors = bc.validate(make_doc([record]), "f")
        self.assertTrue(any("migrations" in e for e in errors))

    def test_bool_masquerading_as_number_rejected(self):
        errors = bc.validate(make_doc([make_record(wall_time_s=True)]), "f")
        self.assertTrue(any("wall_time_s" in e for e in errors))

    def test_non_numeric_metric_rejected(self):
        errors = bc.validate(make_doc([make_record(ns_per_call="fast")]), "f")
        self.assertTrue(any("ns_per_call" in e for e in errors))

    def test_duplicate_suite_scenario_rejected(self):
        errors = bc.validate(make_doc([make_record(), make_record()]), "f")
        self.assertTrue(any("duplicate" in e for e in errors))


class CompareTests(unittest.TestCase):
    def run_compare(self, baseline, candidate, **args):
        return bc.compare(make_doc(baseline), make_doc(candidate), gate_args(**args))

    def test_identical_documents_pass(self):
        records = [make_record(ns_per_call=500.0)]
        self.assertEqual(self.run_compare(records, copy.deepcopy(records)), 0)

    def test_ns_per_call_regression_over_25pct_trips_gate(self):
        base = [make_record(ns_per_call=1000.0)]
        cand = [make_record(ns_per_call=1300.0)]  # +30% > +25%
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_ns_per_call_regression_within_tolerance_passes(self):
        base = [make_record(ns_per_call=1000.0)]
        cand = [make_record(ns_per_call=1200.0)]  # +20%
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_timer_noise_floor_shields_fast_operations(self):
        base = [make_record(ns_per_call=3.0)]
        cand = [make_record(ns_per_call=50.0)]  # huge ratio, still < 100 ns
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_checksum_divergence_trips_gate(self):
        base = [make_record(checksum_per_call=10.0)]
        cand = [make_record(checksum_per_call=10.1)]
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_raw_checksum_only_compared_at_equal_call_counts(self):
        base = [make_record(checksum=100.0, calls=10)]
        cand = [make_record(checksum=999.0, calls=20)]  # different rep count
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_cost_reduction_drift_trips_gate(self):
        base = [make_record(cost_reduction_pct=40.0)]
        cand = [make_record(cost_reduction_pct=38.5)]  # |Δ| 1.5 pp > 1.0
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_updates_per_sec_drop_over_tolerance_trips_gate(self):
        base = [make_record(updates_per_sec=2e6)]
        cand = [make_record(updates_per_sec=1e6)]  # -50% < -40%
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_updates_per_sec_drop_within_tolerance_passes(self):
        base = [make_record(updates_per_sec=2e6)]
        cand = [make_record(updates_per_sec=1.5e6)]  # -25%
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_updates_per_sec_speedup_never_fails(self):
        base = [make_record(updates_per_sec=1e6)]
        cand = [make_record(updates_per_sec=9e6)]  # 9x faster
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_updates_tolerance_is_adjustable(self):
        base = [make_record(updates_per_sec=2e6)]
        cand = [make_record(updates_per_sec=1.5e6)]  # -25%
        self.assertEqual(self.run_compare(base, cand, updates_tolerance=0.1), 1)

    def test_bytes_per_vm_growth_over_tolerance_trips_gate(self):
        base = [make_record(bytes_per_vm=300.0)]
        cand = [make_record(bytes_per_vm=400.0)]  # +33% > +25%
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_bytes_per_vm_growth_within_tolerance_passes(self):
        base = [make_record(bytes_per_vm=300.0)]
        cand = [make_record(bytes_per_vm=360.0)]  # +20%
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_bytes_per_vm_shrink_never_fails(self):
        base = [make_record(bytes_per_vm=1000.0)]
        cand = [make_record(bytes_per_vm=250.0)]  # 4x smaller
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_bytes_tolerance_is_adjustable(self):
        base = [make_record(bytes_per_vm=300.0)]
        cand = [make_record(bytes_per_vm=330.0)]  # +10%
        self.assertEqual(self.run_compare(base, cand, bytes_tolerance=0.05), 1)

    def test_ns_per_migration_growth_over_tolerance_trips_gate(self):
        base = [make_record(ns_per_migration=6000.0)]
        cand = [make_record(ns_per_migration=10000.0)]  # +66% > +50%
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_ns_per_migration_growth_within_tolerance_passes(self):
        base = [make_record(ns_per_migration=6000.0)]
        cand = [make_record(ns_per_migration=8000.0)]  # +33%
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_ns_per_migration_speedup_never_fails(self):
        base = [make_record(ns_per_migration=10000.0)]
        cand = [make_record(ns_per_migration=2000.0)]  # 5x faster
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_fold_p99_growth_over_tolerance_trips_gate(self):
        base = [make_record(fold_p99_ns=50000.0)]
        cand = [make_record(fold_p99_ns=110000.0)]  # +120% > +100%
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_fold_p99_growth_within_tolerance_passes(self):
        base = [make_record(fold_p99_ns=50000.0)]
        cand = [make_record(fold_p99_ns=90000.0)]  # +80%
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_fold_p99_shrink_never_fails(self):
        base = [make_record(fold_p99_ns=100000.0)]
        cand = [make_record(fold_p99_ns=10000.0)]  # 10x faster tail
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_fold_tolerance_is_adjustable(self):
        base = [make_record(fold_p99_ns=50000.0)]
        cand = [make_record(fold_p99_ns=60000.0)]  # +20%
        self.assertEqual(self.run_compare(base, cand, fold_tolerance=0.1), 1)

    def test_twelve_tick_row_gates_the_median_not_the_tail(self):
        # The drift-trigger row's p99 is the slowest of 12 folds: one slow
        # tick read 5.08 ms against 1.76-2.94 ms in seven other runs.
        base = [make_record(ticks=12, fold_p50_ns=1.1e6, fold_p99_ns=2.0e6)]
        cand = [make_record(ticks=12, fold_p50_ns=1.2e6, fold_p99_ns=5.08e6)]
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_twelve_tick_row_whose_median_doubles_fails(self):
        base = [make_record(ticks=12, fold_p50_ns=1.1e6, fold_p99_ns=2.0e6)]
        cand = [make_record(ticks=12, fold_p50_ns=2.5e6, fold_p99_ns=2.6e6)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.run_compare(base, cand), 1)
        self.assertIn("fold_p50_ns regressed", out.getvalue())

    def test_256_batch_row_whose_tail_doubles_fails(self):
        base = [make_record(batches=256, fold_p50_ns=1.7e6, fold_p99_ns=3.0e6)]
        cand = [make_record(batches=256, fold_p50_ns=1.7e6, fold_p99_ns=6.5e6)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.run_compare(base, cand), 1)
        self.assertIn("fold_p99_ns regressed", out.getvalue())

    def test_quick_side_decides_by_the_smaller_sample_count(self):
        # A --quick run folds 32 batches against the trajectory's 256.
        base = [make_record(batches=256, fold_p50_ns=1.7e6, fold_p99_ns=3.0e6)]
        tail = [make_record(batches=32, fold_p50_ns=1.8e6, fold_p99_ns=6.5e6)]
        median = [make_record(batches=32, fold_p50_ns=3.6e6, fold_p99_ns=4.0e6)]
        self.assertEqual(self.run_compare(base, tail), 0)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(self.run_compare(base, median), 1)

    def test_null_gated_metric_fails_with_row_and_metric_named(self):
        # bench_runner writes NaN/inf as null and --validate accepts it; an
        # undefined value on either side must fail the gate, not crash it.
        for field in bc.GATED_METRICS:
            for null_side in ("baseline", "candidate", "both"):
                with self.subTest(field=field, null_side=null_side):
                    base = make_record(calls=10, **{field: 1000.0})
                    cand = make_record(calls=10, **{field: 1000.0})
                    if null_side in ("baseline", "both"):
                        base[field] = None
                    if null_side in ("candidate", "both"):
                        cand[field] = None
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        status = self.run_compare([base], [cand])
                    self.assertEqual(status, 1)
                    self.assertIn(f"FAIL: micro/total_cost: {field} is null",
                                  out.getvalue())

    def test_null_metric_absent_from_other_side_still_fails(self):
        base = [make_record(fold_p99_ns=None)]
        cand = [make_record()]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(self.run_compare(base, cand), 1)

    def test_gated_metric_on_one_side_only_fails_by_name(self):
        # A bench that stops emitting a gated metric must not silently stop
        # being gated — nor may a row gain one its baseline never had.
        for field in bc.GATED_METRICS:
            for missing_side in ("baseline", "candidate"):
                with self.subTest(field=field, missing_side=missing_side):
                    base = make_record(calls=10, **{field: 1000.0})
                    cand = make_record(calls=10, **{field: 1000.0})
                    del (base if missing_side == "baseline" else cand)[field]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        status = self.run_compare([base], [cand])
                    self.assertEqual(status, 1)
                    self.assertIn(f"FAIL: micro/total_cost: {field} is missing "
                                  f"from the {missing_side}", out.getvalue())

    def test_ungated_metric_dropped_from_candidate_passes(self):
        base = [make_record(max_shard_queue_depth=1.0)]
        cand = [make_record()]
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_null_ungated_metric_passes(self):
        base = [make_record(final_ratio=None)]
        cand = [make_record(final_ratio=None)]
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_drift_trigger_row_validates_and_compares(self):
        row = make_record(suite="streaming-ingest",
                          scenario="canonical-2560/drift-trigger",
                          reopts=2.0, deltas_per_reopt=61440.0,
                          max_queue_depth=4.0, fold_p99_ns=80000.0,
                          trigger_p99_ns=700.0, updates_per_sec=2e6,
                          max_cost_ratio_vs_fresh=1.01)
        self.assertEqual(bc.validate(make_doc([row]), "f"), [])
        self.assertEqual(self.run_compare([row], [copy.deepcopy(row)]), 0)

    def test_huge_scale_accepted_by_validate(self):
        doc = make_doc([make_record()])
        doc["scale"] = "huge"
        self.assertEqual(bc.validate(doc, "f"), [])

    def test_new_scenario_fails_by_default(self):
        base = [make_record()]
        cand = [make_record(), make_record(scenario="brand-new")]
        self.assertEqual(self.run_compare(base, cand), 1)

    def test_allow_new_permits_new_scenarios(self):
        base = [make_record()]
        cand = [make_record(), make_record(scenario="brand-new")]
        self.assertEqual(self.run_compare(base, cand, fail_on_new=False), 0)

    def test_baseline_only_scenario_is_skipped_not_failed(self):
        base = [make_record(), make_record(scenario="paper-only")]
        cand = [make_record()]
        self.assertEqual(self.run_compare(base, cand), 0)

    def test_disjoint_documents_fail(self):
        base = [make_record(scenario="a")]
        cand = [make_record(scenario="b")]
        self.assertEqual(self.run_compare(base, cand, fail_on_new=False), 1)


class MainEndToEndTests(unittest.TestCase):
    """Drive main() exactly as CI does, through argv and real files."""

    def write(self, doc):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False,
                                        dir=self.tmp.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.argv = sys.argv

    def tearDown(self):
        sys.argv = self.argv

    def run_main(self, *args):
        sys.argv = ["bench_compare.py", *args]
        return bc.main()

    def test_validate_accepts_good_file(self):
        path = self.write(make_doc([make_record()]))
        self.assertEqual(self.run_main("--validate", path), 0)

    def test_validate_rejects_schema_drift(self):
        doc = make_doc([make_record()])
        doc["schema"] = "not-score-bench"
        self.assertEqual(self.run_main("--validate", self.write(doc)), 1)

    def test_gate_trip_through_files(self):
        base = self.write(make_doc([make_record(ns_per_call=1000.0)]))
        cand = self.write(make_doc([make_record(ns_per_call=2000.0)]))
        self.assertEqual(self.run_main(base, cand), 1)

    def test_null_one_sided_gate_metric_fails_through_files(self):
        base = self.write(make_doc([make_record(fold_p99_ns=None)]))
        cand = self.write(make_doc([make_record(fold_p99_ns=1000.0)]))
        self.assertEqual(self.run_main("--validate", base), 0)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(self.run_main(base, cand), 1)

    def test_allow_new_flag_through_files(self):
        base = self.write(make_doc([make_record()]))
        cand = self.write(make_doc([make_record(),
                                    make_record(scenario="new-suite")]))
        self.assertEqual(self.run_main(base, cand), 1)
        self.assertEqual(self.run_main("--allow-new", base, cand), 0)


PERF_METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rss_bytes_per_vm", "unit": "B", "better": "lower", "bound": 0.15},
    {"name": "cost_reduction_pct", "unit": "%", "better": "higher",
     "bound": 0.15},
]


def perf_result(run_s, reduction=50.0, failed=0):
    values = {"setup_s": 0.01, "run_s": run_s, "rss_bytes_per_vm": 100.0,
              "cost_reduction_pct": reduction}
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


class PerfPairSummaryTests(unittest.TestCase):
    def rows(self, pairs):
        rows, flags = pp.summarize(pairs, PERF_METRICS)
        return {r["metric"]: r for r in rows}, flags

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(pp.percentile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)
        self.assertEqual(pp.percentile([5.0, 1.0, 2.0, 4.0, 3.0], 0.25), 2.0)
        self.assertEqual(pp.percentile([7.0], 0.75), 7.0)

    def test_lower_is_better_wins_medians_and_iqr(self):
        rows, flags = self.rows([(1, perf_result(0.40), perf_result(0.20)),
                                 (2, perf_result(0.36), perf_result(0.21)),
                                 (3, perf_result(0.30), perf_result(0.35))])
        run = rows["run_s"]
        self.assertEqual((run["wins"], run["pairs"]), (2, 3))
        self.assertAlmostEqual(run["parent"]["median"], 0.36)
        self.assertAlmostEqual(run["parent"]["q1"], 0.33)
        self.assertAlmostEqual(run["parent"]["q3"], 0.38)
        self.assertAlmostEqual(run["head"]["median"], 0.21)
        self.assertAlmostEqual(run["change_pct"], 100.0 * (0.21 / 0.36 - 1.0))
        self.assertTrue(run["beyond_parent_iqr"])
        self.assertEqual(flags, [])

    def test_ties_are_not_wins_and_a_small_shift_stays_inside_the_iqr(self):
        rows, _ = self.rows([(1, perf_result(0.30), perf_result(0.30)),
                             (2, perf_result(0.40), perf_result(0.39)),
                             (3, perf_result(0.20), perf_result(0.21))])
        self.assertEqual(rows["run_s"]["wins"], 1)
        self.assertFalse(rows["run_s"]["beyond_parent_iqr"])
        self.assertEqual(rows["setup_s"]["wins"], 0)
        self.assertEqual(rows["setup_s"]["change_pct"], 0.0)

    def test_higher_is_better_counts_rises_as_wins(self):
        rows, flags = self.rows([(1, perf_result(0.3, 40.0), perf_result(0.3, 41.0)),
                                 (2, perf_result(0.3, 40.0), perf_result(0.3, 39.0))])
        self.assertEqual(rows["cost_reduction_pct"]["wins"], 1)
        self.assertEqual(len(flags), 2)

    def test_flags_cost_reduction_changes_and_failure_rises(self):
        _, flags = self.rows([
            (7001, perf_result(0.3, 90.0), perf_result(0.2, 90.5)),
            (7002, perf_result(0.3, failed=0), perf_result(0.2, failed=1)),
            (7003, perf_result(0.3, failed=2), perf_result(0.2, failed=1))])
        self.assertEqual(len(flags), 2)
        self.assertIn("seed 7001: cost_reduction_pct", flags[0])
        self.assertIn("seed 7002: failed 0 -> 1", flags[1])

    def test_report_lists_every_metric_and_flag(self):
        rows, flags = pp.summarize(
            [(9, perf_result(0.3, 90.0), perf_result(0.2, 91.0))], PERF_METRICS)
        report = pp.format_report("dist-ft16", rows, flags)
        for m in PERF_METRICS:
            self.assertIn(m["name"], report)
        self.assertIn("FLAG seed 9: cost_reduction_pct", report)


if __name__ == "__main__":
    unittest.main()
