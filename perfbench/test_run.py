"""Unit tests of the benchmark harness's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import itertools
import json
import unittest

import run

NAMES = ["spec_tas_n2", "abd_quorum_mutant", "abd_lossy_n2"]


def entry(outcome, schedules, steps, expect_violation=False, as_expected=True, **extra):
    e = {
        "outcome": outcome,
        "schedules": schedules,
        "executed_steps": steps,
        "executed_ticks": steps + 1,
        "checker_states": 7,
        "expect_violation": expect_violation,
        "underpowered": False,
        "as_expected": as_expected,
        "secs": 0.5,
        "violation": None,
        "telemetry": {
            "schedules": schedules,
            "sleep_blocked": 2 * schedules,
            "checkpoint_saves": 3,
            "checkpoint_restores": schedules,
            "races": 4,
            "race_seeds": 1,
            "hb_classes": schedules // 2,
            "delivery_branches": 5,
            "drop_branches": 6,
            "crash_branches": 8,
            "restart_branches": 9,
            "explore_secs": 0.25,
            "checker_secs": 0.01,
        },
    }
    e.update(extra)
    return e


def report_text(entries, exhausted=True):
    return json.dumps(
        {
            "tool": "scl-check",
            "config": {"workers": 1},
            "host": {"available_parallelism": 2},
            "exhausted": exhausted,
            "scenarios": entries,
            "all_as_expected": all(
                e.get("as_expected", True) for e in entries.values() if e["outcome"] != "skipped"
            ),
        }
    )


FULL = {
    "spec_tas_n2": entry("exhausted", 77, 533),
    "abd_quorum_mutant": entry(
        "violation",
        19685,
        24113,
        expect_violation=True,
        violation={"schedule": [0, 3, 1], "message": "stale read"},
    ),
    "abd_lossy_n2": entry("limit_reached", 200000, 528133),
}


class ParseReport(unittest.TestCase):
    def test_full_report(self):
        r = run.parse_report(report_text(FULL), NAMES)
        self.assertTrue(r["exhausted"])
        self.assertTrue(r["all_as_expected"])
        self.assertEqual(r["skipped"], [])
        self.assertEqual(sorted(r["scenarios"]), sorted(NAMES))
        self.assertEqual(run.unexpected_outcomes(r, NAMES), 0)
        self.assertEqual(r["available_parallelism"], 2)

    def test_partial_report_lists_skipped_scenarios(self):
        entries = {
            "spec_tas_n2": FULL["spec_tas_n2"],
            "abd_quorum_mutant": {"outcome": "skipped", "reason": "time budget exhausted"},
            "abd_lossy_n2": {"outcome": "skipped", "reason": "time budget exhausted"},
        }
        r = run.parse_report(report_text(entries, exhausted=False), NAMES)
        self.assertFalse(r["exhausted"])
        self.assertEqual(sorted(r["skipped"]), ["abd_lossy_n2", "abd_quorum_mutant"])
        self.assertEqual(list(r["scenarios"]), ["spec_tas_n2"])
        # A scenario that never ran counts as an unexpected outcome.
        self.assertEqual(run.unexpected_outcomes(r, NAMES), 2)

    def test_all_skipped_setup_report(self):
        entries = {n: {"outcome": "skipped", "reason": "time budget exhausted"} for n in NAMES}
        r = run.parse_report(report_text(entries, exhausted=False), NAMES)
        self.assertEqual(len(r["skipped"]), len(NAMES))
        self.assertEqual(r["scenarios"], {})

    def test_unexpected_outcome_is_counted(self):
        entries = dict(FULL)
        entries["spec_tas_n2"] = entry("violation", 3, 20, as_expected=False)
        r = run.parse_report(report_text(entries), NAMES)
        self.assertFalse(r["all_as_expected"])
        self.assertEqual(run.unexpected_outcomes(r, NAMES), 1)

    def test_rejects_malformed_documents(self):
        with self.assertRaises(run.BenchError):
            run.parse_report("{not json", NAMES)
        with self.assertRaises(run.BenchError):
            run.parse_report(json.dumps({"tool": "other"}), NAMES)
        with self.assertRaises(run.BenchError):
            run.parse_report(report_text(FULL), NAMES[:2])
        broken = dict(FULL)
        broken["spec_tas_n2"] = {"outcome": "exhausted", "schedules": 1}
        with self.assertRaises(run.BenchError):
            run.parse_report(report_text(broken), NAMES)


class Drift(unittest.TestCase):
    def test_sequential_counts_must_repeat_exactly(self):
        a = {"spec_tas_n3": (11923, 75087)}
        self.assertEqual(run.counts_drift(a, dict(a), 0.0), [])
        self.assertEqual(run.counts_drift(a, {"spec_tas_n3": (11923, 75088)}, 0.0), ["spec_tas_n3"])
        self.assertEqual(run.counts_drift(a, {}, 0.0), ["spec_tas_n3"])

    def test_parallel_counts_may_move_within_tolerance(self):
        a = {"abd_partition_minority_n2": (20000, 185181)}
        b = {"abd_partition_minority_n2": (20000, 183379)}
        c = {"abd_partition_minority_n2": (20000, 185181 - 10000)}
        self.assertEqual(run.counts_drift(a, b, run.PARALLEL_DRIFT), [])
        self.assertEqual(run.counts_drift(a, c, run.PARALLEL_DRIFT), ["abd_partition_minority_n2"])


class Percentiles(unittest.TestCase):
    def test_too_few_samples_give_no_high_percentile(self):
        s = run.timing_summary([3.0, 1.0, 2.0])
        self.assertEqual(s["median"], 2.0)
        self.assertIsNone(s["high"])
        self.assertEqual(s["samples"], 3)

    def test_highest_percentile_keeps_ten_samples_beyond_it(self):
        # 20 samples: only the median has >= 10 beyond it.
        s = run.timing_summary(list(range(1, 21)))
        self.assertEqual(s["high"]["percentile"], 50.0)
        # 100 samples: p90 has 10 beyond it, p99 only 1.
        s = run.timing_summary(list(range(1, 101)))
        self.assertEqual(s["high"], {"percentile": 90.0, "value": 90})
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["samples"], 100)

    def test_weighted_samples(self):
        # 1000 samples: p99 has exactly 10 beyond it.
        s = run.timing_summary([(1.0, 900), (5.0, 90), (9.0, 10)])
        self.assertEqual(s["samples"], 1000)
        self.assertEqual(s["median"], 1.0)
        self.assertEqual(s["high"], {"percentile": 99.0, "value": 5.0})

    def test_weighted_quantile_is_nearest_rank(self):
        pairs = [(10, 1), (20, 1), (30, 1), (40, 1)]
        self.assertEqual(run.weighted_quantile(pairs, 0.5), 20)
        self.assertEqual(run.weighted_quantile(pairs, 0.51), 30)
        self.assertEqual(run.weighted_quantile(pairs, 1.0), 40)


class Ratios(unittest.TestCase):
    def test_ratio_records_its_base(self):
        bases = {}
        self.assertEqual(run.ratio(bases, "x", 3, 4), 0.75)
        self.assertEqual(bases["x"], {"num": 3, "den": 4})
        self.assertEqual(run.ratio(bases, "y", 3, 0), 0.0)
        self.assertEqual(bases["y"], {"num": 3, "den": 0})

    def test_layer_counts(self):
        r = run.parse_report(report_text(FULL), NAMES)
        bases = {}
        m = run.layer_counts(r, bases)
        schedules = 77 + 19685 + 200000
        self.assertEqual(m["explore.schedules"], schedules)
        self.assertEqual(m["explore.executed_steps"], 533 + 24113 + 528133)
        self.assertEqual(m["explore.bounded_verdicts"], 1)
        self.assertEqual(m["explore.schedules_to_violation"], 19685)
        self.assertEqual(m["explore.sleep_blocked_per_schedule"], 2.0)
        self.assertEqual(bases["hb.races_per_schedule"], {"num": 12, "den": schedules})
        self.assertEqual(m["hb.seed_ratio"], 0.25)
        self.assertEqual(bases["explore.steps_per_s"]["den"], 0.75)
        self.assertEqual(m["executor.ticks"], 533 + 24113 + 528133 + 3)
        self.assertEqual(m["spec.checker_states"], 21)

    def test_layer_spans(self):
        spans = {layer: {"count": 10, "s": 0.1} for layer in (
            "core.step", "core.object_checkpoint", "bridge.record", "spec.verdict",
            "memory.snapshot", "memory.restore", "harness.sample")}
        replica = {"wall_s": 2.0, "busy_s": 3.0, "workers": 2, "spans": spans}
        bases = {}
        m = run.layer_spans([replica], untraced_secs=1.6, total_secs=2.0, bases=bases)
        # Two workers busy for 3.0 s of thread time, 0.7 s of it in spans.
        self.assertAlmostEqual(m["explore.self_s"], 3.0 - 0.7)
        self.assertAlmostEqual(m["core.step_ns"], 1e7)
        self.assertAlmostEqual(m["explore.worker_busy_frac"], 0.75)
        self.assertEqual(bases["explore.worker_busy_frac"], {"num": 3.0, "den": 4.0})
        self.assertAlmostEqual(m["trace.overhead"], 1.25)
        self.assertAlmostEqual(m["trace.coverage"], 0.8)


class Speedup(unittest.TestCase):
    def test_median_of_pair_ratios(self):
        bases = {}
        pairs = [(1.0, 0.5), (3.0, 1.0), (0.9, 0.9)]
        self.assertAlmostEqual(run.parallel_speedup(pairs, bases), 2.0)
        self.assertEqual(bases["explore.parallel_speedup"], {"seq_par_pairs": pairs})


class Calibration(unittest.TestCase):
    def test_each_time_is_scaled_by_the_samples_around_it(self):
        ref = run.CAL_REF_S
        # A host twice as slow as the reference halves the times.
        self.assertAlmostEqual(run.calibrated([0.3, 0.1, 0.2], [[2 * ref]] * 4), 0.1)
        # The first time ran at the reference speed, the second on a host
        # three times slower (the mean of the gaps around it): both scale
        # to 0.1.
        gaps = [[ref], [ref], [5 * ref]]
        self.assertAlmostEqual(run.calibrated([0.1, 0.3], gaps), 0.1)

    def test_needs_samples_around_every_time(self):
        with self.assertRaises(ValueError):
            run.calibrated([1.0, 2.0], [[0.01], [0.01]])
        with self.assertRaises(ValueError):
            run.calibrated([1.0], [[0.01], []])


class Fidelity(unittest.TestCase):
    def test_replica_must_match_counts_and_verdict(self):
        e = FULL["abd_quorum_mutant"]
        good = {"outcome": "violation", "schedules": 19685, "executed_steps": 24113,
                "violation_schedule": [0, 3, 1]}
        self.assertTrue(run.replica_agrees(good, e, 0.0))
        self.assertFalse(run.replica_agrees(dict(good, executed_steps=24114), e, 0.0))
        self.assertFalse(run.replica_agrees(dict(good, violation_schedule=[0, 1]), e, 0.0))
        self.assertFalse(run.replica_agrees(dict(good, outcome="exhausted"), e, 0.0))


def orders(seed, passes):
    return list(itertools.islice(run.pass_orders(run.SHM_VERIFY, seed), passes))


class SeedPermutation(unittest.TestCase):
    def test_same_seed_same_orders(self):
        self.assertEqual(orders(7, 5), orders(7, 5))

    def test_each_order_is_a_permutation(self):
        for order in orders(3, 10):
            self.assertEqual(sorted(order), sorted(run.SHM_VERIFY))

    def test_seeds_and_passes_differ(self):
        a, b = orders(1, 2), orders(2, 2)
        self.assertNotEqual(a, b)
        self.assertNotEqual(a[0], a[1])


class Workloads(unittest.TestCase):
    def test_selections(self):
        self.assertEqual(len(run.SHM_VERIFY), 25)
        self.assertFalse(set(run.SHM_VERIFY) & set(run.ABD_BOUNDED))
        for spec in run.WORKLOADS.values():
            self.assertLessEqual(set(spec["traced"]), set(spec["scenarios"]))
        self.assertEqual(run.WORKLOADS["abd_parallel"]["workers"], 2)

    def test_budget_args(self):
        self.assertEqual(run.budget_args(run.WORKLOADS["shm_verify"]), [])
        self.assertEqual(
            run.budget_args(run.WORKLOADS["abd_parallel"]),
            ["--workers", 2, "--max-schedules", run.ABD_BUDGET],
        )
        argv = run.check_argv("scl-check", ["a"], run.WORKLOADS["abd_bounded"], "--x")
        self.assertEqual(argv, ["scl-check", "a", "--json", "-", "--max-schedules", 20000, "--x"])

    def test_result_line(self):
        line = json.loads(run.result_line(True, 3, 0, {"wall_s": 1.5, "executor.ticks": 9}))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(line["metrics"]["wall_s"], {"value": 1.5, "unit": "s"})
        self.assertEqual(line["metrics"]["executor.ticks"]["unit"], "count")

    def test_metric_lists_are_distinct(self):
        self.assertEqual(len(set(run.PER_LAYER)), len(run.PER_LAYER))
        self.assertFalse(set(run.PER_LAYER) & set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
