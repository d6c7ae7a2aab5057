//! Golden exploration counters: every registered `scl-check` scenario, run
//! under the default configuration (`source-dpor-lin`, prefix-resume,
//! incremental checker, sequential engine), must explore exactly the tree
//! recorded here. The four outcome-only scenarios (no linearizability check)
//! run that default as plain source DPOR.
//!
//! The counters pin the *shape* of the explored tree, not its speed:
//! schedules, executed steps and ticks, races and race seeds, distinct
//! happens-before classes, sleep-blocked continuations, checkpoint saves and
//! restores, executed crash/delivery/drop/restart transitions, and the split
//! of executed ticks into first-time and replayed ones. A change that is meant to cost less but explore the same
//! tree (a faster clock join, cheaper checkpoints, a tighter hot loop) must
//! leave every number here unchanged; a change that reshapes the tree on
//! purpose must update the table and say why.
//!
//! The three ABD scenarios that stop at the schedule cap under the default
//! budget run at a cap of [`ABD_CAP`] schedules here, which keeps the whole
//! test to a few seconds in a debug build.

use scl::check::{registry, CheckConfig, Outcome};
use scl::sim::TelemetryObserver;
use std::sync::Arc;

/// Schedule cap of the bounded ABD scenarios.
const ABD_CAP: u64 = 2_000;

/// The scenarios that never exhaust under the default budget.
const BOUNDED: [&str; 3] = [
    "abd_lossy_n2",
    "abd_partition_minority_n2",
    "abd_retry_exhaustion_abort_n2",
];

/// Per scenario: outcome tag, then `[schedules, executed_steps,
/// executed_ticks, races, race_seeds, hb_classes, sleep_blocked,
/// checkpoint_saves, checkpoint_restores, crash_steps, delivery_steps,
/// drop_steps, restart_steps, explored_ticks, replayed_ticks]`.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, [u64; 15]); 28] = [
    ("spec_tas_n2", "exhausted", [77, 533, 542, 179, 76, 28, 0, 185, 76, 0, 0, 0, 0, 542, 0]),
    ("spec_tas_n3", "exhausted", [1956, 12456, 12567, 6701, 2044, 1956, 89, 5065, 2044, 0, 0, 0, 0, 12567, 0]),
    ("spec_tas_n3_realtime", "violation", [1859, 11630, 11700, 6451, 1930, 1857, 67, 4755, 1925, 0, 0, 0, 0, 11700, 0]),
    ("solo_fast_tas_n2", "exhausted", [77, 517, 526, 179, 76, 28, 0, 184, 76, 0, 0, 0, 0, 526, 0]),
    ("a1_n2", "exhausted", [65, 446, 455, 146, 64, 24, 0, 152, 64, 0, 0, 0, 0, 455, 0]),
    ("a1_dropped_raw_fence_n2", "violation", [6, 43, 47, 14, 8, 6, 0, 25, 5, 0, 0, 0, 0, 47, 0]),
    ("resettable_tas_n2", "exhausted", [392, 3844, 4290, 965, 391, 157, 0, 1339, 391, 0, 0, 0, 0, 4290, 0]),
    ("universal_queue_n2", "exhausted", [605, 9986, 10700, 1589, 604, 272, 0, 4048, 604, 0, 0, 0, 0, 10700, 0]),
    ("universal_register_n2", "exhausted", [605, 9986, 10700, 1589, 604, 272, 0, 4048, 604, 0, 0, 0, 0, 10700, 0]),
    ("consensus_split_n2", "exhausted", [81, 599, 610, 202, 80, 36, 0, 165, 80, 0, 0, 0, 0, 610, 0]),
    ("consensus_cas_n2", "exhausted", [8, 28, 34, 14, 7, 6, 0, 10, 7, 0, 0, 0, 0, 34, 0]),
    ("crash_spec_tas_n2", "exhausted", [377, 1048, 1648, 428, 81, 146, 272, 479, 648, 567, 0, 0, 0, 1648, 0]),
    ("crash_write_behind_open_n2", "exhausted", [36, 113, 170, 62, 16, 36, 7, 29, 42, 26, 0, 0, 0, 170, 0]),
    ("crash_write_behind_strict_n2", "violation", [9, 37, 54, 19, 6, 9, 3, 9, 11, 6, 0, 0, 0, 54, 0]),
    ("crash_resettable_tas_wedge_n2", "violation", [2, 25, 30, 2, 2, 2, 0, 15, 1, 1, 0, 0, 0, 30, 0]),
    ("crash_a1_dropped_raw_fence_n2", "violation", [38, 108, 171, 74, 15, 30, 24, 57, 61, 52, 0, 0, 0, 171, 0]),
    ("recovery_tas_n2", "exhausted", [102, 268, 390, 160, 56, 74, 1, 112, 102, 23, 0, 0, 30, 390, 0]),
    ("recovery_tas_mutant_n2", "violation", [11, 18, 34, 14, 6, 11, 0, 12, 10, 7, 0, 0, 2, 34, 0]),
    ("recovery_write_behind_flush_durable_n2", "exhausted", [442, 1691, 2070, 961, 362, 259, 0, 486, 441, 26, 0, 0, 60, 2070, 0]),
    ("recovery_write_behind_flush_strict_n2", "violation", [47, 188, 235, 99, 36, 25, 0, 61, 46, 6, 0, 0, 8, 235, 0]),
    ("recovery_write_behind_abandon_durable_n2", "exhausted", [361, 1384, 1726, 740, 281, 205, 0, 413, 360, 26, 0, 0, 60, 1726, 0]),
    ("recovery_write_behind_abandon_recoverable_n2", "violation", [26, 96, 123, 47, 18, 19, 0, 33, 25, 4, 0, 0, 7, 123, 0]),
    ("recovery_recrash_unrecovered_n2", "violation", [4, 15, 23, 6, 3, 4, 0, 12, 3, 2, 0, 0, 1, 23, 0]),
    ("abd_partition_majority_wedge_n2", "violation", [1, 4, 12, 2, 2, 1, 0, 10, 0, 0, 4, 0, 0, 12, 0]),
    ("abd_quorum_mutant", "violation", [19, 90, 229, 49, 20, 19, 0, 202, 18, 0, 133, 0, 0, 229, 0]),
    ("abd_lossy_n2", "limit_reached", [2000, 2999, 6673, 2464, 1013, 2000, 244, 2265, 2244, 1244, 2427, 1, 0, 6673, 0]),
    ("abd_partition_minority_n2", "limit_reached", [2000, 6368, 11672, 5234, 2160, 2000, 145, 4579, 2145, 0, 5158, 0, 0, 11672, 0]),
    ("abd_retry_exhaustion_abort_n2", "limit_reached", [2000, 5121, 9525, 4271, 1516, 1424, 258, 3486, 2258, 0, 3624, 778, 0, 9525, 0]),
];

const FIELDS: [&str; 15] = [
    "schedules",
    "executed_steps",
    "executed_ticks",
    "races",
    "race_seeds",
    "hb_classes",
    "sleep_blocked",
    "checkpoint_saves",
    "checkpoint_restores",
    "crash_steps",
    "delivery_steps",
    "drop_steps",
    "restart_steps",
    "explored_ticks",
    "replayed_ticks",
];

#[test]
fn golden_table_covers_the_registry() {
    let mut golden: Vec<&str> = GOLDEN.iter().map(|(name, _, _)| *name).collect();
    let mut registered: Vec<&str> = registry().iter().map(|s| s.name).collect();
    golden.sort_unstable();
    registered.sort_unstable();
    assert_eq!(
        golden, registered,
        "every registered scenario needs a golden row (and every row a scenario)"
    );
}

#[test]
fn exploration_counters_match_the_golden_table() {
    let mut mismatches = Vec::new();
    for (name, tag, expected) in GOLDEN {
        let scenario = scl::check::find(name).expect("golden scenario is registered");
        let observer = Arc::new(TelemetryObserver::new(0, 0));
        let mut config = CheckConfig {
            observer: Some(observer.clone()),
            ..Default::default()
        };
        if BOUNDED.contains(&name) {
            config.explore.max_schedules = ABD_CAP;
        }
        let report = scenario.run(&config);
        assert!(
            !matches!(
                report.outcome,
                Outcome::ConfigError(_) | Outcome::HarnessFailure { .. }
            ),
            "{name}: {:?}",
            report.outcome
        );
        let stats = &report.explore;
        let actual = [
            stats.schedules,
            stats.executed_steps,
            stats.executed_ticks,
            stats.races,
            stats.race_seeds,
            observer.snapshot().hb_classes,
            stats.sleep_blocked,
            stats.snapshots,
            stats.checkpoint_restores,
            stats.crash_steps,
            stats.delivery_steps,
            stats.drop_steps,
            stats.restart_steps,
            stats.executed_ticks - stats.replayed_ticks,
            stats.replayed_ticks,
        ];
        if report.outcome.tag() != tag {
            mismatches.push(format!("{name}: outcome {} != {tag}", report.outcome.tag()));
        }
        for ((field, a), e) in FIELDS.iter().zip(actual).zip(expected) {
            if a != e {
                mismatches.push(format!("{name}: {field} {a} != {e}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "the explored tree changed:\n{}",
        mismatches.join("\n")
    );
}
