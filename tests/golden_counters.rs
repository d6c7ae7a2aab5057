//! Golden exploration counters: every registered `scl-check` scenario, run
//! under the default configuration (plain source
//! DPOR, with prefix-resume, the incremental checker and the sequential
//! engine), must explore exactly the tree recorded here.
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
    ("spec_tas_n2", "exhausted", [26, 184, 190, 59, 25, 26, 0, 64, 25, 0, 0, 0, 0, 190, 0]),
    ("spec_tas_n3", "exhausted", [1956, 12456, 12567, 6701, 2044, 1956, 89, 5065, 2044, 0, 0, 0, 0, 12567, 0]),
    ("spec_tas_n3_realtime", "violation", [9, 73, 85, 30, 12, 9, 0, 45, 8, 0, 0, 0, 0, 85, 0]),
    ("solo_fast_tas_n2", "exhausted", [26, 178, 184, 59, 25, 26, 0, 63, 25, 0, 0, 0, 0, 184, 0]),
    ("a1_n2", "exhausted", [22, 155, 161, 48, 21, 22, 0, 53, 21, 0, 0, 0, 0, 161, 0]),
    ("a1_dropped_raw_fence_n2", "violation", [5, 40, 44, 12, 7, 5, 0, 24, 4, 0, 0, 0, 0, 44, 0]),
    ("resettable_tas_n2", "exhausted", [57, 603, 688, 135, 56, 57, 0, 367, 56, 0, 0, 0, 0, 688, 0]),
    ("universal_queue_n2", "exhausted", [270, 4433, 4758, 702, 269, 270, 0, 1824, 269, 0, 0, 0, 0, 4758, 0]),
    ("universal_register_n2", "exhausted", [270, 4433, 4758, 702, 269, 270, 0, 1824, 269, 0, 0, 0, 0, 4758, 0]),
    ("consensus_split_n2", "exhausted", [34, 246, 255, 79, 33, 34, 0, 73, 33, 0, 0, 0, 0, 255, 0]),
    ("consensus_cas_n2", "exhausted", [4, 14, 18, 6, 3, 4, 0, 6, 3, 0, 0, 0, 0, 18, 0]),
    ("crash_spec_tas_n2", "exhausted", [120, 327, 526, 88, 25, 120, 93, 161, 212, 187, 0, 0, 0, 526, 0]),
    ("crash_write_behind_open_n2", "exhausted", [13, 53, 76, 18, 7, 13, 3, 13, 15, 8, 0, 0, 0, 76, 0]),
    ("crash_write_behind_strict_n2", "violation", [2, 11, 17, 2, 2, 2, 0, 4, 1, 1, 0, 0, 0, 17, 0]),
    ("crash_resettable_tas_wedge_n2", "violation", [2, 25, 30, 2, 2, 2, 0, 15, 1, 1, 0, 0, 0, 30, 0]),
    ("crash_a1_dropped_raw_fence_n2", "violation", [23, 70, 105, 23, 9, 23, 10, 40, 32, 28, 0, 0, 0, 105, 0]),
    ("recovery_tas_n2", "exhausted", [44, 116, 184, 74, 21, 44, 2, 54, 45, 18, 0, 0, 18, 184, 0]),
    ("recovery_tas_mutant_n2", "violation", [9, 16, 30, 9, 4, 9, 0, 11, 8, 5, 0, 0, 2, 30, 0]),
    ("recovery_write_behind_flush_durable_n2", "exhausted", [132, 550, 696, 298, 103, 132, 0, 161, 131, 8, 0, 0, 23, 696, 0]),
    ("recovery_write_behind_flush_strict_n2", "violation", [2, 11, 17, 2, 2, 2, 0, 10, 1, 1, 0, 0, 0, 17, 0]),
    ("recovery_write_behind_abandon_durable_n2", "exhausted", [98, 413, 537, 219, 69, 98, 0, 127, 97, 8, 0, 0, 23, 537, 0]),
    ("recovery_write_behind_abandon_recoverable_n2", "violation", [13, 53, 71, 27, 9, 13, 0, 22, 12, 1, 0, 0, 5, 71, 0]),
    ("recovery_recrash_unrecovered_n2", "violation", [4, 15, 23, 5, 3, 4, 0, 12, 3, 2, 0, 0, 1, 23, 0]),
    ("abd_partition_majority_wedge_n2", "violation", [1, 4, 12, 2, 2, 1, 0, 10, 0, 0, 4, 0, 0, 12, 0]),
    ("abd_quorum_mutant", "violation", [19, 90, 229, 49, 20, 19, 0, 202, 18, 0, 133, 0, 0, 229, 0]),
    ("abd_lossy_n2", "limit_reached", [2000, 2999, 6673, 2464, 1013, 2000, 244, 2265, 2244, 1244, 2427, 1, 0, 6673, 0]),
    ("abd_partition_minority_n2", "limit_reached", [2000, 6368, 11672, 5234, 2160, 2000, 145, 4579, 2145, 0, 5158, 0, 0, 11672, 0]),
    ("abd_retry_exhaustion_abort_n2", "limit_reached", [2000, 5121, 9525, 4267, 1515, 1424, 258, 3486, 2258, 0, 3624, 778, 0, 9525, 0]),
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
            !matches!(report.outcome, Outcome::HarnessFailure { .. }),
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
