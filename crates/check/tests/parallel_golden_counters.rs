//! Golden parallel exploration: `scl-check --workers 2` must explore exactly
//! the tree recorded here for every registered scenario that exhausts, and
//! report exactly the recorded counterexample for every scenario that
//! violates.
//!
//! Under source DPOR the two-worker engine explores a deterministic
//! refinement of the sequential tree (on the full n=3 speculative-TAS space
//! under the lin-preserving relation: 26374 schedules against 11923), so
//! `golden_counters.rs`, which runs the sequential engine, does not fix its
//! shape. For an exhausting scenario the tree is a pure
//! function of the branch tickets, so its schedules, executed steps and
//! ticks, races and race seeds are pinned exactly. A violating scenario
//! reports the first violation in ticket order, which is deterministic too,
//! but how much of the later tickets the other worker explores before it
//! learns of the violation depends on thread timing, so only the outcome
//! and the reported schedule are pinned. The three ABD scenarios that stop
//! at the schedule cap are left out: which schedules fill the cap races
//! between the workers.

use scl_check::{parse_json, Json};
use std::process::Command;

/// Per exhausting scenario: `[schedules, executed_steps, executed_ticks,
/// races, race_seeds]` under `--workers 2`.
#[rustfmt::skip]
const EXHAUSTED: [(&str, [u64; 5]); 14] = [
    ("spec_tas_n2", [77, 554, 568, 179, 71]),
    ("spec_tas_n3", [1956, 12469, 12585, 6701, 2040]),
    ("solo_fast_tas_n2", [77, 533, 547, 179, 71]),
    ("a1_n2", [65, 467, 481, 146, 59]),
    ("resettable_tas_n2", [392, 3989, 4460, 965, 378]),
    ("universal_queue_n2", [605, 10027, 10749, 1589, 596]),
    ("universal_register_n2", [605, 10027, 10749, 1589, 596]),
    ("consensus_split_n2", [81, 623, 641, 202, 73]),
    ("consensus_cas_n2", [8, 29, 37, 14, 5]),
    ("crash_spec_tas_n2", [377, 1184, 1816, 428, 72]),
    ("crash_write_behind_open_n2", [36, 115, 176, 62, 14]),
    ("recovery_tas_n2", [102, 278, 411, 160, 54]),
    ("recovery_write_behind_flush_durable_n2", [442, 1693, 2076, 961, 360]),
    ("recovery_write_behind_abandon_durable_n2", [361, 1386, 1732, 740, 279]),
];

/// Per violating scenario: the raw ids of the reported schedule under
/// `--workers 2`.
#[rustfmt::skip]
const VIOLATIONS: [(&str, &[u64]); 11] = [
    ("spec_tas_n3_realtime", &[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 2, 2, 2, 0]),
    ("a1_dropped_raw_fence_n2", &[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]),
    ("crash_write_behind_strict_n2", &[0, 0, 2, 1, 1, 1, 1, 1, 1, 1]),
    ("crash_resettable_tas_wedge_n2", &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 1, 1]),
    ("crash_a1_dropped_raw_fence_n2", &[0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]),
    ("recovery_tas_mutant_n2", &[0, 0, 1, 3, 5, 0, 1]),
    ("recovery_write_behind_flush_strict_n2", &[0, 0, 2, 1, 1, 1, 1, 1, 1, 1]),
    ("recovery_write_behind_abandon_recoverable_n2", &[0, 0, 1, 1, 2, 4, 0, 0, 1, 1, 1, 1]),
    ("recovery_recrash_unrecovered_n2", &[0, 0, 1, 2, 1, 1, 1, 1, 1, 4, 0, 2, 1]),
    ("abd_partition_majority_wedge_n2", &[0, 0, 0, 1, 1, 1, 4, 5, 14, 1, 15, 0]),
    ("abd_quorum_mutant", &[0, 0, 0, 3, 24, 0, 0, 0, 5, 22, 0, 0, 0, 0, 6, 4, 2, 21, 0, 0, 0, 8, 9, 7, 18, 0]),
];

/// The scenarios that stop at the default schedule cap.
const CAPPED: [&str; 3] = [
    "abd_lossy_n2",
    "abd_partition_minority_n2",
    "abd_retry_exhaustion_abort_n2",
];

/// Runs the named scenarios with two workers and returns the report's
/// `scenarios` object.
fn run_two_workers(names: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_scl-check"))
        .args(names)
        .args(["--workers", "2", "--json", "-"])
        .output()
        .expect("scl-check runs");
    assert!(
        out.status.success(),
        "scl-check exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = parse_json(&stdout).unwrap_or_else(|e| panic!("not JSON ({e}):\n{stdout}"));
    doc.get("scenarios").expect("scenarios object").clone()
}

fn count(entry: &Json, key: &str) -> u64 {
    entry
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing count `{key}`"))
}

#[test]
fn the_golden_tables_cover_every_uncapped_scenario() {
    let mut golden: Vec<&str> = EXHAUSTED
        .iter()
        .map(|(name, _)| *name)
        .chain(VIOLATIONS.iter().map(|(name, _)| *name))
        .chain(CAPPED)
        .collect();
    let mut registered: Vec<&str> = scl_check::registry().iter().map(|s| s.name).collect();
    golden.sort_unstable();
    registered.sort_unstable();
    assert_eq!(golden, registered);
}

#[test]
fn two_worker_trees_match_the_golden_table() {
    let names: Vec<&str> = EXHAUSTED
        .iter()
        .map(|(name, _)| *name)
        .chain(VIOLATIONS.iter().map(|(name, _)| *name))
        .collect();
    let scenarios = run_two_workers(&names);
    let mut mismatches = Vec::new();
    for (name, expected) in EXHAUSTED {
        let entry = scenarios.get(name).expect("scenario entry");
        let telemetry = entry.get("telemetry").expect("telemetry object");
        let actual = [
            count(entry, "schedules"),
            count(entry, "executed_steps"),
            count(entry, "executed_ticks"),
            count(telemetry, "races"),
            count(telemetry, "race_seeds"),
        ];
        let outcome = entry.get("outcome").and_then(Json::as_str);
        if outcome != Some("exhausted") || actual != expected {
            mismatches.push(format!(
                "{name}: {outcome:?} {actual:?}, expected {expected:?}"
            ));
        }
    }
    for (name, expected) in VIOLATIONS {
        let entry = scenarios.get(name).expect("scenario entry");
        let schedule: Option<Vec<u64>> = entry
            .get("violation")
            .and_then(|v| v.get("schedule"))
            .and_then(Json::as_arr)
            .and_then(|ids| ids.iter().map(Json::as_u64).collect());
        if schedule.as_deref() != Some(expected) {
            mismatches.push(format!(
                "{name}: violation schedule {schedule:?}, expected {expected:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
