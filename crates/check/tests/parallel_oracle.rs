//! Oracle for the benchmark harness's entry point
//! [`explore_schedules_parallel_monitored_observed_report`]: on the full n=2
//! schedule spaces, the verdict-signature set it produces must be
//! bit-identical to the sequential engine's, for every reduction × resume ×
//! checker mode — including on the seeded `DroppedRawFence` mutant. The
//! entry point once named a multi-threaded driver; it is now a shim that
//! runs the same engine with one factory-built monitor, whatever thread
//! count the config names, and `perfbench` compares its traced replicas
//! with `scl-check` reports on that premise.
//!
//! Schedule counts are compared too. The verdict is part of the signature
//! under both reductions: under source DPOR the bridge decides every order
//! of each explored trace's history, so the verdict is class-invariant.

use scl_check::{CheckerMode, LinMonitor};
use scl_core::{new_speculative_tas, A1Tas, A1Variant, A2Tas, Composed};
use scl_sim::{
    explore_schedules_monitored_observed_report,
    explore_schedules_parallel_monitored_observed_report, ExecutionResult, ExploreConfig,
    ExploreOutcome, NoObserver, Reduction, ResumeMode, SharedMemory, SimObject, Workload,
};
use scl_spec::{TasOp, TasSpec, TasSwitch};
use std::collections::BTreeSet;
use std::sync::Mutex;

type Wl = Workload<TasSpec, TasSwitch>;

/// A canonical per-schedule verdict signature: every operation's outcome
/// plus the bridge's linearizability verdict (message included, so the two
/// engines must agree on *what* they report, not just whether they pass).
fn signature(res: &ExecutionResult<TasSpec, TasSwitch>, verdict: &Result<(), String>) -> String {
    let mut ops: Vec<String> = res
        .ops
        .iter()
        .map(|o| format!("{}={:?}", o.req.id, o.outcome))
        .collect();
    ops.sort();
    match verdict {
        Ok(()) => format!("{}|lin=ok", ops.join(",")),
        Err(e) => format!("{}|lin=err:{e}", ops.join(",")),
    }
}

fn config(reduction: Reduction, resume: ResumeMode, threads: usize) -> ExploreConfig {
    ExploreConfig {
        max_schedules: 1_000_000,
        reduction,
        resume,
        threads,
        ..Default::default()
    }
}

fn sequential_signatures<O, F>(
    setup: F,
    wl: &Wl,
    reduction: Reduction,
    resume: ResumeMode,
    checker: CheckerMode,
) -> (BTreeSet<String>, u64)
where
    O: SimObject<TasSpec, TasSwitch>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut monitor = LinMonitor::new(TasSpec, checker);
    let mut set = BTreeSet::new();
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        &config(reduction, resume, 1),
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<TasSpec>| {
            let verdict = m.verdict();
            set.insert(signature(res, &verdict));
            Ok(())
        },
    );
    match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => (set, schedules),
        other => panic!("sequential exploration must exhaust, got {other:?}"),
    }
}

fn parallel_signatures<O, F>(
    setup: F,
    wl: &Wl,
    reduction: Reduction,
    resume: ResumeMode,
    checker: CheckerMode,
    threads: usize,
) -> (BTreeSet<String>, u64)
where
    O: SimObject<TasSpec, TasSwitch>,
    F: Fn(&mut SharedMemory) -> O + Sync,
{
    let set = Mutex::new(BTreeSet::new());
    let factory = move || LinMonitor::new(TasSpec, checker);
    let (report, monitors) = explore_schedules_parallel_monitored_observed_report(
        setup,
        wl,
        &config(reduction, resume, threads),
        &factory,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<TasSpec>| {
            let verdict = m.verdict();
            set.lock().unwrap().insert(signature(res, &verdict));
            Ok(())
        },
    );
    assert!(!monitors.is_empty(), "at least the root engine's monitor");
    match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => (set.into_inner().unwrap(), schedules),
        other => panic!("parallel exploration must exhaust, got {other:?}"),
    }
}

/// Runs the oracle for one object over every reduction × resume × checker
/// mode, asserting the shim reproduces the sequential engine's
/// verdict-signature set and schedule count exactly.
fn assert_parallel_matches_sequential<O, F>(setup: F, expect_violating_signatures: bool)
where
    O: SimObject<TasSpec, TasSwitch>,
    F: Fn(&mut SharedMemory) -> O + Sync,
{
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            for checker in [CheckerMode::Incremental, CheckerMode::FromScratch] {
                let (seq_set, seq_schedules) =
                    sequential_signatures(&setup, &wl, reduction, resume, checker);
                if expect_violating_signatures {
                    // Sanity: the mutant's two-winner histories are visible
                    // in every mode (two winners is a final-state property,
                    // which even plain source DPOR preserves).
                    assert!(
                        seq_set.iter().any(|s| s.contains("lin=err")),
                        "{reduction:?}/{resume:?}/{checker:?}: no violating signature"
                    );
                }
                let (par_set, par_schedules) =
                    parallel_signatures(&setup, &wl, reduction, resume, checker, 2);
                assert_eq!(
                    seq_set, par_set,
                    "verdict-signature sets diverge under {reduction:?}/{resume:?}/{checker:?}"
                );
                assert_eq!(
                    seq_schedules, par_schedules,
                    "schedule counts diverge under {reduction:?}/{resume:?}/{checker:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_n2_speculative_tas_in_every_mode() {
    assert_parallel_matches_sequential(new_speculative_tas, false);
}

#[test]
fn parallel_engine_matches_sequential_on_the_dropped_raw_fence_mutant_in_every_mode() {
    assert_parallel_matches_sequential(
        |mem: &mut SharedMemory| {
            Composed::new(
                A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
                A2Tas::new(mem),
            )
        },
        true,
    );
}
