//! Oracle tests for the linearizability-preserving reduction and the
//! incremental checker: everything is validated against unreduced full
//! enumeration and the from-scratch Wing–Gong checker.

use scl_check::{
    find, run_selection, CheckConfig, CheckerMode, CrashedPending, LinMonitor, Outcome, Scenario,
};
use scl_core::{
    new_speculative_tas, A1Tas, A1Variant, A2Tas, AbdRegister, Composed, RecoverableTas,
    WbRecovery, WriteBehindRegister,
};
use scl_sim::{
    explore_schedules_monitored_observed_report, explore_schedules_report, ExecutionResult,
    ExploreConfig, ExploreError, ExploreOutcome, ExploreStats, NoObserver, OpOutcome, Reduction,
    ResumeMode, SharedMemory, SimObject, Workload,
};
use scl_spec::{
    check_linearizable, RegisterOp, RegisterSpec, SequentialSpec, TasOp, TasSpec, TasSwitch,
};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

type Wl = Workload<TasSpec, TasSwitch>;

/// Representatives the removed eager lin-preserving sleep-set mode explored
/// on the n=2 speculative-TAS space (prefix-resume).
const EAGER_LIN_N2_SCHEDULES: u64 = 79;

/// A canonical per-schedule signature: every operation's outcome plus the
/// linearizability verdict of the commit projection. Two schedules with the
/// same signature are indistinguishable to any check over outcomes and
/// real-time precedence.
fn signature(res: &ExecutionResult<TasSpec, TasSwitch>) -> String {
    let mut ops: Vec<String> = res
        .ops
        .iter()
        .map(|o| format!("{}={:?}", o.req.id, o.outcome))
        .collect();
    ops.sort();
    let lin = check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable();
    format!("{}|lin={lin}", ops.join(","))
}

/// Collects the signature set of a whole exploration (never failing a
/// schedule, so violating schedules are recorded instead of aborting).
fn signature_set<O, F>(setup: F, wl: &Wl, reduction: Reduction) -> (BTreeSet<String>, u64)
where
    O: scl_sim::SimObject<TasSpec, TasSwitch>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut set = BTreeSet::new();
    let report = explore_schedules_report(
        setup,
        wl,
        &ExploreConfig {
            max_schedules: 1_000_000,
            reduction,
            resume: ResumeMode::PrefixResume,
            ..Default::default()
        },
        |res, _mem| {
            set.insert(signature(res));
            Ok(())
        },
    );
    let schedules = match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => schedules,
        other => panic!("exploration must exhaust, got {other:?}"),
    };
    (set, schedules)
}

/// Explores `wl` with a from-scratch [`LinMonitor`] under `crashed_pending`
/// and stops at the first schedule whose commit projection it rejects: a
/// linearizability scenario's verdict with the reference checker in place
/// of the incremental one `scl-check` runs. Returns whether a schedule was
/// rejected; panics if the space is not exhausted otherwise.
fn from_scratch_violates<S, V, O, F>(
    spec: S,
    setup: F,
    wl: &Workload<S, V>,
    explore: &ExploreConfig,
    crashed_pending: CrashedPending,
) -> bool
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut monitor =
        LinMonitor::new(spec, CheckerMode::FromScratch).with_crashed_pending(crashed_pending);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        explore,
        &mut monitor,
        &NoObserver,
        |_res, _mem, m: &mut LinMonitor<S>| m.verdict(),
    );
    match report.outcome {
        Ok(ExploreOutcome::Exhausted { .. }) => false,
        Err(ExploreError::Check(_)) => true,
        other => panic!("the from-scratch run must exhaust or reject a schedule: {other:?}"),
    }
}

/// The `a1_dropped_raw_fence_n2` object: A1 without its raw fence, composed
/// with A2.
fn dropped_raw_fence_mutant(mem: &mut SharedMemory) -> Composed<A1Tas, A2Tas> {
    Composed::new(
        A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
        A2Tas::new(mem),
    )
}

/// The write-behind workload of the `crash_write_behind_*` and
/// `recovery_write_behind_*` scenarios: p0 writes 5, p1 reads twice.
fn write_behind_workload() -> Workload<RegisterSpec, ()> {
    Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ])
}

/// The explorer budget of the write-behind scenarios: one crash of the
/// writer and, with `restarts`, one restart of it.
fn write_behind_explore(base: ExploreConfig, restarts: bool) -> ExploreConfig {
    ExploreConfig {
        max_crashes: 1,
        crash_eligible: 0b01,
        max_recoveries: usize::from(restarts),
        recovery_eligible: 0b01,
        ..base
    }
}

#[test]
fn lin_preserving_reductions_have_the_full_verdict_set_on_n2_speculative_tas() {
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let (full, full_scheds) = signature_set(new_speculative_tas, &wl, Reduction::Off);
    let (source, source_scheds) = signature_set(new_speculative_tas, &wl, Reduction::SourceDpor);
    assert_eq!(
        full, source,
        "the source-DPOR reduction must reach exactly the outcome+verdict signatures of the \
         full one"
    );
    assert!(
        source_scheds < full_scheds,
        "the reduction must actually prune: {source_scheds} vs {full_scheds}"
    );
    // The race-driven wakeup sets close part of the lin-preserving gap:
    // strictly fewer representatives than eager branching, same
    // verdict-signature coverage.
    assert!(
        source_scheds < EAGER_LIN_N2_SCHEDULES,
        "source DPOR must explore strictly fewer representatives: {source_scheds} vs \
         {EAGER_LIN_N2_SCHEDULES}"
    );
    // Every signature of the correct object is linearizable.
    assert!(full.iter().all(|s| s.ends_with("lin=true")));
}

#[test]
fn lin_preserving_reduction_keeps_the_mutants_violating_signatures() {
    // Same oracle on the seeded DroppedRawFence mutant: the violating
    // signatures (two winners, not linearizable) must survive the reduction.
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let mk = dropped_raw_fence_mutant;
    let (full, _) = signature_set(mk, &wl, Reduction::Off);
    let (source, _) = signature_set(mk, &wl, Reduction::SourceDpor);
    assert_eq!(full, source);
    assert!(
        full.iter().any(|s| s.ends_with("lin=false")),
        "the mutant must produce non-linearizable signatures"
    );
}

#[test]
fn incremental_checker_agrees_with_from_scratch_on_every_explored_schedule() {
    // Drive the bridge through the explorer (checkpoints, rewinds, replay
    // fallbacks included) and compare its verdict with a from-scratch
    // Wing–Gong run on the trace's commit projection at every single leaf.
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let mut monitor = LinMonitor::new(TasSpec, CheckerMode::Incremental);
            let mut schedules = 0u64;
            let report = explore_schedules_monitored_observed_report(
                new_speculative_tas,
                &wl,
                &ExploreConfig {
                    max_schedules: 1_000_000,
                    reduction,
                    resume,
                    ..Default::default()
                },
                &mut monitor,
                &NoObserver,
                |res, _mem, m: &mut LinMonitor<TasSpec>| {
                    schedules += 1;
                    let incremental = m.verdict().is_ok();
                    let scratch = check_linearizable(&TasSpec, &res.trace().commit_projection())
                        .is_linearizable();
                    if incremental == scratch {
                        Ok(())
                    } else {
                        Err(format!(
                            "checkers disagree (incremental={incremental}, scratch={scratch})"
                        ))
                    }
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "reduction={reduction:?} resume={resume:?}: {:?}",
                report.outcome
            );
            assert!(schedules > 0);
        }
    }
}

#[test]
fn dropped_raw_fence_mutant_is_detected_in_every_mode() {
    // The scenario (incremental checker) and the same workload under the
    // from-scratch checker.
    let scenario = find("a1_dropped_raw_fence_n2").expect("registered");
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let explore = ExploreConfig {
                reduction,
                resume,
                ..CheckConfig::default().explore
            };
            let config = CheckConfig {
                explore: explore.clone(),
                ..Default::default()
            };
            let report = scenario.run(&config);
            assert!(
                matches!(report.outcome, Outcome::Violation { .. }),
                "mutant not detected under {reduction:?}/{resume:?}: {:?}",
                report.outcome
            );
            assert!(report.as_expected());
            assert!(
                from_scratch_violates(
                    TasSpec,
                    dropped_raw_fence_mutant,
                    &wl,
                    &explore,
                    CrashedPending::Open
                ),
                "mutant not detected by the from-scratch checker under {reduction:?}/{resume:?}"
            );
        }
    }
}

#[test]
fn n3_realtime_inversion_is_detected_by_the_lin_preserving_reduction() {
    // The pinned finding: the n=3 composition admits a loser whose interval
    // precedes the winner's. It must be found under full enumeration and
    // still under the linearizability-preserving reduction (a plain
    // final-state check cannot see it; that is the whole point of the mode).
    let scenario = find("spec_tas_n3_realtime").expect("registered");
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        let config = CheckConfig {
            explore: ExploreConfig {
                reduction,
                max_schedules: 5_000_000,
                ..CheckConfig::default().explore
            },
            ..Default::default()
        };
        let report = scenario.run(&config);
        assert!(
            matches!(report.outcome, Outcome::Violation { .. }),
            "{reduction:?}: {:?}",
            report.outcome
        );
    }
}

#[test]
fn every_registered_scenario_matches_its_expectation_under_smoke_bounds() {
    // One scenario at a time and two at once, as `scl-check --workers`
    // runs them.
    let config = CheckConfig::smoke();
    let selection: Vec<&Scenario> = scl_check::registry().iter().collect();
    for workers in [1, 2] {
        let (reports, skipped) = run_selection(&selection, workers, None, |s| s.run(&config));
        assert!(skipped.is_empty(), "no deadline, nothing skipped");
        assert_eq!(reports.len(), selection.len());
        for report in reports {
            assert!(
                report.as_expected(),
                "scenario {} (workers={workers}): {:?}",
                report.name,
                report.outcome
            );
        }
    }
}

/// Crash-aware signature set: every op's outcome, *which* processes
/// crashed, and the bridge's per-schedule verdict under `crashed_pending`
/// (so the strict closure is part of the signature, not just plain
/// linearizability of the commit projection).
fn crash_signature_set<O, F>(
    setup: F,
    wl: &Wl,
    reduction: Reduction,
    resume: ResumeMode,
    crashed_pending: CrashedPending,
) -> (BTreeSet<String>, u64)
where
    O: scl_sim::SimObject<TasSpec, TasSwitch>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut set = BTreeSet::new();
    let mut monitor =
        LinMonitor::new(TasSpec, CheckerMode::Incremental).with_crashed_pending(crashed_pending);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        &ExploreConfig {
            max_schedules: 1_000_000,
            max_crashes: 1,
            reduction,
            resume,
            ..Default::default()
        },
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<TasSpec>| {
            let mut ops: Vec<String> = res
                .ops
                .iter()
                .map(|o| format!("{}={:?}", o.req.id, o.outcome))
                .collect();
            ops.sort();
            set.insert(format!(
                "{}|crashed={:b}|lin={}",
                ops.join(","),
                res.crashed,
                m.verdict().is_ok()
            ));
            Ok(())
        },
    );
    let schedules = match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => schedules,
        other => panic!("exploration must exhaust, got {other:?}"),
    };
    (set, schedules)
}

#[test]
fn crash_aware_reductions_have_the_full_verdict_set_on_n2_speculative_tas() {
    // The tentpole soundness oracle: with a 1-crash budget on the n=2
    // speculative-TAS space, source DPOR in every resume mode ×
    // crashed-pending closure reaches exactly the outcome+crash+verdict
    // signatures of unreduced full enumeration.
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for crashed_pending in [CrashedPending::Open, CrashedPending::Strict] {
        let (full, full_scheds) = crash_signature_set(
            new_speculative_tas,
            &wl,
            Reduction::Off,
            ResumeMode::PrefixResume,
            crashed_pending,
        );
        assert!(
            full.iter().any(|s| !s.contains("|crashed=0|")),
            "crash branches must actually be explored"
        );
        // One crashed test-and-set either linearizes first (the winner the
        // survivor lost to) or is dropped — both allowed even strictly.
        assert!(
            full.iter().all(|s| s.ends_with("lin=true")),
            "{crashed_pending:?}: speculative TAS must stay linearizable under one crash"
        );
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let (set, scheds) = crash_signature_set(
                new_speculative_tas,
                &wl,
                Reduction::SourceDpor,
                resume,
                crashed_pending,
            );
            assert_eq!(full, set, "{crashed_pending:?}/{resume:?}");
            assert!(
                scheds < full_scheds,
                "crash-aware source DPOR must still prune: {scheds} vs {full_scheds}"
            );
        }
    }
}

#[test]
fn crash_aware_reductions_keep_the_mutants_violating_signatures() {
    // Same oracle on the seeded DroppedRawFence mutant: the two-winner
    // signatures must survive both the reduction and the crash branching.
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let mk = |mem: &mut SharedMemory| {
        Composed::new(
            A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
            A2Tas::new(mem),
        )
    };
    for crashed_pending in [CrashedPending::Open, CrashedPending::Strict] {
        let (full, _) = crash_signature_set(
            mk,
            &wl,
            Reduction::Off,
            ResumeMode::PrefixResume,
            crashed_pending,
        );
        assert!(
            full.iter().any(|s| s.ends_with("lin=false")),
            "the mutant must keep non-linearizable signatures under crashes"
        );
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let (set, _) =
                crash_signature_set(mk, &wl, Reduction::SourceDpor, resume, crashed_pending);
            assert_eq!(full, set, "mutant {crashed_pending:?}/{resume:?}");
        }
    }
}

#[test]
fn wedged_resettable_tas_is_reported_within_budget_in_every_lin_preserving_mode() {
    // The progress-violation scenario must be *found* (as a violation, not a
    // hang or a budget exhaustion) under every reduction × resume mode.
    let scenario = find("crash_resettable_tas_wedge_n2").expect("registered");
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let config = CheckConfig {
                explore: ExploreConfig {
                    reduction,
                    resume,
                    ..CheckConfig::default().explore
                },
                ..Default::default()
            };
            let report = scenario.run(&config);
            assert!(
                matches!(
                    report.outcome,
                    Outcome::Violation { ref message, .. } if message.contains("progress")
                ),
                "{reduction:?}/{resume:?}: {:?}",
                report.outcome
            );
            assert!(report.as_expected());
        }
    }
}

/// Recovery-aware signature set: every op's outcome, which processes
/// crashed *and which restarted*, plus the bridge's verdict under
/// `crashed_pending` — computed over the 1-crash + 1-restart extension of
/// the workload's schedule space.
fn recovery_signature_set<O, F>(
    setup: F,
    wl: &Wl,
    reduction: Reduction,
    resume: ResumeMode,
    crashed_pending: CrashedPending,
) -> (BTreeSet<String>, u64)
where
    O: scl_sim::SimObject<TasSpec, TasSwitch>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut set = BTreeSet::new();
    let mut monitor =
        LinMonitor::new(TasSpec, CheckerMode::Incremental).with_crashed_pending(crashed_pending);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        &ExploreConfig {
            max_schedules: 1_000_000,
            max_crashes: 1,
            max_recoveries: 1,
            reduction,
            resume,
            ..Default::default()
        },
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<TasSpec>| {
            let mut ops: Vec<String> = res
                .ops
                .iter()
                .map(|o| format!("{}={:?}", o.req.id, o.outcome))
                .collect();
            ops.sort();
            set.insert(format!(
                "{}|crashed={:b}|restarted={:b}|lin={}",
                ops.join(","),
                res.crashed,
                res.restarted,
                m.verdict().is_ok()
            ));
            Ok(())
        },
    );
    let schedules = match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => schedules,
        other => panic!("exploration must exhaust, got {other:?}"),
    };
    (set, schedules)
}

#[test]
fn recovery_aware_reductions_have_the_full_verdict_set_on_recoverable_tas() {
    // The PR-10 tentpole soundness oracle: with a 1-crash + 1-restart
    // budget on the n=2 recoverable-TAS space, source DPOR in every
    // resume mode × crashed-pending closure reaches exactly the
    // outcome+crash+restart+verdict signatures of unreduced enumeration.
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let mk = |mem: &mut SharedMemory| scl_core::RecoverableTas::new(mem, 2);
    for crashed_pending in [
        CrashedPending::Open,
        CrashedPending::Strict,
        CrashedPending::Durable,
        CrashedPending::Recoverable,
    ] {
        let (full, full_scheds) = recovery_signature_set(
            mk,
            &wl,
            Reduction::Off,
            ResumeMode::PrefixResume,
            crashed_pending,
        );
        assert!(
            full.iter().any(|s| !s.contains("|restarted=0|")),
            "restart branches must actually be explored"
        );
        // Recovery always resolves the interrupted op from the durable
        // winner register, so the object passes even the strongest closure.
        assert!(
            full.iter().all(|s| s.ends_with("lin=true")),
            "{crashed_pending:?}: the recoverable TAS must stay linearizable under \
             crash + restart"
        );
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let (set, scheds) =
                recovery_signature_set(mk, &wl, Reduction::SourceDpor, resume, crashed_pending);
            assert_eq!(full, set, "{crashed_pending:?}/{resume:?}");
            assert!(
                scheds < full_scheds,
                "recovery-aware source DPOR must still prune: {scheds} vs {full_scheds}"
            );
        }
    }
}

#[test]
fn recovery_mutant_is_detected_in_every_mode() {
    // The blind-winner recovery bug is a *final-state* violation (two
    // committed winners), so even the non-lin-preserving reductions must
    // find it — they preserve reachable final states.
    // Checked through the scenario (incremental checker) and, on the same
    // 1-crash + 1-restart space, by the from-scratch checker.
    let scenario = find("recovery_tas_mutant_n2").expect("registered");
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let explore = ExploreConfig {
                reduction,
                resume,
                ..CheckConfig::default().explore
            };
            let config = CheckConfig {
                explore: explore.clone(),
                ..Default::default()
            };
            let report = scenario.run(&config);
            assert!(
                matches!(report.outcome, Outcome::Violation { .. }),
                "recovery mutant not detected under {reduction:?}/{resume:?}: {:?}",
                report.outcome
            );
            assert!(report.as_expected());
            let explore = ExploreConfig {
                max_crashes: 1,
                max_recoveries: 1,
                ..explore
            };
            assert!(
                from_scratch_violates(
                    TasSpec,
                    |mem: &mut SharedMemory| RecoverableTas::new_mutant(mem, 2),
                    &wl,
                    &explore,
                    CrashedPending::Open
                ),
                "recovery mutant not detected by the from-scratch checker under \
                 {reduction:?}/{resume:?}"
            );
        }
    }
}

#[test]
fn durable_and_recoverable_closures_separate_on_the_write_behind_register() {
    // The new closure axis is observable on the same witness space: under
    // abandon-recovery the rolled-back write is lost, which `durable`
    // permits and `recoverable` rejects; under flush-recovery the late
    // commit satisfies `durable` while the never-restarted subspace still
    // breaks `strict`. Both checker modes agree.
    let cases = [
        (
            "recovery_write_behind_flush_durable_n2",
            WbRecovery::Flush,
            CrashedPending::Durable,
            false,
        ),
        (
            "recovery_write_behind_flush_strict_n2",
            WbRecovery::Flush,
            CrashedPending::Strict,
            true,
        ),
        (
            "recovery_write_behind_abandon_durable_n2",
            WbRecovery::Abandon,
            CrashedPending::Durable,
            false,
        ),
        (
            "recovery_write_behind_abandon_recoverable_n2",
            WbRecovery::Abandon,
            CrashedPending::Recoverable,
            true,
        ),
    ];
    for (name, recovery, crashed_pending, violates) in cases {
        assert_eq!(
            from_scratch_violates(
                RegisterSpec,
                |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, recovery),
                &write_behind_workload(),
                &write_behind_explore(CheckConfig::default().explore, true),
                crashed_pending,
            ),
            violates,
            "{name}/FromScratch"
        );
        let report = find(name).expect("registered").run(&CheckConfig::default());
        if violates {
            assert!(
                matches!(report.outcome, Outcome::Violation { .. }),
                "{name}: {:?}",
                report.outcome
            );
        } else {
            assert!(
                matches!(report.outcome, Outcome::Exhausted { .. }),
                "{name}: {:?}",
                report.outcome
            );
        }
        assert!(report.as_expected());
    }
}

#[test]
fn strict_and_open_closures_separate_on_the_write_behind_register() {
    // The crashed-pending axis is observable: identical histories, opposite
    // verdicts, under both checker modes.
    let explore = write_behind_explore(CheckConfig::default().explore, false);
    for (crashed_pending, violates) in [
        (CrashedPending::Open, false),
        (CrashedPending::Strict, true),
    ] {
        assert_eq!(
            from_scratch_violates(
                RegisterSpec,
                WriteBehindRegister::new,
                &write_behind_workload(),
                &explore,
                crashed_pending,
            ),
            violates,
            "{crashed_pending:?}/FromScratch"
        );
    }
    let open = find("crash_write_behind_open_n2").expect("registered");
    let strict = find("crash_write_behind_strict_n2").expect("registered");
    let config = CheckConfig::default();
    let open_report = open.run(&config);
    assert!(
        matches!(open_report.outcome, Outcome::Exhausted { .. }),
        "{:?}",
        open_report.outcome
    );
    let strict_report = strict.run(&config);
    assert!(
        matches!(strict_report.outcome, Outcome::Violation { .. }),
        "{:?}",
        strict_report.outcome
    );
}

/// Every schedule's verdict, in exploration order, from a `mode` monitor
/// under `crashed_pending`, keyed by the schedule's decisions.
fn write_behind_verdicts(
    mode: CheckerMode,
    recovery: WbRecovery,
    crashed_pending: CrashedPending,
) -> Vec<(String, bool)> {
    let mut verdicts = Vec::new();
    let mut monitor = LinMonitor::new(RegisterSpec, mode).with_crashed_pending(crashed_pending);
    let explore = ExploreConfig {
        reduction: Reduction::Off,
        ..write_behind_explore(CheckConfig::default().explore, true)
    };
    let report = explore_schedules_monitored_observed_report(
        |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, recovery),
        &write_behind_workload(),
        &explore,
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<RegisterSpec>| {
            verdicts.push((format!("{:?}", res.decisions), m.verdict().is_ok()));
            Ok(())
        },
    );
    assert!(
        matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
        "{:?}",
        report.outcome
    );
    verdicts
}

#[test]
fn incremental_and_from_scratch_checkers_agree_on_every_write_behind_schedule() {
    // Side by side on the unreduced 1-crash + 1-restart write-behind space,
    // for every recovery routine × crashed-pending closure: both checkers
    // give every schedule the same verdict. The strict × flush pair holds
    // late commits — a recovery resolving the crashed write after reads
    // invoked past its crash point — whose crash gate dissolves.
    for recovery in [WbRecovery::None, WbRecovery::Flush, WbRecovery::Abandon] {
        for crashed_pending in [
            CrashedPending::Open,
            CrashedPending::Strict,
            CrashedPending::Durable,
            CrashedPending::Recoverable,
        ] {
            let incremental =
                write_behind_verdicts(CheckerMode::Incremental, recovery, crashed_pending);
            let scratch =
                write_behind_verdicts(CheckerMode::FromScratch, recovery, crashed_pending);
            assert_eq!(incremental.len(), scratch.len());
            for ((schedule, inc), (scratch_schedule, fs)) in incremental.iter().zip(&scratch) {
                assert_eq!(schedule, scratch_schedule, "enumeration order must match");
                assert_eq!(
                    inc, fs,
                    "{recovery:?}/{crashed_pending:?}: incremental={inc}, from-scratch={fs} on \
                     {schedule}"
                );
            }
        }
    }
}

/// The check names whose verdict reads real-time order.
const LIN_CHECKS: [&str; 4] = [
    "linearizable",
    "strictly_linearizable",
    "durably_linearizable",
    "recoverably_linearizable",
];

/// Only a scenario whose checks read real-time order attaches the
/// linearizability monitor: the others report no checker states.
#[test]
fn only_scenarios_with_a_linearizability_check_keep_the_lin_barriers() {
    // The default configuration with a smaller budget: whether a scenario
    // attaches the monitor does not depend on the budget.
    let mut config = CheckConfig::default();
    config.explore.max_schedules = 2_000;
    let mut outcome_only = Vec::new();
    for scenario in scl_check::registry() {
        let reads_real_time = scenario.checks.iter().any(|c| LIN_CHECKS.contains(c));
        let report = scenario.run(&config);
        if !reads_real_time {
            outcome_only.push(scenario.name);
        }
        assert_eq!(
            report.checker_states > 0,
            reads_real_time,
            "{}",
            scenario.name
        );
    }
    assert_eq!(
        outcome_only,
        [
            "spec_tas_n3",
            "crash_resettable_tas_wedge_n2",
            "recovery_recrash_unrecovered_n2",
            "abd_partition_majority_wedge_n2",
        ]
    );
}

#[test]
fn json_report_escapes_and_summarises() {
    let config = CheckConfig::default();
    let scenario = find("spec_tas_n2").expect("registered");
    let report = scenario.run(&config);
    let json = scl_check::reports_to_json(&config, &[report]);
    assert!(json.contains("\"spec_tas_n2\""));
    assert!(json.contains("\"all_as_expected\": true"));
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
}

/// The outcome, counters and verdict-signature set (each operation's
/// outcome, the crashed and restarted masks and the bridge's verdict) of one
/// exploration under `reduction` and `base`. No schedule stops it.
fn explored_verdicts<S, V, O, F>(
    spec: S,
    setup: F,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    crashed_pending: CrashedPending,
    reduction: Reduction,
) -> (
    Result<ExploreOutcome, ExploreError>,
    ExploreStats,
    BTreeSet<String>,
)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O,
    OpOutcome<S, V>: Debug,
{
    let mut set = BTreeSet::new();
    let mut monitor =
        LinMonitor::new(spec, CheckerMode::Incremental).with_crashed_pending(crashed_pending);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        &ExploreConfig {
            reduction,
            ..base.clone()
        },
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<S>| {
            let mut ops: Vec<String> = res
                .ops
                .iter()
                .map(|o| format!("{}={:?}", o.req.id, o.outcome))
                .collect();
            ops.sort();
            set.insert(format!(
                "{}|crashed={:b}|restarted={:b}|{:?}",
                ops.join(","),
                res.crashed,
                res.restarted,
                m.verdict()
            ));
            Ok(())
        },
    );
    (report.outcome, report.stats, set)
}

/// Asserts that the benchmark harness's second source-DPOR name explores
/// exactly like [`Reduction::SourceDpor`] in both resume modes: the same
/// outcome and counters (so the same tree) and the same verdict
/// signatures.
fn assert_names_explore_alike<S, V, O, F>(
    at: &str,
    spec: S,
    setup: F,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    crashed_pending: CrashedPending,
) where
    S: SequentialSpec + Clone,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O + Clone,
    OpOutcome<S, V>: Debug,
{
    for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
        let base = ExploreConfig {
            resume,
            ..base.clone()
        };
        let [plain, old] =
            [Reduction::SourceDpor, Reduction::SourceDporLinPreserving].map(|reduction| {
                explored_verdicts(
                    spec.clone(),
                    setup.clone(),
                    wl,
                    &base,
                    crashed_pending,
                    reduction,
                )
            });
        let at = format!("{at}/{resume:?}");
        assert!(
            matches!(plain.0, Ok(ExploreOutcome::Exhausted { .. })),
            "{at}: {:?}",
            plain.0
        );
        assert_eq!(plain.0, old.0, "{at}: outcome");
        assert_eq!(plain.1, old.1, "{at}: counters");
        assert_eq!(plain.2, old.2, "{at}: verdict signatures");
    }
}

/// `Reduction::SourceDporLinPreserving` stays in `scl-sim` only because the
/// benchmark harness sets it. It is the same exploration as source DPOR on
/// every space the oracles and count bars ran it on.
#[test]
fn the_second_source_dpor_name_explores_exactly_like_source_dpor() {
    let base = ExploreConfig {
        max_schedules: 1_000_000,
        ..Default::default()
    };
    let crash = ExploreConfig {
        max_crashes: 1,
        ..base.clone()
    };
    for n in [2, 3] {
        let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
        let at = format!("composed TAS n={n}");
        assert_names_explore_alike(
            &at,
            TasSpec,
            new_speculative_tas,
            &wl,
            &base,
            CrashedPending::Open,
        );
    }
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    assert_names_explore_alike(
        "composed TAS n=2, 1 crash",
        TasSpec,
        new_speculative_tas,
        &wl,
        &crash,
        CrashedPending::Open,
    );
    let restart = ExploreConfig {
        max_recoveries: 1,
        ..crash.clone()
    };
    assert_names_explore_alike(
        "recoverable TAS n=2, 1 crash, 1 restart",
        TasSpec,
        |mem: &mut SharedMemory| RecoverableTas::new(mem, 2),
        &wl,
        &restart,
        CrashedPending::Recoverable,
    );
    assert_names_explore_alike(
        "flush write-behind, 1 crash, 1 restart",
        RegisterSpec,
        |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, WbRecovery::Flush),
        &write_behind_workload(),
        &write_behind_explore(base.clone(), true),
        CrashedPending::Durable,
    );
    let writer: Workload<RegisterSpec, ()> = Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    let faults = ExploreConfig {
        max_drops: 1,
        ..crash
    };
    assert_names_explore_alike(
        "one-writer ABD, 1 crash, 1 drop",
        RegisterSpec,
        |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, 12, 1),
        &writer,
        &faults,
        CrashedPending::Open,
    );
    let two_clients: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    assert_names_explore_alike(
        "two-client ABD, 1 crash, 1 drop",
        RegisterSpec,
        |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 1, 12, 0),
        &two_clients,
        &faults,
        CrashedPending::Open,
    );
}
