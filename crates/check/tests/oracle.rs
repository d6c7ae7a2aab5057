//! Oracle tests for the linearizability-preserving reduction and the
//! incremental checker: everything is validated against unreduced full
//! enumeration and the from-scratch Wing–Gong checker.

use scl_check::{find, CheckConfig, CheckerMode, CrashedPending, LinMonitor, Outcome};
use scl_core::{new_speculative_tas, A1Tas, A1Variant, A2Tas, Composed};
use scl_sim::{
    explore_schedules_monitored_observed_report, explore_schedules_report, ExecutionResult,
    ExploreConfig, ExploreOutcome, NoObserver, Reduction, ResumeMode, SharedMemory, Workload,
};
use scl_spec::{check_linearizable, TasOp, TasSpec, TasSwitch};
use std::collections::BTreeSet;

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
    let lin = check_linearizable(&TasSpec, &res.trace.commit_projection()).is_linearizable();
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

#[test]
fn lin_preserving_reductions_have_the_full_verdict_set_on_n2_speculative_tas() {
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let (full, full_scheds) = signature_set(new_speculative_tas, &wl, Reduction::Off);
    let (source, source_scheds) =
        signature_set(new_speculative_tas, &wl, Reduction::SourceDporLinPreserving);
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
    let mk = |mem: &mut SharedMemory| {
        Composed::new(
            A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
            A2Tas::new(mem),
        )
    };
    let (full, _) = signature_set(mk, &wl, Reduction::Off);
    let (source, _) = signature_set(mk, &wl, Reduction::SourceDporLinPreserving);
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
    for reduction in [Reduction::Off, Reduction::SourceDporLinPreserving] {
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
                    let scratch = check_linearizable(&TasSpec, &res.trace.commit_projection())
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
    let scenario = find("a1_dropped_raw_fence_n2").expect("registered");
    for reduction in [
        Reduction::Off,
        Reduction::SourceDpor,
        Reduction::SourceDporLinPreserving,
    ] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            for checker in [CheckerMode::Incremental, CheckerMode::FromScratch] {
                for metrics_only in [false, true] {
                    let config = CheckConfig {
                        explore: ExploreConfig {
                            reduction,
                            resume,
                            metrics_only,
                            ..CheckConfig::default().explore
                        },
                        checker,
                        ..Default::default()
                    };
                    let report = scenario.run(&config);
                    assert!(
                        matches!(report.outcome, Outcome::Violation { .. }),
                        "mutant not detected under {reduction:?}/{resume:?}/{checker:?}/\
                         metrics_only={metrics_only}: {:?}",
                        report.outcome
                    );
                    assert!(report.as_expected());
                }
            }
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
    for reduction in [Reduction::Off, Reduction::SourceDporLinPreserving] {
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
fn metrics_only_with_trace_consuming_checks_is_a_config_error() {
    let scenario = find("a1_n2").expect("registered");
    let config = CheckConfig {
        explore: ExploreConfig {
            metrics_only: true,
            ..CheckConfig::default().explore
        },
        ..Default::default()
    };
    let report = scenario.run(&config);
    match &report.outcome {
        Outcome::ConfigError(msg) => {
            assert!(
                msg.contains("metrics_only") && msg.contains("a1_n2"),
                "unhelpful error: {msg}"
            );
        }
        other => panic!("expected a config error, got {other:?}"),
    }
    assert!(!report.as_expected());
    // Dropping the flag runs the scenario normally.
    let ok = scenario.run(&CheckConfig::default());
    assert!(matches!(ok.outcome, Outcome::Exhausted { .. }), "{ok:?}");
}

#[test]
fn every_registered_scenario_matches_its_expectation_under_smoke_bounds() {
    // Sequentially and with the parallel monitor-carrying driver.
    for workers in [1, 2] {
        let config = CheckConfig {
            explore: ExploreConfig {
                threads: workers,
                ..CheckConfig::smoke().explore
            },
            ..CheckConfig::smoke()
        };
        for scenario in scl_check::registry() {
            let report = scenario.run(&config);
            assert!(
                report.as_expected(),
                "scenario {} (workers={workers}): {:?}",
                scenario.name,
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
    // speculative-TAS space, every lin-preserving reduction × resume mode ×
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
                Reduction::SourceDporLinPreserving,
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
            let (set, _) = crash_signature_set(
                mk,
                &wl,
                Reduction::SourceDporLinPreserving,
                resume,
                crashed_pending,
            );
            assert_eq!(full, set, "mutant {crashed_pending:?}/{resume:?}");
        }
    }
}

#[test]
fn wedged_resettable_tas_is_reported_within_budget_in_every_lin_preserving_mode() {
    // The progress-violation scenario must be *found* (as a violation, not a
    // hang or a budget exhaustion) under every reduction × resume mode.
    let scenario = find("crash_resettable_tas_wedge_n2").expect("registered");
    for reduction in [
        Reduction::Off,
        Reduction::SourceDpor,
        Reduction::SourceDporLinPreserving,
    ] {
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
    // budget on the n=2 recoverable-TAS space, every lin-preserving
    // reduction × resume mode × crashed-pending closure reaches exactly the
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
            let (set, scheds) = recovery_signature_set(
                mk,
                &wl,
                Reduction::SourceDporLinPreserving,
                resume,
                crashed_pending,
            );
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
    let scenario = find("recovery_tas_mutant_n2").expect("registered");
    for reduction in [
        Reduction::Off,
        Reduction::SourceDpor,
        Reduction::SourceDporLinPreserving,
    ] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            for checker in [CheckerMode::Incremental, CheckerMode::FromScratch] {
                let config = CheckConfig {
                    explore: ExploreConfig {
                        reduction,
                        resume,
                        ..CheckConfig::default().explore
                    },
                    checker,
                    ..Default::default()
                };
                let report = scenario.run(&config);
                assert!(
                    matches!(report.outcome, Outcome::Violation { .. }),
                    "recovery mutant not detected under {reduction:?}/{resume:?}/{checker:?}: \
                     {:?}",
                    report.outcome
                );
                assert!(report.as_expected());
            }
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
        ("recovery_write_behind_flush_durable_n2", false),
        ("recovery_write_behind_flush_strict_n2", true),
        ("recovery_write_behind_abandon_durable_n2", false),
        ("recovery_write_behind_abandon_recoverable_n2", true),
    ];
    for (name, violates) in cases {
        let scenario = find(name).expect("registered");
        for checker in [CheckerMode::Incremental, CheckerMode::FromScratch] {
            let config = CheckConfig {
                checker,
                ..Default::default()
            };
            let report = scenario.run(&config);
            if violates {
                assert!(
                    matches!(report.outcome, Outcome::Violation { .. }),
                    "{name}/{checker:?}: {:?}",
                    report.outcome
                );
            } else {
                assert!(
                    matches!(report.outcome, Outcome::Exhausted { .. }),
                    "{name}/{checker:?}: {:?}",
                    report.outcome
                );
            }
            assert!(report.as_expected());
        }
    }
}

#[test]
fn strict_and_open_closures_separate_on_the_write_behind_register() {
    // The crashed-pending axis is observable: identical histories, opposite
    // verdicts, under both checker modes.
    let open = find("crash_write_behind_open_n2").expect("registered");
    let strict = find("crash_write_behind_strict_n2").expect("registered");
    for checker in [CheckerMode::Incremental, CheckerMode::FromScratch] {
        let config = CheckConfig {
            checker,
            ..Default::default()
        };
        let open_report = open.run(&config);
        assert!(
            matches!(open_report.outcome, Outcome::Exhausted { .. }),
            "{checker:?}: {:?}",
            open_report.outcome
        );
        let strict_report = strict.run(&config);
        assert!(
            matches!(strict_report.outcome, Outcome::Violation { .. }),
            "{checker:?}: {:?}",
            strict_report.outcome
        );
    }
}

/// The check names whose verdict reads real-time order.
const LIN_CHECKS: [&str; 4] = [
    "linearizable",
    "strictly_linearizable",
    "durably_linearizable",
    "recoverably_linearizable",
];

#[test]
fn only_scenarios_with_a_linearizability_check_keep_the_lin_barriers() {
    // The default configuration with a smaller budget: the reduction a
    // scenario runs does not depend on the budget.
    let mut config = CheckConfig::default();
    config.explore.max_schedules = 2_000;
    let mut outcome_only = Vec::new();
    for scenario in scl_check::registry() {
        let reads_real_time = scenario.checks.iter().any(|c| LIN_CHECKS.contains(c));
        let report = scenario.run(&config);
        let expected = if reads_real_time {
            Reduction::SourceDporLinPreserving
        } else {
            outcome_only.push(scenario.name);
            Reduction::SourceDpor
        };
        assert_eq!(report.reduction, expected, "{}", scenario.name);
        if !reads_real_time {
            assert_eq!(report.checker_states, 0, "{}", scenario.name);
        }
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
