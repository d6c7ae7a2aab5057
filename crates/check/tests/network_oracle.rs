//! Oracle tests for the network adversary layer: source DPOR is validated
//! against unreduced full enumeration *with message-loss and crash faults
//! in the space*, and the seeded quorum mutant plus the majority-partition
//! wedge are pinned as findable in every mode.

use scl_check::{find, CheckConfig, CheckerMode, CrashedPending, LinMonitor, Outcome};
use scl_core::AbdRegister;
use scl_sim::{
    explore_schedules_monitored_observed_report,
    explore_schedules_parallel_monitored_observed_report, ExploreConfig, ExploreOutcome,
    NoObserver, Reduction, ResumeMode, SharedMemory, Workload,
};
use scl_spec::{RegisterOp, RegisterSpec};
use std::collections::BTreeSet;
use std::sync::Mutex;

type Wl = Workload<RegisterSpec, ()>;

/// Fault-aware signature set over the ABD emulation: every op's outcome,
/// *which* processes crashed, and the bridge's per-schedule verdict under
/// `crashed_pending`. Exploration runs with a 1-crash + `drops`-drop budget,
/// so the set covers the faulty branches of the space, not just the happy
/// path.
fn abd_signature_set(
    wl: &Wl,
    cap: usize,
    reduction: Reduction,
    resume: ResumeMode,
    crashed_pending: CrashedPending,
    drops: usize,
) -> (BTreeSet<String>, u64) {
    let mut set = BTreeSet::new();
    let mut monitor = LinMonitor::new(RegisterSpec, CheckerMode::Incremental)
        .with_crashed_pending(crashed_pending);
    let report = explore_schedules_monitored_observed_report(
        |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, cap, 1),
        wl,
        &ExploreConfig {
            max_schedules: 5_000_000,
            max_crashes: 1,
            max_drops: drops,
            reduction,
            resume,
            ..Default::default()
        },
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<RegisterSpec>| {
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
fn abd_reductions_have_the_full_verdict_set_under_crash_and_drop_budgets() {
    // The tentpole soundness oracle for the network layer: on a one-writer
    // ABD emulation (2 replicas, majority quorum, retry budget 1) with a
    // 1-crash + 1-drop fault budget, source DPOR in every
    // resume mode × crashed-pending closure reaches exactly the
    // outcome+crash+verdict signatures of unreduced full enumeration —
    // deliveries, drops and crashes are all scheduled transitions, so this
    // exercises the sleep-set participation of every network pseudo-process.
    let wl: Wl = Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    // 5 sends worst-case (4 phase sends + 1 retry resend) + their replies
    // at cap-1-s: cap 12 keeps the regions disjoint.
    let cap = 12;
    for crashed_pending in [CrashedPending::Open, CrashedPending::Strict] {
        let (full, full_scheds) = abd_signature_set(
            &wl,
            cap,
            Reduction::Off,
            ResumeMode::PrefixResume,
            crashed_pending,
            1,
        );
        assert!(
            full.iter().any(|s| !s.contains("|crashed=0|")),
            "crash branches must actually be explored"
        );
        assert!(
            full.iter().all(|s| s.ends_with("lin=true")),
            "{crashed_pending:?}: a majority-quorum ABD write must stay linearizable under one \
             crash and one drop"
        );
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let (set, scheds) =
                abd_signature_set(&wl, cap, Reduction::SourceDpor, resume, crashed_pending, 1);
            assert_eq!(full, set, "{crashed_pending:?}/{resume:?}");
            assert!(
                scheds < full_scheds,
                "source DPOR must prune the network space: {scheds} vs {full_scheds}"
            );
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_the_abd_network_space() {
    // The benchmark harness's parallel-named entry point (a shim over the
    // engine) must reproduce the sequential verdict-signature set on a space
    // where deliveries, drops and crashes are scheduled transitions.
    let wl: Wl = Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    let cap = 12;
    let reduction = Reduction::SourceDpor;
    for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
        let (seq, _) = abd_signature_set(&wl, cap, reduction, resume, CrashedPending::Open, 1);
        let set = Mutex::new(BTreeSet::new());
        let factory = || LinMonitor::new(RegisterSpec, CheckerMode::Incremental);
        let (report, monitors) = explore_schedules_parallel_monitored_observed_report(
            |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, cap, 1),
            &wl,
            &ExploreConfig {
                max_schedules: 5_000_000,
                max_crashes: 1,
                max_drops: 1,
                threads: 2,
                reduction,
                resume,
                ..Default::default()
            },
            &factory,
            &NoObserver,
            |res, _mem, m: &mut LinMonitor<RegisterSpec>| {
                let mut ops: Vec<String> = res
                    .ops
                    .iter()
                    .map(|o| format!("{}={:?}", o.req.id, o.outcome))
                    .collect();
                ops.sort();
                set.lock().unwrap().insert(format!(
                    "{}|crashed={:b}|lin={}",
                    ops.join(","),
                    res.crashed,
                    m.verdict().is_ok()
                ));
                Ok(())
            },
        );
        assert!(!monitors.is_empty());
        assert!(
            matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
            "parallel exploration must exhaust, got {:?}",
            report.outcome
        );
        assert_eq!(seq, set.into_inner().unwrap(), "{resume:?}");
    }
}

#[test]
fn abd_quorum_mutant_is_caught_in_every_lin_preserving_mode() {
    // The seeded quorum off-by-one must be *found* (a stale read reported as
    // a linearizability violation, with zero faults in the budget) under
    // source DPOR in every resume mode. The unreduced space
    // needs ~3.1M schedules to reach the violation, so `Off` is pinned by
    // the signature oracle above and by the release-mode numbers in
    // EXPERIMENTS.md rather than re-run here.
    let scenario = find("abd_quorum_mutant").expect("registered");
    for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
        let config = CheckConfig {
            explore: ExploreConfig {
                reduction: Reduction::SourceDpor,
                resume,
                ..CheckConfig::default().explore
            },
            ..Default::default()
        };
        let report = scenario.run(&config);
        assert!(
            matches!(
                report.outcome,
                Outcome::Violation { ref message, .. } if message.contains("linearizable")
            ),
            "{resume:?}: {:?}",
            report.outcome
        );
        assert!(report.as_expected());
    }
}

#[test]
fn abd_majority_partition_wedges_as_a_designed_progress_violation() {
    // A severed majority must surface as a *reported* progress violation
    // (the writer wedges with its quorum unreachable), never a hang or a
    // silent pass — in every reduction × resume mode.
    let scenario = find("abd_partition_majority_wedge_n2").expect("registered");
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
                    Outcome::Violation { ref message, .. } if message.contains("quorum progress violated")
                ),
                "{reduction:?}/{resume:?}: {:?}",
                report.outcome
            );
            assert!(report.as_expected());
        }
    }
}

/// The verdict-signature set of an ABD emulation with two clients (see
/// [`two_client_abd_reductions_have_the_full_verdict_set`]): every op's
/// outcome, which processes crashed, and the bridge's per-schedule verdict.
/// `workers = 1` runs the sequential engine, more goes through the benchmark
/// harness's `explore_schedules_parallel_monitored_observed_report` shim.
fn two_client_signature_set(
    wl: &Wl,
    config: &ExploreConfig,
    workers: usize,
) -> (BTreeSet<String>, u64) {
    let set = Mutex::new(BTreeSet::new());
    let setup = |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 1, 12, 0);
    let check = |res: &scl_sim::ExecutionResult<RegisterSpec, ()>,
                 _mem: &SharedMemory,
                 m: &mut LinMonitor<RegisterSpec>| {
        let mut ops: Vec<String> = res
            .ops
            .iter()
            .map(|o| format!("{}={:?}", o.req.id, o.outcome))
            .collect();
        ops.sort();
        set.lock().unwrap().insert(format!(
            "{}|crashed={:b}|lin={}",
            ops.join(","),
            res.crashed,
            m.verdict().is_ok()
        ));
        Ok(())
    };
    let report = if workers == 1 {
        let mut monitor = LinMonitor::new(RegisterSpec, CheckerMode::Incremental);
        explore_schedules_monitored_observed_report(
            setup,
            wl,
            config,
            &mut monitor,
            &NoObserver,
            check,
        )
    } else {
        let factory = || LinMonitor::new(RegisterSpec, CheckerMode::Incremental);
        let config = ExploreConfig {
            threads: workers,
            ..config.clone()
        };
        explore_schedules_parallel_monitored_observed_report(
            setup,
            wl,
            &config,
            &factory,
            &NoObserver,
            check,
        )
        .0
    };
    let schedules = match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => schedules,
        other => panic!("exploration must exhaust, got {other:?}"),
    };
    (set.into_inner().unwrap(), schedules)
}

#[test]
fn two_client_abd_reductions_have_the_full_verdict_set() {
    // A writer and a reader on one replica (no retries, cap 12): the two
    // clients' messages are concurrent slot threads, so deliveries, drops
    // and crashes of different operations race with each other and every
    // reversal is branched from a race. Under a 1-crash budget, a 1-drop
    // budget and both (160004, 199914 and 638912 unreduced schedules),
    // source DPOR, sequential and through the shim, reaches exactly the
    // signatures of full enumeration. With both budgets, faults go first at
    // some nodes of one tree: a crash awake beside its sleeping step, and
    // the drop of an awake delivery. (A drop awake beside its sleeping
    // delivery goes first in the one-writer test above.)
    let wl: Wl = Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    for (crashes, drops) in [(1, 0), (0, 1), (1, 1)] {
        let base = ExploreConfig {
            max_schedules: 5_000_000,
            max_crashes: crashes,
            max_drops: drops,
            resume: ResumeMode::PrefixResume,
            ..Default::default()
        };
        let (full, full_scheds) = two_client_signature_set(&wl, &base, 1);
        assert!(
            full.iter().any(|s| s.contains("=Some(Commit(5))")),
            "the reader must be able to see the write"
        );
        let reduction = Reduction::SourceDpor;
        for workers in [1, 2] {
            let config = ExploreConfig {
                reduction,
                ..base.clone()
            };
            let (set, scheds) = two_client_signature_set(&wl, &config, workers);
            let at = format!("{reduction:?}, {workers} worker(s), {crashes} crash / {drops} drop");
            assert_eq!(full, set, "{at}");
            assert!(
                scheds < full_scheds,
                "{at}: source DPOR must prune the space: {scheds} vs {full_scheds}"
            );
        }
    }
}
