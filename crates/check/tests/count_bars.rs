//! Count bars: the machine-independent numbers that show the reductions,
//! the fault adversaries and the incremental checker doing their job on
//! fixed workloads — the composed A1*A2 speculative TAS (one op per
//! process), a recoverable TAS, a one-writer ABD register and a 3 × 3-op
//! swap TAS.
//!
//! The sequential engine is deterministic, so every count is asserted at
//! its exact value; the workloads and caps are those recorded in
//! `BENCH_PR5.json` and `BENCH_PR10.json`. The claim each count stands for
//! (a source-DPOR mode never explores more representatives than the eager
//! sleep-set mode it replaced, fault branching enlarges the space, the
//! incremental checker expands fewer states, ...) is asserted beside it, so
//! a change that moves a count shows which claim still holds.

use scl_check::{reduction_cli_name, CheckerMode, LinMonitor};
use scl_core::{new_speculative_tas, AbdRegister, RecoverableTas};
use scl_sim::{
    explore_schedules_monitored_observed_report, explore_schedules_report, ExploreConfig,
    ExploreOutcome, ExploreReport, ExploreStats, Footprint, NoMonitor, NoObserver, ObjectSnapshot,
    OpExecution, OpOutcome, Reduction, RegId, ResumeMode, SharedMemory, SimObject, StepOutcome,
    TelemetryObserver, Value, Workload,
};
use scl_spec::{
    ProcessId, RegisterOp, RegisterSpec, Request, SequentialSpec, TasOp, TasResp, TasSpec,
    TasSwitch,
};
use std::fmt::Debug;
use std::hash::Hash;

/// Representatives the removed eager sleep-set modes explored, as
/// `(cell, plain, lin-preserving)`: the source-DPOR modes must never
/// explore more.
const EAGER_COUNTS: [(&str, u64, u64); 5] = [
    ("speculative_tas_n2", 26, 79),
    ("speculative_tas_n3_full", 1_956, 11_925),
    ("speculative_tas_n2_crash1", 120, 377),
    ("rtas_crash1_restart1", 44, 102),
    ("abd_write_crash1_drop1", 12_524, 12_524),
];

/// Every reduction mode, in the order the per-cell count arrays use.
const ALL_MODES: [Reduction; 2] = [Reduction::Off, Reduction::SourceDpor];

/// A one-step swap-based TAS: trivially linearizable under every schedule,
/// used for the long-history checker comparison (the *speculative* TAS
/// cannot serve there — its commit projection genuinely violates real-time
/// order once a third concurrent operation exists; see the
/// `spec_tas_n3_realtime` scenario).
struct SwapTas {
    flag: RegId,
}

impl SwapTas {
    fn new(mem: &mut SharedMemory) -> Self {
        SwapTas {
            flag: mem.alloc("flag", Value::FALSE),
        }
    }
}

#[derive(Clone, Copy)]
struct SwapTasOp {
    flag: RegId,
    proc: ProcessId,
}

impl OpExecution<TasSpec, TasSwitch> for SwapTasOp {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        let prev = mem.swap(self.proc, self.flag, Value::TRUE);
        StepOutcome::Done(OpOutcome::Commit(if prev.as_bool() {
            TasResp::Loser
        } else {
            TasResp::Winner
        }))
    }
    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }
    fn next_footprint(&self) -> Footprint {
        Footprint::Write(self.flag)
    }
}

impl SimObject<TasSpec, TasSwitch> for SwapTas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        _switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        Box::new(SwapTasOp {
            flag: self.flag,
            proc: req.proc,
        })
    }
    fn snapshot(&self) -> Option<ObjectSnapshot> {
        Some(ObjectSnapshot::stateless())
    }
}

fn tas(n: usize, ops_each: usize) -> Workload<TasSpec, TasSwitch> {
    Workload::uniform(n, TasOp::TestAndSet, ops_each)
}

/// The explorer cells' configuration: full-replay backtracking, unreduced.
fn explorer_config(max_schedules: u64) -> ExploreConfig {
    ExploreConfig {
        max_schedules,
        max_ticks: 10_000,
        ..Default::default()
    }
}

/// The checker cells' configuration: prefix-resume, unreduced.
fn checker_config(max_schedules: u64) -> ExploreConfig {
    ExploreConfig {
        resume: ResumeMode::PrefixResume,
        ..explorer_config(max_schedules)
    }
}

/// The engine's counters and whether the space was exhausted; any
/// violation fails the test.
fn counted(report: ExploreReport) -> (ExploreStats, bool) {
    match report.outcome {
        Ok(ExploreOutcome::Exhausted { .. }) => (report.stats, true),
        Ok(ExploreOutcome::LimitReached { .. }) => (report.stats, false),
        Err(e) => panic!("the workload must pass: {e}"),
    }
}

/// Explores one workload under each `(reduction, schedules)` cell (`base`
/// supplies everything else) and asserts that each cell exhausts with
/// exactly its recorded schedule count and, when `cell` is in
/// [`EAGER_COUNTS`], that source DPOR explores no more than the plain eager
/// mode it replaced. Returns the cells' counters in order.
fn exhaust_cells<S, V, O, const N: usize>(
    cell: &str,
    mut setup: impl FnMut(&mut SharedMemory) -> O,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    expected: [(Reduction, u64); N],
) -> [ExploreStats; N]
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let stats = expected.map(|(reduction, schedules)| {
        let config = ExploreConfig {
            reduction,
            ..base.clone()
        };
        let name = reduction_cli_name(reduction);
        let (stats, exhausted) = counted(explore_schedules_report(
            &mut setup,
            wl,
            &config,
            |_r, _m| Ok(()),
        ));
        assert!(exhausted, "{cell}/{name}: must exhaust");
        assert_eq!(stats.schedules, schedules, "{cell}/{name}: schedules");
        stats
    });
    if let Some(&(_, eager, _)) = EAGER_COUNTS.iter().find(|(c, ..)| *c == cell) {
        for (&(reduction, _), s) in expected.iter().zip(&stats) {
            if reduction == Reduction::Off {
                continue;
            }
            assert!(
                s.schedules <= eager,
                "{cell}/{}: source DPOR explored {} > eager {eager}",
                reduction_cli_name(reduction),
                s.schedules
            );
        }
    }
    stats
}

/// Pairs every reduction mode with its recorded schedule count.
fn all_modes(schedules: [u64; 2]) -> [(Reduction, u64); 2] {
    std::array::from_fn(|i| (ALL_MODES[i], schedules[i]))
}

#[test]
fn explorer_reductions_on_the_n2_space() {
    let wl = tas(2, 1);
    let base = explorer_config(1_000_000);
    let [off, source] = exhaust_cells(
        "speculative_tas_n2",
        new_speculative_tas,
        &wl,
        &base,
        all_modes([64_472, 26]),
    );
    assert!(
        source.schedules < EAGER_COUNTS[0].2,
        "source DPOR must strictly shrink the n=2 lin-preserving space"
    );
    // The default configuration: source DPOR on prefix-resume.
    // Resuming from checkpoints does not change the enumeration, and the
    // pair executes at least 5x fewer shared-memory steps than unreduced
    // full replay.
    let combined = ExploreConfig {
        resume: ResumeMode::PrefixResume,
        ..base
    };
    let [combined] = exhaust_cells(
        "speculative_tas_n2/source_combined",
        new_speculative_tas,
        &wl,
        &combined,
        [(Reduction::SourceDpor, source.schedules)],
    );
    assert_eq!(
        (off.executed_steps, combined.executed_steps),
        (1_218_482, 184)
    );
    assert!(off.executed_steps >= 5 * combined.executed_steps);
}

#[test]
fn explorer_reductions_exhaust_the_full_n3_space() {
    let wl = tas(3, 1);
    let base = explorer_config(u64::MAX);
    exhaust_cells(
        "speculative_tas_n3_full",
        new_speculative_tas,
        &wl,
        &base,
        [(Reduction::SourceDpor, 1_956)],
    );
    let combined = ExploreConfig {
        resume: ResumeMode::PrefixResume,
        ..base
    };
    let [combined] = exhaust_cells(
        "speculative_tas_n3_full/source_combined",
        new_speculative_tas,
        &wl,
        &combined,
        [(Reduction::SourceDpor, 1_956)],
    );
    assert_eq!(combined.executed_steps, 12_456);
}

#[test]
fn reduction_and_crash_groups_exhaust_in_every_mode() {
    let [off, source] = exhaust_cells(
        "speculative_tas_n2",
        new_speculative_tas,
        &tas(2, 1),
        &checker_config(1_000_000),
        all_modes([64_472, 26]),
    );
    assert!(source.schedules < off.schedules);
    assert!(
        source.schedules < EAGER_COUNTS[0].2,
        "source DPOR must strictly shrink the n=2 lin-preserving space"
    );
    exhaust_cells(
        "speculative_tas_n3_full",
        new_speculative_tas,
        &tas(3, 1),
        &checker_config(50_000_000),
        [(Reduction::SourceDpor, 1_956)],
    );
    let crash = ExploreConfig {
        max_crashes: 1,
        crash_eligible: !0,
        ..checker_config(1_000_000)
    };
    let [crash_off, ..] = exhaust_cells(
        "speculative_tas_n2_crash1",
        new_speculative_tas,
        &tas(2, 1),
        &crash,
        all_modes([306_992, 120]),
    );
    assert!(
        crash_off.schedules > off.schedules,
        "crash branching must enlarge the unreduced space"
    );
}

#[test]
fn recovery_group_exhausts_in_every_mode() {
    let wl = tas(2, 1);
    let crash_only = ExploreConfig {
        max_crashes: 1,
        crash_eligible: !0,
        recovery_eligible: !0,
        ..checker_config(1_000_000)
    };
    let setup = |mem: &mut SharedMemory| RecoverableTas::new(mem, 2);
    let [baseline] = exhaust_cells(
        "rtas_crash1_restart0",
        setup,
        &wl,
        &crash_only,
        [(Reduction::Off, 88)],
    );
    let restart = ExploreConfig {
        max_recoveries: 1,
        ..crash_only
    };
    let [restart_off, ..] = exhaust_cells(
        "rtas_crash1_restart1",
        setup,
        &wl,
        &restart,
        all_modes([370, 44]),
    );
    assert!(
        restart_off.schedules > baseline.schedules,
        "restart branching must enlarge the unreduced space"
    );
}

#[test]
fn network_group_exhausts_in_every_mode() {
    let wl: Workload<RegisterSpec, ()> = Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    let crash_only = ExploreConfig {
        max_crashes: 1,
        crash_eligible: !0,
        ..checker_config(1_000_000)
    };
    // One writer, 2 replicas, majority quorum, retry budget 1, cap 12.
    let setup = |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, 12, 1);
    let [baseline] = exhaust_cells(
        "abd_write_crash1_drop0",
        setup,
        &wl,
        &crash_only,
        [(Reduction::Off, 1_877)],
    );
    let lossy = ExploreConfig {
        max_drops: 1,
        ..crash_only
    };
    let [lossy_off, ..] = exhaust_cells(
        "abd_write_crash1_drop1",
        setup,
        &wl,
        &lossy,
        all_modes([66_977, 1_052]),
    );
    assert!(
        lossy_off.schedules > baseline.schedules,
        "drop branching must enlarge the unreduced space"
    );
}

#[test]
fn observer_cells_walk_the_same_space() {
    let wl = tas(2, 1);
    let config = checker_config(1_000_000);
    let cells = [
        (
            "plain_entry",
            explore_schedules_report(new_speculative_tas, &wl, &config, |_r, _m| Ok(())),
        ),
        (
            "observer_off",
            explore_schedules_monitored_observed_report(
                new_speculative_tas,
                &wl,
                &config,
                &mut NoMonitor,
                &NoObserver,
                |_r, _m, _mon: &mut NoMonitor| Ok(()),
            ),
        ),
        (
            "observer_on",
            explore_schedules_monitored_observed_report(
                new_speculative_tas,
                &wl,
                &config,
                &mut NoMonitor,
                &TelemetryObserver::new(0, config.max_schedules),
                |_r, _m, _mon: &mut NoMonitor| Ok(()),
            ),
        ),
    ];
    for (name, report) in cells {
        let (stats, exhausted) = counted(report);
        assert!(exhausted, "{name}: the n=2 observer workload must exhaust");
        assert_eq!(stats.schedules, 64_472, "{name}: schedules");
    }
}

/// Explores `wl` unreduced, asking a [`LinMonitor`] in `mode` for a verdict
/// on every schedule; returns the counters, exhaustion and the checker
/// states expanded.
fn checked<O>(
    setup: impl FnMut(&mut SharedMemory) -> O,
    wl: &Workload<TasSpec, TasSwitch>,
    max_schedules: u64,
    mode: CheckerMode,
) -> (ExploreStats, bool, u64)
where
    O: SimObject<TasSpec, TasSwitch>,
{
    let mut monitor = LinMonitor::new(TasSpec, mode);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        &checker_config(max_schedules),
        &mut monitor,
        &NoObserver,
        |_res, _mem, m: &mut LinMonitor<TasSpec>| m.verdict(),
    );
    let (stats, exhausted) = counted(report);
    (stats, exhausted, monitor.checker_states())
}

#[test]
fn both_checkers_exhaust_the_n2_space() {
    for (mode, states) in [
        (CheckerMode::FromScratch, 193_416),
        (CheckerMode::Incremental, 193_414),
    ] {
        let (stats, exhausted, checker_states) =
            checked(new_speculative_tas, &tas(2, 1), 1_000_000, mode);
        assert!(
            exhausted,
            "{mode:?}: the one-op n=2 space must be exhausted"
        );
        assert_eq!(
            (stats.schedules, checker_states),
            (64_472, states),
            "{mode:?}"
        );
    }
}

#[test]
fn incremental_checker_expands_fewer_states_on_9_commit_histories() {
    // Re-running the search from scratch repeats work proportional to the
    // whole history; the incremental checker only pays for the commits in
    // each re-executed suffix.
    let [from_scratch, incremental] =
        [CheckerMode::FromScratch, CheckerMode::Incremental].map(|mode| {
            let (stats, exhausted, checker_states) =
                checked(SwapTas::new, &tas(3, 3), 200_000, mode);
            assert!(!exhausted, "{mode:?}: the cap must bind");
            assert_eq!(stats.schedules, 200_000, "{mode:?}");
            checker_states
        });
    assert_eq!((from_scratch, incremental), (2_000_000, 1_159_147));
    assert!(incremental < from_scratch);
}
