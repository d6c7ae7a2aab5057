//! The scenario registry: declarative model-checking workloads over every
//! object in the repository, runnable by name from tests, benches and the
//! `scl-check` CLI.
//!
//! A [`Scenario`] bundles an object constructor, a process count, per-process
//! operation sequences, the named checks applied to every explored schedule
//! and the expected outcome (the `a1_dropped_raw_fence_n2` mutant *must*
//! violate). Every scenario runs the same pipeline: the explorer enumerates
//! schedules under the configured [`Reduction`]/[`ResumeMode`] and the check
//! runs on every complete execution. A scenario whose checks include a
//! linearizability verdict attaches the [`LinMonitor`] bridge, which records
//! the invoke/commit projection incrementally and answers the per-schedule
//! verdict for every schedule of the explored trace (see [`crate::bridge`]).
//! An *outcome-only* scenario reads nothing a linearization orders — only
//! per-operation outcomes and steps, completion and the crash and restart
//! masks, which every schedule of one Mazurkiewicz trace shares — so it
//! attaches no monitor.

use crate::bridge::{CheckerMode, CrashedPending, LinMonitor};
use scl_core::{
    new_composable_universal, new_solo_fast_tas, new_speculative_tas, A1Tas, A1Variant, A2Tas,
    AbdRegister, CasConsensus, Composed, ConsensusObject, ConsensusSwitch, RecoverableTas,
    ResettableTas, SplitConsensus, WbRecovery, WriteBehindRegister,
};
use scl_sim::{
    explore_schedules_monitored_observed_report, replay_schedule, ExecutionResult, ExploreConfig,
    ExploreError, ExploreOutcome, ExploreReport, ExploreStats, ExploreViolation, NoMonitor,
    NoObserver, OpOutcome, Reduction, ReplayLog, ReplayOutcome, ResumeMode, ScheduleMonitor,
    SharedMemory, SimObject, StepKind, TelemetryObserver, TelemetrySnapshot, Workload,
};
use scl_spec::{
    ConsensusOp, ConsensusSpec, History, ProcessId, QueueOp, QueueSpec, RegisterOp, RegisterSpec,
    SequentialSpec, TasOp, TasResp, TasSpec, TasSwitch,
};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of one scenario run (the CLI flags).
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The explorer's configuration. The CLI sets the reduction, budgets,
    /// tick limit, worker count and deadline;
    /// scenarios set their own crash budget and eligibility (an arbitrary
    /// crash budget would invalidate outcome checks such as "exactly one
    /// winner") and partition mask (meaningful only against their own
    /// topology). The restart and drop budgets are safe to raise globally:
    /// restarts need a crash and drops need a network, so scenarios
    /// without them are unaffected. The defaults differ from
    /// [`ExploreConfig::default`] in three places:
    /// [`Reduction::SourceDpor`] (whose linearizability verdicts cover
    /// every schedule of each explored trace, see [`crate::bridge`]),
    /// prefix-resume backtracking, and one worker. A scenario always
    /// explores on one thread; `threads` is how many scenarios
    /// [`run_selection`] runs at once (`0` = the available parallelism).
    /// [`Reduction::SourceDporLinPreserving`], the benchmark harness's
    /// second name for source DPOR, explores the same traces and is
    /// reported as `source-dpor`. Verdicts always come from the
    /// incremental checker ([`CheckerMode::Incremental`]).
    pub explore: ExploreConfig,
    /// How crashed-pending operations enter the completion closure
    /// (`--crashed-pending`): [`CrashedPending::Open`] is plain
    /// linearizability, [`CrashedPending::Strict`] is strict
    /// linearizability. Only observable for scenarios that explore crashes.
    pub crashed_pending: CrashedPending,
    /// Telemetry observer attached to the exploration (`None` — the default
    /// — runs the [`NoObserver`] path, whose empty hooks monomorphise away).
    /// The CLI attaches one fresh observer per scenario run; its snapshot
    /// (depth histogram, happens-before classes) lands in
    /// [`ScenarioReport::telemetry`] and the checker wall-clock share is
    /// measured by timing every [`LinMonitor::verdict`] call into it.
    pub observer: Option<Arc<TelemetryObserver>>,
    /// Replay redirection: when set, the scenario's runner re-executes
    /// exactly this recorded schedule (same object constructor, workload,
    /// per-scenario config overrides and check closure as the exploration it
    /// came from) instead of exploring, and deposits the decoded
    /// [`ReplayLog`] in the capture. Used by `scl-check replay` and
    /// `--artifacts`.
    pub replay: Option<Arc<ReplayCapture>>,
}

/// A handle that redirects a scenario runner from exploration to the
/// deterministic replay of one recorded schedule (see
/// [`CheckConfig::replay`]). The runner stores the replay's outcome and
/// decoded log here; [`ReplayCapture::take`] retrieves them.
#[derive(Debug)]
pub struct ReplayCapture {
    /// The recorded schedule: raw pseudo-process ids exactly as reported in
    /// the original violation (see [`StepKind::decode`] for the encoding).
    pub schedule: Vec<ProcessId>,
    result: Mutex<Option<(ReplayOutcome, ReplayLog)>>,
}

impl ReplayCapture {
    /// A capture for `schedule`.
    pub fn new(schedule: Vec<ProcessId>) -> Self {
        ReplayCapture {
            schedule,
            result: Mutex::new(None),
        }
    }

    /// Takes the replay result deposited by the runner (`None` if no replay
    /// ran or it was already taken).
    pub fn take(&self) -> Option<(ReplayOutcome, ReplayLog)> {
        self.result.lock().ok()?.take()
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            explore: ExploreConfig {
                reduction: Reduction::SourceDpor,
                resume: ResumeMode::PrefixResume,
                threads: 1,
                ..ExploreConfig::default()
            },
            crashed_pending: CrashedPending::Open,
            observer: None,
            replay: None,
        }
    }
}

impl CheckConfig {
    /// The tiny-bounds configuration used by `scl-check --smoke` and CI.
    pub fn smoke() -> Self {
        let mut config = CheckConfig::default();
        config.explore.max_schedules = 2_000;
        config.explore.max_ticks = 2_000;
        config
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every schedule (modulo the reduction) passed every check.
    Exhausted {
        /// Schedules explored.
        schedules: u64,
    },
    /// The budget ran out with every explored schedule passing.
    LimitReached {
        /// Schedules explored.
        schedules: u64,
    },
    /// A schedule failed a check.
    Violation {
        /// The failing schedule.
        schedule: Vec<ProcessId>,
        /// The check's error.
        message: String,
    },
    /// The harness itself failed (the scenario's run panicked): not a
    /// verdict about the object at all, and never "as expected" — even for
    /// scenarios that expect a violation.
    HarnessFailure {
        /// The diagnostic: the scenario name and the panic message.
        message: String,
    },
}

impl Outcome {
    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Exhausted { .. } => "exhausted",
            Outcome::LimitReached { .. } => "limit_reached",
            Outcome::Violation { .. } => "violation",
            Outcome::HarnessFailure { .. } => "harness_failure",
        }
    }
}

/// The result of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario name.
    pub name: &'static str,
    /// What happened.
    pub outcome: Outcome,
    /// Explorer work accounting.
    pub explore: ExploreStats,
    /// Checker states expanded across the whole run (see
    /// [`LinMonitor::checker_states`]; 0 for outcome-only scenarios, which
    /// attach no monitor).
    pub checker_states: u64,
    /// Whether the scenario expected a violation.
    pub expect_violation: bool,
    /// Whether the run reached its schedule limit with a budget below the
    /// scenario's [`Scenario::needs_schedules`] floor — the limit-reached
    /// outcome is then *inconclusive* rather than a missed expectation.
    /// Always `false` for a run that found a violation or exhausted.
    pub underpowered: bool,
    /// Wall-clock seconds the whole run took (exploration plus checking).
    pub secs: f64,
    /// What the telemetry observer recorded, when [`CheckConfig::observer`]
    /// was attached (the work counters are in [`ScenarioReport::explore`]).
    /// The snapshot's `checker_nanos` is the checker's share of `secs`; the
    /// remainder is exploration wall time.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ScenarioReport {
    /// Whether the outcome matches the scenario's expectation: violating
    /// scenarios must violate, correct ones must pass (exhausted or merely
    /// within budget).
    pub fn as_expected(&self) -> bool {
        match (&self.outcome, self.expect_violation) {
            (Outcome::Violation { .. }, expected) => expected,
            // An underpowered budget that ran out without deciding is
            // inconclusive, not wrong: the scenario declared it needs more.
            (Outcome::LimitReached { .. }, true) => self.underpowered,
            (Outcome::Exhausted { .. } | Outcome::LimitReached { .. }, expected) => !expected,
            (Outcome::HarnessFailure { .. }, _) => false,
        }
    }
}

/// What a scenario runner hands back to [`Scenario::run`].
struct RunnerOutput {
    report: ExploreReport,
    checker_states: u64,
}

/// A registered model-checking scenario.
pub struct Scenario {
    /// Unique name (the CLI argument).
    pub name: &'static str,
    /// The object under test.
    pub object: &'static str,
    /// Number of processes.
    pub processes: usize,
    /// One-line description of the workload.
    pub description: &'static str,
    /// Names of the checks applied to every explored schedule.
    pub checks: &'static [&'static str],
    /// Whether the scenario is *expected* to violate (seeded bugs).
    pub expect_violation: bool,
    /// Schedule budget needed to *decide* the expectation under the least
    /// favourable reduction (`0` = any budget decides). A run whose
    /// `max_schedules` is below this floor and that hits its limit is
    /// *underpowered* — inconclusive rather than wrong — so smoke-sized
    /// sweeps over the whole registry stay meaningful for deep scenarios.
    pub needs_schedules: u64,
    runner: fn(&CheckConfig) -> RunnerOutput,
}

impl Scenario {
    /// Runs the scenario under `config` and reports. A panic inside the run
    /// (in the object, a check or the monitor) is caught and reported as
    /// [`Outcome::HarnessFailure`] naming the scenario.
    pub fn run(&self, config: &CheckConfig) -> ScenarioReport {
        let start = Instant::now();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.runner)(config)));
        let secs = start.elapsed().as_secs_f64();
        let (outcome, stats, checker_states) = match run {
            Ok(RunnerOutput {
                report,
                checker_states,
            }) => {
                let outcome = match report.outcome {
                    Ok(ExploreOutcome::Exhausted { schedules }) => Outcome::Exhausted { schedules },
                    Ok(ExploreOutcome::LimitReached { schedules }) => {
                        Outcome::LimitReached { schedules }
                    }
                    Err(ExploreError::Check(v)) => Outcome::Violation {
                        schedule: v.schedule,
                        message: v.message,
                    },
                    Err(e @ ExploreError::WorkerPanic { .. }) => {
                        unreachable!("the engine never reports {e}")
                    }
                };
                (outcome, report.stats, checker_states)
            }
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("a non-string payload");
                // Name the scenario: the report entry may be read far from
                // the panic's own stderr line.
                let message = format!("scenario `{}` panicked: {what}", self.name);
                let outcome = Outcome::HarnessFailure { message };
                (outcome, ExploreStats::default(), 0)
            }
        };
        // A budget below the scenario's floor qualifies only a run that
        // stopped at it: a found violation or an exhausted tree is decided.
        let underpowered = matches!(outcome, Outcome::LimitReached { .. })
            && config.explore.max_schedules < self.needs_schedules;
        ScenarioReport {
            name: self.name,
            outcome,
            explore: stats,
            checker_states,
            expect_violation: self.expect_violation,
            underpowered,
            secs,
            telemetry: config.observer.as_ref().map(|o| o.snapshot()),
        }
    }
}

/// Runs `selection` on up to `workers` threads (`0` = the available
/// parallelism) and returns the reports of the scenarios that ran, in
/// selection order, with the names of those that did not.
///
/// Each worker claims the next unclaimed scenario of the selection and runs
/// it with `run` (typically [`Scenario::run`] under a config carrying the
/// scenario's own observer), one scenario per thread at a time. Once
/// `deadline` has passed no scenario starts; claims are serialised, so the
/// scenarios that ran are a prefix of the selection and the skipped ones the
/// rest. Every scenario explores on one thread, so the reports do not
/// depend on the worker count.
pub fn run_selection<F>(
    selection: &[&'static Scenario],
    workers: usize,
    deadline: Option<Instant>,
    run: F,
) -> (Vec<ScenarioReport>, Vec<&'static str>)
where
    F: Fn(&'static Scenario) -> ScenarioReport + Sync,
{
    // Past the deadline nothing starts, so no thread is spawned either.
    let workers = match workers {
        _ if deadline.is_some_and(|d| Instant::now() >= d) => 1,
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    }
    .min(selection.len())
    .max(1);
    let next = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<ScenarioReport>>> =
        selection.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = {
            let mut next = next.lock().expect("claims never panic");
            if *next == selection.len() || deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
            *next += 1;
            *next - 1
        };
        let report = run(selection[i]);
        *slots[i].lock().expect("slots are written once") = Some(report);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    let reports: Vec<ScenarioReport> = slots
        .into_iter()
        .map_while(|slot| slot.into_inner().expect("slots are written once"))
        .collect();
    let skipped = selection[reports.len()..].iter().map(|s| s.name).collect();
    (reports, skipped)
}

/// Runs a workload through the unified exploration engine with the
/// linearizability bridge attached; `extra` adds scenario-specific
/// per-schedule checks on top of the (optional) linearizability verdict.
fn explore_with_lin_opt<S, V, O, FSetup, FExtra, FGate>(
    config: &CheckConfig,
    spec: S,
    setup: FSetup,
    workload: &Workload<S, V>,
    extra: FExtra,
    lin_applies: FGate,
) -> RunnerOutput
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FExtra: Fn(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
    FGate: Fn(&ExecutionResult<S, V>) -> bool,
{
    // When an observer is attached, every verdict call is timed into its
    // checker-wall counter, so reports can split total wall time into
    // "exploring" and "checking" shares.
    let observer = config.observer.clone();
    let check = move |res: &ExecutionResult<S, V>, mem: &SharedMemory, m: &mut LinMonitor<S>| {
        extra(res, mem)?;
        if !lin_applies(res) {
            return Ok(());
        }
        match &observer {
            Some(obs) => {
                let t0 = Instant::now();
                let verdict = m.verdict();
                obs.add_checker_nanos(t0.elapsed().as_nanos() as u64);
                verdict
            }
            None => m.verdict(),
        }
    };
    let monitor = LinMonitor::new(spec, CheckerMode::Incremental)
        .with_crashed_pending(config.crashed_pending);
    let (report, monitor) = run_checked(config, setup, workload, monitor, check);
    RunnerOutput {
        report,
        checker_states: monitor.checker_states(),
    }
}

/// [`explore_with_lin_opt`] with the verdict always applied.
fn explore_with_lin<S, V, O, FSetup, FExtra>(
    config: &CheckConfig,
    spec: S,
    setup: FSetup,
    workload: &Workload<S, V>,
    extra: FExtra,
) -> RunnerOutput
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FExtra: Fn(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
{
    explore_with_lin_opt(config, spec, setup, workload, extra, |_res| true)
}

/// Runs a workload of an outcome-only scenario: `check` reads only what
/// every schedule of one Mazurkiewicz trace shares (each operation's outcome
/// and steps, completion, the crash and restart masks), never real-time
/// order, so no monitor records the history.
fn explore_outcomes<S, V, O, FSetup, FCheck>(
    config: &CheckConfig,
    setup: FSetup,
    workload: &Workload<S, V>,
    check: FCheck,
) -> RunnerOutput
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: Fn(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
{
    let check =
        move |res: &ExecutionResult<S, V>, mem: &SharedMemory, _m: &mut NoMonitor| check(res, mem);
    let (report, _) = run_checked(config, setup, workload, NoMonitor, check);
    RunnerOutput {
        report,
        checker_states: 0,
    }
}

/// Explores the workload with `monitor` attached (or replays
/// [`CheckConfig::replay`]'s schedule with it), and returns the report with
/// the monitor.
fn run_checked<S, V, O, M, FSetup, FCheck>(
    config: &CheckConfig,
    setup: FSetup,
    workload: &Workload<S, V>,
    mut monitor: M,
    check: FCheck,
) -> (ExploreReport, M)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    let explore = &config.explore;
    let report = match (&config.replay, &config.observer) {
        (Some(capture), _) => replay(config, setup, workload, capture, &mut monitor, check),
        (None, Some(obs)) => explore_schedules_monitored_observed_report(
            setup,
            workload,
            explore,
            &mut monitor,
            obs.as_ref(),
            check,
        ),
        // No observer: the engine monomorphises the zero-cost `NoObserver`.
        (None, None) => explore_schedules_monitored_observed_report(
            setup,
            workload,
            explore,
            &mut monitor,
            &NoObserver,
            check,
        ),
    };
    (report, monitor)
}

/// The replay driver behind [`run_checked`]: re-executes the capture's
/// recorded schedule through [`replay_schedule`] with `monitor` and the
/// *same* check closure the exploration ran, deposits the decoded log in the
/// capture, and synthesises an [`ExploreReport`] so [`Scenario::run`]
/// classifies the replay exactly like an exploration — a reproduced
/// violation is `Outcome::Violation` with the recorded schedule, a
/// divergence is a violation naming the failing tick.
fn replay<S, V, O, M, FSetup, FCheck>(
    config: &CheckConfig,
    setup: FSetup,
    workload: &Workload<S, V>,
    capture: &ReplayCapture,
    monitor: &mut M,
    check: FCheck,
) -> ExploreReport
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnOnce(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    let (outcome, log) = replay_schedule(
        setup,
        workload,
        &config.explore,
        &capture.schedule,
        monitor,
        check,
    );
    let stats = ExploreStats {
        schedules: 1,
        executed_ticks: log.ticks.len() as u64,
        executed_steps: log
            .ticks
            .iter()
            .filter(|t| matches!(t.kind, StepKind::Step(_)))
            .count() as u64,
        ..ExploreStats::default()
    };
    let report_outcome = match &outcome {
        ReplayOutcome::Passed => Ok(ExploreOutcome::Exhausted { schedules: 1 }),
        ReplayOutcome::Violation(message) => Err(ExploreError::Check(ExploreViolation {
            schedule: capture.schedule.clone(),
            message: message.clone(),
        })),
        ReplayOutcome::Diverged { tick, reason } => Err(ExploreError::Check(ExploreViolation {
            schedule: capture.schedule.clone(),
            message: format!("replay diverged at tick {tick}: {reason}"),
        })),
    };
    if let Ok(mut slot) = capture.result.lock() {
        *slot = Some((outcome, log));
    }
    ExploreReport {
        outcome: report_outcome,
        stats,
    }
}

/// Counts committed `Winner` responses from the op records.
fn winners<V>(res: &ExecutionResult<TasSpec, V>) -> usize {
    res.ops
        .iter()
        .filter(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
        .count()
}

/// The wait-free composed-TAS check: completes, never aborts, exactly one
/// winner.
fn tas_wait_free_single_winner<V>(
    res: &ExecutionResult<TasSpec, V>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("execution hit the tick limit".into());
    }
    if res.metrics.aborted_count() > 0 {
        return Err("the composition aborted".into());
    }
    let w = winners(res);
    if w != 1 {
        return Err(format!("{w} winners (expected exactly 1)"));
    }
    Ok(())
}

fn run_spec_tas_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(
        config,
        TasSpec,
        new_speculative_tas,
        &wl,
        tas_wait_free_single_winner,
    )
}

fn run_spec_tas_n3(config: &CheckConfig) -> RunnerOutput {
    // Outcome checks only: the n=3 commit projection of the transcribed
    // composition is genuinely not linearizable in real time (see
    // `spec_tas_n3_realtime`), so this scenario verifies what the object
    // does guarantee under every interleaving — wait-freedom and a single
    // winner.
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    explore_outcomes(
        config,
        new_speculative_tas,
        &wl,
        tas_wait_free_single_winner,
    )
}

fn run_spec_tas_n3_realtime(config: &CheckConfig) -> RunnerOutput {
    // A finding of this subsystem, pinned as an expected violation: with
    // three processes the composition admits a *real-time inversion* — a
    // process that entered A1's splitter (wrote P and S) can fail the
    // re-check of P, abort with W while V = 0, and lose the hardware race,
    // while a second process returns `loser` merely for having seen the
    // splitter marks; the eventual winner then invokes strictly *after*
    // that loser's response. Outcome checks (single winner) cannot see
    // this; the per-schedule linearizability verdict must keep finding it.
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    explore_with_lin(
        config,
        TasSpec,
        new_speculative_tas,
        &wl,
        tas_wait_free_single_winner,
    )
}

fn run_solo_fast_tas_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(
        config,
        TasSpec,
        new_solo_fast_tas,
        &wl,
        tas_wait_free_single_winner,
    )
}

fn run_a1_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(config, TasSpec, A1Tas::new, &wl, |res, _mem| {
        if !res.completed {
            return Err("execution hit the tick limit".into());
        }
        let w = winners(res);
        if w > 1 {
            return Err(format!("{w} winners (Invariant 1)"));
        }
        // Invariant 2: once a winner committed, no process may abort with W
        // (it would go on to win the next module).
        let w_aborts = res
            .ops
            .iter()
            .filter(|o| matches!(o.outcome, Some(OpOutcome::Abort(TasSwitch::W))))
            .count();
        if w == 1 && w_aborts > 0 {
            return Err("winner committed but some process aborted with W (Invariant 2)".into());
        }
        Ok(())
    })
}

fn run_a1_dropped_raw_fence_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(
        config,
        TasSpec,
        |mem| {
            Composed::new(
                A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
                A2Tas::new(mem),
            )
        },
        &wl,
        tas_wait_free_single_winner,
    )
}

fn run_resettable_tas_n2(config: &CheckConfig) -> RunnerOutput {
    // p0: test-and-set, reset, test-and-set; p1: test-and-set. §6.3's
    // linearizability statement is conditional on *well-formed* usage (only
    // the current winner resets): when p0 loses round 0, its reset is a
    // no-op that still commits ResetDone, which the plain TasSpec cannot
    // model — so the per-schedule verdict applies only to the executions in
    // which p0 won its first test-and-set.
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet, TasOp::Reset, TasOp::TestAndSet],
        vec![TasOp::TestAndSet],
    ]);
    let p0_won_first = |res: &ExecutionResult<TasSpec, TasSwitch>| {
        res.ops
            .iter()
            .find(|o| o.req.proc == ProcessId(0))
            .map(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
            .unwrap_or(false)
    };
    explore_with_lin_opt(
        config,
        TasSpec,
        |mem| ResettableTas::new(mem, 2),
        &wl,
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
        p0_won_first,
    )
}

fn run_universal_queue_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<QueueSpec, History<QueueSpec>> =
        Workload::from_ops(vec![vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]]);
    explore_with_lin(
        config,
        QueueSpec,
        |mem| new_composable_universal(mem, 2, QueueSpec),
        &wl,
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            if res.metrics.aborted_count() > 0 {
                return Err("the composed universal construction aborted".into());
            }
            Ok(())
        },
    )
}

fn run_universal_register_n2(config: &CheckConfig) -> RunnerOutput {
    let wl: Workload<RegisterSpec, History<RegisterSpec>> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    explore_with_lin(
        config,
        RegisterSpec,
        |mem| new_composable_universal(mem, 2, RegisterSpec),
        &wl,
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
    )
}

fn consensus_workload(proposals: &[u64]) -> Workload<ConsensusSpec, ConsensusSwitch> {
    Workload {
        ops: proposals
            .iter()
            .map(|&p| vec![(ConsensusOp { proposal: p }, None)])
            .collect(),
    }
}

fn run_consensus_split_n2(config: &CheckConfig) -> RunnerOutput {
    let wl = consensus_workload(&[1, 2]);
    explore_with_lin(
        config,
        ConsensusSpec,
        |mem| ConsensusObject::<SplitConsensus>::new(mem, 2),
        &wl,
        // SplitConsensus may abort under contention (the process then stops
        // and its operation stays pending in the projection); agreement and
        // validity of the committed decisions are exactly linearizability
        // against ConsensusSpec.
        |_res, _mem| Ok(()),
    )
}

fn run_consensus_cas_n2(config: &CheckConfig) -> RunnerOutput {
    let wl = consensus_workload(&[1, 2]);
    explore_with_lin(
        config,
        ConsensusSpec,
        |mem| ConsensusObject::<CasConsensus>::new(mem, 2),
        &wl,
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            if res.metrics.aborted_count() > 0 {
                return Err("wait-free consensus aborted".into());
            }
            Ok(())
        },
    )
}

/// The crash-tolerant composed-TAS check: survivors complete, the
/// composition never aborts, and at most one test-and-set wins. ("Exactly
/// one" is wrong under crashes — the would-be winner may crash with its
/// operation pending, leaving every survivor a loser.)
fn tas_crash_safe<V>(res: &ExecutionResult<TasSpec, V>, _mem: &SharedMemory) -> Result<(), String> {
    if !res.completed {
        return Err("execution hit the tick limit".into());
    }
    if res.metrics.aborted_count() > 0 {
        return Err("the composition aborted".into());
    }
    let w = winners(res);
    if w > 1 {
        return Err(format!("{w} winners (expected at most 1)"));
    }
    Ok(())
}

fn run_crash_spec_tas_n2(config: &CheckConfig) -> RunnerOutput {
    // The fault-free `spec_tas_n2` space plus every 1-crash extension. The
    // scenario honours `--crashed-pending`: for a single-round TAS the
    // crashed operation either linearizes first (as the winner) or is
    // dropped, both of which the strict closure permits, so `open` and
    // `strict` both pass — the axis separates on `crash_write_behind_*`.
    let config = crash_config(config, !0);
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(&config, TasSpec, new_speculative_tas, &wl, tas_crash_safe)
}

fn write_behind_workload() -> Workload<RegisterSpec, ()> {
    // p0 writes 5; p1 reads twice. The interesting suffix: p0 crashes
    // between its two cells and p1's first read returns the stale 0 while
    // *flushing* 5 — the second read then returns 5, an order no strict
    // linearization admits.
    Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ])
}

fn run_crash_write_behind(config: &CheckConfig, crashed_pending: CrashedPending) -> RunnerOutput {
    let mut config = crash_config(config, 0b01); // only the writer crashes
    config.crashed_pending = crashed_pending;
    explore_with_lin(
        &config,
        RegisterSpec,
        WriteBehindRegister::new,
        &write_behind_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
    )
}

fn run_crash_write_behind_open_n2(config: &CheckConfig) -> RunnerOutput {
    run_crash_write_behind(config, CrashedPending::Open)
}

fn run_crash_write_behind_strict_n2(config: &CheckConfig) -> RunnerOutput {
    run_crash_write_behind(config, CrashedPending::Strict)
}

fn run_crash_resettable_tas_wedge_n2(config: &CheckConfig) -> RunnerOutput {
    // The wedged-resettable-TAS class: Algorithm 2 hands the *winner* the
    // exclusive right to reset the round. If the winner crashes before its
    // reset commits, the object is wedged — every surviving test-and-set
    // loses forever. Survivors still *complete* (each round is wait-free),
    // so this is invisible to safety checks and to termination: it must be
    // reported by a progress monitor, not found as a hang. Outcome checks
    // only (a crashed losing p0 makes reset ill-formed for the plain
    // TasSpec, as in `resettable_tas_n2`).
    let config = crash_config(config, 0b01); // only p0 (the resetter) crashes
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet, TasOp::Reset],
        vec![TasOp::TestAndSet],
    ]);
    explore_outcomes(
        &config,
        |mem| ResettableTas::new(mem, 2),
        &wl,
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            let p0_won = res.ops.iter().any(|o| {
                o.req.proc == ProcessId(0)
                    && matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner)))
            });
            let p0_reset_done = res.ops.iter().any(|o| {
                o.req.proc == ProcessId(0)
                    && matches!(o.outcome, Some(OpOutcome::Commit(TasResp::ResetDone)))
            });
            if res.is_crashed(ProcessId(0)) && p0_won && !p0_reset_done {
                return Err(
                    "non-blocking progress violated: the round winner crashed before its reset \
                     committed; every surviving test-and-set loses forever"
                        .into(),
                );
            }
            Ok(())
        },
    )
}

fn run_crash_a1_dropped_raw_fence_n2(config: &CheckConfig) -> RunnerOutput {
    // The seeded fault-free bug under a crash budget: the 0-crash schedules
    // are a subspace of the crash-aware exploration, so the two-winner
    // mutant must still be reported — crash branching may not mask bugs.
    let config = crash_config(config, !0);
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    explore_with_lin(
        &config,
        TasSpec,
        |mem| {
            Composed::new(
                A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
                A2Tas::new(mem),
            )
        },
        &wl,
        tas_crash_safe,
    )
}

/// A 1-crash budget on top of `config`, for the processes in `eligible`.
/// The shared preamble of every crash scenario.
fn crash_config(config: &CheckConfig, eligible: u64) -> CheckConfig {
    let mut config = config.clone();
    config.explore.max_crashes = 1;
    config.explore.crash_eligible = eligible;
    config
}

/// A 1-crash + 1-restart budget on top of `config` (the restart budget
/// honours a larger `--max-recoveries`), optionally narrowed to specific
/// processes. The shared preamble of every crash-recovery scenario.
fn recovery_config(
    config: &CheckConfig,
    crash_eligible: u64,
    recovery_eligible: u64,
) -> CheckConfig {
    let mut config = crash_config(config, crash_eligible);
    config.explore.max_recoveries = config.explore.max_recoveries.max(1);
    config.explore.recovery_eligible = recovery_eligible;
    config
}

fn run_recovery_tas(config: &CheckConfig, mutant: bool) -> RunnerOutput {
    // The crash_spec_tas_n2 space plus every restart extension: a crashed
    // process may come back, run the object's recovery routine and resolve
    // its interrupted test-and-set from the durable winner register. The
    // correct object passes under every crashed-pending closure — recovery
    // always resolves, so nothing is ever abandoned; the mutant's blind
    // Winner commit manufactures a second winner that even the outcome
    // check (at most one winner) catches, closure-independent.
    let config = recovery_config(config, !0, !0);
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    if mutant {
        explore_with_lin(
            &config,
            TasSpec,
            |mem| RecoverableTas::new_mutant(mem, 2),
            &wl,
            tas_crash_safe,
        )
    } else {
        explore_with_lin(
            &config,
            TasSpec,
            |mem| RecoverableTas::new(mem, 2),
            &wl,
            tas_crash_safe,
        )
    }
}

fn run_recovery_tas_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_tas(config, false)
}

fn run_recovery_tas_mutant_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_tas(config, true)
}

fn run_recovery_write_behind(
    config: &CheckConfig,
    recovery: WbRecovery,
    crashed_pending: CrashedPending,
) -> RunnerOutput {
    // The crash_write_behind space plus restarts of the writer, under a
    // chosen recovery routine × crashed-pending closure. The four scenario
    // pairings below pin the closure axis:
    //
    //   flush   × durable     — recovery redoes and late-commits the write:
    //                           every closure accepts a completed op (pass);
    //   flush   × strict      — the never-restarted subspace keeps the
    //                           PR-6 stale-read strict witness (violation);
    //   abandon × durable     — the rolled-back write is genuinely lost,
    //                           which durable permits (pass);
    //   abandon × recoverable — the same histories with the op *required*
    //                           to take effect by recovery completion
    //                           (violation — the separating pair).
    let mut config = recovery_config(config, 0b01, 0b01); // only the writer crashes/restarts
    config.crashed_pending = crashed_pending;
    explore_with_lin(
        &config,
        RegisterSpec,
        move |mem| WriteBehindRegister::with_recovery(mem, recovery),
        &write_behind_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
    )
}

fn run_recovery_write_behind_flush_durable_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_write_behind(config, WbRecovery::Flush, CrashedPending::Durable)
}

fn run_recovery_write_behind_flush_strict_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_write_behind(config, WbRecovery::Flush, CrashedPending::Strict)
}

fn run_recovery_write_behind_abandon_durable_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_write_behind(config, WbRecovery::Abandon, CrashedPending::Durable)
}

fn run_recovery_write_behind_abandon_recoverable_n2(config: &CheckConfig) -> RunnerOutput {
    run_recovery_write_behind(config, WbRecovery::Abandon, CrashedPending::Recoverable)
}

fn run_recovery_recrash_unrecovered_n2(config: &CheckConfig) -> RunnerOutput {
    // A 2-crash budget lets the writer crash *again mid-recovery*: the
    // flush routine is itself a multi-step execution, and a second crash
    // before it commits leaves the interrupted write unresolved with the
    // restart budget spent — a designed recovery-crash-safety violation,
    // reported through the op records rather than found as a hang.
    // Outcome checks only, so the designed message is *the* violation (the
    // open closure would pass these histories anyway).
    let mut config = recovery_config(config, 0b01, 0b01);
    config.explore.max_crashes = 2;
    explore_outcomes(
        &config,
        |mem| WriteBehindRegister::with_recovery(mem, WbRecovery::Flush),
        &write_behind_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            let p0 = ProcessId(0);
            let write_unresolved = res
                .ops
                .iter()
                .any(|o| o.req.proc == p0 && o.outcome.is_none());
            if res.is_restarted(p0) && res.is_crashed(p0) && write_unresolved {
                return Err(
                    "recovery crash-safety violated: the writer crashed again mid-recovery and \
                     its interrupted write stays unresolved with the restart budget spent \
                     (designed violation, not a hang)"
                        .into(),
                );
            }
            Ok(())
        },
    )
}

/// The ABD workload shared by every network scenario: a writer and a
/// reader racing over the emulated register.
fn abd_workload() -> Workload<RegisterSpec, ()> {
    Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]])
}

/// Whether some operation aborted (the designed retry-exhaustion outcome).
/// An aborted quorum write may have updated a *minority* of replicas — a
/// partial effect the sequential register spec cannot model — so the
/// network scenarios gate the linearizability verdict to abort-free
/// schedules (crashed-pending writes are different: the closure decides
/// whether they took effect).
fn abd_aborted<V>(res: &ExecutionResult<RegisterSpec, V>) -> bool {
    res.ops
        .iter()
        .any(|o| matches!(o.outcome, Some(OpOutcome::Abort(_))))
}

fn run_abd_lossy_n2(config: &CheckConfig) -> RunnerOutput {
    // The quorum-theorem workhorse: 2 clients × 2 replicas (quorum 2) with
    // a 1-crash + 1-drop budget. Retry 2 outlasts a single drop, so every
    // surviving operation still commits and the emulation stays
    // linearizable — ABD under minority faults. `--max-drops` can raise the
    // loss budget; past the retry budget operations degrade to designed
    // aborts, which the lin gate excludes (see [`abd_aborted`]).
    let mut config = crash_config(config, !0);
    config.explore.max_drops = config.explore.max_drops.max(1);
    explore_with_lin_opt(
        &config,
        RegisterSpec,
        |mem| AbdRegister::new(mem, 2, 2, 24, 2),
        &abd_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
        |res| !abd_aborted(res),
    )
}

fn run_abd_partition_minority_n2(config: &CheckConfig) -> RunnerOutput {
    // 3 replicas, quorum 2, replica 2 severed for the whole run: sends to
    // it vanish, yet every operation reaches a live majority and commits —
    // the partition-tolerance half of the quorum theorem.
    let mut config = config.clone();
    // Endpoint bit 2 + 2 = server 2 (after the two clients).
    config.explore.partition = 1 << 4;
    explore_with_lin_opt(
        &config,
        RegisterSpec,
        |mem| AbdRegister::new(mem, 2, 3, 24, 2),
        &abd_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            if abd_aborted(res) {
                return Err("an operation aborted despite a live majority".into());
            }
            Ok(())
        },
        |res| !abd_aborted(res),
    )
}

fn run_abd_partition_majority_wedge_n2(config: &CheckConfig) -> RunnerOutput {
    // 2 replicas, quorum 2, replica 1 severed: no quorum is reachable, so
    // every operation wedges open — each client collects one reply and
    // blocks forever. The execution still *completes* (nothing is enabled;
    // this is not a tick-limit hang): the wedge is a designed progress
    // violation, reported through the op records. Outcome checks only —
    // no operation ever commits, so there is no history to linearize.
    let mut config = config.clone();
    // Endpoint bit 2 + 1 = server 1.
    config.explore.partition = 1 << 3;
    explore_outcomes(
        &config,
        |mem| AbdRegister::new(mem, 2, 2, 12, 2),
        &abd_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            if res.ops.iter().any(|o| o.outcome.is_none()) {
                return Err(
                    "quorum progress violated: a majority partition wedges every quorum phase — \
                     operations stay open forever (designed violation, not a hang)"
                        .into(),
                );
            }
            Ok(())
        },
    )
}

fn run_abd_quorum_mutant(config: &CheckConfig) -> RunnerOutput {
    // The seeded off-by-one mutant: quorum = servers/2 = 1 of 2, so two
    // quorums can be disjoint and the intersection argument of the quorum
    // theorem collapses. One client writes *then* reads — sequential, so
    // real-time order is beyond doubt — and the violating schedules commit
    // the write through replica 0 while the read's query reaches only the
    // never-updated replica 1: the read returns the initial value after its
    // own committed write, with *zero* crashes, drops and partitions. Every
    // source-DPOR mode must find it. Capacity 24, not the exact-fit 16:
    // the workload needs 8 sends, and a global `--max-drops` budget makes
    // retries resend into the slots above them.
    explore_with_lin(
        config,
        RegisterSpec,
        |mem| AbdRegister::new_quorum_mutant(mem, 1, 2, 24, 2),
        &Workload::from_ops(vec![vec![RegisterOp::Write(5), RegisterOp::Read]]),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            Ok(())
        },
    )
}

fn run_abd_retry_exhaustion_abort_n2(config: &CheckConfig) -> RunnerOutput {
    // Retry budget 0 under a 1-drop budget: the first loss notification
    // exhausts the budget and the operation must degrade to a *designed
    // abort* — never a silent hang, never a bogus commit. Committed
    // operations in abort-free schedules stay linearizable, and the runner
    // verifies aborts actually occur when the space is exhausted.
    let mut config = config.clone();
    config.explore.max_drops = config.explore.max_drops.max(1);
    let abort_schedules = std::sync::atomic::AtomicU64::new(0);
    let run = explore_with_lin_opt(
        &config,
        RegisterSpec,
        |mem| AbdRegister::new(mem, 2, 2, 16, 0),
        &abd_workload(),
        |res, _mem| {
            if !res.completed {
                return Err("execution hit the tick limit".into());
            }
            if res.ops.iter().any(|o| o.outcome.is_none()) {
                return Err("an operation neither committed nor aborted".into());
            }
            if abd_aborted(res) {
                abort_schedules.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Ok(())
        },
        |res| !abd_aborted(res),
    );
    let aborts = abort_schedules.load(std::sync::atomic::Ordering::Relaxed);
    if aborts == 0 && matches!(run.report.outcome, Ok(ExploreOutcome::Exhausted { .. })) {
        // The whole space ran and no drop ever forced an abort: the
        // retry-exhaustion path is dead code — fail the scenario rather
        // than report a vacuous pass.
        return RunnerOutput {
            report: ExploreReport {
                outcome: Err(ExploreError::Check(ExploreViolation {
                    schedule: Vec::new(),
                    message: "retry exhaustion never occurred: no explored schedule degraded an \
                              operation to the designed abort"
                        .into(),
                })),
                stats: run.report.stats,
            },
            ..run
        };
    }
    run
}

/// Every registered scenario.
static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "spec_tas_n2",
        object: "speculative TAS (A1 ∘ A2)",
        processes: 2,
        description: "one test-and-set per process, every interleaving",
        checks: &["linearizable", "single_winner", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_spec_tas_n2,
    },
    Scenario {
        name: "spec_tas_n3",
        object: "speculative TAS (A1 ∘ A2)",
        processes: 3,
        description: "one test-and-set per process; outcome guarantees over every interleaving",
        checks: &["single_winner", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_spec_tas_n3,
    },
    Scenario {
        name: "spec_tas_n3_realtime",
        object: "speculative TAS (A1 ∘ A2) — real-time inversion",
        processes: 3,
        description: "pins the discovered n=3 real-time inversion of the commit projection",
        checks: &["linearizable", "single_winner", "wait_free"],
        expect_violation: true,
        // Source DPOR finds the inversion at schedule 9; unreduced DFS first
        // reaches it at schedule 87370.
        needs_schedules: 100_000,
        runner: run_spec_tas_n3_realtime,
    },
    Scenario {
        name: "solo_fast_tas_n2",
        object: "solo-fast TAS (A1sf ∘ A2)",
        processes: 2,
        description: "one test-and-set per process, every interleaving",
        checks: &["linearizable", "single_winner", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_solo_fast_tas_n2,
    },
    Scenario {
        name: "a1_n2",
        object: "bare A1 (obstruction-free)",
        processes: 2,
        description: "one test-and-set per process; Invariants 1–2 over the trace",
        checks: &["linearizable", "at_most_one_winner", "invariant_2"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_a1_n2,
    },
    Scenario {
        name: "a1_dropped_raw_fence_n2",
        object: "A1(DroppedRawFence) ∘ A2 — seeded bug",
        processes: 2,
        description: "the mutant that skips the RAW-fenced aborted check: two winners",
        checks: &["linearizable", "single_winner", "wait_free"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_a1_dropped_raw_fence_n2,
    },
    Scenario {
        name: "resettable_tas_n2",
        object: "resettable TAS (Algorithm 2)",
        processes: 2,
        description: "p0: TAS, reset, TAS; p1: TAS — round transitions under every interleaving",
        checks: &["linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_resettable_tas_n2,
    },
    Scenario {
        name: "universal_queue_n2",
        object: "composable universal construction ⟨queue⟩",
        processes: 2,
        description: "p0 enqueues, p1 dequeues through the §4 construction",
        checks: &["linearizable", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_universal_queue_n2,
    },
    Scenario {
        name: "universal_register_n2",
        object: "composable universal construction ⟨register⟩",
        processes: 2,
        description: "p0 writes 5, p1 reads through the §4 construction",
        checks: &["linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_universal_register_n2,
    },
    Scenario {
        name: "consensus_split_n2",
        object: "SplitConsensus (abortable, Appendix A)",
        processes: 2,
        description: "two proposals; agreement+validity of committed decisions",
        checks: &["linearizable"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_consensus_split_n2,
    },
    Scenario {
        name: "consensus_cas_n2",
        object: "CasConsensus (wait-free baseline)",
        processes: 2,
        description: "two proposals; wait-free agreement",
        checks: &["linearizable", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_consensus_cas_n2,
    },
    Scenario {
        name: "crash_spec_tas_n2",
        object: "speculative TAS (A1 ∘ A2) under crashes",
        processes: 2,
        description:
            "one test-and-set per process plus every 1-crash extension (--crashed-pending \
                      applies; open and strict agree here)",
        checks: &["linearizable", "at_most_one_winner", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_crash_spec_tas_n2,
    },
    Scenario {
        name: "crash_write_behind_open_n2",
        object: "write-behind register — seeded crash mutant",
        processes: 2,
        description: "writer may crash between its two cells; plain (open) linearizability holds",
        checks: &["linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_crash_write_behind_open_n2,
    },
    Scenario {
        name: "crash_write_behind_strict_n2",
        object: "write-behind register — seeded crash mutant",
        processes: 2,
        description: "the same histories under the strict closure: the crashed write takes effect \
                      between two post-crash reads",
        checks: &["strictly_linearizable", "completes"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_crash_write_behind_strict_n2,
    },
    Scenario {
        name: "crash_resettable_tas_wedge_n2",
        object: "resettable TAS (Algorithm 2) under crashes",
        processes: 2,
        description: "the winner crashes before its reset commits: survivors lose forever — a \
                      progress violation, reported rather than hung",
        checks: &["completes", "non_blocking_progress"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_crash_resettable_tas_wedge_n2,
    },
    Scenario {
        name: "crash_a1_dropped_raw_fence_n2",
        object: "A1(DroppedRawFence) ∘ A2 — seeded bug under crashes",
        processes: 2,
        description: "the two-winner mutant with a 1-crash budget: crash branching must not mask \
                      the fault-free bug",
        checks: &["linearizable", "at_most_one_winner", "wait_free"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_crash_a1_dropped_raw_fence_n2,
    },
    Scenario {
        name: "recovery_tas_n2",
        object: "recoverable TAS (announce + CAS claim)",
        processes: 2,
        description: "one test-and-set per process under a 1-crash + 1-restart budget; recovery \
                      re-validates ownership and resolves — passes every crashed-pending closure",
        checks: &["linearizable", "at_most_one_winner", "wait_free"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_recovery_tas_n2,
    },
    Scenario {
        name: "recovery_tas_mutant_n2",
        object: "recoverable TAS — seeded blind-winner recovery mutant",
        processes: 2,
        description: "recovery skips re-validating ownership and blindly commits Winner: two \
                      winners whenever the other process won while the victim was down",
        checks: &["linearizable", "at_most_one_winner", "wait_free"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_recovery_tas_mutant_n2,
    },
    Scenario {
        name: "recovery_write_behind_flush_durable_n2",
        object: "write-behind register (flush recovery)",
        processes: 2,
        description: "the restarted writer redoes and late-commits its interrupted write; the \
                      durable closure accepts every history",
        checks: &["durably_linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_recovery_write_behind_flush_durable_n2,
    },
    Scenario {
        name: "recovery_write_behind_flush_strict_n2",
        object: "write-behind register (flush recovery)",
        processes: 2,
        description: "the same space under the strict closure: the never-restarted subspace keeps \
                      the stale-read strict witness alive",
        checks: &["strictly_linearizable", "completes"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_recovery_write_behind_flush_strict_n2,
    },
    Scenario {
        name: "recovery_write_behind_abandon_durable_n2",
        object: "write-behind register (abandon recovery)",
        processes: 2,
        description: "recovery rolls the half-applied write back and abandons it; a lost \
                      interrupted op is exactly what the durable closure permits",
        checks: &["durably_linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_recovery_write_behind_abandon_durable_n2,
    },
    Scenario {
        name: "recovery_write_behind_abandon_recoverable_n2",
        object: "write-behind register (abandon recovery)",
        processes: 2,
        description: "the same histories under the recoverable closure: the abandoned write was \
                      required to take effect by recovery completion — the separating pair",
        checks: &["recoverably_linearizable", "completes"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_recovery_write_behind_abandon_recoverable_n2,
    },
    Scenario {
        name: "recovery_recrash_unrecovered_n2",
        object: "write-behind register (flush recovery) — recovery re-crashes",
        processes: 2,
        description: "a 2-crash budget crashes the writer again mid-recovery: the interrupted \
                      write stays unresolved with the restart budget spent — a designed \
                      recovery-crash-safety violation",
        checks: &["completes", "recovery_crash_safety"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_recovery_recrash_unrecovered_n2,
    },
    Scenario {
        name: "abd_lossy_n2",
        object: "ABD register (2 replicas, quorum 2)",
        processes: 2,
        description: "writer ∥ reader under a 1-crash + 1-drop budget: retries outlast the loss, \
                      every committed schedule stays linearizable",
        checks: &["linearizable", "completes"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_abd_lossy_n2,
    },
    Scenario {
        name: "abd_partition_minority_n2",
        object: "ABD register (3 replicas, quorum 2) — minority severed",
        processes: 2,
        description: "replica 2 partitioned away for the whole run: a live majority still commits \
                      every operation",
        checks: &["linearizable", "completes", "no_aborts"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_abd_partition_minority_n2,
    },
    Scenario {
        name: "abd_partition_majority_wedge_n2",
        object: "ABD register (2 replicas, quorum 2) — majority unreachable",
        processes: 2,
        description: "replica 1 partitioned away: every quorum phase wedges open — a designed \
                      progress violation, reported rather than hung",
        checks: &["completes", "quorum_progress"],
        expect_violation: true,
        needs_schedules: 0,
        runner: run_abd_partition_majority_wedge_n2,
    },
    Scenario {
        name: "abd_quorum_mutant",
        object: "ABD register — seeded quorum off-by-one mutant",
        processes: 1,
        description: "quorum = majority − 1: disjoint quorums let a sequential write-then-read \
                      miss its own committed write with zero faults",
        checks: &["linearizable", "completes"],
        expect_violation: true,
        // The stale read hides deep in the message-interleaving space: the
        // source-DPOR reductions reach it in 19 schedules, unreduced DFS
        // needs ~3.1M — smoke-sized budgets are underpowered under `off`.
        needs_schedules: 4_000_000,
        runner: run_abd_quorum_mutant,
    },
    Scenario {
        name: "abd_retry_exhaustion_abort_n2",
        object: "ABD register (retry budget 0)",
        processes: 2,
        description: "a single drop exhausts the retry budget: the operation degrades to a \
                      designed abort, never a hang or a bogus commit",
        checks: &["linearizable", "completes", "designed_abort"],
        expect_violation: false,
        needs_schedules: 0,
        runner: run_abd_retry_exhaustion_abort_n2,
    },
];

/// The scenario registry, in catalogue order.
pub fn registry() -> &'static [Scenario] {
    SCENARIOS
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// The accepted `--reduction` CLI values, in catalogue order. This table is
/// the single source of truth: [`parse_reduction`] resolves against it and
/// `scl-check --list` prints it, so the help text and the registry cannot
/// drift.
pub fn reduction_values() -> &'static [(&'static str, Reduction)] {
    &[
        ("off", Reduction::Off),
        ("source-dpor", Reduction::SourceDpor),
    ]
}

/// The accepted `--crashed-pending` CLI values (see [`reduction_values`]).
pub fn crashed_pending_values() -> &'static [(&'static str, CrashedPending)] {
    &[
        ("open", CrashedPending::Open),
        ("strict", CrashedPending::Strict),
        ("durable", CrashedPending::Durable),
        ("recoverable", CrashedPending::Recoverable),
    ]
}

/// The CLI name of a mode, resolved through its value table (the inverse
/// of the `parse_*` functions).
pub fn cli_name<T: PartialEq + Copy>(values: &[(&'static str, T)], v: T) -> &'static str {
    values
        .iter()
        .find(|(_, x)| *x == v)
        .map(|(n, _)| *n)
        .expect("every mode has a CLI value-table entry")
}

/// The name of a reduction in the CLI, the report and artifacts: [`cli_name`]
/// over [`reduction_values`], with [`Reduction::SourceDporLinPreserving`]
/// named `source-dpor`, the exploration it runs.
pub fn reduction_cli_name(r: Reduction) -> &'static str {
    let r = if r.is_source_dpor() {
        Reduction::SourceDpor
    } else {
        r
    };
    cli_name(reduction_values(), r)
}

/// Reduction modes by CLI name.
pub fn parse_reduction(s: &str) -> Option<Reduction> {
    reduction_values()
        .iter()
        .find(|(name, _)| *name == s)
        .map(|(_, r)| *r)
}

/// Crashed-pending closure modes by CLI name.
pub fn parse_crashed_pending(s: &str) -> Option<CrashedPending> {
    crashed_pending_values()
        .iter()
        .find(|(name, _)| *name == s)
        .map(|(_, c)| *c)
}

/// Levenshtein distance — powers the "did you mean" suggestions for unknown
/// CLI values.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `input`, if close enough to plausibly be a typo
/// (edit distance at most half the longer length). Ties break
/// lexicographically so the suggestion is deterministic.
pub fn nearest<'a, I>(input: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    candidates
        .into_iter()
        .map(|c| (edit_distance(input, c), c))
        .min()
        .filter(|&(d, c)| d <= input.len().max(c.len()) / 2)
        .map(|(_, c)| c)
}

/// The exit-code-2 diagnostic for an unknown CLI value: names the value,
/// suggests the nearest candidate when one is plausible, and otherwise
/// points at the authoritative listing.
pub fn unknown_value_message<'a, I>(kind: &str, input: &str, candidates: I) -> String
where
    I: IntoIterator<Item = &'a str>,
{
    match nearest(input, candidates) {
        Some(c) => format!("unknown {kind} `{input}`; did you mean `{c}`?"),
        None => format!("unknown {kind} `{input}` (see scl-check --list)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_value_tables_round_trip_through_the_parsers() {
        // The tables are the single source of truth for the CLI and the
        // report: every listed name must parse to its mode and name it back.
        assert_eq!(reduction_values().len(), 2);
        for (name, r) in reduction_values() {
            assert_eq!(parse_reduction(name), Some(*r));
            assert_eq!(reduction_cli_name(*r), *name);
        }
        for (name, c) in crashed_pending_values() {
            assert_eq!(parse_crashed_pending(name), Some(*c));
            assert_eq!(c.name(), *name);
        }
        assert_eq!(parse_reduction("bogus"), None);
        assert_eq!(parse_crashed_pending("bogus"), None);
    }

    #[test]
    fn unknown_value_messages_suggest_plausible_typos() {
        // A transposition inside a scenario name resolves to that name.
        let names = || registry().iter().map(|s| s.name);
        assert_eq!(
            unknown_value_message("scenario", "spec_tas_n3_raeltime", names()),
            "unknown scenario `spec_tas_n3_raeltime`; did you mean `spec_tas_n3_realtime`?"
        );
        // A flag-value typo resolves against the value table, preferring the
        // closer of the two dpor modes.
        assert_eq!(
            unknown_value_message(
                "--reduction value",
                "sorce-dpor",
                reduction_values().iter().map(|(n, _)| *n),
            ),
            "unknown --reduction value `sorce-dpor`; did you mean `source-dpor`?"
        );
        // Garbage gets no suggestion — just the pointer to --list.
        assert_eq!(
            unknown_value_message("scenario", "qqqqqqqq", names()),
            "unknown scenario `qqqqqqqq` (see scl-check --list)"
        );
        // Exact candidates are never "unknown"; distance 0 would still
        // suggest sanely if reached.
        assert_eq!(
            nearest("open", crashed_pending_values().iter().map(|(n, _)| *n)),
            Some("open")
        );
    }

    #[test]
    fn removed_eager_reductions_are_unknown_values() {
        let names: Vec<&str> = reduction_values().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["off", "source-dpor"]);
        for removed in ["sleep-sets", "sleep-sets-lin"] {
            assert_eq!(parse_reduction(removed), None);
            assert_eq!(
                unknown_value_message("--reduction value", removed, names.iter().copied()),
                format!("unknown --reduction value `{removed}` (see scl-check --list)")
            );
        }
    }

    #[test]
    fn the_second_source_dpor_name_is_unknown_and_reported_as_source_dpor() {
        let names = reduction_values().iter().map(|(n, _)| *n);
        assert_eq!(parse_reduction("source-dpor-lin"), None);
        assert_eq!(
            unknown_value_message("--reduction value", "source-dpor-lin", names),
            "unknown --reduction value `source-dpor-lin`; did you mean `source-dpor`?"
        );
        let old = Reduction::SourceDporLinPreserving;
        assert_eq!(reduction_cli_name(old), "source-dpor");
        assert_eq!(reduction_cli_name(Reduction::Off), "off");
    }

    fn panicking_runner(_config: &CheckConfig) -> RunnerOutput {
        panic!("injected runner panic");
    }

    /// A scenario whose runner panics before exploring anything.
    static PANICS: Scenario = Scenario {
        name: "panicking_runner_n2",
        object: "none",
        processes: 2,
        description: "a runner that panics",
        checks: &[],
        expect_violation: false,
        needs_schedules: 0,
        runner: panicking_runner,
    };

    #[test]
    fn a_panicking_scenario_is_a_harness_failure_while_the_others_report() {
        let config = CheckConfig::smoke();
        let (first, last) = (find("spec_tas_n2").unwrap(), find("a1_n2").unwrap());
        let selection = [first, &PANICS, last];
        for workers in [1, 2] {
            let (reports, skipped) = run_selection(&selection, workers, None, |s| s.run(&config));
            assert!(skipped.is_empty());
            let names: Vec<&str> = reports.iter().map(|r| r.name).collect();
            assert_eq!(
                names,
                [first.name, PANICS.name, last.name],
                "workers={workers}"
            );
            match &reports[1].outcome {
                Outcome::HarnessFailure { message } => assert!(
                    message.contains("panicking_runner_n2")
                        && message.contains("injected runner panic"),
                    "{message}"
                ),
                other => panic!("workers={workers}: expected a harness failure, got {other:?}"),
            }
            assert!(!reports[1].as_expected());
            for i in [0, 2] {
                assert!(
                    matches!(reports[i].outcome, Outcome::Exhausted { .. }),
                    "workers={workers}: {:?}",
                    reports[i].outcome
                );
            }
            let json = crate::reports_to_json(&config, &reports);
            assert!(json.contains("\"panicking_runner_n2\": {\"outcome\": \"harness_failure\""));
        }
    }

    /// Unreduced DFS reaches the n=3 real-time inversion only past 20000
    /// schedules: a run stopped there is inconclusive, not a miss.
    #[test]
    fn the_unreduced_realtime_inversion_is_underpowered_at_20000_schedules() {
        let mut config = CheckConfig::default();
        config.explore.reduction = Reduction::Off;
        config.explore.max_schedules = 20_000;
        let report = find("spec_tas_n3_realtime").unwrap().run(&config);
        assert_eq!(report.outcome, Outcome::LimitReached { schedules: 20_000 });
        assert!(report.underpowered);
        assert!(report.as_expected());
    }

    /// The budget alone does not make a run underpowered: source DPOR finds
    /// the same inversion well inside 20000 schedules, below the
    /// scenario's floor, and that run is decided.
    #[test]
    fn a_violation_found_below_the_schedule_floor_is_not_underpowered() {
        let mut config = CheckConfig::default();
        config.explore.max_schedules = 20_000;
        let scenario = find("spec_tas_n3_realtime").unwrap();
        assert!(config.explore.max_schedules < scenario.needs_schedules);
        let report = scenario.run(&config);
        assert!(
            matches!(report.outcome, Outcome::Violation { .. }),
            "{:?}",
            report.outcome
        );
        assert!(!report.underpowered);
        assert!(report.as_expected());
    }

    /// [`ExploreConfig::metrics_only`] is read by nothing: every run has
    /// its trace, so a scenario that reads abort switches (`a1_n2`) reports
    /// the same with the field set as without.
    #[test]
    fn metrics_only_is_compatible_with_trace_free_selections() {
        for name in ["a1_n2", "spec_tas_n2"] {
            let scenario = find(name).unwrap();
            let plain = scenario.run(&CheckConfig::smoke());
            let mut config = CheckConfig::smoke();
            config.explore.metrics_only = true;
            let flagged = scenario.run(&config);
            assert!(
                matches!(flagged.outcome, Outcome::Exhausted { .. }),
                "{name}: {:?}",
                flagged.outcome
            );
            assert_eq!(flagged.outcome, plain.outcome, "{name}");
            assert_eq!(flagged.explore, plain.explore, "{name}");
        }
    }
}
