//! The traced run: `scl-check` registry scenarios rebuilt from public
//! constructors, with timing shims at each layer boundary.
//!
//! The scenario runners in `scl-check` are private, so each replica below
//! restates its scenario's object, workload, configuration overrides and
//! check closure. `perfbench/run.py` compares every replica's schedule count,
//! executed steps and verdict with the untraced `scl-check` report of the
//! same scenario and drops the replica's numbers if they differ.
//!
//! Spans are aggregated in memory per thread and per layer (count and total
//! time) and written out once per scenario:
//!
//! * `core.step` — [`OpExecution::step`] of the object's operations;
//! * `core.object_checkpoint` — [`SimObject::snapshot`]/[`SimObject::restore`]
//!   and [`OpExecution::fork`];
//! * `bridge.record` — the [`LinMonitor`]'s `begin`/`observe`/`mark`/
//!   `rewind_to` hooks;
//! * `spec.verdict` — [`LinMonitor::verdict`];
//! * `memory.snapshot` / `memory.restore` — [`SharedMemory::snapshot_into`]
//!   and [`SharedMemory::restore`], timed on every `SAMPLE_EVERY`-th state
//!   the check closure sees (on a copy, so the exploration is untouched);
//! * `harness.sample` — the copying that sampling needs; it is harness cost,
//!   not the program's, and is subtracted like the other spans when the
//!   explorer's self time is computed.

use crate::parsed_flag;
use scl_check::{CheckerMode, LinMonitor};
use scl_core::{
    new_composable_universal, new_speculative_tas, AbdRegister, ResettableTas as SimResettableTas,
};
use scl_sim::{
    explore_schedules_monitored_observed_report,
    explore_schedules_parallel_monitored_observed_report, ExecSession, ExecutionResult,
    ExploreConfig, ExploreError, ExploreOutcome, ExploreReport, Footprint, MemSnapshot,
    ObjectSnapshot, OpExecution, OpOutcome, Reduction, ResumeMode, ScheduleMonitor, SharedMemory,
    SimObject, StepOutcome, TelemetryObserver, Workload,
};
use scl_spec::{
    ProcessId, QueueOp, QueueSpec, RegisterOp, RegisterSpec, Request, SequentialSpec, TasOp,
    TasResp, TasSpec, TasSwitch,
};
use std::cell::RefCell;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th checked state is copied and timed through
/// `snapshot_into`/`restore`.
const SAMPLE_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Layer {
    Step,
    Checkpoint,
    Record,
    Verdict,
    MemSnapshot,
    MemRestore,
    Harness,
}

const LAYERS: [&str; 7] = [
    "core.step",
    "core.object_checkpoint",
    "bridge.record",
    "spec.verdict",
    "memory.snapshot",
    "memory.restore",
    "harness.sample",
];

/// One thread's span totals. Only the owning thread writes (plain
/// load + store); the collector reads after the exploration has joined
/// every worker.
#[derive(Default)]
struct ThreadSpans {
    nanos: [AtomicU64; LAYERS.len()],
    count: [AtomicU64; LAYERS.len()],
}

impl ThreadSpans {
    fn add(&self, layer: Layer, nanos: u64) {
        let i = layer as usize;
        let n = &self.nanos[i];
        n.store(n.load(Ordering::Relaxed) + nanos, Ordering::Relaxed);
        let c = &self.count[i];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

static ALL_SPANS: Mutex<Vec<Arc<ThreadSpans>>> = Mutex::new(Vec::new());

thread_local! {
    static SPANS: Arc<ThreadSpans> = {
        let spans = Arc::new(ThreadSpans::default());
        ALL_SPANS
            .lock()
            .expect("span registry poisoned")
            .push(Arc::clone(&spans));
        spans
    };
    static SAMPLER: RefCell<(u64, SharedMemory, MemSnapshot)> =
        RefCell::new((0, SharedMemory::new(), MemSnapshot::new()));
}

/// Runs `f` inside a span of `layer`; returns its result and the span end.
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, Instant) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    SPANS.with(|s| s.add(layer, (t1 - t0).as_nanos() as u64));
    (r, t1)
}

/// Sums and zeroes every thread's spans: `(count, seconds)` per layer.
fn drain_spans() -> [(u64, f64); LAYERS.len()] {
    let mut out = [(0, 0.0); LAYERS.len()];
    for s in ALL_SPANS.lock().expect("span registry poisoned").iter() {
        for (i, o) in out.iter_mut().enumerate() {
            o.0 += s.count[i].swap(0, Ordering::Relaxed);
            o.1 += s.nanos[i].swap(0, Ordering::Relaxed) as f64 / 1e9;
        }
    }
    out
}

/// Times `snapshot_into` on the checked state and `restore` on a copy of it.
fn sample_memory(mem: &SharedMemory) {
    SAMPLER.with(|cell| {
        let (seen, scratch, snap) = &mut *cell.borrow_mut();
        *seen += 1;
        if !seen.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        span(Layer::Harness, || scratch.clone_from(mem));
        span(Layer::MemSnapshot, || mem.snapshot_into(snap));
        span(Layer::MemRestore, || scratch.restore(snap));
    });
}

/// Timing shim around an object.
struct TimedObject<O>(O);

/// Timing shim around one in-flight operation.
struct TimedOp<S: SequentialSpec, V>(Box<dyn OpExecution<S, V>>);

impl<S: SequentialSpec + 'static, V: 'static> OpExecution<S, V> for TimedOp<S, V> {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<S, V> {
        span(Layer::Step, || self.0.step(mem)).0
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<S, V>>> {
        span(Layer::Checkpoint, || self.0.fork())
            .0
            .map(|e| Box::new(TimedOp(e)) as Box<dyn OpExecution<S, V>>)
    }

    fn next_footprint(&self) -> Footprint {
        self.0.next_footprint()
    }

    fn may_respond_next(&self) -> bool {
        self.0.may_respond_next()
    }

    fn blocked(&self, mem: &SharedMemory) -> bool {
        self.0.blocked(mem)
    }
}

impl<S, V, O> SimObject<S, V> for TimedObject<O>
where
    S: SequentialSpec + 'static,
    V: 'static,
    O: SimObject<S, V>,
{
    fn invoke(
        &mut self,
        mem: &mut SharedMemory,
        req: Request<S>,
        switch: Option<V>,
    ) -> Box<dyn OpExecution<S, V>> {
        Box::new(TimedOp(self.0.invoke(mem, req, switch)))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn recover(
        &mut self,
        mem: &mut SharedMemory,
        proc: ProcessId,
        interrupted: Option<&Request<S>>,
    ) -> Option<Box<dyn OpExecution<S, V>>> {
        self.0
            .recover(mem, proc, interrupted)
            .map(|e| Box::new(TimedOp(e)) as Box<dyn OpExecution<S, V>>)
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        span(Layer::Checkpoint, || self.0.snapshot()).0
    }

    fn restore(&mut self, snap: &ObjectSnapshot) {
        span(Layer::Checkpoint, || self.0.restore(snap));
    }
}

/// Timing shim around a [`LinMonitor`]. It also remembers when it was built
/// and when it last did work, which bounds how long its worker was busy.
struct TimedMonitor<S: SequentialSpec> {
    inner: LinMonitor<S>,
    created: Instant,
    last: Instant,
}

impl<S: SequentialSpec> TimedMonitor<S> {
    fn new(inner: LinMonitor<S>) -> Self {
        let now = Instant::now();
        TimedMonitor {
            inner,
            created: now,
            last: now,
        }
    }

    fn verdict(&mut self) -> Result<(), String> {
        let (v, end) = span(Layer::Verdict, || self.inner.verdict());
        self.last = end;
        v
    }

    fn busy(&self) -> Duration {
        self.last - self.created
    }
}

impl<S, V> ScheduleMonitor<S, V> for TimedMonitor<S>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    fn begin(&mut self) {
        let inner = &mut self.inner;
        self.last = span(Layer::Record, || {
            ScheduleMonitor::<S, V>::begin(inner);
        })
        .1;
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        let inner = &mut self.inner;
        self.last = span(Layer::Record, || inner.observe(session)).1;
    }

    fn mark(&mut self) -> u64 {
        let inner = &mut self.inner;
        let (token, end) = span(Layer::Record, || ScheduleMonitor::<S, V>::mark(inner));
        self.last = end;
        token
    }

    fn rewind_to(&mut self, mark: u64) {
        let inner = &mut self.inner;
        self.last = span(Layer::Record, || {
            ScheduleMonitor::<S, V>::rewind_to(inner, mark)
        })
        .1;
    }
}

/// One traced replica run.
struct ReplicaRun {
    report: ExploreReport,
    wall: Duration,
    busy: Duration,
    /// `(count, seconds)` per layer of [`LAYERS`].
    spans: [(u64, f64); LAYERS.len()],
}

/// The CLI's default exploration configuration (`scl-check` with no flags
/// but `--workers` and `--max-schedules`), before per-scenario overrides.
fn cli_config(workers: usize, max_schedules: u64) -> ExploreConfig {
    ExploreConfig {
        max_schedules,
        max_ticks: 10_000,
        metrics_only: false,
        threads: workers,
        reduction: Reduction::SourceDporLinPreserving,
        resume: ResumeMode::PrefixResume,
        ..ExploreConfig::default()
    }
}

/// Explores like `scl-check`'s scenario pipeline (telemetry observer
/// attached, as the CLI always does), through the timing shims.
#[allow(clippy::too_many_arguments)]
fn replicate<S, V, O, FSetup, FExtra, FGate>(
    config: &ExploreConfig,
    checker: CheckerMode,
    spec: S,
    setup: FSetup,
    workload: &Workload<S, V>,
    extra: FExtra,
    lin_applies: FGate,
) -> ReplicaRun
where
    S: SequentialSpec + Send + Sync + 'static,
    S::State: Send,
    S::Op: Send + Sync,
    S::Resp: Send,
    V: Clone + Eq + Hash + Debug + Sync + 'static,
    O: SimObject<S, V>,
    FSetup: Fn(&mut SharedMemory) -> O + Sync,
    FExtra: Fn(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String> + Sync,
    FGate: Fn(&ExecutionResult<S, V>) -> bool + Sync,
{
    let obs = TelemetryObserver::new(0, config.max_schedules);
    let check = |res: &ExecutionResult<S, V>, mem: &SharedMemory, m: &mut TimedMonitor<S>| {
        sample_memory(mem);
        extra(res, mem)?;
        if !lin_applies(res) {
            return Ok(());
        }
        m.verdict()
    };
    let timed_setup = |mem: &mut SharedMemory| TimedObject(setup(mem));
    drain_spans();
    let start = Instant::now();
    let (report, busy) = if config.threads == 1 {
        let mut monitor = TimedMonitor::new(LinMonitor::new(spec, checker));
        let report = explore_schedules_monitored_observed_report(
            timed_setup,
            workload,
            config,
            &mut monitor,
            &obs,
            check,
        );
        (report, monitor.busy())
    } else {
        let factory = || TimedMonitor::new(LinMonitor::new(spec.clone(), checker));
        let (report, monitors) = explore_schedules_parallel_monitored_observed_report(
            timed_setup,
            workload,
            config,
            &factory,
            &obs,
            check,
        );
        (report, monitors.iter().map(TimedMonitor::busy).sum())
    };
    ReplicaRun {
        report,
        wall: start.elapsed(),
        busy,
        spans: drain_spans(),
    }
}

// ---------------------------------------------------------------------------
// Scenario replicas (restating `scl_check::scenarios`)
// ---------------------------------------------------------------------------

fn winners<V>(res: &ExecutionResult<TasSpec, V>) -> usize {
    res.ops
        .iter()
        .filter(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
        .count()
}

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

fn completes<S: SequentialSpec, V>(
    res: &ExecutionResult<S, V>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("execution hit the tick limit".into());
    }
    Ok(())
}

fn abd_aborted<V>(res: &ExecutionResult<RegisterSpec, V>) -> bool {
    res.ops
        .iter()
        .any(|o| matches!(o.outcome, Some(OpOutcome::Abort(_))))
}

fn abd_workload() -> Workload<RegisterSpec, ()> {
    Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]])
}

fn spec_tas_n3(base: &ExploreConfig, realtime: bool) -> ReplicaRun {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    let checker = if realtime {
        CheckerMode::Incremental
    } else {
        CheckerMode::FromScratch
    };
    replicate(
        base,
        checker,
        TasSpec,
        new_speculative_tas,
        &wl,
        tas_wait_free_single_winner,
        |_res| realtime,
    )
}

fn resettable_tas_n2(base: &ExploreConfig) -> ReplicaRun {
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet, TasOp::Reset, TasOp::TestAndSet],
        vec![TasOp::TestAndSet],
    ]);
    replicate(
        base,
        CheckerMode::Incremental,
        TasSpec,
        |mem| SimResettableTas::new(mem, 2),
        &wl,
        completes,
        |res| {
            res.ops
                .iter()
                .find(|o| o.req.proc == ProcessId(0))
                .map(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
                .unwrap_or(false)
        },
    )
}

fn universal_queue_n2(base: &ExploreConfig) -> ReplicaRun {
    let wl = Workload::from_ops(vec![vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]]);
    replicate(
        base,
        CheckerMode::Incremental,
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
        |_res| true,
    )
}

fn universal_register_n2(base: &ExploreConfig) -> ReplicaRun {
    let wl = Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    replicate(
        base,
        CheckerMode::Incremental,
        RegisterSpec,
        |mem| new_composable_universal(mem, 2, RegisterSpec),
        &wl,
        completes,
        |_res| true,
    )
}

fn abd_quorum_mutant(base: &ExploreConfig) -> ReplicaRun {
    replicate(
        base,
        CheckerMode::Incremental,
        RegisterSpec,
        |mem| AbdRegister::new_quorum_mutant(mem, 1, 2, 24, 2),
        &Workload::from_ops(vec![vec![RegisterOp::Write(5), RegisterOp::Read]]),
        completes,
        |_res| true,
    )
}

fn abd_lossy_n2(base: &ExploreConfig) -> ReplicaRun {
    let config = ExploreConfig {
        max_drops: 1,
        max_crashes: 1,
        ..base.clone()
    };
    replicate(
        &config,
        CheckerMode::Incremental,
        RegisterSpec,
        |mem| AbdRegister::new(mem, 2, 2, 24, 2),
        &abd_workload(),
        completes,
        |res| !abd_aborted(res),
    )
}

fn abd_partition_minority_n2(base: &ExploreConfig) -> ReplicaRun {
    let config = ExploreConfig {
        partition: 1 << 4,
        ..base.clone()
    };
    replicate(
        &config,
        CheckerMode::Incremental,
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

fn abd_retry_exhaustion_abort_n2(base: &ExploreConfig) -> ReplicaRun {
    let config = ExploreConfig {
        max_drops: 1,
        ..base.clone()
    };
    let abort_schedules = AtomicU64::new(0);
    let mut run = replicate(
        &config,
        CheckerMode::Incremental,
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
                abort_schedules.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        },
        |res| !abd_aborted(res),
    );
    if abort_schedules.load(Ordering::Relaxed) == 0
        && matches!(run.report.outcome, Ok(ExploreOutcome::Exhausted { .. }))
    {
        run.report.outcome = Err(ExploreError::Check(scl_sim::ExploreViolation {
            schedule: Vec::new(),
            message: "retry exhaustion never occurred".into(),
        }));
    }
    run
}

/// The replicated scenarios, by `scl-check` registry name.
fn replica(name: &str) -> Option<fn(&ExploreConfig) -> ReplicaRun> {
    Some(match name {
        "spec_tas_n3" => |base| spec_tas_n3(base, false),
        "spec_tas_n3_realtime" => |base| spec_tas_n3(base, true),
        "resettable_tas_n2" => resettable_tas_n2,
        "universal_queue_n2" => universal_queue_n2,
        "universal_register_n2" => universal_register_n2,
        "abd_quorum_mutant" => abd_quorum_mutant,
        "abd_lossy_n2" => abd_lossy_n2,
        "abd_partition_minority_n2" => abd_partition_minority_n2,
        "abd_retry_exhaustion_abort_n2" => abd_retry_exhaustion_abort_n2,
        _ => return None,
    })
}

/// The report entry of one replica, in the key names of `scl-check --json`.
fn replica_json(name: &str, workers: usize, run: &ReplicaRun) -> String {
    let stats = &run.report.stats;
    let (outcome, schedules, violation) = match &run.report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => ("exhausted", *schedules, "null".into()),
        Ok(ExploreOutcome::LimitReached { schedules }) => {
            ("limit_reached", *schedules, "null".into())
        }
        Err(ExploreError::Check(v)) => {
            let s: Vec<String> = v.schedule.iter().map(|p| p.index().to_string()).collect();
            ("violation", stats.schedules, format!("[{}]", s.join(", ")))
        }
        Err(ExploreError::WorkerPanic { .. }) => {
            ("harness_failure", stats.schedules, "null".into())
        }
    };
    let spans: Vec<String> = LAYERS
        .iter()
        .zip(run.spans)
        .map(|(layer, (count, secs))| {
            format!("\"{layer}\": {{\"count\": {count}, \"s\": {secs:.9}}}")
        })
        .collect();
    format!(
        "\"{name}\": {{\"outcome\": \"{outcome}\", \"schedules\": {schedules}, \
         \"executed_steps\": {}, \"violation_schedule\": {violation}, \"workers\": {workers}, \
         \"wall_s\": {:.9}, \"busy_s\": {:.9}, \"spans\": {{{}}}}}",
        stats.executed_steps,
        run.wall.as_secs_f64(),
        run.busy.as_secs_f64(),
        spans.join(", "),
    )
}

pub fn main(args: &[String]) -> Result<String, String> {
    let workers: usize = parsed_flag(args, "--workers", 1)?;
    if workers == 0 {
        return Err("--workers must be positive".to_string());
    }
    let base = cli_config(workers, parsed_flag(args, "--max-schedules", 200_000)?);
    let mut names = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
            continue;
        }
        names.push(args[i].as_str());
        i += 1;
    }
    let mut entries = Vec::new();
    for name in names {
        let run =
            replica(name).ok_or_else(|| format!("no traced replica for scenario `{name}`"))?;
        entries.push(replica_json(name, workers, &run(&base)));
    }
    Ok(format!("{{\"scenarios\": {{{}}}}}", entries.join(", ")))
}
