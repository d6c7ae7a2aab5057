//! Bounded exhaustive exploration of schedules: an incremental,
//! reduction-aware depth-first search over the scheduling tree.
//!
//! The paper's correctness claims are universally quantified over schedules
//! ("in every execution…"). For small configurations (2–3 processes, one or
//! two operations each) the space of schedules is small enough to enumerate
//! completely. The explorer owns the scheduling loop directly (via the
//! step-wise [`Executor::survey`] / [`Executor::tick`] API): at every
//! decision point it runs the first schedulable process and records the
//! remaining choices as a branch frame; when an execution completes, it
//! backtracks to the deepest frame with an untried alternative and continues
//! from there.
//!
//! A user-supplied check runs on every execution; the first violation aborts
//! the exploration and is reported together with the offending schedule.
//! Test-suites use this to verify linearizability, safe composability, the
//! single-winner invariant and the Lemma 4 invariants over *all*
//! interleavings of small executions.
//!
//! # Backtracking cost: [`ResumeMode`]
//!
//! With [`ResumeMode::FullReplay`] every backtrack rebuilds the object and
//! re-executes the schedule prefix from tick 0 — total cost proportional to
//! *schedules × schedule length* (the PR 1 behaviour). With
//! [`ResumeMode::PrefixResume`] the explorer checkpoints the execution
//! (shared memory, executor session, object) at every branch point and
//! restores the checkpoint instead, re-executing only the suffix — total
//! cost proportional to the *edges of the scheduling tree*. The memory and
//! session checkpoints are marks on undo logs ([`SharedMemory::mark`],
//! [`ExecSession::mark`]): saving one costs `O(1)` and a restore undoes only
//! what the abandoned continuation changed, so a branch point that is never
//! revisited costs nothing and a short continuation is cheap to abandon.
//! Prefix-resume needs the object to support [`SimObject::snapshot`] and its
//! in-flight operations [`crate::OpExecution::fork`]; wherever they are
//! unsupported the explorer silently falls back to replay for that branch,
//! so the mode is always safe to enable.
//!
//! # Pruning: [`Reduction`]
//!
//! The [`Reduction::SourceDpor`] modes prune schedules that are guaranteed
//! to lead to already-covered states. They track happens-before over the
//! executed transitions ([`crate::hb`]), detect the reversible races of each
//! executed schedule, and seed backtrack/wakeup entries only where a race
//! reversal is realisable; sleep sets driven by per-step access footprints
//! ([`crate::memory::Footprint`]) prune on top. [`Reduction::Off`] is the
//! unreduced oracle. See [`Reduction`] for the soundness contract.
//!
//! # Throughput
//!
//! The engine owns one [`SharedMemory`] and one [`ExecSession`] and reuses
//! them across the whole exploration; only the object under test is rebuilt
//! on replays via `setup`. An exploration runs on one thread; callers with many independent
//! explorations (such as `scl-check` over its scenario registry) run them
//! concurrently, one engine each.

use crate::executor::{
    ExecSession, ExecutionResult, Executor, SessionMark, SurveyStatus, Workload,
};
use crate::hb::HbTracker;
use crate::machine::{ObjectSnapshot, SimObject};
use crate::memory::{Footprint, MemMark, RegId, SharedMemory, StepLabel};
use crate::step::StepKind;
use crate::telemetry::{ExploreObserver, NoObserver};
use scl_spec::{ProcessId, SequentialSpec};
use std::fmt::Debug;
use std::hash::Hash;

/// How the explorer prunes the scheduling tree.
///
/// The reduced modes run source DPOR (Abdulla et al., *Optimal DPOR*, POPL
/// 2014). The explorer tracks happens-before over the *executed* transition
/// stream ([`crate::hb::HbTracker`] over per-tick
/// [`crate::memory::StepLabel`]s) and detects the reversible races of each
/// explored schedule. It seeds a backtrack/wakeup entry only at prefixes
/// where a race reversal is realisable (a weak initial of the non-dependent
/// suffix), so the branch set at a node is a *source set* rather than
/// "every enabled process". Sleep sets run on top: after the subtree in
/// which process `p` moves first at a node is explored, sibling subtrees put
/// `p` to sleep until some executed step is *dependent* with `p`'s pending
/// step ([`pending_label`]) under the same relation that defines races
/// ([`StepLabel::dependent`]: same thread, or same register with at least
/// one write). Explored complete schedules are therefore never
/// equivalent.
///
/// Network and fault transitions are race-driven too. Each in-flight
/// message slot is its own happens-before thread, so the delivery or drop
/// of one message races with every dependent transition of other threads
/// and is branched only where such a race is reversed. A race whose later
/// transition the earlier one enabled (the send and the delivery of one
/// message, or a delivery and the read of the process it unblocked) has no
/// reversal and seeds nothing. A crash is a thread-local alternative to its
/// process's own step and a drop to its message's delivery: each enters a
/// frame together with its transition, wherever that transition enters, or
/// on its own where it is awake while its transition sleeps. Only restarts
/// are queued eagerly at every node.
///
/// The order within a node does not change the set explored there, only
/// the sleep sets: a fault goes first, before the transition it displaces.
/// That is a crash or drop awake beside its sleeping transition, else the
/// drop of the message the node's first awake transition delivers (a
/// race-seeded delivery's drop is popped before the delivery too), so the
/// sibling subtrees start with the fault asleep instead of queuing it again
/// at each of their nodes. A step's crash twin stays behind the step:
/// crashing first would reach the early-crash schedules first and find the
/// crash-window violations later.
///
/// # Soundness contract
///
/// Under source DPOR every Mazurkiewicz trace of the workload (every
/// happens-before class of complete executions) is explored by at least one
/// schedule, so every reachable *final state* (register contents, step
/// counters, operation outcomes) is reached and checks over final states and
/// outcome sets lose nothing. What one explored schedule does **not** fix is
/// the bookkeeping that distinguishes commuting interleavings of its trace:
/// trace event *order* (and thus real-time precedence between operations of
/// different processes), contention metrics (`foreign_steps`,
/// `overlapping_ops`), and register identities allocated lazily
/// mid-execution.
///
/// Real-time order is recovered per trace, after the fact. The explorer
/// keeps the happens-before order of the executed schedule in the session
/// ([`ExecSession::hb`]), and a monitor that reads real-time order (the
/// linearizability bridge in `scl-check`) decides every linear extension of
/// the trace's *history events* (invocations, responses, crash gates and
/// recovery deadlines) under it. Each such extension is the history of some
/// schedule of the same trace, because a linear extension of a sub-order
/// extends to the whole order; so the verdicts over all extensions are the
/// verdicts over every schedule [`Reduction::Off`] would enumerate. When
/// one extension violates, the monitor names it ([`name_counterexample`])
/// and the explorer reports the schedule of the trace that realises it
/// ([`crate::hb::HbTracker::extend_order`]).
///
/// Checks that depend on anything else in the list above must run under
/// [`Reduction::Off`], the unreduced oracle the source-DPOR modes are
/// tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Enumerate every schedule (the oracle mode). The explorer tracks no
    /// happens-before order, so a monitor checks each schedule's own order.
    #[default]
    Off,
    /// Source DPOR with sleep sets over shared-memory footprints.
    SourceDpor,
    /// The same exploration as [`Reduction::SourceDpor`]. Only the frozen
    /// benchmark harness sets this name; `scl-check` neither accepts nor
    /// reports it.
    SourceDporLinPreserving,
}

impl Reduction {
    /// Whether this mode runs source DPOR: race-driven backtracking under
    /// sleep sets (every mode but [`Reduction::Off`]).
    pub fn is_source_dpor(self) -> bool {
        self != Reduction::Off
    }
}

/// How the explorer re-establishes the execution state when backtracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeMode {
    /// Rebuild the object and replay the schedule prefix from tick 0 on
    /// every backtrack (always available). The oracle the tests hold
    /// prefix-resume to; `scl-check` always runs
    /// [`ResumeMode::PrefixResume`].
    #[default]
    FullReplay,
    /// Checkpoint at branch points and restore the checkpoint, re-executing
    /// only the suffix. A checkpoint is a [`SharedMemory::mark`] and an
    /// [`ExecSession::mark`] on their undo logs plus a
    /// [`SimObject::snapshot`]; restoring it undoes the logs back to the
    /// marks ([`SharedMemory::undo_to`], [`ExecSession::undo_to`]) and
    /// restores the object. Falls back to replay for any branch whose
    /// in-flight state cannot be forked or whose object cannot be
    /// snapshotted, and wherever a replay has since rebuilt the object.
    PrefixResume,
}

/// Configuration of the explorer.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum number of schedules to enumerate before giving up.
    pub max_schedules: u64,
    /// Tick limit per execution.
    pub max_ticks: u64,
    /// Not read by anything: every execution records its operations once,
    /// and [`ExecutionResult::trace`] builds the event trace from them on
    /// demand. The field stays because the benchmark harness sets it.
    pub metrics_only: bool,
    /// Not read by the engine, which always explores on one thread.
    /// `scl-check` reads it as its scenario-worker count (`--workers`, `0` =
    /// the available parallelism); the field stays because the benchmark
    /// harness sets it.
    pub threads: usize,
    /// Partial-order reduction mode.
    pub reduction: Reduction,
    /// Backtracking strategy.
    pub resume: ResumeMode,
    /// Maximum number of crash-stop failures injected per execution. `0`
    /// (the default) disables crash exploration entirely. With a positive
    /// budget the DFS additionally branches, at every decision point with
    /// budget left, on crashing each enabled crash-eligible process — a
    /// crash is scheduled as the pseudo-process `n + p` (see
    /// [`Executor::tick`]): the process drops out of the enabled set
    /// forever and its in-flight operation stays pending. Under source DPOR
    /// the crash of `p` is branched only beside `p`'s own step (see
    /// [`Reduction`]). Under a sleep-set reduction this doubles the mask
    /// space, so at most 32 processes are supported when crashes are
    /// enabled.
    pub max_crashes: usize,
    /// Processes eligible to crash, as a bitmask over process indices
    /// (`!0` = every process). Only consulted when `max_crashes > 0`.
    pub crash_eligible: u64,
    /// Maximum number of message-drop faults injected per execution. `0`
    /// (the default) never drops. With a positive budget — and a network
    /// configured via [`SharedMemory::net_init`] — the DFS additionally
    /// branches, at every decision point with budget left, on dropping each
    /// in-flight message: a drop is scheduled as the pseudo-process
    /// `2n + cap + s` (see [`Executor::tick`]), removing slot `s` from
    /// flight and handing its owner a loss notification. Under source DPOR
    /// the drop of `s` is branched only beside the delivery of `s`.
    pub max_drops: usize,
    /// Maximum number of restart (crash-recovery) transitions injected per
    /// execution. `0` (the default) keeps crashes crash-stop. With a
    /// positive budget the DFS additionally branches, at every decision
    /// point with budget left, on restarting each currently-crashed
    /// recovery-eligible process — a restart is scheduled as the
    /// pseudo-process `2n + 2cap + p` (see [`Executor::tick`]): the process
    /// re-enters the enabled set running the object's
    /// [`crate::machine::SimObject::recover`] routine for its interrupted
    /// operation. Restart branches exist only at decision points where some
    /// other transition is enabled (an execution in which *every* process is
    /// crashed is complete).
    pub max_recoveries: usize,
    /// Processes eligible to restart, as a bitmask over process indices
    /// (`!0` = every process). Only consulted when `max_recoveries > 0`.
    pub recovery_eligible: u64,
    /// Network endpoints severed for the whole exploration (bit `i` =
    /// client `i`, bit `clients + j` = server `j`; `0` = no partition).
    /// Applied via [`SharedMemory::net_sever`] right after every `setup`
    /// call, so each replayed execution sees the same partition. Messages
    /// to or from severed endpoints vanish silently at send time — they
    /// consume neither an in-flight slot nor the drop budget.
    pub partition: u64,
    /// A wall-clock deadline checked (alongside the schedule budget) once
    /// per complete execution: when it passes, the exploration stops with
    /// [`ExploreOutcome::LimitReached`] instead of running to exhaustion.
    /// `None` (the default) never stops early. This is the hook
    /// `scl-check`'s `--time-budget-ms` threads through so one huge
    /// scenario degrades gracefully mid-exploration.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 200_000,
            max_ticks: 10_000,
            metrics_only: false,
            threads: 0,
            reduction: Reduction::Off,
            resume: ResumeMode::FullReplay,
            max_crashes: 0,
            crash_eligible: !0,
            max_drops: 0,
            max_recoveries: 0,
            recovery_eligible: !0,
            partition: 0,
            deadline: None,
        }
    }
}

impl ExploreConfig {
    pub(crate) fn executor(&self) -> Executor {
        Executor::new().max_ticks(self.max_ticks)
    }
}

/// Outcome of an exploration in which every explored execution passed the
/// check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every schedule was enumerated (modulo the configured [`Reduction`]).
    Exhausted {
        /// Number of schedules explored.
        schedules: u64,
    },
    /// The schedule budget was exhausted before full coverage.
    LimitReached {
        /// Number of schedules explored.
        schedules: u64,
    },
}

impl ExploreOutcome {
    /// Number of schedules explored.
    pub fn schedules(&self) -> u64 {
        match self {
            ExploreOutcome::Exhausted { schedules }
            | ExploreOutcome::LimitReached { schedules } => *schedules,
        }
    }
}

/// A violation found by the exploration: the failing schedule and the
/// check's error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreViolation {
    /// The schedule (sequence of scheduled processes) that produced the
    /// violation.
    pub schedule: Vec<ProcessId>,
    /// The error reported by the check.
    pub message: String,
}

impl std::fmt::Display for ExploreViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule {:?}: {}", self.schedule, self.message)
    }
}

/// An exploration-level error. The engine only ever reports
/// [`ExploreError::Check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The user check rejected an execution.
    Check(ExploreViolation),
    /// Never constructed; the variant stays because the benchmark harness
    /// matches on it. A panicking check or monitor unwinds out of the
    /// exploration, and `scl-check` reports it as a `harness_failure`.
    WorkerPanic {
        /// A worker thread index.
        worker: usize,
        /// A schedule prefix.
        schedule_prefix: Vec<ProcessId>,
    },
}

impl ExploreError {
    /// The check violation (`None` for [`ExploreError::WorkerPanic`]).
    pub fn as_check(&self) -> Option<&ExploreViolation> {
        match self {
            ExploreError::Check(v) => Some(v),
            ExploreError::WorkerPanic { .. } => None,
        }
    }
}

impl From<ExploreViolation> for ExploreError {
    fn from(v: ExploreViolation) -> Self {
        ExploreError::Check(v)
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Check(v) => std::fmt::Display::fmt(v, f),
            ExploreError::WorkerPanic {
                worker,
                schedule_prefix,
            } => write!(
                f,
                "worker {worker} panicked exploring schedule prefix {schedule_prefix:?}"
            ),
        }
    }
}

/// Work accounting for one exploration, used to quantify what prefix-resume
/// and the partial-order reduction actually save.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete executions enumerated (equals the outcome's schedule count).
    pub schedules: u64,
    /// Scheduling transitions actually executed, including prefix replays.
    pub executed_ticks: u64,
    /// Shared-memory steps actually executed, including prefix replays.
    pub executed_steps: u64,
    /// The subset of `executed_ticks` spent re-running prefixes while
    /// backtracking (0 when every branch restores from a checkpoint).
    pub replayed_ticks: u64,
    /// Continuations abandoned because every enabled process was asleep
    /// (their states are covered by sibling subtrees).
    pub sleep_blocked: u64,
    /// Checkpoints taken ([`ResumeMode::PrefixResume`]).
    pub snapshots: u64,
    /// Backtracks that restored a checkpoint instead of replaying the
    /// prefix.
    pub checkpoint_restores: u64,
    /// Branch points where checkpointing was unsupported and the explorer
    /// fell back to replay.
    pub snapshot_fallbacks: u64,
    /// Reversible races detected on executed transitions (0 under
    /// [`Reduction::Off`]).
    pub races: u64,
    /// Backtrack/wakeup entries actually seeded from those races (the rest
    /// were already explored, pending, or covered by a sleep set).
    pub race_seeds: u64,
    /// Crash transitions executed (including prefix replays); always 0 when
    /// [`ExploreConfig::max_crashes`] is 0.
    pub crash_steps: u64,
    /// Message-delivery transitions executed (including prefix replays);
    /// always 0 without a configured network.
    pub delivery_steps: u64,
    /// Message-drop transitions executed (including prefix replays); always
    /// 0 when [`ExploreConfig::max_drops`] is 0.
    pub drop_steps: u64,
    /// Restart (crash-recovery) transitions executed (including prefix
    /// replays); always 0 when [`ExploreConfig::max_recoveries`] is 0.
    pub restart_steps: u64,
}

impl ExploreStats {
    /// Counts one executed fault or network transition in its per-kind
    /// counter (plain steps have none).
    fn count_transition(&mut self, kind: StepKind) {
        match kind {
            StepKind::Step(_) => {}
            StepKind::Crash(_) => self.crash_steps += 1,
            StepKind::Deliver(_) => self.delivery_steps += 1,
            StepKind::Drop(_) => self.drop_steps += 1,
            StepKind::Restart(_) => self.restart_steps += 1,
        }
    }
}

/// An exploration result together with its work accounting.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The outcome, or the first violation in DFS order.
    pub outcome: Result<ExploreOutcome, ExploreError>,
    /// Work performed to produce it.
    pub stats: ExploreStats,
}

/// An incremental observer of the exploration, wired into the explorer's
/// checkpoint machinery: it sees every executed scheduling decision (via the
/// session's [`crate::executor::TickEmission`]) and is snapshotted/rewound
/// together with the memory/session/object checkpoints, so prefix-resume
/// backtracking re-feeds it only the suffix of each schedule.
///
/// The motivating implementation is the linearizability bridge in
/// `scl-check`, which maintains the history's events and an incremental
/// Wing–Gong checker across the whole exploration instead of rebuilding
/// both from the trace for every schedule.
pub trait ScheduleMonitor<S: SequentialSpec, V> {
    /// A fresh execution is starting from tick 0 — the initial drive, or a
    /// branch whose checkpoint was unavailable and which therefore replays
    /// (the replayed prefix is re-observed tick by tick).
    fn begin(&mut self);

    /// One scheduling decision was executed; inspect
    /// [`ExecSession::last_emission`] (and, if needed,
    /// [`ExecSession::result`]) for what it did.
    fn observe(&mut self, session: &ExecSession<S, V>);

    /// A checkpoint is being taken at a branch point; return a token that
    /// [`Self::rewind_to`] accepts. Tokens form a stack: rewinding to one
    /// discards all later tokens, and a token may be rewound to repeatedly
    /// (once per sibling branch).
    fn mark(&mut self) -> u64;

    /// The paired checkpoint was restored: rewind to the state at `mark`.
    fn rewind_to(&mut self, mark: u64);
}

thread_local! {
    /// The order a check named with [`name_counterexample`] while it ran.
    static COUNTEREXAMPLE: std::cell::Cell<Option<Vec<usize>>> =
        const { std::cell::Cell::new(None) };
}

/// Called while the check rejects the current schedule, when the violation
/// comes from another order of its trace than the schedule's own: `order`
/// holds the schedule positions of the events whose order produced it, in
/// that order, which happens-before ([`ExecSession::hb`]) must allow. The
/// explorer then reports the schedule of the same trace that runs those
/// events in that order ([`crate::hb::HbTracker::extend_order`]) instead of
/// the explored one. A thread-local, not a [`ScheduleMonitor`] method, so
/// that it reaches the explorer through any monitor that wraps the one
/// deciding the verdict.
pub fn name_counterexample(order: Vec<usize>) {
    COUNTEREXAMPLE.set(Some(order));
}

/// A mutable borrow is a monitor itself: the sequential driver runs against
/// a caller-owned monitor without giving up ownership.
impl<S: SequentialSpec, V, M: ScheduleMonitor<S, V>> ScheduleMonitor<S, V> for &mut M {
    fn begin(&mut self) {
        (**self).begin()
    }
    fn observe(&mut self, session: &ExecSession<S, V>) {
        (**self).observe(session)
    }
    fn mark(&mut self) -> u64 {
        (**self).mark()
    }
    fn rewind_to(&mut self, mark: u64) {
        (**self).rewind_to(mark)
    }
}

/// The trivial monitor used by the unmonitored exploration APIs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMonitor;

impl<S: SequentialSpec, V> ScheduleMonitor<S, V> for NoMonitor {
    fn begin(&mut self) {}
    fn observe(&mut self, _session: &ExecSession<S, V>) {}
    fn mark(&mut self) -> u64 {
        0
    }
    fn rewind_to(&mut self, _mark: u64) {}
}

/// The sleep/seed mask bit of the raw scheduled id `p`. Ids beyond the
/// 64-bit mask map to the empty mask. Under source DPOR every id a race can
/// seed — steps and deliveries — fits, because [`Engine::new`] asserts that
/// the delivery band ends within 64; only drop and restart ids can fall off.
/// Those are never put to sleep and never marked seeded, which costs
/// reduction, not soundness: a drop enters a frame only beside its delivery,
/// and restarts are queued eagerly at every node.
#[inline]
fn bit(p: ProcessId) -> u64 {
    if p.index() < 64 {
        1u64 << p.index()
    } else {
        0
    }
}

/// Whether the exploration's wall-clock deadline (if any) has not passed.
/// Consulted alongside the schedule budget, once per complete execution.
#[inline]
fn deadline_ok(config: &ExploreConfig) -> bool {
    config
        .deadline
        .is_none_or(|d| std::time::Instant::now() < d)
}

/// The exact label of the transition `session` just executed, scheduled as
/// the raw id `chosen` in a workload of `n` processes over a network of `cap`
/// slots. The happens-before layer of the explorer and of
/// [`crate::replay`] both see transitions through this one decoding.
pub fn step_label<S, V>(
    session: &ExecSession<S, V>,
    chosen: ProcessId,
    n: usize,
    cap: usize,
) -> StepLabel
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    // The label's `proc` is the happens-before thread (`StepKind::thread`):
    // a crash or restart sits in its process's program order, which makes
    // it dependent with every step of that process for free, and deliveries
    // of different messages race instead of sitting in their owner's. A
    // restart is dependent with every transition: it may run only while
    // some other transition is enabled, so it does not commute with the
    // last steps of the other processes (behind them the execution is
    // complete), and no linear extension may move their events across it.
    let kind = StepKind::decode(chosen, n, cap);
    StepLabel {
        proc: kind.thread(n),
        footprint: if matches!(kind, StepKind::Restart(_)) {
            Footprint::Unknown
        } else {
            session.last_step_footprint()
        },
    }
}

/// The predicted label of the transition `id` if it ran next, in a workload
/// of `n` processes: what [`step_label`] would report after it, as far as
/// the current state tells. `None` for a restart, whose recovery routine's
/// behaviour is unknown before [`SimObject::recover`] builds it.
///
/// The prediction over-approximates the executed label on the same thread:
/// a step predicts what [`ExecSession::next_label`] reports (its operation's
/// next footprint); a crash has no memory access, exactly like its executed
/// label; a delivery or drop predicts the network layer's write set
/// ([`SharedMemory::net_deliver_footprint`],
/// [`SharedMemory::net_drop_footprint`]). So whatever the transition turns
/// out to be dependent with, its prediction is dependent with too, and the
/// sleep-set wake rule can ask [`StepLabel::dependent`] — the race relation
/// itself — whether an executed transition wakes a sleeping one.
pub fn pending_label<S, V>(
    session: &ExecSession<S, V>,
    mem: &SharedMemory,
    id: ProcessId,
    n: usize,
) -> Option<StepLabel>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    let kind = StepKind::decode(id, n, mem.net_cap());
    let footprint = match kind {
        StepKind::Step(p) => return Some(session.next_label(p)),
        StepKind::Crash(_) => Footprint::Pure,
        StepKind::Deliver(s) => mem.net_deliver_footprint(s),
        StepKind::Drop(s) => mem.net_drop_footprint(s),
        StepKind::Restart(_) => return None,
    };
    Some(StepLabel {
        proc: kind.thread(n),
        footprint,
    })
}

/// The processes whose in-flight operation is blocked at the current node
/// (in progress but not in the enabled set of the last survey), as a mask
/// over process indices.
pub(crate) fn blocked_now<S, V>(session: &ExecSession<S, V>) -> u64
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    let enabled = session.enabled().iter().fold(0, |m, p| m | bit(*p));
    session.in_progress().iter().fold(0, |m, p| m | bit(*p)) & !enabled
}

/// Whether the race between the executed transitions `earlier` and `later`
/// (happens-before threads of `n` processes plus one per in-flight slot) is
/// an *enabling edge*: `later` could not have run before `earlier`, so the
/// race has no reversal and seeds nothing. Two cases:
///
/// * `later` consumes a message that `earlier` created: it delivers or
///   drops slot `s`, and `earlier`'s write set holds `s`'s item cell (the
///   send, or the delivery that enqueued the reply);
/// * `later` reads a register that `earlier` wrote, by a process that was
///   blocked at `earlier`'s node (`blocked_at_earlier`, see
///   [`blocked_now`]). A blocked operation is unblocked only by a write to
///   the register its next step reads ([`crate::OpExecution::blocked`]),
///   and every other write to it after that node happens after `earlier`.
///
/// The explorer and [`crate::replay`] share this filter, so an artifact's
/// race annotations are the races the explorer branches on.
pub(crate) fn enabling_edge(
    earlier: StepLabel,
    later: StepLabel,
    blocked_at_earlier: u64,
    mem: &SharedMemory,
    n: usize,
) -> bool {
    let writes = |r: RegId| match earlier.footprint {
        Footprint::Write(w) => w == r,
        Footprint::Net(w) => w.contains(r),
        _ => false,
    };
    let t = later.proc.index();
    match later.footprint {
        Footprint::Net(_) if t >= n => writes(mem.net_slot_item_reg(t - n)),
        Footprint::Read(r) => t < n && blocked_at_earlier & (1u64 << t) != 0 && writes(r),
        _ => false,
    }
}

/// Maps a race-initials mask over happens-before threads to raw scheduled
/// ids: process threads `p < n` stay, slot thread `n + s` becomes the
/// delivery `2n + s` (its drop enters beside it as a [`fault_twin`]).
#[inline]
fn initial_ids(threads: u64, n: usize) -> u64 {
    let procs = if n >= 64 { !0 } else { (1u64 << n) - 1 };
    let slots = threads & !procs;
    (threads & procs) | if slots == 0 { 0 } else { slots << n }
}

/// The fault that is a thread-local alternative to the transition `id` at a
/// node whose path holds `faults`: the crash of a stepping process, the drop
/// of a delivered message, while the budget lasts (and, for a crash, the
/// process is eligible). Under source DPOR a fault enters a frame together
/// with its transition, or on its own where it is awake while its
/// transition sleeps ([`Engine::drive`]).
fn fault_twin(
    id: ProcessId,
    n: usize,
    cap: usize,
    config: &ExploreConfig,
    faults: FaultCounts,
) -> Option<ProcessId> {
    match StepKind::decode(id, n, cap) {
        StepKind::Step(p)
            if faults.crashes < config.max_crashes && config.crash_eligible & bit(p) != 0 =>
        {
            Some(StepKind::Crash(p).encode(n, cap))
        }
        StepKind::Deliver(s) if faults.drops < config.max_drops => {
            Some(StepKind::Drop(s).encode(n, cap))
        }
        _ => None,
    }
}

/// The branch a race reversal adds at its node, given the raw-id `initials`
/// of the reversal, the ids already explored, queued or asleep there
/// (`covered`), the ids enabled there, and the processes an initial may
/// name without being enabled there (`exempt`): the lowest enabled initial,
/// or `None` when an initial is covered already or none is enabled. Only
/// [`Frame::seed`] calls it.
///
/// Every initial a race can name is enabled at its node except a process
/// that is not: a crashed process whose first event after the node is its
/// restart, which is queued eagerly, and a blocked process whose first
/// event after the node is its crash. A crash takes no shared-memory step,
/// so happens-before does not order it after the delivery that unblocked
/// the process; when that process is the only initial, nothing between the
/// node and the crash unblocks it, so the reversal does not exist. Neither
/// kind is ever explored, queued or asleep at the node, so neither hides an
/// uncovered reversal behind `covered`.
fn race_branch(initials: u64, covered: u64, enabled: u64, exempt: u64) -> Option<ProcessId> {
    if initials & covered != 0 {
        return None;
    }
    let avail = initials & enabled;
    debug_assert!(
        avail != 0 || initials & !exempt == 0,
        "a race reversal's initials {initials:#b} are neither enabled ({enabled:#b}) nor \
         crashed processes with a queued restart or blocked processes ({exempt:#b})"
    );
    (avail != 0).then(|| ProcessId(avail.trailing_zeros() as usize))
}

/// A checkpoint of a whole execution at a branch point: marks on the
/// memory's and the session's undo logs (`O(1)` to take; a restore undoes
/// only what the abandoned continuation changed), plus the object's private
/// state and the monitor position.
struct Checkpoint {
    mem: MemMark,
    session: SessionMark,
    object: ObjectSnapshot,
    /// The monitor position at the branch point ([`ScheduleMonitor::mark`]).
    monitor_mark: u64,
    /// The object generation ([`Engine::object_gen`]) this checkpoint was
    /// taken under. A fallback replay rebuilds the object and resets the
    /// memory and session, so checkpoints from earlier generations must not
    /// be restored: their marks point into discarded undo logs.
    gen: u64,
}

/// One branch point of the DFS: the decision depth, the untried siblings
/// (under [`Reduction::Off`] every alternative, ascending, popped from the
/// back so the visit order matches the original replay explorer; under
/// source DPOR the awake transition's fault twin unless it was chosen, the
/// eagerly queued restarts, the other faults awake beside a sleeping
/// transition and, if a fault went first in its place, the awake
/// transition (see [`Reduction`]), popped in that order; race seeding adds
/// the rest later, and those pop first), and the sleep-set bookkeeping.
struct Frame {
    depth: usize,
    alts: Vec<ProcessId>,
    /// Choices whose subtrees are explored or in progress at this node.
    explored: u64,
    /// `explored` plus every choice currently queued in `alts` — the
    /// "already in the backtrack set" filter of source-DPOR seeding.
    seeded: u64,
    /// Sleep set in force when this node was first reached.
    sleep: u64,
    /// Mask of transitions enabled at this node. Race seeding inserts only
    /// initials drawn from this mask. The happens-before threads are the
    /// processes and the in-flight slots, so a reversal's initials are
    /// steps and deliveries, which are enabled at the node once the
    /// enabling edges ([`enabling_edge`]) are filtered out — except a
    /// crashed process whose first event after the node is its restart,
    /// which `restarts` covers.
    enabled_mask: u64,
    /// Processes (bit `p`) whose restart is queued or chosen at this node.
    restarts: u64,
    /// The fault counts of the path up to this node: the budget a fault
    /// twin seeded here later must fit.
    faults: FaultCounts,
    /// Where this node's survey starts in [`Engine::surveys`]: its enabled
    /// set, then its in-progress set, up to the next frame's start.
    survey_start: usize,
    /// Length of the enabled set within that survey.
    enabled_len: usize,
    snap: Option<Checkpoint>,
}

/// How many crash, drop and restart transitions the current path holds: the
/// per-schedule fault budgets ([`ExploreConfig::max_crashes`],
/// [`ExploreConfig::max_drops`], [`ExploreConfig::max_recoveries`]) are
/// checked against these at every decision. They move in lockstep with
/// [`Engine::path`].
#[derive(Debug, Clone, Copy, Default)]
struct FaultCounts {
    crashes: usize,
    drops: usize,
    restarts: usize,
}

impl FaultCounts {
    /// The counter of a budgeted fault transition; `None` for steps and
    /// deliveries.
    fn of(&mut self, kind: StepKind) -> Option<&mut usize> {
        match kind {
            StepKind::Crash(_) => Some(&mut self.crashes),
            StepKind::Drop(_) => Some(&mut self.drops),
            StepKind::Restart(_) => Some(&mut self.restarts),
            StepKind::Step(_) | StepKind::Deliver(_) => None,
        }
    }
}

impl Frame {
    /// Adds the branch of a race reversal whose raw-id initials are
    /// `initials` to this node's backtrack set ([`race_branch`]), together
    /// with its fault twin ([`fault_twin`]) unless that is seeded or asleep
    /// already. `blocked` is [`blocked_now`] at the node. Returns whether a
    /// branch was added.
    fn seed(
        &mut self,
        initials: u64,
        blocked: u64,
        n: usize,
        cap: usize,
        config: &ExploreConfig,
    ) -> bool {
        let Some(q) = race_branch(
            initials,
            self.seeded | self.sleep,
            self.enabled_mask,
            self.restarts | blocked,
        ) else {
            return false;
        };
        self.alts.push(q);
        self.seeded |= bit(q);
        if let Some(t) = fault_twin(q, n, cap, config, self.faults) {
            if (self.seeded | self.sleep) & bit(t) == 0 {
                self.alts.push(t);
                self.seeded |= bit(t);
            }
        }
        true
    }

    /// Takes the last untried sibling for exploration, if any: returns it
    /// with the sleep set its subtree starts with and marks it explored.
    /// Under sleep sets that is everything asleep at the node plus every
    /// sibling explored before it, minus itself; otherwise 0.
    fn take_sibling(&mut self, sleep_sets: bool) -> Option<(ProcessId, u64)> {
        let alt = self.alts.pop()?;
        let sleep = if sleep_sets {
            (self.sleep | self.explored) & !bit(alt)
        } else {
            0
        };
        self.explored |= bit(alt);
        Some((alt, sleep))
    }
}

enum Leaf {
    /// The execution ran to completion (or the tick limit) and must be
    /// counted and checked.
    Complete,
    /// Every enabled process is asleep: the continuation is covered by
    /// sibling subtrees.
    SleepBlocked,
}

enum Subtree {
    Exhausted,
    Stopped,
}

/// The DFS engine. Memory, session and all scratch buffers persist across
/// the whole exploration.
struct Engine<'a, S, V, O, M, Obs, FSetup, FCheck>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    Obs: ExploreObserver,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    executor: Executor,
    config: &'a ExploreConfig,
    workload: &'a Workload<S, V>,
    setup: FSetup,
    check: FCheck,
    monitor: M,
    /// Per-schedule telemetry hooks ([`NoObserver`] monomorphises them away
    /// entirely).
    obs: &'a Obs,
    mem: SharedMemory,
    session: ExecSession<S, V>,
    object: Option<O>,
    /// The decisions of the current execution prefix (mirrors the session's
    /// decision log; kept separately so replays survive session rewinds).
    path: Vec<ProcessId>,
    /// Fault transitions on `path`.
    faults: FaultCounts,
    frames: Vec<Frame>,
    /// Sleep set in force at the current point of the drive (always 0 under
    /// [`Reduction::Off`]).
    cur_sleep: u64,
    /// The surveys of the frames' nodes, one flat stack in frame order (see
    /// [`Frame::survey_start`]): a checkpoint restore reinstates the node's
    /// enabled and in-progress sets from here instead of surveying again.
    surveys: Vec<ProcessId>,
    /// Incremented every time a replay rebuilds the object; checkpoints
    /// record the generation they were taken under and are only restored
    /// while that object instance is still the live one.
    object_gen: u64,
    enabled_buf: Vec<ProcessId>,
    /// Per-decision scratch: the awake crash, drop and restart alternatives
    /// at the node [`Self::drive`] is visiting.
    crash_alts: Vec<ProcessId>,
    drop_alts: Vec<ProcessId>,
    restart_alts: Vec<ProcessId>,
    /// `node_blocked[d]` is [`blocked_now`] at the node before decision `d`
    /// (source DPOR only), for the [`enabling_edge`] filter. Truncated in
    /// lockstep with `hb`.
    node_blocked: Vec<u64>,
    /// Scratch buffer for [`HbTracker::races_of_last`].
    race_buf: Vec<usize>,
    stats: ExploreStats,
}

impl<'a, S, V, O, M, Obs, FSetup, FCheck> Engine<'a, S, V, O, M, Obs, FSetup, FCheck>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    Obs: ExploreObserver,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    fn new(
        config: &'a ExploreConfig,
        workload: &'a Workload<S, V>,
        mut setup: FSetup,
        check: FCheck,
        monitor: M,
        obs: &'a Obs,
    ) -> Self {
        let n = workload.processes();
        let mut mem = SharedMemory::new();
        // The happens-before threads: none under `Reduction::Off`, whose
        // tracker is never pushed to.
        let threads = if !config.reduction.is_source_dpor() {
            0
        } else {
            assert!(n <= 64, "sleep-set reduction supports at most 64 processes");
            // One setup call shows the network's slot count; every execution
            // rebuilds the object (and resets this memory) from scratch.
            drop(setup(&mut mem));
            let cap = mem.net_cap();
            if cap > 0 {
                // Race seeds name deliveries `2n + s`, so every delivery id
                // needs a sleep/seed mask bit: a reversal seeded on an id
                // past the mask would be dropped silently. This also keeps
                // the `n + cap` hb threads within `race_initials`' masks.
                assert!(
                    2 * n + cap <= 64,
                    "source DPOR over a network needs 2 * processes + slots <= 64 (got {n} \
                     processes and {cap} slots)"
                );
            }
            if config.max_crashes > 0 {
                // Crash transitions occupy the upper half of the sleep
                // masks (pseudo-process `n + p`).
                assert!(
                    2 * n <= 64,
                    "crash exploration under a sleep-set reduction supports at most 32 processes"
                );
            }
            if config.max_recoveries > 0 {
                // Restart transitions sit past the crash band (and any
                // network band) at `2n + 2cap + p`; ids beyond 64 fall off
                // the sleep masks (never asleep — sound, just unreduced),
                // but keep the cap-free geometry honest.
                assert!(
                    3 * n <= 64,
                    "recovery exploration under a sleep-set reduction supports at most 21 processes"
                );
            }
            n + cap
        };
        let mut session = ExecSession::new();
        // Happens-before over the current schedule prefix, one thread per
        // process and per in-flight slot, truncated in lockstep with `path`.
        // It lives in the session so that the monitor can read it.
        session.hb = config
            .reduction
            .is_source_dpor()
            .then(|| HbTracker::new(threads));
        Engine {
            executor: config.executor(),
            config,
            workload,
            setup,
            check,
            monitor,
            obs,
            mem,
            session,
            object: None,
            path: Vec::new(),
            faults: FaultCounts::default(),
            frames: Vec::new(),
            cur_sleep: 0,
            surveys: Vec::new(),
            object_gen: 0,
            enabled_buf: Vec::new(),
            crash_alts: Vec::new(),
            drop_alts: Vec::new(),
            restart_alts: Vec::new(),
            node_blocked: Vec::new(),
            race_buf: Vec::new(),
            stats: ExploreStats::default(),
        }
    }

    /// Rebuilds the execution state for the first `depth` decisions of
    /// `self.path` by replaying them from tick 0. The monitor is restarted
    /// and re-observes the replayed prefix; under source DPOR the
    /// happens-before stream is rebuilt alongside (without re-running race
    /// detection — the replayed events' races were already processed when
    /// those transitions first executed).
    fn replay_prefix(&mut self, depth: usize) {
        let source_dpor = self.config.reduction.is_source_dpor();
        self.path.truncate(depth);
        self.faults = FaultCounts::default();
        self.mem.reset();
        self.object = Some((self.setup)(&mut self.mem));
        self.object_gen += 1;
        // The network (if any) was just rebuilt by `setup`; apply the
        // configured partition so every replayed execution sees it.
        if self.config.partition != 0 {
            self.mem.net_sever(self.config.partition);
        }
        self.executor.begin(&mut self.session, self.workload);
        self.monitor.begin();
        if source_dpor {
            self.hb_mut().clear();
            self.node_blocked.clear();
        }
        let steps_before = self.mem.global_steps();
        let n = self.workload.processes();
        let cap = self.mem.net_cap();
        for i in 0..depth {
            let status = self
                .executor
                .survey(&mut self.session, &self.mem, self.workload);
            debug_assert_eq!(status, SurveyStatus::Choose, "prefix replay diverged");
            if source_dpor {
                self.node_blocked.push(blocked_now(&self.session));
            }
            self.executor.tick(
                &mut self.session,
                &mut self.mem,
                self.object.as_mut().expect("object built above"),
                self.workload,
                self.path[i],
            );
            if source_dpor {
                let label = step_label(&self.session, self.path[i], n, cap);
                self.hb_mut().push(label);
            }
            self.monitor.observe(&self.session);
            let kind = StepKind::decode(self.path[i], n, cap);
            if let Some(c) = self.faults.of(kind) {
                *c += 1;
            }
            self.stats.count_transition(kind);
        }
        self.stats.executed_ticks += depth as u64;
        self.stats.replayed_ticks += depth as u64;
        self.stats.executed_steps += self.mem.global_steps() - steps_before;
    }

    /// The happens-before tracker (source DPOR only).
    fn hb(&self) -> &HbTracker {
        self.session
            .hb
            .as_ref()
            .expect("source DPOR tracks happens-before")
    }

    fn hb_mut(&mut self) -> &mut HbTracker {
        self.session
            .hb
            .as_mut()
            .expect("source DPOR tracks happens-before")
    }

    /// Truncates `path` to its first `depth` decisions, rewinding the fault
    /// counts with it.
    fn truncate_path(&mut self, depth: usize) {
        let (n, cap) = (self.workload.processes(), self.mem.net_cap());
        for &id in self.path.iter().skip(depth) {
            if let Some(c) = self.faults.of(StepKind::decode(id, n, cap)) {
                *c -= 1;
            }
        }
        self.path.truncate(depth);
    }

    /// Executes one scheduling decision and applies the sleep-set wake rule:
    /// a sleeping transition wakes when the executed transition's label is
    /// [dependent](StepLabel::dependent) with its [`pending_label`] — the
    /// race relation. Under source DPOR the transition enters the
    /// happens-before tracker before the monitor observes it.
    fn exec_tick(&mut self, chosen: ProcessId) {
        let source_dpor = self.config.reduction.is_source_dpor();
        if source_dpor {
            self.node_blocked.push(blocked_now(&self.session));
        }
        let steps_before = self.mem.global_steps();
        self.executor.tick(
            &mut self.session,
            &mut self.mem,
            self.object.as_mut().expect("engine has an object"),
            self.workload,
            chosen,
        );
        let n = self.workload.processes();
        let cap = self.mem.net_cap();
        let label = step_label(&self.session, chosen, n, cap);
        if source_dpor {
            self.hb_mut().push(label);
        }
        self.monitor.observe(&self.session);
        self.stats.executed_ticks += 1;
        self.stats.executed_steps += self.mem.global_steps() - steps_before;
        let kind = StepKind::decode(chosen, n, cap);
        self.stats.count_transition(kind);
        if let Some(c) = self.faults.of(kind) {
            *c += 1;
        }
        if self.cur_sleep != 0 {
            // An executed restart's label is dependent with every transition
            // (see `step_label`), so it wakes every sleeper. A sleeping
            // restart has no predicted label and always wakes.
            let mut rest = self.cur_sleep;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if pending_label(&self.session, &self.mem, ProcessId(i), n)
                    .is_none_or(|pending| label.dependent(pending))
                {
                    self.cur_sleep &= !(1u64 << i);
                }
            }
        }
        self.path.push(chosen);
        if source_dpor {
            self.observe_races();
        }
    }

    /// Source-DPOR race processing for the transition just pushed onto
    /// `self.path` and the happens-before tracker: detect the races it
    /// closes, drop the enabling edges ([`enabling_edge`]), and seed one
    /// weak initial into the backtrack set of each remaining race's branch
    /// node, together with its fault twin ([`fault_twin`]) — unless an
    /// initial is already explored, pending, or asleep there (then the
    /// reversal is covered). Initials are computed only for races that
    /// reach a frame.
    fn observe_races(&mut self) {
        let mut races = std::mem::take(&mut self.race_buf);
        races.clear();
        self.hb().races_of_last(&mut races);
        let n = self.workload.processes();
        let cap = self.mem.net_cap();
        let last = self.hb().label(self.hb().len() - 1);
        for &i in &races {
            if enabling_edge(self.hb().label(i), last, self.node_blocked[i], &self.mem, n) {
                continue;
            }
            self.stats.races += 1;
            // The frame stack mirrors the current path's branch nodes, so
            // the node before event `i` is found by its depth (frames are
            // strictly depth-sorted).
            match self.frames.binary_search_by(|f| f.depth.cmp(&i)) {
                Ok(fi) => {
                    let initials = initial_ids(self.hb().race_initials(i), n);
                    let blocked = self.node_blocked[i];
                    if self.frames[fi].seed(initials, blocked, n, cap, self.config) {
                        self.stats.race_seeds += 1;
                    }
                }
                Err(_) => {
                    // A branch node has no frame only when every other
                    // enabled transition was asleep when it was visited (and
                    // the chosen one had no awake fault twin) — and the
                    // initials of a race through it are among those
                    // sleepers, so the reversal is already covered by the
                    // subtree that put them to sleep.
                }
            }
        }
        self.race_buf = races;
    }

    /// Takes a checkpoint of the current execution state, if supported.
    fn checkpoint(&mut self) -> Option<Checkpoint> {
        if self.config.resume != ResumeMode::PrefixResume {
            return None;
        }
        // Session first: its mark checks that the in-flight operations fork,
        // which is cheaper than a deep object snapshot, so an unforkable op
        // short-circuits before the object pays for a clone that would be
        // thrown away. A session mark left unused when the object cannot
        // snapshot costs only logging: marks need no release.
        let session = self.session.mark();
        let object = session.and_then(|_| {
            self.object
                .as_ref()
                .expect("engine has an object")
                .snapshot()
        });
        let (Some(session), Some(object)) = (session, object) else {
            self.stats.snapshot_fallbacks += 1;
            return None;
        };
        self.stats.snapshots += 1;
        Some(Checkpoint {
            mem: self.mem.mark(),
            session,
            object,
            monitor_mark: self.monitor.mark(),
            gen: self.object_gen,
        })
    }

    /// Drives the current execution forward to its next leaf, creating a
    /// branch frame at every decision point with more than one non-sleeping
    /// choice. At each node it runs the first awake transition, except that
    /// under source DPOR a fault goes first in its place: a crash, then a
    /// drop, awake while its own transition sleeps, else the drop of the
    /// message that transition delivers (see [`Reduction`]). The enabled
    /// set holds every real step and every in-flight *delivery* (`2n + s`)
    /// — deliveries are ordinary transitions, not faults. With a crash
    /// budget ([`ExploreConfig::max_crashes`]) the choices additionally
    /// include crashing an enabled crash-eligible process (the
    /// pseudo-process `n + p`); with a drop budget
    /// ([`ExploreConfig::max_drops`]) dropping an in-flight message (the
    /// pseudo-process `2n + cap + s`); with a recovery budget
    /// ([`ExploreConfig::max_recoveries`]) restarting a currently-crashed
    /// process (the pseudo-process `2n + 2cap + p`).
    fn drive(&mut self) -> Leaf {
        let n = self.workload.processes();
        let cap = self.mem.net_cap();
        let source_dpor = self.config.reduction.is_source_dpor();
        loop {
            match self
                .executor
                .survey(&mut self.session, &self.mem, self.workload)
            {
                SurveyStatus::Complete | SurveyStatus::Cutoff => return Leaf::Complete,
                SurveyStatus::Choose => {}
            }
            self.enabled_buf.clear();
            self.enabled_buf.extend_from_slice(self.session.enabled());
            let sleep = self.cur_sleep;
            // Eager fault alternatives. `Off` queues every fault at every
            // node. Under source DPOR a crash of `p` is a thread-local choice
            // beside `p`'s own step and a drop of `s` a choice beside the
            // delivery of `s`: each enters a frame together with its
            // transition (its [`fault_twin`]), here for the chosen
            // transition and in race seeding for seeded ones. The one fault
            // queued on its own is one that is awake while its transition
            // sleeps: the sibling subtree that put the transition to sleep
            // covers only the continuations in which it runs, not those in
            // which the fault happens instead.
            self.crash_alts.clear();
            self.drop_alts.clear();
            // No twin exists once both budgets are spent: fault-free runs
            // skip the scan.
            if self.faults.crashes < self.config.max_crashes
                || self.faults.drops < self.config.max_drops
            {
                for &p in &self.enabled_buf {
                    let Some(t) = fault_twin(p, n, cap, self.config, self.faults) else {
                        continue;
                    };
                    if sleep & bit(t) == 0 && (!source_dpor || sleep & bit(p) != 0) {
                        match StepKind::decode(t, n, cap) {
                            StepKind::Crash(_) => self.crash_alts.push(t),
                            _ => self.drop_alts.push(t),
                        }
                    }
                }
            }
            // Restart alternatives: one per currently-crashed recovery-
            // eligible process, while the recovery budget lasts, queued
            // eagerly in every mode (a restart re-enables a process no race
            // names at its node). Crashed processes are not in the enabled
            // set, so these come from the session's live crash mask; a
            // restart only branches at nodes where something else is enabled
            // (an all-crashed execution is already complete).
            self.restart_alts.clear();
            let mut restarts = 0u64;
            if self.faults.restarts < self.config.max_recoveries {
                let mut rest = self.session.crashed_now() & self.config.recovery_eligible;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let r = StepKind::Restart(ProcessId(i)).encode(n, cap);
                    if sleep & bit(r) == 0 {
                        self.restart_alts.push(r);
                        restarts |= 1u64 << i;
                    }
                }
            }
            let awake = self
                .enabled_buf
                .iter()
                .copied()
                .find(|p| sleep & bit(*p) == 0);
            // The awake transition's own fault, queued beside it under
            // source DPOR.
            let twin = awake
                .filter(|_| source_dpor)
                .and_then(|c| fault_twin(c, n, cap, self.config, self.faults))
                .filter(|t| sleep & bit(*t) == 0);
            // Under source DPOR a fault goes first, displacing the awake
            // transition (see [`Reduction`] for why): a crash, then a drop,
            // awake while its own transition sleeps, else the drop of the
            // message the awake transition delivers. A crash twin stays
            // behind its step. Without an awake transition a fault or
            // restart keeps the node alive (see above: its continuations are
            // not covered by the sleeping siblings).
            let fault_first = if source_dpor || awake.is_none() {
                self.crash_alts
                    .pop()
                    .or_else(|| self.drop_alts.pop())
                    .or_else(|| {
                        twin.filter(|t| matches!(StepKind::decode(*t, n, cap), StepKind::Drop(_)))
                    })
            } else {
                None
            };
            let (chosen, displaced) = match (fault_first, awake) {
                (Some(f), c) => (f, c),
                (None, Some(c)) => (c, None),
                (None, None) => match self.restart_alts.pop() {
                    Some(r) => (r, None),
                    None => return Leaf::SleepBlocked,
                },
            };
            // `Off` queues every awake sibling up front (ascending; popped
            // from the back, so siblings are visited in descending order —
            // the original DFS order). Source DPOR queues only the eager
            // faults above, the awake transition if a fault displaced it,
            // and its twin; race detection fills in the rest. Siblings pop
            // from the back: the twin comes next, then restarts, the other
            // awake faults and last the displaced transition. A frame exists
            // wherever some sibling is awake, since a later race may seed it.
            let mut alts: Vec<ProcessId> = if source_dpor {
                Vec::new()
            } else {
                self.enabled_buf
                    .iter()
                    .copied()
                    .filter(|p| *p != chosen && sleep & bit(*p) == 0)
                    .collect()
            };
            alts.extend(displaced);
            alts.extend_from_slice(&self.crash_alts);
            alts.extend_from_slice(&self.drop_alts);
            alts.extend_from_slice(&self.restart_alts);
            alts.extend(twin.filter(|t| *t != chosen));
            let has_awake_sibling = !alts.is_empty()
                || self
                    .enabled_buf
                    .iter()
                    .any(|p| *p != chosen && sleep & bit(*p) == 0);
            if has_awake_sibling {
                let seeded = alts.iter().fold(bit(chosen), |m, p| m | bit(*p));
                let enabled_mask = self.enabled_buf.iter().fold(0u64, |m, p| m | bit(*p));
                let snap = self.checkpoint();
                let survey_start = self.surveys.len();
                self.surveys.extend_from_slice(&self.enabled_buf);
                self.surveys.extend_from_slice(self.session.in_progress());
                self.frames.push(Frame {
                    depth: self.session.depth(),
                    alts,
                    explored: bit(chosen),
                    seeded,
                    sleep,
                    enabled_mask,
                    restarts,
                    faults: self.faults,
                    survey_start,
                    enabled_len: self.enabled_buf.len(),
                    snap,
                });
            }
            self.exec_tick(chosen);
        }
    }

    /// Backtracks to the deepest frame with an untried sibling, restores the
    /// execution state at that depth and executes the sibling. Returns
    /// `false` when the whole subtree is exhausted.
    fn backtrack(&mut self) -> bool {
        let sleep_sets = self.config.reduction.is_source_dpor();
        loop {
            let Some(frame) = self.frames.last_mut() else {
                return false;
            };
            let Some((alt, entry_sleep)) = frame.take_sibling(sleep_sets) else {
                let done = self.frames.pop().expect("frame checked above");
                self.surveys.truncate(done.survey_start);
                continue;
            };
            let depth = frame.depth;
            let (survey_start, enabled_len) = (frame.survey_start, frame.enabled_len);
            let restored = match &self.frames.last().expect("frame exists").snap {
                // A checkpoint from an older object generation predates a
                // replay, which rebuilt the object and reset the memory and
                // session, discarding the undo logs its marks point into.
                // Replay instead.
                Some(cp) if cp.gen == self.object_gen => {
                    self.mem.undo_to(&cp.mem);
                    self.session.undo_to(&cp.session);
                    self.object
                        .as_mut()
                        .expect("engine has an object")
                        .restore(&cp.object);
                    self.monitor.rewind_to(cp.monitor_mark);
                    self.truncate_path(depth);
                    if let Some(hb) = &mut self.session.hb {
                        hb.truncate(depth);
                    }
                    self.node_blocked.truncate(depth);
                    self.stats.checkpoint_restores += 1;
                    true
                }
                _ => false,
            };
            // Re-establish the enabled set at the branch point (the restore
            // or replay left the session's scratch view stale): a restore
            // reinstates the frame's recorded survey, a replay surveys.
            if restored {
                let (enabled, in_progress) = self.surveys[survey_start..].split_at(enabled_len);
                #[cfg(debug_assertions)]
                {
                    let status = self
                        .executor
                        .survey(&mut self.session, &self.mem, self.workload);
                    assert_eq!(status, SurveyStatus::Choose, "branch point disappeared");
                    assert_eq!(self.session.enabled(), enabled, "recorded survey is stale");
                    assert_eq!(self.session.in_progress(), in_progress);
                }
                self.session.set_survey(enabled, in_progress);
            } else {
                self.replay_prefix(depth);
                let status = self
                    .executor
                    .survey(&mut self.session, &self.mem, self.workload);
                debug_assert_eq!(status, SurveyStatus::Choose, "branch point disappeared");
            }
            self.cur_sleep = entry_sleep;
            self.exec_tick(alt);
            return true;
        }
    }

    /// Explores the whole tree. The schedule budget and the deadline are
    /// consulted once per complete execution *before* it is counted; either
    /// running out stops the exploration.
    fn explore(&mut self) -> Result<Subtree, ExploreViolation> {
        self.replay_prefix(0);
        loop {
            match self.drive() {
                Leaf::Complete => {
                    if self.stats.schedules >= self.config.max_schedules
                        || !deadline_ok(self.config)
                    {
                        return Ok(Subtree::Stopped);
                    }
                    self.stats.schedules += 1;
                    self.obs.schedule_completed(self.session.depth());
                    // The happens-before stream covers the whole schedule
                    // only under source DPOR; under `Off` there is no class
                    // fingerprint to report.
                    if self.config.reduction.is_source_dpor() && self.obs.wants_hb_classes() {
                        self.obs.hb_class(self.hb().fingerprint());
                    }
                    COUNTEREXAMPLE.take();
                    if let Err(message) =
                        (self.check)(self.session.result(), &self.mem, &mut self.monitor)
                    {
                        let schedule = match (COUNTEREXAMPLE.take(), self.session.hb()) {
                            (Some(order), Some(hb)) => hb
                                .extend_order(&order)
                                .into_iter()
                                .map(|e| self.path[e])
                                .collect(),
                            _ => self.session.result().decisions.chosen().to_vec(),
                        };
                        return Err(ExploreViolation { schedule, message });
                    }
                }
                Leaf::SleepBlocked => self.stats.sleep_blocked += 1,
            }
            if !self.backtrack() {
                return Ok(Subtree::Exhausted);
            }
        }
    }
}

/// Explores all schedules of the executions generated by `setup` and
/// `workload`, applying `check` to each execution result, and reports the
/// work performed.
///
/// `setup` must build a fresh object for every call; the shared memory
/// handed to it is freshly reset (but reuses its allocations across runs).
pub fn explore_schedules_report<S, V, O, FSetup, FCheck>(
    setup: FSetup,
    workload: &Workload<S, V>,
    config: &ExploreConfig,
    mut check: FCheck,
) -> ExploreReport
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
{
    let mut monitor = NoMonitor;
    explore_schedules_monitored_observed_report(
        setup,
        workload,
        config,
        &mut monitor,
        &NoObserver,
        move |res, mem, _m: &mut NoMonitor| check(res, mem),
    )
}

/// Explores all schedules like [`explore_schedules_report`], additionally
/// feeding every executed scheduling decision to `monitor` and reporting
/// per-schedule telemetry to `obs`.
///
/// The monitor is checkpointed and rewound together with the explorer's
/// prefix-resume machinery, so it observes each schedule's events exactly
/// once (the shared prefix once per branch *point*, not once per schedule).
/// The check receives the monitor and typically asks it for a per-schedule
/// verdict. `obs` sees every completed schedule (see
/// [`crate::telemetry::ExploreObserver`]); passing [`NoObserver`]
/// monomorphises its hooks away, and the unmonitored entry points do exactly
/// that.
pub fn explore_schedules_monitored_observed_report<S, V, O, M, Obs, FSetup, FCheck>(
    setup: FSetup,
    workload: &Workload<S, V>,
    config: &ExploreConfig,
    monitor: &mut M,
    obs: &Obs,
    mut check: FCheck,
) -> ExploreReport
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    Obs: ExploreObserver,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    let mut engine = Engine::new(
        config,
        workload,
        setup,
        // The engine owns its monitor; here that monitor is the caller's
        // borrow (via the blanket `&mut M` impl), so the check unwraps one
        // level of indirection.
        move |res: &ExecutionResult<S, V>, mem: &SharedMemory, m: &mut &mut M| check(res, mem, m),
        monitor,
        obs,
    );
    let result = engine.explore();
    let schedules = engine.stats.schedules;
    let outcome = match result {
        Err(v) => Err(ExploreError::Check(v)),
        Ok(Subtree::Exhausted) => Ok(ExploreOutcome::Exhausted { schedules }),
        Ok(Subtree::Stopped) => Ok(ExploreOutcome::LimitReached { schedules }),
    };
    ExploreReport {
        outcome,
        stats: engine.stats,
    }
}

/// Explores all schedules of the executions generated by `setup` and
/// `workload`, applying `check` to each execution result.
pub fn explore_schedules<S, V, O, FSetup, FCheck>(
    setup: FSetup,
    workload: &Workload<S, V>,
    config: &ExploreConfig,
    check: FCheck,
) -> Result<ExploreOutcome, ExploreViolation>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
{
    explore_schedules_report(setup, workload, config, check)
        .outcome
        .map_err(|e| match e {
            ExploreError::Check(v) => v,
            ExploreError::WorkerPanic { .. } => unreachable!("the engine reports only violations"),
        })
}

/// [`explore_schedules_monitored_observed_report`] with a monitor built by
/// `factory`, returned in a one-element vector next to the report.
///
/// It runs the same single-threaded engine and never reads
/// [`ExploreConfig::threads`]; it stays, under this name, because the
/// benchmark harness calls it. Independent explorations run concurrently
/// side by side instead, as `scl-check --workers` runs whole scenarios.
pub fn explore_schedules_parallel_monitored_observed_report<S, V, O, M, Obs, FSetup, FCheck>(
    setup: FSetup,
    workload: &Workload<S, V>,
    config: &ExploreConfig,
    factory: &impl Fn() -> M,
    obs: &Obs,
    check: FCheck,
) -> (ExploreReport, Vec<M>)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    Obs: ExploreObserver,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnMut(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    let mut monitor = factory();
    let report = explore_schedules_monitored_observed_report(
        setup,
        workload,
        config,
        &mut monitor,
        obs,
        check,
    );
    (report, vec![monitor])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TickEmission;
    use crate::machine::{OpExecution, OpOutcome, StepOutcome};
    use crate::memory::{Footprint, RegId};
    use crate::value::Value;
    use scl_spec::{check_linearizable, Request, TasOp, TasResp, TasSpec, TasSwitch};

    /// Correct swap-based TAS, with full explorer hooks (forkable,
    /// footprint-aware, stateless snapshots).
    struct SwapTas {
        flag: RegId,
    }
    #[derive(Clone)]
    struct SwapTasOp {
        flag: RegId,
        proc: scl_spec::ProcessId,
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
            Some(Box::new(self.clone()))
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

    /// A deliberately broken TAS (read then write, not atomic): two
    /// concurrent processes can both win.
    struct BrokenTas {
        flag: RegId,
    }
    #[derive(Clone)]
    struct BrokenTasOp {
        flag: RegId,
        proc: scl_spec::ProcessId,
        observed: Option<bool>,
    }
    impl OpExecution<TasSpec, TasSwitch> for BrokenTasOp {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
            match self.observed {
                None => {
                    self.observed = Some(mem.read(self.proc, self.flag).as_bool());
                    StepOutcome::Continue
                }
                Some(prev) => {
                    mem.write(self.proc, self.flag, Value::TRUE);
                    StepOutcome::Done(OpOutcome::Commit(if prev {
                        TasResp::Loser
                    } else {
                        TasResp::Winner
                    }))
                }
            }
        }
        fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
            Some(Box::new(self.clone()))
        }
        fn next_footprint(&self) -> Footprint {
            match self.observed {
                None => Footprint::Read(self.flag),
                Some(_) => Footprint::Write(self.flag),
            }
        }
    }
    impl SimObject<TasSpec, TasSwitch> for BrokenTas {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            req: Request<TasSpec>,
            _switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            Box::new(BrokenTasOp {
                flag: self.flag,
                proc: req.proc,
                observed: None,
            })
        }
        fn snapshot(&self) -> Option<ObjectSnapshot> {
            Some(ObjectSnapshot::stateless())
        }
    }

    fn lin_check(
        res: &ExecutionResult<TasSpec, TasSwitch>,
        _mem: &SharedMemory,
    ) -> Result<(), String> {
        if !res.completed {
            return Err("execution did not complete".into());
        }
        if check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable() {
            Ok(())
        } else {
            Err("not linearizable".into())
        }
    }

    /// The outcome of the benchmark harness's
    /// [`explore_schedules_parallel_monitored_observed_report`] shim without
    /// a monitor. The shim must report exactly what the engine reports,
    /// whatever [`ExploreConfig::threads`] says.
    fn via_shim<O: SimObject<TasSpec, TasSwitch>>(
        setup: impl FnMut(&mut SharedMemory) -> O,
        wl: &Workload<TasSpec, TasSwitch>,
        config: &ExploreConfig,
        mut check: impl FnMut(&ExecutionResult<TasSpec, TasSwitch>, &SharedMemory) -> Result<(), String>,
    ) -> Result<ExploreOutcome, ExploreError> {
        let (report, monitors) = explore_schedules_parallel_monitored_observed_report(
            setup,
            wl,
            config,
            &|| NoMonitor,
            &NoObserver,
            |res, mem, _m: &mut NoMonitor| check(res, mem),
        );
        assert_eq!(monitors.len(), 1, "the shim builds one monitor");
        report.outcome
    }

    fn all_mode_configs() -> Vec<ExploreConfig> {
        let mut configs = Vec::new();
        for reduction in [Reduction::Off, Reduction::SourceDpor] {
            for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
                configs.push(ExploreConfig {
                    reduction,
                    resume,
                    ..Default::default()
                });
            }
        }
        configs
    }

    #[test]
    fn explorer_exhausts_correct_tas_schedules() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let outcome = explore_schedules(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        )
        .expect("swap TAS must be linearizable under every schedule");
        assert!(matches!(outcome, ExploreOutcome::Exhausted { .. }));
        assert!(outcome.schedules() > 1);
    }

    #[test]
    fn explorer_finds_the_bug_in_broken_tas() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let violation = explore_schedules(
            |mem| BrokenTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        )
        .expect_err("read-then-write TAS must violate linearizability under some schedule");
        assert!(violation.message.contains("not linearizable"));
        assert!(!violation.schedule.is_empty());
        assert!(!violation.to_string().is_empty());
    }

    #[test]
    fn every_mode_finds_the_bug_in_broken_tas() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        for config in all_mode_configs() {
            let violation = explore_schedules(
                |mem| BrokenTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &config,
                lin_check,
            )
            .unwrap_err();
            assert!(
                violation.message.contains("not linearizable"),
                "config {config:?}"
            );
        }
    }

    #[test]
    fn prefix_resume_is_equivalent_to_full_replay() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let replay = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        );
        let resume = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                resume: ResumeMode::PrefixResume,
                ..Default::default()
            },
            lin_check,
        );
        // Identical enumeration...
        assert_eq!(replay.outcome, resume.outcome);
        assert_eq!(replay.stats.schedules, resume.stats.schedules);
        // ...at strictly less execution work: no prefix is ever replayed
        // (this object is fully snapshottable).
        assert_eq!(resume.stats.replayed_ticks, 0);
        assert_eq!(resume.stats.snapshot_fallbacks, 0);
        assert!(resume.stats.snapshots > 0);
        assert!(resume.stats.executed_ticks < replay.stats.executed_ticks);
    }

    #[test]
    fn prefix_resume_reports_the_same_violation() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let mk = |resume| {
            explore_schedules(
                |mem| BrokenTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    resume,
                    ..Default::default()
                },
                lin_check,
            )
            .unwrap_err()
        };
        assert_eq!(mk(ResumeMode::FullReplay), mk(ResumeMode::PrefixResume));
    }

    #[test]
    fn sleep_sets_prune_commuting_schedules_but_stay_exhaustive() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let full = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        );
        let reduced = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                reduction: Reduction::SourceDpor,
                ..Default::default()
            },
            lin_check,
        );
        assert!(matches!(
            reduced.outcome,
            Ok(ExploreOutcome::Exhausted { .. })
        ));
        let full_count = full.outcome.unwrap().schedules();
        let reduced_count = reduced.outcome.unwrap().schedules();
        // The three invocations commute pairwise (they take no shared step),
        // so the reduction must prune a substantial part of the tree.
        assert!(
            reduced_count < full_count,
            "sleep sets pruned nothing: {reduced_count} vs {full_count}"
        );
        assert!(reduced.stats.executed_steps < full.stats.executed_steps);
    }

    /// The combined mode (reduction plus prefix-resume) explores the same
    /// tree as the reduction alone under full replay.
    #[test]
    fn combined_mode_agrees_with_sleep_sets_alone() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let run = |resume| {
            explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    reduction: Reduction::SourceDpor,
                    resume,
                    ..Default::default()
                },
                lin_check,
            )
        };
        let replay = run(ResumeMode::FullReplay);
        let combined = run(ResumeMode::PrefixResume);
        assert_eq!(replay.outcome, combined.outcome);
        assert_eq!(replay.stats.schedules, combined.stats.schedules);
        assert_eq!(replay.stats.sleep_blocked, combined.stats.sleep_blocked);
        assert!(combined.stats.executed_ticks <= replay.stats.executed_ticks);
    }

    #[test]
    fn unforkable_objects_fall_back_to_replay_under_prefix_resume() {
        /// A SwapTas whose operations refuse to fork (default hooks).
        struct Opaque {
            flag: RegId,
        }
        struct OpaqueOp {
            flag: RegId,
            proc: scl_spec::ProcessId,
        }
        impl OpExecution<TasSpec, TasSwitch> for OpaqueOp {
            fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
                let prev = mem.swap(self.proc, self.flag, Value::TRUE);
                StepOutcome::Done(OpOutcome::Commit(if prev.as_bool() {
                    TasResp::Loser
                } else {
                    TasResp::Winner
                }))
            }
        }
        impl SimObject<TasSpec, TasSwitch> for Opaque {
            fn invoke(
                &mut self,
                _mem: &mut SharedMemory,
                req: Request<TasSpec>,
                _switch: Option<TasSwitch>,
            ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
                Box::new(OpaqueOp {
                    flag: self.flag,
                    proc: req.proc,
                })
            }
        }
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let reference = explore_schedules_report(
            |mem| Opaque {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        );
        let fallback = explore_schedules_report(
            |mem| Opaque {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                resume: ResumeMode::PrefixResume,
                ..Default::default()
            },
            lin_check,
        );
        assert_eq!(reference.outcome, fallback.outcome);
        assert_eq!(fallback.stats.snapshots, 0);
        assert!(fallback.stats.snapshot_fallbacks > 0);
        assert!(fallback.stats.replayed_ticks > 0);
    }

    #[test]
    fn partially_forkable_objects_explore_identically_under_prefix_resume() {
        use std::cell::Cell;
        use std::rc::Rc;

        // A (deliberately racy) TAS whose object carries Rc-shared private
        // state and whose operations are forkable only before their first
        // step. Prefix-resume then checkpoints at some branch points and
        // falls back to replay at others — the mixed regime in which a
        // checkpoint taken against one object instance must never be
        // restored into a rebuilt one.
        struct Partial {
            flag: RegId,
            log: RegId,
            steps: Rc<Cell<i64>>,
        }
        #[derive(Clone)]
        struct PartialOp {
            flag: RegId,
            log: RegId,
            steps: Rc<Cell<i64>>,
            proc: scl_spec::ProcessId,
            phase: u8,
            observed: bool,
        }
        impl OpExecution<TasSpec, TasSwitch> for PartialOp {
            fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
                self.steps.set(self.steps.get() + 1);
                match self.phase {
                    0 => {
                        self.observed = mem.read(self.proc, self.flag).as_bool();
                        self.phase = 1;
                        StepOutcome::Continue
                    }
                    1 => {
                        mem.write(self.proc, self.flag, Value::TRUE);
                        self.phase = 2;
                        StepOutcome::Continue
                    }
                    _ => {
                        // Publish the object-level counter so any state
                        // corruption shows up in the final register file.
                        mem.write(self.proc, self.log, Value::int(self.steps.get()));
                        StepOutcome::Done(OpOutcome::Commit(if self.observed {
                            TasResp::Loser
                        } else {
                            TasResp::Winner
                        }))
                    }
                }
            }
            fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
                // Forkable only before the first step.
                (self.phase == 0).then(|| Box::new(self.clone()) as _)
            }
        }
        impl SimObject<TasSpec, TasSwitch> for Partial {
            fn invoke(
                &mut self,
                _mem: &mut SharedMemory,
                req: Request<TasSpec>,
                _switch: Option<TasSwitch>,
            ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
                Box::new(PartialOp {
                    flag: self.flag,
                    log: self.log,
                    steps: Rc::clone(&self.steps),
                    proc: req.proc,
                    phase: 0,
                    observed: false,
                })
            }
            fn snapshot(&self) -> Option<ObjectSnapshot> {
                Some(ObjectSnapshot::new(self.steps.get()))
            }
            fn restore(&mut self, snap: &ObjectSnapshot) {
                self.steps.set(*snap.downcast::<i64>());
            }
        }

        let setup = |mem: &mut SharedMemory| Partial {
            flag: mem.alloc("flag", Value::FALSE),
            log: mem.alloc("log", Value::int(0)),
            steps: Rc::new(Cell::new(0)),
        };
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let run = |resume| {
            let mut states = std::collections::BTreeSet::new();
            let report = explore_schedules_report(
                setup,
                &wl,
                &ExploreConfig {
                    resume,
                    ..Default::default()
                },
                |res, mem| {
                    let mut fp = String::new();
                    for i in 0..mem.register_count() {
                        fp.push_str(&format!("{:?};", mem.peek(RegId(i))));
                    }
                    fp.push_str(&format!("{:?}", res.ops));
                    states.insert(fp);
                    Ok(())
                },
            );
            (report, states)
        };
        let (replay, replay_states) = run(ResumeMode::FullReplay);
        let (resume, resume_states) = run(ResumeMode::PrefixResume);
        assert_eq!(replay.outcome, resume.outcome);
        assert_eq!(replay_states, resume_states);
        // The mixed regime was actually exercised: some checkpoints
        // succeeded, some branch points fell back to replay.
        assert!(resume.stats.snapshots > 0, "no checkpoint ever succeeded");
        assert!(
            resume.stats.snapshot_fallbacks > 0,
            "no branch point ever fell back"
        );
        assert!(resume.stats.replayed_ticks > 0);
    }

    #[test]
    fn schedule_budget_is_respected() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let config = ExploreConfig {
            max_schedules: 5,
            max_ticks: 1_000,
            ..Default::default()
        };
        let outcome = explore_schedules(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &config,
            lin_check,
        )
        .unwrap();
        assert_eq!(outcome, ExploreOutcome::LimitReached { schedules: 5 });
    }

    #[test]
    fn parallel_schedule_budget_is_respected_exactly() {
        // The n=3 tree is far larger than the budget, so the budget binds
        // and the benchmark shim reports exactly max_schedules, whatever
        // thread count the config names.
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        for threads in [1usize, 2, 4] {
            let config = ExploreConfig {
                max_schedules: 50,
                max_ticks: 1_000,
                threads,
                ..Default::default()
            };
            let outcome = via_shim(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &config,
                lin_check,
            )
            .unwrap();
            assert_eq!(
                outcome,
                ExploreOutcome::LimitReached { schedules: 50 },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_explorer_exhausts_the_same_schedule_count_in_every_mode() {
        // The benchmark shim runs the engine itself, so under every mode and
        // any configured thread count it exhausts the same tree.
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        for base in all_mode_configs() {
            let sequential = explore_schedules(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &base,
                lin_check,
            )
            .unwrap();
            for threads in [1usize, 2, 4] {
                let config = ExploreConfig {
                    threads,
                    ..base.clone()
                };
                let parallel = via_shim(
                    |mem| SwapTas {
                        flag: mem.alloc("flag", Value::FALSE),
                    },
                    &wl,
                    &config,
                    lin_check,
                )
                .unwrap();
                assert!(
                    matches!(parallel, ExploreOutcome::Exhausted { .. }),
                    "threads={threads} config={config:?}"
                );
                assert_eq!(
                    parallel.schedules(),
                    sequential.schedules(),
                    "threads={threads} config={config:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_explorer_is_deterministic_on_violations() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        for base in all_mode_configs() {
            let config = ExploreConfig {
                threads: 4,
                ..base.clone()
            };
            let find = || {
                via_shim(
                    |mem| BrokenTas {
                        flag: mem.alloc("flag", Value::FALSE),
                    },
                    &wl,
                    &config,
                    lin_check,
                )
                .expect_err("broken TAS must violate")
            };
            let first = find();
            for _ in 0..5 {
                assert_eq!(find(), first, "config={config:?}");
            }
        }
    }

    #[test]
    fn lin_preserving_reduction_sits_between_plain_sleep_sets_and_off() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let count = |reduction| {
            let report = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    reduction,
                    resume: ResumeMode::PrefixResume,
                    ..Default::default()
                },
                lin_check,
            );
            assert!(matches!(
                report.outcome,
                Ok(ExploreOutcome::Exhausted { .. })
            ));
            report.stats.schedules
        };
        let off = count(Reduction::Off);
        let plain = count(Reduction::SourceDpor);
        let lin = count(Reduction::SourceDporLinPreserving);
        // Both source-DPOR names run one relation; real-time order is
        // recovered per trace by the monitor, not by extra dependences.
        assert_eq!(plain, lin, "one relation under both names");
        assert!(lin < off, "source DPOR must prune: {lin} {off}");
    }

    /// A schedule-order-invariant fingerprint of a finished execution:
    /// final register file plus per-process outcomes — everything a
    /// commuting-step reordering preserves.
    fn fingerprint(res: &ExecutionResult<TasSpec, TasSwitch>, mem: &SharedMemory) -> String {
        let mut fp = String::new();
        for i in 0..mem.register_count() {
            fp.push_str(&format!("{:?};", mem.peek(RegId(i))));
        }
        let mut outs: Vec<String> = res
            .ops
            .iter()
            .map(|o| format!("{:?}={:?}", o.req.proc, o.outcome))
            .collect();
        outs.sort();
        fp.push_str(&outs.join("|"));
        fp
    }

    /// The removed eager sleep-set mode explored this space with 6
    /// schedules and 7 sleep-blocked continuations under full replay; the
    /// bounds below are its recorded counts.
    #[test]
    fn source_dpor_explores_no_more_schedules_than_eager_sleep_sets() {
        const EAGER_SCHEDULES: u64 = 6;
        const EAGER_SLEEP_BLOCKED: u64 = 7;
        // On the all-writes swap TAS the exact race relation equals the
        // conservative wake relation, so the counts must coincide exactly;
        // the win is the all-but-eliminated sleep-blocked work.
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let run = |reduction| {
            let mut states = std::collections::BTreeSet::new();
            let report = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    reduction,
                    ..Default::default()
                },
                |res, mem| {
                    states.insert(fingerprint(res, mem));
                    Ok(())
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{reduction:?}: {:?}",
                report.outcome
            );
            (report.stats, states)
        };
        let (off, off_states) = run(Reduction::Off);
        let (source, source_states) = run(Reduction::SourceDpor);
        // Race-driven branching never adds representatives over eager
        // branching with the same relation...
        assert_eq!(source.schedules, EAGER_SCHEDULES);
        assert!(source.schedules < off.schedules);
        assert!(source.races > 0 && source.race_seeds > 0);
        // ...wastes (much) less work on sleep-blocked continuations...
        assert!(source.sleep_blocked <= EAGER_SLEEP_BLOCKED);
        // ...and still reaches every final state of the full enumeration.
        assert_eq!(off_states, source_states);
    }

    #[test]
    fn parallel_source_dpor_covers_the_sequential_final_states() {
        // The benchmark shim must reach exactly the engine's equivalence
        // classes under source DPOR — compared here on the class-invariant
        // final-state fingerprints.
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let reduction = Reduction::SourceDpor;
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            let base = ExploreConfig {
                reduction,
                resume,
                ..Default::default()
            };
            let mut seq_states = std::collections::BTreeSet::new();
            let seq = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &base,
                |res, mem| {
                    seq_states.insert(fingerprint(res, mem));
                    Ok(())
                },
            );
            assert!(matches!(seq.outcome, Ok(ExploreOutcome::Exhausted { .. })));
            for threads in [2usize, 4] {
                let config = ExploreConfig {
                    threads,
                    ..base.clone()
                };
                let mut par_states = std::collections::BTreeSet::new();
                let par = via_shim(
                    |mem: &mut SharedMemory| SwapTas {
                        flag: mem.alloc("flag", Value::FALSE),
                    },
                    &wl,
                    &config,
                    |res, mem| {
                        par_states.insert(fingerprint(res, mem));
                        Ok(())
                    },
                );
                assert!(
                    matches!(par, Ok(ExploreOutcome::Exhausted { .. })),
                    "threads={threads} {reduction:?}/{resume:?}: {par:?}"
                );
                assert_eq!(
                    seq_states, par_states,
                    "threads={threads} {reduction:?}/{resume:?}"
                );
            }
        }
    }

    /// A monitor that mirrors the trace event stream through the mark/rewind
    /// protocol; at every leaf its view must equal the trace the session
    /// recorded, proving the monitor is fed each schedule's events exactly
    /// once despite checkpoints, rewinds and replay fallbacks.
    #[test]
    fn monitored_exploration_feeds_the_monitor_each_schedule_exactly_once() {
        use crate::executor::TickEmission;

        #[derive(Default)]
        struct MirrorMonitor {
            events: Vec<(bool, scl_spec::RequestId)>, // (is_invocation, id)
            marks: Vec<(u64, usize)>,
            next_token: u64,
        }
        impl ScheduleMonitor<TasSpec, TasSwitch> for MirrorMonitor {
            fn begin(&mut self) {
                self.events.clear();
                self.marks.clear();
            }
            fn observe(&mut self, session: &ExecSession<TasSpec, TasSwitch>) {
                match session.last_emission() {
                    TickEmission::Invoked { op_index } => self
                        .events
                        .push((true, session.result().ops[op_index].req.id)),
                    TickEmission::Committed { op_index } | TickEmission::Aborted { op_index } => {
                        self.events
                            .push((false, session.result().ops[op_index].req.id))
                    }
                    TickEmission::None
                    | TickEmission::Crashed { .. }
                    | TickEmission::Restarted { .. }
                    | TickEmission::Recovered { .. }
                    | TickEmission::Delivered { .. }
                    | TickEmission::Dropped { .. } => {}
                }
            }
            fn mark(&mut self) -> u64 {
                let token = self.next_token;
                self.next_token += 1;
                self.marks.push((token, self.events.len()));
                token
            }
            fn rewind_to(&mut self, mark: u64) {
                while let Some(&(token, _)) = self.marks.last() {
                    if token > mark {
                        self.marks.pop();
                    } else {
                        break;
                    }
                }
                let &(token, len) = self.marks.last().expect("mark exists");
                assert_eq!(token, mark, "rewound to an unknown mark");
                self.events.truncate(len);
            }
        }

        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        for config in all_mode_configs() {
            let mut monitor = MirrorMonitor::default();
            let mut schedules = 0u64;
            let report = explore_schedules_monitored_observed_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &config,
                &mut monitor,
                &NoObserver,
                |res, _mem, m: &mut MirrorMonitor| {
                    schedules += 1;
                    let expected: Vec<(bool, scl_spec::RequestId)> = res
                        .trace()
                        .events()
                        .iter()
                        .map(|e| (e.is_invocation(), e.req_id()))
                        .collect();
                    if m.events == expected {
                        Ok(())
                    } else {
                        Err(format!("monitor saw {:?}, trace {:?}", m.events, expected))
                    }
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "config {config:?}: {:?}",
                report.outcome
            );
            assert!(schedules > 0);
        }
    }

    #[test]
    fn crash_exploration_respects_the_budget_and_branches() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let base = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig::default(),
            lin_check,
        );
        assert_eq!(base.stats.crash_steps, 0);
        let mut prev = base.stats.schedules;
        for max_crashes in [1usize, 2] {
            let mut max_seen = 0u32;
            let report = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    max_crashes,
                    ..Default::default()
                },
                |res, mem| {
                    max_seen = max_seen.max(res.crash_count());
                    // Crashed ops stay pending (no outcome), so the commit
                    // projection must still linearize.
                    lin_check(res, mem)
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "max_crashes={max_crashes}: {:?}",
                report.outcome
            );
            assert_eq!(max_seen as usize, max_crashes, "budget must be reachable");
            assert!(report.stats.crash_steps > 0);
            assert!(
                report.stats.schedules > prev,
                "crash branching must grow the tree: {} vs {prev}",
                report.stats.schedules
            );
            prev = report.stats.schedules;
        }
    }

    #[test]
    fn crash_eligible_mask_limits_who_crashes() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let mut crashed_union = 0u64;
        let report = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                max_crashes: 1,
                crash_eligible: 0b01,
                ..Default::default()
            },
            |res, _mem| {
                crashed_union |= res.crashed;
                Ok(())
            },
        );
        assert!(matches!(
            report.outcome,
            Ok(ExploreOutcome::Exhausted { .. })
        ));
        assert_eq!(crashed_union, 0b01, "only process 0 may crash");
    }

    /// A fingerprint that additionally pins *which* processes crashed, so
    /// mode-coverage comparisons are crash-aware.
    fn crash_fingerprint(res: &ExecutionResult<TasSpec, TasSwitch>, mem: &SharedMemory) -> String {
        format!("{};crashed={:b}", fingerprint(res, mem), res.crashed)
    }

    #[test]
    fn crash_exploration_covers_identical_final_states_in_every_mode() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let run = |config: &ExploreConfig| {
            let mut states = std::collections::BTreeSet::new();
            let report = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                config,
                |res, mem| {
                    states.insert(crash_fingerprint(res, mem));
                    Ok(())
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{config:?}: {:?}",
                report.outcome
            );
            states
        };
        let reference = run(&ExploreConfig {
            max_crashes: 1,
            ..Default::default()
        });
        // Crashes actually reach states the crash-free space cannot: some
        // fingerprint has a non-empty crash set.
        assert!(reference.iter().any(|fp| !fp.ends_with("crashed=0")));
        for base in all_mode_configs() {
            let config = ExploreConfig {
                max_crashes: 1,
                ..base
            };
            assert_eq!(run(&config), reference, "config {config:?}");
        }
    }

    /// Counts executed crash, delivery, drop and restart transitions as the
    /// monitor sees them — replayed prefixes included.
    #[derive(Default)]
    struct KindCounter {
        counts: [u64; 4],
    }

    impl<S: SequentialSpec, V: Clone + Eq + Hash + Debug> ScheduleMonitor<S, V> for KindCounter {
        fn begin(&mut self) {}
        fn observe(&mut self, session: &ExecSession<S, V>) {
            let kind = match session.last_emission() {
                TickEmission::Crashed { .. } => 0,
                TickEmission::Delivered { .. } => 1,
                TickEmission::Dropped { .. } => 2,
                TickEmission::Restarted { .. } => 3,
                _ => return,
            };
            self.counts[kind] += 1;
        }
        fn mark(&mut self) -> u64 {
            0
        }
        fn rewind_to(&mut self, _mark: u64) {}
    }

    /// [`explore_schedules_report`] with a [`KindCounter`] attached: the
    /// per-kind stats must count every executed transition of their kind,
    /// replayed prefixes included.
    fn counted_report<S, V, O>(
        setup: impl FnMut(&mut SharedMemory) -> O,
        workload: &Workload<S, V>,
        config: &ExploreConfig,
        mut check: impl FnMut(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
    ) -> ExploreReport
    where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
        O: SimObject<S, V>,
    {
        let mut counter = KindCounter::default();
        let report = explore_schedules_monitored_observed_report(
            setup,
            workload,
            config,
            &mut counter,
            &NoObserver,
            |res, mem, _m: &mut KindCounter| check(res, mem),
        );
        let s = &report.stats;
        assert_eq!(
            counter.counts,
            [
                s.crash_steps,
                s.delivery_steps,
                s.drop_steps,
                s.restart_steps
            ],
            "{config:?}"
        );
        report
    }

    #[test]
    fn crash_prefix_resume_is_equivalent_to_full_replay() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let mk = |resume| {
            explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    max_crashes: 1,
                    resume,
                    ..Default::default()
                },
                lin_check,
            )
        };
        let replay = mk(ResumeMode::FullReplay);
        let resume = mk(ResumeMode::PrefixResume);
        assert_eq!(replay.outcome, resume.outcome);
        assert_eq!(replay.stats.schedules, resume.stats.schedules);
        assert_eq!(replay.stats.crash_steps, resume.stats.crash_steps);
        // Checkpoints taken after crash steps restore bit-identically, so
        // no fallback replay is ever needed on this fully snapshottable
        // object.
        assert!(resume.stats.snapshots > 0);
        assert_eq!(resume.stats.snapshot_fallbacks, 0);
        assert!(resume.stats.executed_ticks < replay.stats.executed_ticks);
    }

    #[test]
    fn restart_exploration_respects_the_budget_and_branches() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let crash_only = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                max_crashes: 1,
                ..Default::default()
            },
            lin_check,
        );
        assert_eq!(crash_only.stats.restart_steps, 0);
        let mut max_seen = 0u32;
        let report = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                max_crashes: 1,
                max_recoveries: 1,
                ..Default::default()
            },
            |res, mem| {
                max_seen = max_seen.max(res.restart_count());
                // The default (trivial) recovery abandons the interrupted
                // op, so the commit projection must still linearize.
                lin_check(res, mem)
            },
        );
        assert!(
            matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
            "{:?}",
            report.outcome
        );
        assert_eq!(max_seen, 1, "recovery budget must be reachable");
        assert!(report.stats.restart_steps > 0);
        assert!(
            report.stats.schedules > crash_only.stats.schedules,
            "restart branching must grow the tree: {} vs {}",
            report.stats.schedules,
            crash_only.stats.schedules
        );
    }

    #[test]
    fn recovery_eligible_mask_limits_who_restarts() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let mut restarted_union = 0u64;
        let report = explore_schedules_report(
            |mem| SwapTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &ExploreConfig {
                max_crashes: 1,
                max_recoveries: 1,
                recovery_eligible: 0b01,
                ..Default::default()
            },
            |res, _mem| {
                restarted_union |= res.restarted;
                Ok(())
            },
        );
        assert!(matches!(
            report.outcome,
            Ok(ExploreOutcome::Exhausted { .. })
        ));
        assert_eq!(restarted_union, 0b01, "only process 0 may restart");
    }

    /// A fingerprint that additionally pins which processes crashed and
    /// which restarted, so mode-coverage comparisons are recovery-aware.
    fn restart_fingerprint(
        res: &ExecutionResult<TasSpec, TasSwitch>,
        mem: &SharedMemory,
    ) -> String {
        format!(
            "{};crashed={:b};restarted={:b}",
            fingerprint(res, mem),
            res.crashed,
            res.restarted
        )
    }

    #[test]
    fn restart_exploration_covers_identical_final_states_in_every_mode() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let run = |config: &ExploreConfig| {
            let mut states = std::collections::BTreeSet::new();
            let report = explore_schedules_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                config,
                |res, mem| {
                    states.insert(restart_fingerprint(res, mem));
                    Ok(())
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{config:?}: {:?}",
                report.outcome
            );
            states
        };
        let reference = run(&ExploreConfig {
            max_crashes: 1,
            max_recoveries: 1,
            ..Default::default()
        });
        // Restarts actually reach states the restart-free space cannot.
        assert!(reference.iter().any(|fp| !fp.ends_with("restarted=0")));
        for base in all_mode_configs() {
            let config = ExploreConfig {
                max_crashes: 1,
                max_recoveries: 1,
                ..base
            };
            assert_eq!(run(&config), reference, "config {config:?}");
        }
    }

    #[test]
    fn restart_prefix_resume_is_equivalent_to_full_replay() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let mk = |resume| {
            counted_report(
                |mem| SwapTas {
                    flag: mem.alloc("flag", Value::FALSE),
                },
                &wl,
                &ExploreConfig {
                    max_crashes: 1,
                    max_recoveries: 1,
                    resume,
                    ..Default::default()
                },
                lin_check,
            )
        };
        let replay = mk(ResumeMode::FullReplay);
        let resume = mk(ResumeMode::PrefixResume);
        assert_eq!(replay.outcome, resume.outcome);
        assert_eq!(replay.stats.schedules, resume.stats.schedules);
        // Prefix-resume replays nothing, so it executes each restart of the
        // tree once; full replay re-executes the restarts on replayed
        // prefixes on top (`counted_report` checks both counts exactly).
        assert_eq!(resume.stats.replayed_ticks, 0);
        assert!(resume.stats.restart_steps > 0);
        assert!(replay.stats.restart_steps > resume.stats.restart_steps);
        assert!(resume.stats.snapshots > 0);
        assert_eq!(resume.stats.snapshot_fallbacks, 0);
        assert!(resume.stats.executed_ticks < replay.stats.executed_ticks);
    }

    /// Network-adversary exploration: scheduled deliveries, drop budgets,
    /// partitions and the blocked-process wedge, exercised through a minimal
    /// message-passing register (one passive replica, echo-style protocol).
    mod network {
        use super::*;
        use crate::memory::{Message, NetNode};
        use crate::replay::{replay_schedule, ReplayOutcome};
        use scl_spec::{RegisterOp, RegisterSpec};

        const WRITE_REQ: i64 = 0;
        const READ_REQ: i64 = 1;
        const RESP: i64 = 2;

        #[allow(clippy::ptr_arg)] // the `net_init` handler type is `fn(_, &mut Vec<i64>, _)`
        fn echo_server(server: usize, state: &mut Vec<i64>, msg: &Message) -> Option<Message> {
            let reply_val = match msg.body[0] {
                WRITE_REQ => {
                    state[0] = msg.body[3];
                    msg.body[3]
                }
                READ_REQ => state[0],
                _ => return None,
            };
            Some(Message {
                src: NetNode::Server(server),
                dst: msg.src,
                owner: msg.owner,
                lane: msg.lane,
                body: [RESP, msg.body[1], 0, reply_val],
                lost: false,
            })
        }

        /// A register stored on one replica: each op sends one request and
        /// waits for the echo; a loss notification sends it again (drops are
        /// already bounded by the explorer's budget, so retries terminate).
        struct EchoStore;

        #[derive(Clone)]
        struct EchoOp {
            proc: scl_spec::ProcessId,
            op: RegisterOp,
            sent: bool,
            slot_reg: RegId,
            inbox_reg: RegId,
        }

        impl EchoOp {
            fn request(&self) -> Message {
                let (kind, val) = match self.op {
                    RegisterOp::Write(v) => (WRITE_REQ, v as i64),
                    RegisterOp::Read => (READ_REQ, 0),
                };
                Message {
                    src: NetNode::Client(self.proc.index()),
                    dst: NetNode::Server(0),
                    owner: self.proc,
                    // One outstanding request per op: a single lane is fine.
                    lane: 0,
                    body: [kind, self.proc.index() as i64, 0, val],
                    lost: false,
                }
            }
        }

        impl OpExecution<RegisterSpec, ()> for EchoOp {
            fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
                if !self.sent {
                    let _ = mem.net_send(self.proc, self.request());
                    self.sent = true;
                    return StepOutcome::Continue;
                }
                match mem.net_recv(self.proc, 0) {
                    Some(msg) if msg.lost => {
                        // Send the request again on the next step.
                        self.sent = false;
                        StepOutcome::Continue
                    }
                    Some(msg) => StepOutcome::Done(OpOutcome::Commit(match self.op {
                        RegisterOp::Write(v) => v,
                        RegisterOp::Read => msg.body[3] as u64,
                    })),
                    None => StepOutcome::Continue,
                }
            }

            fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
                Some(Box::new(self.clone()))
            }

            fn next_footprint(&self) -> Footprint {
                if self.sent {
                    Footprint::Read(self.inbox_reg)
                } else {
                    Footprint::Write(self.slot_reg)
                }
            }

            fn blocked(&self, mem: &SharedMemory) -> bool {
                self.sent && !mem.net_pending(self.proc, 0)
            }
        }

        impl SimObject<RegisterSpec, ()> for EchoStore {
            fn invoke(
                &mut self,
                mem: &mut SharedMemory,
                req: Request<RegisterSpec>,
                _switch: Option<()>,
            ) -> Box<dyn OpExecution<RegisterSpec, ()>> {
                Box::new(EchoOp {
                    proc: req.proc,
                    op: req.op,
                    sent: false,
                    slot_reg: mem.net_slot_reg(),
                    inbox_reg: mem.net_inbox_reg(req.proc.index(), 0),
                })
            }

            fn snapshot(&self) -> Option<ObjectSnapshot> {
                Some(ObjectSnapshot::stateless())
            }
        }

        fn setup(mem: &mut SharedMemory) -> EchoStore {
            mem.net_init(2, 1, 10, &[0], echo_server);
            EchoStore
        }

        fn workload() -> Workload<RegisterSpec, ()> {
            Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]])
        }

        /// Final-state fingerprint covering the op outcomes, the crash set
        /// and the full network state (replica, in-flight slots, inboxes).
        fn net_fingerprint(res: &ExecutionResult<RegisterSpec, ()>, mem: &SharedMemory) -> String {
            let mut outs: Vec<String> = res
                .ops
                .iter()
                .map(|o| format!("{:?}={:?}", o.req.proc, o.outcome))
                .collect();
            outs.sort();
            format!(
                "net={:016x};crashed={:b};completed={};{}",
                mem.net_digest(),
                res.crashed,
                res.completed,
                outs.join("|")
            )
        }

        #[test]
        fn deliveries_are_scheduled_transitions_and_the_space_exhausts() {
            let wl = workload();
            let report =
                explore_schedules_report(setup, &wl, &ExploreConfig::default(), |res, _mem| {
                    if res.completed {
                        Ok(())
                    } else {
                        Err("wedged without faults".into())
                    }
                });
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{:?}",
                report.outcome
            );
            assert!(report.stats.delivery_steps > 0, "deliveries must branch");
            assert_eq!(report.stats.drop_steps, 0, "no drop budget configured");
            assert!(report.stats.schedules > 1);
        }

        #[test]
        #[should_panic(expected = "2 * processes + slots <= 64")]
        fn source_dpor_rejects_delivery_ids_past_the_seed_mask() {
            // 2 processes and 61 slots: delivery `2n + 60 = 64` would have
            // no sleep/seed bit, so a reversal seeded on it would vanish.
            let wide = |mem: &mut SharedMemory| {
                mem.net_init(2, 1, 61, &[0], echo_server);
                EchoStore
            };
            let config = ExploreConfig {
                reduction: Reduction::SourceDpor,
                ..ExploreConfig::default()
            };
            let _ = explore_schedules_report(wide, &workload(), &config, |_res, _mem| Ok(()));
        }

        #[test]
        fn replay_annotates_races_over_more_than_64_threads() {
            // 2 processes and 63 slots: 65 hb threads, more than a race
            // seed mask holds, which only the unreduced explorer allows.
            let wide = |mem: &mut SharedMemory| {
                mem.net_init(2, 1, 63, &[0], echo_server);
                EchoStore
            };
            let check = |res: &ExecutionResult<RegisterSpec, ()>| {
                let read_new = res.ops.iter().any(|o| {
                    o.req.op == RegisterOp::Read && o.outcome == Some(OpOutcome::Commit(5))
                });
                if read_new {
                    Err("the read saw the write (designed harvest)".to_string())
                } else {
                    Ok(())
                }
            };
            let config = ExploreConfig {
                reduction: Reduction::Off,
                ..ExploreConfig::default()
            };
            let report =
                explore_schedules_report(wide, &workload(), &config, |res, _mem| check(res));
            let violation = report
                .outcome
                .expect_err("some schedule reads the written value")
                .as_check()
                .cloned()
                .expect("sequential exploration yields check violations");
            let (outcome, log) = replay_schedule(
                wide,
                &workload(),
                &config,
                &violation.schedule,
                &mut NoMonitor,
                |res: &ExecutionResult<RegisterSpec, ()>, _mem, _m: &mut NoMonitor| check(res),
            );
            assert_eq!(outcome, ReplayOutcome::Violation(violation.message));
            assert_eq!(log.net_cap, 63);
            assert!(
                !log.races.is_empty(),
                "the read races with the write's delivery"
            );
        }

        #[test]
        fn drop_budget_gates_drop_transitions() {
            let wl = workload();
            let base =
                explore_schedules_report(setup, &wl, &ExploreConfig::default(), |_, _| Ok(()));
            let lossy = explore_schedules_report(
                setup,
                &wl,
                &ExploreConfig {
                    max_drops: 1,
                    ..Default::default()
                },
                |res, _mem| {
                    if res.completed {
                        Ok(())
                    } else {
                        Err("a single drop must be survivable by resend".into())
                    }
                },
            );
            assert!(
                matches!(lossy.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{:?}",
                lossy.outcome
            );
            assert!(lossy.stats.drop_steps > 0, "the drop budget must be spent");
            assert!(
                lossy.stats.schedules > base.stats.schedules,
                "drop branching must grow the tree: {} vs {}",
                lossy.stats.schedules,
                base.stats.schedules
            );
        }

        #[test]
        fn every_mode_covers_identical_final_states_with_crashes_and_drops() {
            let wl = workload();
            let faulty = |base: ExploreConfig| ExploreConfig {
                max_crashes: 1,
                max_drops: 1,
                ..base
            };
            let run = |config: &ExploreConfig| {
                let mut states = std::collections::BTreeSet::new();
                let report = explore_schedules_report(setup, &wl, config, |res, mem| {
                    states.insert(net_fingerprint(res, mem));
                    Ok(())
                });
                assert!(
                    matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                    "{config:?}: {:?}",
                    report.outcome
                );
                states
            };
            let reference = run(&faulty(ExploreConfig::default()));
            assert!(
                reference.iter().any(|fp| fp.contains("None")),
                "some fault pattern must leave an op open"
            );
            for base in all_mode_configs() {
                let config = faulty(base);
                assert_eq!(run(&config), reference, "config {config:?}");
            }
        }

        #[test]
        fn a_severed_replica_wedges_every_schedule_as_open_ops_not_a_hang() {
            let wl = workload();
            let mut wedged = 0u64;
            let report = explore_schedules_report(
                setup,
                &wl,
                &ExploreConfig {
                    // Endpoint bit 2 = server 0 (after the two clients).
                    partition: 0b100,
                    ..Default::default()
                },
                |res, _mem| {
                    // A wedge still *completes* (the survey finds nothing
                    // enabled and nothing in flight) — the signature of the
                    // partition is that every op is left open, not a hang.
                    if res.ops.iter().any(|o| o.outcome.is_some()) {
                        return Err("no op can commit across a severed link".into());
                    }
                    wedged += 1;
                    Ok(())
                },
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{:?}",
                report.outcome
            );
            assert!(wedged > 0, "wedged executions are surfaced, not hung");
        }

        #[test]
        fn network_prefix_resume_matches_full_replay() {
            let wl = workload();
            let mk = |resume| {
                counted_report(
                    setup,
                    &wl,
                    &ExploreConfig {
                        max_drops: 1,
                        resume,
                        ..Default::default()
                    },
                    |_, _| Ok(()),
                )
            };
            let replay = mk(ResumeMode::FullReplay);
            let resume = mk(ResumeMode::PrefixResume);
            assert_eq!(replay.outcome, resume.outcome);
            assert_eq!(replay.stats.schedules, resume.stats.schedules);
            // Prefix-resume replays nothing, so it executes each network
            // transition of the tree once; full replay re-executes those on
            // replayed prefixes on top (`counted_report` checks both counts
            // exactly).
            assert_eq!(resume.stats.replayed_ticks, 0);
            assert!(resume.stats.delivery_steps > 0 && resume.stats.drop_steps > 0);
            assert!(replay.stats.delivery_steps > resume.stats.delivery_steps);
            assert!(replay.stats.drop_steps >= resume.stats.drop_steps);
            assert!(resume.stats.snapshots > 0);
            assert_eq!(
                resume.stats.snapshot_fallbacks, 0,
                "network state must snapshot/restore cleanly"
            );
        }

        #[test]
        fn parallel_workers_agree_with_the_sequential_verdict() {
            let wl = workload();
            let config = ExploreConfig {
                max_crashes: 1,
                max_drops: 1,
                threads: 2,
                ..Default::default()
            };
            // The benchmark shim ignores `threads` and runs the engine: the
            // same outcome and the same work, counter for counter.
            let factory = || NoMonitor;
            let (report, _) = explore_schedules_parallel_monitored_observed_report(
                setup,
                &wl,
                &config,
                &factory,
                &NoObserver,
                |_, _, _: &mut NoMonitor| Ok(()),
            );
            assert!(
                matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
                "{:?}",
                report.outcome
            );
            assert!(report.stats.delivery_steps > 0);
            let sequential = explore_schedules_report(setup, &wl, &config, |_, _| Ok(()));
            assert_eq!(report.outcome, sequential.outcome);
            assert_eq!(report.stats, sequential.stats);
        }

        #[test]
        fn an_expired_deadline_degrades_to_limit_reached() {
            let wl = workload();
            let report = explore_schedules_report(
                setup,
                &wl,
                &ExploreConfig {
                    deadline: Some(std::time::Instant::now()),
                    ..Default::default()
                },
                |_, _| Ok(()),
            );
            match report.outcome {
                Ok(ExploreOutcome::LimitReached { schedules }) => {
                    assert!(schedules <= 1, "an expired deadline stops immediately");
                }
                other => panic!("expected LimitReached, got {other:?}"),
            }
        }
    }
}
