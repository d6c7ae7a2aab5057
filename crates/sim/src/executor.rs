//! The execution engine: drives `n` simulated processes over per-process
//! workloads under an adversarial scheduler, recording a trace and metrics.
//!
//! Scheduling model (one *tick* per adversary decision):
//!
//! * scheduling an idle process with remaining workload **invokes** its next
//!   operation — the invocation event is recorded and an [`OpExecution`] is
//!   created, but no shared-memory step is taken;
//! * scheduling a process with an operation in progress lets that operation
//!   take **at most one shared-memory step**;
//! * when an operation finishes, its commit or abort event is recorded and
//!   the process becomes idle again (ready to invoke its next operation).
//!
//! The executor also records, for every tick, which transition was chosen:
//! the schedule that [`crate::explore`] reports and [`crate::replay`]
//! re-executes.
//!
//! # Hot-path structure
//!
//! The schedule explorer runs up to hundreds of thousands of executions, so
//! the engine is built to be *reused*:
//!
//! * an [`ExecSession`] owns every buffer a run needs (process states, the
//!   result's trace/metrics/ops vectors, the decision log, and the scratch
//!   enabled/in-progress sets); [`Executor::run_in`] rewinds and refills it,
//!   so a warm session executes a schedule without allocating beyond what
//!   the object itself boxes per operation;
//! * scheduling decisions are stored in a flat [`DecisionLog`] (the chosen
//!   ids only);
//! * a [`TraceMode::MetricsOnly`] run skips all per-event trace pushes for
//!   exploration checks that only consume metrics and memory state.
//!
//! # Checkpoints: marks on undo logs
//!
//! The schedule explorer rewinds a session to earlier decision points of
//! the same run. [`ExecSession::mark`] returns an `O(1)` [`SessionMark`],
//! and [`ExecSession::undo_to`] rewinds to it by undoing only what changed
//! since. The session keeps two undo logs, both copy-on-write per mark:
//!
//! * **process states**: the first change to a process's state after the
//!   newest mark puts the old state on the log. A state that is *replaced*
//!   — an invocation, a crash, a restart, a trivial recovery — is moved
//!   there, no copy needed. An operation that steps *in place* — its
//!   completing step included — is copied with [`OpExecution::fork`]
//!   first, once per mark;
//! * **operation records**: the first change to an operation's metrics or
//!   outcome after the newest mark logs its metrics (an operation changes
//!   only while it is open or interrupted, so its outcome was unset).
//!
//! The append-only buffers (trace, op records, decision log) rewind by
//! truncation to the lengths in the mark, and the crash and restart masks
//! ride in it. A mark is refused when some in-flight operation cannot fork:
//! a later in-place step could not be undone. To know that, a mark forks
//! every in-flight operation not known to fork since its last change and
//! keeps the copy as the pre-image the operation's next in-place step logs,
//! so no fork is wasted on the check.

use crate::adversary::{Adversary, SchedView};
use crate::machine::{OpExecution, OpOutcome, SimObject, StepOutcome};
use crate::memory::{Footprint, SharedMemory, StepLabel};
use crate::metrics::{ExecutionMetrics, OpMetrics};
use crate::step::StepKind;
use scl_spec::{ProcessId, Request, RequestId, SequentialSpec, Trace};
use std::fmt::Debug;
use std::hash::Hash;

/// Builds the request id of process `p`'s `cursor`-th workload operation.
///
/// Ids are a pure function of `(process, operation index)` rather than a
/// global invocation counter, so two executions assign the same id to the
/// same logical operation regardless of how invocations interleave. The
/// schedule explorer relies on this: resuming an execution from a mid-run
/// snapshot, and exploring only one order of commuting invocations, must not
/// change request identities.
fn request_id(p: ProcessId, cursor: usize) -> RequestId {
    RequestId(((p.index() as u64) << 32) | cursor as u64)
}

/// Per-process sequences of operations to execute, each optionally carrying a
/// switch value (an `(init, m, v)` invocation of §3).
#[derive(Debug, Clone)]
pub struct Workload<S: SequentialSpec, V> {
    /// `ops[p]` is the sequence of operations process `p` invokes, in order.
    pub ops: Vec<Vec<(S::Op, Option<V>)>>,
}

impl<S: SequentialSpec, V: Clone> Workload<S, V> {
    /// Every one of `n` processes invokes the same operation once.
    pub fn single_op_each(n: usize, op: S::Op) -> Self {
        Workload {
            ops: vec![vec![(op, None)]; n],
        }
    }

    /// Every one of `n` processes invokes the same operation `count` times.
    pub fn uniform(n: usize, op: S::Op, count: usize) -> Self {
        Workload {
            ops: vec![vec![(op, None); count]; n],
        }
    }

    /// A workload built from explicit per-process operation lists (without
    /// switch values).
    pub fn from_ops(per_process: Vec<Vec<S::Op>>) -> Self {
        Workload {
            ops: per_process
                .into_iter()
                .map(|ops| ops.into_iter().map(|o| (o, None)).collect())
                .collect(),
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.ops.len()
    }

    /// Total number of operations across all processes.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(|v| v.len()).sum()
    }
}

/// Whether the executor records the full event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record every invoke/init/commit/abort event (the default).
    #[default]
    Full,
    /// Skip all trace pushes; only metrics, op records and decisions are
    /// produced. For exploration checks that never look at the trace.
    MetricsOnly,
}

/// The scheduling decisions of an execution: the raw id chosen at each tick
/// (see [`crate::step::StepKind`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionLog {
    chosen: Vec<ProcessId>,
}

impl DecisionLog {
    /// Number of decisions (= ticks).
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    /// Whether no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }

    /// The chosen process per tick — the schedule itself.
    pub fn chosen(&self) -> &[ProcessId] {
        &self.chosen
    }

    /// The process chosen at tick `i`.
    pub fn chosen_at(&self, i: usize) -> ProcessId {
        self.chosen[i]
    }

    /// Appends a decision.
    pub fn push(&mut self, chosen: ProcessId) {
        self.chosen.push(chosen);
    }

    /// Clears the log, keeping its allocation.
    pub fn clear(&mut self) {
        self.chosen.clear();
    }

    /// Truncates the log to its first `len` decisions (used when rewinding a
    /// session to an earlier point of the same run).
    pub fn truncate(&mut self, len: usize) {
        self.chosen.truncate(len);
    }
}

/// What the most recent [`Executor::tick`] emitted at the trace level,
/// regardless of [`TraceMode`] (so metrics-only explorations can still feed
/// incremental history consumers such as the linearizability bridge in
/// `scl-check`). The payload indexes into [`ExecutionResult::ops`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickEmission {
    /// The tick took a silent step (or was a no-op on a done process).
    #[default]
    None,
    /// The tick invoked `ops[op_index]` (an invoke or init event).
    Invoked {
        /// Index of the invoked operation in [`ExecutionResult::ops`].
        op_index: usize,
    },
    /// The tick committed `ops[op_index]`.
    Committed {
        /// Index of the committed operation in [`ExecutionResult::ops`].
        op_index: usize,
    },
    /// The tick aborted `ops[op_index]`.
    Aborted {
        /// Index of the aborted operation in [`ExecutionResult::ops`].
        op_index: usize,
    },
    /// The tick crashed a process. Crash-stop: the process never takes
    /// another step. `op_index` names its in-flight operation (which stays
    /// pending forever), `None` when the process crashed between operations.
    Crashed {
        /// Index of the crashed process's in-flight operation in
        /// [`ExecutionResult::ops`], if it had one.
        op_index: Option<usize>,
    },
    /// The tick delivered the in-flight network message in `slot` (a
    /// scheduled network transition, not a process step — no operation
    /// invoked or responded).
    Delivered {
        /// The in-flight buffer slot that was delivered.
        slot: usize,
        /// The client process whose operation the message belongs to.
        owner: ProcessId,
    },
    /// The tick dropped the in-flight network message in `slot` (an
    /// injected message-loss fault; the owner received a loss notification).
    Dropped {
        /// The in-flight buffer slot that was dropped.
        slot: usize,
        /// The client process whose operation the message belongs to.
        owner: ProcessId,
    },
    /// The tick restarted a crashed process: its volatile state is wiped
    /// (shared registers persist) and control passes to the object's
    /// [`SimObject::recover`] routine. `op_index` names the operation that
    /// was in flight when the process crashed, `None` when it crashed
    /// between operations.
    Restarted {
        /// Index of the interrupted operation in [`ExecutionResult::ops`],
        /// if the process crashed mid-operation.
        op_index: Option<usize>,
    },
    /// The tick completed a recovery routine. With `resolved = true` the
    /// interrupted operation `ops[op_index]` received its response during
    /// recovery (a late commit); with `resolved = false` the recovery
    /// finished without resolving it — the interrupted operation (if any)
    /// is abandoned and stays pending forever.
    Recovered {
        /// Index of the interrupted operation in [`ExecutionResult::ops`],
        /// if the process crashed mid-operation.
        op_index: Option<usize>,
        /// Whether the recovery committed the interrupted operation.
        resolved: bool,
    },
}

/// One operation's record: the request and outcome indices into the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<S: SequentialSpec, V> {
    /// The request that was invoked.
    pub req: Request<S>,
    /// The outcome, if the operation finished.
    pub outcome: Option<OpOutcome<S, V>>,
}

/// The result of one simulated execution.
#[derive(Debug)]
pub struct ExecutionResult<S: SequentialSpec, V> {
    /// The recorded trace (invoke / init / commit / abort events). Empty in
    /// [`TraceMode::MetricsOnly`] runs.
    pub trace: Trace<S, V>,
    /// Per-operation measurements.
    pub metrics: ExecutionMetrics,
    /// Operation records in invocation order.
    pub ops: Vec<OpRecord<S, V>>,
    /// The scheduling decisions, one per tick (their count is the number
    /// of ticks consumed).
    pub decisions: DecisionLog,
    /// Whether every workload operation ran to a response before the tick
    /// limit.
    pub completed: bool,
    /// Bitmask of processes that crashed during the execution (bit `p` set
    /// when [`Executor::tick`] executed a crash of process `p`). Historical:
    /// the bit stays set even after the process restarts.
    pub crashed: u64,
    /// Bitmask of processes that restarted during the execution (bit `p`
    /// set when [`Executor::tick`] executed a restart of process `p`).
    pub restarted: u64,
}

impl<S: SequentialSpec, V: Clone + Eq + Hash + Debug> Default for ExecutionResult<S, V> {
    fn default() -> Self {
        ExecutionResult {
            trace: Trace::new(),
            metrics: ExecutionMetrics::default(),
            ops: Vec::new(),
            decisions: DecisionLog::default(),
            completed: false,
            crashed: 0,
            restarted: 0,
        }
    }
}

impl<S: SequentialSpec, V> ExecutionResult<S, V> {
    /// Whether process `p` crashed during the execution (at any point —
    /// the flag persists across a restart).
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        p.index() < 64 && self.crashed & (1u64 << p.index()) != 0
    }

    /// Number of processes that crashed during the execution.
    pub fn crash_count(&self) -> u32 {
        self.crashed.count_ones()
    }

    /// Whether process `p` restarted during the execution.
    pub fn is_restarted(&self, p: ProcessId) -> bool {
        p.index() < 64 && self.restarted & (1u64 << p.index()) != 0
    }

    /// Number of processes that restarted during the execution.
    pub fn restart_count(&self) -> u32 {
        self.restarted.count_ones()
    }
}

enum ProcState<S: SequentialSpec, V> {
    Idle {
        next_op: usize,
    },
    Running {
        exec: Box<dyn OpExecution<S, V>>,
        metrics_idx: usize,
        op_cursor: usize,
    },
    Done,
    /// The process crashed: it is not enabled again unless the schedule
    /// restarts it. `interrupted` names its in-flight operation at crash
    /// time (still unresolved), `next_op` the workload cursor a restart
    /// resumes at once recovery completes.
    Crashed {
        interrupted: Option<usize>,
        next_op: usize,
    },
    /// The process restarted and is executing the object's recovery routine
    /// for the interrupted operation. `exec: None` is the trivial recovery
    /// (the object had nothing to recover): its single tick completes the
    /// recovery without resolving anything.
    Recovering {
        exec: Option<Box<dyn OpExecution<S, V>>>,
        op_index: Option<usize>,
        next_op: usize,
    },
}

impl<S: SequentialSpec, V> ProcState<S, V> {
    /// Duplicates the state; `None` if a running operation cannot
    /// [`OpExecution::fork`].
    fn fork(&self) -> Option<Self> {
        Some(match self {
            ProcState::Idle { next_op } => ProcState::Idle { next_op: *next_op },
            ProcState::Running {
                exec,
                metrics_idx,
                op_cursor,
            } => ProcState::Running {
                exec: exec.fork()?,
                metrics_idx: *metrics_idx,
                op_cursor: *op_cursor,
            },
            ProcState::Done => ProcState::Done,
            ProcState::Crashed {
                interrupted,
                next_op,
            } => ProcState::Crashed {
                interrupted: *interrupted,
                next_op: *next_op,
            },
            ProcState::Recovering {
                exec,
                op_index,
                next_op,
            } => ProcState::Recovering {
                exec: match exec {
                    None => None,
                    Some(e) => Some(e.fork()?),
                },
                op_index: *op_index,
                next_op: *next_op,
            },
        })
    }
}

/// A position on an [`ExecSession`]'s undo logs, returned by
/// [`ExecSession::mark`] and consumed by [`ExecSession::undo_to`]: the
/// lengths of both logs and of the append-only result buffers, the crash and
/// restart masks, and the mark's epoch (see the
/// [module documentation](self#checkpoints-marks-on-undo-logs)). Pair it
/// with a [`crate::memory::MemMark`] for the shared memory and an
/// [`crate::machine::ObjectSnapshot`] for the object under test to rewind a
/// complete execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMark {
    epoch: u64,
    states: usize,
    ops: usize,
    trace_len: usize,
    ops_len: usize,
    decisions_len: usize,
    crashed: u64,
    restarted: u64,
}

impl SessionMark {
    /// The number of scheduling decisions taken when the mark was made —
    /// i.e. the depth [`ExecSession::undo_to`] rewinds to.
    pub fn depth(&self) -> usize {
        self.decisions_len
    }
}

/// The undo log of operation records (see the
/// [module documentation](self#checkpoints-marks-on-undo-logs)).
#[derive(Default)]
struct OpLog {
    /// Index, metrics before the change, previous stamp.
    entries: Vec<(usize, OpMetrics, u64)>,
    /// Per operation record, the epoch in which it last went onto the log.
    /// An operation invoked after the newest mark is stamped with its epoch:
    /// an undo truncates it instead.
    stamps: Vec<u64>,
}

impl OpLog {
    /// Logs operation `i`'s metrics before its first change since the
    /// newest mark (`epoch`).
    #[inline]
    fn touch(&mut self, epoch: u64, ops: &[OpMetrics], i: usize) {
        if self.stamps[i] != epoch {
            self.entries.push((i, ops[i].clone(), self.stamps[i]));
            self.stamps[i] = epoch;
        }
    }
}

/// A reusable execution context: owns the result buffers and the executor's
/// scratch state so repeated runs (one per explored schedule) reuse all
/// allocations. Create once per worker, pass to [`Executor::run_in`].
pub struct ExecSession<S: SequentialSpec, V> {
    states: Vec<ProcState<S, V>>,
    enabled: Vec<ProcessId>,
    in_progress: Vec<ProcessId>,
    last_emission: TickEmission,
    last_footprint: Footprint,
    result: ExecutionResult<S, V>,
    /// The epoch of the newest live mark (0 before the first mark of a
    /// run: nothing is logged then). Every mark opens a fresh epoch; an
    /// undo returns to the mark's.
    epoch: u64,
    /// Marks taken this run: the last epoch handed out.
    epochs: u64,
    /// Undo log of process states: process, pre-image, previous stamp.
    state_log: Vec<(usize, ProcState<S, V>, u64)>,
    /// `state_stamp[p]` is the epoch in which `states[p]` last went onto
    /// the log; it is the current epoch iff the state already changed since
    /// the newest mark.
    state_stamp: Vec<u64>,
    /// `spare[p]` is a fork of `states[p]` as it is now, made by a mark to
    /// check forkability and logged by the next in-place step.
    spare: Vec<Option<ProcState<S, V>>>,
    /// `forkable[p]`: `states[p]` as it is now is known to fork — it was
    /// checked by a mark, or an undo put back a state a mark checked.
    forkable: Vec<bool>,
    /// Undo log of operation records.
    op_log: OpLog,
}

impl<S: SequentialSpec, V: Clone + Eq + Hash + Debug> Default for ExecSession<S, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SequentialSpec, V: Clone + Eq + Hash + Debug> ExecSession<S, V> {
    /// A fresh session.
    pub fn new() -> Self {
        ExecSession {
            states: Vec::new(),
            enabled: Vec::new(),
            in_progress: Vec::new(),
            last_emission: TickEmission::None,
            last_footprint: Footprint::Pure,
            result: ExecutionResult::default(),
            epoch: 0,
            epochs: 0,
            state_log: Vec::new(),
            state_stamp: Vec::new(),
            spare: Vec::new(),
            forkable: Vec::new(),
            op_log: OpLog::default(),
        }
    }

    /// The result of the last [`Executor::run_in`] on this session.
    pub fn result(&self) -> &ExecutionResult<S, V> {
        &self.result
    }

    /// The processes schedulable at the current decision point, in ascending
    /// order. Valid after [`Executor::survey`] returned
    /// [`SurveyStatus::Choose`].
    pub fn enabled(&self) -> &[ProcessId] {
        &self.enabled
    }

    /// The processes with an operation in progress, in ascending order:
    /// the enabled ones and those whose operation is blocked
    /// ([`crate::OpExecution::blocked`]), which are not in
    /// [`Self::enabled`]. Valid after [`Executor::survey`].
    pub fn in_progress(&self) -> &[ProcessId] {
        &self.in_progress
    }

    /// The number of scheduling decisions taken so far (the current tick).
    pub fn depth(&self) -> usize {
        self.result.decisions.len()
    }

    /// The predicted label of process `p`'s next step: an invocation with no
    /// shared-memory access if `p` is idle; otherwise the access its
    /// in-flight operation or recovery routine reports
    /// ([`OpExecution::next_footprint`]), responding if that step may finish
    /// ([`OpExecution::may_respond_next`]). A recovery's completion is a
    /// response-like event (it may resolve the interrupted operation), and
    /// the trivial recovery completes on its very next tick. The explorer's
    /// [`crate::explore::pending_label`] for a step.
    pub fn next_label(&self, p: ProcessId) -> StepLabel {
        let (footprint, invoked, responded) = match self.states.get(p.index()) {
            Some(ProcState::Idle { .. }) => (Footprint::Pure, true, false),
            Some(ProcState::Running { exec, .. })
            | Some(ProcState::Recovering {
                exec: Some(exec), ..
            }) => (exec.next_footprint(), false, exec.may_respond_next()),
            Some(ProcState::Recovering { exec: None, .. }) => (Footprint::Pure, false, true),
            _ => (Footprint::Pure, false, false),
        };
        StepLabel {
            proc: p,
            footprint,
            invoked,
            responded,
        }
    }

    /// What the most recent [`Executor::tick`] emitted. Reset by
    /// [`Executor::begin`] and [`Self::undo_to`].
    pub fn last_emission(&self) -> TickEmission {
        self.last_emission
    }

    /// The shared-memory access the most recent [`Executor::tick`] actually
    /// performed: [`Footprint::Pure`] for invocations and silent local
    /// steps, the accessed register otherwise, [`Footprint::Unknown`] if the
    /// step violated the one-step contract. Together with
    /// [`Self::last_emission`] this labels the executed transition exactly
    /// (the source-DPOR race detection in [`crate::explore`] consumes both
    /// as a [`crate::memory::StepLabel`]). Reset by [`Executor::begin`] and
    /// [`Self::undo_to`].
    pub fn last_step_footprint(&self) -> Footprint {
        self.last_footprint
    }

    /// Marks the current point of the run for a later [`Self::undo_to`]
    /// (see the [module documentation](self#checkpoints-marks-on-undo-logs)).
    /// Returns `None` when some in-flight operation does not support
    /// [`OpExecution::fork`] right now — callers then fall back to replaying
    /// the prefix. Only operations changed since they were last checked are
    /// forked, and each fork is kept as the pre-image for the operation's
    /// next in-place step.
    pub fn mark(&mut self) -> Option<SessionMark> {
        for (p, st) in self.states.iter().enumerate() {
            // Only a state that steps in place needs a copy to be undone.
            let in_place = matches!(
                st,
                ProcState::Running { .. } | ProcState::Recovering { exec: Some(_), .. }
            );
            if in_place && !self.forkable[p] {
                self.spare[p] = Some(st.fork()?);
                self.forkable[p] = true;
            }
        }
        self.epochs += 1;
        self.epoch = self.epochs;
        Some(SessionMark {
            epoch: self.epoch,
            states: self.state_log.len(),
            ops: self.op_log.entries.len(),
            trace_len: self.result.trace.len(),
            ops_len: self.result.ops.len(),
            decisions_len: self.result.decisions.len(),
            crashed: self.result.crashed,
            restarted: self.result.restarted,
        })
    }

    /// Rewinds the session to `mark`, taken earlier in the *same* run, so
    /// exploration can backtrack one scheduling decision and re-execute only
    /// the suffix: pops both undo logs back to the mark and truncates the
    /// trace, op records and decision log. Marks nest like a stack (no mark
    /// taken before `mark` may have been undone to since) and `mark` stays
    /// usable for further undos. The caller rewinds the paired
    /// [`crate::memory::MemMark`] and [`crate::machine::ObjectSnapshot`]
    /// alongside.
    pub fn undo_to(&mut self, mark: &SessionMark) {
        debug_assert!(
            mark.epoch <= self.epochs
                && mark.states <= self.state_log.len()
                && mark.ops <= self.op_log.entries.len(),
            "undo to a mark from another run, or out of stack order"
        );
        for (p, prev, stamp) in self.state_log.drain(mark.states..).rev() {
            self.states[p] = prev;
            self.state_stamp[p] = stamp;
            self.spare[p] = None;
        }
        // Every state is now the one the mark checked.
        self.forkable.fill(true);
        let result = &mut self.result;
        for (i, prev, stamp) in self.op_log.entries.drain(mark.ops..).rev() {
            result.metrics.ops[i] = prev;
            // A logged operation was open or interrupted at the mark, so it
            // had no outcome yet; if the abandoned suffix gave it one (a
            // completion or a recovery's late commit), reopen it.
            result.ops[i].outcome = None;
            self.op_log.stamps[i] = stamp;
        }
        result.trace.truncate(mark.trace_len);
        result.ops.truncate(mark.ops_len);
        result.metrics.ops.truncate(mark.ops_len);
        self.op_log.stamps.truncate(mark.ops_len);
        result.decisions.truncate(mark.decisions_len);
        result.completed = false;
        result.crashed = mark.crashed;
        result.restarted = mark.restarted;
        self.epoch = mark.epoch;
        self.last_emission = TickEmission::None;
        self.last_footprint = Footprint::Pure;
    }

    /// Replaces process `p`'s state. On its first change since the newest
    /// mark the old state moves onto the undo log; no copy is made.
    fn set_state(&mut self, p: usize, new: ProcState<S, V>) {
        let old = std::mem::replace(&mut self.states[p], new);
        self.spare[p] = None;
        self.forkable[p] = false;
        if self.state_stamp[p] != self.epoch {
            self.state_log.push((p, old, self.state_stamp[p]));
            self.state_stamp[p] = self.epoch;
        }
    }

    /// Readies process `p`'s state for an in-place step. On its first
    /// change since the newest mark a copy goes onto the undo log: the
    /// mark's spare fork if it made one, a fresh fork otherwise (the mark
    /// checked that the state forks).
    fn touch_state(&mut self, p: usize) {
        let spare = self.spare[p].take();
        if self.state_stamp[p] != self.epoch {
            debug_assert!(self.forkable[p], "in-place step of a state no mark checked");
            let copy = spare.unwrap_or_else(|| {
                self.states[p]
                    .fork()
                    .expect("a mark checked that this operation forks")
            });
            self.state_log.push((p, copy, self.state_stamp[p]));
            self.state_stamp[p] = self.epoch;
        }
        self.forkable[p] = false;
    }

    /// Charges `dsteps` foreign steps to the running operation of every
    /// process but `p`.
    fn charge_foreign_steps(&mut self, p: usize, dsteps: u64) {
        let ops = &mut self.result.metrics.ops;
        for (q, st) in self.states.iter().enumerate() {
            if let ProcState::Running { metrics_idx, .. } = st {
                if q != p {
                    self.op_log.touch(self.epoch, ops, *metrics_idx);
                    ops[*metrics_idx].foreign_steps += dsteps;
                }
            }
        }
    }

    /// Reinstates the enabled and in-progress sets a [`Executor::survey`]
    /// computed at this decision point earlier — for a session just
    /// rewound by [`Self::undo_to`] to a point whose survey the caller
    /// kept, so it need not survey again.
    pub(crate) fn set_survey(&mut self, enabled: &[ProcessId], in_progress: &[ProcessId]) {
        self.enabled.clear();
        self.enabled.extend_from_slice(enabled);
        self.in_progress.clear();
        self.in_progress.extend_from_slice(in_progress);
    }

    /// Consumes the session, returning the last result.
    pub fn into_result(self) -> ExecutionResult<S, V> {
        self.result
    }

    /// Rewinds every buffer, keeping allocations. Marks of the previous run
    /// become invalid.
    fn rewind(&mut self, n: usize) {
        self.states.clear();
        self.states
            .extend((0..n).map(|_| ProcState::Idle { next_op: 0 }));
        self.epoch = 0;
        self.epochs = 0;
        self.state_log.clear();
        self.state_stamp.clear();
        self.state_stamp.resize(n, 0);
        self.spare.clear();
        self.spare.resize_with(n, || None);
        self.forkable.clear();
        self.forkable.resize(n, false);
        self.op_log.entries.clear();
        self.op_log.stamps.clear();
        self.enabled.clear();
        self.in_progress.clear();
        self.last_emission = TickEmission::None;
        self.last_footprint = Footprint::Pure;
        self.result.trace.clear();
        self.result.metrics.ops.clear();
        self.result.ops.clear();
        self.result.decisions.clear();
        self.result.completed = false;
        self.result.crashed = 0;
        self.result.restarted = 0;
    }

    /// Whether the transition with raw id `id` can be scheduled at the
    /// current decision point, over a network of `cap` slots: a step or a
    /// delivery iff it is in the enabled set, a crash iff its process's step
    /// is, a drop iff its message's delivery is, and a restart iff its
    /// process is crashed right now (crashed processes are never enabled).
    /// Valid after [`Executor::survey`] returned [`SurveyStatus::Choose`].
    pub fn schedulable(&self, id: ProcessId, cap: usize) -> bool {
        let n = self.states.len();
        match StepKind::decode(id, n, cap) {
            StepKind::Step(_) | StepKind::Deliver(_) => self.enabled.contains(&id),
            StepKind::Crash(p) => self.enabled.contains(&p),
            StepKind::Drop(s) => self.enabled.contains(&StepKind::Deliver(s).encode(n, cap)),
            StepKind::Restart(p) => {
                matches!(self.states.get(p.index()), Some(ProcState::Crashed { .. }))
            }
        }
    }

    /// Bitmask of processes that are crashed *right now* (state
    /// `ProcState::Crashed`, not yet restarted) — the restart candidates
    /// the explorer branches on. Unlike [`ExecutionResult::crashed`], which
    /// is historical, a bit here clears when the process restarts.
    pub fn crashed_now(&self) -> u64 {
        let mut mask = 0u64;
        for (i, st) in self.states.iter().enumerate() {
            if matches!(st, ProcState::Crashed { .. }) && i < 64 {
                mask |= 1u64 << i;
            }
        }
        mask
    }
}

/// What [`Executor::survey`] found at the current decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurveyStatus {
    /// At least one process is schedulable; pick one and call
    /// [`Executor::tick`].
    Choose,
    /// Every workload operation has responded; the run is complete (the
    /// session result has been finalised).
    Complete,
    /// The tick limit was reached with work remaining (the session result has
    /// been finalised with `completed = false`).
    Cutoff,
}

/// The execution engine. See the module documentation for the scheduling
/// model.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Maximum number of ticks before the execution is cut off.
    pub max_ticks: u64,
    /// Whether to record the full event trace.
    pub trace_mode: TraceMode,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            max_ticks: 1_000_000,
            trace_mode: TraceMode::Full,
        }
    }
}

impl Executor {
    /// An executor with the default tick limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tick limit.
    pub fn max_ticks(mut self, max_ticks: u64) -> Self {
        self.max_ticks = max_ticks;
        self
    }

    /// Sets the trace mode.
    pub fn trace_mode(mut self, trace_mode: TraceMode) -> Self {
        self.trace_mode = trace_mode;
        self
    }

    /// Runs the workload against the object under the given adversary,
    /// allocating a fresh session. For repeated runs prefer [`Self::run_in`].
    pub fn run<S, V, O>(
        &self,
        mem: &mut SharedMemory,
        object: &mut O,
        workload: &Workload<S, V>,
        adversary: &mut dyn Adversary,
    ) -> ExecutionResult<S, V>
    where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
        O: SimObject<S, V> + ?Sized,
    {
        let mut session = ExecSession::new();
        self.run_in(&mut session, mem, object, workload, adversary);
        session.into_result()
    }

    /// Runs the workload against the object under the given adversary,
    /// reusing the session's buffers. The result is left in
    /// [`ExecSession::result`].
    pub fn run_in<S, V, O>(
        &self,
        session: &mut ExecSession<S, V>,
        mem: &mut SharedMemory,
        object: &mut O,
        workload: &Workload<S, V>,
        adversary: &mut dyn Adversary,
    ) where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
        O: SimObject<S, V> + ?Sized,
    {
        self.begin(session, workload);
        while self.survey(session, mem, workload) == SurveyStatus::Choose {
            let view = SchedView {
                enabled: &session.enabled,
                in_progress: &session.in_progress,
                tick: session.result.decisions.len() as u64,
            };
            let mut chosen = adversary.next(&view);
            if !session.enabled.contains(&chosen) {
                chosen = session.enabled[0];
            }
            self.tick(session, mem, object, workload, chosen);
        }
    }

    /// Rewinds the session for a fresh run of `workload` (tick 0, no
    /// operations invoked). Follow with [`Self::survey`] / [`Self::tick`], or
    /// use [`Self::run_in`] for the adversary-driven loop.
    pub fn begin<S, V>(&self, session: &mut ExecSession<S, V>, workload: &Workload<S, V>)
    where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
    {
        session.rewind(workload.processes());
    }

    /// Computes the enabled set at the current decision point (readable via
    /// [`ExecSession::enabled`]). When the execution is over — every
    /// operation responded, or the tick limit was hit — finalises
    /// `session.result` and reports it.
    ///
    /// Two network refinements when `mem` has a network configured:
    /// operations reporting [`OpExecution::blocked`] are excluded from the
    /// enabled set (they cannot make progress until a delivery fills their
    /// inbox), and every occupied in-flight slot `s` contributes a
    /// *delivery pseudo-process* ([`StepKind::Deliver`]) — scheduling it
    /// delivers that message. If every live process is blocked and nothing
    /// is in flight, the enabled set is empty and the run completes with
    /// the blocked operations still open: a *wedged* execution, visible to
    /// checkers as a progress violation rather than a hang.
    pub fn survey<S, V>(
        &self,
        session: &mut ExecSession<S, V>,
        mem: &SharedMemory,
        workload: &Workload<S, V>,
    ) -> SurveyStatus
    where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
    {
        session.enabled.clear();
        session.in_progress.clear();
        let mut live = false;
        for (i, st) in session.states.iter().enumerate() {
            match st {
                ProcState::Idle { next_op } if *next_op < workload.ops[i].len() => {
                    live = true;
                    session.enabled.push(ProcessId(i));
                }
                ProcState::Running { exec, .. } => {
                    live = true;
                    if !exec.blocked(mem) {
                        session.enabled.push(ProcessId(i));
                    }
                    session.in_progress.push(ProcessId(i));
                }
                ProcState::Recovering { exec, op_index, .. } => {
                    live = true;
                    if exec.as_ref().is_none_or(|e| !e.blocked(mem)) {
                        session.enabled.push(ProcessId(i));
                    }
                    if op_index.is_some() {
                        session.in_progress.push(ProcessId(i));
                    }
                }
                _ => {}
            }
        }
        // Delivery transitions: only while some process is still live —
        // once every client is done or crashed, residual deliveries cannot
        // affect the observable history, so draining them would only
        // multiply equivalent schedules.
        if live {
            let (n, cap) = (workload.processes(), mem.net_cap());
            let mut occupied = mem.net_occupied();
            while occupied != 0 {
                let s = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                session.enabled.push(StepKind::Deliver(s).encode(n, cap));
            }
        }
        let tick = session.result.decisions.len() as u64;
        if session.enabled.is_empty() {
            session.result.completed = true;
            SurveyStatus::Complete
        } else if tick >= self.max_ticks {
            session.result.completed = false;
            SurveyStatus::Cutoff
        } else {
            SurveyStatus::Choose
        }
    }

    /// Executes one scheduling decision: invokes `chosen`'s next operation if
    /// it is idle, or lets its in-flight operation take at most one
    /// shared-memory step. `chosen` is a raw scheduled id (see
    /// [`crate::step`]) that the immediately preceding [`Self::survey`]
    /// admits ([`ExecSession::schedulable`]). A [`StepKind::Crash`] of `p` takes no
    /// shared-memory step and emits [`TickEmission::Crashed`]: after the
    /// tick `p` is `ProcState::Crashed` — never enabled again unless
    /// restarted, its in-flight operation (if any) pending. A
    /// [`StepKind::Deliver`] or [`StepKind::Drop`] delivers or drops the
    /// in-flight message in its slot — a network transition that charges no
    /// process counters and emits [`TickEmission::Delivered`] /
    /// [`TickEmission::Dropped`]. A [`StepKind::Restart`] of a crashed `p`
    /// makes it `ProcState::Recovering`, running the object's
    /// [`SimObject::recover`] routine (shared registers persist, volatile
    /// state is gone), and emits [`TickEmission::Restarted`]; the recovery's
    /// completion emits [`TickEmission::Recovered`] and the process resumes
    /// its remaining workload.
    pub fn tick<S, V, O>(
        &self,
        session: &mut ExecSession<S, V>,
        mem: &mut SharedMemory,
        object: &mut O,
        workload: &Workload<S, V>,
        chosen: ProcessId,
    ) where
        S: SequentialSpec,
        V: Clone + Eq + Hash + Debug,
        O: SimObject<S, V> + ?Sized,
    {
        let n = workload.processes();
        let cap = mem.net_cap();
        debug_assert!(
            session.schedulable(chosen, cap),
            "tick({chosen:?}) without a preceding survey enabling it \
             (enabled {:?}, path {:?})",
            session.enabled,
            session.result.decisions.chosen()
        );
        let full_trace = self.trace_mode == TraceMode::Full;
        let tick = session.result.decisions.len() as u64;
        session.result.decisions.push(chosen);
        session.last_emission = TickEmission::None;
        session.last_footprint = Footprint::Pure;
        let p = match StepKind::decode(chosen, n, cap) {
            StepKind::Step(p) => p,
            StepKind::Restart(p) => {
                // The crashed process comes back. Its volatile state (the
                // interrupted OpExecution) was already lost at the crash;
                // shared registers persist. The object's recovery routine
                // takes over — like `invoke`, `recover` itself must not take
                // shared-memory steps (it only allocates the routine).
                let ri = p.index();
                let (interrupted, next_op) = match &session.states[ri] {
                    ProcState::Crashed {
                        interrupted,
                        next_op,
                    } => (*interrupted, *next_op),
                    _ => unreachable!("restart of a process that is not crashed"),
                };
                let steps_before = mem.global_steps();
                let exec = {
                    let req = interrupted.map(|oi| &session.result.ops[oi].req);
                    object.recover(mem, p, req)
                };
                debug_assert_eq!(
                    mem.global_steps(),
                    steps_before,
                    "SimObject::recover must not take shared-memory steps \
                     (allocate lazily, access in OpExecution::step)"
                );
                session.set_state(
                    ri,
                    ProcState::Recovering {
                        exec,
                        op_index: interrupted,
                        next_op,
                    },
                );
                session.result.restarted |= 1u64 << ri;
                session.last_emission = TickEmission::Restarted {
                    op_index: interrupted,
                };
                return;
            }
            // Network transitions: deliver or drop the message in one
            // in-flight slot. Not a process step — no counters are charged;
            // the footprint comes from the network layer (inbox / replica /
            // slot-buffer registers) so the partial-order reduction sees
            // honest conflicts.
            StepKind::Deliver(slot) => {
                let (owner, fp) = mem.net_deliver(slot);
                session.last_emission = TickEmission::Delivered { slot, owner };
                session.last_footprint = fp;
                return;
            }
            StepKind::Drop(slot) => {
                let (owner, fp) = mem.net_drop(slot);
                session.last_emission = TickEmission::Dropped { slot, owner };
                session.last_footprint = fp;
                return;
            }
            StepKind::Crash(p) => {
                // The crashed process drops out of the enabled set until
                // (and unless) a restart is scheduled; its in-flight
                // operation stays open in the history sense (no response is
                // ever recorded unless a later recovery resolves it) but
                // stops participating in metrics charging. A crash may also
                // hit a process mid-recovery: the recovery routine is lost
                // and the original interrupted operation stays unresolved.
                let ri = p.index();
                let (op_index, next_op) = match &session.states[ri] {
                    ProcState::Running {
                        metrics_idx,
                        op_cursor,
                        ..
                    } => (Some(*metrics_idx), *op_cursor + 1),
                    ProcState::Idle { next_op } => (None, *next_op),
                    ProcState::Recovering {
                        op_index, next_op, ..
                    } => (*op_index, *next_op),
                    // Done / already-crashed processes are never enabled, so
                    // a crash step cannot reach them (debug-asserted above).
                    ProcState::Done | ProcState::Crashed { .. } => (None, workload.ops[ri].len()),
                };
                session.set_state(
                    ri,
                    ProcState::Crashed {
                        interrupted: op_index,
                        next_op,
                    },
                );
                session.result.crashed |= 1u64 << ri;
                session.last_emission = TickEmission::Crashed { op_index };
                return;
            }
        };
        let pi = p.index();
        match &session.states[pi] {
            ProcState::Idle { next_op } => {
                let cursor = *next_op;
                let (op, switch) = workload.ops[pi][cursor].clone();
                let req = Request::<S> {
                    id: request_id(p, cursor),
                    proc: p,
                    op,
                };
                if full_trace {
                    match &switch {
                        Some(v) => session.result.trace.record_init(req.clone(), v.clone()),
                        None => session.result.trace.record_invoke(req.clone()),
                    }
                }
                mem.begin_op(p);
                let steps_before_invoke = mem.global_steps();
                let exec = object.invoke(mem, req.clone(), switch);
                debug_assert_eq!(
                    mem.global_steps(),
                    steps_before_invoke,
                    "SimObject::invoke must not take shared-memory steps \
                     (allocate lazily, access in OpExecution::step)"
                );
                let metrics_idx = session.result.metrics.ops.len();
                // Register overlaps with the operations running now.
                let ops = &mut session.result.metrics.ops;
                let mut overlaps = 0;
                for st in &session.states {
                    if let ProcState::Running {
                        metrics_idx: oi, ..
                    } = st
                    {
                        session.op_log.touch(session.epoch, ops, *oi);
                        ops[*oi].overlapping_ops += 1;
                        overlaps += 1;
                    }
                }
                ops.push(OpMetrics {
                    req_id: req.id,
                    proc: p,
                    invoke_tick: tick,
                    response_tick: None,
                    steps: 0,
                    fences: 0,
                    rmws: 0,
                    foreign_steps: 0,
                    overlapping_ops: overlaps,
                    aborted: false,
                });
                session.op_log.stamps.push(session.epoch);
                session.result.ops.push(OpRecord { req, outcome: None });
                session.last_emission = TickEmission::Invoked {
                    op_index: metrics_idx,
                };
                session.set_state(
                    pi,
                    ProcState::Running {
                        exec,
                        metrics_idx,
                        op_cursor: cursor,
                    },
                );
            }
            ProcState::Running { .. } => {
                session.touch_state(pi);
                let ProcState::Running {
                    exec,
                    metrics_idx,
                    op_cursor,
                } = &mut session.states[pi]
                else {
                    unreachable!("matched as running above")
                };
                let midx = *metrics_idx;
                let cursor = *op_cursor;
                let before = mem.counters(p);
                let outcome = exec.step(mem);
                let after = mem.counters(p);
                let dsteps = after.steps - before.steps;
                session.last_footprint = match dsteps {
                    0 => Footprint::Pure,
                    1 => mem.last_footprint(),
                    // An operation taking several steps per tick violates
                    // the one-step contract; label conservatively.
                    _ => Footprint::Unknown,
                };
                let ops = &mut session.result.metrics.ops;
                session.op_log.touch(session.epoch, ops, midx);
                ops[midx].steps += dsteps;
                ops[midx].fences += after.fences - before.fences;
                ops[midx].rmws += after.rmws - before.rmws;
                if dsteps > 0 {
                    session.charge_foreign_steps(pi, dsteps);
                }
                if let StepOutcome::Done(outcome) = outcome {
                    let metrics = &mut session.result.metrics.ops[midx];
                    let req_id = metrics.req_id;
                    metrics.response_tick = Some(tick);
                    let aborted = match &outcome {
                        OpOutcome::Commit(resp) => {
                            if full_trace {
                                session.result.trace.record_commit(p, req_id, resp.clone());
                            }
                            false
                        }
                        OpOutcome::Abort(v) => {
                            if full_trace {
                                session.result.trace.record_abort(p, req_id, v.clone());
                            }
                            true
                        }
                    };
                    metrics.aborted = aborted;
                    session.result.ops[midx].outcome = Some(outcome);
                    session.last_emission = if aborted {
                        TickEmission::Aborted { op_index: midx }
                    } else {
                        TickEmission::Committed { op_index: midx }
                    };
                    // An aborted process stops (its remaining workload is
                    // dropped): in the composition model it would switch to
                    // the next module rather than retry.
                    let next = if aborted || cursor + 1 >= workload.ops[pi].len() {
                        ProcState::Done
                    } else {
                        ProcState::Idle {
                            next_op: cursor + 1,
                        }
                    };
                    session.set_state(pi, next);
                }
            }
            ProcState::Recovering {
                exec,
                op_index,
                next_op,
            } => {
                let oi = *op_index;
                let resume_at = *next_op;
                let finished = if exec.is_none() {
                    // Trivial recovery: completes immediately, resolving
                    // nothing.
                    Some(None)
                } else {
                    session.touch_state(pi);
                    let ProcState::Recovering { exec: Some(e), .. } = &mut session.states[pi]
                    else {
                        unreachable!("matched as a recovery routine above")
                    };
                    let before = mem.counters(p);
                    let outcome = e.step(mem);
                    let after = mem.counters(p);
                    let dsteps = after.steps - before.steps;
                    session.last_footprint = match dsteps {
                        0 => Footprint::Pure,
                        1 => mem.last_footprint(),
                        _ => Footprint::Unknown,
                    };
                    // Recovery steps are not charged to the interrupted
                    // operation (its metrics froze at the crash), but they
                    // are still foreign steps for everyone else.
                    if dsteps > 0 {
                        session.charge_foreign_steps(pi, dsteps);
                    }
                    match outcome {
                        StepOutcome::Done(out) => Some(Some(out)),
                        _ => None,
                    }
                };
                if let Some(outcome) = finished {
                    let resolved = match (outcome, oi) {
                        (Some(OpOutcome::Commit(resp)), Some(midx)) => {
                            // Late commit: the recovery resolved the
                            // interrupted operation.
                            let ops = &mut session.result.metrics.ops;
                            session.op_log.touch(session.epoch, ops, midx);
                            let req_id = ops[midx].req_id;
                            ops[midx].response_tick = Some(tick);
                            if full_trace {
                                session.result.trace.record_commit(p, req_id, resp.clone());
                            }
                            session.result.ops[midx].outcome = Some(OpOutcome::Commit(resp));
                            true
                        }
                        // An aborting recovery abandons the interrupted
                        // operation (it stays pending forever); a committing
                        // recovery with nothing interrupted discards the
                        // response.
                        _ => false,
                    };
                    session.last_emission = TickEmission::Recovered {
                        op_index: oi,
                        resolved,
                    };
                    let next = if resume_at < workload.ops[pi].len() {
                        ProcState::Idle { next_op: resume_at }
                    } else {
                        ProcState::Done
                    };
                    session.set_state(pi, next);
                }
            }
            ProcState::Done | ProcState::Crashed { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RoundRobinAdversary, ScriptedAdversary, SoloAdversary};
    use crate::machine::{ImmediateOutcome, OpExecution, OpOutcome, SimObject, StepOutcome};
    use crate::memory::RegId;
    use crate::value::Value;
    use scl_spec::{check_linearizable, TasOp, TasResp, TasSpec, TasSwitch};

    /// A register-swap test-and-set used to exercise the executor plumbing.
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
    }

    impl SimObject<TasSpec, TasSwitch> for SwapTas {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            req: Request<TasSpec>,
            switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            if switch == Some(TasSwitch::L) {
                return Box::new(ImmediateOutcome::new(OpOutcome::Commit(TasResp::Loser)));
            }
            Box::new(SwapTasOp {
                flag: self.flag,
                proc: req.proc,
            })
        }
    }

    #[test]
    fn solo_execution_is_sequential_and_linearizable() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut obj, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.trace.check_well_formed(), Ok(()));
        assert_eq!(res.metrics.committed_count(), 3);
        // No interval or step contention under the solo adversary.
        for op in &res.metrics.ops {
            assert!(op.interval_contention_free());
            assert!(op.step_contention_free());
            assert_eq!(op.steps, 1);
        }
        let lin = check_linearizable(&TasSpec, &res.trace.commit_projection());
        assert!(lin.is_linearizable());
    }

    #[test]
    fn round_robin_creates_step_contention_but_stays_linearizable() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut obj, &wl, &mut RoundRobinAdversary::default());
        assert!(res.completed);
        // Exactly one winner.
        let winners = res
            .trace
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1);
        let lin = check_linearizable(&TasSpec, &res.trace.commit_projection());
        assert!(lin.is_linearizable());
        // At least one operation observed a foreign step.
        assert!(res.metrics.ops.iter().any(|o| !o.step_contention_free()));
    }

    #[test]
    fn invoke_all_then_sequential_gives_interval_but_not_step_contention() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let res = Executor::new().run(
            &mut mem,
            &mut obj,
            &wl,
            &mut crate::adversary::InvokeAllThenSequential,
        );
        assert!(res.completed);
        // Every operation overlaps with the others (interval contention),
        // and the first operation to run (process 0's) completes without any
        // other process taking a step during its interval.
        for op in &res.metrics.ops {
            assert!(!op.interval_contention_free());
        }
        let p0 = res
            .metrics
            .ops
            .iter()
            .find(|o| o.proc == ProcessId(0))
            .unwrap();
        assert!(p0.step_contention_free());
        // Later operations do observe foreign steps.
        let p2 = res
            .metrics
            .ops
            .iter()
            .find(|o| o.proc == ProcessId(2))
            .unwrap();
        assert!(!p2.step_contention_free());
    }

    #[test]
    fn workload_with_switch_values_uses_init_events() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload {
            ops: vec![
                vec![(TasOp::TestAndSet, Some(TasSwitch::W))],
                vec![(TasOp::TestAndSet, Some(TasSwitch::L))],
            ],
        };
        let res = Executor::new().run(&mut mem, &mut obj, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.trace.init_tokens().len(), 2);
        // The L process lost without taking any shared-memory step.
        let l_op = res
            .metrics
            .ops
            .iter()
            .find(|o| o.proc == ProcessId(1))
            .unwrap();
        assert_eq!(l_op.steps, 0);
    }

    #[test]
    fn decisions_record_one_entry_per_tick() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut obj, &wl, &mut SoloAdversary);
        // 2 invocations + 2 steps = 4 ticks, each process chosen twice.
        assert_eq!(res.decisions.len(), 4);
        for (i, &p) in res.decisions.chosen().iter().enumerate() {
            assert_eq!(p, res.decisions.chosen_at(i));
            assert_eq!(
                res.decisions.chosen().iter().filter(|&&q| q == p).count(),
                2
            );
        }
    }

    #[test]
    fn tick_limit_stops_execution() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::uniform(2, TasOp::TestAndSet, 10);
        let res = Executor::new()
            .max_ticks(3)
            .run(&mut mem, &mut obj, &wl, &mut SoloAdversary);
        assert!(!res.completed);
        assert_eq!(res.decisions.len(), 3);
    }

    #[test]
    fn workload_helpers() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::uniform(3, TasOp::TestAndSet, 2);
        assert_eq!(wl.processes(), 3);
        assert_eq!(wl.total_ops(), 6);
        let wl2: Workload<TasSpec, TasSwitch> =
            Workload::from_ops(vec![vec![TasOp::TestAndSet], vec![]]);
        assert_eq!(wl2.processes(), 2);
        assert_eq!(wl2.total_ops(), 1);
    }

    #[test]
    fn metrics_only_mode_skips_the_trace_but_not_the_metrics() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let res = Executor::new().trace_mode(TraceMode::MetricsOnly).run(
            &mut mem,
            &mut obj,
            &wl,
            &mut SoloAdversary,
        );
        assert!(res.completed);
        assert!(res.trace.is_empty());
        assert_eq!(res.metrics.committed_count(), 3);
        assert_eq!(res.ops.len(), 3);
        assert_eq!(res.decisions.len(), 6);
        // Op records still carry the outcomes.
        let winners = res
            .ops
            .iter()
            .filter(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn crash_step_freezes_the_process_and_keeps_its_op_pending() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let executor = Executor::new();
        let mut session: ExecSession<TasSpec, TasSwitch> = ExecSession::new();
        executor.begin(&mut session, &wl);
        // p0 invokes, then crashes mid-op (pseudo-process id n + 0 = 2).
        assert_eq!(
            executor.survey(&mut session, &mem, &wl),
            SurveyStatus::Choose
        );
        executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(0));
        assert_eq!(
            executor.survey(&mut session, &mem, &wl),
            SurveyStatus::Choose
        );
        executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(2));
        assert_eq!(
            session.last_emission(),
            TickEmission::Crashed { op_index: Some(0) }
        );
        // p0 is never enabled again; p1 runs to completion and wins (p0
        // crashed before its swap took effect).
        while executor.survey(&mut session, &mem, &wl) == SurveyStatus::Choose {
            assert_eq!(session.enabled(), &[ProcessId(1)]);
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(1));
        }
        let res = session.result();
        assert!(res.completed);
        assert!(res.is_crashed(ProcessId(0)));
        assert!(!res.is_crashed(ProcessId(1)));
        assert_eq!(res.crash_count(), 1);
        assert_eq!(res.ops[0].outcome, None);
        assert!(matches!(
            res.ops[1].outcome,
            Some(OpOutcome::Commit(TasResp::Winner))
        ));
    }

    #[test]
    fn crash_of_an_idle_process_drops_its_remaining_workload() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let executor = Executor::new();
        let mut session: ExecSession<TasSpec, TasSwitch> = ExecSession::new();
        executor.begin(&mut session, &wl);
        assert_eq!(
            executor.survey(&mut session, &mem, &wl),
            SurveyStatus::Choose
        );
        // Crash p1 before it ever invokes: no operation record exists.
        executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(3));
        assert_eq!(
            session.last_emission(),
            TickEmission::Crashed { op_index: None }
        );
        while executor.survey(&mut session, &mem, &wl) == SurveyStatus::Choose {
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(0));
        }
        let res = session.result();
        assert!(res.completed);
        assert!(res.is_crashed(ProcessId(1)));
        assert_eq!(res.ops.len(), 1);
        assert!(matches!(
            res.ops[0].outcome,
            Some(OpOutcome::Commit(TasResp::Winner))
        ));
    }

    /// A swap-based TAS whose recovery routine re-derives the interrupted
    /// operation's response: if the flag is still clear the recovery claims
    /// it (the crashed op takes effect during recovery), otherwise the op
    /// is resolved as a loser.
    struct RecoverSwapTas {
        flag: RegId,
    }

    struct RecoverSwapTasRecovery {
        flag: RegId,
        proc: ProcessId,
    }

    impl OpExecution<TasSpec, TasSwitch> for RecoverSwapTasRecovery {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
            let prev = mem.swap(self.proc, self.flag, Value::TRUE);
            StepOutcome::Done(OpOutcome::Commit(if prev.as_bool() {
                TasResp::Loser
            } else {
                TasResp::Winner
            }))
        }
    }

    impl SimObject<TasSpec, TasSwitch> for RecoverSwapTas {
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

        fn recover(
            &mut self,
            _mem: &mut SharedMemory,
            proc: ProcessId,
            interrupted: Option<&Request<TasSpec>>,
        ) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
            interrupted.map(|_| {
                Box::new(RecoverSwapTasRecovery {
                    flag: self.flag,
                    proc,
                }) as Box<dyn OpExecution<TasSpec, TasSwitch>>
            })
        }
    }

    #[test]
    fn restart_runs_recovery_and_resolves_the_interrupted_op() {
        let mut mem = SharedMemory::new();
        let flag = mem.alloc("flag", Value::FALSE);
        let mut obj = RecoverSwapTas { flag };
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let executor = Executor::new();
        let mut session: ExecSession<TasSpec, TasSwitch> = ExecSession::new();
        executor.begin(&mut session, &wl);
        // p0 invokes, crashes before its swap, then restarts (pseudo-process
        // id 2n + 2cap + 0 = 4 for n = 2, cap = 0).
        for id in [0usize, 2, 4] {
            assert_eq!(
                executor.survey(&mut session, &mem, &wl),
                SurveyStatus::Choose
            );
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(id));
        }
        assert_eq!(
            session.last_emission(),
            TickEmission::Restarted { op_index: Some(0) }
        );
        assert_eq!(session.crashed_now(), 0);
        // The recovery's single step claims the flag and resolves the op.
        assert_eq!(
            executor.survey(&mut session, &mem, &wl),
            SurveyStatus::Choose
        );
        assert!(session.enabled().contains(&ProcessId(0)));
        executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(0));
        assert_eq!(
            session.last_emission(),
            TickEmission::Recovered {
                op_index: Some(0),
                resolved: true
            }
        );
        while executor.survey(&mut session, &mem, &wl) == SurveyStatus::Choose {
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(1));
        }
        let res = session.result();
        assert!(res.completed);
        assert!(res.is_crashed(ProcessId(0)));
        assert!(res.is_restarted(ProcessId(0)));
        assert_eq!(res.restart_count(), 1);
        assert!(matches!(
            res.ops[0].outcome,
            Some(OpOutcome::Commit(TasResp::Winner))
        ));
        assert!(matches!(
            res.ops[1].outcome,
            Some(OpOutcome::Commit(TasResp::Loser))
        ));
        let lin = check_linearizable(&TasSpec, &res.trace.commit_projection());
        assert!(lin.is_linearizable());
    }

    #[test]
    fn trivial_recovery_abandons_the_interrupted_op() {
        let mut mem = SharedMemory::new();
        let mut obj = SwapTas::new(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let executor = Executor::new();
        let mut session: ExecSession<TasSpec, TasSwitch> = ExecSession::new();
        executor.begin(&mut session, &wl);
        // p0 invokes, crashes, restarts; SwapTas has no recovery routine, so
        // the restart installs the trivial recovery.
        for id in [0usize, 2, 4] {
            assert_eq!(
                executor.survey(&mut session, &mem, &wl),
                SurveyStatus::Choose
            );
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(id));
        }
        // Its single recovery tick completes without resolving the op.
        assert_eq!(
            executor.survey(&mut session, &mem, &wl),
            SurveyStatus::Choose
        );
        executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(0));
        assert_eq!(
            session.last_emission(),
            TickEmission::Recovered {
                op_index: Some(0),
                resolved: false
            }
        );
        while executor.survey(&mut session, &mem, &wl) == SurveyStatus::Choose {
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(1));
        }
        let res = session.result();
        assert!(res.completed);
        // The abandoned op stays pending; p1 wins (p0's swap never ran).
        assert_eq!(res.ops[0].outcome, None);
        assert!(matches!(
            res.ops[1].outcome,
            Some(OpOutcome::Commit(TasResp::Winner))
        ));
        assert!(res.is_restarted(ProcessId(0)));
    }

    #[test]
    fn crash_during_recovery_keeps_the_op_interrupted() {
        let mut mem = SharedMemory::new();
        let flag = mem.alloc("flag", Value::FALSE);
        let mut obj = RecoverSwapTas { flag };
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let executor = Executor::new();
        let mut session: ExecSession<TasSpec, TasSwitch> = ExecSession::new();
        executor.begin(&mut session, &wl);
        // p0 invokes, crashes, restarts, then crashes again mid-recovery.
        for id in [0usize, 2, 4, 2] {
            assert_eq!(
                executor.survey(&mut session, &mem, &wl),
                SurveyStatus::Choose
            );
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(id));
        }
        assert_eq!(
            session.last_emission(),
            TickEmission::Crashed { op_index: Some(0) }
        );
        assert_eq!(session.crashed_now(), 0b01);
        while executor.survey(&mut session, &mem, &wl) == SurveyStatus::Choose {
            executor.tick(&mut session, &mut mem, &mut obj, &wl, ProcessId(1));
        }
        let res = session.result();
        assert!(res.completed);
        // The re-crash killed the recovery: the op is never resolved.
        assert_eq!(res.ops[0].outcome, None);
        assert!(res.is_restarted(ProcessId(0)));
        assert!(matches!(
            res.ops[1].outcome,
            Some(OpOutcome::Commit(TasResp::Winner))
        ));
    }

    #[test]
    fn session_reuse_replays_identically_after_reset() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
        let schedule = vec![ProcessId(1), ProcessId(0), ProcessId(1), ProcessId(2)];
        let executor = Executor::new();

        // Reference run in a fresh memory + session.
        let mut mem1 = SharedMemory::new();
        let mut obj1 = SwapTas::new(&mut mem1);
        let res1 = executor.run(
            &mut mem1,
            &mut obj1,
            &wl,
            &mut ScriptedAdversary::new(schedule.clone()),
        );

        // Warm a session on an unrelated schedule, reset, replay.
        let mut mem2 = SharedMemory::new();
        let mut session = ExecSession::new();
        let mut obj2 = SwapTas::new(&mut mem2);
        executor.run_in(&mut session, &mut mem2, &mut obj2, &wl, &mut SoloAdversary);
        mem2.reset();
        let mut obj2 = SwapTas::new(&mut mem2);
        executor.run_in(
            &mut session,
            &mut mem2,
            &mut obj2,
            &wl,
            &mut ScriptedAdversary::new(schedule.clone()),
        );
        let res2 = session.result();

        assert_eq!(res1.trace, res2.trace);
        assert_eq!(res1.metrics, res2.metrics);
        assert_eq!(res1.decisions, res2.decisions);
        assert_eq!(res1.ops, res2.ops);
        assert_eq!(mem1.global_steps(), mem2.global_steps());
        assert_eq!(mem1.audit(), mem2.audit());
    }
}
