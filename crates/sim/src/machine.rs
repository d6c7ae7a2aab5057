//! Step machines: algorithms expressed one shared-memory step at a time.
//!
//! An algorithm implementing an object is written as a [`SimObject`]: shared
//! registers are allocated when the object is created, and every invocation
//! produces an [`OpExecution`] — a small explicit state machine whose
//! [`OpExecution::step`] method performs *at most one* shared-memory step per
//! call. The executor interleaves executions of different processes by
//! choosing which one steps next, which is exactly the adversarial scheduler
//! of the paper's model.

use crate::memory::{Footprint, SharedMemory};
use scl_spec::{History, Request, SequentialSpec};
use std::any::Any;

/// An opaque snapshot of a [`SimObject`]'s *private* state — everything the
/// object keeps outside the simulated [`SharedMemory`] (switch counters,
/// lazily allocated sub-objects, request tables, …).
///
/// Snapshots are produced by [`SimObject::snapshot`] and consumed by
/// [`SimObject::restore`]; the schedule explorer pairs them with a
/// [`crate::memory::MemMark`] and a [`crate::executor::SessionMark`] to
/// rewind a whole execution to an earlier decision point. Objects whose entire state lives in shared
/// registers use [`ObjectSnapshot::stateless`].
pub struct ObjectSnapshot(Box<dyn Any>);

impl ObjectSnapshot {
    /// Wraps an arbitrary state value.
    pub fn new<T: Any>(state: T) -> Self {
        ObjectSnapshot(Box::new(state))
    }

    /// The snapshot of an object with no private state.
    pub fn stateless() -> Self {
        Self::new(())
    }

    /// Recovers the wrapped state. Panics if the snapshot was produced by a
    /// different object type — snapshots must only be fed back to the object
    /// (type) that produced them.
    pub fn downcast<T: Any>(&self) -> &T {
        self.0
            .downcast_ref::<T>()
            .expect("ObjectSnapshot restored into a different object type")
    }
}

/// The final outcome of an operation execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome<S: SequentialSpec, V> {
    /// The operation commits with a response of the implemented object.
    Commit(S::Resp),
    /// The operation aborts with a switch value, to be used to initialise
    /// the next module of a composition.
    Abort(V),
}

impl<S: SequentialSpec, V> OpOutcome<S, V> {
    /// Whether the outcome is a commit.
    pub fn is_commit(&self) -> bool {
        matches!(self, OpOutcome::Commit(_))
    }
}

/// The result of one scheduling step of an operation execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome<S: SequentialSpec, V> {
    /// The operation has not finished; schedule it again to continue.
    Continue,
    /// The operation finished with the given outcome.
    Done(OpOutcome<S, V>),
}

/// An operation in progress: an explicit state machine performing at most
/// one shared-memory step per call.
pub trait OpExecution<S: SequentialSpec, V> {
    /// Performs at most one shared-memory step. Purely local transitions may
    /// finish an operation without touching shared memory (they still
    /// consume a scheduling slot, but no shared-memory step is counted).
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<S, V>;

    /// Duplicates the in-flight operation state so the schedule explorer can
    /// checkpoint an execution mid-operation and later resume it.
    ///
    /// Returning `None` (the default) opts out: explorations fall back to
    /// replaying the schedule prefix from the start, which is always correct,
    /// just slower. Implementations must produce an execution that behaves
    /// exactly like `self` would from this point on; state shared with the
    /// owning [`SimObject`] (e.g. through `Rc` cells) may — and should — stay
    /// shared, because [`SimObject::restore`] rewinds it in place.
    ///
    /// The explorer may fork after the checkpoint it serves, right before
    /// the operation's next step (other operations may have moved in
    /// between), and may fork the same state more than once. So whether
    /// `fork` succeeds, and what it copies, must depend only on the
    /// operation's own state.
    fn fork(&self) -> Option<Box<dyn OpExecution<S, V>>> {
        None
    }

    /// The shared-memory access the *next* [`Self::step`] call would perform,
    /// used by the sleep-set partial-order reduction to decide which pending
    /// transitions commute.
    ///
    /// Must be a function of the operation's local state only (it must not
    /// depend on current register values: the explorer queries it for
    /// processes that have not moved while memory changed around them). The
    /// default, [`Footprint::Unknown`], is always sound — it is treated as
    /// dependent with everything and simply yields no reduction for this
    /// object.
    fn next_footprint(&self) -> Footprint {
        Footprint::Unknown
    }

    /// Whether the *next* [`Self::step`] call could finish the operation
    /// (return [`StepOutcome::Done`]) — i.e. whether the next scheduling of
    /// this operation may emit a commit or abort event.
    ///
    /// Used by the sleep-set wake rule of the linearizability-preserving
    /// reduction ([`crate::Reduction::SourceDporLinPreserving`]): reordering
    /// a response past another process's invocation changes the real-time
    /// precedence of the invoke/commit projection, so a sleeping step that
    /// may respond must wake when another process invokes. (Race detection
    /// sees whether an executed step actually responded and does not need
    /// this hook.) Like [`Self::next_footprint`] this must be a
    /// function of local state only, and it must *over*-approximate: answer
    /// `true` whenever completion is possible. The default (`true`) is
    /// always sound and merely costs reduction.
    fn may_respond_next(&self) -> bool {
        true
    }

    /// Whether this operation is *blocked*: its next step cannot make
    /// progress until the environment changes (typically a message-passing
    /// client waiting on an empty inbox — see
    /// [`SharedMemory::net_recv`](crate::memory::SharedMemory::net_recv)).
    ///
    /// A blocked operation is excluded from the enabled set, so the
    /// scheduler never burns steps busy-polling and the explorer never
    /// branches on them; it becomes schedulable again as soon as `blocked`
    /// returns `false` (e.g. a delivery transition filled the inbox).
    ///
    /// Contract: a blocked operation is unblocked only by a write to the
    /// register its next step reads (its [`Self::next_footprint`] is a
    /// `Read` of that register, such as the inbox lane of a
    /// [`SharedMemory::net_recv`](crate::memory::SharedMemory::net_recv)),
    /// never by any other transition. Source DPOR relies on this to
    /// recognise the delivery that unblocked an operation as the enabler of
    /// its next step, not a race to reverse. If
    /// every live process is blocked and nothing remains in flight, the
    /// execution completes with the blocked operations still open — which
    /// checkers report as a progress violation (a *wedged* run), not a hang.
    ///
    /// Unlike [`Self::next_footprint`], this may read the shared state (it
    /// is a pure query, called between transitions, never counted as a
    /// step). The default (`false`) means "never blocks".
    fn blocked(&self, mem: &SharedMemory) -> bool {
        let _ = mem;
        false
    }
}

/// An object implementation whose operations are driven step-by-step by the
/// executor.
///
/// The switch-value parameter `V` is the composition interface of §5: a
/// `None` switch means a plain `(invoke, m)`; `Some(v)` means `(init, m, v)`.
pub trait SimObject<S: SequentialSpec, V> {
    /// Starts executing request `req`, optionally initialised with a switch
    /// value. Shared registers needed lazily may be allocated here (not
    /// counted as steps), but the invocation must not *access* shared memory
    /// — every read/write/RMW belongs in [`OpExecution::step`]. The executor
    /// debug-asserts this, and the sleep-set reduction relies on it
    /// (invocations are treated as commuting with every memory step).
    fn invoke(
        &mut self,
        mem: &mut SharedMemory,
        req: Request<S>,
        switch: Option<V>,
    ) -> Box<dyn OpExecution<S, V>>;

    /// A short human-readable name used in reports.
    fn name(&self) -> &'static str {
        "object"
    }

    /// Builds the recovery routine a restarted process runs before resuming
    /// its workload. `interrupted` is the request that was in flight when
    /// `proc` crashed (`None` when it crashed between operations).
    ///
    /// Like [`Self::invoke`], `recover` must not access shared memory — it
    /// only allocates the routine; every step belongs in
    /// [`OpExecution::step`] (the executor debug-asserts this). The routine
    /// runs as the restarted process's first activity: finishing with
    /// [`OpOutcome::Commit`] *resolves* the interrupted operation with that
    /// late response, finishing with [`OpOutcome::Abort`] *abandons* it (the
    /// operation stays pending forever — the witness separating the
    /// `durable` and `recoverable` crashed-pending closures). Returning
    /// `None` (the default) is the trivial recovery: the process resumes
    /// its workload after one recovery tick without resolving anything.
    fn recover(
        &mut self,
        mem: &mut SharedMemory,
        proc: scl_spec::ProcessId,
        interrupted: Option<&Request<S>>,
    ) -> Option<Box<dyn OpExecution<S, V>>> {
        let _ = (mem, proc, interrupted);
        None
    }

    /// Captures the object's private (non-shared-memory) state for the
    /// explorer's prefix-resume backtracking.
    ///
    /// Returning `None` (the default) opts out of snapshotting; explorations
    /// then rebuild the object and replay the prefix instead. Objects whose
    /// whole state lives in shared registers return
    /// `Some(ObjectSnapshot::stateless())`.
    fn snapshot(&self) -> Option<ObjectSnapshot> {
        None
    }

    /// Restores the state captured by [`Self::snapshot`]. Must rewind shared
    /// interior state (e.g. `Rc<RefCell<…>>` / `Rc<Cell<…>>`) *in place*, so
    /// that in-flight [`OpExecution`]s holding clones of the object observe
    /// the restored state too. Only called with snapshots this object (or a
    /// clone sharing its state) produced.
    fn restore(&mut self, snap: &ObjectSnapshot) {
        let _ = snap;
    }
}

/// Switch values of generic (history-carrying) compositions: the universal
/// construction aborts with a history of requests.
pub type HistorySwitch<S> = History<S>;

/// An [`OpExecution`] that finishes immediately with a fixed outcome, taking
/// no shared-memory steps. Useful for purely local fast paths (e.g. module
/// A2 returning `loser` to processes entering with switch value `L`).
pub struct ImmediateOutcome<S: SequentialSpec, V> {
    outcome: Option<OpOutcome<S, V>>,
}

impl<S: SequentialSpec, V> ImmediateOutcome<S, V> {
    /// Creates an execution that finishes with `outcome` on its first step.
    pub fn new(outcome: OpOutcome<S, V>) -> Self {
        ImmediateOutcome {
            outcome: Some(outcome),
        }
    }
}

impl<S: SequentialSpec + 'static, V: Clone + 'static> OpExecution<S, V> for ImmediateOutcome<S, V> {
    fn step(&mut self, _mem: &mut SharedMemory) -> StepOutcome<S, V> {
        match self.outcome.take() {
            Some(o) => StepOutcome::Done(o),
            None => StepOutcome::Continue,
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<S, V>>> {
        Some(Box::new(ImmediateOutcome {
            outcome: self.outcome.clone(),
        }))
    }

    fn next_footprint(&self) -> Footprint {
        Footprint::Pure
    }

    fn may_respond_next(&self) -> bool {
        // The first step responds; the (unreachable) later steps do not.
        self.outcome.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use scl_spec::{ProcessId, TasResp, TasSpec, TasSwitch};

    #[test]
    fn immediate_outcome_finishes_without_steps() {
        let mut mem = SharedMemory::new();
        let mut e: ImmediateOutcome<TasSpec, TasSwitch> =
            ImmediateOutcome::new(OpOutcome::Commit(TasResp::Loser));
        match e.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Loser)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.global_steps(), 0);
    }

    #[test]
    fn op_outcome_is_commit() {
        let c: OpOutcome<TasSpec, TasSwitch> = OpOutcome::Commit(TasResp::Winner);
        let a: OpOutcome<TasSpec, TasSwitch> = OpOutcome::Abort(TasSwitch::W);
        assert!(c.is_commit());
        assert!(!a.is_commit());
    }

    /// A tiny hand-written SimObject used to validate the trait plumbing: a
    /// register-based "sticky flag" where the first test-and-set-like op to
    /// swap the flag wins.
    struct StickyFlag {
        flag: crate::memory::RegId,
    }

    struct StickyOp {
        flag: crate::memory::RegId,
        proc: ProcessId,
        done: bool,
    }

    impl OpExecution<TasSpec, TasSwitch> for StickyOp {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
            if self.done {
                return StepOutcome::Continue;
            }
            self.done = true;
            let prev = mem.swap(self.proc, self.flag, Value::TRUE);
            if prev.as_bool() {
                StepOutcome::Done(OpOutcome::Commit(TasResp::Loser))
            } else {
                StepOutcome::Done(OpOutcome::Commit(TasResp::Winner))
            }
        }
    }

    impl SimObject<TasSpec, TasSwitch> for StickyFlag {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            req: Request<TasSpec>,
            _switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            Box::new(StickyOp {
                flag: self.flag,
                proc: req.proc,
                done: false,
            })
        }
    }

    #[test]
    fn hand_written_object_works_step_by_step() {
        let mut mem = SharedMemory::new();
        let flag = mem.alloc("flag", Value::FALSE);
        let mut obj = StickyFlag { flag };
        let r1: Request<TasSpec> = Request::new(1u64, 0usize, scl_spec::TasOp::TestAndSet);
        let r2: Request<TasSpec> = Request::new(2u64, 1usize, scl_spec::TasOp::TestAndSet);
        let mut e1 = obj.invoke(&mut mem, r1, None);
        let mut e2 = obj.invoke(&mut mem, r2, None);
        match e1.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Winner)) => {}
            other => panic!("unexpected {other:?}"),
        }
        match e2.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Loser)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mem.global_steps(), 2);
    }
}
