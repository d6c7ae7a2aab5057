//! The composable universal construction (§4) and the consensus reduction of
//! Proposition 2.
//!
//! [`UniversalConstruction`] follows §4.2: processes agree on the order of
//! requests through a vector `Cons` of (abortable) consensus instances,
//! maintain a shared counter `C` of committed requests and an `Aborted`
//! flag. While consensus commits, the construction behaves exactly like
//! Herlihy's classic universal construction; when a consensus instance
//! aborts (or `Aborted` is observed), the process sets `Aborted`, reads the
//! counter, recovers the decisions of the prefix of `Cons` (proposing `⊥`
//! where it did not participate) and aborts with that history. An instance
//! invoked with an init history first proposes, in order, the requests of
//! that history (Init Ordering).
//!
//! Instantiations:
//!
//! * `UniversalConstruction<S, SplitConsensus>` — registers only, commits in
//!   the absence of interval contention;
//! * `UniversalConstruction<S, AbortableBakery>` — registers only, commits
//!   in the absence of step contention;
//! * `UniversalConstruction<S, CasConsensus>` — the wait-free
//!   (Herlihy-style) baseline, never aborts;
//! * [`ComposableUniversal`] / [`new_composable_universal`] — the
//!   composition of a register-only instance with the wait-free instance
//!   (Proposition 1): any sequential type, registers in uncontended
//!   executions, compare-and-swap otherwise.
//!
//! The per-operation cost of the generic construction is inherently linear
//! in the number of previously committed requests (the abort history that
//! must be transferred), which is exactly the overhead that the light-weight
//! test-and-set construction of §6 avoids — experiment E5 measures it.
//!
//! *Modelling note*: the paper's construction stores request payloads in a
//! shared snapshot object `Reqs`; here consensus decides on request
//! identifiers and the payload lookup is performed through a shared
//! (step-free) table filled at invocation time. The shared-memory step count
//! attributed to ordering and state transfer is unaffected; only the
//! payload-copy steps are elided. An object snapshot copies none of this
//! table or of the abstract log (see [`SimObject::snapshot`]): the log and
//! the consensus-instance list only grow and are rewound by length, the
//! table is a write-once cache keyed by request id and is not rewound at
//! all, and only the per-process commit counters are copied.

use crate::compose::Composed;
use crate::consensus::{
    AbortableConsensus, CasConsensus, ConsensusExec, ConsensusOutcome, SplitConsensus,
};
use scl_sim::{
    Adversary, Executor, Footprint, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory,
    SimObject, StepOutcome, Value, Workload,
};
use scl_spec::{AbstractTrace, CounterOp, CounterSpec, History, Request, SequentialSpec};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// The composable universal construction of §4.2, parameterised by the
/// consensus algorithm used to agree on the request order.
#[derive(Clone)]
pub struct UniversalConstruction<S: SequentialSpec, C: AbortableConsensus> {
    spec: S,
    n: usize,
    /// Per-process committed-request counters. The paper uses a single
    /// atomic counter `C`; a fetch-and-increment counter has consensus
    /// number 2, so to keep the register-only instances truly register-only
    /// (Proposition 1) the counter is realised as one single-writer register
    /// per process whose sum is read with a collect.
    commit_counts: Rc<Vec<RegId>>,
    aborted: RegId,
    cons: Rc<RefCell<Vec<C>>>,
    /// Number of own requests each process has committed (single-writer
    /// local state backing `commit_counts`).
    local_commits: Rc<RefCell<Vec<u64>>>,
    requests: Rc<RefCell<BTreeMap<u64, Request<S>>>>,
    log: Rc<RefCell<AbstractTrace<S>>>,
}

impl<S: SequentialSpec, C: AbortableConsensus> UniversalConstruction<S, C> {
    /// Allocates a fresh instance for `n` processes.
    pub fn new(mem: &mut SharedMemory, n: usize, spec: S) -> Self {
        let commit_counts = (0..n)
            .map(|i| mem.alloc(&format!("universal.C[{i}]"), Value::int(0)))
            .collect();
        UniversalConstruction {
            spec,
            n,
            commit_counts: Rc::new(commit_counts),
            aborted: mem.alloc("universal.Aborted", Value::FALSE),
            cons: Rc::new(RefCell::new(Vec::new())),
            local_commits: Rc::new(RefCell::new(vec![0; n])),
            requests: Rc::new(RefCell::new(BTreeMap::new())),
            log: Rc::new(RefCell::new(AbstractTrace::new())),
        }
    }

    /// The Abstract-level trace recorded so far (invocations with init
    /// histories, commits and aborts with their histories), used to check
    /// the Definition 1 properties.
    pub fn recorded_abstract_trace(&self) -> AbstractTrace<S> {
        self.log.borrow().clone()
    }

    /// Number of consensus instances allocated so far (space complexity of
    /// the ordering layer).
    pub fn consensus_instances(&self) -> usize {
        self.cons.borrow().len()
    }

    fn ensure_slot(&self, mem: &mut SharedMemory, slot: usize) {
        let mut cons = self.cons.borrow_mut();
        while cons.len() <= slot {
            cons.push(C::allocate(mem, self.n));
        }
    }

    fn history_from_codes(&self, codes: &[u64]) -> History<S> {
        let requests = self.requests.borrow();
        let mut h = History::empty();
        for code in codes {
            if let Some(req) = requests.get(code) {
                let _ = h.push(req.clone());
            }
        }
        h
    }
}

enum UcPhase {
    /// Read the `Aborted` flag before working on the next slot.
    CheckAborted,
    /// Drive the consensus instance of the current slot.
    InConsensus { exec: Box<dyn ConsensusExec> },
    /// Our request was decided: increment the committed-request counter.
    IncrementCounter,
    /// Final check of the `Aborted` flag before committing.
    FinalAbortCheck,
    /// A consensus instance aborted (or `Aborted` was observed): set the
    /// flag.
    SetAborted,
    /// Collect the per-process committed-request counters to bound the abort
    /// history.
    ReadCount {
        /// Next counter register to read.
        idx: usize,
        /// Running sum of committed requests.
        sum: usize,
    },
    /// Recover the decisions of slots `0..limit`.
    Recover {
        limit: usize,
        slot: usize,
        exec: Option<Box<dyn ConsensusExec>>,
    },
}

struct UcExec<S: SequentialSpec, C: AbortableConsensus> {
    obj: UniversalConstruction<S, C>,
    req: Request<S>,
    /// Request identifiers decided so far, in slot order (local view).
    decided: Vec<u64>,
    /// Identifiers still to be proposed (init-history requests first, our own
    /// request last).
    to_propose: VecDeque<u64>,
    phase: UcPhase,
}

impl<S: SequentialSpec, C: AbortableConsensus> UcExec<S, C> {
    fn next_proposal(&mut self) -> u64 {
        while let Some(front) = self.to_propose.front() {
            if self.decided.contains(front) && *front != self.req.id.raw() {
                self.to_propose.pop_front();
            } else {
                return *front;
            }
        }
        self.req.id.raw()
    }

    fn commit(&mut self) -> StepOutcome<S, History<S>> {
        let history = self.obj.history_from_codes(&self.decided);
        let resp = history
            .beta_of(&self.obj.spec, self.req.id)
            .expect("committed request must appear in its commit history");
        self.obj
            .log
            .borrow_mut()
            .record_commit(self.req.proc, self.req.id, history);
        StepOutcome::Done(OpOutcome::Commit(resp))
    }

    fn abort(&mut self) -> StepOutcome<S, History<S>> {
        let mut history = self.obj.history_from_codes(&self.decided);
        // Termination (Definition 1) requires the abort history to contain
        // the aborted request itself; if it was never decided, append it at
        // the end (it is exactly what the next module will propose last).
        if !history.contains_id(self.req.id) {
            let _ = history.push(self.req.clone());
        }
        self.obj
            .log
            .borrow_mut()
            .record_abort(self.req.proc, self.req.id, history.clone());
        StepOutcome::Done(OpOutcome::Abort(history))
    }
}

impl<S: SequentialSpec + 'static, C: AbortableConsensus> OpExecution<S, History<S>>
    for UcExec<S, C>
{
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<S, History<S>> {
        let p = self.req.proc;
        match &mut self.phase {
            UcPhase::CheckAborted => {
                if mem.read(p, self.obj.aborted).as_bool() {
                    self.phase = UcPhase::ReadCount { idx: 0, sum: 0 };
                } else {
                    let slot = self.decided.len();
                    self.obj.ensure_slot(mem, slot);
                    let proposal = self.next_proposal();
                    let exec = self.obj.cons.borrow()[slot].propose(p, None, proposal as i64);
                    self.phase = UcPhase::InConsensus { exec };
                }
                StepOutcome::Continue
            }
            UcPhase::InConsensus { exec } => {
                match exec.step(mem) {
                    None => {}
                    Some(ConsensusOutcome::Commit(Some(code))) => {
                        let code = code as u64;
                        self.decided.push(code);
                        if let Some(pos) = self.to_propose.iter().position(|c| *c == code) {
                            self.to_propose.remove(pos);
                        }
                        if code == self.req.id.raw() {
                            self.phase = UcPhase::IncrementCounter;
                        } else {
                            self.phase = UcPhase::CheckAborted;
                        }
                    }
                    Some(ConsensusOutcome::Commit(None)) | Some(ConsensusOutcome::Abort(_)) => {
                        self.phase = UcPhase::SetAborted;
                    }
                }
                StepOutcome::Continue
            }
            UcPhase::IncrementCounter => {
                let mut local = self.obj.local_commits.borrow_mut();
                local[p.index()] += 1;
                let total = local[p.index()] as i64;
                drop(local);
                mem.write(p, self.obj.commit_counts[p.index()], Value::int(total));
                self.phase = UcPhase::FinalAbortCheck;
                StepOutcome::Continue
            }
            UcPhase::FinalAbortCheck => {
                if mem.read(p, self.obj.aborted).as_bool() {
                    self.phase = UcPhase::ReadCount { idx: 0, sum: 0 };
                    StepOutcome::Continue
                } else {
                    self.commit()
                }
            }
            UcPhase::SetAborted => {
                mem.write(p, self.obj.aborted, Value::TRUE);
                self.phase = UcPhase::ReadCount { idx: 0, sum: 0 };
                StepOutcome::Continue
            }
            UcPhase::ReadCount { idx, sum } => {
                let i = *idx;
                *sum += mem.read(p, self.obj.commit_counts[i]).as_int().max(0) as usize;
                if i + 1 < self.obj.commit_counts.len() {
                    self.phase = UcPhase::ReadCount {
                        idx: i + 1,
                        sum: *sum,
                    };
                } else {
                    let limit = (*sum).max(self.decided.len());
                    self.phase = UcPhase::Recover {
                        limit,
                        slot: 0,
                        exec: None,
                    };
                }
                StepOutcome::Continue
            }
            UcPhase::Recover { limit, slot, exec } => {
                if *slot >= *limit {
                    return self.abort();
                }
                // Decisions we already know locally need no recovery.
                if *slot < self.decided.len() {
                    *slot += 1;
                    return StepOutcome::Continue;
                }
                if exec.is_none() {
                    self.obj.ensure_slot(mem, *slot);
                    *exec = Some(self.obj.cons.borrow()[*slot].propose_once(p, None));
                }
                match exec.as_mut().unwrap().step(mem) {
                    None => StepOutcome::Continue,
                    Some(outcome) => {
                        match outcome.value() {
                            Some(code) if code != i64::MIN => {
                                self.decided.push(code as u64);
                                *slot += 1;
                                *exec = None;
                            }
                            _ => {
                                // No decision recoverable at this slot: the
                                // history ends here.
                                *limit = *slot;
                            }
                        }
                        StepOutcome::Continue
                    }
                }
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<S, History<S>>>> {
        let phase = match &self.phase {
            UcPhase::CheckAborted => UcPhase::CheckAborted,
            UcPhase::InConsensus { exec } => UcPhase::InConsensus { exec: exec.fork()? },
            UcPhase::IncrementCounter => UcPhase::IncrementCounter,
            UcPhase::FinalAbortCheck => UcPhase::FinalAbortCheck,
            UcPhase::SetAborted => UcPhase::SetAborted,
            UcPhase::ReadCount { idx, sum } => UcPhase::ReadCount {
                idx: *idx,
                sum: *sum,
            },
            UcPhase::Recover { limit, slot, exec } => UcPhase::Recover {
                limit: *limit,
                slot: *slot,
                exec: match exec {
                    None => None,
                    Some(e) => Some(e.fork()?),
                },
            },
        };
        Some(Box::new(UcExec {
            obj: self.obj.clone(),
            req: self.req.clone(),
            decided: self.decided.clone(),
            to_propose: self.to_propose.clone(),
            phase,
        }))
    }

    fn next_footprint(&self) -> Footprint {
        match &self.phase {
            UcPhase::CheckAborted | UcPhase::FinalAbortCheck => Footprint::Read(self.obj.aborted),
            UcPhase::InConsensus { exec } => exec.next_footprint(),
            UcPhase::IncrementCounter => {
                Footprint::Write(self.obj.commit_counts[self.req.proc.index()])
            }
            UcPhase::SetAborted => Footprint::Write(self.obj.aborted),
            UcPhase::ReadCount { idx, .. } => Footprint::Read(self.obj.commit_counts[*idx]),
            // The next recover step may finish locally, skip a known slot, or
            // lazily create (and step) a fresh consensus propose whose
            // registers may not even be allocated yet — not predictable from
            // local state.
            UcPhase::Recover { exec, .. } => match exec {
                Some(e) => e.next_footprint(),
                None => Footprint::Unknown,
            },
        }
    }
}

impl<S: SequentialSpec + 'static, C: AbortableConsensus> SimObject<S, History<S>>
    for UniversalConstruction<S, C>
{
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<S>,
        switch: Option<History<S>>,
    ) -> Box<dyn OpExecution<S, History<S>>> {
        self.requests.borrow_mut().insert(req.id.raw(), req.clone());
        let init = switch.clone().unwrap_or_default();
        // Make sure the payloads of init-history requests are known locally
        // (they come from another module's abort history).
        for r in init.iter() {
            self.requests
                .borrow_mut()
                .entry(r.id.raw())
                .or_insert_with(|| r.clone());
        }
        self.log
            .borrow_mut()
            .record_invoke(req.clone(), init.clone());
        let mut to_propose: VecDeque<u64> = init.iter().map(|r| r.id.raw()).collect();
        if !to_propose.contains(&req.id.raw()) {
            to_propose.push_back(req.id.raw());
        }
        Box::new(UcExec {
            obj: self.clone(),
            req,
            decided: Vec::new(),
            to_propose,
            phase: UcPhase::CheckAborted,
        })
    }

    fn name(&self) -> &'static str {
        "universal construction"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        Some(ObjectSnapshot::new(UcSnap {
            cons_len: self.cons.borrow().len(),
            log_len: self.log.borrow().len(),
            local_commits: self.local_commits.borrow().clone(),
        }))
    }

    fn restore(&mut self, snap: &ObjectSnapshot) {
        let s = snap.downcast::<UcSnap>();
        // Consensus instances are plain register handles; instances
        // allocated after the snapshot are rolled back (their registers are
        // reclaimed by the paired memory restore).
        self.cons.borrow_mut().truncate(s.cons_len);
        self.log.borrow_mut().truncate(s.log_len);
        self.local_commits
            .borrow_mut()
            .copy_from_slice(&s.local_commits);
        // The request table is not rewound: see `UcSnap`.
    }
}

/// Snapshot of a [`UniversalConstruction`]'s private state, independent of
/// the length of the run. The consensus-instance list and the abstract log
/// only grow, so they are rewound to their lengths. The request table is a
/// write-once cache: a request id names the same workload request in every
/// branch, and `history_from_codes` looks up only codes decided in the
/// current branch, each of which some process of that branch registered at
/// its invocation — so entries added on an abandoned branch are never read
/// wrongly and need no rewind.
struct UcSnap {
    cons_len: usize,
    log_len: usize,
    local_commits: Vec<u64>,
}

/// The composition of a register-only universal construction with the
/// wait-free (CAS-based) one: Proposition 1.
pub type ComposableUniversal<S> =
    Composed<UniversalConstruction<S, SplitConsensus>, UniversalConstruction<S, CasConsensus>>;

/// Allocates the two-level composable universal construction of
/// Proposition 1: registers only in uncontended executions, compare-and-swap
/// otherwise.
pub fn new_composable_universal<S: SequentialSpec + 'static>(
    mem: &mut SharedMemory,
    n: usize,
    spec: S,
) -> ComposableUniversal<S> {
    Composed::new(
        UniversalConstruction::<S, SplitConsensus>::new(mem, n, spec.clone()),
        UniversalConstruction::<S, CasConsensus>::new(mem, n, spec),
    )
}

/// The three-level composition sketched in §4.2: a contention-free instance,
/// then a step-contention-free instance, then the wait-free instance.
pub type ThreeLevelUniversal<S> = Composed<
    UniversalConstruction<S, SplitConsensus>,
    Composed<
        UniversalConstruction<S, crate::consensus::AbortableBakery>,
        UniversalConstruction<S, CasConsensus>,
    >,
>;

/// Allocates the three-level composition (SplitConsensus, then
/// AbortableBakery, then CAS).
pub fn new_three_level_universal<S: SequentialSpec + 'static>(
    mem: &mut SharedMemory,
    n: usize,
    spec: S,
) -> ThreeLevelUniversal<S> {
    Composed::new(
        UniversalConstruction::<S, SplitConsensus>::new(mem, n, spec.clone()),
        Composed::new(
            UniversalConstruction::<S, crate::consensus::AbortableBakery>::new(
                mem,
                n,
                spec.clone(),
            ),
            UniversalConstruction::<S, CasConsensus>::new(mem, n, spec),
        ),
    )
}

/// Proposition 2: any wait-free Abstract implementation of a non-trivial
/// sequential type solves wait-free consensus.
///
/// Each of the `proposals.len()` processes invokes one request on a
/// wait-free universal construction (over a counter object); the commit
/// histories order all requests, and every process decides the proposal of
/// the process whose request appears *first* in its commit history. Commit
/// Order guarantees agreement; Validity ensures the decision is one of the
/// proposals.
pub fn consensus_via_abstract(
    proposals: &[u64],
    adversary: &mut dyn Adversary,
) -> Result<Vec<u64>, String> {
    let n = proposals.len();
    let mut mem = SharedMemory::new();
    let mut uc = UniversalConstruction::<CounterSpec, CasConsensus>::new(&mut mem, n, CounterSpec);
    let wl: Workload<CounterSpec, History<CounterSpec>> =
        Workload::single_op_each(n, CounterOp::Increment);
    let res = Executor::new().run(&mut mem, &mut uc, &wl, adversary);
    if !res.completed {
        return Err("the wait-free universal construction did not terminate".into());
    }
    let log = uc.recorded_abstract_trace();
    log.check()
        .map_err(|e| format!("Abstract property violated: {e}"))?;
    let mut decisions = vec![None; n];
    for (req_id, history) in log.commit_histories() {
        let owner = log
            .events()
            .iter()
            .find_map(|e| match e {
                scl_spec::AbstractEvent::Invoke { req, .. } if req.id == req_id => Some(req.proc),
                _ => None,
            })
            .ok_or_else(|| "commit for unknown request".to_string())?;
        let first = history
            .head()
            .ok_or_else(|| "empty commit history".to_string())?;
        decisions[owner.index()] = Some(proposals[first.proc.index()]);
    }
    decisions
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or_else(|| format!("process {i} did not decide")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{Executor, RandomAdversary, RoundRobinAdversary, SoloAdversary, Workload};
    use scl_spec::{check_linearizable, QueueOp, QueueSpec, RegisterOp, RegisterSpec};

    #[test]
    fn wait_free_instance_implements_a_queue_sequentially() {
        let mut mem = SharedMemory::new();
        let mut uc = UniversalConstruction::<QueueSpec, CasConsensus>::new(&mut mem, 2, QueueSpec);
        let wl: Workload<QueueSpec, History<QueueSpec>> = Workload::from_ops(vec![
            vec![QueueOp::Enqueue(1), QueueOp::Enqueue(2), QueueOp::Dequeue],
            vec![QueueOp::Dequeue],
        ]);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(check_linearizable(&QueueSpec, &res.trace().commit_projection()).is_linearizable());
        assert_eq!(uc.recorded_abstract_trace().check(), Ok(()));
    }

    #[test]
    fn wait_free_instance_linearizable_under_contention() {
        for seed in 0..10 {
            let mut mem = SharedMemory::new();
            let mut uc =
                UniversalConstruction::<CounterSpec, CasConsensus>::new(&mut mem, 3, CounterSpec);
            let wl: Workload<CounterSpec, History<CounterSpec>> =
                Workload::uniform(3, CounterOp::Increment, 2);
            let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed, "seed {seed}");
            assert_eq!(res.metrics.aborted_count(), 0);
            assert!(
                check_linearizable(&CounterSpec, &res.trace().commit_projection())
                    .is_linearizable(),
                "seed {seed}"
            );
            assert_eq!(uc.recorded_abstract_trace().check(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn register_only_instance_commits_without_contention() {
        let mut mem = SharedMemory::new();
        let mut uc =
            UniversalConstruction::<RegisterSpec, SplitConsensus>::new(&mut mem, 2, RegisterSpec);
        let wl: Workload<RegisterSpec, History<RegisterSpec>> = Workload::from_ops(vec![
            vec![RegisterOp::Write(7), RegisterOp::Read],
            vec![RegisterOp::Read],
        ]);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        // Registers only: no strong primitive used anywhere.
        assert_eq!(mem.max_required_consensus_number(), Some(1));
        assert!(
            check_linearizable(&RegisterSpec, &res.trace().commit_projection()).is_linearizable()
        );
        assert_eq!(uc.recorded_abstract_trace().check(), Ok(()));
    }

    #[test]
    fn register_only_instance_aborts_with_valid_histories_under_contention() {
        let mut found_abort = false;
        for seed in 0..30 {
            let mut mem = SharedMemory::new();
            let mut uc =
                UniversalConstruction::<CounterSpec, SplitConsensus>::new(&mut mem, 3, CounterSpec);
            let wl: Workload<CounterSpec, History<CounterSpec>> =
                Workload::single_op_each(3, CounterOp::Increment);
            let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed, "seed {seed}");
            if res.metrics.aborted_count() > 0 {
                found_abort = true;
            }
            let log = uc.recorded_abstract_trace();
            assert_eq!(
                log.check(),
                Ok(()),
                "seed {seed}: Abstract properties must hold"
            );
            assert!(
                check_linearizable(&CounterSpec, &res.trace().commit_projection())
                    .is_linearizable(),
                "seed {seed}"
            );
        }
        assert!(
            found_abort,
            "contention should trigger at least one abort across seeds"
        );
    }

    #[test]
    fn composable_universal_is_wait_free_and_linearizable() {
        for seed in 0..15 {
            let mut mem = SharedMemory::new();
            let mut uc = new_composable_universal(&mut mem, 3, CounterSpec);
            let wl: Workload<CounterSpec, History<CounterSpec>> =
                Workload::uniform(3, CounterOp::Increment, 2);
            let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed, "seed {seed}");
            assert_eq!(
                res.metrics.aborted_count(),
                0,
                "the composition never aborts"
            );
            assert!(
                check_linearizable(&CounterSpec, &res.trace().commit_projection())
                    .is_linearizable(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn composable_universal_stays_on_registers_without_contention() {
        let mut mem = SharedMemory::new();
        let mut uc = new_composable_universal(&mut mem, 2, CounterSpec);
        let wl: Workload<CounterSpec, History<CounterSpec>> =
            Workload::uniform(2, CounterOp::Increment, 2);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(
            uc.switch_count(),
            0,
            "no operation should leave the speculative instance"
        );
        assert_eq!(mem.max_required_consensus_number(), Some(1));
    }

    #[test]
    fn composable_universal_switches_and_transfers_state_under_contention() {
        // Force heavy step contention so the register-only instance aborts;
        // the committed values must still form a correct counter history.
        let mut mem = SharedMemory::new();
        let mut uc = new_composable_universal(&mut mem, 3, CounterSpec);
        let wl: Workload<CounterSpec, History<CounterSpec>> =
            Workload::single_op_each(3, CounterOp::Increment);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RoundRobinAdversary::default());
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(
            check_linearizable(&CounterSpec, &res.trace().commit_projection()).is_linearizable()
        );
        if uc.switch_count() > 0 {
            // The slow path uses CAS, i.e. consensus number ∞ base objects —
            // exactly the cost Proposition 2 predicts for generic objects.
            assert_eq!(mem.max_required_consensus_number(), None);
        }
    }

    #[test]
    fn three_level_composition_works_sequentially() {
        let mut mem = SharedMemory::new();
        let mut uc = new_three_level_universal(&mut mem, 2, QueueSpec);
        let wl: Workload<QueueSpec, History<QueueSpec>> = Workload::from_ops(vec![
            vec![QueueOp::Enqueue(5), QueueOp::Dequeue],
            vec![QueueOp::Enqueue(6)],
        ]);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(check_linearizable(&QueueSpec, &res.trace().commit_projection()).is_linearizable());
    }

    #[test]
    fn abort_history_length_grows_with_committed_requests() {
        // Proposition 1 cost: the state transferred on abort is the whole
        // history of committed requests, i.e. linear.
        for ops in [2usize, 4, 8] {
            let mut mem = SharedMemory::new();
            let mut uc =
                UniversalConstruction::<CounterSpec, SplitConsensus>::new(&mut mem, 2, CounterSpec);
            // Process 0 commits `ops` operations alone, then both processes
            // contend and at least one aborts.
            let mut per_proc = vec![Vec::new(), Vec::new()];
            per_proc[0] = vec![CounterOp::Increment; ops];
            let wl: Workload<CounterSpec, History<CounterSpec>> = Workload::from_ops(per_proc);
            let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
            assert!(res.completed);
            let wl2: Workload<CounterSpec, History<CounterSpec>> =
                Workload::single_op_each(2, CounterOp::Increment);
            let res2 =
                Executor::new().run(&mut mem, &mut uc, &wl2, &mut RoundRobinAdversary::default());
            assert!(res2.completed);
            let log = uc.recorded_abstract_trace();
            if let Some((_, h)) = log.abort_histories().first() {
                assert!(
                    h.len() >= ops,
                    "abort history must carry the {ops} committed requests, got {}",
                    h.len()
                );
            }
        }
    }

    #[test]
    fn proposition2_consensus_from_wait_free_abstract() {
        let proposals = [17, 23, 31];
        for seed in 0..10 {
            let decisions =
                consensus_via_abstract(&proposals, &mut RandomAdversary::new(seed)).unwrap();
            assert_eq!(decisions.len(), proposals.len());
            // Agreement.
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: {decisions:?}"
            );
            // Validity.
            assert!(proposals.contains(&decisions[0]), "seed {seed}");
        }
    }

    #[test]
    fn consensus_instances_are_allocated_lazily() {
        let mut mem = SharedMemory::new();
        let mut uc =
            UniversalConstruction::<CounterSpec, CasConsensus>::new(&mut mem, 2, CounterSpec);
        assert_eq!(uc.consensus_instances(), 0);
        let wl: Workload<CounterSpec, History<CounterSpec>> =
            Workload::uniform(2, CounterOp::Increment, 3);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(
            uc.consensus_instances(),
            6,
            "one consensus instance per committed request"
        );
    }
}
