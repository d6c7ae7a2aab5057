//! The long-lived resettable test-and-set (Algorithm 2, §6.3).
//!
//! The long-lived object keeps an (unbounded, lazily allocated) array
//! `TAS[]` of one-shot speculative instances and a shared round counter
//! `Count`. A `test-and-set` operation reads `Count` and participates in
//! `TAS[Count]` (running module A1 and, if it aborts, module A2). The unique
//! current winner may `reset` the object: it increments `Count`, which moves
//! every subsequent operation to a fresh speculative instance — this is the
//! "back edge" of Figure 1 that reverts the object from the expensive
//! hardware module to the cheap speculative module. The same round-array
//! technique is credited to Afek et al. [1] in the paper.

use crate::tas::speculative::{new_speculative_tas, SpeculativeTas};
use scl_sim::{
    Footprint, ImmediateOutcome, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory,
    SimObject, StepOutcome, Value,
};
use scl_spec::{ProcessId, Request, TasOp, TasResp, TasSpec, TasSwitch};
use std::cell::RefCell;
use std::rc::Rc;

/// The long-lived resettable test-and-set object.
#[derive(Clone)]
pub struct ResettableTas {
    count: RegId,
    rounds: Rc<RefCell<Vec<SpeculativeTas>>>,
    /// `crtWinner` flag of each process (local state in the paper's
    /// pseudocode, §6.3).
    crt_winner: Rc<RefCell<Vec<bool>>>,
}

impl ResettableTas {
    /// Allocates a fresh long-lived test-and-set for up to `n` processes.
    pub fn new(mem: &mut SharedMemory, n: usize) -> Self {
        let first_round = new_speculative_tas(mem);
        ResettableTas {
            count: mem.alloc("resettable.Count", Value::int(0)),
            rounds: Rc::new(RefCell::new(vec![first_round])),
            crt_winner: Rc::new(RefCell::new(vec![false; n])),
        }
    }

    /// Number of one-shot rounds allocated so far.
    pub fn rounds_allocated(&self) -> usize {
        self.rounds.borrow().len()
    }

    /// Number of operations that switched from the register-only module to
    /// the hardware module so far, summed over all rounds.
    pub fn switch_count(&self) -> u64 {
        self.rounds.borrow().iter().map(|r| r.switch_count()).sum()
    }

    /// Whether process `p` currently believes it is the winner.
    pub fn is_current_winner(&self, p: ProcessId) -> bool {
        self.crt_winner
            .borrow()
            .get(p.index())
            .copied()
            .unwrap_or(false)
    }

    fn ensure_round(&self, mem: &mut SharedMemory, round: usize) {
        let mut rounds = self.rounds.borrow_mut();
        while rounds.len() <= round {
            rounds.push(new_speculative_tas(mem));
        }
    }
}

enum TasPhase {
    ReadCount,
    Inner(Box<dyn OpExecution<TasSpec, TasSwitch>>),
}

struct TasExec {
    obj: ResettableTas,
    req: Request<TasSpec>,
    phase: TasPhase,
}

impl OpExecution<TasSpec, TasSwitch> for TasExec {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        match &mut self.phase {
            TasPhase::ReadCount => {
                let c = mem.read(self.req.proc, self.obj.count).as_int().max(0) as usize;
                self.obj.ensure_round(mem, c);
                let exec = self.obj.rounds.borrow_mut()[c].invoke(mem, self.req.clone(), None);
                self.phase = TasPhase::Inner(exec);
                StepOutcome::Continue
            }
            TasPhase::Inner(exec) => match exec.step(mem) {
                StepOutcome::Continue => StepOutcome::Continue,
                StepOutcome::Done(OpOutcome::Commit(resp)) => {
                    if resp == TasResp::Winner {
                        self.obj.crt_winner.borrow_mut()[self.req.proc.index()] = true;
                    }
                    StepOutcome::Done(OpOutcome::Commit(resp))
                }
                StepOutcome::Done(OpOutcome::Abort(v)) => StepOutcome::Done(OpOutcome::Abort(v)),
            },
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        let phase = match &self.phase {
            TasPhase::ReadCount => TasPhase::ReadCount,
            TasPhase::Inner(exec) => TasPhase::Inner(exec.fork()?),
        };
        Some(Box::new(TasExec {
            obj: self.obj.clone(),
            req: self.req.clone(),
            phase,
        }))
    }

    fn next_footprint(&self) -> Footprint {
        match &self.phase {
            TasPhase::ReadCount => Footprint::Read(self.obj.count),
            TasPhase::Inner(exec) => exec.next_footprint(),
        }
    }
}

#[derive(Clone, Copy)]
enum ResetPhase {
    ReadCount,
    WriteCount(i64),
}

struct ResetExec {
    obj: ResettableTas,
    proc: ProcessId,
    phase: ResetPhase,
}

impl OpExecution<TasSpec, TasSwitch> for ResetExec {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        match self.phase {
            ResetPhase::ReadCount => {
                let c = mem.read(self.proc, self.obj.count).as_int();
                self.phase = ResetPhase::WriteCount(c);
                StepOutcome::Continue
            }
            ResetPhase::WriteCount(c) => {
                mem.write(self.proc, self.obj.count, Value::int(c + 1));
                self.obj.crt_winner.borrow_mut()[self.proc.index()] = false;
                StepOutcome::Done(OpOutcome::Commit(TasResp::ResetDone))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(ResetExec {
            obj: self.obj.clone(),
            proc: self.proc,
            phase: self.phase,
        }))
    }

    fn next_footprint(&self) -> Footprint {
        match self.phase {
            ResetPhase::ReadCount => Footprint::Read(self.obj.count),
            ResetPhase::WriteCount(_) => Footprint::Write(self.obj.count),
        }
    }
}

impl SimObject<TasSpec, TasSwitch> for ResettableTas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        _switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        match req.op {
            TasOp::TestAndSet => Box::new(TasExec {
                obj: self.clone(),
                req,
                phase: TasPhase::ReadCount,
            }),
            TasOp::Reset => {
                // Well-formedness (after [1]) requires that only the current
                // winner resets the object; a reset by a non-winner is a
                // no-op returning immediately.
                if self.is_current_winner(req.proc) {
                    Box::new(ResetExec {
                        obj: self.clone(),
                        proc: req.proc,
                        phase: ResetPhase::ReadCount,
                    })
                } else {
                    Box::new(ImmediateOutcome::new(OpOutcome::Commit(TasResp::ResetDone)))
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "resettable speculative TAS"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // A round's modules A1 and A2 keep all their state in registers
        // (their snapshots are stateless), so a round's private state is
        // its composition's switch counter.
        Some(ObjectSnapshot::new(ResettableSnap {
            switches: self
                .rounds
                .borrow()
                .iter()
                .map(|r| r.switch_count())
                .collect(),
            crt_winner: self.crt_winner.borrow().clone(),
        }))
    }

    fn restore(&mut self, snap: &ObjectSnapshot) {
        let s = snap.downcast::<ResettableSnap>();
        let mut rounds = self.rounds.borrow_mut();
        // Rounds allocated after the snapshot are rolled back; the paired
        // memory restore reclaims their registers, and a later re-allocation
        // recycles the same slots deterministically.
        rounds.truncate(s.switches.len());
        for (round, &switches) in rounds.iter().zip(&s.switches) {
            round.rewind_switch_count(switches);
        }
        drop(rounds);
        self.crt_winner.borrow_mut().copy_from_slice(&s.crt_winner);
    }
}

/// Snapshot of a [`ResettableTas`]: the switch counter of every allocated
/// round (the round array only grows, so its length is theirs) plus the
/// local `crtWinner` flags.
struct ResettableSnap {
    switches: Vec<u64>,
    crt_winner: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{Executor, RandomAdversary, RoundRobinAdversary, SoloAdversary, Workload};
    use scl_spec::{check_linearizable, TasSpec};

    type Wl = Workload<TasSpec, TasSwitch>;

    #[test]
    fn winner_resets_and_object_can_be_won_again() {
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, 2);
        // Process 0: test-and-set, reset, test-and-set. Process 1: test-and-set.
        let wl: Wl = Workload::from_ops(vec![
            vec![TasOp::TestAndSet, TasOp::Reset, TasOp::TestAndSet],
            vec![TasOp::TestAndSet],
        ]);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
        assert!(res.completed);
        // The sequential history must be linearizable against the resettable
        // TAS spec: p0 wins round 0, resets, then wins round 1; p1 loses.
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 2);
        assert_eq!(tas.rounds_allocated(), 2);
    }

    #[test]
    fn non_winner_reset_is_a_noop() {
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, 2);
        let wl: Wl = Workload::from_ops(vec![vec![TasOp::Reset], vec![TasOp::TestAndSet]]);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(tas.rounds_allocated(), 1);
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
    }

    #[test]
    fn per_round_single_winner_under_contention() {
        for seed in 0..15 {
            let mut mem = SharedMemory::new();
            let mut tas = ResettableTas::new(&mut mem, 3);
            let wl: Wl = Workload::single_op_each(3, TasOp::TestAndSet);
            let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed);
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            assert_eq!(winners, 1, "seed {seed}");
            assert!(
                check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn repeated_rounds_of_leader_election() {
        // Three rounds of leader election among three processes: in every
        // round each process performs one test-and-set under heavy
        // interleaving, then the round's (unique) winner resets the object.
        // Well-formedness of the long-lived object ([1], §6.3) requires that
        // only the current winner calls reset, so the reset is issued in a
        // separate, winner-only workload.
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, 3);
        for round in 0..3 {
            let wl: Wl = Workload::single_op_each(3, TasOp::TestAndSet);
            let res =
                Executor::new().run(&mut mem, &mut tas, &wl, &mut RoundRobinAdversary::default());
            assert!(res.completed, "round {round}");
            let winners: Vec<_> = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .map(|(req, _)| req.proc)
                .collect();
            assert_eq!(winners.len(), 1, "round {round}: exactly one winner");
            assert!(
                check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
                "round {round}"
            );
            assert!(tas.is_current_winner(winners[0]));
            // The winner resets the object for the next round.
            let mut reset_ops = vec![Vec::new(); 3];
            reset_ops[winners[0].index()] = vec![TasOp::Reset];
            let wl_reset: Wl = Workload::from_ops(reset_ops);
            let res_reset = Executor::new().run(&mut mem, &mut tas, &wl_reset, &mut SoloAdversary);
            assert!(res_reset.completed);
            assert!(!tas.is_current_winner(winners[0]));
        }
        // Every round after a reset ran on a freshly allocated speculative
        // instance (the round after the last reset is allocated lazily by the
        // next test-and-set, hence 3 instances for 3 played rounds).
        assert_eq!(tas.rounds_allocated(), 3);
    }

    #[test]
    fn reset_reverts_to_speculative_module_cheap_steps() {
        // After a contended round (which may fall back to hardware), a reset
        // followed by an uncontended test-and-set runs on the fresh
        // speculative instance with constant register-only steps.
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, 2);
        // Round 0 under contention.
        let wl0: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
        let res0 = Executor::new().run(
            &mut mem,
            &mut tas,
            &wl0,
            &mut RoundRobinAdversary::default(),
        );
        assert!(res0.completed);
        let winner_proc = res0
            .trace()
            .commits()
            .iter()
            .find(|(_, r)| *r == TasResp::Winner)
            .map(|(req, _)| req.proc)
            .unwrap();
        // The winner resets, then runs an uncontended test-and-set.
        let mut reset_ops = vec![Vec::new(), Vec::new()];
        reset_ops[winner_proc.index()] = vec![TasOp::Reset, TasOp::TestAndSet];
        let wl1: Wl = Workload::from_ops(reset_ops);
        let res1 = Executor::new().run(&mut mem, &mut tas, &wl1, &mut SoloAdversary);
        assert!(res1.completed);
        let tas_op = res1
            .metrics
            .ops
            .iter()
            .find(|o| {
                res1.trace()
                    .request(o.req_id)
                    .map(|r| r.op == TasOp::TestAndSet)
                    .unwrap_or(false)
            })
            .unwrap();
        // 1 step to read Count + at most MAX_STEPS inside the fresh A1.
        assert!(tas_op.steps <= 1 + crate::tas::A1Tas::MAX_STEPS);
        assert_eq!(
            tas_op.rmws, 0,
            "fresh round must be back on the register-only fast path"
        );
        assert_eq!(tas.rounds_allocated(), 2);
    }
}
