//! Module A2: the wait-free test-and-set module (Algorithm 2, lines 16–19).
//!
//! The module is essentially a hardware test-and-set object `T` (consensus
//! number 2). Processes entering with switch value `L` have already lost in
//! a previous module and return `loser` without taking any shared-memory
//! step; every other participant performs a single hardware test-and-set and
//! commits the result. The module never aborts, so the composition
//! `A1 ∘ A2` is wait-free.

use scl_sim::{
    Footprint, ImmediateOutcome, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory,
    SimObject, StepOutcome, Value,
};
use scl_spec::{ProcessId, Request, TasOp, TasResp, TasSpec, TasSwitch};

/// The wait-free hardware test-and-set module A2.
#[derive(Debug, Clone, Copy)]
pub struct A2Tas {
    t: RegId,
}

impl A2Tas {
    /// Allocates a fresh instance backed by one hardware test-and-set cell.
    pub fn new(mem: &mut SharedMemory) -> Self {
        A2Tas {
            t: mem.alloc("a2.T", Value::FALSE),
        }
    }

    /// Number of shared registers used.
    pub const REGISTERS: usize = 1;

    /// Upper bound on the number of shared-memory steps of any operation.
    pub const MAX_STEPS: u64 = 1;
}

#[derive(Clone, Copy)]
struct A2Exec {
    t: RegId,
    proc: ProcessId,
}

impl OpExecution<TasSpec, TasSwitch> for A2Exec {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        let prev = mem.test_and_set(self.proc, self.t);
        StepOutcome::Done(OpOutcome::Commit(if prev {
            TasResp::Loser
        } else {
            TasResp::Winner
        }))
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        // test-and-set is a read-modify-write: a writing access.
        Footprint::Write(self.t)
    }
}

impl SimObject<TasSpec, TasSwitch> for A2Tas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        match req.op {
            TasOp::TestAndSet => {
                if switch == Some(TasSwitch::L) {
                    // Already lost in a previous module: no shared step.
                    Box::new(ImmediateOutcome::new(OpOutcome::Commit(TasResp::Loser)))
                } else {
                    Box::new(A2Exec {
                        t: self.t,
                        proc: req.proc,
                    })
                }
            }
            TasOp::Reset => Box::new(ImmediateOutcome::new(OpOutcome::Commit(TasResp::ResetDone))),
        }
    }

    fn name(&self) -> &'static str {
        "A2 (wait-free hardware TAS)"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // A2's entire state is the hardware test-and-set cell.
        Some(ObjectSnapshot::stateless())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{
        explore_schedules, Executor, ExploreConfig, RoundRobinAdversary, SoloAdversary, Workload,
    };
    use scl_spec::{check_linearizable, find_valid_interpretation, TasConstraint, TasSpec};

    type Wl = Workload<TasSpec, TasSwitch>;

    #[test]
    fn single_step_winner_then_losers() {
        let mut mem = SharedMemory::new();
        let mut a2 = A2Tas::new(&mut mem);
        let wl: Wl = Workload::single_op_each(3, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut a2, &wl, &mut SoloAdversary);
        assert!(res.completed);
        let commits = res.trace().commits();
        assert_eq!(commits[0].1, TasResp::Winner);
        assert_eq!(
            commits.iter().filter(|(_, r)| *r == TasResp::Loser).count(),
            2
        );
        for op in &res.metrics.ops {
            assert_eq!(op.steps, A2Tas::MAX_STEPS);
        }
        // A hardware TAS is a consensus-number-2 object.
        assert_eq!(mem.max_required_consensus_number(), Some(2));
    }

    #[test]
    fn never_aborts_and_is_linearizable_under_contention() {
        let mut mem = SharedMemory::new();
        let mut a2 = A2Tas::new(&mut mem);
        let wl: Wl = Workload::single_op_each(4, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut a2, &wl, &mut RoundRobinAdversary::default());
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
    }

    #[test]
    fn l_entrants_lose_without_steps_w_entrants_race() {
        let mut mem = SharedMemory::new();
        let mut a2 = A2Tas::new(&mut mem);
        let wl: Wl = Workload {
            ops: vec![
                vec![(TasOp::TestAndSet, Some(TasSwitch::W))],
                vec![(TasOp::TestAndSet, Some(TasSwitch::L))],
                vec![(TasOp::TestAndSet, Some(TasSwitch::W))],
            ],
        };
        let res = Executor::new().run(&mut mem, &mut a2, &wl, &mut SoloAdversary);
        assert!(res.completed);
        let commits = res.trace().commits();
        let winners = commits
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1);
        // The L entrant took no shared-memory step.
        let l_op = res
            .metrics
            .ops
            .iter()
            .find(|o| o.proc == scl_spec::ProcessId(1))
            .unwrap();
        assert_eq!(l_op.steps, 0);
        // The trace with init tokens is certifiably safely composable
        // (Lemma 5).
        assert!(find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable());
    }

    #[test]
    fn all_interleavings_are_linearizable() {
        let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
        let outcome = explore_schedules(A2Tas::new, &wl, &ExploreConfig::default(), |res, _| {
            if !check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable() {
                return Err("not linearizable".into());
            }
            if res.metrics.aborted_count() > 0 {
                return Err("A2 aborted".into());
            }
            Ok(())
        })
        .expect("A2 must be linearizable under every interleaving");
        assert!(outcome.schedules() >= 2);
    }
}
