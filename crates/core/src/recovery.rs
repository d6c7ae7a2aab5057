//! A crash-recoverable test-and-set — and its seeded recovery mutant.
//!
//! The objects in [`crate::tas`] are crash-*tolerant* at best: a crashed
//! process leaves its operation pending forever and the survivors carry on.
//! This module implements the stronger *recoverable* contract the
//! crash-recovery adversary of `scl-sim` exercises: when a crashed process
//! restarts, the object's [`SimObject::recover`] routine inspects the
//! durable shared state and **resolves** the interrupted operation with a
//! late response before the process resumes — exactly the obligation the
//! `recoverable` crashed-pending closure of `scl-check` verifies.
//!
//! The construction is deliberately minimal:
//!
//! * each process first writes a per-process *announce* register (so a crash
//!   point exists between announcing and deciding), then
//! * claims a single `winner` register with one compare-and-swap
//!   (`0 → p + 1`; the CAS that installs its value wins).
//!
//! Because the decision lives in one durable CAS register, recovery is a
//! single re-validation step: re-run the claim CAS and read off who owns the
//! register. The register holding `p + 1` (whether the pre-crash CAS or the
//! recovery's landed) means the interrupted operation *won*; any other
//! owner means it *lost*. Recovery therefore always resolves — the object
//! satisfies recoverable linearizability, the strongest closure.
//!
//! [`RecoverableTas::new_mutant`] seeds the classic recovery bug: the
//! routine still re-claims the register but **skips re-validating
//! ownership**, blindly committing `Winner`. If the other process already
//! won while the victim was down, recovery manufactures a second winner —
//! a violation every exploration mode (and even the plain `open` closure's
//! outcome checks) must catch.

use scl_sim::{
    Footprint, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory, SimObject, StepOutcome,
    Value,
};
use scl_spec::{ProcessId, Request, TasOp, TasResp, TasSpec, TasSwitch};

/// See the [module documentation](self).
pub struct RecoverableTas {
    ann: Vec<RegId>,
    winner: RegId,
    mutant: bool,
}

impl RecoverableTas {
    /// Allocates the announce array and the winner register for `n`
    /// processes (correct recovery).
    pub fn new(mem: &mut SharedMemory, n: usize) -> Self {
        Self::with_mutant(mem, n, false)
    }

    /// The seeded recovery mutant: recovery re-claims the winner register
    /// but skips re-validating ownership and blindly commits `Winner`.
    pub fn new_mutant(mem: &mut SharedMemory, n: usize) -> Self {
        Self::with_mutant(mem, n, true)
    }

    fn with_mutant(mem: &mut SharedMemory, n: usize, mutant: bool) -> Self {
        RecoverableTas {
            ann: (0..n)
                .map(|_| mem.alloc("rtas.ann", Value::int(0)))
                .collect(),
            winner: mem.alloc("rtas.winner", Value::int(0)),
            mutant,
        }
    }
}

impl SimObject<TasSpec, TasSwitch> for RecoverableTas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        _switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        match req.op {
            TasOp::TestAndSet => Box::new(RtasOp {
                ann: self.ann[req.proc.index()],
                winner: self.winner,
                proc: req.proc,
                pc: 0,
            }),
            TasOp::Reset => panic!("RecoverableTas does not implement Reset"),
        }
    }

    fn recover(
        &mut self,
        _mem: &mut SharedMemory,
        proc: ProcessId,
        interrupted: Option<&Request<TasSpec>>,
    ) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        // A crash between operations leaves nothing to resolve.
        let req = interrupted?;
        debug_assert_eq!(req.proc, proc);
        match req.op {
            TasOp::TestAndSet if self.mutant => Some(Box::new(RtasMutantRecover {
                winner: self.winner,
                proc,
                done: false,
            })),
            TasOp::TestAndSet => Some(Box::new(RtasRecover {
                winner: self.winner,
                proc,
                done: false,
            })),
            TasOp::Reset => None,
        }
    }

    fn name(&self) -> &'static str {
        if self.mutant {
            "recoverable TAS (blind-winner recovery mutant)"
        } else {
            "recoverable TAS"
        }
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // All mutable state lives in the shared registers.
        Some(ObjectSnapshot::stateless())
    }
}

/// The claim code a process installs in the winner register (`0` = unclaimed;
/// process indices shift by one so index 0 is distinguishable).
fn claim(p: ProcessId) -> i64 {
    p.index() as i64 + 1
}

/// `TestAndSet`: announce, then CAS-claim the winner register.
#[derive(Clone, Copy)]
struct RtasOp {
    ann: RegId,
    winner: RegId,
    proc: ProcessId,
    pc: u8,
}

impl OpExecution<TasSpec, TasSwitch> for RtasOp {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        match self.pc {
            0 => {
                mem.write(self.proc, self.ann, Value::int(1));
                self.pc = 1;
                StepOutcome::Continue
            }
            _ => {
                let prev = mem
                    .compare_and_swap(
                        self.proc,
                        self.winner,
                        Value::int(0),
                        Value::int(claim(self.proc)),
                    )
                    .as_int();
                let resp = if prev == 0 {
                    TasResp::Winner
                } else {
                    TasResp::Loser
                };
                StepOutcome::Done(OpOutcome::Commit(resp))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            0 => Footprint::Write(self.ann),
            _ => Footprint::Write(self.winner),
        }
    }
}

/// Correct recovery: re-run the claim CAS and read off ownership. The
/// register holding this process's claim — installed before the crash or by
/// this very CAS — means the interrupted operation won; any other owner
/// means it lost. One durable step, always resolves.
#[derive(Clone, Copy)]
struct RtasRecover {
    winner: RegId,
    proc: ProcessId,
    done: bool,
}

impl OpExecution<TasSpec, TasSwitch> for RtasRecover {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        self.done = true;
        let prev = mem
            .compare_and_swap(
                self.proc,
                self.winner,
                Value::int(0),
                Value::int(claim(self.proc)),
            )
            .as_int();
        let mine = prev == 0 || prev == claim(self.proc);
        let resp = if mine {
            TasResp::Winner
        } else {
            TasResp::Loser
        };
        StepOutcome::Done(OpOutcome::Commit(resp))
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        Footprint::Write(self.winner)
    }
}

/// The seeded mutant's recovery: re-claims the register but commits
/// `Winner` without looking at the CAS result — two winners whenever the
/// other process won while this one was down.
#[derive(Clone, Copy)]
struct RtasMutantRecover {
    winner: RegId,
    proc: ProcessId,
    done: bool,
}

impl OpExecution<TasSpec, TasSwitch> for RtasMutantRecover {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        self.done = true;
        mem.compare_and_swap(
            self.proc,
            self.winner,
            Value::int(0),
            Value::int(claim(self.proc)),
        );
        StepOutcome::Done(OpOutcome::Commit(TasResp::Winner))
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        Footprint::Write(self.winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_spec::RequestId;

    fn req(id: u64, p: usize) -> Request<TasSpec> {
        Request {
            id: RequestId(id),
            proc: ProcessId(p),
            op: TasOp::TestAndSet,
        }
    }

    #[test]
    fn first_claim_wins_and_the_rest_lose() {
        let mut mem = SharedMemory::new();
        let mut tas = RecoverableTas::new(&mut mem, 2);
        let mut e0 = tas.invoke(&mut mem, req(1, 0), None);
        let mut e1 = tas.invoke(&mut mem, req(2, 1), None);
        assert!(matches!(e0.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(e1.step(&mut mem), StepOutcome::Continue));
        match e0.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Winner)) => {}
            other => panic!("unexpected {other:?}"),
        }
        match e1.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Loser)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovery_revalidates_ownership_from_the_durable_register() {
        let mut mem = SharedMemory::new();
        let mut tas = RecoverableTas::new(&mut mem, 2);
        // p0 announces and claims, then "crashes" before observing the CAS
        // result: its recovery must still resolve Winner from the register.
        let r0 = req(1, 0);
        let mut e0 = tas.invoke(&mut mem, r0.clone(), None);
        assert!(matches!(e0.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(e0.step(&mut mem), StepOutcome::Done(_)));
        let mut rec = tas
            .recover(&mut mem, ProcessId(0), Some(&r0))
            .expect("an interrupted test-and-set has a recovery routine");
        match rec.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Winner)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // p1 crashed before its CAS: recovery runs the claim itself and
        // resolves Loser against p0's installed ownership.
        let r1 = req(2, 1);
        let _e1 = tas.invoke(&mut mem, r1.clone(), None);
        let mut rec1 = tas
            .recover(&mut mem, ProcessId(1), Some(&r1))
            .expect("recovery routine");
        match rec1.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Loser)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // A crash between operations has nothing to resolve.
        assert!(tas.recover(&mut mem, ProcessId(1), None).is_none());
    }

    #[test]
    fn mutant_recovery_manufactures_a_second_winner() {
        let mut mem = SharedMemory::new();
        let mut tas = RecoverableTas::new_mutant(&mut mem, 2);
        // p1 wins outright.
        let mut e1 = tas.invoke(&mut mem, req(2, 1), None);
        assert!(matches!(e1.step(&mut mem), StepOutcome::Continue));
        match e1.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Winner)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // p0 crashed before its CAS; the blind recovery commits Winner
        // anyway — the seeded two-winner bug.
        let r0 = req(1, 0);
        let _e0 = tas.invoke(&mut mem, r0.clone(), None);
        let mut rec = tas
            .recover(&mut mem, ProcessId(0), Some(&r0))
            .expect("recovery routine");
        match rec.step(&mut mem) {
            StepOutcome::Done(OpOutcome::Commit(TasResp::Winner)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
