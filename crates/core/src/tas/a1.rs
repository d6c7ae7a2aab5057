//! Module A1: the obstruction-free test-and-set module (Algorithm 1).
//!
//! Four shared registers are used: `aborted` (has this instance been
//! abandoned?), `V` (the current value of the object), and `P` and `S`
//! (a two-register race used to detect concurrent participants, in the style
//! of a splitter). Every code path performs a constant number of
//! shared-memory steps — at most 9 — and the module guarantees (Lemma 6)
//! that it never aborts in the absence of step contention.
//!
//! Switch values follow Definition 3: an abort with `W` means the object may
//! still be unwon from the aborting process's point of view; `L` means the
//! aborting request has lost. A process *entering* the module with value `L`
//! (having already lost in a previous module) commits `loser` immediately
//! after the initial reads.

use scl_sim::{
    Footprint, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory, SimObject, StepOutcome,
    Value,
};
use scl_spec::{ProcessId, Request, TasOp, TasResp, TasSpec, TasSwitch};

/// Which variant of the module to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum A1Variant {
    /// Algorithm 1 as published: processes first check the `aborted` flag
    /// and abort if the instance has already been abandoned (a process may
    /// therefore abort because *another* process experienced step
    /// contention).
    #[default]
    Standard,
    /// The Appendix B solo-fast variant: the entry check of the `aborted`
    /// flag is removed, so a process reverts to the next module only when it
    /// itself experiences step contention.
    SoloFast,
    /// A deliberately broken mutant used as a seeded bug by the explorer's
    /// soundness tests: the final read of `aborted` after writing `V` — the
    /// read the RAW fence of the analysis pays for (line 15) — is dropped,
    /// so a process commits `winner` immediately after `V ← 1`. A
    /// concurrent process that already detected contention may then abort
    /// with `W` although a winner committed (violating Invariant 2), and in
    /// the composition `A1 ∘ A2` that process goes on to win the hardware
    /// object: two winners. **Never use outside explorer tests.**
    DroppedRawFence,
}

/// The obstruction-free test-and-set module A1.
#[derive(Debug, Clone, Copy)]
pub struct A1Tas {
    aborted: RegId,
    v: RegId,
    p: RegId,
    s: RegId,
    variant: A1Variant,
}

impl A1Tas {
    /// Allocates a fresh instance of the standard module.
    pub fn new(mem: &mut SharedMemory) -> Self {
        Self::with_variant(mem, A1Variant::Standard)
    }

    /// Allocates a fresh instance of the requested variant.
    pub fn with_variant(mem: &mut SharedMemory, variant: A1Variant) -> Self {
        A1Tas {
            aborted: mem.alloc("a1.aborted", Value::FALSE),
            v: mem.alloc("a1.V", Value::int(0)),
            p: mem.alloc("a1.P", Value::NULL),
            s: mem.alloc("a1.S", Value::NULL),
            variant,
        }
    }

    /// The variant this instance runs.
    pub fn variant(&self) -> A1Variant {
        self.variant
    }

    /// Number of shared registers the module uses (constant space).
    pub const REGISTERS: usize = 4;

    /// Upper bound on the number of shared-memory steps of any operation
    /// (constant step complexity).
    pub const MAX_STEPS: u64 = 9;
}

/// Program counter of an A1 operation; each state performs exactly one
/// shared-memory step. Line numbers refer to Algorithm 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// Line 4: read `aborted`.
    ReadAborted,
    /// Lines 5–6: the instance was abandoned; read `V` to decide the switch
    /// value.
    ReadVForAbort,
    /// Line 7: read `V`.
    ReadV,
    /// Line 9: read `P`.
    ReadP,
    /// Line 10: write `P ← i`.
    WriteP,
    /// Line 11: read `S`.
    ReadS,
    /// Line 12: write `S ← i`.
    WriteS,
    /// Line 13: re-read `P`.
    RecheckP,
    /// Line 14: write `V ← 1`.
    WriteV,
    /// Line 15: final read of `aborted`.
    FinalAbortedCheck,
    /// Line 19: write `aborted ← true` (contention detected).
    SetAborted,
    /// Lines 20–23: read `V` after detecting contention.
    ReadVAfterContention,
}

/// An A1 operation in progress.
#[derive(Clone, Copy)]
pub struct A1Exec {
    regs: A1Tas,
    proc: ProcessId,
    entered_with: Option<TasSwitch>,
    pc: Pc,
}

impl OpExecution<TasSpec, TasSwitch> for A1Exec {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        use OpOutcome::{Abort, Commit};
        use StepOutcome::{Continue, Done};
        let p = self.proc;
        match self.pc {
            Pc::ReadAborted => {
                if mem.read(p, self.regs.aborted).as_bool() {
                    self.pc = Pc::ReadVForAbort;
                } else {
                    self.pc = Pc::ReadV;
                }
                Continue
            }
            Pc::ReadVForAbort => {
                let v = mem.read(p, self.regs.v).as_int();
                if v == 0 {
                    Done(Abort(TasSwitch::W))
                } else {
                    Done(Abort(TasSwitch::L))
                }
            }
            Pc::ReadV => {
                let v = mem.read(p, self.regs.v).as_int();
                if v == 1 || self.entered_with == Some(TasSwitch::L) {
                    Done(Commit(TasResp::Loser))
                } else {
                    self.pc = Pc::ReadP;
                    Continue
                }
            }
            Pc::ReadP => {
                if mem.read(p, self.regs.p).as_opt_proc().is_some() {
                    Done(Commit(TasResp::Loser))
                } else {
                    self.pc = Pc::WriteP;
                    Continue
                }
            }
            Pc::WriteP => {
                mem.write(p, self.regs.p, Value::proc(p));
                self.pc = Pc::ReadS;
                Continue
            }
            Pc::ReadS => {
                if mem.read(p, self.regs.s).as_opt_proc().is_some() {
                    Done(Commit(TasResp::Loser))
                } else {
                    self.pc = Pc::WriteS;
                    Continue
                }
            }
            Pc::WriteS => {
                mem.write(p, self.regs.s, Value::proc(p));
                self.pc = Pc::RecheckP;
                Continue
            }
            Pc::RecheckP => {
                if mem.read(p, self.regs.p).as_opt_proc() == Some(p) {
                    self.pc = Pc::WriteV;
                } else {
                    self.pc = Pc::SetAborted;
                }
                Continue
            }
            Pc::WriteV => {
                mem.write(p, self.regs.v, Value::int(1));
                if self.regs.variant == A1Variant::DroppedRawFence {
                    // Seeded bug: skip the final `aborted` check (the
                    // RAW-fenced read) and commit straight away.
                    return Done(Commit(TasResp::Winner));
                }
                self.pc = Pc::FinalAbortedCheck;
                Continue
            }
            Pc::FinalAbortedCheck => {
                if mem.read(p, self.regs.aborted).as_bool() {
                    Done(Abort(TasSwitch::W))
                } else {
                    Done(Commit(TasResp::Winner))
                }
            }
            Pc::SetAborted => {
                mem.write(p, self.regs.aborted, Value::TRUE);
                self.pc = Pc::ReadVAfterContention;
                Continue
            }
            Pc::ReadVAfterContention => {
                let v = mem.read(p, self.regs.v).as_int();
                if v == 1 {
                    Done(Commit(TasResp::Loser))
                } else {
                    Done(Abort(TasSwitch::W))
                }
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            Pc::ReadAborted | Pc::FinalAbortedCheck => Footprint::Read(self.regs.aborted),
            Pc::ReadVForAbort | Pc::ReadV | Pc::ReadVAfterContention => {
                Footprint::Read(self.regs.v)
            }
            Pc::ReadP | Pc::RecheckP => Footprint::Read(self.regs.p),
            Pc::WriteP => Footprint::Write(self.regs.p),
            Pc::ReadS => Footprint::Read(self.regs.s),
            Pc::WriteS => Footprint::Write(self.regs.s),
            Pc::WriteV => Footprint::Write(self.regs.v),
            Pc::SetAborted => Footprint::Write(self.regs.aborted),
        }
    }
}

impl SimObject<TasSpec, TasSwitch> for A1Tas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        match req.op {
            TasOp::TestAndSet => {
                let start = match self.variant {
                    A1Variant::Standard | A1Variant::DroppedRawFence => Pc::ReadAborted,
                    A1Variant::SoloFast => Pc::ReadV,
                };
                Box::new(A1Exec {
                    regs: *self,
                    proc: req.proc,
                    entered_with: switch,
                    pc: start,
                })
            }
            // The one-shot module does not implement reset; the long-lived
            // wrapper (Algorithm 2) handles it by moving to a fresh instance.
            TasOp::Reset => Box::new(scl_sim::ImmediateOutcome::new(OpOutcome::Commit(
                TasResp::ResetDone,
            ))),
        }
    }

    fn name(&self) -> &'static str {
        "A1 (obstruction-free)"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // A1's entire state lives in its four shared registers.
        Some(ObjectSnapshot::stateless())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{
        explore_schedules, Executor, ExploreConfig, InvokeAllThenSequential, RandomAdversary,
        RoundRobinAdversary, SoloAdversary, Workload,
    };
    use scl_spec::{
        check_linearizable, find_valid_interpretation, TasConstraint, TasOp, TasResp, TasSpec,
    };

    type Wl = Workload<TasSpec, TasSwitch>;

    fn run_with(
        n: usize,
        adversary: &mut dyn scl_sim::Adversary,
    ) -> (scl_sim::ExecutionResult<TasSpec, TasSwitch>, SharedMemory) {
        let mut mem = SharedMemory::new();
        let mut a1 = A1Tas::new(&mut mem);
        let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut a1, &wl, adversary);
        (res, mem)
    }

    #[test]
    fn solo_execution_wins_in_constant_steps_with_registers_only() {
        let (res, mem) = run_with(1, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.trace().commits()[0].1, TasResp::Winner);
        let op = &res.metrics.ops[0];
        assert_eq!(op.steps, A1Tas::MAX_STEPS);
        assert_eq!(op.rmws, 0, "A1 must not use read-modify-write primitives");
        assert_eq!(mem.max_required_consensus_number(), Some(1));
        assert_eq!(mem.register_count(), A1Tas::REGISTERS);
    }

    #[test]
    fn sequential_processes_get_one_winner_rest_losers() {
        let (res, _) = run_with(4, &mut SoloAdversary);
        assert!(res.completed);
        let commits = res.trace().commits();
        assert_eq!(commits.len(), 4);
        assert_eq!(
            commits
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count(),
            1
        );
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
    }

    #[test]
    fn never_aborts_without_step_contention_lemma6() {
        // Under the invoke-all-then-sequential adversary the first operation
        // to run is step-contention free and must therefore not abort.
        for n in 2..=5 {
            let (res, _) = run_with(n, &mut InvokeAllThenSequential);
            for op in &res.metrics.ops {
                if op.step_contention_free() {
                    assert!(!op.aborted, "step-contention-free op aborted (n={n})");
                }
            }
        }
    }

    #[test]
    fn round_robin_contention_leads_to_aborts_not_safety_violations() {
        let (res, _) = run_with(3, &mut RoundRobinAdversary::default());
        assert!(res.completed);
        // Under heavy step contention some operation aborts.
        assert!(res.metrics.aborted_count() > 0);
        // At most one process committed winner (Invariant 1).
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert!(winners <= 1);
        // The committed projection stays linearizable and the whole trace is
        // certifiably safely composable.
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
        assert!(find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable());
    }

    #[test]
    fn step_complexity_is_constant_under_any_adversary() {
        for seed in 0..20 {
            let (res, _) = run_with(4, &mut RandomAdversary::new(seed));
            assert!(res.completed);
            for op in &res.metrics.ops {
                assert!(op.steps <= A1Tas::MAX_STEPS, "op took {} steps", op.steps);
            }
        }
    }

    #[test]
    fn entering_with_l_commits_loser_quickly() {
        let mut mem = SharedMemory::new();
        let mut a1 = A1Tas::new(&mut mem);
        let wl: Wl = Workload {
            ops: vec![vec![(TasOp::TestAndSet, Some(TasSwitch::L))]],
        };
        let res = Executor::new().run(&mut mem, &mut a1, &wl, &mut SoloAdversary);
        assert_eq!(res.trace().commits()[0].1, TasResp::Loser);
        assert!(res.metrics.ops[0].steps <= 2);
    }

    #[test]
    fn all_interleavings_of_two_processes_are_safe_and_composable() {
        let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
        let outcome = explore_schedules(A1Tas::new, &wl, &ExploreConfig::default(), |res, _mem| {
            if !res.completed {
                return Err("did not complete".into());
            }
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            if winners > 1 {
                return Err("two winners".into());
            }
            let w_aborts = res
                .trace()
                .abort_tokens()
                .iter()
                .filter(|(_, v)| *v == TasSwitch::W)
                .count();
            if winners == 1 && w_aborts > 0 {
                return Err(
                    "winner committed but some process aborted with W (Invariant 2)".into(),
                );
            }
            if !check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable() {
                return Err("commit projection not linearizable".into());
            }
            if !find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable() {
                return Err("no valid interpretation (Definition 2)".into());
            }
            Ok(())
        })
        .expect("A1 must be safe under every interleaving");
        assert!(outcome.schedules() > 10);
    }

    #[test]
    fn solo_fast_variant_skips_entry_check() {
        let mut mem = SharedMemory::new();
        let mut a1 = A1Tas::with_variant(&mut mem, A1Variant::SoloFast);
        assert_eq!(a1.variant(), A1Variant::SoloFast);
        let wl: Wl = Workload::single_op_each(1, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut a1, &wl, &mut SoloAdversary);
        // One fewer step than the standard variant: the entry read of
        // `aborted` is gone.
        assert_eq!(res.metrics.ops[0].steps, A1Tas::MAX_STEPS - 1);
        assert_eq!(res.trace().commits()[0].1, TasResp::Winner);
    }

    #[test]
    fn reset_on_one_shot_module_is_a_harmless_noop() {
        let mut mem = SharedMemory::new();
        let mut a1 = A1Tas::new(&mut mem);
        let wl: Wl = Workload {
            ops: vec![vec![(TasOp::Reset, None)]],
        };
        let res = Executor::new().run(&mut mem, &mut a1, &wl, &mut SoloAdversary);
        assert_eq!(res.trace().commits()[0].1, TasResp::ResetDone);
    }
}
