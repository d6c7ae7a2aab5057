//! The module-composition combinator (§5.2, Theorem 2).
//!
//! Two modules are composed by using the aborts of the first module as
//! initialisation values for the second: a process starts executing the
//! first module, and if the first module aborts with switch value `v`, the
//! process continues the *same request* in the second module initialised
//! with `v`. If the second module commits, the composition commits; if the
//! second module aborts, the composition aborts (and can be composed
//! further).
//!
//! [`Composed`] implements this combinator for any two [`SimObject`]s over
//! the same object type and switch-value set. Theorem 2 of the paper
//! guarantees that if both components are safely composable implementations
//! with respect to the same constraint function, so is the composition; the
//! test-suites check this on recorded traces with
//! [`scl_spec::find_valid_interpretation`].

use scl_sim::{
    Footprint, ObjectSnapshot, OpExecution, OpOutcome, SharedMemory, SimObject, StepOutcome,
};
use scl_spec::{Request, SequentialSpec};
use std::cell::Cell;
use std::fmt::Debug;
use std::hash::Hash;
use std::rc::Rc;

/// The composition of two modules: `first` runs speculatively, `second`
/// takes over (initialised with the first module's switch value) when the
/// first aborts.
#[derive(Debug, Clone)]
pub struct Composed<A, B> {
    /// The speculative (first) module.
    pub first: A,
    /// The back-up (second) module.
    pub second: B,
    switches: Rc<Cell<u64>>,
}

impl<A, B> Composed<A, B> {
    /// Composes two modules.
    pub fn new(first: A, second: B) -> Self {
        Composed {
            first,
            second,
            switches: Rc::new(Cell::new(0)),
        }
    }

    /// Number of operations that switched from the first to the second
    /// module so far (i.e. how often the speculation failed).
    pub fn switch_count(&self) -> u64 {
        self.switches.get()
    }

    /// Rewinds the switch counter to `switches`. The counter cell is shared
    /// with every in-flight operation of this composition, so they all see
    /// the rewound value.
    pub(crate) fn rewind_switch_count(&self, switches: u64) {
        self.switches.set(switches);
    }
}

enum Phase<S: SequentialSpec, V> {
    First(Box<dyn OpExecution<S, V>>),
    Second(Box<dyn OpExecution<S, V>>),
}

struct ComposedExec<S: SequentialSpec, V, B> {
    second: B,
    req: Request<S>,
    phase: Phase<S, V>,
    switches: Rc<Cell<u64>>,
}

impl<S, V, B> OpExecution<S, V> for ComposedExec<S, V, B>
where
    S: SequentialSpec + 'static,
    V: Clone + Eq + Hash + Debug + 'static,
    B: SimObject<S, V> + Clone + 'static,
{
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<S, V> {
        match &mut self.phase {
            Phase::First(exec) => match exec.step(mem) {
                StepOutcome::Continue => StepOutcome::Continue,
                StepOutcome::Done(OpOutcome::Commit(resp)) => {
                    StepOutcome::Done(OpOutcome::Commit(resp))
                }
                StepOutcome::Done(OpOutcome::Abort(v)) => {
                    // Switch: the same request continues in the second
                    // module, initialised with the switch value. The switch
                    // itself takes no shared-memory step.
                    self.switches.set(self.switches.get() + 1);
                    let exec2 = self.second.invoke(mem, self.req.clone(), Some(v));
                    self.phase = Phase::Second(exec2);
                    StepOutcome::Continue
                }
            },
            Phase::Second(exec) => exec.step(mem),
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<S, V>>> {
        let phase = match &self.phase {
            Phase::First(exec) => Phase::First(exec.fork()?),
            Phase::Second(exec) => Phase::Second(exec.fork()?),
        };
        Some(Box::new(ComposedExec {
            second: self.second.clone(),
            req: self.req.clone(),
            phase,
            switches: Rc::clone(&self.switches),
        }))
    }

    fn next_footprint(&self) -> Footprint {
        match &self.phase {
            Phase::First(exec) | Phase::Second(exec) => exec.next_footprint(),
        }
    }
}

/// Snapshot of a [`Composed`] object: the switch counter plus the component
/// snapshots.
struct ComposedSnap {
    switches: u64,
    first: ObjectSnapshot,
    second: ObjectSnapshot,
}

impl<S, V, A, B> SimObject<S, V> for Composed<A, B>
where
    S: SequentialSpec + 'static,
    V: Clone + Eq + Hash + Debug + 'static,
    A: SimObject<S, V>,
    B: SimObject<S, V> + Clone + 'static,
{
    fn invoke(
        &mut self,
        mem: &mut SharedMemory,
        req: Request<S>,
        switch: Option<V>,
    ) -> Box<dyn OpExecution<S, V>> {
        // An init value supplied to the composition initialises the *first*
        // module (module A1 accepts W/L switch values; see Definition 3).
        let first_exec = self.first.invoke(mem, req.clone(), switch);
        Box::new(ComposedExec {
            second: self.second.clone(),
            req,
            phase: Phase::First(first_exec),
            switches: Rc::clone(&self.switches),
        })
    }

    fn name(&self) -> &'static str {
        "composed"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        Some(ObjectSnapshot::new(ComposedSnap {
            switches: self.switches.get(),
            first: self.first.snapshot()?,
            second: self.second.snapshot()?,
        }))
    }

    fn restore(&mut self, snap: &ObjectSnapshot) {
        let s = snap.downcast::<ComposedSnap>();
        self.rewind_switch_count(s.switches);
        self.first.restore(&s.first);
        self.second.restore(&s.second);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{Executor, ImmediateOutcome, SoloAdversary, Value, Workload};
    use scl_spec::{TasOp, TasResp, TasSpec, TasSwitch};

    /// A module that always aborts with W without taking a step.
    #[derive(Clone)]
    struct AlwaysAbort;
    impl SimObject<TasSpec, TasSwitch> for AlwaysAbort {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            _req: Request<TasSpec>,
            _switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            Box::new(ImmediateOutcome::new(OpOutcome::Abort(TasSwitch::W)))
        }
    }

    /// A hardware-TAS backed module that wins/loses on a swap; entering with
    /// L loses immediately.
    #[derive(Clone)]
    struct HwTas {
        flag: scl_sim::RegId,
    }
    struct HwTasOp {
        flag: scl_sim::RegId,
        proc: scl_spec::ProcessId,
    }
    impl OpExecution<TasSpec, TasSwitch> for HwTasOp {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
            let prev = mem.test_and_set(self.proc, self.flag);
            StepOutcome::Done(OpOutcome::Commit(if prev {
                TasResp::Loser
            } else {
                TasResp::Winner
            }))
        }
    }
    impl SimObject<TasSpec, TasSwitch> for HwTas {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            req: Request<TasSpec>,
            switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            if switch == Some(TasSwitch::L) {
                return Box::new(ImmediateOutcome::new(OpOutcome::Commit(TasResp::Loser)));
            }
            Box::new(HwTasOp {
                flag: self.flag,
                proc: req.proc,
            })
        }
    }

    #[test]
    fn composition_switches_to_second_module_on_abort() {
        let mut mem = SharedMemory::new();
        let flag = mem.alloc("hw", Value::FALSE);
        let mut composed = Composed::new(AlwaysAbort, HwTas { flag });
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut composed, &wl, &mut SoloAdversary);
        assert!(res.completed);
        // Both requests committed via the second module; exactly one winner.
        let commits = res.trace().commits();
        assert_eq!(commits.len(), 2);
        let winners = commits
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1);
        assert_eq!(composed.switch_count(), 2);
    }

    #[test]
    fn composition_propagates_second_module_abort() {
        let mut composed = Composed::new(AlwaysAbort, AlwaysAbort);
        let mut mem = SharedMemory::new();
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(1, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut composed, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 1);
        assert_eq!(res.trace().abort_tokens().len(), 1);
    }

    #[test]
    fn init_value_reaches_first_module() {
        // Composing HwTas with HwTas: an L init makes the first module lose
        // immediately without steps.
        let mut mem = SharedMemory::new();
        let flag1 = mem.alloc("hw1", Value::FALSE);
        let flag2 = mem.alloc("hw2", Value::FALSE);
        let mut composed = Composed::new(HwTas { flag: flag1 }, HwTas { flag: flag2 });
        let wl: Workload<TasSpec, TasSwitch> = Workload {
            ops: vec![vec![(TasOp::TestAndSet, Some(TasSwitch::L))]],
        };
        let res = Executor::new().run(&mut mem, &mut composed, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(res.trace().commits()[0].1, TasResp::Loser);
        assert_eq!(res.metrics.ops[0].steps, 0);
        assert_eq!(composed.switch_count(), 0);
    }
}
