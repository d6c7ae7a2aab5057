//! The premise of the sleep-set wake rule: a transition's predicted label
//! over-approximates the label it gets when it runs.
//!
//! The explorer wakes a sleeping transition `t` when the executed
//! transition is dependent with `pending_label(t)` under the race relation
//! (`StepLabel::dependent`). That is sound only if whatever `t` turns out to
//! be dependent with, its prediction is dependent with too. These tests walk
//! random reachable nodes of a TAS object, an ABD register with message
//! drops, and crash and crash-recovery objects. At every node they take
//! every enabled transition but restarts — each step, its crash, each
//! delivery and its drop — and check against the label `A` it gets when
//! executed there, for the prediction `P`:
//!
//! * both name the same happens-before thread;
//! * `A.invoked ⇒ P.invoked` and `A.responded ⇒ P.responded`;
//! * every probe footprint dependent with `A.footprint` is dependent with
//!   `P.footprint`, over `Read`/`Write` of every live register (the network's
//!   virtual registers included), `Pure` and `Unknown`.
//!
//! A register is live here unless it is the item cell of a slot that holds
//! no message at the node. Slots are never reused, so such a cell belongs to
//! a message delivered or dropped already, or to one not yet sent, and only
//! the send that will create that message can write it. A send predicts only
//! the slot-allocation register, which every send writes, and executes the
//! write set `{allocation register, item cell of its new slot}`: the cell
//! adds no dependence with any transition that can run while the send
//! sleeps.

use scl::core::{
    new_speculative_tas, AbdRegister, RecoverableTas, WbRecovery, WriteBehindRegister,
};
use scl::sim::explore::{pending_label, step_label};
use scl::sim::{
    ExecSession, Executor, Footprint, RegId, SharedMemory, SimObject, SplitMix64, StepKind,
    SurveyStatus, Workload,
};
use scl::spec::{ProcessId, RegisterOp, RegisterSpec, SequentialSpec, TasOp, TasSpec, TasSwitch};
use std::fmt::Debug;
use std::hash::Hash;

/// Walks per object.
const WALKS: u64 = 100;

/// Rebuilds the object and replays `path`, leaving the session surveyed at
/// the node after it.
fn replay<S, V, O>(
    setup: &dyn Fn(&mut SharedMemory) -> O,
    wl: &Workload<S, V>,
    path: &[ProcessId],
) -> (SharedMemory, ExecSession<S, V>, O, SurveyStatus)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let executor = Executor::new();
    let mut mem = SharedMemory::new();
    let mut object = setup(&mut mem);
    let mut session = ExecSession::new();
    executor.begin(&mut session, wl);
    for &id in path {
        assert_eq!(
            executor.survey(&mut session, &mem, wl),
            SurveyStatus::Choose
        );
        executor.tick(&mut session, &mut mem, &mut object, wl, id);
    }
    let status = executor.survey(&mut session, &mem, wl);
    (mem, session, object, status)
}

/// The transitions schedulable at the surveyed node: every enabled step and
/// delivery, the crash of each step while `crashes` lasts, the drop of each
/// delivery while `drops` lasts, and the restart of each crashed process
/// while `restarts` lasts.
fn candidates<S, V>(
    session: &ExecSession<S, V>,
    n: usize,
    cap: usize,
    budgets: [usize; 3],
) -> Vec<ProcessId>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    let [crashes, drops, restarts] = budgets;
    let mut ids = Vec::new();
    for &id in session.enabled() {
        ids.push(id);
        match StepKind::decode(id, n, cap) {
            StepKind::Step(p) if crashes > 0 => ids.push(StepKind::Crash(p).encode(n, cap)),
            StepKind::Deliver(s) if drops > 0 => ids.push(StepKind::Drop(s).encode(n, cap)),
            _ => {}
        }
    }
    if restarts > 0 {
        let mut crashed = session.crashed_now();
        while crashed != 0 {
            let p = crashed.trailing_zeros() as usize;
            crashed &= crashed - 1;
            ids.push(StepKind::Restart(ProcessId(p)).encode(n, cap));
        }
    }
    ids
}

/// Checks the premise for every non-restart candidate at the node after
/// `path`; returns the candidates and how many were checked.
fn check_node<S, V, O>(
    setup: &dyn Fn(&mut SharedMemory) -> O,
    wl: &Workload<S, V>,
    path: &[ProcessId],
    budgets: [usize; 3],
) -> Option<(Vec<ProcessId>, usize)>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let n = wl.processes();
    let (mem, session, _, status) = replay(setup, wl, path);
    if status != SurveyStatus::Choose {
        return None;
    }
    let cap = mem.net_cap();
    let ids = candidates(&session, n, cap, budgets);
    // Empty slots' item cells are not probed: only the send that creates a
    // slot's message writes its cell (slots are never reused), the argument
    // stated at `AbdOp::next_footprint` in `scl_core::network`.
    let unborn_or_spent: Vec<RegId> = (0..cap)
        .filter(|&s| mem.net_slot(s).is_none())
        .map(|s| mem.net_slot_item_reg(s))
        .collect();
    let mut checked = 0;
    for &t in &ids {
        let Some(predicted) = pending_label(&session, &mem, t, n) else {
            assert!(matches!(StepKind::decode(t, n, cap), StepKind::Restart(_)));
            continue;
        };
        let (mut mem, mut session, mut object, _) = replay(setup, wl, path);
        Executor::new().tick(&mut session, &mut mem, &mut object, wl, t);
        let actual = step_label(&session, t, n, cap);
        let at = format!(
            "{} after {path:?}: predicted {predicted:?}, executed {actual:?}",
            StepKind::decode(t, n, cap).describe()
        );
        assert_eq!(actual.proc, predicted.proc, "thread differs: {at}");
        assert!(
            !actual.invoked || predicted.invoked,
            "unpredicted invocation: {at}"
        );
        assert!(
            !actual.responded || predicted.responded,
            "unpredicted response: {at}"
        );
        let registers = (0..mem.register_count())
            .map(RegId)
            .filter(|r| !unborn_or_spent.contains(r));
        let probes = registers
            .flat_map(|r| [Footprint::Read(r), Footprint::Write(r)])
            .chain([Footprint::Pure, Footprint::Unknown]);
        for probe in probes {
            assert!(
                !probe.dependent(actual.footprint) || probe.dependent(predicted.footprint),
                "{probe:?} is dependent with the executed footprint only: {at}"
            );
        }
        checked += 1;
    }
    Some((ids, checked))
}

/// Walks `WALKS` random maximal paths from the root, checking the premise
/// at every node, with fault budgets `[crashes, drops, restarts]` per path.
/// Returns how many transitions were checked.
fn walk<S, V, O>(
    setup: &dyn Fn(&mut SharedMemory) -> O,
    wl: &Workload<S, V>,
    budgets: [usize; 3],
) -> usize
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let n = wl.processes();
    let cap = replay(setup, wl, &[]).0.net_cap();
    let mut checked = 0;
    for seed in 0..WALKS {
        let mut rng = SplitMix64::new(seed);
        let mut path = Vec::new();
        let mut left = budgets;
        while path.len() < 200 {
            let Some((ids, c)) = check_node(setup, wl, &path, left) else {
                break;
            };
            checked += c;
            let id = ids[rng.next_below(ids.len())];
            match StepKind::decode(id, n, cap) {
                StepKind::Crash(_) => left[0] -= 1,
                StepKind::Drop(_) => left[1] -= 1,
                StepKind::Restart(_) => left[2] -= 1,
                StepKind::Step(_) | StepKind::Deliver(_) => {}
            }
            path.push(id);
        }
    }
    checked
}

#[test]
fn predicted_labels_cover_executed_ones_on_a_tas_object() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    assert!(walk(&new_speculative_tas, &wl, [0, 0, 0]) > 0);
}

#[test]
fn predicted_labels_cover_executed_ones_on_abd_with_drops() {
    let wl: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    let setup = |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 2, 24, 2);
    assert!(walk(&setup, &wl, [1, 2, 0]) > 0);
}

#[test]
fn predicted_labels_cover_executed_ones_on_crash_objects() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    assert!(walk(&new_speculative_tas, &wl, [1, 0, 0]) > 0);
    let wl: Workload<RegisterSpec, ()> = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    assert!(walk(&WriteBehindRegister::new, &wl, [1, 0, 0]) > 0);
}

#[test]
fn predicted_labels_cover_executed_ones_on_recovery_objects() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let setup = |mem: &mut SharedMemory| RecoverableTas::new(mem, 2);
    assert!(walk(&setup, &wl, [2, 0, 2]) > 0);
    let wl: Workload<RegisterSpec, ()> = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    for recovery in [WbRecovery::Flush, WbRecovery::Abandon] {
        let setup = move |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, recovery);
        assert!(walk(&setup, &wl, [2, 0, 2]) > 0);
    }
}
