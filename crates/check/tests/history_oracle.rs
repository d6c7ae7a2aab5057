//! Oracle for the per-trace real-time walk (`scl_check::bridge`): plain
//! source DPOR plus a walk over the linear extensions of each explored
//! trace's history must reach exactly the (history, verdict) pairs that full
//! enumeration reaches.
//!
//! A signature is every operation's outcome, the crashed and restarted
//! masks, the real-time relation (which response, crash gate or deadline
//! precedes which invocation) and the verdict of that history. Under
//! `Reduction::Off` each schedule contributes its own history. Under source
//! DPOR each explored schedule contributes every linear extension of its
//! history events under happens-before (`LinMonitor::history`), each
//! decided by the from-scratch checker; the monitor's own verdict, from the
//! fast path, the memo or the pruned walk, must fail exactly when one of
//! them fails. Both checker modes must give the same verdict on every
//! schedule.

use scl_check::{CheckConfig, CheckerMode, CrashedPending, HistoryEvent, LinMonitor};
use scl_core::{new_speculative_tas, AbdRegister, RecoverableTas, WbRecovery, WriteBehindRegister};
use scl_sim::{
    explore_schedules, explore_schedules_monitored_observed_report, ExecutionResult, ExploreConfig,
    ExploreOutcome, NoObserver, ObjectSnapshot, OpExecution, OpOutcome, Reduction, RegId,
    ResumeMode, SharedMemory, SimObject, StepOutcome, Value, Workload,
};
use scl_spec::{
    check_linearizable, check_strict_linearizable, ConcurrentHistory, RegisterOp, RegisterSpec,
    Request, SequentialSpec, TasOp, TasSpec, TasSwitch,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;
use std::hash::Hash;

const CLOSURES: [CrashedPending; 4] = [
    CrashedPending::Open,
    CrashedPending::Strict,
    CrashedPending::Durable,
    CrashedPending::Recoverable,
];

/// The n=3 composed-TAS signatures of the removed lin-preserving relation
/// (11923 schedules, each checked in its own order), recorded from it before
/// its barriers were deleted: 36 signatures over 19 real-time relations.
const N3_LIN_RELATION: [&str; 36] = [
    "r0=Loser r4294967296=Loser r8589934592=Winner |  | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr0<r4294967296 Cr8589934592<r0 Cr8589934592<r4294967296 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr0<r4294967296 Cr8589934592<r4294967296 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr0<r4294967296 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr0<r8589934592 | err",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr4294967296<r0 Cr8589934592<r0 Cr8589934592<r4294967296 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr4294967296<r0 Cr8589934592<r0 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr4294967296<r0 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr4294967296<r8589934592 | err",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr8589934592<r0 Cr8589934592<r4294967296 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr8589934592<r0 | ok",
    "r0=Loser r4294967296=Loser r8589934592=Winner | Cr8589934592<r4294967296 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser |  | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr0<r4294967296 | err",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr0<r8589934592 Cr4294967296<r0 Cr4294967296<r8589934592 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr0<r8589934592 Cr4294967296<r8589934592 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr0<r8589934592 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr4294967296<r0 Cr4294967296<r8589934592 Cr8589934592<r0 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr4294967296<r0 Cr4294967296<r8589934592 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr4294967296<r0 Cr8589934592<r0 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr4294967296<r0 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr4294967296<r8589934592 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr8589934592<r0 | ok",
    "r0=Loser r4294967296=Winner r8589934592=Loser | Cr8589934592<r4294967296 | err",
    "r0=Winner r4294967296=Loser r8589934592=Loser |  | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r4294967296 Cr0<r8589934592 Cr4294967296<r8589934592 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r4294967296 Cr0<r8589934592 Cr8589934592<r4294967296 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r4294967296 Cr0<r8589934592 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r4294967296 Cr8589934592<r4294967296 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r4294967296 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r8589934592 Cr4294967296<r8589934592 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr0<r8589934592 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr4294967296<r0 | err",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr4294967296<r8589934592 | ok",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr8589934592<r0 | err",
    "r0=Winner r4294967296=Loser r8589934592=Loser | Cr8589934592<r4294967296 | ok",
];

/// Every linear extension of the order whose predecessor rows are `preds`,
/// as index sequences.
fn extensions(preds: &[u128], done: u128, order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if order.len() == preds.len() {
        out.push(order.clone());
        return;
    }
    for (k, &p) in preds.iter().enumerate() {
        if done & 1 << k == 0 && p & !done == 0 {
            order.push(k);
            extensions(preds, done | 1 << k, order, out);
            order.pop();
        }
    }
}

/// The from-scratch verdict of the history `events` under `closure`.
fn reference_verdict<S: SequentialSpec>(
    spec: &S,
    events: &[&HistoryEvent<S>],
    closure: CrashedPending,
) -> bool {
    let mut hist = ConcurrentHistory::new();
    for (at, event) in events.iter().enumerate() {
        match event {
            HistoryEvent::Invoke(req) => hist.record_invoke(at, req.clone()),
            HistoryEvent::Commit(id, resp) => hist.record_response(at, *id, resp.clone()),
            HistoryEvent::Crash(id) | HistoryEvent::Abandon(id) => hist.record_crash(at, *id),
            HistoryEvent::Required(id) => hist.record_crash_required(at, *id),
        }
    }
    match closure {
        CrashedPending::Open => check_linearizable(spec, &hist).is_linearizable(),
        _ => check_strict_linearizable(spec, &hist).is_linearizable(),
    }
}

/// The outcome part of a signature: every operation's outcome and the
/// crashed and restarted masks.
fn outcomes<S: SequentialSpec, V>(res: &ExecutionResult<S, V>) -> String {
    let mut ops: Vec<String> = res
        .ops
        .iter()
        .map(|o| {
            let outcome = match &o.outcome {
                Some(OpOutcome::Commit(r)) => format!("{r:?}"),
                Some(OpOutcome::Abort(_)) => "abort".to_string(),
                None => "pending".to_string(),
            };
            format!("{}={outcome}", o.req.id)
        })
        .collect();
    ops.sort();
    if res.crashed | res.restarted != 0 {
        ops.push(format!(
            "crashed={:b} restarted={:b}",
            res.crashed, res.restarted
        ));
    }
    ops.join(" ")
}

/// The real-time relation of a history: which response, crash gate or
/// deadline precedes which invocation.
fn relation<S: SequentialSpec>(events: &[&HistoryEvent<S>]) -> String {
    let mut pairs = BTreeSet::new();
    for (i, event) in events.iter().enumerate() {
        let (kind, id) = match event {
            HistoryEvent::Invoke(_) => continue,
            HistoryEvent::Commit(id, _) => ('C', id),
            HistoryEvent::Crash(id) => ('G', id),
            HistoryEvent::Abandon(id) => ('A', id),
            HistoryEvent::Required(id) => ('Q', id),
        };
        for later in &events[i + 1..] {
            if let HistoryEvent::Invoke(req) = later {
                pairs.insert(format!("{kind}{id}<{}", req.id));
            }
        }
    }
    let pairs: Vec<String> = pairs.into_iter().collect();
    pairs.join(" ")
}

/// A history as its event sequence, with the responses.
fn sequence<S: SequentialSpec>(events: &[&HistoryEvent<S>]) -> String {
    let names: Vec<String> = events
        .iter()
        .map(|event| match event {
            HistoryEvent::Invoke(req) => format!("I{}", req.id),
            HistoryEvent::Commit(id, resp) => format!("C{id}={resp:?}"),
            HistoryEvent::Crash(id) => format!("G{id}"),
            HistoryEvent::Abandon(id) => format!("A{id}"),
            HistoryEvent::Required(id) => format!("Q{id}"),
        })
        .collect();
    names.join(" ")
}

/// What one exhaustive exploration reaches: the signature set, the
/// distinct event sequences (with responses), the monitor's verdict per
/// schedule, and the schedule count.
struct Reached {
    signatures: BTreeSet<String>,
    sequences: BTreeSet<String>,
    verdicts: Vec<bool>,
    schedules: u64,
}

/// Explores `wl` under `explore` with a `mode` monitor and collects every
/// history of every explored schedule (see the module docs). Panics unless
/// the monitor's verdict fails exactly when one of its histories does.
fn reach<S, V, O, F>(
    spec: S,
    setup: F,
    wl: &Workload<S, V>,
    explore: &ExploreConfig,
    closure: CrashedPending,
    mode: CheckerMode,
) -> Reached
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O,
{
    let mut reached = Reached {
        signatures: BTreeSet::new(),
        sequences: BTreeSet::new(),
        verdicts: Vec::new(),
        schedules: 0,
    };
    let mut seen: HashMap<String, bool> = HashMap::new();
    let mut monitor = LinMonitor::new(spec.clone(), mode).with_crashed_pending(closure);
    let report = explore_schedules_monitored_observed_report(
        setup,
        wl,
        explore,
        &mut monitor,
        &NoObserver,
        |res, _mem, m: &mut LinMonitor<S>| {
            let walk = m.verdict().is_ok();
            let (events, preds): (Vec<&HistoryEvent<S>>, Vec<u128>) = m.history().unzip();
            // Executions with the same outcomes, history and order have the
            // same signatures: decide them once.
            let outcomes = outcomes(res);
            let key = format!("{outcomes} {} {preds:?}", sequence(&events));
            let all_ok = *seen.entry(key).or_insert_with(|| {
                let mut orders = Vec::new();
                extensions(&preds, 0, &mut Vec::new(), &mut orders);
                let mut all_ok = true;
                for order in orders {
                    let history: Vec<&HistoryEvent<S>> = order.iter().map(|&k| events[k]).collect();
                    let ok = reference_verdict(&spec, &history, closure);
                    let verdict = if ok { "ok" } else { "err" };
                    reached
                        .signatures
                        .insert(format!("{outcomes} | {} | {verdict}", relation(&history)));
                    reached.sequences.insert(sequence(&history));
                    all_ok &= ok;
                }
                all_ok
            });
            assert_eq!(
                walk, all_ok,
                "the walk's verdict disagrees with its extensions"
            );
            reached.verdicts.push(walk);
            Ok(())
        },
    );
    reached.schedules = match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => schedules,
        other => panic!("exploration must exhaust, got {other:?}"),
    };
    reached
}

/// Asserts that source DPOR with the walk reaches exactly `off`'s
/// signatures on `wl` under `closure`, in both checker modes, and that the
/// two modes agree on every explored schedule.
fn assert_walk_matches_off<S, V, O, F>(
    name: &str,
    spec: S,
    setup: F,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    closure: CrashedPending,
) where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O + Clone,
{
    let at = format!("{name} ({closure:?})");
    let config = |reduction| ExploreConfig {
        reduction,
        max_schedules: 5_000_000,
        resume: ResumeMode::PrefixResume,
        ..base.clone()
    };
    let off = reach(
        spec.clone(),
        setup.clone(),
        wl,
        &config(Reduction::Off),
        closure,
        CheckerMode::Incremental,
    );
    let walk = reach(
        spec.clone(),
        setup.clone(),
        wl,
        &config(Reduction::SourceDpor),
        closure,
        CheckerMode::Incremental,
    );
    assert_eq!(
        off.signatures, walk.signatures,
        "{at}: walk vs full enumeration"
    );
    assert!(
        walk.schedules < off.schedules,
        "{at}: the reduction must prune"
    );
    let scratch = reach(
        spec,
        setup,
        wl,
        &config(Reduction::SourceDpor),
        closure,
        CheckerMode::FromScratch,
    );
    assert_eq!(
        walk.verdicts, scratch.verdicts,
        "{at}: checker modes disagree"
    );
    assert_eq!(walk.signatures, scratch.signatures, "{at}");
}

fn tas(n: usize) -> Workload<TasSpec, TasSwitch> {
    Workload::single_op_each(n, TasOp::TestAndSet)
}

fn write_behind_workload() -> Workload<RegisterSpec, ()> {
    Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ])
}

#[test]
fn walk_reaches_the_full_enumeration_histories_on_the_n2_tas_spaces() {
    let crash = ExploreConfig {
        max_crashes: 1,
        ..Default::default()
    };
    // Without crashes every closure checks the same histories.
    assert_walk_matches_off(
        "spec_tas_n2",
        TasSpec,
        new_speculative_tas,
        &tas(2),
        &ExploreConfig::default(),
        CrashedPending::Open,
    );
    for closure in CLOSURES {
        assert_walk_matches_off(
            "crash_spec_tas_n2",
            TasSpec,
            new_speculative_tas,
            &tas(2),
            &crash,
            closure,
        );
        let restart = ExploreConfig {
            max_recoveries: 1,
            ..crash.clone()
        };
        assert_walk_matches_off(
            "recovery_tas_n2",
            TasSpec,
            |mem: &mut SharedMemory| RecoverableTas::new(mem, 2),
            &tas(2),
            &restart,
            closure,
        );
    }
}

#[test]
fn walk_reaches_the_full_enumeration_histories_on_the_write_behind_spaces() {
    let crash = ExploreConfig {
        max_crashes: 1,
        crash_eligible: 0b01,
        ..Default::default()
    };
    let restart = ExploreConfig {
        max_recoveries: 1,
        recovery_eligible: 0b01,
        ..crash.clone()
    };
    for closure in CLOSURES {
        assert_walk_matches_off(
            "crash_write_behind",
            RegisterSpec,
            WriteBehindRegister::new,
            &write_behind_workload(),
            &crash,
            closure,
        );
        for recovery in [WbRecovery::Flush, WbRecovery::Abandon] {
            assert_walk_matches_off(
                &format!("recovery_write_behind {recovery:?}"),
                RegisterSpec,
                move |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, recovery),
                &write_behind_workload(),
                &restart,
                closure,
            );
        }
    }
}

#[test]
fn walk_reaches_the_full_enumeration_histories_on_the_abd_spaces() {
    // One writer over two replicas with one crash and one drop, and a
    // writer and a reader on one replica with one crash (160004 unreduced
    // schedules), as in `network_oracle.rs`.
    let one_writer: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    let crash_drop = ExploreConfig {
        max_crashes: 1,
        max_drops: 1,
        ..Default::default()
    };
    let two_clients: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    let crash = ExploreConfig {
        max_crashes: 1,
        ..Default::default()
    };
    for closure in [CrashedPending::Open, CrashedPending::Strict] {
        assert_walk_matches_off(
            "abd_write_crash1_drop1",
            RegisterSpec,
            |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, 12, 1),
            &one_writer,
            &crash_drop,
            closure,
        );
        assert_walk_matches_off(
            "abd_two_clients_crash1",
            RegisterSpec,
            |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 1, 12, 0),
            &two_clients,
            &crash,
            closure,
        );
    }
}

#[test]
fn walk_reaches_the_lin_relation_histories_on_the_n3_composed_tas() {
    // `off` cannot exhaust this space (more than 5M schedules); the removed
    // lin-preserving relation could, and its signatures are pinned.
    let explore = ExploreConfig {
        max_schedules: 5_000_000,
        ..CheckConfig::default().explore
    };
    let walk = reach(
        TasSpec,
        new_speculative_tas,
        &tas(3),
        &explore,
        CrashedPending::Open,
        CheckerMode::Incremental,
    );
    let pinned: BTreeSet<String> = N3_LIN_RELATION.iter().map(|s| s.to_string()).collect();
    assert_eq!(walk.signatures, pinned);
    assert_eq!(walk.schedules, 1_956);
    // The lin relation's schedules, each in its own order, showed 71
    // distinct event sequences; the walk decides all 210 orders of the
    // explored traces, which reach the same signatures.
    assert_eq!(walk.sequences.len(), 210, "distinct histories");
    let relations: BTreeSet<&str> = pinned
        .iter()
        .map(|s| s.split(" | ").nth(1).expect("relation"))
        .collect();
    assert_eq!(relations.len(), 19);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 408728 schedules")]
fn walk_collects_every_history_of_the_n4_composed_tas() {
    // The lin-preserving relation did not exhaust this space within 5M
    // schedules; plain source DPOR does at 408728, and the walk decides
    // every history of every trace.
    let explore = ExploreConfig {
        max_schedules: 5_000_000,
        ..CheckConfig::default().explore
    };
    let walk = reach(
        TasSpec,
        new_speculative_tas,
        &tas(4),
        &explore,
        CrashedPending::Open,
        CheckerMode::Incremental,
    );
    let relations: BTreeSet<&str> = walk
        .signatures
        .iter()
        .map(|s| s.split(" | ").nth(1).expect("relation"))
        .collect();
    let violating = walk
        .signatures
        .iter()
        .filter(|s| s.ends_with("err"))
        .count();
    assert_eq!(
        (
            walk.schedules,
            walk.sequences.len(),
            relations.len(),
            walk.signatures.len(),
            violating
        ),
        (
            408_728,
            N4_HISTORIES,
            N4_RELATIONS,
            N4_SIGNATURES,
            N4_VIOLATING
        )
    );
}

/// What the walk decides on the n=4 composed TAS: distinct histories
/// (event sequences with responses), real-time relations, signatures and
/// violating signatures.
const N4_HISTORIES: usize = 7_608;
const N4_RELATIONS: usize = 207;
const N4_SIGNATURES: usize = 488;
const N4_VIOLATING: usize = 120;

/// A register with an order-only bug: the reader always claims to have read
/// 5 and touches only an unrelated register, so every outcome is
/// schedule-independent, but the history is linearizable only when the read
/// does not complete before the write is invoked.
struct ConstReadReg {
    a: RegId,
    b: RegId,
}

#[derive(Clone, Copy)]
struct RegOp {
    reg: RegId,
    write: bool,
    proc: scl_spec::ProcessId,
}

impl OpExecution<RegisterSpec, ()> for RegOp {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        if self.write {
            mem.write(self.proc, self.reg, Value::int(5));
        } else {
            let _ = mem.read(self.proc, self.reg);
        }
        StepOutcome::Done(OpOutcome::Commit(5))
    }
    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(*self))
    }
    fn next_footprint(&self) -> scl_sim::Footprint {
        if self.write {
            scl_sim::Footprint::Write(self.reg)
        } else {
            scl_sim::Footprint::Read(self.reg)
        }
    }
}

impl SimObject<RegisterSpec, ()> for ConstReadReg {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<RegisterSpec>,
        _switch: Option<()>,
    ) -> Box<dyn OpExecution<RegisterSpec, ()>> {
        let write = matches!(req.op, RegisterOp::Write(_));
        Box::new(RegOp {
            reg: if write { self.a } else { self.b },
            write,
            proc: req.proc,
        })
    }
    fn snapshot(&self) -> Option<ObjectSnapshot> {
        Some(ObjectSnapshot::stateless())
    }
}

#[test]
fn order_only_violation_is_caught_by_the_trace_walk() {
    let wl: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    let setup = |mem: &mut SharedMemory| ConstReadReg {
        a: mem.alloc("a", Value::int(0)),
        b: mem.alloc("b", Value::int(0)),
    };
    let own_order = |reduction| {
        explore_schedules(
            setup,
            &wl,
            &ExploreConfig {
                reduction,
                ..Default::default()
            },
            |res, _mem| {
                if check_linearizable(&RegisterSpec, &res.trace().commit_projection())
                    .is_linearizable()
                {
                    Ok(())
                } else {
                    Err("not linearizable".into())
                }
            },
        )
    };
    // Full enumeration sees the violating order (the read commits before
    // the write is invoked); plain source DPOR explores one schedule of the
    // only trace, whose own order passes.
    assert!(own_order(Reduction::Off).is_err());
    assert!(own_order(Reduction::SourceDpor).is_ok());
    // The walk decides every order of that trace, and reports a schedule
    // that realises the violating one.
    let mut monitor = LinMonitor::new(RegisterSpec, CheckerMode::Incremental);
    let report = explore_schedules_monitored_observed_report(
        setup,
        &wl,
        &ExploreConfig {
            reduction: Reduction::SourceDpor,
            ..Default::default()
        },
        &mut monitor,
        &NoObserver,
        |_res, _mem, m: &mut LinMonitor<RegisterSpec>| m.verdict(),
    );
    let violation = report
        .outcome
        .expect_err("the walk must find the violation");
    let violation = violation.as_check().expect("a check violation");
    let mut replayed = LinMonitor::new(RegisterSpec, CheckerMode::Incremental);
    let (outcome, _) = scl_sim::replay_schedule(
        setup,
        &wl,
        &ExploreConfig {
            reduction: Reduction::Off,
            ..Default::default()
        },
        &violation.schedule,
        &mut replayed,
        |_res, _mem, m: &mut LinMonitor<RegisterSpec>| m.verdict(),
    );
    assert_eq!(
        outcome,
        scl_sim::ReplayOutcome::Violation(violation.message.clone()),
        "the reported schedule must violate in its own order"
    );
}
