//! The execution trace is a view of the operation records:
//! `ExecutionResult::trace()` builds the invoke, init, commit and abort
//! events from each operation's record and ticks. This oracle rebuilds the
//! same trace the other way, from the executor's `TickEmission` stream as
//! each transition runs (through the explorer's mark/rewind protocol), and
//! checks that the two are equal on every explored schedule of spaces with
//! init values, aborts, crashes, restarts (flush and abandon recoveries)
//! and a network, under both resume modes.

use scl_core::{
    new_speculative_tas, A1Tas, AbdRegister, ConsensusObject, SplitConsensus, WbRecovery,
    WriteBehindRegister,
};
use scl_sim::{
    explore_schedules_monitored_observed_report, ExecSession, ExploreConfig, ExploreOutcome,
    NoObserver, OpOutcome, Reduction, ResumeMode, ScheduleMonitor, SharedMemory, SimObject,
    TickEmission, Workload,
};
use scl_spec::{ConsensusOp, Event, RegisterOp, SequentialSpec, TasOp, TasSpec, TasSwitch};
use std::fmt::Debug;
use std::hash::Hash;

/// Builds the trace from the emission stream. The init value of an
/// invocation comes from the workload (the process's next operation), not
/// from the operation record.
struct EmissionTrace<S: SequentialSpec, V> {
    switches: Vec<Vec<Option<V>>>,
    events: Vec<Event<S, V>>,
    /// Per process, how many operations it invoked.
    cursors: Vec<usize>,
    /// Per mark: its token, the event count and the cursors.
    marks: Vec<(u64, usize, Vec<usize>)>,
    next_token: u64,
}

impl<S: SequentialSpec, V: Clone> EmissionTrace<S, V> {
    fn new(wl: &Workload<S, V>) -> Self {
        EmissionTrace {
            switches: wl
                .ops
                .iter()
                .map(|ops| ops.iter().map(|(_, v)| v.clone()).collect())
                .collect(),
            events: Vec::new(),
            cursors: vec![0; wl.processes()],
            marks: Vec::new(),
            next_token: 0,
        }
    }
}

impl<S, V> ScheduleMonitor<S, V> for EmissionTrace<S, V>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    fn begin(&mut self) {
        self.events.clear();
        self.cursors.fill(0);
        self.marks.clear();
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        let ops = &session.result().ops;
        let response = |i: usize| {
            let (proc, req_id) = (ops[i].req.proc, ops[i].req.id);
            match ops[i].outcome.clone() {
                Some(OpOutcome::Commit(resp)) => Event::Commit { proc, req_id, resp },
                Some(OpOutcome::Abort(switch)) => Event::Abort {
                    proc,
                    req_id,
                    switch,
                },
                None => panic!("a response emission without an outcome"),
            }
        };
        let event = match session.last_emission() {
            TickEmission::Invoked { op_index } => {
                let req = ops[op_index].req.clone();
                let p = req.proc.index();
                let switch = self.switches[p][self.cursors[p]].clone();
                self.cursors[p] += 1;
                match switch {
                    Some(switch) => Event::Init { req, switch },
                    None => Event::Invoke { req },
                }
            }
            TickEmission::Committed { op_index } | TickEmission::Aborted { op_index } => {
                response(op_index)
            }
            TickEmission::Recovered {
                op_index: Some(op_index),
                resolved: true,
            } => response(op_index),
            TickEmission::None
            | TickEmission::Crashed { .. }
            | TickEmission::Delivered { .. }
            | TickEmission::Dropped { .. }
            | TickEmission::Restarted { .. }
            | TickEmission::Recovered { .. } => return,
        };
        self.events.push(event);
    }

    fn mark(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.marks
            .push((token, self.events.len(), self.cursors.clone()));
        token
    }

    fn rewind_to(&mut self, mark: u64) {
        while self.marks.last().is_some_and(|&(token, ..)| token > mark) {
            self.marks.pop();
        }
        let (token, len, cursors) = self.marks.last().expect("rewound to a known mark");
        assert_eq!(*token, mark, "rewound to an unknown mark");
        self.events.truncate(*len);
        self.cursors.clone_from(cursors);
    }
}

/// Explores `wl` under source DPOR in both resume modes and asserts that
/// every schedule's `trace()` equals the emission-built trace. Returns the
/// schedules explored and how many events of each kind (invoke, init,
/// commit, abort) the traces held.
fn assert_trace_is_the_emission_stream<S, V, O>(
    name: &str,
    setup: impl Fn(&mut SharedMemory) -> O,
    wl: &Workload<S, V>,
    base: ExploreConfig,
) -> [u64; 5]
where
    S: SequentialSpec + PartialEq + Debug,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let mut seen = [0u64; 5];
    for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
        let config = ExploreConfig {
            reduction: Reduction::SourceDpor,
            resume,
            max_schedules: 1_000_000,
            ..base.clone()
        };
        let mut monitor = EmissionTrace::new(wl);
        let report = explore_schedules_monitored_observed_report(
            &setup,
            wl,
            &config,
            &mut monitor,
            &NoObserver,
            |res, _mem, m: &mut EmissionTrace<S, V>| {
                let trace = res.trace();
                if trace.events() != m.events {
                    return Err(format!("trace() {trace:?} != emissions {:?}", m.events));
                }
                trace.check_well_formed().map_err(|e| e.to_string())?;
                seen[0] += 1;
                for e in trace.events() {
                    seen[match e {
                        Event::Invoke { .. } => 1,
                        Event::Init { .. } => 2,
                        Event::Commit { .. } => 3,
                        Event::Abort { .. } => 4,
                    }] += 1;
                }
                Ok(())
            },
        );
        assert!(
            matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
            "{name}/{resume:?}: {:?}",
            report.outcome
        );
    }
    seen
}

#[test]
fn composed_tas_with_init_values() {
    let wl: Workload<TasSpec, TasSwitch> = Workload {
        ops: vec![
            vec![(TasOp::TestAndSet, Some(TasSwitch::W))],
            vec![(TasOp::TestAndSet, Some(TasSwitch::L))],
            vec![(TasOp::TestAndSet, None)],
        ],
    };
    let [schedules, invokes, inits, commits, _] = assert_trace_is_the_emission_stream(
        "composed_tas_init",
        new_speculative_tas,
        &wl,
        ExploreConfig::default(),
    );
    assert!(schedules > 0 && invokes > 0 && inits > 0 && commits > 0);
}

#[test]
fn aborting_modules() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let a1 = assert_trace_is_the_emission_stream("a1_n2", A1Tas::new, &wl, Default::default());
    let wl = Workload {
        ops: vec![
            vec![(ConsensusOp { proposal: 1 }, None)],
            vec![(ConsensusOp { proposal: 2 }, None)],
        ],
    };
    let split = assert_trace_is_the_emission_stream(
        "consensus_split_n2",
        |mem: &mut SharedMemory| ConsensusObject::<SplitConsensus>::new(mem, 2),
        &wl,
        Default::default(),
    );
    assert!(
        a1[4] > 0 && split[4] > 0,
        "both spaces abort: {a1:?} {split:?}"
    );
}

#[test]
fn crashes_and_recoveries() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let crash = ExploreConfig {
        max_crashes: 1,
        ..Default::default()
    };
    assert_trace_is_the_emission_stream("crash_spec_tas_n2", new_speculative_tas, &wl, crash);
    let wl: Workload<_, ()> = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    for recovery in [WbRecovery::Flush, WbRecovery::Abandon] {
        let restart = ExploreConfig {
            max_crashes: 1,
            crash_eligible: 0b01,
            max_recoveries: 1,
            recovery_eligible: 0b01,
            ..Default::default()
        };
        assert_trace_is_the_emission_stream(
            &format!("write_behind_{recovery:?}"),
            |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, recovery),
            &wl,
            restart,
        );
    }
}

#[test]
fn abd_with_a_crash_and_a_drop() {
    // A writer and a reader, one replica, no retries: a drop aborts.
    let wl: Workload<_, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    let faults = ExploreConfig {
        max_crashes: 1,
        max_drops: 1,
        ..Default::default()
    };
    let seen = assert_trace_is_the_emission_stream(
        "abd_two_clients",
        |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 1, 12, 0),
        &wl,
        faults,
    );
    assert!(seen[4] > 0, "a drop aborts: {seen:?}");
}
