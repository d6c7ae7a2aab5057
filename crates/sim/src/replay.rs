//! Deterministic re-execution of one recorded schedule.
//!
//! The explorer reports a violation as a schedule — a sequence of raw
//! pseudo-process ids (see [`crate::step::StepKind`]). This module replays
//! such a schedule against a freshly built object, validates at every tick
//! that the recorded decision is actually schedulable (any mismatch means
//! the schedule and the code base have diverged), and produces a
//! [`ReplayLog`]: the per-tick decoded transitions with their exact
//! [`StepLabel`]s and [`TickEmission`]s, plus the reversible racing pairs of
//! the happens-before layer. `scl-check replay` renders this log as a
//! per-process interleaving diagram and asserts the recorded verdict
//! reproduces.

use crate::executor::{ExecSession, ExecutionResult, SurveyStatus, TickEmission, Workload};
use crate::explore::{blocked_now, enabling_edge, step_label, ExploreConfig, ScheduleMonitor};
use crate::hb::HbTracker;
use crate::machine::SimObject;
use crate::memory::{SharedMemory, StepLabel};
use crate::step::StepKind;
use scl_spec::{ProcessId, SequentialSpec};
use std::fmt::Debug;
use std::hash::Hash;

/// One replayed scheduling transition.
#[derive(Debug, Clone)]
pub struct ReplayTick {
    /// The raw scheduled pseudo-process id, exactly as recorded.
    pub id: ProcessId,
    /// The decoded transition.
    pub kind: StepKind,
    /// The exact label of the executed transition (real process, footprint,
    /// invoke/response emissions) — the happens-before layer's view.
    pub label: StepLabel,
    /// The trace event the transition emitted.
    pub emission: TickEmission,
}

/// The full record of one replayed schedule.
#[derive(Debug, Clone)]
pub struct ReplayLog {
    /// Number of real processes in the workload.
    pub processes: usize,
    /// Network slot capacity (0 without a network).
    pub net_cap: usize,
    /// The replayed transitions, in schedule order.
    pub ticks: Vec<ReplayTick>,
    /// Reversible racing pairs `(i, j)` over tick indices: the races the
    /// explorer branches on. They are detected by
    /// [`HbTracker::races_of_last`] over the explorer's threads (one per
    /// process and one per in-flight slot), with the lin barriers matching
    /// the recorded reduction, and the explorer's enabling-edge filter
    /// drops the pairs whose later transition the earlier one enabled.
    pub races: Vec<(usize, usize)>,
    /// Which processes ended the execution crashed.
    pub crashed: Vec<bool>,
    /// Which processes restarted at least once during the execution.
    pub restarted: Vec<bool>,
    /// Whether the execution was complete after the last recorded tick
    /// (recorded violation schedules always are).
    pub completed: bool,
}

/// How a replay ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The schedule replayed fully and the check accepted the execution.
    Passed,
    /// The schedule replayed fully and the check rejected the execution
    /// with this message.
    Violation(String),
    /// The recorded schedule is not schedulable against the current code:
    /// at tick `tick` the recorded decision was not enabled.
    Diverged {
        /// Index of the unschedulable tick.
        tick: usize,
        /// What the recorded decision was and why it could not be taken.
        reason: String,
    },
}

/// Replays `schedule` tick by tick against a freshly built object,
/// validating each recorded decision, feeding `monitor` every executed
/// decision, and running `check` on the final execution. Returns the
/// outcome together with the (possibly partial, on divergence) replay log.
///
/// `config` supplies the execution parameters the schedule was recorded
/// under — tick limit, trace mode, partition, and the reduction whose lin
/// barriers shape the race relation reported in the log. Budgets
/// (`max_schedules`, `max_crashes`, `max_drops`) are *not* re-validated:
/// the schedule is replayed verbatim.
pub fn replay_schedule<S, V, O, M, FSetup, FCheck>(
    mut setup: FSetup,
    workload: &Workload<S, V>,
    config: &ExploreConfig,
    schedule: &[ProcessId],
    monitor: &mut M,
    check: FCheck,
) -> (ReplayOutcome, ReplayLog)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    M: ScheduleMonitor<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FCheck: FnOnce(&ExecutionResult<S, V>, &SharedMemory, &mut M) -> Result<(), String>,
{
    let n = workload.processes();
    let executor = config.executor();
    let mut mem = SharedMemory::new();
    let mut session: ExecSession<S, V> = ExecSession::new();
    let mut object = setup(&mut mem);
    if config.partition != 0 {
        mem.net_sever(config.partition);
    }
    let cap = mem.net_cap();
    let mut log = ReplayLog {
        processes: n,
        net_cap: cap,
        ticks: Vec::with_capacity(schedule.len()),
        races: Vec::new(),
        crashed: vec![false; n],
        restarted: vec![false; n],
        completed: false,
    };
    executor.begin(&mut session, workload);
    monitor.begin();
    let mut hb = HbTracker::new(n + cap, config.reduction.preserves_lin());
    let mut race_buf: Vec<usize> = Vec::new();
    // Per tick, the processes blocked at the node before it.
    let mut node_blocked: Vec<u64> = Vec::with_capacity(schedule.len());
    for (i, &id) in schedule.iter().enumerate() {
        let kind = StepKind::decode(id, n, cap);
        let status = executor.survey(&mut session, &mem, workload);
        if status != SurveyStatus::Choose {
            return (
                ReplayOutcome::Diverged {
                    tick: i,
                    reason: format!(
                        "the execution already completed before the recorded {} could run",
                        kind.describe()
                    ),
                },
                log,
            );
        }
        if !session.schedulable(id, cap) {
            return (
                ReplayOutcome::Diverged {
                    tick: i,
                    reason: format!("{} is not schedulable here", kind.describe()),
                },
                log,
            );
        }
        node_blocked.push(blocked_now(&session));
        executor.tick(&mut session, &mut mem, &mut object, workload, id);
        monitor.observe(&session);
        let label = step_label(&session, id, n, cap);
        hb.push(label);
        race_buf.clear();
        hb.races_of_last(&mut race_buf);
        for &r in &race_buf {
            if !enabling_edge(hb.label(r), label, node_blocked[r], &mem, n) {
                log.races.push((r, i));
            }
        }
        log.ticks.push(ReplayTick {
            id,
            kind,
            label,
            emission: session.last_emission(),
        });
    }
    let status = executor.survey(&mut session, &mem, workload);
    log.completed = status != SurveyStatus::Choose;
    for p in 0..n {
        log.crashed[p] = session.result().is_crashed(ProcessId(p));
        log.restarted[p] = session.result().is_restarted(ProcessId(p));
    }
    let outcome = match check(session.result(), &mem, monitor) {
        Ok(()) => ReplayOutcome::Passed,
        Err(message) => ReplayOutcome::Violation(message),
    };
    (outcome, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_schedules_report, NoMonitor};
    use crate::machine::{ObjectSnapshot, OpExecution, OpOutcome, StepOutcome};
    use crate::memory::{Footprint, RegId};
    use crate::value::Value;
    use scl_spec::{Request, TasOp, TasResp, TasSpec, TasSwitch};

    /// Swap-based TAS (one shared-memory step per operation).
    struct SwapTas {
        flag: RegId,
    }
    #[derive(Clone)]
    struct SwapTasOp {
        flag: RegId,
        proc: ProcessId,
    }
    impl OpExecution<TasSpec, TasSwitch> for SwapTasOp {
        fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
            let prev = mem.swap(self.proc, self.flag, Value::TRUE);
            StepOutcome::Done(OpOutcome::Commit(if prev.as_bool() {
                TasResp::Loser
            } else {
                TasResp::Winner
            }))
        }
        fn fork(&self) -> Option<Box<dyn OpExecution<TasSpec, TasSwitch>>> {
            Some(Box::new(self.clone()))
        }
        fn next_footprint(&self) -> Footprint {
            Footprint::Write(self.flag)
        }
    }
    impl SimObject<TasSpec, TasSwitch> for SwapTas {
        fn invoke(
            &mut self,
            _mem: &mut SharedMemory,
            req: Request<TasSpec>,
            _switch: Option<TasSwitch>,
        ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
            Box::new(SwapTasOp {
                flag: self.flag,
                proc: req.proc,
            })
        }
        fn snapshot(&self) -> Option<ObjectSnapshot> {
            Some(ObjectSnapshot::stateless())
        }
    }

    fn tas_workload(n: usize) -> Workload<TasSpec, TasSwitch> {
        Workload::single_op_each(n, TasOp::TestAndSet)
    }

    fn setup(mem: &mut SharedMemory) -> SwapTas {
        SwapTas {
            flag: mem.alloc("flag", Value::FALSE),
        }
    }

    fn harvest_check(res: &ExecutionResult<TasSpec, TasSwitch>) -> Result<(), String> {
        let winners = res
            .ops
            .iter()
            .filter(|op| matches!(op.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
            .count();
        if winners == 1 {
            Err("single winner (designed harvest)".to_string())
        } else {
            Ok(())
        }
    }

    #[test]
    fn violating_schedule_replays_to_the_same_message() {
        // Reject the (always reached) single-winner outcome to harvest a
        // concrete recorded counterexample schedule.
        let config = ExploreConfig::default();
        let report = explore_schedules_report(setup, &tas_workload(2), &config, |res, _mem| {
            harvest_check(res)
        });
        let violation = report
            .outcome
            .expect_err("the harvest check rejects every complete TAS execution")
            .as_check()
            .cloned()
            .expect("sequential exploration yields check violations");

        let mut monitor = NoMonitor;
        let (outcome, log) = replay_schedule(
            setup,
            &tas_workload(2),
            &config,
            &violation.schedule,
            &mut monitor,
            |res: &ExecutionResult<TasSpec, TasSwitch>, _mem, _m: &mut NoMonitor| {
                harvest_check(res)
            },
        );
        assert_eq!(outcome, ReplayOutcome::Violation(violation.message.clone()));
        assert!(log.completed);
        assert_eq!(log.ticks.len(), violation.schedule.len());
        assert!(log.crashed.iter().all(|c| !c));
        // One-step swap TAS at n=2: both processes' swaps conflict on the
        // flag register, so the replay log surfaces at least one race.
        assert!(!log.races.is_empty());
    }

    #[test]
    fn foreign_schedule_diverges_cleanly() {
        let config = ExploreConfig::default();
        let mut monitor = NoMonitor;
        // p7 does not exist in a 2-process workload.
        let schedule = vec![ProcessId(0), ProcessId(7)];
        let (outcome, log) = replay_schedule(
            setup,
            &tas_workload(2),
            &config,
            &schedule,
            &mut monitor,
            |_res: &ExecutionResult<TasSpec, TasSwitch>, _mem, _m: &mut NoMonitor| Ok(()),
        );
        match outcome {
            ReplayOutcome::Diverged { tick, .. } => assert_eq!(tick, 1),
            other => panic!("expected divergence, got {other:?}"),
        }
        assert_eq!(log.ticks.len(), 1);
    }
}
