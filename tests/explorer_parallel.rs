//! Integration regression tests for the reworked simulator hot path: the
//! reusable executor must replay deterministically after `reset()`, and the
//! parallel explorer must find the same counterexample as the sequential one
//! on a seeded violation.

use scl::core::{new_speculative_tas, A1Tas};
use scl::sim::{
    explore_schedules, explore_schedules_parallel, ExecSession, Executor, ExploreConfig,
    ExploreError, OpExecution, OpOutcome, RegId, ScriptedAdversary, SharedMemory, SimObject,
    SplitMix64, StepOutcome, Value, Workload,
};
use scl::spec::{check_linearizable, ProcessId, Request, TasOp, TasResp, TasSpec, TasSwitch};

/// A deliberately broken TAS (read then write, not atomic): the seeded
/// violation for the sequential-vs-parallel regression. Two concurrent
/// processes can both observe `false` and both commit `Winner`.
struct BrokenTas {
    flag: RegId,
}

struct BrokenTasOp {
    flag: RegId,
    proc: ProcessId,
    observed: Option<bool>,
}

impl OpExecution<TasSpec, TasSwitch> for BrokenTasOp {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<TasSpec, TasSwitch> {
        match self.observed {
            None => {
                self.observed = Some(mem.read(self.proc, self.flag).as_bool());
                StepOutcome::Continue
            }
            Some(prev) => {
                mem.write(self.proc, self.flag, Value::TRUE);
                StepOutcome::Done(OpOutcome::Commit(if prev {
                    TasResp::Loser
                } else {
                    TasResp::Winner
                }))
            }
        }
    }
}

impl SimObject<TasSpec, TasSwitch> for BrokenTas {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<TasSpec>,
        _switch: Option<TasSwitch>,
    ) -> Box<dyn OpExecution<TasSpec, TasSwitch>> {
        Box::new(BrokenTasOp {
            flag: self.flag,
            proc: req.proc,
            observed: None,
        })
    }
}

fn single_winner_check(
    res: &scl::sim::ExecutionResult<TasSpec, TasSwitch>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("did not complete".into());
    }
    let winners = res
        .trace
        .commits()
        .iter()
        .filter(|(_, r)| *r == TasResp::Winner)
        .count();
    if winners > 1 {
        return Err(format!("{winners} winners"));
    }
    Ok(())
}

/// Parallel exploration must report exactly the violation the sequential
/// explorer reports (same schedule, same message), for any thread count.
#[test]
fn parallel_explorer_finds_the_sequential_counterexample() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let sequential = explore_schedules(
        |mem| BrokenTas {
            flag: mem.alloc("flag", Value::FALSE),
        },
        &wl,
        &ExploreConfig::default(),
        single_winner_check,
    )
    .expect_err("broken TAS must violate the single-winner invariant");

    for threads in [1usize, 2, 4, 8] {
        let config = ExploreConfig {
            threads,
            ..Default::default()
        };
        let parallel = explore_schedules_parallel(
            |mem| BrokenTas {
                flag: mem.alloc("flag", Value::FALSE),
            },
            &wl,
            &config,
            single_winner_check,
        )
        .expect_err("broken TAS must violate under parallel exploration too");
        assert_eq!(
            parallel,
            ExploreError::Check(sequential.clone()),
            "threads={threads}"
        );
    }
}

/// On a correct object, sequential and parallel exploration cover the same
/// schedule tree (same schedule count, both exhausted).
#[test]
fn parallel_explorer_covers_the_same_tree_on_correct_objects() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let check = |res: &scl::sim::ExecutionResult<TasSpec, TasSwitch>, _mem: &SharedMemory| {
        if check_linearizable(&TasSpec, &res.trace.commit_projection()).is_linearizable() {
            Ok(())
        } else {
            Err("not linearizable".into())
        }
    };
    let sequential = explore_schedules(new_speculative_tas, &wl, &ExploreConfig::default(), check)
        .expect("speculative TAS is correct");
    let parallel = explore_schedules_parallel(
        new_speculative_tas,
        &wl,
        &ExploreConfig {
            threads: 3,
            ..Default::default()
        },
        check,
    )
    .expect("speculative TAS is correct");
    assert_eq!(sequential.schedules(), parallel.schedules());
    assert!(matches!(
        parallel,
        scl::sim::ExploreOutcome::Exhausted { .. }
    ));
}

/// Executor-reset determinism on a real paper algorithm (module A1): running
/// the same scripted schedule on a fresh memory/session and on a reused,
/// reset one yields bit-identical traces, metrics, decisions and audits.
#[test]
fn reset_replay_is_deterministic_on_a1() {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    let executor = Executor::new();

    // A pseudo-random but fixed schedule script.
    let mut rng = SplitMix64::new(2012);
    let schedule: Vec<ProcessId> = (0..64).map(|_| ProcessId(rng.next_below(3))).collect();

    // Reference: fresh everything.
    let mut mem1 = SharedMemory::new();
    let mut a1 = A1Tas::new(&mut mem1);
    let res1 = executor.run(
        &mut mem1,
        &mut a1,
        &wl,
        &mut ScriptedAdversary::new(schedule.clone()),
    );

    // Reused: warm the session and memory on two unrelated schedules first.
    let mut mem2 = SharedMemory::new();
    let mut session = ExecSession::new();
    for warm_seed in [7u64, 9] {
        let mut warm_rng = SplitMix64::new(warm_seed);
        let warm: Vec<ProcessId> = (0..32).map(|_| ProcessId(warm_rng.next_below(3))).collect();
        mem2.reset();
        let mut a1 = A1Tas::new(&mut mem2);
        executor.run_in(
            &mut session,
            &mut mem2,
            &mut a1,
            &wl,
            &mut ScriptedAdversary::new(warm),
        );
    }
    mem2.reset();
    let mut a1 = A1Tas::new(&mut mem2);
    executor.run_in(
        &mut session,
        &mut mem2,
        &mut a1,
        &wl,
        &mut ScriptedAdversary::new(schedule),
    );
    let res2 = session.result();

    assert_eq!(res1.trace, res2.trace);
    assert_eq!(res1.metrics, res2.metrics);
    assert_eq!(res1.decisions, res2.decisions);
    assert_eq!(res1.ops, res2.ops);
    assert_eq!(res1.completed, res2.completed);
    assert_eq!(mem1.global_steps(), mem2.global_steps());
    assert_eq!(mem1.audit(), mem2.audit());
    assert_eq!(mem1.register_count(), mem2.register_count());
}
