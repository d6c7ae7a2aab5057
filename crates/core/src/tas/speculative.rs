//! The speculative test-and-set: the composition `A1 ∘ A2` (Figure 1,
//! Theorem 4) and the solo-fast variant (Appendix B).
//!
//! A process first tries the obstruction-free module [`A1Tas`]; if that
//! module aborts (because of contention), the same request continues in the
//! wait-free hardware module [`A2Tas`], initialised with the switch value
//! reported by the abort. The result is a wait-free linearizable one-shot
//! test-and-set that:
//!
//! * uses only read/write registers and a constant number of steps in
//!   executions without step contention (the speculation succeeds), and
//! * uses base objects of consensus number at most two in all executions
//!   (the hardware test-and-set cell of A2).

use crate::compose::Composed;
use crate::tas::a1::{A1Tas, A1Variant};
use crate::tas::a2::A2Tas;
use scl_sim::SharedMemory;

/// The speculative one-shot test-and-set: `A1 ∘ A2`.
pub type SpeculativeTas = Composed<A1Tas, A2Tas>;

/// The solo-fast one-shot test-and-set: `A1(solo-fast) ∘ A2`. A process
/// reverts to the hardware object only when it itself experiences step
/// contention.
pub type SoloFastTas = Composed<A1Tas, A2Tas>;

/// Allocates a fresh speculative test-and-set (Figure 1).
pub fn new_speculative_tas(mem: &mut SharedMemory) -> SpeculativeTas {
    Composed::new(A1Tas::new(mem), A2Tas::new(mem))
}

/// Allocates a fresh solo-fast test-and-set (Appendix B).
pub fn new_solo_fast_tas(mem: &mut SharedMemory) -> SoloFastTas {
    Composed::new(
        A1Tas::with_variant(mem, A1Variant::SoloFast),
        A2Tas::new(mem),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{
        explore_schedules, Executor, ExploreConfig, InvokeAllThenSequential, RandomAdversary,
        RoundRobinAdversary, SimObject, SoloAdversary, Workload,
    };
    use scl_spec::{
        check_linearizable, find_valid_interpretation, TasConstraint, TasOp, TasResp, TasSpec,
        TasSwitch,
    };

    type Wl = Workload<TasSpec, TasSwitch>;

    #[test]
    fn solo_execution_stays_on_registers_and_constant_steps() {
        let mut mem = SharedMemory::new();
        let mut tas = new_speculative_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(1, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
        assert_eq!(res.trace().commits()[0].1, TasResp::Winner);
        assert_eq!(res.metrics.ops[0].steps, A1Tas::MAX_STEPS);
        assert_eq!(
            res.metrics.ops[0].rmws, 0,
            "fast path must not use strong primitives"
        );
        assert_eq!(tas.switch_count(), 0, "no switch to the hardware module");
        // Only register-class objects were touched.
        assert_eq!(mem.max_required_consensus_number(), Some(1));
    }

    #[test]
    fn sequential_many_processes_single_winner_no_hardware() {
        let mut mem = SharedMemory::new();
        let mut tas = new_speculative_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(6, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
        assert!(res.completed);
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1);
        assert_eq!(tas.switch_count(), 0);
        assert!(check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable());
    }

    #[test]
    fn composition_is_wait_free_under_heavy_contention() {
        // Under round-robin stepping every operation still completes
        // (commits), possibly via the hardware module.
        for n in 2..=6 {
            let mut mem = SharedMemory::new();
            let mut tas = new_speculative_tas(&mut mem);
            let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
            let res =
                Executor::new().run(&mut mem, &mut tas, &wl, &mut RoundRobinAdversary::default());
            assert!(res.completed, "n={n}");
            assert_eq!(
                res.metrics.aborted_count(),
                0,
                "the composition never aborts"
            );
            assert_eq!(res.metrics.committed_count(), n);
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            assert_eq!(winners, 1, "exactly one winner, n={n}");
            assert!(
                check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable()
            );
            // Base objects stay at consensus number ≤ 2 even on the slow path.
            let cn = mem.max_required_consensus_number();
            assert!(cn == Some(1) || cn == Some(2));
        }
    }

    #[test]
    fn contended_runs_switch_to_hardware_module() {
        let mut mem = SharedMemory::new();
        let mut tas = new_speculative_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(4, TasOp::TestAndSet);
        let _ = Executor::new().run(&mut mem, &mut tas, &wl, &mut RoundRobinAdversary::default());
        assert!(
            tas.switch_count() > 0,
            "heavy step contention should trigger the slow path"
        );
    }

    #[test]
    fn step_contention_free_ops_never_use_the_hardware_object() {
        // The first operation to run under invoke-all-then-sequential is
        // step-contention free: it must finish inside A1 (Lemma 6) and hence
        // execute no RMW primitive.
        for n in 2..=5 {
            let mut mem = SharedMemory::new();
            let mut tas = new_speculative_tas(&mut mem);
            let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
            let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut InvokeAllThenSequential);
            for op in &res.metrics.ops {
                if op.step_contention_free() {
                    assert_eq!(op.rmws, 0);
                    assert!(op.steps <= A1Tas::MAX_STEPS);
                }
            }
        }
    }

    #[test]
    fn random_schedules_are_linearizable_and_wait_free() {
        for seed in 0..30 {
            let mut mem = SharedMemory::new();
            let mut tas = new_speculative_tas(&mut mem);
            let wl: Wl = Workload::single_op_each(4, TasOp::TestAndSet);
            let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed);
            assert_eq!(res.metrics.aborted_count(), 0);
            assert!(
                check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exhaustive_two_process_check_linearizable_and_composable() {
        let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
        let outcome = explore_schedules(
            new_speculative_tas,
            &wl,
            &ExploreConfig {
                max_schedules: 500_000,
                max_ticks: 10_000,
                ..Default::default()
            },
            |res, _| {
                if !res.completed {
                    return Err("did not complete".into());
                }
                if res.metrics.aborted_count() > 0 {
                    return Err("composition aborted".into());
                }
                let winners = res
                    .trace()
                    .commits()
                    .iter()
                    .filter(|(_, r)| *r == TasResp::Winner)
                    .count();
                if winners != 1 {
                    return Err(format!("{winners} winners"));
                }
                if !check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable()
                {
                    return Err("not linearizable".into());
                }
                if !find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint)
                    .is_composable()
                {
                    return Err("not certifiably composable".into());
                }
                Ok(())
            },
        )
        .expect("speculative TAS must be correct under every interleaving of 2 processes");
        assert!(matches!(outcome, scl_sim::ExploreOutcome::Exhausted { .. }));
    }

    #[test]
    fn solo_fast_variant_wins_solo_without_hardware() {
        let mut mem = SharedMemory::new();
        let mut tas = new_solo_fast_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(1, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
        assert_eq!(res.trace().commits()[0].1, TasResp::Winner);
        assert_eq!(res.metrics.ops[0].rmws, 0);
        assert_eq!(res.metrics.ops[0].steps, A1Tas::MAX_STEPS - 1);
    }

    #[test]
    fn solo_fast_exhaustive_two_process_check() {
        let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
        explore_schedules(
            new_solo_fast_tas,
            &wl,
            &ExploreConfig {
                max_schedules: 500_000,
                max_ticks: 10_000,
                ..Default::default()
            },
            |res, _| {
                let winners = res
                    .trace()
                    .commits()
                    .iter()
                    .filter(|(_, r)| *r == TasResp::Winner)
                    .count();
                if winners != 1 {
                    return Err(format!("{winners} winners"));
                }
                if !check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable()
                {
                    return Err("not linearizable".into());
                }
                Ok(())
            },
        )
        .expect("solo-fast TAS must be correct under every interleaving of 2 processes");
    }

    #[test]
    fn object_reports_a_name() {
        let mut mem = SharedMemory::new();
        let tas = new_speculative_tas(&mut mem);
        assert_eq!(SimObject::<TasSpec, TasSwitch>::name(&tas), "composed");
    }
}
