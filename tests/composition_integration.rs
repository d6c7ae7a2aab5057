//! Cross-crate integration tests: the simulator algorithms checked against
//! the specification crate, end to end.

use scl::core::{new_solo_fast_tas, new_speculative_tas, A1Tas, A2Tas, Composed};
use scl::sim::{
    Executor, InvokeAllThenSequential, RandomAdversary, RoundRobinAdversary, SharedMemory,
    SoloAdversary, Workload,
};
use scl::spec::{
    check_linearizable, find_valid_interpretation, TasConstraint, TasOp, TasResp, TasSpec,
    TasSwitch,
};

type Wl = Workload<TasSpec, TasSwitch>;

/// Theorem 4, end to end: the composition is a wait-free linearizable
/// test-and-set under many adversaries and process counts, and its recorded
/// traces are certifiably safely composable.
#[test]
fn theorem4_composition_correct_across_adversaries_and_sizes() {
    for n in 1..=6 {
        for seed in 0..8 {
            let mut mem = SharedMemory::new();
            let mut tas = new_speculative_tas(&mut mem);
            let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
            let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
            assert!(res.completed, "n={n} seed={seed}");
            assert_eq!(
                res.metrics.aborted_count(),
                0,
                "wait-freedom: the composition never aborts"
            );
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            assert_eq!(winners, 1, "n={n} seed={seed}");
            assert!(
                check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
                "n={n} seed={seed}"
            );
            assert!(
                find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable(),
                "n={n} seed={seed}"
            );
            // Theorem 4's cost claim: base objects never exceed consensus
            // number 2.
            let cn = mem.max_required_consensus_number();
            assert!(cn == Some(1) || cn == Some(2), "n={n} seed={seed}: {cn:?}");
        }
    }
}

/// Lemma 6 + §6: step-contention-free operations never abort in A1 and never
/// reach the hardware object in the composition.
#[test]
fn lemma6_step_contention_free_operations_stay_in_module_a1() {
    for n in 2..=6 {
        let mut mem = SharedMemory::new();
        let mut tas = new_speculative_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut InvokeAllThenSequential);
        assert!(res.completed);
        for op in &res.metrics.ops {
            if op.step_contention_free() {
                assert_eq!(
                    op.rmws, 0,
                    "n={n}: step-contention-free op used a strong primitive"
                );
                assert!(op.steps <= A1Tas::MAX_STEPS);
            }
        }
    }
}

/// The modules can be composed in other orders (§6.3 notes A1 can even be
/// composed with itself): A1 ∘ A1 ∘ A2 is still a correct test-and-set.
#[test]
fn alternative_composition_orders_remain_correct() {
    for seed in 0..10 {
        let mut mem = SharedMemory::new();
        let inner = Composed::new(A1Tas::new(&mut mem), A2Tas::new(&mut mem));
        let mut tas = Composed::new(A1Tas::new(&mut mem), inner);
        let wl: Wl = Workload::single_op_each(4, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1, "seed {seed}");
        assert!(
            check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
            "seed {seed}"
        );
    }
}

/// The solo-fast variant (Appendix B) has the same correctness profile.
#[test]
fn solo_fast_variant_is_correct_under_contention() {
    for seed in 0..10 {
        let mut mem = SharedMemory::new();
        let mut tas = new_solo_fast_tas(&mut mem);
        let wl: Wl = Workload::single_op_each(4, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed);
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1, "seed {seed}");
        assert!(
            check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
            "seed {seed}"
        );
    }
}

/// A bare A1 module driven under contention produces traces whose aborts are
/// certifiable under the Definition 3 constraint function, and an uncontended
/// winner costs exactly the constant number of steps the paper states.
#[test]
fn bare_a1_module_costs_and_certification() {
    // Constant-cost solo winner.
    let mut mem = SharedMemory::new();
    let mut a1 = A1Tas::new(&mut mem);
    let wl: Wl = Workload::single_op_each(1, TasOp::TestAndSet);
    let res = Executor::new().run(&mut mem, &mut a1, &wl, &mut SoloAdversary);
    assert_eq!(res.metrics.ops[0].steps, A1Tas::MAX_STEPS);
    assert_eq!(mem.register_count(), A1Tas::REGISTERS);

    // Contended traces remain certifiable.
    for n in 2..=4 {
        let mut mem = SharedMemory::new();
        let mut a1 = A1Tas::new(&mut mem);
        let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut a1, &wl, &mut RoundRobinAdversary::default());
        assert!(res.completed);
        assert!(
            find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable(),
            "n={n}"
        );
    }
}
