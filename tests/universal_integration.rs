//! Cross-crate integration tests for the composable universal construction
//! (§4) over several object types.

use scl::core::{
    consensus_via_abstract, new_composable_universal, new_three_level_universal, CasConsensus,
    SplitConsensus, UniversalConstruction,
};
use scl::sim::{
    Executor, RandomAdversary, RoundRobinAdversary, SharedMemory, SoloAdversary, Workload,
};
use scl::spec::{
    check_linearizable, CounterOp, CounterSpec, FetchIncOp, FetchIncSpec, History, QueueOp,
    QueueSpec,
};

/// Proposition 1: every sequential type has a composable implementation.
/// Exercise queue, counter and fetch-and-increment through the two-level
/// composition under random adversaries.
#[test]
fn proposition1_generic_objects_through_the_composition() {
    for seed in 0..6 {
        // FIFO queue.
        let mut mem = SharedMemory::new();
        let mut q = new_composable_universal(&mut mem, 3, QueueSpec);
        let wl: Workload<QueueSpec, History<QueueSpec>> = Workload::from_ops(vec![
            vec![QueueOp::Enqueue(1), QueueOp::Dequeue],
            vec![QueueOp::Enqueue(2), QueueOp::Dequeue],
            vec![QueueOp::Enqueue(3)],
        ]);
        let res = Executor::new().run(&mut mem, &mut q, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(
            check_linearizable(&QueueSpec, &res.trace().commit_projection()).is_linearizable(),
            "queue, seed {seed}"
        );

        // Fetch-and-increment: every committed response must be unique.
        let mut mem = SharedMemory::new();
        let mut f = new_composable_universal(&mut mem, 3, FetchIncSpec);
        let wl: Workload<FetchIncSpec, History<FetchIncSpec>> = Workload::uniform(3, FetchIncOp, 2);
        let res = Executor::new().run(&mut mem, &mut f, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed);
        let mut values: Vec<u64> = res.trace().commits().iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(
            values.len(),
            6,
            "fetch-and-increment responses must be distinct, seed {seed}"
        );
    }
}

/// The three-level composition (contention-free, obstruction-free,
/// wait-free) of §4.2 behaves like a single wait-free object.
#[test]
fn three_level_composition_is_wait_free() {
    for seed in 0..5 {
        let mut mem = SharedMemory::new();
        let mut uc = new_three_level_universal(&mut mem, 3, CounterSpec);
        let wl: Workload<CounterSpec, History<CounterSpec>> =
            Workload::uniform(3, CounterOp::Increment, 2);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed, "seed {seed}");
        assert_eq!(res.metrics.aborted_count(), 0);
        assert!(
            check_linearizable(&CounterSpec, &res.trace().commit_projection()).is_linearizable(),
            "seed {seed}"
        );
    }
}

/// The Abstract properties of Definition 1 hold on the recorded traces of
/// both the register-only and the wait-free instances, across adversaries.
#[test]
fn abstract_properties_hold_on_recorded_traces() {
    for seed in 0..10 {
        let mut mem = SharedMemory::new();
        let mut uc =
            UniversalConstruction::<CounterSpec, SplitConsensus>::new(&mut mem, 3, CounterSpec);
        let wl: Workload<CounterSpec, History<CounterSpec>> =
            Workload::single_op_each(3, CounterOp::Increment);
        let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed);
        assert_eq!(uc.recorded_abstract_trace().check(), Ok(()), "seed {seed}");
    }
    let mut mem = SharedMemory::new();
    let mut uc = UniversalConstruction::<CounterSpec, CasConsensus>::new(&mut mem, 4, CounterSpec);
    let wl: Workload<CounterSpec, History<CounterSpec>> =
        Workload::uniform(4, CounterOp::Increment, 2);
    let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut RoundRobinAdversary::default());
    assert!(res.completed);
    assert_eq!(uc.recorded_abstract_trace().check(), Ok(()));
}

/// Proposition 2: the wait-free Abstract solves consensus (agreement and
/// validity hold under many adversaries).
#[test]
fn proposition2_reduction_solves_consensus() {
    let proposals = [101, 202, 303, 404];
    for seed in 0..10 {
        let decisions =
            consensus_via_abstract(&proposals, &mut RandomAdversary::new(seed)).unwrap();
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "agreement, seed {seed}"
        );
        assert!(proposals.contains(&decisions[0]), "validity, seed {seed}");
    }
    let decisions = consensus_via_abstract(&proposals, &mut SoloAdversary).unwrap();
    assert_eq!(decisions, vec![101; 4]);
}
