//! A FIFO queue driven through the composable universal construction
//! (Proposition 1 of the paper).
//!
//! Any sequential type can be made wait-free and safely composable by
//! running it through the Abstract-based universal construction: a
//! register-only instance handles uncontended executions and a
//! compare-and-swap instance takes over when the first one aborts,
//! inheriting its history. The example enqueues and dequeues from several
//! simulated processes under an adversarial schedule and shows the cost of
//! genericity: the state transferred between the two instances is the whole
//! history of committed requests.
//!
//! Run with: `cargo run --example universal_queue`

use scl::core::new_composable_universal;
use scl::sim::{Executor, RoundRobinAdversary, SharedMemory, SoloAdversary, Workload};
use scl::spec::{check_linearizable, History, QueueOp, QueueSpec};

fn main() {
    // --- Uncontended: all operations commit in the register-only instance.
    let mut mem = SharedMemory::new();
    let mut queue = new_composable_universal(&mut mem, 2, QueueSpec);
    let workload: Workload<QueueSpec, History<QueueSpec>> = Workload::from_ops(vec![
        vec![QueueOp::Enqueue(10), QueueOp::Enqueue(20), QueueOp::Dequeue],
        vec![QueueOp::Enqueue(30), QueueOp::Dequeue],
    ]);
    let res = Executor::new().run(&mut mem, &mut queue, &workload, &mut SoloAdversary);
    assert!(res.completed);
    println!("uncontended run:");
    for (req, resp) in res.trace().commits() {
        println!("  {} {:?} -> {:?}", req.proc, req.op, resp);
    }
    println!(
        "  switches to the CAS instance: {}, max consensus number of base objects: {:?}",
        queue.switch_count(),
        mem.max_required_consensus_number()
    );
    assert!(check_linearizable(&QueueSpec, &res.trace().commit_projection()).is_linearizable());

    // --- Contended: round-robin stepping forces the register-only instance
    // to abort; the CAS instance finishes the work with the inherited
    // history.
    let mut mem = SharedMemory::new();
    let mut queue = new_composable_universal(&mut mem, 3, QueueSpec);
    let workload: Workload<QueueSpec, History<QueueSpec>> = Workload::from_ops(vec![
        vec![QueueOp::Enqueue(1), QueueOp::Dequeue],
        vec![QueueOp::Enqueue(2), QueueOp::Dequeue],
        vec![QueueOp::Enqueue(3), QueueOp::Dequeue],
    ]);
    let res = Executor::new().run(
        &mut mem,
        &mut queue,
        &workload,
        &mut RoundRobinAdversary::default(),
    );
    assert!(res.completed);
    println!("contended run:");
    for (req, resp) in res.trace().commits() {
        println!("  {} {:?} -> {:?}", req.proc, req.op, resp);
    }
    println!(
        "  switches to the CAS instance: {}, max consensus number of base objects: {:?}",
        queue.switch_count(),
        mem.max_required_consensus_number()
    );
    assert!(check_linearizable(&QueueSpec, &res.trace().commit_projection()).is_linearizable());
    println!("the composition stays linearizable in both regimes; contention is what pays for CAS");
}
