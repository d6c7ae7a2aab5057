//! Checkpoint cost does not grow with the run: an object snapshot plus its
//! restore allocate the same number of heap blocks whatever the number of
//! operations committed before it.
//!
//! The explorer snapshots the object at every branch point, so a snapshot
//! that copied the universal construction's abstract log or request table
//! would cost time linear in the run at each of them. A counting global
//! allocator (per thread, so the test harness's other threads do not
//! interfere) measures `snapshot()` + `restore()` after a short and after a
//! longer solo run.

use scl::core::{new_composable_universal, ResettableTas};
use scl::sim::{Executor, SharedMemory, SimObject, SoloAdversary, Workload};
use scl::spec::{CounterOp, CounterSpec, History, TasOp, TasSpec, TasSwitch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the blocks each thread allocates.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Blocks allocated on this thread by one snapshot, restore and drop.
fn checkpoint_blocks<S, V, O: SimObject<S, V>>(obj: &mut O) -> u64
where
    S: scl::spec::SequentialSpec,
{
    let before = BLOCKS.with(Cell::get);
    let snap = obj.snapshot().expect("the object supports snapshots");
    obj.restore(&snap);
    drop(snap);
    BLOCKS.with(Cell::get) - before
}

/// Blocks a checkpoint of the two-level composable universal construction
/// allocates after process 0 committed `ops` increments alone.
fn composable_universal_blocks(ops: usize) -> u64 {
    let mut mem = SharedMemory::new();
    let mut uc = new_composable_universal(&mut mem, 2, CounterSpec);
    let wl: Workload<CounterSpec, History<CounterSpec>> =
        Workload::from_ops(vec![vec![CounterOp::Increment; ops], vec![]]);
    let res = Executor::new().run(&mut mem, &mut uc, &wl, &mut SoloAdversary);
    assert!(res.completed);
    assert_eq!(res.trace().commits().len(), ops);
    // Invocation and commit of every op, on the register-only level.
    assert_eq!(uc.first.recorded_abstract_trace().len(), 2 * ops);
    checkpoint_blocks(&mut uc)
}

/// Blocks a checkpoint of the resettable TAS allocates after process 0 won
/// and reset it `rounds` times, then won the next round.
fn resettable_tas_blocks(rounds: usize) -> u64 {
    let mut mem = SharedMemory::new();
    let mut tas = ResettableTas::new(&mut mem, 2);
    let mut ops = [TasOp::TestAndSet, TasOp::Reset].repeat(rounds);
    ops.push(TasOp::TestAndSet);
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![ops, vec![]]);
    let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut SoloAdversary);
    assert!(res.completed);
    assert_eq!(tas.rounds_allocated(), rounds + 1);
    checkpoint_blocks(&mut tas)
}

#[test]
fn composable_universal_checkpoint_cost_is_independent_of_committed_operations() {
    let short = composable_universal_blocks(1);
    let long = composable_universal_blocks(8);
    assert!(short > 0, "the allocator counts this thread's blocks");
    assert_eq!(
        short, long,
        "snapshot + restore allocated {short} blocks after 1 committed op, {long} after 8"
    );
}

#[test]
fn resettable_tas_checkpoint_cost_is_independent_of_rounds() {
    let short = resettable_tas_blocks(1);
    let long = resettable_tas_blocks(8);
    assert_eq!(
        short, long,
        "snapshot + restore allocated {short} blocks after 1 round, {long} after 8"
    );
}
