//! E8 (Appendix B): the solo-fast variant.
//!
//! In the standard composition a process may abort A1 — and hence pay for
//! the hardware object — merely because *another* process experienced step
//! contention earlier (the `aborted` flag is checked on entry). In the
//! solo-fast variant that entry check is removed, so a process reverts to
//! the hardware object only when it itself experiences step contention.
//!
//! The experiment creates exactly that situation: two processes contend and
//! abandon the speculative module, and afterwards a third process runs
//! alone. Under the standard variant the late solo process uses the hardware
//! object; under the solo-fast variant it commits with registers only.

use scl_bench::print_table;
use scl_core::{new_solo_fast_tas, new_speculative_tas, A1Tas, A2Tas, Composed};
use scl_sim::{Executor, RoundRobinAdversary, SharedMemory, SoloAdversary, Workload};
use scl_spec::{TasOp, TasResp, TasSpec, TasSwitch};

fn run_variant(mut mem: SharedMemory, mut tas: Composed<A1Tas, A2Tas>) -> (u64, u64, u64) {
    // Phase 1: processes 0 and 1 contend heavily.
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet],
        vec![TasOp::TestAndSet],
        vec![],
    ]);
    let res1 = Executor::new().run(&mut mem, &mut tas, &wl, &mut RoundRobinAdversary::default());
    assert!(res1.completed);
    let winners1 = res1
        .trace()
        .commits()
        .iter()
        .filter(|(_, r)| *r == TasResp::Winner)
        .count();
    let switches_phase1 = tas.switch_count();
    // Phase 2: process 2 runs completely alone.
    let wl2: Workload<TasSpec, TasSwitch> =
        Workload::from_ops(vec![vec![], vec![], vec![TasOp::TestAndSet]]);
    let res2 = Executor::new().run(&mut mem, &mut tas, &wl2, &mut SoloAdversary);
    assert!(res2.completed);
    let late_op = &res2.metrics.ops[0];
    let winners2 = res2
        .trace()
        .commits()
        .iter()
        .filter(|(_, r)| *r == TasResp::Winner)
        .count();
    assert_eq!(winners1 + winners2, 1, "one winner across both phases");
    let late_switched = tas.switch_count() - switches_phase1;
    (switches_phase1, late_switched, late_op.steps)
}

fn main() {
    let mut rows = Vec::new();
    // Standard composition.
    let mut mem = SharedMemory::new();
    let tas: Composed<A1Tas, A2Tas> = new_speculative_tas(&mut mem);
    let (contended_switches, late_switched, steps) = run_variant(mem, tas);
    rows.push(vec![
        "standard A1∘A2".to_string(),
        contended_switches.to_string(),
        late_switched.to_string(),
        steps.to_string(),
    ]);
    // Solo-fast composition.
    let mut mem = SharedMemory::new();
    let tas = new_solo_fast_tas(&mut mem);
    let (contended_switches, late_switched, steps) = run_variant(mem, tas);
    rows.push(vec![
        "solo-fast (Appendix B)".to_string(),
        contended_switches.to_string(),
        late_switched.to_string(),
        steps.to_string(),
    ]);
    print_table(
        "E8: a solo operation arriving after earlier contention abandoned the speculation",
        &[
            "variant",
            "contended_ops_that_switched",
            "late_solo_op_switched_module",
            "late_solo_op_steps",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (Appendix B): in the standard variant the late solo operation aborts \
         the speculative module (it observes the aborted flag set by *another* process's step \
         contention) and must switch; in the solo-fast variant it commits inside module A1 \
         without switching, because it never experienced step contention itself."
    );
}
