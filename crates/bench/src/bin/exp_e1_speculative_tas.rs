//! E1 (Figure 1 / Theorem 4): the composed speculative test-and-set.
//!
//! For n ∈ {1..8} processes and three scheduling regimes (sequential,
//! interval-contended, step-contended), report per-operation step counts,
//! the number of operations that fell through to the hardware module, abort
//! counts (must be zero — the composition is wait-free), and the maximum
//! consensus number of the base objects used (must be ≤ 2).

use scl_bench::{fmt_cn, print_table, run_and_summarise};
use scl_core::new_speculative_tas;
use scl_sim::{Adversary, InvokeAllThenSequential, RoundRobinAdversary, SoloAdversary, Workload};
use scl_spec::{TasOp, TasResp, TasSpec, TasSwitch};

fn main() {
    let mut rows = Vec::new();
    for n in 1..=8usize {
        for (regime, adversary) in [
            ("sequential", Box::new(SoloAdversary) as Box<dyn Adversary>),
            ("interval-contended", Box::new(InvokeAllThenSequential)),
            ("step-contended", Box::new(RoundRobinAdversary::default())),
        ] {
            let mut adversary = adversary;
            let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
            let (res, s) = run_and_summarise(new_speculative_tas, &wl, adversary.as_mut());
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            let slow_path_ops = res.metrics.ops.iter().filter(|o| o.rmws > 0).count();
            rows.push(vec![
                n.to_string(),
                regime.to_string(),
                format!("{:.1}", s.mean_steps),
                s.max_steps_committed.to_string(),
                slow_path_ops.to_string(),
                s.aborted.to_string(),
                winners.to_string(),
                fmt_cn(s.max_consensus_number),
            ]);
        }
    }
    print_table(
        "E1: speculative TAS (A1 ∘ A2), per-operation cost by contention regime",
        &[
            "n",
            "regime",
            "mean_steps",
            "max_steps",
            "ops_on_hw_path",
            "aborts",
            "winners",
            "max_consensus_nr",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper, §6): constant steps and 0 hardware ops without step \
         contention; no aborts anywhere; exactly 1 winner; consensus number ≤ 2."
    );
}
