//! E7 (§6.3): the long-lived resettable test-and-set.
//!
//! Rounds of leader election: in each round every process performs one
//! test-and-set (under a contended schedule), then the winner resets the
//! object. Reports per-round winner uniqueness and, crucially, the cost of
//! the round *after* a reset in an uncontended setting — the reset reverts
//! the object to the cheap speculative module.

use scl_bench::print_table;
use scl_core::{A1Tas, ResettableTas};
use scl_sim::{Executor, RoundRobinAdversary, SharedMemory, SoloAdversary, Workload};
use scl_spec::{TasOp, TasResp, TasSpec, TasSwitch};

fn main() {
    let mut rows = Vec::new();
    for n in [2usize, 4, 8] {
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, n);
        let rounds = 16usize;
        let mut unique_winner_rounds = 0usize;
        let mut post_reset_steps = Vec::new();
        let mut post_reset_rmws = Vec::new();
        for _ in 0..rounds {
            // Contended election.
            let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
            let res =
                Executor::new().run(&mut mem, &mut tas, &wl, &mut RoundRobinAdversary::default());
            let winners: Vec<_> = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .map(|(req, _)| req.proc)
                .collect();
            if winners.len() == 1 {
                unique_winner_rounds += 1;
            }
            // Winner resets; then performs one uncontended test-and-set in
            // the fresh round to measure the cost after reverting to the
            // speculative module.
            let winner = winners[0];
            let mut ops = vec![Vec::new(); n];
            ops[winner.index()] = vec![TasOp::Reset, TasOp::TestAndSet];
            let wl2: Workload<TasSpec, TasSwitch> = Workload::from_ops(ops);
            let res2 = Executor::new().run(&mut mem, &mut tas, &wl2, &mut SoloAdversary);
            let tas_op = res2
                .metrics
                .ops
                .iter()
                .find(|o| {
                    res2.trace()
                        .request(o.req_id)
                        .map(|r| r.op == TasOp::TestAndSet)
                        .unwrap_or(false)
                })
                .unwrap();
            post_reset_steps.push(tas_op.steps);
            post_reset_rmws.push(tas_op.rmws);
            // Re-reset so the next round starts unwon.
            let mut ops = vec![Vec::new(); n];
            ops[winner.index()] = vec![TasOp::Reset];
            let wl3: Workload<TasSpec, TasSwitch> = Workload::from_ops(ops);
            Executor::new().run(&mut mem, &mut tas, &wl3, &mut SoloAdversary);
        }
        let mean_steps =
            post_reset_steps.iter().sum::<u64>() as f64 / post_reset_steps.len() as f64;
        let total_rmws: u64 = post_reset_rmws.iter().sum();
        rows.push(vec![
            n.to_string(),
            rounds.to_string(),
            unique_winner_rounds.to_string(),
            format!("{mean_steps:.1}"),
            total_rmws.to_string(),
            tas.rounds_allocated().to_string(),
        ]);
    }
    print_table(
        "E7: long-lived resettable TAS over 16 contended election rounds",
        &[
            "n",
            "rounds",
            "rounds_with_unique_winner",
            "mean_steps_post_reset_uncontended",
            "rmw_ops_post_reset",
            "speculative_instances_allocated",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (§6.3): every round has a unique winner; after a reset the uncontended \
         operation costs at most 1 + {} register steps and 0 RMW instructions (back in \
         speculative mode).",
        A1Tas::MAX_STEPS
    );
}
