//! Model-checking the speculative test-and-set with the deterministic
//! simulator.
//!
//! The simulator enumerates *every* interleaving of two processes running
//! one test-and-set each against the composed object A1 ∘ A2, and checks on
//! each execution that (a) the composition never aborts, (b) there is
//! exactly one winner, (c) the commit projection is linearizable, and
//! (d) the trace admits a valid interpretation in the sense of Definition 2
//! (safe composability).
//!
//! Run with: `cargo run --example model_check_tas`

use scl::core::new_speculative_tas;
use scl::sim::{explore_schedules, ExploreConfig, Workload};
use scl::spec::{
    check_linearizable, find_valid_interpretation, TasConstraint, TasOp, TasResp, TasSpec,
    TasSwitch,
};

fn main() {
    let workload: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
    let outcome = explore_schedules(
        new_speculative_tas,
        &workload,
        &ExploreConfig {
            max_schedules: 1_000_000,
            max_ticks: 10_000,
            ..Default::default()
        },
        |res, mem| {
            if !res.completed {
                return Err("execution did not complete".into());
            }
            if res.metrics.aborted_count() > 0 {
                return Err("the composition aborted".into());
            }
            let winners = res
                .trace()
                .commits()
                .iter()
                .filter(|(_, r)| *r == TasResp::Winner)
                .count();
            if winners != 1 {
                return Err(format!("{winners} winners observed"));
            }
            if !check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable() {
                return Err("commit projection is not linearizable".into());
            }
            if !find_valid_interpretation(&TasSpec, &res.trace(), &TasConstraint).is_composable() {
                return Err("no valid Definition-2 interpretation found".into());
            }
            // The composed object must never require base objects beyond
            // consensus number 2.
            if mem.max_required_consensus_number().is_none() {
                return Err("a consensus-number-∞ primitive was used".into());
            }
            Ok(())
        },
    );

    match outcome {
        Ok(done) => println!(
            "verified {} schedules of 2 processes: wait-free, single winner, linearizable, \
             safely composable, base objects with consensus number ≤ 2",
            done.schedules()
        ),
        Err(violation) => {
            eprintln!(
                "VIOLATION under schedule {:?}: {}",
                violation.schedule, violation.message
            );
            std::process::exit(1);
        }
    }
}
