//! Oracle for the outcome-only scenarios: `scl-check` runs a scenario whose
//! checks read no real-time order (no linearizability variant among its
//! `checks`) under plain source DPOR, even when the lin-preserving relation
//! is configured. That is sound when plain source DPOR reaches every
//! outcome the lin-preserving relation reaches, and, where full enumeration
//! is feasible, every outcome `off` reaches.
//!
//! Each workload is rebuilt here from public constructors with the
//! scenario's own configuration overrides. Every schedule contributes its
//! outcome signature (each operation's outcome and step count, completion,
//! and the crashed and restarted masks); no schedule stops the exploration,
//! so violating schedules are collected too.

use scl_check::CheckConfig;
use scl_core::{new_speculative_tas, AbdRegister, ResettableTas, WbRecovery, WriteBehindRegister};
use scl_sim::{
    explore_schedules_report, ExecutionResult, ExploreConfig, ExploreOutcome, OpOutcome, Reduction,
    SharedMemory, SimObject, Workload,
};
use scl_spec::{RegisterOp, SequentialSpec, TasOp, TasSpec, TasSwitch};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// What every schedule of one Mazurkiewicz trace shares, and all an
/// outcome-only check may read.
fn signature<S, V>(res: &ExecutionResult<S, V>) -> String
where
    S: SequentialSpec,
    OpOutcome<S, V>: Debug,
{
    let mut ops: Vec<String> = res
        .ops
        .iter()
        .map(|o| format!("{}={:?}", o.req.id, o.outcome))
        .collect();
    ops.sort();
    let mut steps: Vec<String> = res
        .metrics
        .ops
        .iter()
        .map(|m| format!("{}:{}", m.req_id, m.steps))
        .collect();
    steps.sort();
    format!(
        "{}|steps {}|completed={} crashed={:b} restarted={:b}",
        ops.join(","),
        steps.join(","),
        res.completed,
        res.crashed,
        res.restarted
    )
}

/// The signature set of an exhaustive exploration under `reduction`, with
/// its schedule count.
fn signature_set<S, V, O, F>(
    setup: F,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    reduction: Reduction,
) -> (BTreeSet<String>, u64)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O,
    OpOutcome<S, V>: Debug,
{
    let mut set = BTreeSet::new();
    let config = ExploreConfig {
        reduction,
        max_schedules: 5_000_000,
        ..base.clone()
    };
    let report = explore_schedules_report(setup, wl, &config, |res, _mem| {
        set.insert(signature(res));
        Ok(())
    });
    match report.outcome {
        Ok(ExploreOutcome::Exhausted { schedules }) => (set, schedules),
        other => panic!("{reduction:?} must exhaust, got {other:?}"),
    }
}

/// Asserts that plain source DPOR reaches exactly the signatures of the
/// lin-preserving relation, and of `off` when `with_off` is set.
fn assert_outcomes_agree<S, V, O, F>(
    name: &str,
    setup: F,
    wl: &Workload<S, V>,
    base: &ExploreConfig,
    with_off: bool,
) where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
    F: FnMut(&mut SharedMemory) -> O + Clone,
    OpOutcome<S, V>: Debug,
{
    let (plain, plain_n) = signature_set(setup.clone(), wl, base, Reduction::SourceDpor);
    let (lin, lin_n) = signature_set(setup.clone(), wl, base, Reduction::SourceDporLinPreserving);
    assert_eq!(
        plain, lin,
        "{name}: plain source DPOR ({plain_n} schedules) and the lin-preserving relation \
         ({lin_n} schedules) reach different outcomes"
    );
    if with_off {
        let (off, off_n) = signature_set(setup, wl, base, Reduction::Off);
        assert_eq!(
            plain, off,
            "{name}: plain source DPOR ({plain_n} schedules) and full enumeration \
             ({off_n} schedules) reach different outcomes"
        );
    }
}

/// The CLI's default exploration configuration, before scenario overrides.
fn cli_explore() -> ExploreConfig {
    CheckConfig::default().explore
}

#[test]
fn spec_tas_n3_outcomes_match_the_lin_preserving_relation() {
    // `off` cannot exhaust this space (more than 5M schedules).
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
    assert_outcomes_agree(
        "spec_tas_n3",
        new_speculative_tas,
        &wl,
        &cli_explore(),
        false,
    );
}

#[test]
fn crash_resettable_tas_wedge_outcomes_match_both_relations_and_full_enumeration() {
    let base = ExploreConfig {
        max_crashes: 1,
        crash_eligible: 0b01,
        ..cli_explore()
    };
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet, TasOp::Reset],
        vec![TasOp::TestAndSet],
    ]);
    assert_outcomes_agree(
        "crash_resettable_tas_wedge_n2",
        |mem: &mut SharedMemory| ResettableTas::new(mem, 2),
        &wl,
        &base,
        true,
    );
}

#[test]
fn recovery_recrash_outcomes_match_both_relations_and_full_enumeration() {
    let base = ExploreConfig {
        max_crashes: 2,
        crash_eligible: 0b01,
        max_recoveries: 1,
        recovery_eligible: 0b01,
        ..cli_explore()
    };
    let wl = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    assert_outcomes_agree(
        "recovery_recrash_unrecovered_n2",
        |mem: &mut SharedMemory| WriteBehindRegister::with_recovery(mem, WbRecovery::Flush),
        &wl,
        &base,
        true,
    );
}

#[test]
fn abd_majority_wedge_outcomes_match_both_relations_and_full_enumeration() {
    let base = ExploreConfig {
        // Endpoint bit 2 + 1 = server 1.
        partition: 1 << 3,
        ..cli_explore()
    };
    let wl = Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    assert_outcomes_agree(
        "abd_partition_majority_wedge_n2",
        |mem: &mut SharedMemory| AbdRegister::new(mem, 2, 2, 12, 2),
        &wl,
        &base,
        true,
    );
}
