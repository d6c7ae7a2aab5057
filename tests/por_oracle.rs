//! Soundness oracle for the reduced explorer: on configurations small enough
//! to enumerate fully, source-DPOR exploration must reach exactly the final
//! states full enumeration reaches, prefix-resume must enumerate exactly the
//! same schedules as full replay, and a seeded bug (module A1 with its final
//! RAW-fenced read dropped) must be caught in every mode. A register
//! workload whose schedules exceed 64 events holds the reduction to the same
//! final states past the happens-before rows' first word.

use scl::core::{new_speculative_tas, A1Tas, A1Variant, A2Tas, Composed, WriteBehindRegister};
use scl::sim::{
    explore_schedules, explore_schedules_report, ExploreConfig, ExploreOutcome, ExploreViolation,
    Reduction, RegId, ResumeMode, SharedMemory, Workload,
};
use scl::spec::{check_linearizable, RegisterOp, RegisterSpec, TasOp, TasResp, TasSpec, TasSwitch};
use std::collections::BTreeSet;

type Wl = Workload<TasSpec, TasSwitch>;

/// The full n=2 speculative-TAS schedule count, pinned since PR 1.
const N2_FULL_SCHEDULES: u64 = 64_472;

/// Representatives the removed eager sleep-set modes explored under
/// prefix-resume: plain on n=2, lin-preserving on n=2, plain on n=3.
const EAGER_N2_SCHEDULES: u64 = 26;
const EAGER_LIN_N2_SCHEDULES: u64 = 79;
const EAGER_N3_SCHEDULES: u64 = 1_956;

fn mode(reduction: Reduction, resume: ResumeMode) -> ExploreConfig {
    ExploreConfig {
        max_schedules: u64::MAX,
        reduction,
        resume,
        ..Default::default()
    }
}

fn all_modes() -> Vec<ExploreConfig> {
    let mut v = Vec::new();
    for reduction in [Reduction::Off, Reduction::SourceDpor] {
        for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
            v.push(mode(reduction, resume));
        }
    }
    v
}

/// A schedule-order-invariant fingerprint of a finished execution: the final
/// register file plus each process's operation outcome. Everything a
/// commuting-step reordering preserves — and nothing it does not.
fn fingerprint(res: &scl::sim::ExecutionResult<TasSpec, TasSwitch>, mem: &SharedMemory) -> String {
    let mut fp = String::new();
    for i in 0..mem.register_count() {
        fp.push_str(&format!("{:?};", mem.peek(scl::sim::RegId(i))));
    }
    let mut outs: Vec<String> = res
        .ops
        .iter()
        .map(|o| format!("{:?}={:?}", o.req.proc, o.outcome))
        .collect();
    outs.sort();
    fp.push_str(&outs.join("|"));
    fp
}

fn final_states(config: &ExploreConfig, n: usize) -> (ExploreOutcome, BTreeSet<String>) {
    let wl: Wl = Workload::single_op_each(n, TasOp::TestAndSet);
    let mut states = BTreeSet::new();
    let outcome = explore_schedules(new_speculative_tas, &wl, config, |res, mem| {
        if !res.completed {
            return Err("did not complete".into());
        }
        states.insert(fingerprint(res, mem));
        Ok(())
    })
    .expect("speculative TAS is correct under every schedule");
    (outcome, states)
}

/// On n=2 (64472 schedules) source DPOR in both resume modes reaches exactly the same
/// set of final states as full enumeration: the oracle the acceptance
/// criteria require.
#[test]
fn reduced_modes_reach_exactly_the_full_final_state_set_on_n2() {
    let (full_outcome, full_states) =
        final_states(&mode(Reduction::Off, ResumeMode::FullReplay), 2);
    assert_eq!(
        full_outcome,
        ExploreOutcome::Exhausted {
            schedules: N2_FULL_SCHEDULES
        },
        "the unreduced enumeration must match the pinned PR 1 count"
    );

    let reduction = Reduction::SourceDpor;
    for resume in [ResumeMode::FullReplay, ResumeMode::PrefixResume] {
        let (reduced_outcome, reduced_states) = final_states(&mode(reduction, resume), 2);
        assert!(matches!(reduced_outcome, ExploreOutcome::Exhausted { .. }));
        assert!(
            reduced_outcome.schedules() < full_outcome.schedules() / 100,
            "{reduction:?} should prune the bulk of the {N2_FULL_SCHEDULES} schedules, \
             explored {}",
            reduced_outcome.schedules()
        );
        assert_eq!(
            full_states, reduced_states,
            "{reduction:?} ({resume:?}) lost or invented final states"
        );
    }
}

/// Race-driven source DPOR never explores more representatives than the
/// removed eager sleep-set modes did — it exactly matches the plain one,
/// whose conservative wake relation coincides with the executed-label race
/// relation, and strictly undercuts the lin-preserving one.
#[test]
fn source_dpor_counts_close_the_reduction_gap_on_n2() {
    let count = |reduction| {
        final_states(&mode(reduction, ResumeMode::PrefixResume), 2)
            .0
            .schedules()
    };
    let source = count(Reduction::SourceDpor);
    assert_eq!(
        source, EAGER_N2_SCHEDULES,
        "plain relations coincide, so must the counts"
    );
    assert!(
        source < EAGER_LIN_N2_SCHEDULES,
        "the source-DPOR space must be strictly smaller than the eager lin-preserving one \
         ({source} vs {EAGER_LIN_N2_SCHEDULES})"
    );
}

/// Prefix-resume changes the backtracking mechanics, not the enumeration:
/// same schedules, same outcome, same final states, no replayed ticks.
#[test]
fn prefix_resume_enumerates_exactly_the_full_replay_tree_on_n2() {
    let (replay_outcome, replay_states) =
        final_states(&mode(Reduction::Off, ResumeMode::FullReplay), 2);
    let (resume_outcome, resume_states) =
        final_states(&mode(Reduction::Off, ResumeMode::PrefixResume), 2);
    assert_eq!(replay_outcome, resume_outcome);
    assert_eq!(replay_states, resume_states);

    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let report = explore_schedules_report(
        new_speculative_tas,
        &wl,
        &mode(Reduction::Off, ResumeMode::PrefixResume),
        |_res, _mem| Ok(()),
    );
    assert_eq!(report.stats.schedules, N2_FULL_SCHEDULES);
    assert_eq!(
        report.stats.replayed_ticks, 0,
        "the speculative TAS is fully snapshottable; nothing should be replayed"
    );
    assert_eq!(report.stats.snapshot_fallbacks, 0);
}

/// The reduced modes agree with each other on n=3 as well (the unreduced
/// n=3 space is too large for a debug-build test; its equivalence on n=2 and
/// the n=3 agreement across mechanics and branching strategies cover both
/// axes).
#[test]
fn reduced_modes_agree_on_n3() {
    // The race-driven branching reaches the same final states in both
    // resume mechanics, with the eager mode's representative count (the
    // plain race relation is exact).
    let (a_outcome, a_states) =
        final_states(&mode(Reduction::SourceDpor, ResumeMode::FullReplay), 3);
    let (b_outcome, b_states) =
        final_states(&mode(Reduction::SourceDpor, ResumeMode::PrefixResume), 3);
    assert!(matches!(a_outcome, ExploreOutcome::Exhausted { .. }));
    assert_eq!(a_outcome, b_outcome);
    assert_eq!(a_states, b_states);
    assert_eq!(a_outcome.schedules(), EAGER_N3_SCHEDULES);
}

/// The seeded bug: dropping A1's final RAW-fenced read of `aborted` lets a
/// process commit `winner` while a contending process aborts with `W` and
/// goes on to win the hardware module — two winners in the composition.
fn new_buggy_tas(mem: &mut SharedMemory) -> Composed<A1Tas, A2Tas> {
    Composed::new(
        A1Tas::with_variant(mem, A1Variant::DroppedRawFence),
        A2Tas::new(mem),
    )
}

fn single_winner_check(
    res: &scl::sim::ExecutionResult<TasSpec, TasSwitch>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("did not complete".into());
    }
    let winners = res
        .trace()
        .commits()
        .iter()
        .filter(|(_, r)| *r == TasResp::Winner)
        .count();
    if winners > 1 {
        return Err(format!("{winners} winners"));
    }
    Ok(())
}

#[test]
fn seeded_raw_fence_bug_is_caught_under_every_reduction() {
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    let mut violations: Vec<(ExploreConfig, ExploreViolation)> = Vec::new();
    for config in all_modes() {
        let violation = explore_schedules(new_buggy_tas, &wl, &config, single_winner_check)
            .expect_err("the dropped-RAW-fence mutant must produce two winners");
        assert!(
            violation.message.contains("2 winners"),
            "config {config:?}: unexpected violation {violation}"
        );
        violations.push((config, violation));
    }
    // Both resume mechanics report the identical counterexample within each
    // reduction mode (the reduction itself may pick a different — equally
    // real — representative schedule). `all_modes` yields replay/resume
    // pairs per reduction.
    for pair in violations.chunks(2) {
        let [(ca, va), (cb, vb)] = pair else {
            panic!("all_modes yields replay/resume pairs");
        };
        assert_eq!(ca.reduction, cb.reduction);
        assert_eq!(va, vb, "{:?}: replay vs resume", ca.reduction);
    }
}

/// The unmutated algorithm passes the same check in every mode — the seeded
/// bug is detected because it is a bug, not because the checker is trigger-
/// happy.
#[test]
fn correct_tas_passes_the_single_winner_check_in_every_mode() {
    let wl: Wl = Workload::single_op_each(2, TasOp::TestAndSet);
    for config in all_modes() {
        explore_schedules(new_speculative_tas, &wl, &config, single_winner_check)
            .unwrap_or_else(|v| panic!("config {config:?}: spurious violation {v}"));
    }
}

/// One process runs 20 two-step writes and a read (63 or 64 ticks with their
/// invocations) beside a single write of another (3 ticks): every schedule
/// is deeper than 64 ticks, so the happens-before rows span two words and
/// races and backtracks cross the word boundary (46k schedules unreduced).
/// Returns the schedule count, the final states (register file plus
/// outcomes) and the verdict signatures (outcomes plus the
/// linearizability verdict).
fn deep_register_sets(reduction: Reduction) -> (u64, BTreeSet<String>, BTreeSet<String>) {
    let mut writer: Vec<_> = (1..=20).map(RegisterOp::Write).collect();
    writer.push(RegisterOp::Read);
    let wl = Workload::from_ops(vec![writer, vec![RegisterOp::Write(100)]]);
    let (mut states, mut verdicts) = (BTreeSet::new(), BTreeSet::new());
    let outcome = explore_schedules(
        WriteBehindRegister::new,
        &wl,
        &mode(reduction, ResumeMode::PrefixResume),
        |res, mem| {
            assert!(
                res.completed && res.decisions.len() > 64,
                "{} ticks",
                res.decisions.len()
            );
            let regs: Vec<_> = (0..mem.register_count())
                .map(|i| mem.peek(RegId(i)))
                .collect();
            let mut outs: Vec<_> = res
                .ops
                .iter()
                .map(|o| format!("{}={:?}", o.req.id, o.outcome))
                .collect();
            outs.sort();
            let lin = check_linearizable(&RegisterSpec, &res.trace().commit_projection())
                .is_linearizable();
            states.insert(format!("{regs:?}|{outs:?}"));
            verdicts.insert(format!("{outs:?}|lin={lin}"));
            Ok(())
        },
    )
    .expect("the write-behind register is linearizable without crashes");
    assert!(matches!(outcome, ExploreOutcome::Exhausted { .. }));
    (outcome.schedules(), states, verdicts)
}

/// Source DPOR reaches exactly full enumeration's final states and verdict
/// signatures on schedules deeper than 64 events.
#[test]
fn source_modes_match_full_enumeration_past_64_events() {
    let (full, full_states, full_verdicts) = deep_register_sets(Reduction::Off);
    let reduction = Reduction::SourceDpor;
    let (schedules, states, verdicts) = deep_register_sets(reduction);
    assert!(schedules < full, "{reduction:?}: {schedules} vs {full}");
    assert_eq!(states, full_states, "{reduction:?} final states");
    assert_eq!(verdicts, full_verdicts, "{reduction:?} verdict signatures");
}
