//! # scl-check
//!
//! Scenario-driven linearizability model checking: "model-check object X for
//! linearizability under reduction Y" as a one-liner for every object in the
//! repository.
//!
//! §3 of the paper defines correctness of (composed) algorithms as
//! linearizability of the invoke/commit projection of their traces
//! (Theorem 3). The schedule explorer of `scl-sim` enumerates every
//! interleaving of small configurations, and this crate supplies the three
//! pieces that turn it into a linearizability model checker:
//!
//! * [`bridge`] — the explorer↔spec bridge: a [`scl_sim::ScheduleMonitor`]
//!   that feeds the history (invocations, responses, crash gates and
//!   recovery deadlines) to the *incremental* Wing–Gong checker as the
//!   explorer runs (frontier states memoised at branch points, suffix-only
//!   re-checking under prefix-resume), or to the from-scratch checker per
//!   schedule, and decides every order of each explored trace's history;
//! * [`scenarios`] — the declarative scenario registry: named workloads over
//!   the speculative/solo-fast/resettable test-and-set, the bare A1 module
//!   and its seeded `DroppedRawFence` mutant, the composable universal
//!   construction (queue and register) and the consensus objects, each with
//!   its checks and expected outcome;
//! * the `scl-check` binary — runs any scenario by name with reduction and
//!   budget flags, several scenarios at once with `--workers N`
//!   ([`run_selection`]), and emits a JSON report (`--smoke` runs the whole
//!   registry under tiny bounds in CI).
//!
//! The reduced mode matters here: one schedule per Mazurkiewicz trace does
//! not fix the real-time order of operations of different processes, which
//! linearizability reads. Under source DPOR (the default) the bridge
//! therefore walks every linear extension of each explored trace's
//! history under happens-before, and reports a violating one as a schedule
//! of the same trace; the oracle tests in `tests/` verify the walk against
//! unreduced enumeration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bridge;
pub mod scenarios;

pub use artifact::{artifact_json, parse_json, render_interleaving, Artifact, Json};
pub use bridge::{CheckerMode, CrashedPending, HistoryEvent, LinMonitor};
pub use scenarios::{
    cli_name, crashed_pending_values, find, nearest, parse_crashed_pending, parse_reduction,
    reduction_name, reduction_values, registry, run_selection, unknown_value_message, CheckConfig,
    Outcome, ReplayCapture, Scenario, ScenarioReport,
};

/// Renders a set of scenario reports (plus the configuration that produced
/// them) as a JSON document. Hand-rolled: the workspace builds offline,
/// without serde.
pub fn reports_to_json(config: &CheckConfig, reports: &[ScenarioReport]) -> String {
    reports_to_json_partial(config, reports, &[], true)
}

/// [`reports_to_json`] for runs that may have been cut short by
/// `--time-budget-ms`: `skipped` names the scenarios that never started and
/// `exhausted` says whether the whole selection ran (`false` = partial
/// results). The document is well-formed either way — budget exhaustion
/// degrades to a smaller report, never to truncated output — and
/// `all_as_expected` covers the scenarios that actually ran.
pub fn reports_to_json_partial(
    config: &CheckConfig,
    reports: &[ScenarioReport],
    skipped: &[&str],
    exhausted: bool,
) -> String {
    let mut entries = Vec::new();
    for r in reports {
        let (schedules, violation) = match &r.outcome {
            Outcome::Exhausted { schedules } | Outcome::LimitReached { schedules } => {
                (*schedules, "null".to_string())
            }
            Outcome::Violation { schedule, message } => {
                let sched: Vec<String> = schedule.iter().map(|p| p.index().to_string()).collect();
                (
                    r.explore.schedules,
                    format!(
                        "{{\"schedule\": [{}], \"message\": {}}}",
                        sched.join(", "),
                        json_string(message)
                    ),
                )
            }
            Outcome::HarnessFailure { message } => (
                r.explore.schedules,
                format!("{{\"harness_failure\": {}}}", json_string(message)),
            ),
        };
        entries.push(format!(
            "    \"{}\": {{\"outcome\": \"{}\", \"schedules\": {}, \
             \"executed_steps\": {}, \"executed_ticks\": {}, \"checker_states\": {}, \
             \"expect_violation\": {}, \"underpowered\": {}, \"as_expected\": {}, \
             \"secs\": {:.6}, \"violation\": {}, \"telemetry\": {}}}",
            r.name,
            r.outcome.tag(),
            schedules,
            r.explore.executed_steps,
            r.explore.executed_ticks,
            r.checker_states,
            r.expect_violation,
            r.underpowered,
            r.as_expected(),
            r.secs,
            violation,
            telemetry_json(r),
        ));
    }
    for name in skipped {
        entries.push(format!(
            "    \"{name}\": {{\"outcome\": \"skipped\", \"reason\": \"time budget exhausted\"}}"
        ));
    }
    let all_as_expected = reports.iter().all(|r| r.as_expected());
    format!(
        "{{\n  \"tool\": \"scl-check\",\n  \"config\": {{\"reduction\": \"{}\", \
         \"crashed_pending\": \"{}\", \"max_schedules\": {}, \"max_ticks\": {}, \"max_drops\": \
         {}, \"max_recoveries\": {}, \"workers\": {}}},\n  \"host\": {{\"available_parallelism\": {}}},\n  \"exhausted\": \
         {},\n  \"scenarios\": {{\n{}\n  }},\n  \"all_as_expected\": {}\n}}\n",
        reduction_name(config.explore.reduction),
        config.crashed_pending.name(),
        config.explore.max_schedules,
        config.explore.max_ticks,
        config.explore.max_drops,
        config.explore.max_recoveries,
        config.explore.threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        exhausted,
        entries.join(",\n"),
        all_as_expected,
    )
}

/// Renders one report's telemetry (`"null"` when no observer was attached):
/// the engine's work counters from [`ScenarioReport::explore`], plus what
/// the observer recorded. The phase split is derived here: `checker_secs`
/// is the wall time spent inside [`LinMonitor::verdict`] calls,
/// `explore_secs` the remainder of the scenario's total wall time.
fn telemetry_json(r: &ScenarioReport) -> String {
    let Some(t) = &r.telemetry else {
        return "null".to_string();
    };
    let e = &r.explore;
    let checker_secs = t.checker_nanos as f64 / 1e9;
    let explore_secs = (r.secs - checker_secs).max(0.0);
    // The histogram has a fixed 65-bucket layout; trailing zeros carry no
    // information, so trim them (keeping at least one bucket).
    let hist = &t.depth_hist[..t
        .depth_hist
        .iter()
        .rposition(|&c| c != 0)
        .map_or(1, |i| i + 1)];
    let hist: Vec<String> = hist.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\"explored_steps\": {}, \"replayed_steps\": {}, \"crash_branches\": {}, \
         \"delivery_branches\": {}, \"drop_branches\": {}, \"restart_branches\": {}, \
         \"schedules\": {}, \"sleep_blocked\": {}, \"checkpoint_saves\": {}, \
         \"checkpoint_restores\": {}, \"races\": {}, \"race_seeds\": {}, \"hb_classes\": {}, \
         \"depth_hist\": [{}], \"explore_secs\": {:.6}, \"checker_secs\": {:.6}}}",
        e.executed_ticks - e.replayed_ticks,
        e.replayed_ticks,
        e.crash_steps,
        e.delivery_steps,
        e.drop_steps,
        e.restart_steps,
        e.schedules,
        e.sleep_blocked,
        e.snapshots,
        e.checkpoint_restores,
        e.races,
        e.race_seeds,
        t.hb_classes,
        hist.join(", "),
        explore_secs,
        checker_secs,
    )
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
