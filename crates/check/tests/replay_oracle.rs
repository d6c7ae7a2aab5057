//! Replay oracle: every expected-violation scenario in the registry —
//! shared-memory, crash-fault and network scenarios alike — must emit a
//! counterexample whose deterministic replay reproduces the recorded verdict
//! bit-identically, under source DPOR and both resume modes. The full artifact round trip (serialize → parse →
//! rebuild config → replay) is part of the oracle: what `scl-check
//! --artifacts` writes is exactly what `scl-check replay` must reproduce.

use scl_check::{artifact_json, Artifact, CheckConfig, Outcome, ReplayCapture, Scenario};
use scl_sim::{ExploreConfig, Reduction, ReplayOutcome, ResumeMode};
use std::sync::Arc;

/// The reduction × resume grid the oracle sweeps: source DPOR, whose
/// linearizability verdicts cover every schedule of each explored trace, on
/// both resume modes.
fn mode_grid() -> Vec<(Reduction, ResumeMode)> {
    [ResumeMode::FullReplay, ResumeMode::PrefixResume]
        .into_iter()
        .map(|m| (Reduction::SourceDpor, m))
        .collect()
}

/// Runs `scenario` to a violation under `config`, replays the recorded
/// schedule through the scenario's own runner, and asserts the verdict
/// reproduces. Returns the (schedule, message) pair for further rounds.
fn violate_and_replay(
    scenario: &Scenario,
    config: &CheckConfig,
) -> (Vec<scl_spec::ProcessId>, String) {
    let report = scenario.run(config);
    let Outcome::Violation { schedule, message } = report.outcome else {
        panic!(
            "scenario `{}` must violate under {:?}/{:?}, got {:?}",
            scenario.name, config.explore.reduction, config.explore.resume, report.outcome
        );
    };
    assert!(
        !schedule.is_empty(),
        "scenario `{}` reported a violation with no schedule — nothing to replay",
        scenario.name
    );

    let capture = Arc::new(ReplayCapture::new(schedule.clone()));
    let mut replay_config = config.clone();
    replay_config.replay = Some(capture.clone());
    let replay_report = scenario.run(&replay_config);

    // The replayed run classifies exactly like the exploration did: same
    // outcome tag, same schedule, bit-identical message.
    match &replay_report.outcome {
        Outcome::Violation {
            schedule: replayed_schedule,
            message: replayed_message,
        } => {
            assert_eq!(
                replayed_message, &message,
                "scenario `{}`: replay verdict diverged under {:?}/{:?}",
                scenario.name, config.explore.reduction, config.explore.resume
            );
            assert_eq!(
                replayed_schedule, &schedule,
                "scenario `{}`: replay must report the recorded schedule",
                scenario.name
            );
        }
        other => panic!(
            "scenario `{}`: replay produced {:?} instead of the recorded violation",
            scenario.name, other
        ),
    }

    // The capture's raw outcome agrees, and the decoded log covers the
    // whole schedule (violations are only reported on complete executions).
    let (outcome, log) = capture
        .take()
        .expect("the runner must deposit the replay log");
    assert_eq!(outcome, ReplayOutcome::Violation(message.clone()));
    assert_eq!(log.ticks.len(), schedule.len());
    assert!(log.completed, "violating schedules replay to completion");

    (schedule, message)
}

#[test]
fn every_expected_violation_replays_bit_identically_across_modes() {
    let violating: Vec<&Scenario> = scl_check::registry()
        .iter()
        .filter(|s| s.expect_violation)
        .collect();
    assert!(
        violating.len() >= 11,
        "the registry lost its seeded-violation scenarios"
    );
    // Crash, recovery and network faults must all be represented: replay
    // has to handle crash, restart and delivery/drop pseudo-steps, not just
    // real steps.
    assert!(violating.iter().any(|s| s.name.starts_with("crash_")));
    assert!(violating.iter().any(|s| s.name.starts_with("recovery_")));
    assert!(violating.iter().any(|s| s.name.starts_with("abd_")));

    for scenario in violating {
        for (reduction, resume) in mode_grid() {
            let config = CheckConfig {
                explore: ExploreConfig {
                    reduction,
                    resume,
                    ..CheckConfig::default().explore
                },
                ..CheckConfig::default()
            };
            violate_and_replay(scenario, &config);
        }
    }
}

#[test]
fn artifact_round_trip_reproduces_the_verdict() {
    // The full pipeline for one shared-memory, one crash, one recovery and
    // one network counterexample: violate → decode via replay → serialize
    // the artifact → parse it back → rebuild the config from recorded
    // provenance → replay again → identical verdict.
    for name in [
        "a1_dropped_raw_fence_n2",
        "crash_write_behind_strict_n2",
        "recovery_tas_mutant_n2",
        "abd_quorum_mutant",
    ] {
        let scenario = scl_check::find(name).expect("registered scenario");
        let config = CheckConfig::default();
        let (schedule, message) = violate_and_replay(scenario, &config);

        // Decode the counterexample once more to get the log the artifact
        // embeds (what `scl-check --artifacts` does).
        let capture = Arc::new(ReplayCapture::new(schedule.clone()));
        let mut replay_config = config.clone();
        replay_config.replay = Some(capture.clone());
        let _ = scenario.run(&replay_config);
        let (_, log) = capture.take().expect("replay log");

        let doc = artifact_json(scenario.name, &config, &message, &schedule, &log);
        let artifact = Artifact::from_json(&doc)
            .unwrap_or_else(|e| panic!("artifact for `{name}` does not parse: {e}\n{doc}"));
        assert_eq!(artifact.scenario, scenario.name);
        assert_eq!(artifact.message, message);
        assert_eq!(artifact.schedule, schedule);

        // Replay purely from the parsed artifact, the way the CLI does.
        let rebuilt = artifact.config.clone();
        assert_eq!(rebuilt.explore.reduction, config.explore.reduction);
        assert_eq!(rebuilt.explore.resume, config.explore.resume);
        let capture = Arc::new(ReplayCapture::new(artifact.schedule.clone()));
        let mut replay_config = rebuilt;
        replay_config.replay = Some(capture.clone());
        let report = scenario.run(&replay_config);
        let Outcome::Violation {
            message: replayed, ..
        } = report.outcome
        else {
            panic!("artifact replay of `{name}` produced {:?}", report.outcome);
        };
        assert_eq!(
            replayed, artifact.message,
            "artifact replay of `{name}` must reproduce the recorded verdict bit-identically"
        );
    }
}

#[test]
fn artifacts_naming_the_second_source_dpor_name_replay() {
    // Artifacts written before `scl-check` dropped `source-dpor-lin` name it
    // in their config; they replay as `source-dpor`, the same exploration.
    for name in ["a1_dropped_raw_fence_n2", "crash_write_behind_strict_n2"] {
        let scenario = scl_check::find(name).expect("registered scenario");
        let config = CheckConfig::default();
        let (schedule, message) = violate_and_replay(scenario, &config);
        let capture = Arc::new(ReplayCapture::new(schedule.clone()));
        let mut replay_config = config.clone();
        replay_config.replay = Some(capture.clone());
        let _ = scenario.run(&replay_config);
        let (_, log) = capture.take().expect("replay log");
        let doc = artifact_json(scenario.name, &config, &message, &schedule, &log);
        let current = "\"reduction\": \"source-dpor\"";
        assert_eq!(doc.matches(current).count(), 1, "{doc}");
        let old = doc.replace(current, "\"reduction\": \"source-dpor-lin\"");
        let artifact = Artifact::from_json(&old)
            .unwrap_or_else(|e| panic!("old artifact for `{name}` does not parse: {e}\n{old}"));
        assert_eq!(artifact.config.explore.reduction, Reduction::SourceDpor);
        let capture = Arc::new(ReplayCapture::new(artifact.schedule.clone()));
        let mut replay_config = artifact.config;
        replay_config.replay = Some(capture.clone());
        let report = scenario.run(&replay_config);
        assert_eq!(
            report.outcome,
            Outcome::Violation { schedule, message },
            "{name}"
        );
        assert!(matches!(
            capture.take(),
            Some((ReplayOutcome::Violation(_), _))
        ));
    }
}

#[test]
fn foreign_artifacts_diverge_instead_of_misreporting() {
    // A schedule from a different object diverges cleanly: the replay
    // reports the failing tick rather than a bogus verdict.
    let scenario = scl_check::find("spec_tas_n2").expect("registered scenario");
    let capture = Arc::new(ReplayCapture::new(vec![
        scl_spec::ProcessId(0),
        scl_spec::ProcessId(7),
    ]));
    let config = CheckConfig {
        replay: Some(capture.clone()),
        ..CheckConfig::default()
    };
    let report = scenario.run(&config);
    let Outcome::Violation { message, .. } = report.outcome else {
        panic!("a divergent replay must surface as a violation-style report");
    };
    assert!(
        message.contains("diverged at tick 1"),
        "divergence must name the failing tick: {message}"
    );
    let (outcome, log) = capture.take().expect("partial log");
    assert!(matches!(outcome, ReplayOutcome::Diverged { tick: 1, .. }));
    assert_eq!(log.ticks.len(), 1, "the log covers the ticks that did run");
}
