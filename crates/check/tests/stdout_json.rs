//! CLI contract tests: `scl-check --json -` keeps stdout machine-parseable
//! (all diagnostics on stderr), emitted JSON documents are well-formed,
//! telemetry counters ride along in reports (including time-budget partial
//! reports), and the artifact → replay pipeline works end to end through
//! the real binary.

use scl_check::{parse_json, Json};
use std::process::Command;

fn scl_check() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scl-check"))
}

#[test]
fn json_to_stdout_is_pure_and_well_formed() {
    let out = scl_check()
        .args(["spec_tas_n2", "a1_dropped_raw_fence_n2", "--json", "-"])
        .output()
        .expect("scl-check runs");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");

    // stdout is exactly one JSON document — parseable with zero scrubbing.
    let doc =
        parse_json(&stdout).unwrap_or_else(|e| panic!("stdout is not pure JSON ({e}):\n{stdout}"));
    assert_eq!(
        doc.get("tool").and_then(Json::as_str),
        Some("scl-check"),
        "report names the tool"
    );
    assert_eq!(doc.get("all_as_expected"), Some(&Json::Bool(true)));

    // The human-readable status lines went to stderr instead.
    assert!(
        stderr.contains("spec_tas_n2") && stderr.contains("violation as expected"),
        "status lines belong on stderr: {stderr}"
    );

    // Telemetry counters are attached per scenario, and the phase timers
    // are split into exploring vs checking shares.
    let scenarios = doc.get("scenarios").expect("scenarios object");
    for name in ["spec_tas_n2", "a1_dropped_raw_fence_n2"] {
        let entry = scenarios.get(name).expect("scenario entry");
        assert!(entry.get("secs").is_some());
        let telemetry = entry.get("telemetry").expect("telemetry field");
        assert_ne!(telemetry, &Json::Null, "CLI runs always collect telemetry");
        assert!(
            telemetry
                .get("schedules")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "telemetry counted schedules for {name}"
        );
        assert!(telemetry.get("explore_secs").is_some());
        assert!(telemetry.get("checker_secs").is_some());
        assert!(telemetry
            .get("depth_hist")
            .and_then(Json::as_arr)
            .is_some_and(|h| !h.is_empty()));
        assert!(
            telemetry
                .get("hb_classes")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "source-DPOR default collects hb classes for {name}"
        );
    }
}

#[test]
fn each_scenario_entry_names_the_reduction_it_ran() {
    // Under the default lin-preserving config, an outcome-only scenario
    // reports plain source DPOR, in the JSON entry and the status line.
    let out = scl_check()
        .args([
            "spec_tas_n2",
            "abd_partition_majority_wedge_n2",
            "--json",
            "-",
        ])
        .output()
        .expect("scl-check runs");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let doc = parse_json(&stdout).unwrap_or_else(|e| panic!("not JSON ({e}):\n{stdout}"));
    let scenarios = doc.get("scenarios").expect("scenarios object");
    for (name, reduction) in [
        ("spec_tas_n2", "source-dpor-lin"),
        ("abd_partition_majority_wedge_n2", "source-dpor"),
    ] {
        let entry = scenarios.get(name).expect("scenario entry");
        assert_eq!(
            entry.get("reduction").and_then(Json::as_str),
            Some(reduction),
            "{name}"
        );
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(name) && l.contains(&format!("reduction={reduction} "))),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn artifact_emission_and_replay_work_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("scl-artifacts-{}", std::process::id()));
    let out = scl_check()
        .args([
            "a1_dropped_raw_fence_n2",
            "--artifacts",
            dir.to_str().expect("utf-8 temp dir"),
        ])
        .output()
        .expect("scl-check runs");
    assert!(out.status.success(), "exit: {:?}", out.status);

    let path = dir.join("a1_dropped_raw_fence_n2.trace.json");
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let doc = parse_json(&text).unwrap_or_else(|e| panic!("artifact is not JSON ({e}):\n{text}"));
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("counterexample")
    );
    assert!(doc
        .get("ticks")
        .and_then(Json::as_arr)
        .is_some_and(|t| !t.is_empty()));

    let replay = scl_check()
        .args(["replay", path.to_str().expect("utf-8 path")])
        .output()
        .expect("scl-check replay runs");
    let stdout = String::from_utf8(replay.stdout).expect("utf-8 stdout");
    assert!(
        replay.status.success(),
        "replay must reproduce the verdict; stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(stdout.contains("verdict reproduced"));
    assert!(
        stdout.contains("tick") && stdout.contains("p0") && stdout.contains("p1"),
        "replay prints the interleaving diagram:\n{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_artifacts_fail_replay_loudly() {
    let dir = std::env::temp_dir().join(format!("scl-artifacts-tamper-{}", std::process::id()));
    let out = scl_check()
        .args([
            "a1_dropped_raw_fence_n2",
            "--artifacts",
            dir.to_str().expect("utf-8 temp dir"),
        ])
        .output()
        .expect("scl-check runs");
    assert!(out.status.success());
    let path = dir.join("a1_dropped_raw_fence_n2.trace.json");
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let tampered = text.replace("2 winners (expected exactly 1)", "a verdict that never was");
    assert_ne!(tampered, text, "the tamper must hit the recorded message");
    std::fs::write(&path, tampered).expect("rewrite artifact");

    let replay = scl_check()
        .args(["replay", path.to_str().expect("utf-8 path")])
        .output()
        .expect("scl-check replay runs");
    assert!(
        !replay.status.success(),
        "a verdict mismatch must fail the replay"
    );
    assert!(String::from_utf8_lossy(&replay.stderr).contains("VERDICT MISMATCH"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_budget_partial_report_keeps_telemetry_for_completed_scenarios() {
    // Independent of host speed: the budget is far above process start-up,
    // so the first scenario always starts, and with the schedule cap lifted
    // only the deadline can end it — `abd_lossy_n2` still had not exhausted
    // its tree after 2 million schedules, about ten seconds of a release
    // build. The deadline has therefore passed when the first scenario
    // reports (a partial `limit_reached` with telemetry), and the second is
    // skipped. The document stays well-formed throughout.
    let out = scl_check()
        .args([
            "abd_lossy_n2",
            "spec_tas_n2",
            "--max-schedules",
            "1000000000",
            "--time-budget-ms",
            "100",
            "--json",
            "-",
        ])
        .output()
        .expect("scl-check runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc =
        parse_json(&stdout).unwrap_or_else(|e| panic!("partial report not JSON ({e}):\n{stdout}"));
    assert_eq!(doc.get("exhausted"), Some(&Json::Bool(false)));
    let scenarios = doc.get("scenarios").expect("scenarios object");
    let first = scenarios.get("abd_lossy_n2").expect("first scenario entry");
    assert_eq!(
        first.get("outcome").and_then(Json::as_str),
        Some("limit_reached"),
        "the deadline, not the tree, ends the first scenario"
    );
    assert_eq!(
        scenarios
            .get("spec_tas_n2")
            .and_then(|e| e.get("outcome"))
            .and_then(Json::as_str),
        Some("skipped"),
        "the expired budget must skip the rest"
    );
    let Json::Obj(entries) = scenarios else {
        panic!("scenarios must be an object")
    };
    for (name, entry) in entries {
        match entry.get("outcome").and_then(Json::as_str) {
            Some("skipped") => {}
            Some(_) => assert_ne!(
                entry.get("telemetry"),
                Some(&Json::Null),
                "completed scenario `{name}` must keep its telemetry in a partial report"
            ),
            None => panic!("entry `{name}` has no outcome"),
        }
    }
}
