//! `scl-check --workers N` runs whole scenarios concurrently, each on one
//! thread with its own monitor and observer, so the report must not depend
//! on N: every scenario entry of `--all` is the same under one worker and
//! under two, in selection order, and two two-worker runs agree. Only wall
//! times (`secs`, `explore_secs`, `checker_secs`) and the config's `workers`
//! may differ. The three runs go at once, so the two-worker runs also meet
//! a loaded host.

use scl_check::{parse_json, Json};
use std::process::{Child, Command, Stdio};

/// Starts `scl-check ARGS --json -` with stdout captured.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_scl-check"))
        .args(args)
        .args(["--json", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("scl-check starts")
}

/// Waits for a run and returns its report.
fn report(child: Child) -> Json {
    let out = child.wait_with_output().expect("scl-check runs");
    assert!(
        out.status.success(),
        "scl-check exited with {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    parse_json(&stdout).unwrap_or_else(|e| panic!("not JSON ({e}):\n{stdout}"))
}

/// `value` without the wall-time keys, at any depth.
fn without_timings(value: &Json) -> Json {
    match value {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "secs" | "explore_secs" | "checker_secs"))
                .map(|(k, v)| (k.clone(), without_timings(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The report's scenario entries, in report order, without timings.
fn entries(doc: &Json) -> Vec<(String, Json)> {
    match doc.get("scenarios").map(without_timings) {
        Some(Json::Obj(fields)) => fields,
        other => panic!("no scenarios object: {other:?}"),
    }
}

#[test]
fn every_entry_is_identical_under_one_and_two_workers() {
    let runs = [
        spawn(&["--all", "--workers", "1"]),
        spawn(&["--all", "--workers", "2"]),
        spawn(&["--all", "--workers", "2"]),
    ];
    let [one, two, again] = runs.map(report);
    let registered: Vec<&str> = scl_check::registry().iter().map(|s| s.name).collect();
    let names: Vec<String> = entries(&one).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, registered, "entries follow the selection order");
    for (i, doc) in [&two, &again].into_iter().enumerate() {
        let workers = doc.get("config").and_then(|c| c.get("workers"));
        assert_eq!(workers.and_then(Json::as_u64), Some(2));
        for ((name, a), (other, b)) in entries(&one).iter().zip(entries(doc)) {
            assert_eq!(name, &other);
            assert_eq!(a, &b, "{name}: two-worker run {i} differs from one worker");
        }
    }
    assert_eq!(one.get("all_as_expected"), Some(&Json::Bool(true)));
}

#[test]
fn a_zero_time_budget_skips_every_scenario_under_two_workers() {
    let doc = report(spawn(&["--all", "--workers", "2", "--time-budget-ms", "0"]));
    assert_eq!(doc.get("exhausted"), Some(&Json::Bool(false)));
    let entries = entries(&doc);
    assert_eq!(entries.len(), scl_check::registry().len());
    for (name, entry) in entries {
        assert_eq!(
            entry.get("outcome").and_then(Json::as_str),
            Some("skipped"),
            "{name}"
        );
    }
}
