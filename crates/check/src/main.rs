//! The `scl-check` CLI: run any registered model-checking scenario by name.
//!
//! ```text
//! scl-check --list
//! scl-check spec_tas_n2 a1_dropped_raw_fence_n2
//! scl-check --all --reduction source-dpor --resume full-replay
//! scl-check --smoke --json SCL_CHECK_SMOKE.json        # the CI entry point
//! scl-check --smoke --artifacts traces/               # counterexample dumps
//! scl-check replay traces/a1_dropped_raw_fence_n2.trace.json
//! ```
//!
//! Exit code 0 iff every run matched its scenario's expectation (correct
//! objects pass, seeded mutants violate). Per-scenario status lines,
//! heartbeats and every other diagnostic go to **stderr**; stdout carries
//! only requested output (`--list`, the replay diagram, and the JSON report
//! when `--json -` is given), so `scl-check --json - | jq` just works.

use scl_check::{
    artifact_json, checker_values, cli_name, crashed_pending_values, find, metrics_only_conflict,
    parse_checker, parse_crashed_pending, parse_reduction, parse_resume, reduction_values,
    registry, render_interleaving, reports_to_json_partial, resume_values, unknown_value_message,
    Artifact, CheckConfig, Outcome, ReplayCapture, Scenario, ScenarioReport,
};
use scl_sim::{ReplayOutcome, TelemetryObserver};
use std::sync::Arc;

/// Prints the "unknown value, did you mean …" diagnostic and exits with the
/// usage-error code.
fn die_unknown<'a, I>(kind: &str, input: &str, candidates: I) -> !
where
    I: IntoIterator<Item = &'a str>,
{
    eprintln!("{}", unknown_value_message(kind, input, candidates));
    std::process::exit(2);
}

/// Renders a flag's accepted values from its registry table, marking the
/// default — the same tables [`parse_reduction`] & co. resolve against, so
/// the help text cannot drift from what the parser accepts.
fn value_list<T: PartialEq>(values: &[(&str, T)], default: &T) -> String {
    values
        .iter()
        .map(|(name, v)| {
            if v == default {
                format!("{name} (default)")
            } else {
                (*name).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

fn flag_values() -> (String, String, String, String) {
    let defaults = CheckConfig::default();
    (
        value_list(reduction_values(), &defaults.explore.reduction),
        value_list(resume_values(), &defaults.explore.resume),
        value_list(checker_values(), &defaults.checker),
        value_list(crashed_pending_values(), &defaults.crashed_pending),
    )
}

fn usage() -> ! {
    let (reductions, resumes, checkers, crashed) = flag_values();
    eprintln!(
        "usage: scl-check [SCENARIO...] [options]\n\
         \x20      scl-check replay TRACE.json\n\
         \n\
         Scenario selection:\n\
         \x20  SCENARIO...             run the named scenarios (see --list)\n\
         \x20  --all                   run every registered scenario\n\
         \x20  --smoke                 --all under tiny bounds (CI)\n\
         \x20  --list                  print the scenario catalogue and exit\n\
         \n\
         Replay:\n\
         \x20  replay TRACE.json       re-execute a recorded counterexample\n\
         \x20                          artifact deterministically, print the\n\
         \x20                          per-process interleaving and assert the\n\
         \x20                          recorded verdict reproduces\n\
         \n\
         Options:\n\
         \x20  --reduction MODE        {reductions}\n\
         \x20                          (source-dpor-lin keeps its lin barriers\n\
         \x20                          only where a verdict reads real-time\n\
         \x20                          order; outcome-only scenarios run it as\n\
         \x20                          source-dpor)\n\
         \x20  --resume MODE           {resumes}\n\
         \x20  --checker MODE          {checkers}\n\
         \x20  --crashed-pending MODE  {crashed}\n\
         \x20                          (strict = strict linearizability for\n\
         \x20                          crash-exploring scenarios)\n\
         \x20  --max-schedules N       schedule budget (default 200000)\n\
         \x20  --max-ticks N           tick limit per execution (default 10000)\n\
         \x20  --max-drops N           message-drop budget per schedule (default 0;\n\
         \x20                          only network scenarios have messages to drop,\n\
         \x20                          and lossy scenarios enforce their own minimum)\n\
         \x20  --max-recoveries N      restart budget per schedule (default 0 =\n\
         \x20                          crashed processes stay down; restarts only\n\
         \x20                          arise in scenarios with a crash budget)\n\
         \x20  --workers N             engine worker threads: 1 = sequential\n\
         \x20                          (default), 0 = available parallelism\n\
         \x20  --time-budget-ms N      stop starting scenarios once N ms have\n\
         \x20                          elapsed; the JSON report stays well-formed\n\
         \x20                          and marks the remainder \"skipped\"\n\
         \x20  --metrics-only          skip event-trace recording (rejected for\n\
         \x20                          scenarios with trace-consuming checks)\n\
         \x20  --heartbeat N           print an exploration progress line to\n\
         \x20                          stderr every N completed schedules\n\
         \x20  --artifacts DIR         on violation, write a self-contained\n\
         \x20                          counterexample artifact to\n\
         \x20                          DIR/<scenario>.trace.json\n\
         \x20  --json PATH             also write the JSON report to PATH\n\
         \x20                          (`-` = stdout; diagnostics stay on stderr)"
    );
    std::process::exit(2);
}

fn list() {
    println!(
        "{:<26} {:>5}  {:<44} checks / expected",
        "scenario", "procs", "object"
    );
    for s in registry() {
        println!(
            "{:<26} {:>5}  {:<44} {} / {}",
            s.name,
            s.processes,
            s.object,
            s.checks.join(","),
            if s.expect_violation {
                "violation"
            } else {
                "pass"
            },
        );
    }
    let (reductions, resumes, checkers, crashed) = flag_values();
    println!("\naccepted --reduction values: {reductions}");
    println!("accepted --resume values:    {resumes}");
    println!("accepted --checker values:   {checkers}");
    println!("accepted --crashed-pending values: {crashed}");
}

/// `scl-check replay TRACE.json`: parse the artifact, rebuild the recorded
/// configuration, re-execute the schedule through the scenario's own runner,
/// print the per-process interleaving, and exit 0 iff the recorded verdict
/// reproduced bit-identically.
fn replay_main(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let artifact = Artifact::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a counterexample artifact: {e}");
        std::process::exit(2);
    });
    let scenario = find(&artifact.scenario).unwrap_or_else(|| {
        die_unknown(
            "artifact scenario",
            &artifact.scenario,
            registry().iter().map(|s| s.name),
        )
    });
    let capture = Arc::new(ReplayCapture::new(artifact.schedule.clone()));
    let mut config = artifact.config.clone();
    config.replay = Some(capture.clone());
    let report = scenario.run(&config);
    let Some((outcome, log)) = capture.take() else {
        eprintln!(
            "scenario `{}` never replayed the schedule: {:?}",
            scenario.name, report.outcome
        );
        std::process::exit(2);
    };
    println!(
        "replaying `{}` ({} ticks, {} processes)\n",
        scenario.name,
        log.ticks.len(),
        log.processes
    );
    print!("{}", render_interleaving(&log));
    match outcome {
        ReplayOutcome::Violation(message) if message == artifact.message => {
            println!("\nverdict reproduced: {message}");
            std::process::exit(0);
        }
        ReplayOutcome::Violation(message) => {
            eprintln!(
                "\nVERDICT MISMATCH:\n  recorded: {}\n  replayed: {message}",
                artifact.message
            );
            std::process::exit(1);
        }
        ReplayOutcome::Passed => {
            eprintln!(
                "\nVERDICT MISMATCH: the recorded violation did not reproduce\n  recorded: {}",
                artifact.message
            );
            std::process::exit(1);
        }
        ReplayOutcome::Diverged { tick, reason } => {
            eprintln!("\nREPLAY DIVERGED at tick {tick}: {reason}");
            std::process::exit(1);
        }
    }
}

/// Replays a just-reported violation through the scenario's own runner to
/// decode it, and writes the self-contained artifact to
/// `DIR/<scenario>.trace.json`. Synthetic violations with no schedule (e.g.
/// "the designed abort never occurred") have nothing to replay and are
/// skipped with a notice.
fn emit_artifact(
    dir: &str,
    s: &Scenario,
    config: &CheckConfig,
    schedule: &[scl_spec::ProcessId],
    message: &str,
) {
    if schedule.is_empty() {
        eprintln!(
            "{:<26} no artifact: the violation is synthetic (empty schedule)",
            s.name
        );
        return;
    }
    let capture = Arc::new(ReplayCapture::new(schedule.to_vec()));
    let mut replay_config = config.clone();
    replay_config.observer = None;
    replay_config.replay = Some(capture.clone());
    let _ = s.run(&replay_config);
    let Some((outcome, log)) = capture.take() else {
        eprintln!("{:<26} no artifact: the replay never ran", s.name);
        return;
    };
    if outcome != ReplayOutcome::Violation(message.to_string()) {
        eprintln!(
            "{:<26} no artifact: the violation did not reproduce under replay ({outcome:?})",
            s.name
        );
        return;
    }
    let json = artifact_json(s.name, config, message, schedule, &log);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    }
    let path = format!("{dir}/{}.trace.json", s.name);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("{:<26} wrote {path}", s.name);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        replay_main(&args[1..]);
    }
    let mut config = CheckConfig::default();
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut artifacts_dir: Option<String> = None;
    let mut heartbeat: u64 = 0;
    let mut time_budget_ms: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match arg {
            "--list" => {
                list();
                return;
            }
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--metrics-only" => config.explore.metrics_only = true,
            "--reduction" => {
                let v = value(&mut i);
                config.explore.reduction = parse_reduction(&v).unwrap_or_else(|| {
                    die_unknown(
                        "--reduction value",
                        &v,
                        reduction_values().iter().map(|(n, _)| *n),
                    )
                });
            }
            "--resume" => {
                let v = value(&mut i);
                config.explore.resume = parse_resume(&v).unwrap_or_else(|| {
                    die_unknown(
                        "--resume value",
                        &v,
                        resume_values().iter().map(|(n, _)| *n),
                    )
                });
            }
            "--checker" => {
                let v = value(&mut i);
                config.checker = parse_checker(&v).unwrap_or_else(|| {
                    die_unknown(
                        "--checker value",
                        &v,
                        checker_values().iter().map(|(n, _)| *n),
                    )
                });
            }
            "--crashed-pending" => {
                let v = value(&mut i);
                config.crashed_pending = parse_crashed_pending(&v).unwrap_or_else(|| {
                    die_unknown(
                        "--crashed-pending value",
                        &v,
                        crashed_pending_values().iter().map(|(n, _)| *n),
                    )
                });
            }
            "--time-budget-ms" => {
                let v = value(&mut i);
                time_budget_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--max-schedules" => {
                let v = value(&mut i);
                config.explore.max_schedules = v.parse().unwrap_or_else(|_| usage());
            }
            "--max-ticks" => {
                let v = value(&mut i);
                config.explore.max_ticks = v.parse().unwrap_or_else(|_| usage());
            }
            "--max-drops" => {
                let v = value(&mut i);
                config.explore.max_drops = v.parse().unwrap_or_else(|_| usage());
            }
            "--max-recoveries" => {
                let v = value(&mut i);
                config.explore.max_recoveries = v.parse().unwrap_or_else(|_| usage());
            }
            "--workers" => {
                let v = value(&mut i);
                config.explore.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--json" => json_path = Some(value(&mut i)),
            "--artifacts" => artifacts_dir = Some(value(&mut i)),
            "--heartbeat" => {
                let v = value(&mut i);
                heartbeat = v.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            name if !name.starts_with('-') => names.push(name.to_string()),
            _ => usage(),
        }
        i += 1;
    }

    if smoke {
        let smoke = CheckConfig::smoke().explore;
        let explore = &mut config.explore;
        explore.max_schedules = explore.max_schedules.min(smoke.max_schedules);
        explore.max_ticks = explore.max_ticks.min(smoke.max_ticks);
        all = true;
    }
    let scenarios: Vec<&'static Scenario> = if all {
        registry().iter().collect()
    } else if names.is_empty() {
        usage();
    } else {
        names
            .iter()
            .map(|n| {
                find(n).unwrap_or_else(|| {
                    die_unknown("scenario", n, registry().iter().map(|s| s.name))
                })
            })
            .collect()
    };

    // Reject --metrics-only against trace-consuming scenarios *now*, at
    // arg-parse time — not as a ConfigError halfway through the run.
    if config.explore.metrics_only {
        if let Some(msg) = metrics_only_conflict(scenarios.iter().copied()) {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }

    // The time budget cuts at two granularities. Between scenarios: the
    // ones that never started are listed as skipped in a still-well-formed
    // JSON document. *Within* a scenario: the deadline is threaded into the
    // explorer's budget gate, so a scenario caught mid-exploration degrades
    // to a partial `limit_reached` report instead of blowing the whole
    // budget — graceful degradation, not a mid-write death.
    let deadline =
        time_budget_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    config.explore.deadline = deadline;
    let mut skipped: Vec<&str> = Vec::new();
    let mut reports: Vec<ScenarioReport> = Vec::new();
    for (idx, s) in scenarios.iter().enumerate() {
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                skipped = scenarios[idx..].iter().map(|s| s.name).collect();
                eprintln!(
                    "time budget exhausted; skipping {} scenario(s): {}",
                    skipped.len(),
                    skipped.join(", ")
                );
                break;
            }
        }
        // One fresh observer per scenario: what it records lands in this
        // scenario's JSON entry and nothing else's. The observer is called
        // once per completed schedule (a depth-histogram bump and an
        // hb-class fingerprint), never per tick, so the CLI always attaches
        // it; the zero-cost NoObserver path is for library/bench callers
        // that leave `observer` unset.
        let mut run_config = config.clone();
        run_config.observer = Some(Arc::new(TelemetryObserver::new(
            heartbeat,
            config.explore.max_schedules,
        )));
        let report = s.run(&run_config);
        let secs = report.secs;
        let status = match (&report.outcome, report.as_expected()) {
            (Outcome::ConfigError(msg), _) => format!("CONFIG ERROR: {msg}"),
            (Outcome::HarnessFailure { message }, _) => format!("HARNESS FAILURE: {message}"),
            (Outcome::Violation { schedule, message }, true) => {
                format!("violation as expected ({message}; schedule {schedule:?})")
            }
            (Outcome::Violation { schedule, message }, false) => {
                format!("UNEXPECTED VIOLATION: {message}; schedule {schedule:?}")
            }
            (Outcome::Exhausted { schedules }, true) => {
                format!("ok, exhausted {schedules} schedules")
            }
            (Outcome::LimitReached { schedules }, true) => {
                format!("ok within budget ({schedules} schedules, not exhausted)")
            }
            (_, false) => "EXPECTED A VIOLATION, none found".to_string(),
        };
        eprintln!(
            "{:<26} {status} [steps={} checker_states={} reduction={} {:.3}s]",
            s.name,
            report.explore.executed_steps,
            report.checker_states,
            cli_name(reduction_values(), report.reduction),
            secs
        );
        if let (Some(dir), Outcome::Violation { schedule, message }) =
            (&artifacts_dir, &report.outcome)
        {
            emit_artifact(dir, s, &config, schedule, message);
        }
        reports.push(report);
    }

    let json = reports_to_json_partial(&config, &reports, &skipped, skipped.is_empty());
    if let Some(path) = &json_path {
        if path == "-" {
            // Machine-parseable stdout: the JSON document and nothing else
            // (all diagnostics above went to stderr).
            print!("{json}");
        } else {
            if let Some(dir) = std::path::Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {}: {e}", dir.display());
                    std::process::exit(2);
                });
            }
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
    }

    let ok = reports.iter().all(|r| r.as_expected());
    if !ok {
        eprintln!("some scenarios did not match their expected outcome");
        std::process::exit(1);
    }
}
