//! Explorer throughput: schedules/sec, executed work and reduction factors
//! on fixed speculative-TAS workloads.
//!
//! Eight modes are measured on the same 2–3 process A1/A2 (speculative
//! TAS) workloads, in one process and one sitting so the numbers are
//! comparable:
//!
//! * `baseline` — the pre-PR-1 explorer preserved for comparison: a fresh
//!   [`SharedMemory`], executor session and full event trace per schedule;
//! * `reused` — full-replay enumeration on a reusable memory + session (the
//!   PR 1 explorer; [`ResumeMode::FullReplay`] + [`Reduction::Off`]);
//! * `metrics_only` — same, with event-trace recording skipped;
//! * `parallel` — the branch-partitioned explorer with the machine's
//!   available parallelism;
//! * `prefix_resume` — [`ResumeMode::PrefixResume`]: backtracking restores a
//!   checkpoint instead of replaying the prefix (PR 2);
//! * `source_dpor` — [`Reduction::SourceDpor`]: race-driven wakeup-set
//!   seeding under sleep sets, so commuting interleavings are explored
//!   once;
//! * `source_dpor_lin` — [`Reduction::SourceDporLinPreserving`]: source
//!   DPOR with the invoke/commit barriers folded into the race relation;
//! * `source_combined` — `source_dpor_lin` + prefix-resume (the `scl-check`
//!   default configuration since PR 5).
//!
//! Writes `BENCH_PR5.json` at the workspace root (resolved relative to this
//! crate, independent of the invocation directory; `BENCH_PR1.json` and
//! `BENCH_PR2.json` are kept as the PR 1/PR 2 records) recording every
//! series plus derived speedups and per-mode reduction factors, and the
//! shared host metadata of [`scl_bench::benchjson`]. The JSON is
//! hand-rolled (the workspace builds offline, without serde).
//!
//! `--smoke` caps every enumeration at a few thousand schedules and runs one
//! repetition per cell — the CI guard that keeps the bench binary and the
//! JSON schema from rotting. The full run asserts the PR 2 and PR 5
//! acceptance bars: the reduced explorer exhausts the full n=3 space at a
//! ≥5× step saving on n=2, and the source-DPOR representative counts never
//! exceed the counts the removed eager sleep-set modes explored (26/79 on
//! n=2, 1956/11925 on the full n=3 space; strictly below 79 on the
//! lin-preserving n=2 space).

use scl_bench::benchjson;
use scl_core::new_speculative_tas;
use scl_sim::{
    explore_schedules_parallel_report, explore_schedules_report, Executor, ExploreConfig,
    ExploreOutcome, ExploreStats, Reduction, ResumeMode, ScriptedAdversary, SharedMemory, Workload,
};
use scl_spec::{ProcessId, TasOp, TasSpec, TasSwitch};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Measurement {
    schedules: u64,
    executed_ticks: u64,
    executed_steps: u64,
    replayed_ticks: u64,
    sleep_blocked: u64,
    races: u64,
    race_seeds: u64,
    exhausted: bool,
    secs: f64,
}

impl Measurement {
    fn sched_per_sec(&self) -> f64 {
        self.schedules as f64 / self.secs
    }

    fn steps_per_sec(&self) -> f64 {
        self.executed_steps as f64 / self.secs
    }

    fn from_stats(stats: &ExploreStats, exhausted: bool, secs: f64) -> Self {
        Measurement {
            schedules: stats.schedules,
            executed_ticks: stats.executed_ticks,
            executed_steps: stats.executed_steps,
            replayed_ticks: stats.replayed_ticks,
            sleep_blocked: stats.sleep_blocked,
            races: stats.races,
            race_seeds: stats.race_seeds,
            exhausted,
            secs,
        }
    }
}

/// The pre-PR-1 explorer, preserved verbatim in spirit: a fresh shared
/// memory, a fresh executor session and a full trace per schedule.
/// Enumeration order is identical to the unreduced incremental explorer.
fn explore_baseline(
    workload: &Workload<TasSpec, TasSwitch>,
    config: &ExploreConfig,
) -> Measurement {
    let executor = Executor::new().max_ticks(config.max_ticks);
    let mut schedules: u64 = 0;
    let mut ticks: u64 = 0;
    let mut steps: u64 = 0;
    let mut exhausted = true;
    let start = Instant::now();
    let mut stack: Vec<Vec<ProcessId>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if schedules >= config.max_schedules {
            exhausted = false;
            break;
        }
        schedules += 1;
        let mut mem = SharedMemory::new();
        let mut object = new_speculative_tas(&mut mem);
        let prefix_len = prefix.len();
        let mut adversary = ScriptedAdversary::new(prefix);
        let result = executor.run(&mut mem, &mut object, workload, &mut adversary);
        ticks += result.ticks;
        steps += mem.global_steps();
        for i in prefix_len..result.decisions.len() {
            let chosen = result.decisions.chosen_at(i);
            for &alt in result.decisions.enabled_at(i) {
                if alt == chosen {
                    continue;
                }
                let mut new_prefix = result.decisions.chosen()[..i].to_vec();
                new_prefix.push(alt);
                stack.push(new_prefix);
            }
        }
    }
    Measurement {
        schedules,
        executed_ticks: ticks,
        executed_steps: steps,
        replayed_ticks: 0,
        sleep_blocked: 0,
        races: 0,
        race_seeds: 0,
        exhausted,
        secs: start.elapsed().as_secs_f64(),
    }
}

fn mode_config(mode: &str, max_schedules: u64) -> ExploreConfig {
    let mut config = ExploreConfig {
        max_schedules,
        max_ticks: 10_000,
        ..Default::default()
    };
    match mode {
        "baseline" | "reused" | "parallel" => {}
        "metrics_only" => config.metrics_only = true,
        "prefix_resume" => config.resume = ResumeMode::PrefixResume,
        "source_dpor" => config.reduction = Reduction::SourceDpor,
        "source_dpor_lin" => config.reduction = Reduction::SourceDporLinPreserving,
        "source_combined" => {
            config.reduction = Reduction::SourceDporLinPreserving;
            config.resume = ResumeMode::PrefixResume;
        }
        other => panic!("unknown mode {other}"),
    }
    config
}

fn measure(mode: &str, n: usize, max_schedules: u64, reps: usize) -> Measurement {
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
    let config = mode_config(mode, max_schedules);
    let mut best: Option<Measurement> = None;
    // Repetitions; keep the fastest (the series are compared to each other,
    // so the minimum is the fairest frequency-noise filter).
    for _ in 0..reps {
        let m = match mode {
            "baseline" => explore_baseline(&wl, &config),
            "parallel" => {
                let start = Instant::now();
                let report = explore_schedules_parallel_report(
                    new_speculative_tas,
                    &wl,
                    &config,
                    |_r, _m| Ok(()),
                );
                let exhausted = matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. }));
                Measurement::from_stats(&report.stats, exhausted, start.elapsed().as_secs_f64())
            }
            _ => {
                let start = Instant::now();
                let report =
                    explore_schedules_report(new_speculative_tas, &wl, &config, |_r, _m| Ok(()));
                let exhausted = matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. }));
                Measurement::from_stats(&report.stats, exhausted, start.elapsed().as_secs_f64())
            }
        };
        best = Some(match best {
            Some(b) if b.secs <= m.secs => b,
            _ => m,
        });
    }
    let m = best.expect("at least one repetition");
    println!(
        "{mode:>16} n={n}: schedules={} ticks={} steps={} replayed={} blocked={} races={} seeds={} exhausted={} secs={:.3} sched/s={:.0}",
        m.schedules,
        m.executed_ticks,
        m.executed_steps,
        m.replayed_ticks,
        m.sleep_blocked,
        m.races,
        m.race_seeds,
        m.exhausted,
        m.secs,
        m.sched_per_sec(),
    );
    m
}

fn json_entry(m: &Measurement) -> String {
    format!(
        "{{\"schedules\": {}, \"executed_ticks\": {}, \"executed_steps\": {}, \"replayed_ticks\": {}, \"sleep_blocked\": {}, \"races\": {}, \"race_seeds\": {}, \"exhausted\": {}, \"secs\": {:.6}, \"schedules_per_sec\": {:.0}, \"executed_steps_per_sec\": {:.0}}}",
        m.schedules,
        m.executed_ticks,
        m.executed_steps,
        m.replayed_ticks,
        m.sleep_blocked,
        m.races,
        m.race_seeds,
        m.exhausted,
        m.secs,
        m.sched_per_sec(),
        m.steps_per_sec()
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    // (workload name, processes, schedule cap, modes). `u64::MAX` means
    // exhaustive. The full n=3 space (>50M schedules) is only tractable for
    // the reduced modes.
    let all: &[&str] = &[
        "baseline",
        "reused",
        "metrics_only",
        "parallel",
        "prefix_resume",
        "source_dpor",
        "source_dpor_lin",
        "source_combined",
    ];
    let reduced: &[&str] = &["source_dpor", "source_dpor_lin", "source_combined"];
    let n2_cap = if smoke { 2_000 } else { 1_000_000 };
    let n3_cap = if smoke { 2_000 } else { 50_000 };
    let full_cap = if smoke { 5_000 } else { u64::MAX };
    let workloads: &[(&str, usize, u64, &[&str])] = &[
        ("speculative_tas_n2", 2, n2_cap, all),
        ("speculative_tas_n3_capped", 3, n3_cap, all),
        ("speculative_tas_n3_full", 3, full_cap, reduced),
    ];

    let mut sections = Vec::new();
    let mut derived = Vec::new();
    let mut all_results: Vec<(&str, String, Measurement)> = Vec::new();
    for &(wl_name, n, cap, modes) in workloads {
        println!("-- {wl_name} --");
        let results: Vec<(String, Measurement)> = modes
            .iter()
            .map(|mode| (mode.to_string(), measure(mode, n, cap, reps)))
            .collect();
        if results[0].0 == "baseline" {
            let baseline = results[0].1;
            for (mode, m) in &results[1..] {
                derived.push(format!(
                    "    \"{wl_name}/{mode}/schedules_per_sec_vs_baseline\": {:.2}",
                    m.sched_per_sec() / baseline.sched_per_sec()
                ));
                derived.push(format!(
                    "    \"{wl_name}/{mode}/executed_steps_saving_vs_baseline\": {:.2}",
                    baseline.executed_steps as f64 / (m.executed_steps.max(1)) as f64
                ));
            }
        }
        let by_mode = |name: &str| results.iter().find(|(m, _)| m == name).map(|(_, v)| *v);
        if let (Some(full), Some(source)) = (by_mode("reused"), by_mode("source_dpor")) {
            derived.push(format!(
                "    \"{wl_name}/source_dpor_reduction_factor\": {:.2}",
                full.schedules as f64 / source.schedules.max(1) as f64
            ));
        }
        let entries: Vec<String> = results
            .iter()
            .map(|(mode, m)| format!("    \"{mode}\": {}", json_entry(m)))
            .collect();
        sections.push(format!(
            "  \"{wl_name}\": {{\n{}\n  }}",
            entries.join(",\n")
        ));
        all_results.extend(results.into_iter().map(|(mode, m)| (wl_name, mode, m)));
    }

    let host = benchjson::host_json(smoke, &[]);
    let json = format!(
        "{{\n  \"description\": \"Explorer work accounting for PR 5: the race-driven source-DPOR reductions (SourceDpor, SourceDporLinPreserving) alongside every earlier mode. Workloads: one TAS op per process on the composed A1*A2 speculative test-and-set. executed_steps counts shared-memory steps actually executed, including backtracking replays, so it is the honest cost metric across modes; schedules under the reduced modes counts the explored representatives of the full space; races/race_seeds count the reversible races the source-DPOR modes detected and the wakeup entries they seeded from them.\",\n  \"units\": {{\"schedules_per_sec\": \"schedules/second\", \"executed_steps_per_sec\": \"shared-memory steps/second\"}},\n{host},\n{},\n  \"derived\": {{\n{}\n  }}\n}}\n",
        sections.join(",\n"),
        derived.join(",\n")
    );
    benchjson::write_report("BENCH_PR5", smoke, &json);

    if !smoke {
        // Acceptance guards for PR 2 and PR 5 (loud failures beat silent
        // rot).
        let get = |wl: &str, mode: &str| {
            all_results
                .iter()
                .find(|(w, m, _)| *w == wl && m == mode)
                .map(|(_, _, m)| *m)
                .expect("measured")
        };
        let full = get("speculative_tas_n3_full", "source_combined");
        assert!(
            full.exhausted,
            "the reduced explorer must exhaust the full n=3 space"
        );
        let (b, c) = (
            get("speculative_tas_n2", "baseline"),
            get("speculative_tas_n2", "source_combined"),
        );
        let saving = b.executed_steps as f64 / c.executed_steps.max(1) as f64;
        assert!(
            saving >= 5.0,
            "the reduced explorer must execute >=5x fewer steps than full replay \
             on the exhaustive n=2 workload (got {saving:.1}x)"
        );
        // PR 5: race-driven wakeup sets never cost representatives over the
        // counts the removed eager sleep-set modes explored (plain, lin), on
        // any benched workload...
        for (wl, eager_plain, eager_lin) in [
            ("speculative_tas_n2", 26, 79),
            ("speculative_tas_n3_full", 1_956, 11_925),
        ] {
            let (plain, lin) = (get(wl, "source_dpor"), get(wl, "source_dpor_lin"));
            assert!(plain.exhausted && lin.exhausted, "{wl}: must exhaust");
            assert!(
                plain.schedules <= eager_plain,
                "{wl}: source_dpor explored {} > eager {eager_plain}",
                plain.schedules
            );
            assert!(
                lin.schedules <= eager_lin,
                "{wl}: source_dpor_lin explored {} > eager {eager_lin}",
                lin.schedules
            );
        }
        // ...and the lin-preserving gap actually closes on the exhaustive
        // n=2 space: strictly below the eager mode's 79 representatives.
        let source_lin = get("speculative_tas_n2", "source_dpor_lin");
        assert!(
            source_lin.schedules < 79,
            "source_dpor_lin must explore strictly fewer n=2 representatives \
             than the eager mode's 79 ({})",
            source_lin.schedules
        );
        // The resume mechanics do not change the enumeration.
        let source_combined = get("speculative_tas_n2", "source_combined");
        assert_eq!(source_combined.schedules, source_lin.schedules);
    }
}
