//! Helper binary of the repository benchmark; `perfbench/run.py` drives it.
//!
//! ```text
//! scl-perfbench calibrate [--threads N]
//! scl-perfbench runtime-tas --seed N --seconds S
//! scl-perfbench trace [--workers N] [--max-schedules N] SCENARIO...
//! ```
//!
//! `calibrate` times a fixed computation that measures the host's current
//! speed (see `calibrate.rs`). `runtime-tas` runs seeded leader-election
//! rounds on `scl_runtime::ResettableTas` from two threads. `trace` re-runs
//! `scl-check` registry scenarios, rebuilt from the crates' public
//! constructors, with timing shims around the object, its operations and the
//! linearizability monitor. Each prints one JSON document on stdout.

mod calibrate;
mod runtime_tas;
mod trace;

const USAGE: &str = "usage: scl-perfbench calibrate [--threads N]
       scl-perfbench runtime-tas --seed N --seconds S
       scl-perfbench trace [--workers N] [--max-schedules N] SCENARIO...";

/// The value following `--name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value of `--name`, falling back to `default` when absent.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("calibrate") => calibrate::main(&args[1..]),
        Some("runtime-tas") => runtime_tas::main(&args[1..]),
        Some("trace") => trace::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
