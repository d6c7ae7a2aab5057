//! Host-speed calibration.
//!
//! The benchmark host is shared, and its speed for a single thread drifts by
//! tens of percent over minutes. `perfbench/run.py` therefore times this
//! fixed, std-only computation between timed intervals, on as many threads
//! as the timed workload uses, and scales each interval by the samples
//! around it. The computation resembles the checker's inner loops (hash-map
//! updates, sorting, pushing and popping fixed-size state records) and uses
//! nothing from the repository, so no change to the repository moves it.
//! Its working set (several MB) is deliberately larger than the caches: a
//! cache-resident version tracked the host's speed for the checker far
//! worse. Run it in a process of its own wherever a peak RSS is measured.

use crate::parsed_flag;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

fn work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 16);
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        *map.entry(next() & 0xffff).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&(next() & 0xffff)).copied().unwrap_or(0));
    }
    let mut sorted: Vec<u64> = (0..60_000).map(|_| next()).collect();
    sorted.sort_unstable();
    acc = acc.wrapping_add(sorted[sorted.len() / 2]);
    let mut stack: Vec<[u64; 12]> = Vec::new();
    for i in 0..200_000u64 {
        if next() % 3 == 0 && !stack.is_empty() {
            let top = stack.pop().expect("checked non-empty");
            acc = acc.wrapping_add(top[(i % 12) as usize]);
        } else {
            let mut record = [0u64; 12];
            record[(i % 12) as usize] = i;
            stack.push(record);
        }
    }
    acc
}

/// Unreported repetitions at the start of a sample. The first runs of a
/// fresh process fault in their memory and grow the allocator's heap; the
/// third is the first that reuses it, and only such runs track the host's
/// speed for the checker closely.
const WARMUP: usize = 2;
/// Reported repetitions in one calibration sample.
const RUNS: usize = 5;

/// Times one calibration sample on `threads` threads in a child process, so
/// its memory does not count towards this process's peak RSS.
pub fn times_in_child(threads: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["calibrate", "--threads", &threads.to_string()])
        .output()
        .map_err(|e| format!("cannot run calibrate: {e}"))?;
    let times: Option<Vec<f64>> = String::from_utf8_lossy(&out.stdout)
        .trim()
        .strip_prefix("{\"calibration_s\": [")
        .and_then(|v| v.strip_suffix("]}"))
        .map(|v| v.split(", ").filter_map(|t| t.parse().ok()).collect());
    times
        .filter(|t| out.status.success() && t.len() == RUNS)
        .ok_or_else(|| "calibrate printed no times".to_string())
}

/// Seconds each of `runs` repetitions of the calibration computation takes
/// when `threads` threads run it at once: per repetition, the slowest
/// thread's time. A workload on two threads waits for the slower of its two
/// cores, so its host speed is sampled on both.
pub fn times(runs: usize, threads: usize) -> Vec<f64> {
    let barrier = Barrier::new(threads);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    (0..runs as u64)
                        .map(|i| {
                            barrier.wait();
                            let start = Instant::now();
                            black_box(work(black_box(i + 1 + t * runs as u64)));
                            start.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread panicked"))
            .collect()
    });
    (0..runs)
        .map(|i| per_thread.iter().map(|t| t[i]).fold(0.0, f64::max))
        .collect()
}

pub fn main(args: &[String]) -> Result<String, String> {
    let threads: usize = parsed_flag(args, "--threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".to_string());
    }
    let times: Vec<String> = times(WARMUP + RUNS, threads)[WARMUP..]
        .iter()
        .map(|t| format!("{t:.9}"))
        .collect();
    Ok(format!("{{\"calibration_s\": [{}]}}", times.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_deterministic() {
        assert_eq!(work(1), work(1));
        assert_ne!(work(1), work(2));
        assert_eq!(times(2, 1).len(), 2);
        assert_eq!(times(3, 2).len(), 3);
    }
}
