//! The `runtime_tas` workload: two long-lived threads run leader-election
//! rounds on `scl_runtime::ResettableTas`, and each round's winner resets the
//! object for the next one.
//!
//! The seed decides, round by round, whether both threads call
//! `test_and_set` (contended) or only one of them does (solo: the paper's
//! register-only fast path). The two kinds are equally likely: a deliberate
//! choice that gives the fast path and the contended slow path the same
//! weight, so a regression on either moves the pass time. One pass builds a fresh object with room for
//! every round of the pass, starts the threads, and runs the rounds; passes
//! repeat until `--seconds` have elapsed, with a host-speed calibration
//! between passes.

use crate::{calibrate, parsed_flag};
use scl_runtime::{ResettableTas, TasResult};
use scl_sim::SplitMix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const THREADS: usize = 2;
/// Leader-election rounds per pass (about 20 ms on two cores).
const ROUNDS: usize = 20_000;
/// Every this many rounds, each thread times its calls into the object, so
/// the diagnostics can say how much of a round the object itself takes.
const SAMPLE_EVERY: usize = 8;

/// A sense-reversing spin barrier for the two round threads. A blocking
/// barrier would put a futex wake-up into every round and time the OS
/// scheduler instead of the object; spinning yields after a while so a
/// descheduled partner does not cost a whole time slice.
struct SpinBarrier {
    arrived: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    fn new() -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == THREADS {
            self.arrived.store(0, Ordering::SeqCst);
            self.sense.store(*local_sense, Ordering::SeqCst);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::SeqCst) != *local_sense {
                spins += 1;
                if spins < 1 << 12 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Who calls `test_and_set` in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    Contended,
    Solo(usize),
}

/// The seeded round plan of one pass.
fn plan(seed: u64, pass: u64, rounds: usize) -> Vec<Round> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass);
    (0..rounds)
        .map(|_| {
            if rng.next_bool() {
                Round::Contended
            } else {
                Round::Solo(rng.next_below(THREADS))
            }
        })
        .collect()
}

struct Pass {
    setup: Duration,
    wall: Duration,
    ops: u64,
    contended: u64,
    bad_rounds: u64,
    /// Per-round latency in nanoseconds, as seen by thread 0: from the start
    /// of the round until every participant has decided.
    latencies: Vec<u64>,
    /// Mean over sampled rounds of the longer of the two threads' time inside
    /// `test_and_set` and `reset`, in nanoseconds.
    object_ns: f64,
    fast: u64,
    slow: u64,
    rmw: u64,
}

/// What one round thread reports back.
#[derive(Default)]
struct ThreadResult {
    first_op: Option<Instant>,
    end: Option<Instant>,
    ops: u64,
    bad_rounds: u64,
    latencies: Vec<u64>,
    /// Time inside the object on every `SAMPLE_EVERY`-th round, in ns.
    object_ns: Vec<u64>,
}

fn run_pass(plan: &[Round]) -> Pass {
    let start = Instant::now();
    let tas = ResettableTas::new(plan.len() + 1);
    let barrier = SpinBarrier::new();
    let winners = AtomicUsize::new(0);
    let round_thread = |me: usize| {
        let mut out = ThreadResult {
            object_ns: vec![0; plan.len().div_ceil(SAMPLE_EVERY)],
            ..ThreadResult::default()
        };
        if me == 0 {
            out.latencies.reserve(plan.len());
        }
        let mut sense = false;
        barrier.wait(&mut sense);
        out.first_op = Some(Instant::now());
        for (i, round) in plan.iter().enumerate() {
            let t0 = Instant::now();
            let plays = match *round {
                Round::Contended => true,
                Round::Solo(p) => p == me,
            };
            let sampled = plays && i % SAMPLE_EVERY == 0;
            let mut won = false;
            if plays {
                out.ops += 1;
                let t = sampled.then(Instant::now);
                won = tas.test_and_set(me) == TasResult::Winner;
                if let Some(t) = t {
                    out.object_ns[i / SAMPLE_EVERY] += t.elapsed().as_nanos() as u64;
                }
                if won {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
            }
            barrier.wait(&mut sense);
            if me == 0 {
                out.latencies.push(t0.elapsed().as_nanos() as u64);
                if winners.swap(0, Ordering::SeqCst) != 1 {
                    out.bad_rounds += 1;
                }
            }
            if won {
                let t = sampled.then(Instant::now);
                if !tas.reset(me) {
                    out.bad_rounds += 1;
                }
                if let Some(t) = t {
                    out.object_ns[i / SAMPLE_EVERY] += t.elapsed().as_nanos() as u64;
                }
            }
            barrier.wait(&mut sense);
        }
        out.end = Some(Instant::now());
        out
    };
    let (t0, t1) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|me| s.spawn(move || round_thread(me)))
            .collect();
        let mut results = handles
            .into_iter()
            .map(|h| h.join().expect("a round thread panicked"));
        (
            results.next().expect("thread 0"),
            results.next().expect("thread 1"),
        )
    });
    let first_op = t0.first_op.expect("thread 0 ran");
    let end = t0
        .end
        .expect("thread 0 ran")
        .max(t1.end.expect("thread 1 ran"));
    let stats = tas.stats();
    let object_total: u64 = t0
        .object_ns
        .iter()
        .zip(&t1.object_ns)
        .map(|(a, b)| *a.max(b))
        .sum();
    Pass {
        setup: first_op - start,
        wall: end - first_op,
        ops: t0.ops + t1.ops,
        contended: plan.iter().filter(|r| **r == Round::Contended).count() as u64,
        bad_rounds: t0.bad_rounds + t1.bad_rounds,
        latencies: t0.latencies,
        object_ns: object_total as f64 / t0.object_ns.len() as f64,
        fast: stats.fast_path_commits,
        slow: stats.slow_path_commits,
        rmw: stats.rmw_instructions,
    }
}

/// Rounds a latency to two significant digits, so the histogram stays small
/// without losing the shape percentiles are read from.
fn bucket(ns: u64) -> u64 {
    let mut scale = 1;
    while ns / scale >= 100 {
        scale *= 10;
    }
    (ns + scale / 2) / scale * scale
}

pub fn main(args: &[String]) -> Result<String, String> {
    let seed: u64 = parsed_flag(args, "--seed", 1)?;
    let seconds: f64 = parsed_flag(args, "--seconds", 1.0)?;
    // One unreported warm-up pass: until the scheduler has spread the two
    // spinning threads over distinct cores, a pass can run 50x slower.
    run_pass(&plan(seed, u64::MAX, ROUNDS));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut fast, mut slow, mut rmw) = (0, 0, 0);
    let mut gaps = Vec::new();
    let mut pass_no = 0;
    while passes.is_empty() || Instant::now() < deadline {
        gaps.push(calibrate::times_in_child(THREADS)?);
        let p = run_pass(&plan(seed, pass_no, ROUNDS));
        pass_no += 1;
        for &ns in &p.latencies {
            *hist.entry(bucket(ns)).or_default() += 1;
        }
        fast += p.fast;
        slow += p.slow;
        rmw += p.rmw;
        passes.push(format!(
            "{{\"setup_s\": {:.9}, \"wall_s\": {:.9}, \"object_ns_per_round\": {:.3}, \
             \"rounds\": {ROUNDS}, \"contended\": {}, \"ops\": {}, \"bad_rounds\": {}}}",
            p.setup.as_secs_f64(),
            p.wall.as_secs_f64(),
            p.object_ns,
            p.contended,
            p.ops,
            p.bad_rounds,
        ));
    }
    gaps.push(calibrate::times_in_child(THREADS)?);
    let hist: Vec<String> = hist.iter().map(|(ns, n)| format!("[{ns}, {n}]")).collect();
    let gaps: Vec<String> = gaps
        .iter()
        .map(|gap| {
            let times: Vec<String> = gap.iter().map(|t| format!("{t:.9}")).collect();
            format!("[{}]", times.join(", "))
        })
        .collect();
    Ok(format!(
        "{{\"passes\": [{}], \"round_ns_hist\": [{}], \"fast_path_commits\": {fast}, \
         \"slow_path_commits\": {slow}, \"rmw_instructions\": {rmw}, \"vm_hwm_kb\": {}, \
         \"calibration_s\": [{}]}}",
        passes.join(", "),
        hist.join(", "),
        vm_hwm_kb()?,
        gaps.join(", "),
    ))
}

/// This process's peak resident set (VmHWM), in KiB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_seed_and_pass() {
        assert_eq!(plan(7, 0, 64), plan(7, 0, 64));
        assert_ne!(plan(7, 0, 64), plan(8, 0, 64));
        assert_ne!(plan(7, 0, 64), plan(7, 1, 64));
        let p = plan(7, 0, 1000);
        let contended = p.iter().filter(|r| **r == Round::Contended).count();
        assert!((300..700).contains(&contended), "{contended}");
    }

    #[test]
    fn every_round_elects_exactly_one_leader() {
        let p = run_pass(&plan(3, 0, 500));
        assert_eq!(p.bad_rounds, 0);
        assert_eq!(p.ops, p.contended * 2 + (500 - p.contended));
        assert_eq!(p.fast + p.slow, p.ops);
        assert_eq!(p.latencies.len(), 500);
        assert!(p.object_ns > 0.0);
    }

    #[test]
    fn buckets_keep_two_significant_digits() {
        assert_eq!(bucket(7), 7);
        assert_eq!(bucket(99), 99);
        assert_eq!(bucket(1234), 1200);
        assert_eq!(bucket(1250), 1300);
        assert_eq!(bucket(98_765), 99_000);
    }
}
