//! Shared helpers for the experiment binaries (`exp-e1` … `exp-e9`) and the
//! wall-clock benches in `benches/` (plain `harness = false` binaries on
//! [`microbench`]).
//!
//! Each experiment binary regenerates one row/series of the paper's
//! quantitative claims (see EXPERIMENTS.md at the workspace root for the
//! index) and prints a small table to stdout. The helpers here run a
//! simulated workload and summarise the per-operation metrics.

#![warn(missing_docs)]

use scl_sim::{
    Adversary, ExecutionMetrics, ExecutionResult, Executor, SharedMemory, SimObject, Workload,
};
use scl_spec::SequentialSpec;
use std::fmt::Debug;
use std::hash::Hash;

/// Summary statistics of one simulated execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Mean shared-memory steps per completed operation.
    pub mean_steps: f64,
    /// Maximum steps over committed operations.
    pub max_steps_committed: u64,
    /// Maximum fences per completed operation.
    pub max_fences: u64,
    /// Number of aborted operations.
    pub aborted: usize,
    /// Number of committed operations.
    pub committed: usize,
    /// Maximum consensus number over base objects used (`u32::MAX` = ∞).
    pub max_consensus_number: u32,
    /// Number of registers allocated (space).
    pub registers: usize,
}

/// Runs a workload on a freshly built object and returns the execution
/// result together with summary statistics.
pub fn run_and_summarise<S, V, O>(
    build: impl FnOnce(&mut SharedMemory) -> O,
    workload: &Workload<S, V>,
    adversary: &mut dyn Adversary,
) -> (ExecutionResult<S, V>, Summary)
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let mut mem = SharedMemory::new();
    let mut object = build(&mut mem);
    let res = Executor::new().run(&mut mem, &mut object, workload, adversary);
    let summary = summarise(&res.metrics, &mem);
    (res, summary)
}

/// Builds a [`Summary`] from execution metrics and the memory audit.
pub fn summarise(metrics: &ExecutionMetrics, mem: &SharedMemory) -> Summary {
    Summary {
        mean_steps: metrics.mean_steps(),
        max_steps_committed: metrics.max_steps_committed(),
        max_fences: metrics.max_fences(),
        aborted: metrics.aborted_count(),
        committed: metrics.committed_count(),
        max_consensus_number: mem.max_required_consensus_number().unwrap_or(u32::MAX),
        registers: mem.register_count(),
    }
}

/// Formats a consensus number for display (`∞` for `u32::MAX`).
pub fn fmt_cn(cn: u32) -> String {
    if cn == u32::MAX {
        "∞".to_string()
    } else {
        cn.to_string()
    }
}

/// Prints a table header followed by rows; purely cosmetic glue shared by the
/// experiment binaries.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// A minimal self-calibrating wall-clock micro-benchmark harness.
///
/// The workspace builds offline with no external crates, so the Criterion
/// benches were rewritten on top of this: each case runs a short warm-up,
/// picks an iteration count that fills the measurement window, and reports
/// mean ns/iter. Good enough to compare series measured in the same run;
/// not a statistics suite.
pub mod microbench {
    use std::time::{Duration, Instant};

    /// Result of one benchmark case.
    #[derive(Debug, Clone, Copy)]
    pub struct CaseResult {
        /// Mean nanoseconds per iteration.
        pub ns_per_iter: f64,
        /// Iterations measured.
        pub iters: u64,
    }

    /// Times `f` and prints `group/name: <ns>/iter`. Returns the result so
    /// callers can post-process (e.g. derive throughput).
    pub fn case(group: &str, name: &str, f: impl FnMut()) -> CaseResult {
        case_capped(group, name, u64::MAX, f)
    }

    /// Like [`case`], but bounds the *total* number of iterations (warm-up
    /// included) to `max_total_iters`. Use when the benched object consumes
    /// a finite resource per iteration (e.g. the pre-allocated round array
    /// of a long-lived resettable TAS): an uncapped run would exhaust it
    /// mid-measurement and silently time a degenerate path — or, for a
    /// lock, spin forever.
    pub fn case_capped(
        group: &str,
        name: &str,
        max_total_iters: u64,
        mut f: impl FnMut(),
    ) -> CaseResult {
        // Warm up and estimate the cost of one iteration from the time the
        // warm-up actually took (it may end early on the iteration cap).
        let warmup_start = Instant::now();
        let warmup_deadline = warmup_start + Duration::from_millis(100);
        let warmup_cap = max_total_iters / 2;
        let mut warm_iters: u64 = 0;
        while Instant::now() < warmup_deadline && warm_iters < warmup_cap {
            f();
            warm_iters += 1;
        }
        let est = warmup_start.elapsed().as_nanos() as u64 / warm_iters.max(1);
        let target = Duration::from_millis(300).as_nanos() as u64;
        let iters = (target / est.max(1))
            .clamp(1, 10_000_000)
            .min(max_total_iters - warm_iters)
            .max(1);
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
        println!("{group}/{name}: {ns_per_iter:.1} ns/iter ({iters} iters)");
        CaseResult { ns_per_iter, iters }
    }

    /// Times `f` over values produced by `setup`, *excluding* `setup` from
    /// the measurement (the moral equivalent of Criterion's `iter_batched`):
    /// objects are built in untimed batches and only the consuming loop is
    /// timed. Use when one iteration needs a fresh object and the object's
    /// constructor would otherwise dominate a nanosecond-scale operation.
    pub fn case_batched<T>(
        group: &str,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut f: impl FnMut(T),
    ) -> CaseResult {
        const BATCH: usize = 4096;
        let run_batch = |setup: &mut dyn FnMut() -> T, f: &mut dyn FnMut(T)| {
            let batch: Vec<T> = (0..BATCH).map(|_| setup()).collect();
            let start = Instant::now();
            for x in batch {
                f(x);
            }
            start.elapsed()
        };
        // Warm-up / calibration batch.
        let per_batch = run_batch(&mut setup, &mut f).max(Duration::from_nanos(1));
        let target = Duration::from_millis(300);
        let batches = (target.as_nanos() / per_batch.as_nanos()).clamp(1, 2048) as u64;
        let mut timed = Duration::ZERO;
        for _ in 0..batches {
            timed += run_batch(&mut setup, &mut f);
        }
        let iters = batches * BATCH as u64;
        let ns_per_iter = timed.as_nanos() as f64 / iters as f64;
        println!("{group}/{name}: {ns_per_iter:.1} ns/iter ({iters} iters, setup untimed)");
        CaseResult { ns_per_iter, iters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_core::new_speculative_tas;
    use scl_sim::SoloAdversary;
    use scl_spec::{TasOp, TasSpec, TasSwitch};

    #[test]
    fn summary_of_a_solo_run() {
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(2, TasOp::TestAndSet);
        let (res, s) = run_and_summarise(new_speculative_tas, &wl, &mut SoloAdversary);
        assert!(res.completed);
        assert_eq!(s.committed, 2);
        assert_eq!(s.aborted, 0);
        assert_eq!(s.max_consensus_number, 1);
        assert!(s.mean_steps > 0.0);
    }

    #[test]
    fn fmt_cn_formats_infinity() {
        assert_eq!(fmt_cn(2), "2");
        assert_eq!(fmt_cn(u32::MAX), "∞");
    }
}
