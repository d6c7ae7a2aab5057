//! Exploration telemetry: a zero-cost-when-off observer trait plus a
//! recording implementation.
//!
//! The engine in [`crate::explore`] is generic over an [`ExploreObserver`].
//! The default observer is [`NoObserver`], whose methods are empty `#[inline]`
//! bodies — monomorphisation compiles every hook away, so exploration with
//! the observer off is the same machine code as before the hooks existed
//! (the benches assert the wall-clock overhead stays within noise).
//!
//! The engine's work counters live in [`crate::explore::ExploreStats`]; the
//! observer only sees what those counters cannot hold: each completed
//! schedule (its depth, and its happens-before class on request).
//! [`TelemetryObserver`] is the shipped implementation: a schedule-depth
//! histogram, distinct happens-before-class coverage, the checker's share of
//! wall time, and an optional progress heartbeat printed to **stderr** every
//! N completed schedules. All state is shared-reference friendly so one
//! observer can be handed to every worker of a parallel exploration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hooks the exploration engine calls once per completed schedule.
///
/// All methods take `&self` (one observer may be shared across worker
/// threads) and default to empty inline bodies, so an observer only pays for
/// the events it overrides and [`NoObserver`] pays for nothing.
pub trait ExploreObserver: Sync {
    /// One complete schedule finished at the given depth (tick count).
    #[inline]
    fn schedule_completed(&self, depth: usize) {
        let _ = depth;
    }

    /// Whether the engine should compute a happens-before class fingerprint
    /// for each completed schedule and report it via
    /// [`hb_class`](ExploreObserver::hb_class). Fingerprints are cheap
    /// (`O(processes)`, see [`crate::hb::HbTracker::fingerprint`]) but
    /// not free, so they are gated behind this opt-in.
    #[inline]
    fn wants_hb_classes(&self) -> bool {
        false
    }

    /// The happens-before class fingerprint of a completed schedule (only
    /// called when [`wants_hb_classes`](ExploreObserver::wants_hb_classes)
    /// returns true). Two schedules that are equivalent up to commuting
    /// independent steps report the same fingerprint.
    #[inline]
    fn hb_class(&self, fingerprint: u64) {
        let _ = fingerprint;
    }
}

/// The do-nothing observer: every hook is an empty inline body, so engines
/// instantiated with it compile to the same code as an unobserved engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl ExploreObserver for NoObserver {}

/// Number of exact buckets in the schedule-depth histogram; depths at or
/// beyond this land in the overflow bucket (index `DEPTH_BUCKETS`).
const DEPTH_BUCKETS: usize = 64;

/// A recording [`ExploreObserver`]: relaxed atomics throughout, safe to
/// share across the parallel explorer's workers, snapshot at any time with
/// [`TelemetryObserver::snapshot`].
#[derive(Debug)]
pub struct TelemetryObserver {
    start: Instant,
    heartbeat_every: u64,
    max_schedules: u64,
    /// Completed schedules, counted only while the heartbeat is on.
    heartbeat_count: AtomicU64,
    checker_nanos: AtomicU64,
    depth_hist: [AtomicU64; DEPTH_BUCKETS + 1],
    /// Class fingerprints, appended per schedule and deduplicated only
    /// when counted ([`Self::snapshot`]) or when the vector is full: a push
    /// is cheaper than a hash-set insert, and the vector holds at most
    /// about twice the distinct fingerprints.
    hb_classes: Mutex<Vec<u64>>,
}

/// A point-in-time copy of what a [`TelemetryObserver`] recorded, suitable
/// for embedding in reports next to the exploration's
/// [`crate::explore::ExploreStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Wall time spent inside the checker (filled by harnesses that time
    /// their monitor, not by the engine itself).
    pub checker_nanos: u64,
    /// Schedule-depth histogram: `depth_hist[d]` counts schedules that
    /// completed at depth `d`; the final bucket collects all deeper ones.
    pub depth_hist: Vec<u64>,
    /// Distinct happens-before classes seen (0 when fingerprinting was off).
    pub hb_classes: u64,
}

impl TelemetryObserver {
    /// Creates an observer. `heartbeat_every` = 0 disables the heartbeat;
    /// otherwise a progress line is printed to stderr every that many
    /// completed schedules. `max_schedules` is only used to report the
    /// budget fraction in heartbeats.
    pub fn new(heartbeat_every: u64, max_schedules: u64) -> Self {
        TelemetryObserver {
            start: Instant::now(),
            heartbeat_every,
            max_schedules,
            heartbeat_count: AtomicU64::new(0),
            checker_nanos: AtomicU64::new(0),
            depth_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            hb_classes: Mutex::new(Vec::new()),
        }
    }

    /// Adds wall time spent inside a checker (used by harnesses that wrap
    /// their monitor's verdict call; the engine never calls this).
    pub fn add_checker_nanos(&self, nanos: u64) {
        self.checker_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Copies everything recorded into a plain snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            checker_nanos: self.checker_nanos.load(Ordering::Relaxed),
            depth_hist: self
                .depth_hist
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            hb_classes: self.hb_classes.lock().map_or(0, |mut v| {
                compact(&mut v);
                v.len() as u64
            }),
        }
    }
}

impl ExploreObserver for TelemetryObserver {
    fn schedule_completed(&self, depth: usize) {
        let bucket = depth.min(DEPTH_BUCKETS);
        self.depth_hist[bucket].fetch_add(1, Ordering::Relaxed);
        if self.heartbeat_every == 0 {
            return;
        }
        let done = self.heartbeat_count.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.heartbeat_every) {
            let secs = self.start.elapsed().as_secs_f64().max(1e-9);
            let rate = done as f64 / secs;
            let frac = if self.max_schedules > 0 {
                done as f64 / self.max_schedules as f64
            } else {
                0.0
            };
            eprintln!(
                "heartbeat: {done} schedules ({rate:.0}/s, {:.1}% of budget, depth {depth})",
                frac * 100.0
            );
        }
    }

    fn wants_hb_classes(&self) -> bool {
        true
    }

    fn hb_class(&self, fingerprint: u64) {
        if let Ok(mut v) = self.hb_classes.lock() {
            if v.len() == v.capacity() {
                // Room for as many pushes as distinct fingerprints remain
                // before the next compaction: amortised `O(log n)` a push.
                compact(&mut v);
                let distinct = v.len();
                v.reserve(distinct.max(1024));
            }
            v.push(fingerprint);
        }
    }
}

/// Sorts `fingerprints` and removes duplicates in place.
fn compact(fingerprints: &mut Vec<u64>) {
    fingerprints.sort_unstable();
    fingerprints.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = TelemetryObserver::new(0, 100);
        t.schedule_completed(3);
        t.schedule_completed(3);
        t.schedule_completed(500);
        t.hb_class(42);
        t.hb_class(42);
        t.hb_class(7);
        t.add_checker_nanos(11);
        t.add_checker_nanos(4);
        let s = t.snapshot();
        assert_eq!(s.checker_nanos, 15);
        assert_eq!(s.depth_hist.len(), DEPTH_BUCKETS + 1);
        assert_eq!(s.depth_hist[3], 2);
        assert_eq!(s.depth_hist[DEPTH_BUCKETS], 1);
        assert_eq!(s.depth_hist.iter().sum::<u64>(), 3);
        assert_eq!(s.hb_classes, 2);
    }

    #[test]
    fn class_count_survives_compactions() {
        // Enough pushes to fill and compact the fingerprint vector several
        // times, with repeats spread across compactions.
        let t = TelemetryObserver::new(0, 0);
        for i in 0..20_000u64 {
            t.hb_class(i % 3_000);
            if i % 7_000 == 0 {
                assert_eq!(t.snapshot().hb_classes, (i + 1).min(3_000));
            }
        }
        t.hb_class(u64::MAX);
        assert_eq!(t.snapshot().hb_classes, 3_001);
    }

    #[test]
    fn no_observer_reports_no_hb_interest() {
        assert!(!NoObserver.wants_hb_classes());
        assert!(TelemetryObserver::new(0, 0).wants_hb_classes());
    }
}
