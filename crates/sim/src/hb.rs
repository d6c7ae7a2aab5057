//! The happens-before layer of the source-DPOR reduction: vector clocks
//! over the executed transition stream, reversible-race detection, and the
//! weak-initials computation that seeds wakeup/backtrack sets.
//!
//! Sleep sets alone prune *already-covered* sibling subtrees but still
//! branch eagerly at every decision point. Source DPOR (Abdulla, Aronis, Jonsson, Sagonas, *Optimal dynamic partial order
//! reduction*, POPL 2014 — the "source sets" half, without wakeup trees)
//! instead looks at the trace that was actually executed, detects the
//! *reversible races* in it, and seeds a backtrack point only where a race
//! reversal is realisable. This module supplies the trace-side machinery:
//!
//! * every executed transition is recorded as a [`StepLabel`] (process,
//!   exact footprint, exact invoke/response emissions — see
//!   [`crate::executor::ExecSession::last_step_footprint`]) and stamped with
//!   a **vector clock** over the dependence relation (program order plus
//!   [`StepLabel::dependent`], with the invoke/commit barriers folded in
//!   for the linearizability-preserving variant);
//! * a pair `(i, j)` is a **reversible race** when the two transitions
//!   belong to different processes, are dependent, and `i` happens-before
//!   `j` *only* through their direct dependence — no intermediate event
//!   `k` with `i → k → j`. In this simulator every enabled process stays
//!   enabled until it moves (scheduling is the only source of blocking), so
//!   every such race is reversible;
//! * for a race `(i, j)` the candidate backtrack processes at the prefix
//!   before `i` are the **weak initials** of `v = notdep(i)·j` — the
//!   subsequence of events after `i` that do *not* happen-after `i`,
//!   followed by `j` itself: a process is an initial iff its first event in
//!   `v` has no happens-before predecessor inside `v`.
//!
//! The tracker mirrors the explorer's current schedule prefix: events are
//! [pushed](HbTracker::push) as transitions execute and
//! [truncated](HbTracker::truncate) when the explorer backtracks, so the
//! wakeup state travels with prefix-resume checkpoints exactly like sleep
//! sets do. Storage is flat (one `Vec` of labels, one stride-`n` `Vec` of
//! clock entries) and reused across the whole exploration.
//!
//! # One pass per event
//!
//! [`HbTracker::push`] computes the new event `j`'s clock row and its
//! reversible races in a single backward scan. Both rest on the
//! **covered-prefix characterisation**: an earlier event `i` reaches `j`
//! through some intermediate event (`i → k → j`) iff some *direct*
//! dependent predecessor `k' > i` of `j` has `i ≤hb k'`. Scanning from
//! `j - 1` down, the row accumulated so far is exactly the join of those
//! `k'`, so event `i` of process `q` is *covered* iff the row's `q` entry
//! already reaches `i`'s own per-process index. A covered event is skipped
//! without a dependence test (it is ordered before `j` and adds nothing to
//! the join); an uncovered dependent event is joined into the row and,
//! when it belongs to another process, is a reversible race. Covering is
//! downward closed per process (program order), so the scan stops as soon
//! as every process's remaining earlier events are covered, which the
//! per-process event counts make a counter check.
//!
//! The cost per event is one dependence test per *uncovered* earlier event
//! and one `O(n)` join per direct dependent predecessor it keeps: `O(depth)`
//! in the worst case (a process whose steps commute with everything keeps
//! the scan going to the root), and usually a short suffix. The former
//! separate race pass was `O(depth²)` per event, since it searched for an
//! intermediate event for every dependent predecessor.
//!
//! The dependence test itself is filtered. Beside each 64-byte
//! [`StepLabel`] the tracker keeps a compact signature: the process, the
//! invoke/respond/unknown flags, and the read and write register sets
//! folded into `u64` masks (register `r` sets bit `r mod 64`). Two
//! signatures *may conflict* when they share a process, either is
//! unknown, a lin barrier pairs an invocation with a response, or a write
//! bit of one meets a read or write bit of the other. Folding only merges
//! registers, so a pair that may not conflict is independent for certain;
//! a pair that may conflict, aliased registers included, falls back to the
//! exact [`StepLabel::dependent`]. Clocks and races are therefore the ones
//! the exact test alone computes, while the scan reads a 24-byte signature
//! per visited event and the label only on a possible conflict.
//!
//! # Class fingerprints, incrementally
//!
//! [`HbTracker::fingerprint`] names the Mazurkiewicz class of the recorded
//! schedule. Each process keeps a running FNV-1a hash of its own events in
//! program order — label content and final clock row — folded in by
//! [`HbTracker::push`], with the hash before each event kept on a
//! per-event stack so [`HbTracker::truncate`] restores it exactly. A
//! fingerprint then folds the per-process hashes: `O(processes)` per
//! completed schedule instead of a walk over every event.

use crate::memory::{Footprint, RegId, StepLabel};
use scl_spec::ProcessId;

/// The compact dependence signature of one event (see the
/// [module documentation](self#one-pass-per-event)): a conservative
/// summary of its [`StepLabel`] that rules out most independent pairs
/// without reading the label.
#[derive(Debug, Clone, Copy)]
struct Sig {
    /// Read registers, folded mod 64.
    reads: u64,
    /// Written registers (network write sets included), folded mod 64.
    writes: u64,
    proc: u32,
    /// [`Sig::INVOKED`] | [`Sig::RESPONDED`] | [`Sig::UNKNOWN`].
    flags: u32,
}

impl Sig {
    const INVOKED: u32 = 1;
    const RESPONDED: u32 = 2;
    const UNKNOWN: u32 = 4;

    fn of(label: StepLabel) -> Sig {
        let fold = |r: RegId| 1u64 << (r.0 % 64);
        let (reads, writes, unknown) = match label.footprint {
            Footprint::Pure => (0, 0, 0),
            Footprint::Read(r) => (fold(r), 0, 0),
            Footprint::Write(r) => (0, fold(r), 0),
            Footprint::Net(w) => (0, w.regs().iter().fold(0, |m, &r| m | fold(r)), 0),
            Footprint::Unknown => (0, 0, Sig::UNKNOWN),
        };
        Sig {
            reads,
            writes,
            proc: label.proc.index() as u32,
            flags: unknown
                | if label.invoked { Sig::INVOKED } else { 0 }
                | if label.responded { Sig::RESPONDED } else { 0 },
        }
    }

    /// The flags of an earlier event that make it possibly dependent with
    /// this one regardless of registers: unknown, and under lin barriers
    /// the response/invocation flag opposite to each of this event's.
    fn barrier_flags(self, lin_barriers: bool) -> u32 {
        let mut hit = Sig::UNKNOWN;
        if lin_barriers {
            if self.flags & Sig::INVOKED != 0 {
                hit |= Sig::RESPONDED;
            }
            if self.flags & Sig::RESPONDED != 0 {
                hit |= Sig::INVOKED;
            }
        }
        hit
    }
}

/// One FNV-1a step: folds the word `v` into the hash `h`.
#[inline]
fn fnv(h: u64, v: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    (h ^ v).wrapping_mul(PRIME)
}

/// The FNV-1a offset basis: the hash of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Process `p`'s class hash before its first event.
fn class_seed(p: usize) -> u64 {
    fnv(FNV_OFFSET, 0xffff_ffff_ffff_0000 | p as u64)
}

/// Folds one event of a process — its label content and clock row — into
/// that process's class hash.
fn fold_event(mut h: u64, label: StepLabel, row: &[u32]) -> u64 {
    let (tag, detail) = match label.footprint {
        Footprint::Pure => (1, 0),
        Footprint::Read(r) => (2, r.0 as u64),
        Footprint::Write(r) => (3, r.0 as u64),
        Footprint::Net(w) => {
            let mut acc = 0u64;
            for r in w.regs() {
                acc = acc
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(r.0 as u64 + 1);
            }
            (4, acc)
        }
        Footprint::Unknown => (5, 0),
    };
    h = fnv(
        h,
        tag | (u64::from(label.invoked) << 8) | (u64::from(label.responded) << 9),
    );
    h = fnv(h, detail);
    row.iter().fold(h, |h, &c| fnv(h, u64::from(c)))
}

/// The bit of process `p` in an initials/backtrack mask (processes are
/// bounded to 64 by the reduced explorer modes).
#[inline]
fn bit(p: ProcessId) -> u64 {
    debug_assert!(p.index() < 64);
    1u64 << p.index()
}

/// Happens-before tracking over one executed schedule prefix. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct HbTracker {
    procs: usize,
    /// Whether the invoke/commit barrier footprints are part of the
    /// dependence relation ([`StepLabel::dependent`]'s `lin_barriers`).
    lin_barriers: bool,
    labels: Vec<StepLabel>,
    /// `sigs[e]` is the [`Sig`] of `labels[e]`.
    sigs: Vec<Sig>,
    /// Flat per-event vector clocks, stride `procs`:
    /// `clocks[e * procs + p]` is the number of events of process `p` that
    /// happen-before (or are) event `e`. An event's own entry is its
    /// 1-based per-process index.
    clocks: Vec<u32>,
    /// `counts[p]` is the number of recorded events of process `p`.
    counts: Vec<u32>,
    /// The reversible races closed by the most recent [`Self::push`],
    /// ascending (see [`Self::races_of_last`]).
    races: Vec<usize>,
    /// Scratch for [`Self::push`]: per process, the events at or before the
    /// scan position.
    left: Vec<u32>,
    /// Per process, the running class hash of its events (see the
    /// [module documentation](self#class-fingerprints-incrementally)).
    class: Vec<u64>,
    /// `prev_class[e]` is the class hash of event `e`'s process before `e`.
    prev_class: Vec<u64>,
}

impl HbTracker {
    /// A fresh tracker for `procs` processes.
    pub fn new(procs: usize, lin_barriers: bool) -> Self {
        assert!(
            procs <= 64,
            "the race-driven reduction supports at most 64 processes"
        );
        HbTracker {
            procs,
            lin_barriers,
            labels: Vec::new(),
            sigs: Vec::new(),
            clocks: Vec::new(),
            counts: vec![0; procs],
            races: Vec::new(),
            left: Vec::new(),
            class: (0..procs).map(class_seed).collect(),
            prev_class: Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no event is recorded.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Drops every recorded event, keeping allocations.
    pub fn clear(&mut self) {
        self.labels.clear();
        self.sigs.clear();
        self.clocks.clear();
        self.counts.fill(0);
        self.races.clear();
        for (p, h) in self.class.iter_mut().enumerate() {
            *h = class_seed(p);
        }
        self.prev_class.clear();
    }

    /// Truncates to the first `len` events (the explorer backtracked).
    pub fn truncate(&mut self, len: usize) {
        if len < self.labels.len() {
            for (sig, &prev) in self.sigs[len..].iter().zip(&self.prev_class[len..]).rev() {
                self.counts[sig.proc as usize] -= 1;
                self.class[sig.proc as usize] = prev;
            }
            self.prev_class.truncate(len);
            self.labels.truncate(len);
            self.sigs.truncate(len);
            self.clocks.truncate(len * self.procs);
            self.races.clear();
        }
    }

    /// The label of event `i`.
    pub fn label(&self, i: usize) -> StepLabel {
        self.labels[i]
    }

    /// Event `i`'s clock entry for process `p`.
    pub fn clock(&self, i: usize, p: ProcessId) -> u32 {
        self.clocks[i * self.procs + p.index()]
    }

    /// Records one executed transition: computes its vector clock (the join
    /// of every dependent predecessor's clock, program order included, plus
    /// its own per-process tick) and its reversible races in one backward
    /// scan — see the [module documentation](self#one-pass-per-event).
    pub fn push(&mut self, label: StepLabel) {
        let n = self.procs;
        let p = label.proc.index();
        debug_assert!(p < n);
        let sig = Sig::of(label);
        // Every earlier event may conflict with an unknown one.
        let always = sig.flags & Sig::UNKNOWN != 0;
        let hit_flags = sig.barrier_flags(self.lin_barriers);
        let touched = sig.reads | sig.writes;
        let j = self.labels.len();
        let base = j * n;
        self.clocks.resize(base + n, 0);
        let (head, row) = self.clocks.split_at_mut(base);
        let left = &mut self.left;
        left.clear();
        left.extend_from_slice(&self.counts);
        self.races.clear();
        // Processes with an uncovered earlier event: `row[q] < left[q]`.
        let mut open = left.iter().filter(|&&c| c > 0).count();
        let mut i = j;
        while open > 0 {
            // Some process has an unscanned event, so `i > 0`.
            i -= 1;
            let si = self.sigs[i];
            let q = si.proc as usize;
            // `c` is event `i`'s own per-process index.
            let c = left[q];
            debug_assert_eq!(c, head[i * n + q]);
            left[q] = c - 1;
            if row[q] >= c {
                // Covered: ordered before `j` through a later joined event.
                continue;
            }
            let may_conflict = always
                || q == p
                || si.flags & hit_flags != 0
                || (si.writes & touched) | (si.reads & sig.writes) != 0;
            if may_conflict && self.labels[i].dependent(label, self.lin_barriers) {
                for (dst, &s) in row.iter_mut().zip(&head[i * n..(i + 1) * n]) {
                    *dst = (*dst).max(s);
                }
                if q != p {
                    self.races.push(i);
                }
                open = row.iter().zip(left.iter()).filter(|(r, l)| r < l).count();
            } else if row[q] == c - 1 {
                open -= 1;
            }
        }
        row[p] += 1;
        self.counts[p] += 1;
        self.prev_class.push(self.class[p]);
        self.class[p] = fold_event(self.class[p], label, row);
        self.labels.push(label);
        self.sigs.push(sig);
        self.races.reverse();
    }

    /// Whether event `i` happens-before event `j` (reflexive; `i <= j`).
    pub fn happens_before(&self, i: usize, j: usize) -> bool {
        debug_assert!(i <= j);
        let p = ProcessId(self.sigs[i].proc as usize);
        self.clock(j, p) >= self.clock(i, p)
    }

    /// Appends to `out` (ascending) the indices `i` such that `(i, last)` is
    /// a reversible race: different processes, dependent, and no
    /// intermediate event `k` with `i → k → last`. The list is the one the
    /// last [`Self::push`] built (an uncovered dependent event of another
    /// process is exactly such an `i`), so this is a copy; it is empty after
    /// a [`Self::truncate`] or [`Self::clear`] until the next push.
    pub fn races_of_last(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.races);
    }

    /// A fingerprint of the happens-before *class* of the recorded
    /// schedule: two schedules that are equivalent up to commuting
    /// independent transitions (the same Mazurkiewicz trace) produce the
    /// same value.
    ///
    /// Each process's events are hashed in program order, each with its
    /// label content (footprint and invoke/response flags) and its full
    /// vector clock row, and the per-process hashes are folded in process
    /// order. Program order and clock rows are invariant under commuting
    /// independent steps, and together they determine the trace's
    /// dependence graph, so equivalent linearizations hash identically
    /// while schedules with a different dependence structure (almost
    /// surely) do not. The per-process hashes are maintained by
    /// [`Self::push`] and [`Self::truncate`], so this costs `O(processes)`.
    pub fn fingerprint(&self) -> u64 {
        self.class.iter().fold(FNV_OFFSET, |h, &c| fnv(h, c))
    }

    /// The weak initials of `v = notdep(i)·last` for a race `(i, last)`
    /// reported by [`Self::races_of_last`], as a process bit mask: the
    /// events after `i` that do not happen-after `i`, followed by the last
    /// event; a process is an initial iff its first event in `v` has no
    /// happens-before predecessor inside `v`. Exploring any one initial
    /// from the prefix before `i` realises the race reversal.
    pub fn race_initials(&self, i: usize) -> u64 {
        let j = self.labels.len() - 1;
        let in_v = |k: usize| k == j || !self.happens_before(i, k);
        let mut initials = 0u64;
        let mut preceded = 0u64;
        for m in i + 1..=j {
            if !in_v(m) {
                continue;
            }
            let pm = ProcessId(self.sigs[m].proc as usize);
            if preceded & bit(pm) != 0 {
                continue;
            }
            let has_pred = (i + 1..m).any(|l| in_v(l) && self.happens_before(l, m));
            if has_pred {
                // Neither this event nor any later event of the same
                // process can be moved to the front of `v`.
                preceded |= bit(pm);
            } else if initials & bit(pm) == 0 {
                initials |= bit(pm);
                // Only the first event of a process can qualify it.
                preceded |= bit(pm);
            }
        }
        initials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Footprint, NetWrites, RegId};
    use crate::rng::SplitMix64;

    impl HbTracker {
        /// The brute-force reference for [`HbTracker::push`]: the clock row
        /// joins *every* dependent predecessor (one dependence test per
        /// earlier event), and the races are found by searching an
        /// intermediate event `k` with `i → k → j` for every dependent
        /// predecessor `i` of another process — `O(depth²)` per event.
        fn push_quadratic(&mut self, label: StepLabel) {
            let n = self.procs;
            let j = self.labels.len();
            let base = j * n;
            self.clocks.resize(base + n, 0);
            for i in 0..j {
                if self.labels[i].dependent(label, self.lin_barriers) {
                    let (head, tail) = self.clocks.split_at_mut(base);
                    for (dst, &s) in tail.iter_mut().zip(&head[i * n..(i + 1) * n]) {
                        *dst = (*dst).max(s);
                    }
                }
            }
            self.clocks[base + label.proc.index()] += 1;
            self.counts[label.proc.index()] += 1;
            self.labels.push(label);
            self.sigs.push(Sig::of(label));
            self.prev_class.push(self.class[label.proc.index()]);
            self.class[label.proc.index()] = fold_event(
                self.class[label.proc.index()],
                label,
                &self.clocks[base..base + n],
            );
            self.races.clear();
            for i in 0..j {
                let li = self.labels[i];
                if li.proc == label.proc || !li.dependent(label, self.lin_barriers) {
                    continue;
                }
                let transitive =
                    (i + 1..j).any(|k| self.happens_before(i, k) && self.happens_before(k, j));
                if !transitive {
                    self.races.push(i);
                }
            }
        }

        /// The full-walk reference for [`HbTracker::fingerprint`]: rehashes
        /// every process's events from its seed, in program order, from
        /// the labels and clock rows alone.
        fn fingerprint_full_walk(&self) -> u64 {
            let n = self.procs;
            (0..n)
                .map(|p| {
                    self.labels
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.proc.index() == p)
                        .fold(class_seed(p), |h, (e, &l)| {
                            fold_event(h, l, &self.clocks[e * n..(e + 1) * n])
                        })
                })
                .fold(FNV_OFFSET, fnv)
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn step(proc: usize, fp: Footprint) -> StepLabel {
        StepLabel {
            proc: p(proc),
            footprint: fp,
            invoked: false,
            responded: false,
        }
    }

    #[test]
    fn unknown_footprints_are_ordered_with_everything() {
        let mut hb = HbTracker::new(3, false);
        hb.push(step(0, Footprint::Unknown));
        hb.push(step(1, Footprint::Pure));
        hb.push(step(2, Footprint::Read(RegId(0))));
        // Unknown is dependent with Pure and with any access, so event 0
        // happens-before both later events...
        assert!(hb.happens_before(0, 1));
        assert!(hb.happens_before(0, 2));
        // ...and every subsequent Unknown event observes the full history.
        hb.push(step(0, Footprint::Unknown));
        assert!(hb.happens_before(1, 3));
        assert!(hb.happens_before(2, 3));
        assert_eq!(hb.clock(3, p(0)), 2);
        assert_eq!(hb.clock(3, p(1)), 1);
        assert_eq!(hb.clock(3, p(2)), 1);
    }

    #[test]
    fn per_process_counters_stay_concurrent_on_disjoint_registers() {
        let (a, b) = (RegId(0), RegId(1));
        let mut hb = HbTracker::new(2, false);
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(b)));
        // p1's event is concurrent with both of p0's: its clock never saw
        // p0's counter, and no happens-before edge exists in either
        // direction.
        assert_eq!(hb.clock(2, p(0)), 0);
        assert_eq!(hb.clock(2, p(1)), 1);
        assert!(!hb.happens_before(0, 2));
        assert!(!hb.happens_before(1, 2));
        // Program order within p0 is tracked.
        assert!(hb.happens_before(0, 1));
        assert_eq!(hb.clock(1, p(0)), 2);
        // And no races: the steps commute.
        let mut races = Vec::new();
        hb.races_of_last(&mut races);
        assert!(races.is_empty());
    }

    #[test]
    fn three_conflicting_writes_race_only_adjacently() {
        // p0: W(a); p1: W(a); p2: W(a). The (0, 2) pair is ordered through
        // event 1, so the reversible races are exactly (0, 1) and (1, 2).
        let a = RegId(0);
        let mut hb = HbTracker::new(3, false);
        let mut races = Vec::new();
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(a)));
        hb.races_of_last(&mut races);
        assert_eq!(races, vec![0]);
        races.clear();
        hb.push(step(2, Footprint::Write(a)));
        hb.races_of_last(&mut races);
        assert_eq!(
            races,
            vec![1],
            "the (0, 2) race must be transitive, not reversible"
        );
    }

    #[test]
    fn race_initials_are_the_movable_first_events() {
        // p0: W(a); p1: W(b); p2: R(a). Race (0, 2); v = [W(b), R(a)].
        // Both p1's and p2's first events are front-movable.
        let (a, b) = (RegId(0), RegId(1));
        let mut hb = HbTracker::new(3, false);
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(b)));
        hb.push(step(2, Footprint::Read(a)));
        let mut races = Vec::new();
        hb.races_of_last(&mut races);
        assert_eq!(races, vec![0]);
        assert_eq!(hb.race_initials(0), 0b110);

        // p0: W(a); p1: W(b); p2: R(b); p2: R(a). Race (0, 3);
        // v = [W(b), R(b), R(a)] and p2's first event in v (the R(b))
        // happens-after p1's W(b), so only p1 is an initial.
        let mut hb = HbTracker::new(3, false);
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(b)));
        hb.push(step(2, Footprint::Read(b)));
        hb.push(step(2, Footprint::Read(a)));
        let mut races = Vec::new();
        hb.races_of_last(&mut races);
        assert_eq!(races, vec![0]);
        assert_eq!(hb.race_initials(0), 0b010);
    }

    #[test]
    fn invoke_commit_barriers_race_only_with_lin_barriers() {
        let mk = |lin| {
            let mut hb = HbTracker::new(2, lin);
            hb.push(StepLabel {
                proc: p(0),
                footprint: Footprint::Pure,
                invoked: false,
                responded: true,
            });
            hb.push(StepLabel {
                proc: p(1),
                footprint: Footprint::Pure,
                invoked: true,
                responded: false,
            });
            let mut races = Vec::new();
            hb.races_of_last(&mut races);
            races
        };
        assert!(mk(false).is_empty(), "plain mode: pure steps never race");
        assert_eq!(mk(true), vec![0], "lin mode: response vs invocation races");
    }

    #[test]
    fn fingerprint_is_mazurkiewicz_invariant() {
        let (a, b) = (RegId(0), RegId(1));
        // Independent steps commute: the two interleavings of W(a) and W(b)
        // are the same trace, so they fingerprint identically.
        let mut one = HbTracker::new(2, false);
        one.push(step(0, Footprint::Write(a)));
        one.push(step(1, Footprint::Write(b)));
        let mut two = HbTracker::new(2, false);
        two.push(step(1, Footprint::Write(b)));
        two.push(step(0, Footprint::Write(a)));
        assert_eq!(one.fingerprint(), two.fingerprint());

        // Dependent steps do not: swapping two writes to the same register
        // changes the dependence structure's orientation.
        let mut three = HbTracker::new(2, false);
        three.push(step(0, Footprint::Write(a)));
        three.push(step(1, Footprint::Write(a)));
        let mut four = HbTracker::new(2, false);
        four.push(step(1, Footprint::Write(a)));
        four.push(step(0, Footprint::Write(a)));
        assert_ne!(three.fingerprint(), four.fingerprint());
        assert_ne!(one.fingerprint(), three.fingerprint());
    }

    #[test]
    fn truncate_rewinds_the_event_stream() {
        let a = RegId(0);
        let mut hb = HbTracker::new(2, false);
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(a)));
        hb.truncate(1);
        assert_eq!(hb.len(), 1);
        // Re-pushing after a truncation recomputes the clock fresh.
        hb.push(step(1, Footprint::Read(a)));
        assert_eq!(hb.clock(1, p(1)), 1);
        assert!(hb.happens_before(0, 1));
        hb.clear();
        assert!(hb.is_empty());
    }

    /// A random label over `procs` processes and six registers that alias
    /// pairwise mod 64 (`r` and `r + 64` fold onto one signature bit, so
    /// the push prefilter's exact fallback decides those pairs), every
    /// footprint kind and random invoke/respond flags.
    fn arb_label(rng: &mut SplitMix64, procs: usize) -> StepLabel {
        const REGS: [usize; 6] = [0, 1, 2, 64, 65, 66];
        let reg = |rng: &mut SplitMix64| RegId(REGS[rng.next_below(REGS.len())]);
        let footprint = match rng.next_below(10) {
            0 | 1 => Footprint::Pure,
            2..=4 => Footprint::Read(reg(rng)),
            5..=7 => Footprint::Write(reg(rng)),
            8 => {
                let regs: Vec<RegId> = (0..1 + rng.next_below(2)).map(|_| reg(rng)).collect();
                Footprint::Net(NetWrites::new(&regs))
            }
            _ => Footprint::Unknown,
        };
        StepLabel {
            proc: p(rng.next_below(procs)),
            footprint,
            invoked: rng.next_below(4) == 0,
            responded: rng.next_below(4) == 0,
        }
    }

    #[test]
    fn one_pass_push_matches_the_quadratic_reference() {
        for case in 0..256u64 {
            let mut rng = SplitMix64::new(0x4B_1D ^ case);
            let procs = 2 + rng.next_below(3);
            let lin = rng.next_bool();
            let mut fast = HbTracker::new(procs, lin);
            let mut slow = HbTracker::new(procs, lin);
            let (mut fast_races, mut slow_races) = (Vec::new(), Vec::new());
            for step in 0..96 {
                match rng.next_below(24) {
                    0 => {
                        let len = rng.next_below(fast.len() + 1);
                        fast.truncate(len);
                        slow.truncate(len);
                    }
                    1 => {
                        fast.clear();
                        slow.clear();
                    }
                    _ => {
                        let label = arb_label(&mut rng, procs);
                        fast.push(label);
                        slow.push_quadratic(label);
                        let at = format!("case {case} step {step} (procs {procs}, lin {lin})");
                        assert_eq!(fast.clocks, slow.clocks, "clock rows differ at {at}");
                        assert_eq!(fast.counts, slow.counts, "event counts differ at {at}");
                        fast_races.clear();
                        slow_races.clear();
                        fast.races_of_last(&mut fast_races);
                        slow.races_of_last(&mut slow_races);
                        assert_eq!(fast_races, slow_races, "race lists differ at {at}");
                        for &i in &fast_races {
                            assert_eq!(
                                fast.race_initials(i),
                                slow.race_initials(i),
                                "initials of race {i} differ at {at}"
                            );
                        }
                    }
                }
                // The maintained class hashes agree with a full walk after
                // every push, truncate and clear.
                assert_eq!(
                    fast.fingerprint(),
                    fast.fingerprint_full_walk(),
                    "fingerprint differs from the full walk at case {case} step {step}"
                );
                assert_eq!(slow.fingerprint(), fast.fingerprint());
            }
        }
    }
}
