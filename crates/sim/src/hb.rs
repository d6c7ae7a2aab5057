//! The happens-before layer of the source-DPOR reduction: per-event
//! predecessor sets over the executed transition stream, reversible-race
//! detection, and the weak-initials computation that seeds
//! wakeup/backtrack sets.
//!
//! Sleep sets alone prune *already-covered* sibling subtrees but still
//! branch eagerly at every decision point. Source DPOR (Abdulla, Aronis, Jonsson, Sagonas, *Optimal dynamic partial order
//! reduction*, POPL 2014 — the "source sets" half, without wakeup trees)
//! instead looks at the trace that was actually executed, detects the
//! *reversible races* in it, and seeds a backtrack point only where a race
//! reversal is realisable. This module supplies the trace-side machinery:
//!
//! * every executed transition is recorded as a [`StepLabel`] (thread,
//!   exact footprint, exact invoke/response emissions — see
//!   [`crate::executor::ExecSession::last_step_footprint`]) and stamped with
//!   the **set of earlier events that happen-before it** under the
//!   dependence relation (program order plus [`StepLabel::dependent`]). The
//!   explorer's threads are the processes and, over a
//!   network, one single-event thread per in-flight message slot (its
//!   delivery or drop);
//! * a pair `(i, j)` is a **race** when the two transitions belong to
//!   different threads, are dependent, and `i` happens-before `j` *only*
//!   through their direct dependence — no intermediate event `k` with
//!   `i → k → j`. A race is reversible unless `i` enabled `j`: a message
//!   cannot be delivered or dropped before it is sent, and an operation
//!   blocked on an empty inbox cannot read it before a delivery fills it.
//!   The explorer drops those enabling edges before seeding
//!   (`crate::explore::enabling_edge`); the tracker reports every race;
//! * for a race `(i, j)` the candidate backtrack threads at the prefix
//!   before `i` are the **weak initials** of `v = notdep(i)·j` — the
//!   subsequence of events after `i` that do *not* happen-after `i`,
//!   followed by `j` itself: a thread is an initial iff its first event in
//!   `v` has no happens-before predecessor inside `v`.
//!
//! The tracker mirrors the explorer's current schedule prefix: events are
//! [pushed](HbTracker::push) as transitions execute and
//! [truncated](HbTracker::truncate) when the explorer backtracks, so the
//! wakeup state travels with prefix-resume checkpoints exactly like sleep
//! sets do. Storage is flat (one `Vec` of labels, one `Vec` of predecessor
//! rows) and reused across the whole exploration.
//!
//! # One pass per event
//!
//! Event `e`'s predecessor row is a bitset over event indices: bit `i` is
//! set iff `i → e` (strictly). A row is `words` `u64`s wide, one word while
//! the stream holds at most 64 events; every row widens by one word when the
//! stream reaches `64 · words` events. A happens-before query is one bit
//! test, and nothing in a row depends on the number of threads.
//!
//! [`HbTracker::push`] computes the new event `j`'s row and its reversible
//! races in a single backward scan. Both rest on the **covered-prefix
//! characterisation**: an earlier event `i` reaches `j` through some
//! intermediate event (`i → k → j`) iff some *direct* dependent
//! predecessor `k' > i` of `j` has `i → k'`. Scanning from `j - 1` down,
//! the row accumulated so far is exactly the union of those `k'` and their
//! rows, so event `i` is *covered* iff its bit is already set. The scan
//! visits only uncovered events — it jumps to the highest clear bit below
//! its position — so a covered event costs nothing; an uncovered dependent
//! event ORs its row and its own bit into the new row and, when it belongs
//! to another thread, is a reversible race. The scan ends when every
//! earlier bit is set or visited.
//!
//! The cost per event is one dependence test per *uncovered* earlier event
//! and one `O(depth / 64)` OR per direct dependent predecessor it keeps:
//! `O(depth)` tests in the worst case (a thread whose steps commute with
//! everything keeps the scan going to the root), and usually a short
//! suffix.
//!
//! The dependence test itself is filtered. Beside each 64-byte
//! [`StepLabel`] the tracker keeps a compact signature: the thread, whether
//! the footprint is unknown, and the read and write register sets folded
//! into `u64` masks (register `r` sets bit `r mod 64`). Two signatures *may
//! conflict* when they share a thread, either is unknown, or a write bit of
//! one meets a read or write bit of the other. Folding only merges
//! registers, so a pair that may not conflict is independent for certain;
//! a pair that may conflict, aliased registers included, falls back to the
//! exact [`StepLabel::dependent`]. Rows and races are therefore the ones
//! the exact test alone computes, while the scan reads a 24-byte signature
//! per visited event and the label only on a possible conflict.
//!
//! # Class fingerprints, incrementally
//!
//! [`HbTracker::fingerprint`] names the Mazurkiewicz class of the recorded
//! schedule. Each thread keeps a running FNV-1a hash of its own events in
//! program order, folded in by [`HbTracker::push`]: the label content and
//! a commutative sum over the events the scan joined, each named by its
//! thread and per-thread index. The joined events are exactly `j`'s
//! *maximal* dependent predecessors, a trace invariant, and their
//! transitive closure is the happens-before order itself. The hash before
//! each event is kept on a per-event stack so [`HbTracker::truncate`]
//! restores it exactly. A fingerprint then folds the per-thread hashes:
//! `O(threads)` per completed schedule instead of a walk over every event.

use crate::memory::{Footprint, RegId, StepLabel};
use crate::rng::SplitMix64;
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
    /// Whether the footprint is [`Footprint::Unknown`].
    unknown: bool,
}

impl Sig {
    fn of(label: StepLabel) -> Sig {
        let fold = |r: RegId| 1u64 << (r.0 % 64);
        let (reads, writes, unknown) = match label.footprint {
            Footprint::Pure => (0, 0, false),
            Footprint::Read(r) => (fold(r), 0, false),
            Footprint::Write(r) => (0, fold(r), false),
            Footprint::Net(w) => (0, w.regs().iter().fold(0, |m, &r| m | fold(r)), false),
            Footprint::Unknown => (0, 0, true),
        };
        Sig {
            reads,
            writes,
            proc: label.proc.index() as u32,
            unknown,
        }
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

/// Thread `p`'s class hash before its first event.
fn class_seed(p: usize) -> u64 {
    fnv(FNV_OFFSET, 0xffff_ffff_ffff_0000 | p as u64)
}

/// The class-hash contribution of a joined predecessor: event `seq`
/// (1-based) of `thread`, well mixed so that a sum of contributions names
/// the set.
fn pred_key(thread: u32, seq: u32) -> u64 {
    SplitMix64::new(u64::from(thread) << 32 | u64::from(seq)).next_u64()
}

/// Folds one event of a thread — its label content and the sum of its
/// joined predecessors' [`pred_key`]s — into that thread's class hash.
fn fold_event(mut h: u64, label: StepLabel, preds: u64) -> u64 {
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
    h = fnv(h, tag);
    h = fnv(h, detail);
    fnv(h, preds)
}

/// The bit of thread `p` in an initials mask. Only
/// [`HbTracker::race_initials`] needs it, so the explorer bounds its
/// `n + cap` threads (by asserting `2n + cap <= 64`) and replay does not.
#[inline]
fn bit(p: ProcessId) -> u64 {
    debug_assert!(p.index() < 64);
    1u64 << p.index()
}

/// Happens-before tracking over one executed schedule prefix. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct HbTracker {
    labels: Vec<StepLabel>,
    /// `sigs[e]` is the [`Sig`] of `labels[e]`.
    sigs: Vec<Sig>,
    /// `seqs[e]` is event `e`'s 1-based index within its thread.
    seqs: Vec<u32>,
    /// The width of a predecessor row in `u64`s.
    words: usize,
    /// Flat per-event predecessor rows, stride `words`: bit `i` of row `e`
    /// is set iff event `i` happens-before event `e` (`i < e`).
    past: Vec<u64>,
    /// `counts[p]` is the number of recorded events of thread `p`.
    counts: Vec<u32>,
    /// The reversible races closed by the most recent [`Self::push`],
    /// ascending (see [`Self::races_of_last`]).
    races: Vec<usize>,
    /// Per thread, the running class hash of its events (see the
    /// [module documentation](self#class-fingerprints-incrementally)).
    class: Vec<u64>,
    /// `prev_class[e]` is the class hash of event `e`'s thread before `e`.
    prev_class: Vec<u64>,
}

impl HbTracker {
    /// A fresh tracker for `threads` threads (the label's
    /// [`StepLabel::proc`] names the thread).
    pub fn new(threads: usize) -> Self {
        HbTracker {
            labels: Vec::new(),
            sigs: Vec::new(),
            seqs: Vec::new(),
            words: 1,
            past: Vec::new(),
            counts: vec![0; threads],
            races: Vec::new(),
            class: (0..threads).map(class_seed).collect(),
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
        self.truncate(0);
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
            self.seqs.truncate(len);
            self.past.truncate(len * self.words);
        }
        self.races.clear();
    }

    /// The label of event `i`.
    pub fn label(&self, i: usize) -> StepLabel {
        self.labels[i]
    }

    /// Event `e`'s predecessor row.
    fn row(&self, e: usize) -> &[u64] {
        &self.past[e * self.words..(e + 1) * self.words]
    }

    /// Widens every row by one zero word, in place.
    fn widen(&mut self) {
        let (w, len) = (self.words, self.labels.len());
        self.past.resize(len * (w + 1), 0);
        for e in (0..len).rev() {
            self.past.copy_within(e * w..(e + 1) * w, e * (w + 1));
            self.past[e * (w + 1) + w] = 0;
        }
        self.words = w + 1;
    }

    /// Records one executed transition: computes its predecessor row (the
    /// union of every dependent predecessor's row and bit, program order
    /// included) and its reversible races in one backward scan — see the
    /// [module documentation](self#one-pass-per-event).
    pub fn push(&mut self, label: StepLabel) {
        let p = label.proc.index();
        debug_assert!(p < self.counts.len());
        let sig = Sig::of(label);
        // Every earlier event may conflict with an unknown one.
        let always = sig.unknown;
        let touched = sig.reads | sig.writes;
        let j = self.labels.len();
        if j == 64 * self.words {
            self.widen();
        }
        let w = self.words;
        self.past.resize((j + 1) * w, 0);
        let (head, row) = self.past.split_at_mut(j * w);
        self.races.clear();
        // The sum of the joined predecessors' keys (the class hash's view).
        let mut preds = 0u64;
        // `free` holds the uncovered, unvisited events of row word `k`.
        let mut k = j / 64;
        let mut free = (1u64 << (j % 64)) - 1;
        'scan: loop {
            while free == 0 {
                if k == 0 {
                    break 'scan;
                }
                k -= 1;
                free = !row[k];
            }
            let b = 63 - free.leading_zeros() as usize;
            free &= !(1 << b);
            let i = k * 64 + b;
            let si = self.sigs[i];
            let q = si.proc as usize;
            // Branch-free: the scan visits mostly independent events.
            let may_conflict = always
                | (q == p)
                | si.unknown
                | ((si.writes & touched) | (si.reads & sig.writes) != 0);
            if may_conflict && self.labels[i].dependent(label) {
                for (dst, &s) in row.iter_mut().zip(&head[i * w..(i + 1) * w]) {
                    *dst |= s;
                }
                row[k] |= 1 << b;
                free &= !row[k];
                preds = preds.wrapping_add(pred_key(si.proc, self.seqs[i]));
                if q != p {
                    self.races.push(i);
                }
            }
        }
        self.counts[p] += 1;
        self.seqs.push(self.counts[p]);
        self.prev_class.push(self.class[p]);
        self.class[p] = fold_event(self.class[p], label, preds);
        self.labels.push(label);
        self.sigs.push(sig);
        self.races.reverse();
    }

    /// Whether event `i` happens-before event `j` (reflexive; `i <= j`).
    pub fn happens_before(&self, i: usize, j: usize) -> bool {
        debug_assert!(i <= j);
        i == j || self.row(j)[i / 64] & (1 << (i % 64)) != 0
    }

    /// The event indices of a schedule of the recorded trace that runs the
    /// events of `order` in that order, each as early as possible: before
    /// each one, its not yet listed happens-before predecessors in index
    /// order; after the last one, every remaining event in index order.
    /// Every such sequence is a linear extension of happens-before, so it
    /// is a schedule of the same Mazurkiewicz trace. `order` must list its
    /// events in an order that happens-before allows.
    pub fn extend_order(&self, order: &[usize]) -> Vec<usize> {
        let mut listed = vec![false; self.len()];
        let mut out = Vec::with_capacity(self.len());
        for &e in order {
            debug_assert!(!listed[e], "event {e} is ordered after its successor");
            for (i, seen) in listed[..e].iter_mut().enumerate() {
                if !*seen && self.happens_before(i, e) {
                    *seen = true;
                    out.push(i);
                }
            }
            listed[e] = true;
            out.push(e);
        }
        out.extend((0..self.len()).filter(|&e| !listed[e]));
        out
    }

    /// Appends to `out` (ascending) the indices `i` such that `(i, last)` is
    /// a race: different threads, dependent, and no intermediate event `k`
    /// with `i → k → last`. The list is the one the last [`Self::push`]
    /// built (an uncovered dependent event of another thread is exactly
    /// such an `i`), so this is a copy; it is empty after a
    /// [`Self::truncate`] or [`Self::clear`] until the next push.
    pub fn races_of_last(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.races);
    }

    /// A fingerprint of the happens-before *class* of the recorded
    /// schedule: two schedules that are equivalent up to commuting
    /// independent transitions (the same Mazurkiewicz trace) produce the
    /// same value.
    ///
    /// Each thread's events are hashed in program order, each with its
    /// label content (its footprint) and a
    /// commutative sum over its maximal dependent predecessors, each named
    /// by thread and per-thread index; the per-thread hashes are folded in
    /// thread order. Program order and maximal predecessors are invariant
    /// under commuting independent steps, and together they determine the
    /// happens-before order, so equivalent linearizations hash identically
    /// while schedules with a different dependence structure (almost
    /// surely) do not. The per-thread hashes are maintained by
    /// [`Self::push`] and [`Self::truncate`], so this costs `O(threads)`.
    pub fn fingerprint(&self) -> u64 {
        self.class.iter().fold(FNV_OFFSET, |h, &c| fnv(h, c))
    }

    /// The weak initials of `v = notdep(i)·last` for a race `(i, last)`
    /// reported by [`Self::races_of_last`], as a thread bit mask: the
    /// events after `i` that do not happen-after `i`, followed by the last
    /// event; a thread is an initial iff its first event in `v` has no
    /// happens-before predecessor inside `v`. Exploring any one initial
    /// from the prefix before `i` realises the race reversal.
    ///
    /// A running bitset holds the events of `v` seen so far, so the
    /// predecessor test of each candidate is one AND per row word.
    pub fn race_initials(&self, i: usize) -> u64 {
        let (j, w, bi) = (self.labels.len() - 1, self.words, 1u64 << (i % 64));
        let mut heap = Vec::new();
        let mut stack = [0u64; 2];
        let v: &mut [u64] = if w <= stack.len() {
            &mut stack[..w]
        } else {
            heap.resize(w, 0);
            &mut heap
        };
        let rows = self.past[(i + 1) * w..].chunks_exact(w);
        let mut initials = 0u64;
        let mut preceded = 0u64;
        for ((m, row), sig) in (i + 1..).zip(rows).zip(&self.sigs[i + 1..]) {
            if m != j && row[i / 64] & bi != 0 {
                continue;
            }
            let t = bit(ProcessId(sig.proc as usize));
            if preceded & t == 0 {
                // Neither a preceded event nor any later event of the same
                // thread can be moved to the front of `v`; only the first
                // event of a thread can qualify it.
                if !row.iter().zip(v.iter()).any(|(r, s)| r & s != 0) {
                    initials |= t;
                }
                preceded |= t;
            }
            v[m / 64] |= 1 << (m % 64);
        }
        initials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Footprint, NetWrites, RegId};

    impl HbTracker {
        /// Event `i`'s vector-clock entry for thread `p`: the number of
        /// `p`'s events that happen-before (or are) event `i`.
        fn clock(&self, i: usize, p: ProcessId) -> u32 {
            (0..=i)
                .filter(|&e| self.sigs[e].proc as usize == p.index() && self.happens_before(e, i))
                .count() as u32
        }
    }

    /// The vector-clock reference for [`HbTracker`]. Each event's clock row
    /// counts, per thread, the events that happen-before (or are) it, and
    /// joins *every* dependent predecessor (one dependence test per earlier
    /// event). An event's maximal dependent predecessors, and among them its
    /// races, are found by searching an intermediate event `k` with
    /// `i → k → j` for every dependent predecessor `i`: `O(depth²)` per
    /// event. Initials are found by clock comparisons, and the fingerprint
    /// by a full walk over every event.
    struct VcReference {
        threads: usize,
        labels: Vec<StepLabel>,
        /// Flat clock rows, stride `threads`.
        clocks: Vec<u32>,
        /// Per event, the sum of its maximal dependent predecessors'
        /// [`pred_key`]s.
        preds: Vec<u64>,
        races: Vec<usize>,
    }

    impl VcReference {
        fn new(threads: usize) -> Self {
            VcReference {
                threads,
                labels: Vec::new(),
                clocks: Vec::new(),
                preds: Vec::new(),
                races: Vec::new(),
            }
        }

        fn truncate(&mut self, len: usize) {
            self.labels.truncate(len);
            self.clocks.truncate(len * self.threads);
            self.preds.truncate(len);
            self.races.clear();
        }

        fn clock(&self, i: usize, p: usize) -> u32 {
            self.clocks[i * self.threads + p]
        }

        fn happens_before(&self, i: usize, j: usize) -> bool {
            let p = self.labels[i].proc.index();
            self.clock(j, p) >= self.clock(i, p)
        }

        fn push(&mut self, label: StepLabel) {
            let n = self.threads;
            let j = self.labels.len();
            let base = j * n;
            self.clocks.resize(base + n, 0);
            let dependent: Vec<usize> = (0..j)
                .filter(|&i| self.labels[i].dependent(label))
                .collect();
            for &i in &dependent {
                let (head, tail) = self.clocks.split_at_mut(base);
                for (dst, &s) in tail.iter_mut().zip(&head[i * n..(i + 1) * n]) {
                    *dst = (*dst).max(s);
                }
            }
            self.clocks[base + label.proc.index()] += 1;
            self.labels.push(label);
            self.races.clear();
            let mut preds = 0u64;
            for i in dependent {
                let transitive =
                    (i + 1..j).any(|k| self.happens_before(i, k) && self.happens_before(k, j));
                if transitive {
                    continue;
                }
                let q = self.labels[i].proc.index();
                preds = preds.wrapping_add(pred_key(q as u32, self.clock(i, q)));
                if q != label.proc.index() {
                    self.races.push(i);
                }
            }
            self.preds.push(preds);
        }

        fn race_initials(&self, i: usize) -> u64 {
            let j = self.labels.len() - 1;
            let in_v = |k: usize| k == j || !self.happens_before(i, k);
            let mut initials = 0u64;
            let mut preceded = 0u64;
            for m in (i + 1..=j).filter(|&m| in_v(m)) {
                let pm = self.labels[m].proc;
                if preceded & bit(pm) != 0 {
                    continue;
                }
                if !(i + 1..m).any(|l| in_v(l) && self.happens_before(l, m)) {
                    initials |= bit(pm);
                }
                preceded |= bit(pm);
            }
            initials
        }

        /// Rehashes every thread's events from its seed, in program order.
        fn fingerprint(&self) -> u64 {
            let mut class: Vec<u64> = (0..self.threads).map(class_seed).collect();
            for (&label, &preds) in self.labels.iter().zip(&self.preds) {
                let h = &mut class[label.proc.index()];
                *h = fold_event(*h, label, preds);
            }
            class.into_iter().fold(FNV_OFFSET, fnv)
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn step(proc: usize, fp: Footprint) -> StepLabel {
        StepLabel {
            proc: p(proc),
            footprint: fp,
        }
    }

    #[test]
    fn unknown_footprints_are_ordered_with_everything() {
        let mut hb = HbTracker::new(3);
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
        let mut hb = HbTracker::new(2);
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
        let mut hb = HbTracker::new(3);
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
        let mut hb = HbTracker::new(3);
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
        let mut hb = HbTracker::new(3);
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
    fn pure_steps_of_different_threads_never_race() {
        // Invocations and responses are pure steps: only program order and
        // footprints order them, so a response never races with another
        // process's invocation.
        let mut hb = HbTracker::new(2);
        hb.push(step(0, Footprint::Pure));
        hb.push(step(1, Footprint::Pure));
        let mut races = Vec::new();
        hb.races_of_last(&mut races);
        assert!(races.is_empty());
        assert!(!hb.happens_before(0, 1));
    }

    #[test]
    fn extend_order_realises_a_history_order_as_a_schedule() {
        // p0: W(a) then R(b); p1: W(b). Only W(b) -> R(b) is ordered across
        // threads, so the order [1, 0] (p1's write first) extends to the
        // schedule [1, 0, 2], and [2] pulls in both predecessors.
        let (a, b) = (RegId(0), RegId(1));
        let mut hb = HbTracker::new(2);
        hb.push(step(0, Footprint::Write(a)));
        hb.push(step(1, Footprint::Write(b)));
        hb.push(step(0, Footprint::Read(b)));
        assert_eq!(hb.extend_order(&[1, 0]), vec![1, 0, 2]);
        assert_eq!(hb.extend_order(&[2]), vec![0, 1, 2]);
        assert_eq!(hb.extend_order(&[]), vec![0, 1, 2]);
    }

    #[test]
    fn fingerprint_is_mazurkiewicz_invariant() {
        let (a, b) = (RegId(0), RegId(1));
        // Independent steps commute: the two interleavings of W(a) and W(b)
        // are the same trace, so they fingerprint identically.
        let mut one = HbTracker::new(2);
        one.push(step(0, Footprint::Write(a)));
        one.push(step(1, Footprint::Write(b)));
        let mut two = HbTracker::new(2);
        two.push(step(1, Footprint::Write(b)));
        two.push(step(0, Footprint::Write(a)));
        assert_eq!(one.fingerprint(), two.fingerprint());

        // Dependent steps do not: swapping two writes to the same register
        // changes the dependence structure's orientation.
        let mut three = HbTracker::new(2);
        three.push(step(0, Footprint::Write(a)));
        three.push(step(1, Footprint::Write(a)));
        let mut four = HbTracker::new(2);
        four.push(step(1, Footprint::Write(a)));
        four.push(step(0, Footprint::Write(a)));
        assert_ne!(three.fingerprint(), four.fingerprint());
        assert_ne!(one.fingerprint(), three.fingerprint());
    }

    #[test]
    fn truncate_rewinds_the_event_stream() {
        let a = RegId(0);
        let mut hb = HbTracker::new(2);
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
    /// the push prefilter's exact fallback decides those pairs), with every
    /// footprint kind.
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
        }
    }

    /// Asserts that `fast` and `slow` agree on the stream length, on
    /// `happens_before` for every pair of events and on the fingerprint.
    fn assert_same_order(fast: &HbTracker, slow: &VcReference, at: &str) {
        assert_eq!(fast.len(), slow.labels.len(), "lengths differ at {at}");
        for j in 0..fast.len() {
            for i in 0..=j {
                assert_eq!(
                    fast.happens_before(i, j),
                    slow.happens_before(i, j),
                    "happens_before({i}, {j}) differs at {at}"
                );
            }
        }
        assert_eq!(
            fast.fingerprint(),
            slow.fingerprint(),
            "fingerprint differs from the full walk at {at}"
        );
    }

    #[test]
    fn one_pass_push_matches_the_quadratic_reference() {
        let mut widest = 0;
        for case in 0..128u64 {
            let mut rng = SplitMix64::new(0x4B_1D ^ case);
            let procs = 2 + rng.next_below(3);
            let mut fast = HbTracker::new(procs);
            let mut slow = VcReference::new(procs);
            let mut fast_races = Vec::new();
            // Streams grow past 64 and 128 events, so rows widen and
            // truncations cross word boundaries.
            for step in 0..160 {
                let at = format!("case {case} step {step} (procs {procs})");
                match rng.next_below(32) {
                    0 => {
                        let len = fast.len() - rng.next_below(fast.len().min(16) + 1);
                        fast.truncate(len);
                        slow.truncate(len);
                    }
                    1 if rng.next_below(8) == 0 => {
                        fast.clear();
                        slow.truncate(0);
                    }
                    _ => {
                        let label = arb_label(&mut rng, procs);
                        fast.push(label);
                        slow.push(label);
                        fast_races.clear();
                        fast.races_of_last(&mut fast_races);
                        assert_eq!(fast_races, slow.races, "race lists differ at {at}");
                        for &i in &fast_races {
                            assert_eq!(
                                fast.race_initials(i),
                                slow.race_initials(i),
                                "initials of race {i} differ at {at}"
                            );
                        }
                    }
                }
                // Every pair and the maintained class hashes agree with the
                // reference after every push, truncate and clear.
                assert_same_order(&fast, &slow, &at);
                widest = widest.max(fast.len());
            }
        }
        assert!(widest > 128, "streams must cross two word boundaries");
    }
}
