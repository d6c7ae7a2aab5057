//! The explorer ↔ specification bridge: a [`ScheduleMonitor`] that feeds
//! invoke/commit events to a linearizability checker *incrementally* while
//! the schedule explorer runs, and answers per-schedule linearizability
//! verdicts.
//!
//! The bridge keeps **one** checker for the whole exploration, rewound
//! whenever the explorer restores a checkpoint. Events are taken from the
//! executor's [`TickEmission`] stream as each transition runs, not from the
//! finished execution's trace. Which checker depends on the
//! [`CheckerMode`]:
//!
//! * [`CheckerMode::Incremental`] feeds the events to an
//!   [`IncrementalLinChecker`] whose frontier is memoised at branch points,
//!   so backtracking re-checks only the suffix of each schedule instead of
//!   re-running the checker from tick 0;
//! * [`CheckerMode::FromScratch`] records a [`ConcurrentHistory`], rewound
//!   by high-water-mark truncation (its buffers are reused across the whole
//!   exploration), and runs the from-scratch search on it at every
//!   verdict.
//!
//! # One verdict per trace: the real-time walk
//!
//! Under source DPOR the explorer runs one schedule per Mazurkiewicz trace,
//! and the other schedules of that trace may order the *history events*
//! differently: invocations, responses, the strict closure's crash gates
//! and the durable and recoverable closures' deadlines. The monitor records
//! each history event with the set of earlier history events that
//! happen-before it ([`ExecSession::hb`]). The histories of the trace's
//! schedules are exactly the linear extensions of that order (a linear
//! extension of a sub-order extends to the whole order), and
//! [`LinMonitor::verdict`] decides all of them:
//!
//! * the schedule's own order is checked first, as the events arrive;
//! * **fast path:** a verdict reads one cross-process order, whether a
//!   response-like event (a response, gate or deadline) precedes an
//!   invocation. Moving such an event earlier only adds constraints, so
//!   when every response-like event already precedes each invocation that
//!   does not happen-before it, the own order is the most constrained
//!   extension and its verdict stands for all;
//! * otherwise a depth-first walk feeds extensions to a second checker
//!   through its `mark`/`rewind_to`. It runs every ready response-like event
//!   at once (the more constrained choice), branches only over the ready
//!   invocations, keeps a sleep set among them (two invocations commute),
//!   and stops at the first extension that fails (with the incremental
//!   checker, as soon as its frontier empties);
//! * verdicts are memoised by the full walk input: the history events with
//!   their responses and their happens-before rows.
//!
//! A failing extension is reported as a schedule of the same trace
//! ([`name_counterexample`]), which replays to the same verdict. Without a happens-before order (under
//! [`scl_sim::Reduction::Off`] and in replay) the own order is the only
//! one.

use scl_sim::{name_counterexample, ExecSession, OpOutcome, ScheduleMonitor, TickEmission};
use scl_spec::{
    check_strict_linearizable_with_stats, ConcurrentHistory, FxHashMap, HistoryMark, IncVerdict,
    IncrementalLinChecker, LinCheckResult, Request, RequestId, SequentialSpec,
};
use std::fmt::Debug;
use std::hash::Hash;

/// How [`LinMonitor`] computes its per-schedule verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerMode {
    /// The incremental Wing–Gong checker: frontier states are checkpointed
    /// at branch points and only the suffix is re-checked on backtrack.
    #[default]
    Incremental,
    /// Re-run the from-scratch Wing–Gong search on the (incrementally
    /// maintained, allocation-reusing) history at every leaf. The baseline
    /// whose checker states the incremental mode must undercut (the
    /// `count_bars` test) and an oracle for it; `scl-check` itself always
    /// runs [`CheckerMode::Incremental`].
    FromScratch,
}

/// How crashed-pending operations enter the completion closure — the axis
/// that separates plain linearizability from *strict* linearizability on the
/// same crashy histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashedPending {
    /// The classic (open) closure: a pending operation of a crashed process
    /// may take effect at any later point, or be dropped — crashes are
    /// invisible to the checker.
    #[default]
    Open,
    /// Strict linearizability: a crashed-pending operation may only take
    /// effect *before* its crash point (or be dropped) — it must precede
    /// every operation invoked after the crash.
    Strict,
    /// Durable linearizability: completed operations persist across
    /// crash/restart, and an operation interrupted by a crash may be lost —
    /// but once its owner's recovery completes without resolving it, it may
    /// no longer take effect (the deadline is the *recovery completion*, not
    /// the crash point). An operation the recovery resolves simply commits,
    /// late. Crashes without a restart leave the operation open-pending.
    Durable,
    /// Recoverable linearizability: like durable, except an interrupted
    /// operation must take *effect* before its owner's recovery completes —
    /// recovery may abandon the response, but not the operation. A recovery
    /// completing with the operation neither resolved nor linearizable
    /// before its completion point is a violation.
    Recoverable,
}

impl CrashedPending {
    /// The CLI/report name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            CrashedPending::Open => "open",
            CrashedPending::Strict => "strict",
            CrashedPending::Durable => "durable",
            CrashedPending::Recoverable => "recoverable",
        }
    }
}

/// One event of the history a [`LinMonitor`] checks, in the order the
/// events happen.
#[derive(Debug, Clone)]
pub enum HistoryEvent<S: SequentialSpec> {
    /// An invocation.
    Invoke(Request<S>),
    /// A response: the operation committed with this response (a recovery
    /// that resolves an interrupted operation commits it too).
    Commit(RequestId, S::Resp),
    /// The strict closure's crash gate: a crashed operation may take effect
    /// only before this point, unless it still commits.
    Crash(RequestId),
    /// The durable closure's deadline: the owner recovered without
    /// resolving the operation, which may not take effect after this point
    /// and never commits.
    Abandon(RequestId),
    /// The recoverable closure's deadline: the operation must have taken
    /// effect by this point.
    Required(RequestId),
}

impl<S: SequentialSpec> HistoryEvent<S> {
    /// Whether this is an invocation. Every other event bounds when
    /// operations take effect, like a response.
    pub fn is_invoke(&self) -> bool {
        matches!(self, HistoryEvent::Invoke(_))
    }

    /// The event's part of a memo key: kind, request, response and row.
    fn key(&self, preds: u128) -> KeyEntry<S::Resp> {
        match self {
            HistoryEvent::Invoke(req) => (0, req.id, None, preds),
            HistoryEvent::Commit(id, resp) => (1, *id, Some(resp.clone()), preds),
            HistoryEvent::Crash(id) => (2, *id, None, preds),
            HistoryEvent::Abandon(id) => (3, *id, None, preds),
            HistoryEvent::Required(id) => (4, *id, None, preds),
        }
    }
}

/// One history event of a memo key (see [`HistoryEvent::key`]).
type KeyEntry<R> = (u8, RequestId, Option<R>, u128);

/// The walk's answer for one trace: `None` when every extension passes,
/// else a failing order (history indices) and its message.
type Found = Option<(Vec<usize>, String)>;

/// The history events the walk's `u128` rows can order.
const WALK_EVENTS: usize = 128;

/// Walk verdicts kept before the memo starts over (bounds its memory).
const MEMO_CAP: usize = 1 << 12;

/// One recorded history event and its place in the trace.
struct Recorded<S: SequentialSpec> {
    event: HistoryEvent<S>,
    /// The schedule position of the transition that emitted it.
    at: usize,
    /// Bit `j` is set iff history event `j` happens-before this one (every
    /// earlier event without a happens-before order).
    preds: u128,
    /// Whether this or an earlier response-like event follows, in the
    /// schedule, an invocation it is not ordered after: some extension
    /// reverses them, and the own order is not the most constrained one.
    movable: bool,
}

/// See the [module documentation](self).
pub struct LinMonitor<S: SequentialSpec> {
    crashed_pending: CrashedPending,
    /// Fed the explored schedule's own order.
    checker: Checker<S>,
    /// Fed the orders of the per-trace walk.
    walker: Checker<S>,
    history: Vec<Recorded<S>>,
    /// Stack of (monitor mark, history length).
    marks: Vec<(u64, usize)>,
    memo: FxHashMap<Vec<KeyEntry<S::Resp>>, Found>,
}

/// The per-mode checker state: exactly one of the two is maintained.
enum Checker<S: SequentialSpec> {
    /// The incremental checker (boxed: it is several times the size of the
    /// other variant); its own mark tokens are the monitor's.
    Incremental(Box<IncrementalLinChecker<S>>),
    /// The recorded history, re-checked from scratch at every verdict.
    FromScratch {
        spec: S,
        hist: ConcurrentHistory<S>,
        /// Stack of history marks; a mark's token is its stack index.
        marks: Vec<HistoryMark>,
        /// Checker states expanded by the verdicts so far.
        states: u64,
    },
}

impl<S: SequentialSpec> Checker<S> {
    fn new(spec: S, mode: CheckerMode) -> Self {
        match mode {
            CheckerMode::Incremental => {
                Checker::Incremental(Box::new(IncrementalLinChecker::new(spec)))
            }
            CheckerMode::FromScratch => Checker::FromScratch {
                spec,
                hist: ConcurrentHistory::new(),
                marks: Vec::new(),
                states: 0,
            },
        }
    }

    fn begin(&mut self) {
        match self {
            Checker::Incremental(inc) => inc.begin(),
            Checker::FromScratch { hist, marks, .. } => {
                hist.clear();
                marks.clear();
            }
        }
    }

    /// Consumes one history event. `event_count` is a dense clock over
    /// recorded events, so relative order (all the from-scratch checker
    /// consumes) matches the fed order.
    fn feed(&mut self, event: &HistoryEvent<S>) {
        match (self, event) {
            (Checker::Incremental(inc), HistoryEvent::Invoke(req)) => inc.invoke(req),
            (Checker::Incremental(inc), HistoryEvent::Commit(id, resp)) => inc.commit(*id, resp),
            (Checker::Incremental(inc), HistoryEvent::Crash(id)) => inc.crash(*id),
            (Checker::Incremental(inc), HistoryEvent::Abandon(id)) => inc.abandon(*id),
            (Checker::Incremental(inc), HistoryEvent::Required(id)) => inc.recovered_required(*id),
            (Checker::FromScratch { hist, .. }, event) => {
                let at = hist.event_count();
                match event {
                    HistoryEvent::Invoke(req) => hist.record_invoke(at, req.clone()),
                    HistoryEvent::Commit(id, resp) => hist.record_response(at, *id, resp.clone()),
                    // A history op that never commits keeps its gate anyway.
                    HistoryEvent::Crash(id) | HistoryEvent::Abandon(id) => {
                        hist.record_crash(at, *id)
                    }
                    HistoryEvent::Required(id) => hist.record_crash_required(at, *id),
                }
            }
        }
    }

    /// Whether no extension of the events fed so far can pass (only the
    /// incremental checker knows before the end).
    fn refuted(&self) -> bool {
        matches!(self, Checker::Incremental(inc) if inc.refuted())
    }

    fn states(&self) -> u64 {
        match self {
            Checker::Incremental(inc) => inc.stats().states,
            Checker::FromScratch { states, .. } => *states,
        }
    }

    fn mark(&mut self) -> u64 {
        match self {
            Checker::Incremental(inc) => inc.mark(),
            Checker::FromScratch { hist, marks, .. } => {
                marks.push(hist.mark());
                marks.len() as u64 - 1
            }
        }
    }

    fn rewind_to(&mut self, mark: u64) {
        match self {
            Checker::Incremental(inc) => inc.rewind_to(mark),
            Checker::FromScratch { hist, marks, .. } => {
                debug_assert!((mark as usize) < marks.len(), "rewound to an unknown mark");
                marks.truncate(mark as usize + 1);
                hist.truncate_to(*marks.last().expect("rewound to an unknown monitor mark"));
            }
        }
    }

    /// The verdict for the events fed so far, under `crashed_pending`.
    fn verdict(&mut self, crashed_pending: CrashedPending) -> Result<(), String> {
        let (spec, hist, states) = match self {
            Checker::Incremental(inc) => {
                return match inc.verdict() {
                    IncVerdict::Linearizable => Ok(()),
                    IncVerdict::NotLinearizable(id) => Err(format!(
                        "commit projection is not linearizable (no order admits the response \
                         of {id})"
                    )),
                    IncVerdict::TooLarge => Err(TOO_LARGE.to_string()),
                };
            }
            Checker::FromScratch {
                spec, hist, states, ..
            } => (spec, hist, states),
        };
        // Every closure shares the strict search: the difference is entirely
        // in *what* was recorded (no gate under the open closure, where the
        // deadline sits, and whether the op is required).
        let (result, stats) = check_strict_linearizable_with_stats(spec, hist);
        *states += stats.states;
        let adverb = match crashed_pending {
            CrashedPending::Open => {
                return result_or(result, "commit projection is not linearizable")
            }
            CrashedPending::Strict => "strictly",
            CrashedPending::Durable => "durably",
            CrashedPending::Recoverable => "recoverably",
        };
        let message = format!(
            "commit projection is not {adverb} linearizable (crashed-pending: {})",
            crashed_pending.name()
        );
        result_or(result, &message)
    }
}

/// `result` as a verdict, with `message` for a violation.
fn result_or(result: LinCheckResult, message: &str) -> Result<(), String> {
    match result {
        LinCheckResult::Linearizable(_) => Ok(()),
        LinCheckResult::NotLinearizable => Err(message.to_string()),
        LinCheckResult::TooLarge => Err(TOO_LARGE.to_string()),
    }
}

/// The verdict of a history beyond the checkers' operation bound.
const TOO_LARGE: &str = "history exceeds the 128-operation checker bound";

/// The ascending indices of the set bits of `mask`.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// The set of history indices `ks`.
fn mask(ks: impl Iterator<Item = usize>) -> u128 {
    ks.fold(0, |m, k| m | 1 << k)
}

/// The history indices below `k` (all of them from [`WALK_EVENTS`] on).
fn below(k: usize) -> u128 {
    if k >= WALK_EVENTS {
        !0
    } else {
        (1 << k) - 1
    }
}

/// One depth-first walk over the linear extensions of a history.
struct Walk<'a, S: SequentialSpec> {
    history: &'a [Recorded<S>],
    checker: &'a mut Checker<S>,
    crashed_pending: CrashedPending,
    /// Every history event.
    all: u128,
    /// The response-like events.
    responses: u128,
    /// The order walked so far, as history indices.
    order: Vec<usize>,
}

impl<'a, S: SequentialSpec> Walk<'a, S> {
    fn new(
        history: &'a [Recorded<S>],
        checker: &'a mut Checker<S>,
        crashed_pending: CrashedPending,
    ) -> Self {
        checker.begin();
        let all = below(history.len());
        let responses = mask(bits(all).filter(|&k| !history[k].event.is_invoke()));
        Walk {
            history,
            checker,
            crashed_pending,
            all,
            responses,
            order: Vec::with_capacity(history.len()),
        }
    }

    /// The events not in `done` whose predecessors all are.
    fn ready(&self, done: u128) -> u128 {
        mask(bits(self.all & !done).filter(|&k| self.history[k].preds & !done == 0))
    }

    fn take(&mut self, k: usize) {
        self.checker.feed(&self.history[k].event);
        self.order.push(k);
    }

    /// Searches the extensions of the walked prefix `done` for a failing
    /// one: every ready response-like event runs at once, and only the
    /// ready invocations outside `sleep` branch.
    fn search(&mut self, mut done: u128, mut sleep: u128) -> Found {
        loop {
            let ready = self.ready(done) & self.responses;
            if ready == 0 {
                break;
            }
            // A response-like event is dependent with every invocation, so
            // it wakes every sleeper.
            sleep = 0;
            for k in bits(ready) {
                self.take(k);
            }
            done |= ready;
            if self.checker.refuted() {
                // Every completion fails: finish in index order, which
                // happens-before allows.
                self.order.extend(bits(self.all & !done));
                return self.failure();
            }
        }
        if done == self.all {
            return self.failure();
        }
        let token = self.checker.mark();
        let depth = self.order.len();
        for k in bits(self.ready(done) & !sleep) {
            self.checker.rewind_to(token);
            self.order.truncate(depth);
            self.take(k);
            if let found @ Some(_) = self.search(done | 1 << k, sleep) {
                return found;
            }
            sleep |= 1 << k;
        }
        None
    }

    /// The walked order with its message, if the checker rejects it.
    fn failure(&mut self) -> Found {
        let message = self.checker.verdict(self.crashed_pending).err()?;
        Some((self.order.clone(), message))
    }
}

impl<S: SequentialSpec> LinMonitor<S> {
    /// A fresh monitor checking against `spec`, with the open crashed-pending
    /// closure (crashes invisible — plain linearizability).
    pub fn new(spec: S, mode: CheckerMode) -> Self {
        LinMonitor {
            crashed_pending: CrashedPending::Open,
            walker: Checker::new(spec.clone(), mode),
            checker: Checker::new(spec, mode),
            history: Vec::new(),
            marks: Vec::new(),
            memo: FxHashMap::default(),
        }
    }

    /// Selects how crashed-pending operations are closed (builder style).
    pub fn with_crashed_pending(mut self, crashed_pending: CrashedPending) -> Self {
        self.crashed_pending = crashed_pending;
        self
    }

    /// Total checker states expanded so far (across the whole exploration,
    /// per-trace walks included): frontier expansions in incremental mode,
    /// search nodes of the repeated from-scratch runs otherwise.
    pub fn checker_states(&self) -> u64 {
        self.checker.states() + self.walker.states()
    }

    /// The linearizability verdict for the trace of the execution observed
    /// since the last explorer restart/rewind: an error if any linear
    /// extension of its history fails (see the
    /// [module documentation](self#one-verdict-per-trace-the-real-time-walk)).
    /// When the failing extension is not the schedule's own order, it is
    /// named to the explorer ([`name_counterexample`]).
    pub fn verdict(&mut self) -> Result<(), String> {
        self.checker.verdict(self.crashed_pending)?;
        if !self.history.last().is_some_and(|r| r.movable) {
            return Ok(());
        }
        if self.history.len() > WALK_EVENTS {
            return Err(format!(
                "history exceeds the per-trace walk's {WALK_EVENTS}-event bound"
            ));
        }
        let key: Vec<_> = self.history.iter().map(|r| r.event.key(r.preds)).collect();
        if !self.memo.contains_key(&key) {
            if self.memo.len() == MEMO_CAP {
                self.memo.clear();
            }
            let mut walk = Walk::new(&self.history, &mut self.walker, self.crashed_pending);
            self.memo.insert(key.clone(), walk.search(0, 0));
        }
        let Some((order, message)) = &self.memo[&key] else {
            return Ok(());
        };
        name_counterexample(order.iter().map(|&k| self.history[k].at).collect());
        Err(message.clone())
    }

    /// The observed history: each event with its happens-before row (bit
    /// `j` set iff event `j` happens-before it; every earlier event without
    /// a happens-before order). The oracles enumerate its linear extensions
    /// to check [`Self::verdict`].
    pub fn history(&self) -> impl Iterator<Item = (&HistoryEvent<S>, u128)> {
        self.history.iter().map(|r| (&r.event, r.preds))
    }

    /// Feeds `event`, emitted by the transition `session` just executed, to
    /// the checker and records it with its happens-before row.
    fn record<V>(&mut self, event: HistoryEvent<S>, session: &ExecSession<S, V>)
    where
        V: Clone + Eq + Hash + Debug,
    {
        self.checker.feed(&event);
        let k = self.history.len();
        let (at, preds, loose) = match session.hb() {
            Some(hb) => {
                let at = hb.len() - 1;
                let (mut preds, mut loose) = (0u128, k >= WALK_EVENTS);
                for (j, r) in self.history.iter().take(WALK_EVENTS).enumerate() {
                    if hb.happens_before(r.at, at) {
                        preds |= 1 << j;
                    } else {
                        // An earlier invocation this event is not ordered
                        // after.
                        loose |= r.event.is_invoke() && !event.is_invoke();
                    }
                }
                (at, preds, loose)
            }
            // The schedule's own order is the only one.
            None => (session.depth() - 1, below(k), false),
        };
        let movable = loose || self.history.last().is_some_and(|r| r.movable);
        self.history.push(Recorded {
            event,
            at,
            preds,
            movable,
        });
    }
}

impl<S, V> ScheduleMonitor<S, V> for LinMonitor<S>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    fn begin(&mut self) {
        self.checker.begin();
        self.history.clear();
        self.marks.clear();
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        let ops = &session.result().ops;
        let event = match session.last_emission() {
            TickEmission::Invoked { op_index } => HistoryEvent::Invoke(ops[op_index].req.clone()),
            TickEmission::Committed { op_index } => {
                let record = &ops[op_index];
                let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                    unreachable!("Committed emission always carries a commit outcome");
                };
                HistoryEvent::Commit(record.req.id, resp.clone())
            }
            // Under the open closure a crashed-pending op is just a pending
            // op (may take effect any time, or be dropped), so the crash
            // records nothing. Under the strict closure the crash point caps
            // where the op may take effect. The durable and recoverable
            // closures record nothing *here*: their deadline is the recovery
            // completion, consumed below.
            TickEmission::Crashed {
                op_index: Some(op_index),
            } if self.crashed_pending == CrashedPending::Strict => {
                HistoryEvent::Crash(ops[op_index].req.id)
            }
            TickEmission::Recovered {
                op_index: Some(op_index),
                resolved,
            } => {
                let record = &ops[op_index];
                let id = record.req.id;
                if resolved {
                    // The recovery resolved the interrupted operation: a
                    // late commit, recorded under every closure (strict
                    // included — a committed op's crash gate dissolves, in
                    // both checkers).
                    let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                        unreachable!("a resolving recovery always commits the op");
                    };
                    HistoryEvent::Commit(id, resp.clone())
                } else {
                    // The recovery completed without resolving the
                    // operation.
                    match self.crashed_pending {
                        // Open: still just a pending op. Strict: the crash
                        // point (recorded at the Crashed emission) already
                        // caps it.
                        CrashedPending::Open | CrashedPending::Strict => return,
                        // Durable: the op may be lost, but not take effect
                        // after its owner recovered.
                        CrashedPending::Durable => HistoryEvent::Abandon(id),
                        // Recoverable: the op must have taken effect by now.
                        CrashedPending::Recoverable => HistoryEvent::Required(id),
                    }
                }
            }
            // Aborts are not part of the commit projection (the operation
            // simply stays pending), silent steps record nothing, a crash
            // records nothing outside the strict closure, a recovery with no
            // interrupted operation carries no history event, restarts move
            // no operation event (the history consequences arrive with the
            // recovery's completion), and network deliveries/drops move no
            // operation event — their history effect surfaces later through
            // the owner's own commit/abort step.
            TickEmission::Aborted { .. }
            | TickEmission::None
            | TickEmission::Crashed { .. }
            | TickEmission::Recovered { .. }
            | TickEmission::Restarted { .. }
            | TickEmission::Delivered { .. }
            | TickEmission::Dropped { .. } => return,
        };
        self.record(event, session);
    }

    fn mark(&mut self) -> u64 {
        let token = self.checker.mark();
        self.marks.push((token, self.history.len()));
        token
    }

    fn rewind_to(&mut self, mark: u64) {
        self.checker.rewind_to(mark);
        while self.marks.last().is_some_and(|&(token, _)| token > mark) {
            self.marks.pop();
        }
        let &(_, len) = self
            .marks
            .last()
            .expect("rewound to an unknown monitor mark");
        self.history.truncate(len);
    }
}
