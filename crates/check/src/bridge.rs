//! The explorer ↔ specification bridge: a [`ScheduleMonitor`] that feeds
//! invoke/commit events to a linearizability checker *incrementally* while
//! the schedule explorer runs, and answers per-schedule linearizability
//! verdicts.
//!
//! Before this bridge existed, every test that wanted a linearizability
//! verdict per schedule called `res.trace.commit_projection()` in its check
//! — allocating a fresh history and re-running the Wing–Gong search from
//! scratch for every explored schedule, and requiring full trace recording.
//! The bridge instead keeps **one** checker per worker for the whole
//! exploration, rewound whenever the explorer restores a checkpoint, and
//! works under [`TraceMode::MetricsOnly`](scl_sim::TraceMode) — events are
//! taken from the executor's [`TickEmission`] stream, not from the trace.
//! Which checker depends on the [`CheckerMode`]:
//!
//! * [`CheckerMode::Incremental`] feeds the events to an
//!   [`IncrementalLinChecker`] whose frontier is memoised at branch points,
//!   so backtracking re-checks only the suffix of each schedule instead of
//!   re-running the checker from tick 0;
//! * [`CheckerMode::FromScratch`] records a [`ConcurrentHistory`], rewound
//!   by high-water-mark truncation (its buffers are reused across the whole
//!   exploration), and runs the from-scratch search on it at every
//!   verdict.

use scl_sim::{ExecSession, OpOutcome, ScheduleMonitor, TickEmission};
use scl_spec::{
    check_linearizable_with_stats, check_strict_linearizable_with_stats, ConcurrentHistory,
    HistoryMark, IncVerdict, IncrementalLinChecker, LinCheckResult, Request, RequestId,
    SequentialSpec,
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
    /// the incremental mode is measured against in `bench_check`.
    FromScratch,
}

impl CheckerMode {
    /// The CLI/report name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            CheckerMode::Incremental => "incremental",
            CheckerMode::FromScratch => "from_scratch",
        }
    }
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

/// See the [module documentation](self).
pub struct LinMonitor<S: SequentialSpec> {
    crashed_pending: CrashedPending,
    checker: Checker<S>,
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
        /// Stack of (token, history mark).
        marks: Vec<(u64, HistoryMark)>,
        next_token: u64,
        /// Checker states expanded by the verdicts so far.
        states: u64,
    },
}

impl<S: SequentialSpec> Checker<S> {
    fn invoke(&mut self, req: &Request<S>) {
        match self {
            Checker::Incremental(inc) => inc.invoke(req),
            // `event_count` is a dense clock over recorded events, so
            // relative order (all the checker consumes) matches the trace's.
            Checker::FromScratch { hist, .. } => {
                hist.record_invoke(hist.event_count(), req.clone())
            }
        }
    }

    fn commit(&mut self, id: RequestId, resp: &S::Resp) {
        match self {
            Checker::Incremental(inc) => inc.commit(id, resp),
            Checker::FromScratch { hist, .. } => {
                hist.record_response(hist.event_count(), id, resp.clone())
            }
        }
    }

    /// A deadline: the operation may take effect only before this point.
    fn crash(&mut self, id: RequestId) {
        match self {
            Checker::Incremental(inc) => inc.crash(id),
            Checker::FromScratch { hist, .. } => hist.record_crash(hist.event_count(), id),
        }
    }

    /// A requirement: the operation must have taken effect by this point.
    fn crash_required(&mut self, id: RequestId) {
        match self {
            Checker::Incremental(inc) => inc.recovered_required(id),
            Checker::FromScratch { hist, .. } => hist.record_crash_required(hist.event_count(), id),
        }
    }
}

impl<S: SequentialSpec> LinMonitor<S> {
    /// A fresh monitor checking against `spec`, with the open crashed-pending
    /// closure (crashes invisible — plain linearizability).
    pub fn new(spec: S, mode: CheckerMode) -> Self {
        let checker = match mode {
            CheckerMode::Incremental => {
                Checker::Incremental(Box::new(IncrementalLinChecker::new(spec)))
            }
            CheckerMode::FromScratch => Checker::FromScratch {
                spec,
                hist: ConcurrentHistory::new(),
                marks: Vec::new(),
                next_token: 0,
                states: 0,
            },
        };
        LinMonitor {
            crashed_pending: CrashedPending::Open,
            checker,
        }
    }

    /// Selects how crashed-pending operations are closed (builder style).
    pub fn with_crashed_pending(mut self, crashed_pending: CrashedPending) -> Self {
        self.crashed_pending = crashed_pending;
        self
    }

    /// Total checker states expanded so far (across the whole exploration):
    /// frontier expansions in incremental mode, search nodes of the repeated
    /// from-scratch runs otherwise.
    pub fn checker_states(&self) -> u64 {
        match &self.checker {
            Checker::Incremental(inc) => inc.stats().states,
            Checker::FromScratch { states, .. } => *states,
        }
    }

    /// The linearizability verdict for the execution observed since the last
    /// explorer restart/rewind, as a check-style result.
    pub fn verdict(&mut self) -> Result<(), String> {
        let (spec, hist, states) = match &mut self.checker {
            Checker::Incremental(inc) => {
                return match inc.verdict() {
                    IncVerdict::Linearizable => Ok(()),
                    IncVerdict::NotLinearizable(id) => Err(format!(
                        "commit projection is not linearizable (no order admits the response \
                         of {id})"
                    )),
                    IncVerdict::TooLarge => {
                        Err("history exceeds the 128-operation checker bound".to_string())
                    }
                };
            }
            Checker::FromScratch {
                spec, hist, states, ..
            } => (spec, hist, states),
        };
        let (result, stats) = match self.crashed_pending {
            CrashedPending::Open => check_linearizable_with_stats(spec, hist),
            // The durable and recoverable closures share the strict search —
            // the difference is entirely in *what* `observe` recorded: where
            // the deadline sits (crash point vs recovery completion) and
            // whether the op is required.
            CrashedPending::Strict | CrashedPending::Durable | CrashedPending::Recoverable => {
                check_strict_linearizable_with_stats(spec, hist)
            }
        };
        *states += stats.states;
        match result {
            LinCheckResult::Linearizable(_) => Ok(()),
            LinCheckResult::NotLinearizable => Err(match self.crashed_pending {
                CrashedPending::Open => "commit projection is not linearizable".to_string(),
                CrashedPending::Strict => "commit projection is not strictly linearizable \
                                           (crashed-pending: strict)"
                    .to_string(),
                CrashedPending::Durable => "commit projection is not durably linearizable \
                                            (crashed-pending: durable)"
                    .to_string(),
                CrashedPending::Recoverable => "commit projection is not recoverably \
                                                linearizable (crashed-pending: recoverable)"
                    .to_string(),
            }),
            LinCheckResult::TooLarge => {
                Err("history exceeds the 128-operation checker bound".to_string())
            }
        }
    }
}

impl<S, V> ScheduleMonitor<S, V> for LinMonitor<S>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    fn begin(&mut self) {
        match &mut self.checker {
            Checker::Incremental(inc) => inc.begin(),
            Checker::FromScratch { hist, marks, .. } => {
                hist.clear();
                marks.clear();
            }
        }
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        match session.last_emission() {
            TickEmission::Invoked { op_index } => {
                self.checker.invoke(&session.result().ops[op_index].req);
            }
            TickEmission::Committed { op_index } => {
                let record = &session.result().ops[op_index];
                let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                    unreachable!("Committed emission always carries a commit outcome");
                };
                self.checker.commit(record.req.id, resp);
            }
            TickEmission::Crashed { op_index } => {
                // Under the open closure a crashed-pending op is just a
                // pending op (may take effect any time, or be dropped), so
                // the crash records nothing. Under the strict closure the
                // crash point caps where the op may take effect. The durable
                // and recoverable closures record nothing *here* — their
                // deadline is the recovery completion, consumed below.
                if self.crashed_pending == CrashedPending::Strict {
                    if let Some(op_index) = op_index {
                        self.checker.crash(session.result().ops[op_index].req.id);
                    }
                }
            }
            TickEmission::Recovered { op_index, resolved } => {
                let Some(op_index) = op_index else {
                    // No operation was interrupted: the recovery carries no
                    // history event under any closure.
                    return;
                };
                let record = &session.result().ops[op_index];
                let id = record.req.id;
                if resolved {
                    // The recovery resolved the interrupted operation: a
                    // late commit, recorded under every closure (strict
                    // included — a committed op's crash gate dissolves, in
                    // both checkers).
                    let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                        unreachable!("a resolving recovery always commits the op");
                    };
                    self.checker.commit(id, resp);
                    return;
                }
                // The recovery completed without resolving the operation.
                match self.crashed_pending {
                    // Open: still just a pending op. Strict: the crash point
                    // (recorded at the Crashed emission) already caps it.
                    CrashedPending::Open | CrashedPending::Strict => {}
                    // Durable: the op may be lost, but not take effect after
                    // its owner recovered — a strict-style deadline at the
                    // recovery completion.
                    CrashedPending::Durable => self.checker.crash(id),
                    // Recoverable: the op must have taken effect by now.
                    CrashedPending::Recoverable => self.checker.crash_required(id),
                }
            }
            // Aborts are not part of the commit projection (the operation
            // simply stays pending), silent steps record nothing, restarts
            // move no operation event (the history consequences arrive with
            // the recovery's completion), and network deliveries/drops move
            // no operation event — their history effect surfaces later
            // through the owner's own commit/abort step.
            TickEmission::Aborted { .. }
            | TickEmission::None
            | TickEmission::Restarted { .. }
            | TickEmission::Delivered { .. }
            | TickEmission::Dropped { .. } => {}
        }
    }

    fn mark(&mut self) -> u64 {
        match &mut self.checker {
            Checker::Incremental(inc) => inc.mark(),
            Checker::FromScratch {
                hist,
                marks,
                next_token,
                ..
            } => {
                let token = *next_token;
                *next_token += 1;
                marks.push((token, hist.mark()));
                token
            }
        }
    }

    fn rewind_to(&mut self, mark: u64) {
        match &mut self.checker {
            Checker::Incremental(inc) => inc.rewind_to(mark),
            Checker::FromScratch { hist, marks, .. } => {
                while marks.last().is_some_and(|&(token, _)| token > mark) {
                    marks.pop();
                }
                let &(token, hist_mark) = marks.last().expect("mark exists");
                assert_eq!(token, mark, "rewound to an unknown monitor mark");
                hist.truncate_to(hist_mark);
            }
        }
    }
}
