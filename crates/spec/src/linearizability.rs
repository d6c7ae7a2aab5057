//! A Wing–Gong style linearizability checker.
//!
//! §3 of the paper requires that the sequence of invocations and commits of
//! an algorithm, ordered by real time, is linearizable; Theorem 3 shows the
//! same for the invoke/commit projection of safely composable traces. This
//! module provides the checker used by the test-suites and the experiment
//! harness to validate recorded traces against a [`SequentialSpec`].
//!
//! The checker performs a depth-first search over candidate linearization
//! orders with memoisation on (set of linearized operations, object state),
//! following Wing & Gong's algorithm. Completed operations must appear in the
//! witness with exactly the response they returned; operations that are still
//! pending (invoked but not yet responded — e.g. crashed or aborted
//! operations) may either be dropped or linearized with an arbitrary
//! response, as usual for linearizability.

use crate::history::Request;
use crate::ids::RequestId;
use crate::seqspec::SequentialSpec;
use std::collections::{HashMap, HashSet};

/// A completed operation of a concurrent history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedOp<S: SequentialSpec> {
    /// The request.
    pub req: Request<S>,
    /// Real-time index of the invocation event.
    pub invoke_at: usize,
    /// Real-time index of the response event.
    pub respond_at: usize,
    /// The observed response.
    pub resp: S::Resp,
}

/// A pending (incomplete) operation: invoked, never responded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingOp<S: SequentialSpec> {
    /// The request.
    pub req: Request<S>,
    /// Real-time index of the invocation event.
    pub invoke_at: usize,
    /// Real-time index of the crash that orphaned this operation, if its
    /// process crashed while the operation was in flight. Ignored by plain
    /// linearizability; [`check_strict_linearizable`] only lets the
    /// operation take effect before this point.
    pub crashed_at: Option<usize>,
    /// Whether the operation is *required* to take effect (see
    /// [`ConcurrentHistory::record_crash_required`]): its owner's recovery
    /// completed without resolving it, so under the recoverable closure it
    /// must be linearized (with some response) rather than dropped. Ignored
    /// by plain linearizability.
    pub required: bool,
}

/// One tracked operation of a [`ConcurrentHistory`].
#[derive(Debug, Clone)]
struct TrackedOp<S: SequentialSpec> {
    req: Request<S>,
    invoke_at: usize,
    completion: Option<(usize, S::Resp)>,
    crashed_at: Option<usize>,
    required: bool,
}

/// A point-in-time position of a [`ConcurrentHistory`], produced by
/// [`ConcurrentHistory::mark`] and consumed by
/// [`ConcurrentHistory::truncate_to`]. Marks are high-water levels of the
/// append-only internal logs, so truncation is `O(events recorded after the
/// mark)` and reuses every allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryMark {
    ops_len: usize,
    completions_len: usize,
    crashes_len: usize,
}

/// A concurrent history: completed and pending operations with real-time
/// invocation/response indices.
///
/// The history is an *undoable recorder*: invocations append to a flat
/// operation table and responses append to a completion log, so
/// [`Self::mark`] / [`Self::truncate_to`] can rewind the history to an
/// earlier point (the schedule explorer's prefix-resume checkpoints) and
/// [`Self::clear`] can reuse one history across many executions without
/// reallocating. This is the shared recording helper used by the simulator
/// bridge in `scl-check` and by the real-atomics linearizability tests in
/// `scl-runtime`.
#[derive(Debug, Clone)]
pub struct ConcurrentHistory<S: SequentialSpec> {
    ops: Vec<TrackedOp<S>>,
    index: HashMap<RequestId, usize>,
    /// Indices into `ops`, in completion order (the undo log for responses).
    completions: Vec<usize>,
    /// Indices into `ops`, in crash order (the undo log for crashes).
    crashes: Vec<usize>,
}

impl<S: SequentialSpec> Default for ConcurrentHistory<S> {
    fn default() -> Self {
        ConcurrentHistory {
            ops: Vec::new(),
            index: HashMap::new(),
            completions: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

impl<S: SequentialSpec> ConcurrentHistory<S> {
    /// An empty concurrent history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an invocation at real-time index `at`. Request ids must be
    /// unique within a recording; re-invoking an id that is already present
    /// is ignored (an in-place overwrite could not be undone by
    /// [`Self::truncate_to`], so first invocation wins).
    pub fn record_invoke(&mut self, at: usize, req: Request<S>) {
        if self.index.contains_key(&req.id) {
            return;
        }
        self.index.insert(req.id, self.ops.len());
        self.ops.push(TrackedOp {
            req,
            invoke_at: at,
            completion: None,
            crashed_at: None,
            required: false,
        });
    }

    /// Records a response at real-time index `at` for a previously recorded
    /// invocation. Responses without a matching invocation, and second
    /// responses to the same request, are ignored.
    pub fn record_response(&mut self, at: usize, id: RequestId, resp: S::Resp) {
        if let Some(&slot) = self.index.get(&id) {
            if self.ops[slot].completion.is_none() {
                self.ops[slot].completion = Some((at, resp));
                self.completions.push(slot);
            }
        }
    }

    /// Records that the process of the (pending) operation `id` crashed at
    /// real-time index `at`: the operation is orphaned — it will never
    /// respond, and under *strict* linearizability it may only take effect
    /// before `at`. Crashes of unknown, completed or already-crashed
    /// requests are ignored.
    pub fn record_crash(&mut self, at: usize, id: RequestId) {
        if let Some(&slot) = self.index.get(&id) {
            let op = &mut self.ops[slot];
            if op.completion.is_none() && op.crashed_at.is_none() {
                op.crashed_at = Some(at);
                self.crashes.push(slot);
            }
        }
    }

    /// Records that the process of the (pending) operation `id` completed
    /// its recovery at real-time index `at` without resolving the operation:
    /// under the *recoverable* closure the operation must take effect — and
    /// no later than `at`. It gets the same deadline as
    /// [`Self::record_crash`] (it may only linearize before anything invoked
    /// after `at`) plus the obligation to be linearized rather than dropped;
    /// [`check_strict_linearizable`] enforces both. Events for unknown,
    /// completed or already-crashed requests are ignored.
    pub fn record_crash_required(&mut self, at: usize, id: RequestId) {
        if let Some(&slot) = self.index.get(&id) {
            let op = &mut self.ops[slot];
            if op.completion.is_none() && op.crashed_at.is_none() {
                op.crashed_at = Some(at);
                op.required = true;
                self.crashes.push(slot);
            }
        }
    }

    /// Number of crashed-pending operations currently recorded.
    pub fn crashed_count(&self) -> usize {
        self.crashes.len()
    }

    /// Records a complete (invoked *and* responded) operation in one call —
    /// the recording helper for harnesses that observe whole operations with
    /// explicit timestamps, such as the real-atomics tests in `scl-runtime`
    /// (which stamp invocations and responses with a shared ticket clock).
    pub fn record_completed_op(
        &mut self,
        req: Request<S>,
        invoke_at: usize,
        respond_at: usize,
        resp: S::Resp,
    ) {
        let id = req.id;
        self.record_invoke(invoke_at, req);
        self.record_response(respond_at, id, resp);
    }

    /// The completed operations, in completion order.
    pub fn completed(&self) -> Vec<CompletedOp<S>> {
        self.completions
            .iter()
            .map(|&slot| {
                let op = &self.ops[slot];
                let (respond_at, resp) = op.completion.clone().expect("logged completion");
                CompletedOp {
                    req: op.req.clone(),
                    invoke_at: op.invoke_at,
                    respond_at,
                    resp,
                }
            })
            .collect()
    }

    /// The pending operations (invoked, never responded), in invocation
    /// order.
    pub fn pending(&self) -> Vec<PendingOp<S>> {
        let mut pending: Vec<PendingOp<S>> = self
            .ops
            .iter()
            .filter(|op| op.completion.is_none())
            .map(|op| PendingOp {
                req: op.req.clone(),
                invoke_at: op.invoke_at,
                crashed_at: op.crashed_at,
                required: op.required,
            })
            .collect();
        pending.sort_by_key(|p| p.invoke_at);
        pending
    }

    /// Total number of operations (completed + pending).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history has no operations at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of recorded events (invocations plus responses). Also a dense
    /// real-time index for recorders that stamp events with
    /// `history.event_count()` as they observe them.
    pub fn event_count(&self) -> usize {
        self.ops.len() + self.completions.len()
    }

    /// Removes every operation while keeping the allocations, so one history
    /// buffer can be reused across many executions.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.index.clear();
        self.completions.clear();
        self.crashes.clear();
    }

    /// The current position, for a later [`Self::truncate_to`].
    pub fn mark(&self) -> HistoryMark {
        HistoryMark {
            ops_len: self.ops.len(),
            completions_len: self.completions.len(),
            crashes_len: self.crashes.len(),
        }
    }

    /// Rewinds the history to an earlier [`Self::mark`] of the same
    /// recording: invocations recorded after the mark are removed, responses
    /// recorded after the mark are reopened. The mark stays valid for
    /// further truncations.
    pub fn truncate_to(&mut self, mark: HistoryMark) {
        while self.completions.len() > mark.completions_len {
            let slot = self.completions.pop().expect("len checked above");
            self.ops[slot].completion = None;
        }
        while self.crashes.len() > mark.crashes_len {
            let slot = self.crashes.pop().expect("len checked above");
            self.ops[slot].crashed_at = None;
            self.ops[slot].required = false;
        }
        while self.ops.len() > mark.ops_len {
            let op = self.ops.pop().expect("len checked above");
            debug_assert!(
                op.completion.is_none() && op.crashed_at.is_none(),
                "completion/crash logs rewound above removed their entries first"
            );
            self.index.remove(&op.req.id);
        }
    }
}

/// Result of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinCheckResult {
    /// The history is linearizable; the witness lists the request ids of the
    /// linearization order (completed operations plus any pending operations
    /// the checker chose to take effect).
    Linearizable(Vec<RequestId>),
    /// No linearization order exists.
    NotLinearizable,
    /// The history exceeds the checker's size limit (128 operations).
    TooLarge,
}

impl LinCheckResult {
    /// `true` iff the result is [`LinCheckResult::Linearizable`].
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinCheckResult::Linearizable(_))
    }
}

#[derive(Clone)]
struct OpEntry<S: SequentialSpec> {
    req: Request<S>,
    invoke_at: usize,
    /// `Some((respond_at, resp))` for completed ops, `None` for pending ops.
    completion: Option<(usize, S::Resp)>,
    /// Real-time index of the crash that orphaned a pending op, if any.
    /// Consulted only by the strict checker.
    crashed_at: Option<usize>,
    /// Whether the pending op must be linearized rather than dropped (the
    /// recoverable closure). Consulted only by the strict checker.
    required: bool,
}

/// Work accounting of one [`check_linearizable_with_stats`] call: how many
/// checker states (nodes of the memoised Wing–Gong search) were expanded.
/// Quantifies what the incremental checker saves over re-running this search
/// from scratch for every explored schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinCheckStats {
    /// Search nodes visited (including memoisation hits, which still cost a
    /// hash probe).
    pub states: u64,
}

/// Checks whether a concurrent history is linearizable with respect to a
/// sequential specification.
///
/// The search is exponential in the worst case but memoised; histories of up
/// to 128 operations are supported (larger histories return
/// [`LinCheckResult::TooLarge`]). The test-suites only check histories far
/// below this bound.
pub fn check_linearizable<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory<S>,
) -> LinCheckResult {
    check_linearizable_with_stats(spec, history).0
}

/// Like [`check_linearizable`], additionally reporting how many checker
/// states the search expanded.
pub fn check_linearizable_with_stats<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory<S>,
) -> (LinCheckResult, LinCheckStats) {
    check_linearizable_impl(spec, history, false)
}

/// Checks whether a concurrent history is *strictly* linearizable: like
/// [`check_linearizable`], except that a pending operation whose process
/// crashed (see [`ConcurrentHistory::record_crash`]) may only take effect
/// before its crash point — it must linearize before every operation invoked
/// after the crash, or be dropped. Histories without recorded crashes get
/// the plain verdict.
pub fn check_strict_linearizable<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory<S>,
) -> LinCheckResult {
    check_strict_linearizable_with_stats(spec, history).0
}

/// Like [`check_strict_linearizable`], additionally reporting how many
/// checker states the search expanded.
pub fn check_strict_linearizable_with_stats<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory<S>,
) -> (LinCheckResult, LinCheckStats) {
    check_linearizable_impl(spec, history, true)
}

fn check_linearizable_impl<S: SequentialSpec>(
    spec: &S,
    history: &ConcurrentHistory<S>,
    strict: bool,
) -> (LinCheckResult, LinCheckStats) {
    let mut stats = LinCheckStats::default();
    let mut ops: Vec<OpEntry<S>> = history
        .completed()
        .into_iter()
        .map(|c| OpEntry {
            req: c.req,
            invoke_at: c.invoke_at,
            completion: Some((c.respond_at, c.resp)),
            crashed_at: None,
            required: false,
        })
        .collect();
    for p in history.pending() {
        ops.push(OpEntry {
            req: p.req,
            invoke_at: p.invoke_at,
            completion: None,
            crashed_at: if strict { p.crashed_at } else { None },
            required: strict && p.required,
        });
    }
    if ops.len() > 128 {
        return (LinCheckResult::TooLarge, stats);
    }
    let full_mask: u128 = if ops.len() == 128 {
        u128::MAX
    } else {
        (1u128 << ops.len()) - 1
    };
    // Required pending ops (recoverable closure) must be linearized like
    // completed ops — with any response instead of an observed one — so they
    // join the success mask.
    let completed_mask: u128 = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.completion.is_some() || o.required)
        .fold(0u128, |m, (i, _)| m | (1u128 << i));

    let mut seen: HashSet<(u128, S::State)> = HashSet::new();
    let mut witness: Vec<RequestId> = Vec::new();
    let any_crashed = ops.iter().any(|o| o.crashed_at.is_some());

    #[allow(clippy::too_many_arguments)]
    fn dfs<S: SequentialSpec>(
        spec: &S,
        ops: &[OpEntry<S>],
        done: u128,
        completed_mask: u128,
        any_crashed: bool,
        state: &S::State,
        seen: &mut HashSet<(u128, S::State)>,
        witness: &mut Vec<RequestId>,
        stats: &mut LinCheckStats,
    ) -> bool {
        stats.states += 1;
        // Success: all *completed* operations are linearized. Remaining
        // pending operations are simply dropped.
        if done & completed_mask == completed_mask {
            return true;
        }
        if !seen.insert((done, state.clone())) {
            return false;
        }
        // The earliest response index among unlinearized completed ops: any op
        // whose invocation is after that response cannot be linearized next.
        let min_resp = ops
            .iter()
            .enumerate()
            .filter(|(i, o)| done & (1u128 << i) == 0 && o.completion.is_some())
            .map(|(_, o)| o.completion.as_ref().unwrap().0)
            .min()
            .unwrap_or(usize::MAX);
        // The latest invocation among already-linearized ops: a crashed
        // pending op whose crash precedes it can no longer take effect (its
        // effective response is its crash point, so it must precede every op
        // invoked after the crash).
        let max_done_inv = if any_crashed {
            ops.iter()
                .enumerate()
                .filter(|(i, _)| done & (1u128 << i) != 0)
                .map(|(_, o)| o.invoke_at)
                .max()
        } else {
            None
        };
        for (i, op) in ops.iter().enumerate() {
            let bit = 1u128 << i;
            if done & bit != 0 {
                continue;
            }
            if op.invoke_at > min_resp {
                continue;
            }
            if let (Some(c), Some(m)) = (op.crashed_at, max_done_inv) {
                if m >= c {
                    continue;
                }
            }
            let (next_state, resp) = spec.apply(state, &op.req.op);
            if let Some((_, observed)) = &op.completion {
                if *observed != resp {
                    continue;
                }
            }
            witness.push(op.req.id);
            if dfs(
                spec,
                ops,
                done | bit,
                completed_mask,
                any_crashed,
                &next_state,
                seen,
                witness,
                stats,
            ) {
                return true;
            }
            witness.pop();
        }
        false
    }

    let init = spec.initial_state();
    let result = if dfs(
        spec,
        &ops,
        0,
        completed_mask,
        any_crashed,
        &init,
        &mut seen,
        &mut witness,
        &mut stats,
    ) {
        LinCheckResult::Linearizable(witness)
    } else {
        let _ = full_mask;
        LinCheckResult::NotLinearizable
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{RegisterOp, RegisterSpec, TasOp, TasResp, TasSpec};
    use crate::ProcessId;

    fn tas_req(id: u64, p: usize) -> Request<TasSpec> {
        Request::new(id, p, TasOp::TestAndSet)
    }

    #[test]
    fn sequential_tas_history_is_linearizable() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_response(1, RequestId(1), TasResp::Winner);
        h.record_invoke(2, tas_req(2, 1));
        h.record_response(3, RequestId(2), TasResp::Loser);
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn two_winners_is_not_linearizable() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(1), TasResp::Winner);
        h.record_response(3, RequestId(2), TasResp::Winner);
        assert_eq!(
            check_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn sequential_two_losers_is_not_linearizable() {
        // If the first completed op (in real time, non-overlapping) returns
        // Loser with nothing before it, the history cannot be linearized.
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_response(1, RequestId(1), TasResp::Loser);
        h.record_invoke(2, tas_req(2, 1));
        h.record_response(3, RequestId(2), TasResp::Winner);
        assert_eq!(
            check_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn concurrent_winner_loser_any_order_is_linearizable() {
        let spec = TasSpec;
        // Overlapping operations: loser responds before winner.
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(2), TasResp::Loser);
        h.record_response(3, RequestId(1), TasResp::Winner);
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn pending_op_can_take_effect() {
        // A pending (crashed) TAS op can explain why a later op lost.
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0)); // never responds
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(2), TasResp::Loser);
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn pending_op_can_be_dropped() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0)); // never responds
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(2), TasResp::Winner);
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn register_stale_read_is_not_linearizable() {
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(0, w);
        h.record_response(1, RequestId(1), 5);
        h.record_invoke(2, r);
        // Read returns 0 even though the write completed before it started.
        h.record_response(3, RequestId(2), 0);
        assert_eq!(
            check_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn register_concurrent_read_may_see_old_or_new() {
        let spec = RegisterSpec;
        for observed in [0u64, 5u64] {
            let mut h = ConcurrentHistory::new();
            let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
            let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
            h.record_invoke(0, w);
            h.record_invoke(1, r);
            h.record_response(2, RequestId(2), observed);
            h.record_response(3, RequestId(1), 5);
            assert!(
                check_linearizable(&spec, &h).is_linearizable(),
                "read observing {observed} should be linearizable"
            );
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let spec = TasSpec;
        let h = ConcurrentHistory::<TasSpec>::new();
        assert!(check_linearizable(&spec, &h).is_linearizable());
        assert!(h.is_empty());
    }

    #[test]
    fn witness_respects_real_time_order() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_response(1, RequestId(1), TasResp::Winner);
        h.record_invoke(2, tas_req(2, 1));
        h.record_response(3, RequestId(2), TasResp::Loser);
        match check_linearizable(&spec, &h) {
            LinCheckResult::Linearizable(w) => assert_eq!(w, vec![RequestId(1), RequestId(2)]),
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn pending_ops_listed_in_invoke_order() {
        let mut h = ConcurrentHistory::<TasSpec>::new();
        h.record_invoke(5, tas_req(2, 1));
        h.record_invoke(1, tas_req(1, 0));
        let pend = h.pending();
        assert_eq!(pend.len(), 2);
        assert_eq!(pend[0].req.id, RequestId(1));
        assert_eq!(pend[0].req.proc, ProcessId(0));
    }

    #[test]
    fn record_completed_op_matches_separate_calls() {
        let mut a = ConcurrentHistory::<TasSpec>::new();
        a.record_invoke(0, tas_req(1, 0));
        a.record_response(3, RequestId(1), TasResp::Winner);
        let mut b = ConcurrentHistory::<TasSpec>::new();
        b.record_completed_op(tas_req(1, 0), 0, 3, TasResp::Winner);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.event_count(), b.event_count());
        assert_eq!(
            check_linearizable(&TasSpec, &a),
            check_linearizable(&TasSpec, &b)
        );
    }

    #[test]
    fn truncate_to_rewinds_invocations_and_reopens_responses() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0));
        let mark = h.mark();
        // Suffix: r1 responds, r2 invoked and responds.
        h.record_response(1, RequestId(1), TasResp::Winner);
        h.record_invoke(2, tas_req(2, 1));
        h.record_response(3, RequestId(2), TasResp::Winner);
        assert_eq!(
            check_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );

        h.truncate_to(mark);
        assert_eq!(h.len(), 1);
        assert_eq!(h.completed().len(), 0);
        assert_eq!(h.pending().len(), 1);
        assert_eq!(h.event_count(), 1);

        // A different suffix replays cleanly over the truncated prefix.
        h.record_response(1, RequestId(1), TasResp::Winner);
        h.record_invoke(2, tas_req(2, 1));
        h.record_response(3, RequestId(2), TasResp::Loser);
        assert!(check_linearizable(&spec, &h).is_linearizable());

        // The mark stays valid for further truncations.
        h.truncate_to(mark);
        assert_eq!(h.len(), 1);
        assert!(h.completed().is_empty());
    }

    #[test]
    fn clear_reuses_the_history_buffer() {
        let mut h = ConcurrentHistory::<TasSpec>::new();
        h.record_completed_op(tas_req(1, 0), 0, 1, TasResp::Winner);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.event_count(), 0);
        h.record_completed_op(tas_req(1, 0), 0, 1, TasResp::Winner);
        h.record_completed_op(tas_req(2, 1), 2, 3, TasResp::Loser);
        assert!(check_linearizable(&TasSpec, &h).is_linearizable());
    }

    #[test]
    fn stats_count_search_states() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_completed_op(tas_req(1, 0), 0, 1, TasResp::Winner);
        h.record_completed_op(tas_req(2, 1), 2, 3, TasResp::Loser);
        let (result, stats) = check_linearizable_with_stats(&spec, &h);
        assert!(result.is_linearizable());
        // Root + one node per linearized op at minimum.
        assert!(stats.states >= 3);
    }

    /// The write-behind-register shape: W(5) crashes, then two reads both
    /// invoked after the crash return 0 then 5 — the crashed write would
    /// have to take effect *between* them.
    fn crashed_write_then_stale_fresh_reads() -> ConcurrentHistory<RegisterSpec> {
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        h.record_crash(1, RequestId(1));
        let r1: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r1);
        h.record_response(2, RequestId(2), 0);
        let r2: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        h.record_invoke(3, r2);
        h.record_response(4, RequestId(3), 5);
        h
    }

    #[test]
    fn strict_rejects_crashed_op_taking_effect_after_a_later_invocation() {
        let spec = RegisterSpec;
        let h = crashed_write_then_stale_fresh_reads();
        // Open closure: [R1(0), W(5), R2(5)] linearizes.
        assert!(check_linearizable(&spec, &h).is_linearizable());
        // Strict closure: W may only take effect before its crash point.
        assert_eq!(
            check_strict_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn strict_still_allows_crashed_op_before_or_dropped() {
        let spec = RegisterSpec;
        // Crashed W takes effect first: both later reads see 5.
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        h.record_crash(1, RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r);
        h.record_response(2, RequestId(2), 5);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());

        // Crashed W dropped: the later read sees the initial 0.
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        h.record_crash(1, RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r);
        h.record_response(2, RequestId(2), 0);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn strict_equals_open_on_crash_free_histories() {
        let spec = TasSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, tas_req(1, 0)); // stays pending, never crashed
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(2), TasResp::Loser);
        assert!(check_linearizable(&spec, &h).is_linearizable());
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }

    /// The recoverable-closure shape: W(5) is interrupted, its owner's
    /// recovery completes at `at` without resolving it (the op is
    /// *required*), then a read invoked after the recovery observes `sees`.
    fn required_write_then_read(sees: u64) -> ConcurrentHistory<RegisterSpec> {
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        h.record_crash_required(1, RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(2, r);
        h.record_response(3, RequestId(2), sees);
        h
    }

    #[test]
    fn required_op_must_take_effect_before_its_deadline() {
        let spec = RegisterSpec;
        // The read invoked after the recovery completed sees 0: the required
        // W(5) can neither be dropped (recoverability forces it into the
        // witness) nor ordered after the read (its deadline is the recovery
        // completion). Not recoverable — but fine under the open closure,
        // which simply drops the pending write.
        let h = required_write_then_read(0);
        assert!(check_linearizable(&spec, &h).is_linearizable());
        assert_eq!(
            check_strict_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
        // The read seeing 5 is exactly the required order: recoverable.
        let h = required_write_then_read(5);
        match check_strict_linearizable(&spec, &h) {
            LinCheckResult::Linearizable(w) => {
                assert!(w.contains(&RequestId(1)), "required op is in the witness")
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn required_differs_from_plain_crash_on_the_same_events() {
        // Same events, but the write is recorded with `record_crash` (the
        // durable closure records interrupted ops this way): dropping it is
        // allowed, so the 0-read linearizes. This is the durable/recoverable
        // separation at the checker level.
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        h.record_crash(1, RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(2, r);
        h.record_response(3, RequestId(2), 0);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn required_op_may_be_ordered_among_earlier_invocations() {
        // A read invoked *before* the recovery completed may be ordered
        // before the required write: 0-then-obligation is recoverable.
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r);
        h.record_crash_required(2, RequestId(1));
        h.record_response(3, RequestId(2), 0);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn truncate_to_reopens_required_ops() {
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        let mark = h.mark();

        h.record_crash_required(1, RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(2, r);
        h.record_response(3, RequestId(2), 0);
        assert_eq!(
            check_strict_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );

        // Rewinding past the recovery event clears the obligation: the same
        // suffix is strictly linearizable again (W is merely pending).
        h.truncate_to(mark);
        assert_eq!(h.crashed_count(), 0);
        assert!(!h.pending().iter().any(|p| p.required));
        let r: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        h.record_invoke(2, r);
        h.record_response(3, RequestId(3), 0);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn truncate_to_reopens_crashes() {
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        h.record_invoke(0, w);
        let mark = h.mark();

        // Crashy suffix: strictly not linearizable.
        h.record_crash(1, RequestId(1));
        let r1: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r1);
        h.record_response(2, RequestId(2), 0);
        let r2: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        h.record_invoke(3, r2);
        h.record_response(4, RequestId(3), 5);
        assert_eq!(h.crashed_count(), 1);
        assert_eq!(
            check_strict_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );

        // Rewinding past the crash reopens the op: a crash-free suffix over
        // the same prefix is strictly linearizable again.
        h.truncate_to(mark);
        assert_eq!(h.crashed_count(), 0);
        let r: Request<RegisterSpec> = Request::new(4u64, 1usize, RegisterOp::Read);
        h.record_invoke(1, r);
        h.record_response(2, RequestId(4), 5);
        assert!(check_strict_linearizable(&spec, &h).is_linearizable());
    }
}
