//! A Wing–Gong style linearizability checker.
//!
//! §3 of the paper requires that the sequence of invocations and commits of
//! an algorithm, ordered by real time, is linearizable; Theorem 3 shows the
//! same for the invoke/commit projection of safely composable traces. This
//! module provides the checker used by the test-suites and the experiment
//! harness to validate recorded traces against a [`SequentialSpec`].
//!
//! The checker is a pure function of a finished [`ConcurrentHistory`]. It
//! performs a depth-first search over candidate linearization orders with
//! memoisation on (set of linearized operations, object state), following
//! Wing & Gong's algorithm. Completed operations must appear in the witness
//! with exactly the response they returned; operations that are still
//! pending (invoked but not yet responded — e.g. crashed or aborted
//! operations) may either be dropped or linearized with an arbitrary
//! response, as usual for linearizability. A history that records a crash
//! gate or a requirement for a pending operation
//! ([`ConcurrentHistory::record_crash`],
//! [`ConcurrentHistory::record_crash_required`]) is checked under it: that
//! is how the strict, durable and recoverable closures reach the search. A
//! history that records none gets the plain verdict.

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
    /// process crashed while the operation was in flight: the operation may
    /// only take effect before this point.
    pub crashed_at: Option<usize>,
    /// Whether the operation is *required* to take effect (see
    /// [`ConcurrentHistory::record_crash_required`]): its owner's recovery
    /// completed without resolving it, so under the recoverable closure it
    /// must be linearized (with some response) rather than dropped.
    pub required: bool,
}

/// One operation of a [`ConcurrentHistory`].
#[derive(Debug, Clone)]
struct TrackedOp<S: SequentialSpec> {
    req: Request<S>,
    invoke_at: usize,
    /// `Some((respond_at, resp))` once the operation responded.
    completion: Option<(usize, S::Resp)>,
    /// The crash gate of a pending operation.
    crashed_at: Option<usize>,
    /// Whether the pending operation must be linearized rather than dropped.
    required: bool,
}

/// A concurrent history: completed and pending operations with real-time
/// invocation/response indices. Recorders fill it in; the checker reads the
/// finished history.
#[derive(Debug, Clone)]
pub struct ConcurrentHistory<S: SequentialSpec> {
    ops: Vec<TrackedOp<S>>,
    index: HashMap<RequestId, usize>,
}

impl<S: SequentialSpec> Default for ConcurrentHistory<S> {
    fn default() -> Self {
        ConcurrentHistory {
            ops: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl<S: SequentialSpec> ConcurrentHistory<S> {
    /// An empty concurrent history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an invocation at real-time index `at`. Request ids must be
    /// unique within a history; re-invoking an id that is already present
    /// is ignored (first invocation wins).
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
    /// responses to the same request, are ignored. A response dissolves a
    /// crash gate recorded before it: the operation committed after all
    /// (a recovery that resolves it).
    pub fn record_response(&mut self, at: usize, id: RequestId, resp: S::Resp) {
        if let Some(op) = self.pending_op(id) {
            op.completion = Some((at, resp));
            op.crashed_at = None;
            op.required = false;
        }
    }

    /// Records that the process of the (pending) operation `id` crashed at
    /// real-time index `at`: the operation is orphaned — it will never
    /// respond, and it may only take effect before `at` (the strict
    /// closure's crash gate; the durable closure records its recovery
    /// deadline this way too). Crashes of unknown, completed or
    /// already-crashed requests are ignored.
    pub fn record_crash(&mut self, at: usize, id: RequestId) {
        if let Some(op) = self.pending_op(id).filter(|op| op.crashed_at.is_none()) {
            op.crashed_at = Some(at);
        }
    }

    /// Records that the process of the (pending) operation `id` completed
    /// its recovery at real-time index `at` without resolving the operation:
    /// under the *recoverable* closure the operation must take effect — and
    /// no later than `at`. It gets the same deadline as
    /// [`Self::record_crash`] (it may only linearize before anything invoked
    /// after `at`) plus the obligation to be linearized rather than dropped.
    /// Events for unknown, completed or already-crashed requests are
    /// ignored.
    pub fn record_crash_required(&mut self, at: usize, id: RequestId) {
        if let Some(op) = self.pending_op(id).filter(|op| op.crashed_at.is_none()) {
            op.crashed_at = Some(at);
            op.required = true;
        }
    }

    /// The recorded operation `id`, if it has not responded.
    fn pending_op(&mut self, id: RequestId) -> Option<&mut TrackedOp<S>> {
        let &slot = self.index.get(&id)?;
        Some(&mut self.ops[slot]).filter(|op| op.completion.is_none())
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

    /// The completed operations, in response order.
    pub fn completed(&self) -> Vec<CompletedOp<S>> {
        let mut completed: Vec<CompletedOp<S>> = self
            .ops
            .iter()
            .filter_map(|op| {
                let (respond_at, resp) = op.completion.clone()?;
                Some(CompletedOp {
                    req: op.req.clone(),
                    invoke_at: op.invoke_at,
                    respond_at,
                    resp,
                })
            })
            .collect();
        completed.sort_by_key(|c| c.respond_at);
        completed
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
/// sequential specification, under the crash gates and requirements it
/// records: a pending operation with a crash gate may only take effect
/// before it (it must linearize before every operation invoked after the
/// gate, or be dropped), and a required one may not be dropped.
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
    let mut stats = LinCheckStats::default();
    if history.ops.len() > 128 {
        return (LinCheckResult::TooLarge, stats);
    }
    // The order the search tries operations in: completed ones by response,
    // then pending ones by invocation.
    let mut ops: Vec<&TrackedOp<S>> = history.ops.iter().collect();
    ops.sort_by_key(|o| match &o.completion {
        Some((respond_at, _)) => (false, *respond_at),
        None => (true, o.invoke_at),
    });
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
        ops: &[&TrackedOp<S>],
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
            .filter(|(i, _)| done & (1u128 << i) == 0)
            .filter_map(|(_, o)| o.completion.as_ref().map(|(at, _)| *at))
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
        assert_eq!(a.len(), b.len());
        assert_eq!(
            check_linearizable(&TasSpec, &a),
            check_linearizable(&TasSpec, &b)
        );
    }

    #[test]
    fn completed_ops_listed_in_response_order() {
        // Responses recorded out of invocation order.
        let mut h = ConcurrentHistory::<TasSpec>::new();
        h.record_invoke(0, tas_req(1, 0));
        h.record_invoke(1, tas_req(2, 1));
        h.record_response(2, RequestId(2), TasResp::Loser);
        h.record_response(3, RequestId(1), TasResp::Winner);
        let ids: Vec<RequestId> = h.completed().iter().map(|c| c.req.id).collect();
        assert_eq!(ids, [RequestId(2), RequestId(1)]);
        // Whole operations recorded out of response order.
        let mut h = ConcurrentHistory::<TasSpec>::new();
        h.record_completed_op(tas_req(1, 0), 0, 5, TasResp::Winner);
        h.record_completed_op(tas_req(2, 1), 1, 3, TasResp::Loser);
        let at: Vec<usize> = h.completed().iter().map(|c| c.respond_at).collect();
        assert_eq!(at, [3, 5]);
        assert_eq!(h.completed()[0].req.id, RequestId(2));
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

    fn write(id: u64, p: usize, v: u64) -> Request<RegisterSpec> {
        Request::new(id, p, RegisterOp::Write(v))
    }

    fn read(id: u64, p: usize) -> Request<RegisterSpec> {
        Request::new(id, p, RegisterOp::Read)
    }

    #[test]
    fn check_linearizable_honours_a_recorded_crash_gate() {
        // W(5) crashes; then, all invoked after the crash, a read sees 0,
        // W(7) completes and a read sees 5: W(5) would have to take effect
        // after W(7), past its crash gate.
        let history = |gated: bool| {
            let mut h = ConcurrentHistory::new();
            h.record_invoke(0, write(1, 0, 5));
            if gated {
                h.record_crash(1, RequestId(1));
            }
            h.record_invoke(1, read(2, 1));
            h.record_response(2, RequestId(2), 0);
            h.record_invoke(3, write(3, 1, 7));
            h.record_response(4, RequestId(3), 7);
            h.record_invoke(5, read(4, 1));
            h.record_response(6, RequestId(4), 5);
            h
        };
        // Without the record: [R(0), W(7), W(5), R(5)] linearizes.
        assert!(check_linearizable(&RegisterSpec, &history(false)).is_linearizable());
        assert_eq!(
            check_linearizable(&RegisterSpec, &history(true)),
            LinCheckResult::NotLinearizable
        );
    }

    /// The write-behind-register shape: W(5) is pending (crashed at 1 when
    /// `crashed`), then two reads both invoked after the crash return 0 then
    /// 5 — the write would have to take effect *between* them.
    fn crashed_write_then_stale_fresh_reads(crashed: bool) -> ConcurrentHistory<RegisterSpec> {
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, write(1, 0, 5));
        if crashed {
            h.record_crash(1, RequestId(1));
        }
        h.record_invoke(1, read(2, 1));
        h.record_response(2, RequestId(2), 0);
        h.record_invoke(3, read(3, 1));
        h.record_response(4, RequestId(3), 5);
        h
    }

    #[test]
    fn strict_rejects_crashed_op_taking_effect_after_a_later_invocation() {
        let spec = RegisterSpec;
        // No crash recorded (the open closure): [R1(0), W(5), R2(5)].
        let h = crashed_write_then_stale_fresh_reads(false);
        assert!(check_linearizable(&spec, &h).is_linearizable());
        // The crash gate (the strict closure): W may only take effect
        // before its crash point.
        let h = crashed_write_then_stale_fresh_reads(true);
        assert_eq!(
            check_linearizable(&spec, &h),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn strict_still_allows_crashed_op_before_or_dropped() {
        let spec = RegisterSpec;
        // Crashed W takes effect first (the read sees 5), or is dropped
        // (the read sees the initial 0): linearizable with or without the
        // crash record.
        for sees in [5u64, 0] {
            for crashed in [false, true] {
                let mut h = ConcurrentHistory::new();
                h.record_invoke(0, write(1, 0, 5));
                if crashed {
                    h.record_crash(1, RequestId(1));
                }
                h.record_invoke(1, read(2, 1));
                h.record_response(2, RequestId(2), sees);
                assert!(
                    check_linearizable(&spec, &h).is_linearizable(),
                    "sees={sees} crashed={crashed}"
                );
            }
        }
    }

    #[test]
    fn strict_equals_open_on_crash_free_histories() {
        // A pending op whose crash gate follows every invocation is as free
        // as one with no gate: it may still take effect anywhere.
        let spec = TasSpec;
        for crashed in [false, true] {
            let mut h = ConcurrentHistory::new();
            h.record_invoke(0, tas_req(1, 0)); // stays pending
            h.record_invoke(1, tas_req(2, 1));
            h.record_response(2, RequestId(2), TasResp::Loser);
            if crashed {
                h.record_crash(3, RequestId(1));
            }
            assert!(
                check_linearizable(&spec, &h).is_linearizable(),
                "crashed={crashed}"
            );
        }
    }

    /// The recoverable-closure shape: W(5) is interrupted, its owner's
    /// recovery completes at 1 without resolving it (the op is *required*
    /// when `required`, else merely pending), then a read invoked after the
    /// recovery observes `sees`.
    fn required_write_then_read(sees: u64, required: bool) -> ConcurrentHistory<RegisterSpec> {
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, write(1, 0, 5));
        if required {
            h.record_crash_required(1, RequestId(1));
        }
        h.record_invoke(2, read(2, 1));
        h.record_response(3, RequestId(2), sees);
        h
    }

    #[test]
    fn required_op_must_take_effect_before_its_deadline() {
        let spec = RegisterSpec;
        // The read invoked after the recovery completed sees 0: the required
        // W(5) can neither be dropped (recoverability forces it into the
        // witness) nor ordered after the read (its deadline is the recovery
        // completion). Not recoverable — but fine without the record (the
        // open closure), which simply drops the pending write.
        assert!(check_linearizable(&spec, &required_write_then_read(0, false)).is_linearizable());
        assert_eq!(
            check_linearizable(&spec, &required_write_then_read(0, true)),
            LinCheckResult::NotLinearizable
        );
        // The read seeing 5 is exactly the required order: recoverable.
        match check_linearizable(&spec, &required_write_then_read(5, true)) {
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
        h.record_invoke(0, write(1, 0, 5));
        h.record_crash(1, RequestId(1));
        h.record_invoke(2, read(2, 1));
        h.record_response(3, RequestId(2), 0);
        assert!(check_linearizable(&spec, &h).is_linearizable());
        assert_eq!(
            check_linearizable(&spec, &required_write_then_read(0, true)),
            LinCheckResult::NotLinearizable
        );
    }

    #[test]
    fn required_op_may_be_ordered_among_earlier_invocations() {
        // A read invoked *before* the recovery completed may be ordered
        // before the required write: 0-then-obligation is recoverable.
        let spec = RegisterSpec;
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, write(1, 0, 5));
        h.record_invoke(1, read(2, 1));
        h.record_crash_required(2, RequestId(1));
        h.record_response(3, RequestId(2), 0);
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn a_response_dissolves_a_recorded_crash_gate() {
        // A recovery that resolves the crashed W(5) commits it late: the
        // committed op is ordered by its response, not by the gate.
        let mut h = ConcurrentHistory::new();
        h.record_invoke(0, write(1, 0, 5));
        h.record_crash(1, RequestId(1));
        h.record_invoke(1, read(2, 1));
        h.record_response(2, RequestId(2), 0);
        h.record_response(3, RequestId(1), 5);
        assert!(h.pending().is_empty());
        assert!(check_linearizable(&RegisterSpec, &h).is_linearizable());
    }
}
