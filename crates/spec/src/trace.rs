//! Traces: the real-time-ordered sequences of invocation, init, commit and
//! abort events observed in an execution (§3, §5.1).
//!
//! A trace is produced by an executor (the simulator in `scl-sim` builds it
//! from its operation records, or a test harness wrapping real threads in
//! `scl-runtime` records it) and consumed by the checkers in this crate: well-formedness, linearizability of the
//! invoke/commit projection (Theorem 3), and the Definition 2 search for a
//! valid interpretation.

use crate::history::Request;
use crate::ids::{ProcessId, RequestId};
use crate::seqspec::SequentialSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;

/// One event of a trace.
///
/// The type parameter `V` is the set of switch values of the composition
/// framework (§5.1); for the speculative test-and-set it is
/// [`crate::objects::TasSwitch`], for the universal construction it is a
/// [`crate::History`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<S: SequentialSpec, V> {
    /// `(invoke, m)`: a process invokes request `m` with no switch value.
    Invoke {
        /// The invoked request.
        req: Request<S>,
    },
    /// `(init, m, v)`: a process invokes request `m` together with a proposed
    /// switch value `v` used to initialise the current module.
    Init {
        /// The invoked request.
        req: Request<S>,
        /// The switch value carried by the invocation.
        switch: V,
    },
    /// `(commit, m, r)`: the request identified by `req_id` commits with
    /// response `r`.
    Commit {
        /// The responding process.
        proc: ProcessId,
        /// The request being responded to.
        req_id: RequestId,
        /// The committed response.
        resp: S::Resp,
    },
    /// `(abort, m, v)`: the request identified by `req_id` aborts with switch
    /// value `v`, to be used to initialise the next module.
    Abort {
        /// The responding process.
        proc: ProcessId,
        /// The request being responded to.
        req_id: RequestId,
        /// The switch value reported by the abort.
        switch: V,
    },
}

impl<S: SequentialSpec, V> Event<S, V> {
    /// The process the event belongs to.
    pub fn proc(&self) -> ProcessId {
        match self {
            Event::Invoke { req } | Event::Init { req, .. } => req.proc,
            Event::Commit { proc, .. } | Event::Abort { proc, .. } => *proc,
        }
    }

    /// The request id the event refers to.
    pub fn req_id(&self) -> RequestId {
        match self {
            Event::Invoke { req } | Event::Init { req, .. } => req.id,
            Event::Commit { req_id, .. } | Event::Abort { req_id, .. } => *req_id,
        }
    }

    /// Whether this is an invocation event (invoke or init).
    pub fn is_invocation(&self) -> bool {
        matches!(self, Event::Invoke { .. } | Event::Init { .. })
    }

    /// Whether this is a response event (commit or abort).
    pub fn is_response(&self) -> bool {
        matches!(self, Event::Commit { .. } | Event::Abort { .. })
    }
}

/// Errors detected by [`Trace::check_well_formed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormednessError {
    /// A response appears for a request that was never invoked.
    ResponseWithoutInvocation(RequestId),
    /// A process has two outstanding invocations at once.
    OverlappingInvocations(ProcessId),
    /// A response is issued by a different process than the invoker.
    WrongProcess(RequestId),
    /// The same request id is invoked twice.
    DuplicateInvocation(RequestId),
    /// The same request receives two responses.
    DuplicateResponse(RequestId),
}

impl std::fmt::Display for WellFormednessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WellFormednessError::ResponseWithoutInvocation(r) => {
                write!(f, "response for {r} without a matching invocation")
            }
            WellFormednessError::OverlappingInvocations(p) => {
                write!(f, "process {p} has two outstanding invocations")
            }
            WellFormednessError::WrongProcess(r) => {
                write!(
                    f,
                    "response for {r} issued by a process that did not invoke it"
                )
            }
            WellFormednessError::DuplicateInvocation(r) => write!(f, "request {r} invoked twice"),
            WellFormednessError::DuplicateResponse(r) => {
                write!(f, "request {r} received two responses")
            }
        }
    }
}

impl std::error::Error for WellFormednessError {}

/// A trace: events in real-time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<S: SequentialSpec, V> {
    events: Vec<Event<S, V>>,
}

impl<S: SequentialSpec, V> Default for Trace<S, V> {
    fn default() -> Self {
        Trace { events: Vec::new() }
    }
}

impl<S: SequentialSpec, V: Clone + Eq + Hash + Debug> Trace<S, V> {
    /// The empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event<S, V>) {
        self.events.push(event);
    }

    /// The events in real-time order.
    pub fn events(&self) -> &[Event<S, V>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records an `Invoke` event.
    pub fn record_invoke(&mut self, req: Request<S>) {
        self.push(Event::Invoke { req });
    }

    /// Records an `Init` event.
    pub fn record_init(&mut self, req: Request<S>, switch: V) {
        self.push(Event::Init { req, switch });
    }

    /// Records a `Commit` event.
    pub fn record_commit(&mut self, proc: ProcessId, req_id: RequestId, resp: S::Resp) {
        self.push(Event::Commit { proc, req_id, resp });
    }

    /// Records an `Abort` event.
    pub fn record_abort(&mut self, proc: ProcessId, req_id: RequestId, switch: V) {
        self.push(Event::Abort {
            proc,
            req_id,
            switch,
        });
    }

    /// The request carried by the invocation (invoke or init) of `id`, if any.
    pub fn request(&self, id: RequestId) -> Option<&Request<S>> {
        self.events.iter().find_map(|e| match e {
            Event::Invoke { req } | Event::Init { req, .. } if req.id == id => Some(req),
            _ => None,
        })
    }

    /// All requests that were invoked (via invoke or init), in invocation
    /// order.
    pub fn invoked_requests(&self) -> Vec<Request<S>> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Invoke { req } | Event::Init { req, .. } => Some(req.clone()),
                _ => None,
            })
            .collect()
    }

    /// `aborts(τ)`: the switch tokens found in the abort replies, i.e. pairs
    /// of (request, switch value).
    pub fn abort_tokens(&self) -> Vec<(Request<S>, V)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Abort { req_id, switch, .. } => {
                    self.request(*req_id).map(|r| (r.clone(), switch.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// `inits(τ)`: the switch tokens found in the init invocations.
    pub fn init_tokens(&self) -> Vec<(Request<S>, V)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Init { req, switch } => Some((req.clone(), switch.clone())),
                _ => None,
            })
            .collect()
    }

    /// Committed requests with their responses, in commit (real-time) order.
    pub fn commits(&self) -> Vec<(Request<S>, S::Resp)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Commit { req_id, resp, .. } => {
                    self.request(*req_id).map(|r| (r.clone(), resp.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Ids of requests that were invoked but received no response (pending /
    /// crashed operations).
    pub fn pending(&self) -> Vec<RequestId> {
        let responded: BTreeSet<RequestId> = self
            .events
            .iter()
            .filter(|e| e.is_response())
            .map(|e| e.req_id())
            .collect();
        self.events
            .iter()
            .filter(|e| e.is_invocation())
            .map(|e| e.req_id())
            .filter(|id| !responded.contains(id))
            .collect()
    }

    /// Index (position in the event sequence) of the invocation of `id`.
    pub fn invocation_index(&self, id: RequestId) -> Option<usize> {
        self.events
            .iter()
            .position(|e| e.is_invocation() && e.req_id() == id)
    }

    /// Index of the response (commit or abort) of `id`.
    pub fn response_index(&self, id: RequestId) -> Option<usize> {
        self.events
            .iter()
            .position(|e| e.is_response() && e.req_id() == id)
    }

    /// Real-time precedence: `a` precedes `b` iff `a`'s response appears
    /// before `b`'s invocation.
    pub fn precedes(&self, a: RequestId, b: RequestId) -> bool {
        match (self.response_index(a), self.invocation_index(b)) {
            (Some(ra), Some(ib)) => ra < ib,
            _ => false,
        }
    }

    /// Checks that the trace is well formed: every response matches a prior
    /// invocation by the same process, no process has two outstanding
    /// operations, and request ids are not reused.
    pub fn check_well_formed(&self) -> Result<(), WellFormednessError> {
        let mut outstanding: BTreeMap<ProcessId, RequestId> = BTreeMap::new();
        let mut invoked: BTreeSet<RequestId> = BTreeSet::new();
        let mut responded: BTreeSet<RequestId> = BTreeSet::new();
        for e in &self.events {
            match e {
                Event::Invoke { req } | Event::Init { req, .. } => {
                    if !invoked.insert(req.id) {
                        return Err(WellFormednessError::DuplicateInvocation(req.id));
                    }
                    if outstanding.insert(req.proc, req.id).is_some() {
                        return Err(WellFormednessError::OverlappingInvocations(req.proc));
                    }
                }
                Event::Commit { proc, req_id, .. } | Event::Abort { proc, req_id, .. } => {
                    if !invoked.contains(req_id) {
                        return Err(WellFormednessError::ResponseWithoutInvocation(*req_id));
                    }
                    if !responded.insert(*req_id) {
                        return Err(WellFormednessError::DuplicateResponse(*req_id));
                    }
                    match outstanding.get(proc) {
                        Some(out) if out == req_id => {
                            outstanding.remove(proc);
                        }
                        _ => return Err(WellFormednessError::WrongProcess(*req_id)),
                    }
                }
            }
        }
        Ok(())
    }

    /// Projection of the trace onto invoke/init and commit events, as a
    /// concurrent history suitable for the linearizability checker
    /// (Theorem 3 considers exactly this projection).
    pub fn commit_projection(&self) -> crate::linearizability::ConcurrentHistory<S> {
        let mut hist = crate::linearizability::ConcurrentHistory::new();
        for (idx, e) in self.events.iter().enumerate() {
            match e {
                Event::Invoke { req } | Event::Init { req, .. } => {
                    hist.record_invoke(idx, req.clone())
                }
                Event::Commit { req_id, resp, .. } => {
                    hist.record_response(idx, *req_id, resp.clone())
                }
                Event::Abort { .. } => {}
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{TasOp, TasResp, TasSpec, TasSwitch};

    type T = Trace<TasSpec, TasSwitch>;

    fn req(id: u64, p: usize) -> Request<TasSpec> {
        Request::new(id, p, TasOp::TestAndSet)
    }

    fn sample() -> T {
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_invoke(req(2, 1));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_abort(ProcessId(1), RequestId(2), TasSwitch::L);
        t.record_init(req(3, 1), TasSwitch::L);
        t.record_commit(ProcessId(1), RequestId(3), TasResp::Loser);
        t
    }

    #[test]
    fn well_formed_sample() {
        assert_eq!(sample().check_well_formed(), Ok(()));
    }

    #[test]
    fn tokens_and_commits() {
        let t = sample();
        let aborts = t.abort_tokens();
        assert_eq!(aborts.len(), 1);
        assert_eq!(aborts[0].0.id, RequestId(2));
        assert_eq!(aborts[0].1, TasSwitch::L);
        let inits = t.init_tokens();
        assert_eq!(inits.len(), 1);
        assert_eq!(inits[0].0.id, RequestId(3));
        let commits = t.commits();
        assert_eq!(commits.len(), 2);
        assert_eq!(commits[0].1, TasResp::Winner);
    }

    #[test]
    fn pending_detects_unanswered_requests() {
        let mut t = sample();
        t.record_invoke(req(4, 2));
        assert_eq!(t.pending(), vec![RequestId(4)]);
        assert!(sample().pending().is_empty());
    }

    #[test]
    fn precedence_follows_real_time() {
        let t = sample();
        // r1 commits before r3 is invoked.
        assert!(t.precedes(RequestId(1), RequestId(3)));
        // r1 and r2 are concurrent.
        assert!(!t.precedes(RequestId(1), RequestId(2)));
        assert!(!t.precedes(RequestId(2), RequestId(1)));
    }

    #[test]
    fn response_without_invocation_is_rejected() {
        let mut t = T::new();
        t.record_commit(ProcessId(0), RequestId(9), TasResp::Winner);
        assert_eq!(
            t.check_well_formed(),
            Err(WellFormednessError::ResponseWithoutInvocation(RequestId(9)))
        );
    }

    #[test]
    fn overlapping_invocations_are_rejected() {
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_invoke(req(2, 0));
        assert_eq!(
            t.check_well_formed(),
            Err(WellFormednessError::OverlappingInvocations(ProcessId(0)))
        );
    }

    #[test]
    fn duplicate_invocation_is_rejected() {
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_invoke(req(1, 0));
        assert_eq!(
            t.check_well_formed(),
            Err(WellFormednessError::DuplicateInvocation(RequestId(1)))
        );
    }

    #[test]
    fn wrong_process_response_is_rejected() {
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(1), RequestId(1), TasResp::Winner);
        assert!(matches!(
            t.check_well_formed(),
            Err(WellFormednessError::WrongProcess(_))
                | Err(WellFormednessError::OverlappingInvocations(_))
        ));
    }

    #[test]
    fn duplicate_response_is_rejected() {
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        assert_eq!(
            t.check_well_formed(),
            Err(WellFormednessError::DuplicateResponse(RequestId(1)))
        );
    }

    #[test]
    fn commit_projection_drops_aborts() {
        let t = sample();
        let proj = t.commit_projection();
        // Two completed (committed) ops: r1 and r3; r2 aborted and is treated
        // as incomplete in the projection.
        assert_eq!(proj.completed().len(), 2);
    }

    #[test]
    fn event_accessors() {
        let e: Event<TasSpec, TasSwitch> = Event::Invoke { req: req(5, 2) };
        assert_eq!(e.proc(), ProcessId(2));
        assert_eq!(e.req_id(), RequestId(5));
        assert!(e.is_invocation());
        assert!(!e.is_response());
    }
}
