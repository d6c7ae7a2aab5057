//! The *Abstract* specification (Definition 1) and a checker for its
//! trace properties.
//!
//! An Abstract (abortable replicated state machine, after Guerraoui et al.'s
//! "Abstract" framework) exports `Invoke(m, h)` and returns either
//! `Commit(m, h)` or `Abort(m, h)`, where `h` is a history of requests. Its
//! traces must satisfy:
//!
//! 1. **Termination** — a correct process's request eventually commits or
//!    aborts with a history containing the request (liveness; on finite
//!    traces we check the containment part for every response).
//! 2. **Commit Order** — commit histories are totally ordered by the strict
//!    prefix relation (any two are prefix-comparable).
//! 3. **Abort Ordering** — every commit history is a prefix of every abort
//!    history.
//! 4. **Validity** — no request appears twice in a commit/abort history, and
//!    every request in it was invoked before the current operation returns.
//! 5. **Non-Triviality** — progress under the predicate `NT` (a liveness
//!    property relative to a contention predicate; checked by the simulator
//!    experiments, not by this static checker).
//! 6. **Init Ordering** — any common prefix of init histories is a prefix of
//!    any commit or abort history.

use crate::history::{History, Request};
use crate::ids::{ProcessId, RequestId};
use crate::seqspec::SequentialSpec;
use std::collections::HashMap;

/// One event of an Abstract trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractEvent<S: SequentialSpec> {
    /// `Invoke(m, h)`: request `m` is issued with initial history `h`
    /// (the empty history when the instance is not being initialised from a
    /// previous module).
    Invoke {
        /// The invoked request.
        req: Request<S>,
        /// The initial history proposed by the invocation.
        init: History<S>,
    },
    /// `Commit(m, h)`.
    Commit {
        /// The process returning.
        proc: ProcessId,
        /// The request being responded to.
        req_id: RequestId,
        /// The commit history.
        history: History<S>,
    },
    /// `Abort(m, h)`.
    Abort {
        /// The process returning.
        proc: ProcessId,
        /// The request being responded to.
        req_id: RequestId,
        /// The abort history.
        history: History<S>,
    },
}

/// Violations of the Abstract properties detected by
/// [`AbstractTrace::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractViolation {
    /// A commit/abort history does not contain the request it responds to
    /// (Termination, containment part).
    HistoryMissingOwnRequest(RequestId),
    /// Two commit histories are not prefix-comparable (Commit Order).
    CommitOrder(RequestId, RequestId),
    /// A commit history is not a prefix of an abort history (Abort Ordering).
    AbortOrdering {
        /// The committing request.
        commit: RequestId,
        /// The aborting request.
        abort: RequestId,
    },
    /// A history contains a request that was never invoked, or was invoked
    /// only after the response returned (Validity).
    Validity {
        /// The responding request whose history is invalid.
        response_of: RequestId,
        /// The offending request found in the history.
        offending: RequestId,
    },
    /// The common prefix of init histories is not a prefix of some
    /// commit/abort history (Init Ordering).
    InitOrdering(RequestId),
    /// A response refers to a request that was never invoked.
    UnknownRequest(RequestId),
}

impl std::fmt::Display for AbstractViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbstractViolation::HistoryMissingOwnRequest(r) => {
                write!(f, "history returned for {r} does not contain {r}")
            }
            AbstractViolation::CommitOrder(a, b) => {
                write!(f, "commit histories of {a} and {b} are not prefix-comparable")
            }
            AbstractViolation::AbortOrdering { commit, abort } => write!(
                f,
                "commit history of {commit} is not a prefix of abort history of {abort}"
            ),
            AbstractViolation::Validity { response_of, offending } => write!(
                f,
                "history of {response_of} contains {offending}, which was not invoked before the response"
            ),
            AbstractViolation::InitOrdering(r) => write!(
                f,
                "common prefix of init histories is not a prefix of the history returned for {r}"
            ),
            AbstractViolation::UnknownRequest(r) => {
                write!(f, "response for unknown request {r}")
            }
        }
    }
}

impl std::error::Error for AbstractViolation {}

/// How strictly the Validity property is applied to *abort* histories.
///
/// The paper's Lemma 4 construction places every request of the trace in the
/// (single) abort history, including requests invoked after earlier aborts
/// returned; we therefore default to checking that abort-history requests
/// were invoked somewhere in the trace, while commit histories are checked
/// strictly against the commit's own return point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbortValidity {
    /// Requests in an abort history must be invoked somewhere in the trace
    /// (default, matches the paper's constructions).
    #[default]
    EndOfTrace,
    /// Requests in an abort history must be invoked before that abort
    /// returns (literal reading of Definition 1).
    Strict,
}

/// A trace of an Abstract instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractTrace<S: SequentialSpec> {
    events: Vec<AbstractEvent<S>>,
}

impl<S: SequentialSpec> Default for AbstractTrace<S> {
    fn default() -> Self {
        AbstractTrace { events: Vec::new() }
    }
}

impl<S: SequentialSpec> AbstractTrace<S> {
    /// The empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: AbstractEvent<S>) {
        self.events.push(event);
    }

    /// Records an invocation.
    pub fn record_invoke(&mut self, req: Request<S>, init: History<S>) {
        self.push(AbstractEvent::Invoke { req, init });
    }

    /// Records a commit.
    pub fn record_commit(&mut self, proc: ProcessId, req_id: RequestId, history: History<S>) {
        self.push(AbstractEvent::Commit {
            proc,
            req_id,
            history,
        });
    }

    /// Records an abort.
    pub fn record_abort(&mut self, proc: ProcessId, req_id: RequestId, history: History<S>) {
        self.push(AbstractEvent::Abort {
            proc,
            req_id,
            history,
        });
    }

    /// The events in real-time order.
    pub fn events(&self) -> &[AbstractEvent<S>] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops every event after the first `len`, so that a recorder whose
    /// trace only grows can rewind it to an earlier [`Self::len`] without
    /// a copy. No effect if the trace is not longer than `len`.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// All commit histories with the committing request, in commit order.
    pub fn commit_histories(&self) -> Vec<(RequestId, &History<S>)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                AbstractEvent::Commit {
                    req_id, history, ..
                } => Some((*req_id, history)),
                _ => None,
            })
            .collect()
    }

    /// All abort histories with the aborting request, in abort order.
    pub fn abort_histories(&self) -> Vec<(RequestId, &History<S>)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                AbstractEvent::Abort {
                    req_id, history, ..
                } => Some((*req_id, history)),
                _ => None,
            })
            .collect()
    }

    /// All non-empty init histories, in invocation order.
    pub fn init_histories(&self) -> Vec<&History<S>> {
        self.events
            .iter()
            .filter_map(|e| match e {
                AbstractEvent::Invoke { init, .. } if !init.is_empty() => Some(init),
                _ => None,
            })
            .collect()
    }

    /// The longest committed history (the "authoritative" linearization of
    /// committed requests), if any request committed.
    pub fn longest_commit_history(&self) -> Option<&History<S>> {
        self.commit_histories()
            .into_iter()
            .map(|(_, h)| h)
            .max_by_key(|h| h.len())
    }

    /// Checks properties 1 (containment), 2, 3, 4 and 6 of Definition 1 with
    /// the default abort-validity mode.
    pub fn check(&self) -> Result<(), AbstractViolation> {
        self.check_with(AbortValidity::default())
    }

    /// Checks the Abstract properties with an explicit abort-validity mode.
    pub fn check_with(&self, abort_validity: AbortValidity) -> Result<(), AbstractViolation> {
        // Invocation index per request id.
        let mut invoke_at: HashMap<RequestId, usize> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if let AbstractEvent::Invoke { req, .. } = e {
                invoke_at.entry(req.id).or_insert(i);
            }
        }

        // Termination (containment), Validity, and collection of histories.
        let mut commits: Vec<(RequestId, usize, &History<S>)> = Vec::new();
        let mut aborts: Vec<(RequestId, usize, &History<S>)> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            match e {
                AbstractEvent::Commit {
                    req_id, history, ..
                } => {
                    if !invoke_at.contains_key(req_id) {
                        return Err(AbstractViolation::UnknownRequest(*req_id));
                    }
                    if !history.contains_id(*req_id) {
                        return Err(AbstractViolation::HistoryMissingOwnRequest(*req_id));
                    }
                    commits.push((*req_id, i, history));
                }
                AbstractEvent::Abort {
                    req_id, history, ..
                } => {
                    if !invoke_at.contains_key(req_id) {
                        return Err(AbstractViolation::UnknownRequest(*req_id));
                    }
                    if !history.contains_id(*req_id) {
                        return Err(AbstractViolation::HistoryMissingOwnRequest(*req_id));
                    }
                    aborts.push((*req_id, i, history));
                }
                AbstractEvent::Invoke { .. } => {}
            }
        }

        // Validity: every request of a response history was invoked before
        // the response returns (strict for commits; configurable for aborts).
        for (rid, at, h) in commits.iter() {
            for r in h.iter() {
                match invoke_at.get(&r.id) {
                    Some(inv) if *inv < *at => {}
                    _ => {
                        return Err(AbstractViolation::Validity {
                            response_of: *rid,
                            offending: r.id,
                        })
                    }
                }
            }
        }
        for (rid, at, h) in aborts.iter() {
            for r in h.iter() {
                let ok = match (abort_validity, invoke_at.get(&r.id)) {
                    (AbortValidity::Strict, Some(inv)) => *inv < *at,
                    (AbortValidity::EndOfTrace, Some(_)) => true,
                    (_, None) => false,
                };
                if !ok {
                    return Err(AbstractViolation::Validity {
                        response_of: *rid,
                        offending: r.id,
                    });
                }
            }
        }

        // Commit Order: any two commit histories are prefix-comparable.
        for (i, (ra, _, ha)) in commits.iter().enumerate() {
            for (rb, _, hb) in commits.iter().skip(i + 1) {
                if !ha.is_prefix_of(hb) && !hb.is_prefix_of(ha) {
                    return Err(AbstractViolation::CommitOrder(*ra, *rb));
                }
            }
        }

        // Abort Ordering: every commit history is a prefix of every abort
        // history.
        for (rc, _, hc) in commits.iter() {
            for (ra, _, ha) in aborts.iter() {
                if !hc.is_prefix_of(ha) {
                    return Err(AbstractViolation::AbortOrdering {
                        commit: *rc,
                        abort: *ra,
                    });
                }
            }
        }

        // Init Ordering: the common prefix of init histories is a prefix of
        // every commit/abort history.
        let inits = self.init_histories();
        if let Some(lcp) = crate::constraint::longest_common_prefix_of(inits.iter().copied()) {
            for (rid, _, h) in commits.iter().chain(aborts.iter()) {
                if !lcp.is_prefix_of(h) {
                    return Err(AbstractViolation::InitOrdering(*rid));
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{TasOp, TasSpec};

    fn req(id: u64, p: usize) -> Request<TasSpec> {
        Request::new(id, p, TasOp::TestAndSet)
    }

    fn hist(ids: &[(u64, usize)]) -> History<TasSpec> {
        ids.iter().map(|&(i, p)| req(i, p)).collect()
    }

    #[test]
    fn valid_abstract_trace_passes() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        t.record_invoke(req(2, 1), History::empty());
        t.record_commit(ProcessId(1), RequestId(2), hist(&[(1, 0), (2, 1)]));
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn commit_order_violation_detected() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_invoke(req(2, 1), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        // Not prefix-comparable with [(1,0)]: starts with request 2.
        t.record_commit(ProcessId(1), RequestId(2), hist(&[(2, 1), (1, 0)]));
        assert!(matches!(
            t.check(),
            Err(AbstractViolation::CommitOrder(_, _))
        ));
    }

    #[test]
    fn abort_ordering_violation_detected() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_invoke(req(2, 1), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        // Abort history does not have the commit history as a prefix.
        t.record_abort(ProcessId(1), RequestId(2), hist(&[(2, 1), (1, 0)]));
        assert!(matches!(
            t.check(),
            Err(AbstractViolation::AbortOrdering { .. })
        ));
    }

    #[test]
    fn validity_requires_prior_invocation_for_commits() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        // History contains request 9, never invoked.
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(9, 3), (1, 0)]));
        assert!(matches!(t.check(), Err(AbstractViolation::Validity { .. })));
    }

    #[test]
    fn commit_history_must_contain_own_request() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_invoke(req(2, 1), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(2, 1)]));
        assert_eq!(
            t.check(),
            Err(AbstractViolation::HistoryMissingOwnRequest(RequestId(1)))
        );
    }

    #[test]
    fn init_ordering_violation_detected() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), hist(&[(9, 3)]));
        t.record_invoke(req(9, 3), hist(&[(9, 3)]));
        // Commit history does not extend the init prefix [(9,3)].
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        assert!(matches!(t.check(), Err(AbstractViolation::InitOrdering(_))));
    }

    #[test]
    fn strict_abort_validity_rejects_late_requests() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        // Abort history mentions request 2, which is invoked only later.
        t.record_abort(ProcessId(0), RequestId(1), hist(&[(1, 0), (2, 1)]));
        t.record_invoke(req(2, 1), History::empty());
        t.record_abort(ProcessId(1), RequestId(2), hist(&[(1, 0), (2, 1)]));
        assert_eq!(t.check_with(AbortValidity::EndOfTrace), Ok(()));
        assert!(matches!(
            t.check_with(AbortValidity::Strict),
            Err(AbstractViolation::Validity { .. })
        ));
    }

    #[test]
    fn unknown_request_detected() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_commit(ProcessId(0), RequestId(7), hist(&[(7, 0)]));
        assert_eq!(
            t.check(),
            Err(AbstractViolation::UnknownRequest(RequestId(7)))
        );
    }

    #[test]
    fn truncate_rewinds_to_an_earlier_length() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        let prefix = t.clone();
        t.record_invoke(req(2, 1), History::empty());
        t.record_abort(ProcessId(1), RequestId(2), hist(&[(1, 0), (2, 1)]));
        t.truncate(prefix.len());
        assert_eq!(t, prefix);
        t.truncate(5);
        assert_eq!(t, prefix, "truncating past the end changes nothing");
    }

    #[test]
    fn longest_commit_history_is_reported() {
        let mut t = AbstractTrace::<TasSpec>::new();
        t.record_invoke(req(1, 0), History::empty());
        t.record_commit(ProcessId(0), RequestId(1), hist(&[(1, 0)]));
        t.record_invoke(req(2, 1), History::empty());
        t.record_commit(ProcessId(1), RequestId(2), hist(&[(1, 0), (2, 1)]));
        assert_eq!(t.longest_commit_history().unwrap().len(), 2);
    }
}
