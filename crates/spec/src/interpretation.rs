//! Valid interpretations of traces (Definition 2) and a bounded checker.
//!
//! A safely composable implementation must, for every trace `τ` that is
//! valid with respect to the constraint function `M` and for every
//! equivalence class `e` of `M(aborts(τ))` (under `≡_requests(aborts(τ))`),
//! admit a history `h_abort ∈ e` and an *interpretation* `φ` mapping every
//! init, commit and abort index of `τ` to a history such that:
//!
//! 1. all init indices map to one history `h_init ∈ M(inits(τ))`,
//! 2. all abort indices map to `h_abort`,
//! 3. for every commit index `i`, the history explains the committed
//!    response — we check `β(φ(i), m_i) = response(i)`, i.e. the response
//!    *matching the committed request* in the history equals the observed
//!    response. (The paper states condition 3 with the one-argument `β`;
//!    the two readings coincide for the prefix-ending-at-`m` interpretations
//!    used in Lemma 4, and the per-request reading is the one under which
//!    the Lemma 5 interpretation of the wait-free module — where init
//!    histories must be prefixes of commit histories by Init Ordering — is
//!    well defined. We therefore adopt it.)
//! 4. the substituted trace `φτ` satisfies the Abstract properties
//!    (Definition 1).
//!
//! This module implements a *bounded search* for such interpretations over a
//! recorded trace: candidate base histories are generated from the requests
//! actually observed in the trace (all committed and aborted requests, plus
//! optionally pending ones — the paper's Lemma 4 uses a crashed process's
//! request as the head in one case), ordered by response/invocation order;
//! candidates are filtered through the constraint function and partitioned
//! into equivalence classes; commit indices are mapped to prefixes of the
//! candidate abort history.
//!
//! The search is sound for positive answers: if it reports
//! [`CheckOutcome::SafelyComposable`], a valid interpretation exists for
//! every equivalence class *of the candidate set*. It is not complete — a
//! trace might admit an exotic interpretation the bounded search misses — but
//! for the algorithms of the paper (whose proofs use exactly the prefix-style
//! interpretations the search enumerates) it acts as a precise certifier, and
//! the test-suites rely on it to certify every recorded trace.

use crate::constraint::ConstraintFunction;
use crate::equivalence::equivalence_classes;
use crate::history::{History, Request};
use crate::ids::RequestId;
use crate::seqspec::SequentialSpec;
use crate::trace::{Event, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;

/// A valid interpretation found by the checker for one equivalence class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidInterpretation<S: SequentialSpec> {
    /// The history assigned to every init index (`None` when the trace has
    /// no init events).
    pub init_history: Option<History<S>>,
    /// The history assigned to every abort index (empty when the trace has
    /// no abort events).
    pub abort_history: History<S>,
    /// The history assigned to each commit index, keyed by the committed
    /// request.
    pub commit_histories: BTreeMap<RequestId, History<S>>,
}

/// Failures of the interpretation search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpretationError {
    /// The trace is not well formed (see [`crate::trace::WellFormednessError`]).
    MalformedTrace(String),
    /// No candidate init history lies in `M(inits(τ))`: the trace is not
    /// valid with respect to `M`, so Definition 2 imposes no obligation.
    TraceNotValidWrtM,
    /// For the equivalence class with the given index (into the returned
    /// class list), no candidate abort history admitted a valid
    /// interpretation.
    NoInterpretationForClass(usize),
}

impl std::fmt::Display for InterpretationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpretationError::MalformedTrace(e) => write!(f, "malformed trace: {e}"),
            InterpretationError::TraceNotValidWrtM => {
                write!(
                    f,
                    "trace is not valid with respect to the constraint function"
                )
            }
            InterpretationError::NoInterpretationForClass(i) => {
                write!(
                    f,
                    "no valid interpretation found for equivalence class #{i}"
                )
            }
        }
    }
}

impl std::error::Error for InterpretationError {}

/// Outcome of [`find_valid_interpretation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome<S: SequentialSpec> {
    /// A valid interpretation was found for every equivalence class of the
    /// candidate abort histories (Definition 2 satisfied on this trace).
    SafelyComposable(Vec<ValidInterpretation<S>>),
    /// The trace is not valid with respect to `M` (Definition 2 is vacuous).
    NotValidWrtM,
    /// The bounded search failed; the trace could not be certified.
    Failed(InterpretationError),
}

impl<S: SequentialSpec> CheckOutcome<S> {
    /// Whether the trace was certified safely composable.
    pub fn is_composable(&self) -> bool {
        matches!(self, CheckOutcome::SafelyComposable(_))
    }
}

struct TraceFacts<S: SequentialSpec, V> {
    commits: Vec<(Request<S>, S::Resp, usize)>,
    abort_tokens: Vec<(Request<S>, V)>,
    init_tokens: Vec<(Request<S>, V)>,
    pending: Vec<Request<S>>,
    invoke_at: BTreeMap<RequestId, usize>,
    has_aborts: bool,
    has_inits: bool,
}

fn gather_facts<S: SequentialSpec, V: Clone + Eq + Hash + Debug>(
    trace: &Trace<S, V>,
) -> TraceFacts<S, V> {
    let mut commits = Vec::new();
    let mut invoke_at = BTreeMap::new();
    for (i, e) in trace.events().iter().enumerate() {
        match e {
            Event::Invoke { req } | Event::Init { req, .. } => {
                invoke_at.entry(req.id).or_insert(i);
            }
            Event::Commit { req_id, resp, .. } => {
                if let Some(req) = trace.request(*req_id) {
                    commits.push((req.clone(), resp.clone(), i));
                }
            }
            Event::Abort { .. } => {}
        }
    }
    let pending: Vec<Request<S>> = trace
        .pending()
        .into_iter()
        .filter_map(|id| trace.request(id).cloned())
        .collect();
    TraceFacts {
        commits,
        abort_tokens: trace.abort_tokens(),
        init_tokens: trace.init_tokens(),
        pending,
        invoke_at,
        has_aborts: !trace.abort_tokens().is_empty(),
        has_inits: !trace.init_tokens().is_empty(),
    }
}

/// Generates candidate base histories over the given request pool: every
/// choice of head, with the remaining requests in `order` (already sorted by
/// the caller).
fn candidates_from<S: SequentialSpec>(
    required: &[Request<S>],
    optional: &[Request<S>],
    prefix: Option<&History<S>>,
) -> Vec<History<S>> {
    let mut out = Vec::new();
    // Variants of which optional (pending) requests to include: none, all,
    // and each single one.
    let mut optional_variants: Vec<Vec<Request<S>>> = vec![Vec::new()];
    if !optional.is_empty() {
        optional_variants.push(optional.to_vec());
        for o in optional {
            optional_variants.push(vec![o.clone()]);
        }
    }
    for opts in &optional_variants {
        let mut pool: Vec<Request<S>> = Vec::new();
        if let Some(p) = prefix {
            pool.extend(p.requests().iter().cloned());
        }
        for r in required.iter().chain(opts.iter()) {
            if !pool.iter().any(|x| x.id == r.id) {
                pool.push(r.clone());
            }
        }
        let fixed = prefix.map(|p| p.len()).unwrap_or(0);
        if pool.len() == fixed {
            if let Ok(h) = History::from_requests(pool.clone()) {
                out.push(h);
            }
            continue;
        }
        // Every choice of head among the non-fixed part.
        for head_idx in fixed..pool.len() {
            let mut ordered = pool.clone();
            let head = ordered.remove(head_idx);
            ordered.insert(fixed, head);
            if let Ok(h) = History::from_requests(ordered) {
                out.push(h);
            }
        }
    }
    // Deduplicate.
    let mut seen: BTreeSet<Vec<RequestId>> = BTreeSet::new();
    out.retain(|h| seen.insert(h.iter().map(|r| r.id).collect()));
    out
}

/// Searches for valid interpretations of a recorded trace with respect to a
/// constraint function (Definition 2). See the module documentation for the
/// scope of the bounded search.
pub fn find_valid_interpretation<S, V, M>(
    spec: &S,
    trace: &Trace<S, V>,
    constraint: &M,
) -> CheckOutcome<S>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    M: ConstraintFunction<S, V>,
{
    if let Err(e) = trace.check_well_formed() {
        return CheckOutcome::Failed(InterpretationError::MalformedTrace(e.to_string()));
    }
    let facts = gather_facts(trace);

    // Requests ordered by response index (committed/aborted) for the "rest"
    // of candidate histories.
    let mut responded: Vec<Request<S>> = Vec::new();
    for e in trace.events() {
        if e.is_response() {
            if let Some(r) = trace.request(e.req_id()) {
                if !responded.iter().any(|x| x.id == r.id) {
                    responded.push(r.clone());
                }
            }
        }
    }

    // Candidate init histories.
    let init_candidates: Vec<History<S>> = if facts.has_inits {
        let init_reqs: Vec<Request<S>> = facts.init_tokens.iter().map(|(r, _)| r.clone()).collect();
        let cands = candidates_from(&init_reqs, &[], None);
        let cands: Vec<History<S>> = cands
            .into_iter()
            .filter(|h| constraint.contains(spec, &facts.init_tokens, h))
            .collect();
        if cands.is_empty() {
            return CheckOutcome::NotValidWrtM;
        }
        cands
    } else {
        vec![]
    };

    // Candidate abort/base histories: must contain all committed requests and
    // all abort-token requests; pending requests are optional.
    let mut required: Vec<Request<S>> = Vec::new();
    for (r, _, _) in &facts.commits {
        if !required.iter().any(|x: &Request<S>| x.id == r.id) {
            required.push(r.clone());
        }
    }
    for (r, _) in &facts.abort_tokens {
        if !required.iter().any(|x| x.id == r.id) {
            required.push(r.clone());
        }
    }
    // Keep required requests in response order where possible.
    required.sort_by_key(|r| trace.response_index(r.id).unwrap_or(usize::MAX));

    let init_prefixes: Vec<Option<History<S>>> = if init_candidates.is_empty() {
        vec![None]
    } else {
        init_candidates.iter().cloned().map(Some).collect()
    };

    let i_set: BTreeSet<RequestId> = facts.abort_tokens.iter().map(|(r, _)| r.id).collect();

    // Try each candidate init history; the first one for which every
    // equivalence class admits an interpretation wins.
    let mut last_error = InterpretationError::NoInterpretationForClass(0);
    for init_prefix in &init_prefixes {
        let base_candidates = candidates_from(&required, &facts.pending, init_prefix.as_ref());
        let abort_candidates: Vec<History<S>> = if facts.has_aborts {
            base_candidates
                .iter()
                .filter(|h| constraint.contains(spec, &facts.abort_tokens, h))
                .cloned()
                .collect()
        } else {
            base_candidates.clone()
        };
        if abort_candidates.is_empty() && facts.has_aborts {
            last_error = InterpretationError::NoInterpretationForClass(0);
            continue;
        }

        let classes: Vec<Vec<History<S>>> = if facts.has_aborts {
            equivalence_classes(spec, &i_set, abort_candidates)
        } else {
            // Without aborts there is a single, trivial class; use the base
            // candidates (or the empty history if there are none).
            if abort_candidates.is_empty() {
                vec![vec![History::empty()]]
            } else {
                vec![abort_candidates]
            }
        };

        let mut interpretations = Vec::new();
        let mut all_ok = true;
        for (ci, class) in classes.iter().enumerate() {
            let mut found = None;
            for habort in class {
                if let Some(interp) =
                    try_interpretation(spec, trace, &facts, init_prefix.clone(), habort)
                {
                    found = Some(interp);
                    break;
                }
            }
            match found {
                Some(i) => interpretations.push(i),
                None => {
                    all_ok = false;
                    last_error = InterpretationError::NoInterpretationForClass(ci);
                    break;
                }
            }
        }
        if all_ok {
            return CheckOutcome::SafelyComposable(interpretations);
        }
    }
    CheckOutcome::Failed(last_error)
}

/// Attempts to build a valid interpretation with the given init prefix and
/// abort history, assigning to each commit the shortest admissible prefix of
/// `habort`.
fn try_interpretation<S: SequentialSpec, V: Clone + Eq + Hash + Debug>(
    spec: &S,
    trace: &Trace<S, V>,
    facts: &TraceFacts<S, V>,
    init_history: Option<History<S>>,
    habort: &History<S>,
) -> Option<ValidInterpretation<S>> {
    // Init Ordering: the init history must be a prefix of the abort history
    // (and of every commit history, which are prefixes of habort themselves,
    // enforced below by starting the prefix search at the init length).
    let min_len = match &init_history {
        Some(h) => {
            if !h.is_prefix_of(habort) {
                return None;
            }
            h.len()
        }
        None => 0,
    };
    // Every abort token request must be contained in habort (Termination /
    // Validity are ensured by construction since candidates only contain
    // invoked requests).
    if !facts
        .abort_tokens
        .iter()
        .all(|(r, _)| habort.contains_id(r.id))
    {
        return None;
    }

    let mut commit_histories = BTreeMap::new();
    for (req, resp, commit_at) in &facts.commits {
        let mut assigned = None;
        for len in min_len.max(1)..=habort.len() {
            let prefix = habort.prefix(len);
            if !prefix.contains_id(req.id) {
                continue;
            }
            if prefix.beta_of(spec, req.id).as_ref() != Some(resp) {
                continue;
            }
            // Validity: every request in the prefix was invoked before this
            // commit returns. Requests that are part of the init history are
            // exempt: they were invoked in a *previous* module of the
            // composition (their init event in this trace merely re-submits
            // them), so their effect legitimately predates this module.
            let valid = prefix.iter().all(|r| {
                if init_history
                    .as_ref()
                    .map(|h| h.contains_id(r.id))
                    .unwrap_or(false)
                {
                    return facts.invoke_at.contains_key(&r.id);
                }
                facts
                    .invoke_at
                    .get(&r.id)
                    .map(|at| at < commit_at)
                    .unwrap_or(false)
            });
            if !valid {
                continue;
            }
            assigned = Some(prefix);
            break;
        }
        match assigned {
            Some(p) => {
                commit_histories.insert(req.id, p);
            }
            None => return None,
        }
    }
    let _ = trace;
    Some(ValidInterpretation {
        init_history,
        abort_history: if facts.has_aborts {
            habort.clone()
        } else {
            History::empty()
        },
        commit_histories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::TasConstraint;
    use crate::ids::ProcessId;
    use crate::objects::{TasOp, TasResp, TasSpec, TasSwitch};

    type T = Trace<TasSpec, TasSwitch>;

    fn req(id: u64, p: usize) -> Request<TasSpec> {
        Request::new(id, p, TasOp::TestAndSet)
    }

    #[test]
    fn sequential_commits_are_composable() {
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_invoke(req(2, 1));
        t.record_commit(ProcessId(1), RequestId(2), TasResp::Loser);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(out.is_composable(), "{out:?}");
    }

    #[test]
    fn commits_with_aborts_are_composable() {
        // One process aborts with W, another commits loser afterwards: the
        // interpretation must head the abort history with the W request.
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_invoke(req(2, 1));
        t.record_abort(ProcessId(0), RequestId(1), TasSwitch::W);
        t.record_commit(ProcessId(1), RequestId(2), TasResp::Loser);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        match out {
            CheckOutcome::SafelyComposable(interps) => {
                for i in &interps {
                    assert_eq!(i.abort_history.head().unwrap().id, RequestId(1));
                    assert!(i.abort_history.contains_id(RequestId(2)));
                }
            }
            other => panic!("expected composable, got {other:?}"),
        }
    }

    #[test]
    fn two_winners_are_not_composable() {
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_invoke(req(2, 1));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_commit(ProcessId(1), RequestId(2), TasResp::Winner);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(!out.is_composable());
    }

    #[test]
    fn loser_without_any_winner_or_pending_is_not_composable() {
        // A single committed loser with no other request at all cannot be
        // explained: β of any prefix containing only that request is Winner.
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Loser);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(!out.is_composable());
    }

    #[test]
    fn loser_with_crashed_winner_is_composable() {
        // A pending (crashed) request can head the history and explain a
        // committed loser — the Lemma 4 crash case.
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(9, 2)); // crashes, never responds
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Loser);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(out.is_composable(), "{out:?}");
    }

    #[test]
    fn init_tokens_constrain_the_interpretation() {
        // Requests enter with init values (as in module A2): the W request
        // must head the init history; a commit of Loser for the L request is
        // explained by the prefix [W-req, L-req].
        let spec = TasSpec;
        let mut t = T::new();
        t.record_init(req(1, 0), TasSwitch::W);
        t.record_init(req(2, 1), TasSwitch::L);
        t.record_commit(ProcessId(1), RequestId(2), TasResp::Loser);
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        match out {
            CheckOutcome::SafelyComposable(interps) => {
                for i in &interps {
                    let init = i.init_history.as_ref().unwrap();
                    assert_eq!(init.head().unwrap().id, RequestId(1));
                }
            }
            other => panic!("expected composable, got {other:?}"),
        }
    }

    #[test]
    fn winner_commit_with_w_abort_is_not_composable() {
        // Invariant 2 of the paper: if a process commits winner, no process
        // aborts with W. A trace violating it cannot be interpreted: the
        // abort history must be headed by the W request, making it the
        // sequential winner, so the committed Winner response cannot be
        // explained by any prefix.
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_invoke(req(2, 1));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_abort(ProcessId(1), RequestId(2), TasSwitch::W);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(!out.is_composable());
    }

    #[test]
    fn empty_trace_is_composable() {
        let spec = TasSpec;
        let t = T::new();
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(out.is_composable());
    }

    #[test]
    fn malformed_trace_is_rejected() {
        let spec = TasSpec;
        let mut t = T::new();
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        assert!(matches!(
            out,
            CheckOutcome::Failed(InterpretationError::MalformedTrace(_))
        ));
    }

    #[test]
    fn aborts_with_only_l_are_composable() {
        // All aborts carry L: the abort history must be headed by a request
        // outside the token set; the committed winner plays that role.
        let spec = TasSpec;
        let mut t = T::new();
        t.record_invoke(req(1, 0));
        t.record_commit(ProcessId(0), RequestId(1), TasResp::Winner);
        t.record_invoke(req(2, 1));
        t.record_abort(ProcessId(1), RequestId(2), TasSwitch::L);
        let out = find_valid_interpretation(&spec, &t, &TasConstraint);
        match out {
            CheckOutcome::SafelyComposable(interps) => {
                for i in &interps {
                    assert_eq!(i.abort_history.head().unwrap().id, RequestId(1));
                }
            }
            other => panic!("expected composable, got {other:?}"),
        }
    }
}
