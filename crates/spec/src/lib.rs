//! # scl-spec
//!
//! Specification vocabulary for *safely composable* shared-memory algorithms,
//! following Alistarh, Guerraoui, Kuznetsov and Losa, *"On the Cost of
//! Composing Shared-Memory Algorithms"* (SPAA 2012).
//!
//! The crate provides the paper's formal objects as first-class Rust values
//! so that implementations (in `scl-core` / `scl-runtime`) can be *checked*
//! against them:
//!
//! * [`SequentialSpec`] — an object type `(Q, s, I, R, Δ)` (§3 of the paper),
//!   with concrete instances in [`objects`] (test-and-set, consensus,
//!   registers, counters, FIFO queues, fetch-and-increment).
//! * [`History`] — a duplicate-free sequence of requests, together with the
//!   `β` functions mapping histories to responses (§5.1).
//! * [`Trace`] — the sequence of invoke / init / commit / abort events
//!   observed in an execution (§3), plus well-formedness checking.
//! * [`abstract_spec`] — Definition 1 of the paper: the six properties of an
//!   *Abstract* (abortable replicated state machine), and a checker for them.
//! * [`constraint`] — switch values, switch tokens and constraint functions
//!   `M : 2^T → 2^H`, including the test-and-set constraint function of
//!   Definition 3.
//! * [`equivalence`] — the equivalence relation `≡_I` on histories (§5.1).
//! * [`interpretation`] — Definition 2: valid interpretations of a trace and
//!   a bounded checker that searches for one (certifying that a recorded
//!   trace is safely composable).
//! * [`linearizability`] — a Wing–Gong style linearizability checker: a
//!   pure function of a finished concurrent history (crash gates and
//!   requirements included), used by Theorem 3 style arguments, by the
//!   test-suites of the other crates and as the reference for the
//!   incremental checker.
//! * [`incremental`] — the same checker as an *online* algorithm consuming
//!   invoke/commit events one at a time, with snapshot/rewind positions so
//!   the schedule explorer (`scl-sim` / `scl-check`) re-checks only the
//!   suffix when backtracking.
//!
//! Everything in this crate is purely sequential, deterministic data-structure
//! code: it has no dependency on threads or atomics and is therefore usable
//! both from the deterministic simulator (`scl-sim`) and from tests that
//! validate real multi-threaded executions (`scl-runtime`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_spec;
pub mod constraint;
pub mod equivalence;
pub mod fxhash;
pub mod history;
pub mod ids;
pub mod incremental;
pub mod interpretation;
pub mod linearizability;
pub mod objects;
pub mod seqspec;
pub mod trace;

pub use abstract_spec::{AbstractEvent, AbstractTrace, AbstractViolation};
pub use constraint::{ConstraintFunction, PrefixConstraint, SwitchToken, TasConstraint};
pub use equivalence::{equivalent, equivalent_by_state};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use history::{History, Request};
pub use ids::{ProcessId, RequestId, RequestIdGen};
pub use incremental::{IncCheckStats, IncVerdict, IncrementalLinChecker};
pub use interpretation::{
    find_valid_interpretation, CheckOutcome, InterpretationError, ValidInterpretation,
};
pub use linearizability::{
    check_linearizable, check_linearizable_with_stats, CompletedOp, ConcurrentHistory,
    LinCheckResult, LinCheckStats, PendingOp,
};
pub use objects::{
    ConsensusOp, ConsensusSpec, CounterOp, CounterSpec, FetchIncOp, FetchIncSpec, QueueOp,
    QueueSpec, RegisterOp, RegisterSpec, TasOp, TasResp, TasSpec, TasSwitch,
};
pub use seqspec::SequentialSpec;
pub use trace::{Event, Trace};
