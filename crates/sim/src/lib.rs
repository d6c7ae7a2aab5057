//! # scl-sim
//!
//! A deterministic, step-counting shared-memory simulator for analysing
//! concurrent algorithms at the granularity the paper reasons about: one
//! *shared-memory step* at a time.
//!
//! The paper's complexity claims (constant step complexity of the
//! obstruction-free test-and-set module, linear cost of the generic
//! universal construction, fence complexity, consensus number of base
//! objects) and progress claims (no abort in the absence of step contention)
//! are all phrased in the asynchronous shared-memory model of §3. Real
//! threads cannot reproduce adversarial schedules deterministically, so this
//! crate provides:
//!
//! * [`SharedMemory`] — a register file with one-step atomic operations
//!   (read, write, swap, test-and-set, fetch-and-add, compare-and-swap),
//!   per-process step counters, and an audit of which primitive classes were
//!   applied to which register (from which base-object consensus numbers are
//!   derived).
//! * [`OpExecution`] / [`SimObject`] — algorithms written as explicit step
//!   machines: each call to `step` performs exactly one shared-memory step.
//! * [`Executor`] — drives `n` processes over per-process workloads under a
//!   pluggable [`Adversary`] (solo, round-robin, random, scripted,
//!   invoke-all-then-sequential), recording a [`scl_spec::Trace`], per-
//!   operation step counts and contention measurements.
//! * [`explore`] — bounded exhaustive exploration of all schedules of small
//!   executions: an incremental depth-first search with optional
//!   prefix-resume backtracking (undo-log marks on memory and session plus
//!   an object snapshot, instead of prefix replay) and partial-order
//!   reduction — source
//!   DPOR with race-driven wakeup sets over the happens-before layer in
//!   [`hb`], under sleep sets driven by per-step access footprints. Used by
//!   the test-suites to verify linearizability and safe composability over
//!   *every* interleaving of small configurations, including the full n=3
//!   speculative-TAS space. One exploration runs on one thread; `scl-check`
//!   runs independent scenarios concurrently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod executor;
pub mod explore;
pub mod hb;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod replay;
pub mod rng;
pub mod step;
pub mod telemetry;
pub mod value;

pub use adversary::{
    Adversary, InvokeAllThenSequential, RandomAdversary, RoundRobinAdversary, ScriptedAdversary,
    SoloAdversary,
};
pub use executor::{
    DecisionLog, ExecSession, ExecutionResult, Executor, OpRecord, SessionMark, SurveyStatus,
    TickEmission, Workload,
};
pub use explore::{
    explore_schedules, explore_schedules_monitored_observed_report,
    explore_schedules_parallel_monitored_observed_report, explore_schedules_report,
    name_counterexample, ExploreConfig, ExploreError, ExploreOutcome, ExploreReport, ExploreStats,
    ExploreViolation, NoMonitor, Reduction, ResumeMode, ScheduleMonitor,
};
pub use hb::HbTracker;
pub use machine::{
    ImmediateOutcome, ObjectSnapshot, OpExecution, OpOutcome, SimObject, StepOutcome,
};
pub use memory::{
    Footprint, MemMark, MemSnapshot, Message, NetNode, PrimitiveClass, RegId, ServerHandler,
    SharedMemory, StepLabel,
};
pub use metrics::{ContentionKind, ExecutionMetrics, OpMetrics};
pub use replay::{replay_schedule, ReplayLog, ReplayOutcome, ReplayTick};
pub use rng::SplitMix64;
pub use step::StepKind;
pub use telemetry::{ExploreObserver, NoObserver, TelemetryObserver, TelemetrySnapshot};
pub use value::Value;
