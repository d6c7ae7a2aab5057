//! Per-operation and per-execution measurements: step counts, fences,
//! read-modify-write counts, and contention.
//!
//! The paper distinguishes two notions of contention (§3, after \[2\] and \[6\]):
//!
//! * **interval contention** — another operation's interval (invocation to
//!   response) overlaps the current operation's interval;
//! * **step contention** — another process takes a shared-memory step during
//!   the current operation's interval.
//!
//! [`OpMetrics`] records both for every operation, along with the exact
//! number of shared-memory steps, fences and RMW primitives the operation
//! executed, which is how the experiment harness reproduces the paper's
//! step- and fence-complexity claims.

use scl_spec::{ProcessId, RequestId};

/// Which kind of contention an operation experienced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionKind {
    /// No other operation overlapped.
    None,
    /// Other operations overlapped, but no other process took a step during
    /// the operation.
    IntervalOnly,
    /// Another process took at least one shared-memory step during the
    /// operation (implies interval contention).
    Step,
}

/// Measurements for one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMetrics {
    /// The request this operation executed.
    pub req_id: RequestId,
    /// The executing process.
    pub proc: ProcessId,
    /// Scheduling tick at which the operation was invoked.
    pub invoke_tick: u64,
    /// Scheduling tick at which the operation responded (`None` if it was
    /// still pending when the execution stopped).
    pub response_tick: Option<u64>,
    /// Shared-memory steps executed by the operation.
    pub steps: u64,
    /// Fences (RAW + atomic-instruction) executed by the operation.
    pub fences: u64,
    /// Read-modify-write primitives executed by the operation.
    pub rmws: u64,
    /// Number of shared-memory steps taken by *other* processes during the
    /// operation's interval.
    pub foreign_steps: u64,
    /// Number of distinct other operations whose intervals overlapped.
    pub overlapping_ops: u64,
    /// Whether the operation aborted (at the level of the driven object).
    pub aborted: bool,
}

impl OpMetrics {
    /// The contention kind experienced by the operation.
    pub fn contention(&self) -> ContentionKind {
        if self.foreign_steps > 0 {
            ContentionKind::Step
        } else if self.overlapping_ops > 0 {
            ContentionKind::IntervalOnly
        } else {
            ContentionKind::None
        }
    }

    /// Whether the operation ran without step contention.
    pub fn step_contention_free(&self) -> bool {
        self.foreign_steps == 0
    }

    /// Whether the operation ran without interval contention.
    pub fn interval_contention_free(&self) -> bool {
        self.overlapping_ops == 0
    }
}

/// Measurements for a whole execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionMetrics {
    /// Per-operation measurements, in invocation order.
    pub ops: Vec<OpMetrics>,
}

impl ExecutionMetrics {
    /// The maximum number of steps over completed, committed operations.
    pub fn max_steps_committed(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.response_tick.is_some() && !o.aborted)
            .map(|o| o.steps)
            .max()
            .unwrap_or(0)
    }

    /// The mean number of steps over completed operations (committed or
    /// aborted), or 0.0 if there are none.
    pub fn mean_steps(&self) -> f64 {
        let completed: Vec<&OpMetrics> = self
            .ops
            .iter()
            .filter(|o| o.response_tick.is_some())
            .collect();
        if completed.is_empty() {
            return 0.0;
        }
        completed.iter().map(|o| o.steps as f64).sum::<f64>() / completed.len() as f64
    }

    /// The maximum fence count over completed operations.
    pub fn max_fences(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.response_tick.is_some())
            .map(|o| o.fences)
            .max()
            .unwrap_or(0)
    }

    /// Number of operations that aborted.
    pub fn aborted_count(&self) -> usize {
        self.ops.iter().filter(|o| o.aborted).count()
    }

    /// Number of operations that committed.
    pub fn committed_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| o.response_tick.is_some() && !o.aborted)
            .count()
    }

    /// The metrics of a particular request, if recorded.
    pub fn for_request(&self, id: RequestId) -> Option<&OpMetrics> {
        self.ops.iter().find(|o| o.req_id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(steps: u64, foreign: u64, overlap: u64, aborted: bool) -> OpMetrics {
        OpMetrics {
            req_id: RequestId(0),
            proc: ProcessId(0),
            invoke_tick: 0,
            response_tick: Some(1),
            steps,
            fences: 1,
            rmws: 0,
            foreign_steps: foreign,
            overlapping_ops: overlap,
            aborted,
        }
    }

    #[test]
    fn contention_classification() {
        assert_eq!(op(3, 0, 0, false).contention(), ContentionKind::None);
        assert_eq!(
            op(3, 0, 2, false).contention(),
            ContentionKind::IntervalOnly
        );
        assert_eq!(op(3, 5, 2, false).contention(), ContentionKind::Step);
        assert!(op(3, 0, 2, false).step_contention_free());
        assert!(!op(3, 0, 2, false).interval_contention_free());
    }

    #[test]
    fn execution_metrics_aggregates() {
        let m = ExecutionMetrics {
            ops: vec![op(3, 0, 0, false), op(5, 1, 1, false), op(7, 2, 1, true)],
        };
        assert_eq!(m.max_steps_committed(), 5);
        assert_eq!(m.max_fences(), 1);
        assert_eq!(m.aborted_count(), 1);
        assert_eq!(m.committed_count(), 2);
        assert!((m.mean_steps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics() {
        let m = ExecutionMetrics::default();
        assert_eq!(m.max_steps_committed(), 0);
        assert_eq!(m.mean_steps(), 0.0);
        assert_eq!(m.committed_count(), 0);
    }
}
