//! Concrete sequential object types used throughout the paper and the
//! benchmark harness.
//!
//! * [`TasSpec`] — the (resettable) test-and-set object of §3 / §6. The
//!   one-shot object is the restriction to traces with no [`TasOp::Reset`].
//! * [`ConsensusSpec`] — binary/multivalued consensus (propose).
//! * [`RegisterSpec`] — a read/write register, the weakest base object.
//! * [`CounterSpec`] / [`FetchIncSpec`] — counters, mentioned in §7 as
//!   future-work targets for the framework.
//! * [`QueueSpec`] — a FIFO queue, the classic consensus-number-2 object,
//!   also a §7 target; exercised through the universal construction.

use crate::seqspec::SequentialSpec;

// ---------------------------------------------------------------------------
// Test-and-set
// ---------------------------------------------------------------------------

/// Requests of the (long-lived, resettable) test-and-set object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasOp {
    /// Atomically read the value and set it to 1. The unique process that
    /// reads 0 is the *winner*; all others are *losers*.
    TestAndSet,
    /// Reset the object to 0. Well-formedness (§6.3, \[1\]) requires that only
    /// the current winner calls reset; the sequential spec itself simply
    /// resets the bit.
    Reset,
}

/// Responses of the test-and-set object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasResp {
    /// The caller won the object (read 0, set it to 1).
    Winner,
    /// The caller lost (the object was already set).
    Loser,
    /// Response to a [`TasOp::Reset`] request.
    ResetDone,
}

/// Switch values of the speculative test-and-set construction (Definition 3).
///
/// A module that aborts reports whether, from its point of view, the object
/// has already been won (`L`: the aborting operation has lost and drops from
/// contention) or may still be unwon (`W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TasSwitch {
    /// The object has not (yet) been observed as won: the aborting request is
    /// still in contention for the win.
    W,
    /// The object has been observed as won: the aborting request has lost.
    L,
}

impl std::fmt::Display for TasSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TasSwitch::W => write!(f, "W"),
            TasSwitch::L => write!(f, "L"),
        }
    }
}

/// Sequential specification of the test-and-set object (§3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TasSpec;

impl SequentialSpec for TasSpec {
    /// `false` = unset (0), `true` = set (1).
    type State = bool;
    type Op = TasOp;
    type Resp = TasResp;

    fn initial_state(&self) -> bool {
        false
    }

    fn apply(&self, state: &bool, op: &TasOp) -> (bool, TasResp) {
        match op {
            TasOp::TestAndSet => {
                if *state {
                    (true, TasResp::Loser)
                } else {
                    (true, TasResp::Winner)
                }
            }
            TasOp::Reset => (false, TasResp::ResetDone),
        }
    }
}

// ---------------------------------------------------------------------------
// Consensus
// ---------------------------------------------------------------------------

/// Requests of the consensus object: propose a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsensusOp {
    /// The proposed value.
    pub proposal: u64,
}

/// Sequential specification of (multivalued) consensus: every propose returns
/// the value of the first propose applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ConsensusSpec;

impl SequentialSpec for ConsensusSpec {
    /// `None` until the first proposal decides, then `Some(decision)`.
    type State = Option<u64>;
    type Op = ConsensusOp;
    type Resp = u64;

    fn initial_state(&self) -> Option<u64> {
        None
    }

    fn apply(&self, state: &Option<u64>, op: &ConsensusOp) -> (Option<u64>, u64) {
        match state {
            Some(decided) => (Some(*decided), *decided),
            None => (Some(op.proposal), op.proposal),
        }
    }
}

// ---------------------------------------------------------------------------
// Read/write register
// ---------------------------------------------------------------------------

/// Requests of a read/write register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegisterOp {
    /// Read the current value.
    Read,
    /// Write a new value.
    Write(u64),
}

/// Sequential specification of a multi-writer multi-reader register with
/// initial value 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegisterSpec;

impl SequentialSpec for RegisterSpec {
    type State = u64;
    type Op = RegisterOp;
    /// Reads return the value; writes return the written value (ack).
    type Resp = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &RegisterOp) -> (u64, u64) {
        match op {
            RegisterOp::Read => (*state, *state),
            RegisterOp::Write(v) => (*v, *v),
        }
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Requests of a counter object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// Increment the counter and return its previous value.
    Increment,
    /// Read the counter.
    Read,
}

/// Sequential specification of a counter starting at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CounterSpec;

impl SequentialSpec for CounterSpec {
    type State = u64;
    type Op = CounterOp;
    type Resp = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, op: &CounterOp) -> (u64, u64) {
        match op {
            CounterOp::Increment => (*state + 1, *state),
            CounterOp::Read => (*state, *state),
        }
    }
}

// ---------------------------------------------------------------------------
// Fetch-and-increment
// ---------------------------------------------------------------------------

/// The single request of a fetch-and-increment register (§7 mentions
/// fetch-and-increment registers as a future-work target of the framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchIncOp;

/// Sequential specification of fetch-and-increment: returns the pre-increment
/// value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FetchIncSpec;

impl SequentialSpec for FetchIncSpec {
    type State = u64;
    type Op = FetchIncOp;
    type Resp = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply(&self, state: &u64, _op: &FetchIncOp) -> (u64, u64) {
        (*state + 1, *state)
    }
}

// ---------------------------------------------------------------------------
// FIFO queue
// ---------------------------------------------------------------------------

/// Requests of a FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueOp {
    /// Enqueue a value at the tail.
    Enqueue(u64),
    /// Dequeue from the head; returns `None` response encoded as
    /// [`QueueResp::Empty`] when the queue is empty.
    Dequeue,
}

/// Responses of a FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueResp {
    /// Acknowledgement of an enqueue.
    Enqueued,
    /// A dequeued value.
    Dequeued(u64),
    /// The queue was empty.
    Empty,
}

/// Sequential specification of a FIFO queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QueueSpec;

impl SequentialSpec for QueueSpec {
    type State = std::collections::VecDeque<u64>;
    type Op = QueueOp;
    type Resp = QueueResp;

    fn initial_state(&self) -> Self::State {
        std::collections::VecDeque::new()
    }

    fn apply(&self, state: &Self::State, op: &QueueOp) -> (Self::State, QueueResp) {
        let mut next = state.clone();
        match op {
            QueueOp::Enqueue(v) => {
                next.push_back(*v);
                (next, QueueResp::Enqueued)
            }
            QueueOp::Dequeue => match next.pop_front() {
                Some(v) => (next, QueueResp::Dequeued(v)),
                None => (next, QueueResp::Empty),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tas_first_wins_rest_lose() {
        let spec = TasSpec;
        let (_, resps) = spec.run(&[TasOp::TestAndSet, TasOp::TestAndSet, TasOp::TestAndSet]);
        assert_eq!(resps, vec![TasResp::Winner, TasResp::Loser, TasResp::Loser]);
    }

    #[test]
    fn tas_reset_allows_new_winner() {
        let spec = TasSpec;
        let (_, resps) = spec.run(&[
            TasOp::TestAndSet,
            TasOp::Reset,
            TasOp::TestAndSet,
            TasOp::TestAndSet,
        ]);
        assert_eq!(
            resps,
            vec![
                TasResp::Winner,
                TasResp::ResetDone,
                TasResp::Winner,
                TasResp::Loser
            ]
        );
    }

    #[test]
    fn consensus_returns_first_proposal_to_everyone() {
        let spec = ConsensusSpec;
        let (_, resps) = spec.run(&[
            ConsensusOp { proposal: 7 },
            ConsensusOp { proposal: 9 },
            ConsensusOp { proposal: 3 },
        ]);
        assert_eq!(resps, vec![7, 7, 7]);
    }

    #[test]
    fn register_reads_see_latest_write() {
        let spec = RegisterSpec;
        let (_, resps) = spec.run(&[
            RegisterOp::Read,
            RegisterOp::Write(5),
            RegisterOp::Read,
            RegisterOp::Write(2),
            RegisterOp::Read,
        ]);
        assert_eq!(resps, vec![0, 5, 5, 2, 2]);
    }

    #[test]
    fn counter_increment_returns_previous_value() {
        let spec = CounterSpec;
        let (state, resps) =
            spec.run(&[CounterOp::Increment, CounterOp::Increment, CounterOp::Read]);
        assert_eq!(state, 2);
        assert_eq!(resps, vec![0, 1, 2]);
    }

    #[test]
    fn fetch_inc_is_a_counter_without_reads() {
        let spec = FetchIncSpec;
        let (state, resps) = spec.run(&[FetchIncOp, FetchIncOp, FetchIncOp]);
        assert_eq!(state, 3);
        assert_eq!(resps, vec![0, 1, 2]);
    }

    #[test]
    fn queue_is_fifo() {
        let spec = QueueSpec;
        let (_, resps) = spec.run(&[
            QueueOp::Enqueue(1),
            QueueOp::Enqueue(2),
            QueueOp::Dequeue,
            QueueOp::Dequeue,
            QueueOp::Dequeue,
        ]);
        assert_eq!(
            resps,
            vec![
                QueueResp::Enqueued,
                QueueResp::Enqueued,
                QueueResp::Dequeued(1),
                QueueResp::Dequeued(2),
                QueueResp::Empty
            ]
        );
    }

    #[test]
    fn tas_switch_display() {
        assert_eq!(TasSwitch::W.to_string(), "W");
        assert_eq!(TasSwitch::L.to_string(), "L");
    }
}
