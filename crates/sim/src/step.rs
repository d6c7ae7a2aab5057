//! The shared pseudo-process-id encoding of scheduling transitions.
//!
//! The explorer schedules more than real process steps: crash steps, message
//! deliveries and message drops are injected as *pseudo-processes* so that one
//! `ProcessId`-valued decision log can record a whole fault-laden execution.
//! For a workload of `n` processes over a network with `cap` message slots the
//! id space is laid out as
//!
//! | raw id             | meaning                               |
//! |--------------------|---------------------------------------|
//! | `p` in `0..n`      | a real step of process `p`            |
//! | `n + p`            | a crash step of process `p`           |
//! | `2n + s`           | delivery of the message in slot `s`   |
//! | `2n + cap + s`     | drop of the message in slot `s`       |
//! | `2n + 2cap + p`    | restart of the crashed process `p`    |
//!
//! [`StepKind`] is the single decoder/encoder for this layout. Every place
//! that needs to interpret a scheduled id — the executor's dispatch and its
//! schedulability check, the survey's delivery ids, the engine's statistics,
//! the transition labels behind races and sleep-set wakes, counterexample
//! artifacts, replay, error messages — goes through [`StepKind::decode`] and
//! [`StepKind::encode`] instead of repeating the arithmetic.

use scl_spec::ProcessId;

/// One decoded scheduling transition: what a raw pseudo-process id means for
/// a workload of `n` processes over a network with `cap` slots.
///
/// See the [module docs](self) for the encoding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A real step of the process.
    Step(ProcessId),
    /// A crash step of the process (encoded `n + p`).
    Crash(ProcessId),
    /// Delivery of the message in the slot (encoded `2n + s`).
    Deliver(usize),
    /// Drop of the message in the slot (encoded `2n + cap + s`).
    Drop(usize),
    /// Restart of the crashed process (encoded `2n + 2cap + p`).
    Restart(ProcessId),
}

impl StepKind {
    /// Decodes a raw scheduled id for `n` processes and `cap` network slots.
    ///
    /// Ids at or beyond `2n + 2*cap + n` do not occur in well-formed
    /// schedules; they decode as a `Restart` of an out-of-range process
    /// rather than panic, so diagnostic paths can still print something for
    /// corrupt input.
    #[inline]
    pub fn decode(id: ProcessId, n: usize, cap: usize) -> StepKind {
        let i = id.index();
        if i < n {
            StepKind::Step(id)
        } else if i < 2 * n {
            StepKind::Crash(ProcessId(i - n))
        } else if i < 2 * n + cap {
            StepKind::Deliver(i - 2 * n)
        } else if i < 2 * n + 2 * cap {
            StepKind::Drop(i - 2 * n - cap)
        } else {
            StepKind::Restart(ProcessId(i - 2 * n - 2 * cap))
        }
    }

    /// Re-encodes this transition as the raw pseudo-process id the explorer
    /// schedules (the inverse of [`StepKind::decode`]).
    #[inline]
    pub fn encode(self, n: usize, cap: usize) -> ProcessId {
        match self {
            StepKind::Step(p) => p,
            StepKind::Crash(p) => ProcessId(n + p.index()),
            StepKind::Deliver(s) => ProcessId(2 * n + s),
            StepKind::Drop(s) => ProcessId(2 * n + cap + s),
            StepKind::Restart(p) => ProcessId(2 * n + 2 * cap + p.index()),
        }
    }

    /// The real process this transition belongs to, if any: the stepping,
    /// crashing or restarting process. Deliveries and drops belong to the
    /// network, not to a process (their *owner* is only known to the memory
    /// layer).
    #[inline]
    pub fn proc(self) -> Option<ProcessId> {
        match self {
            StepKind::Step(p) | StepKind::Crash(p) | StepKind::Restart(p) => Some(p),
            StepKind::Deliver(_) | StepKind::Drop(_) => None,
        }
    }

    /// The happens-before thread of this transition in a workload of `n`
    /// processes: its process for a step, crash or restart (so all of them
    /// sit in that process's program order), and `n + s` for the delivery
    /// or drop of the message in slot `s` (each in-flight message is its
    /// own thread, ordered after its send only through the slot's cell).
    #[inline]
    pub fn thread(self, n: usize) -> ProcessId {
        match self {
            StepKind::Step(p) | StepKind::Crash(p) | StepKind::Restart(p) => p,
            StepKind::Deliver(s) | StepKind::Drop(s) => ProcessId(n + s),
        }
    }

    /// Short human-readable rendering: `p0`, `crash(p0)`, `deliver(s3)`,
    /// `drop(s3)`, `restart(p0)`.
    pub fn describe(self) -> String {
        match self {
            StepKind::Step(p) => format!("{p}"),
            StepKind::Crash(p) => format!("crash({p})"),
            StepKind::Deliver(s) => format!("deliver(s{s})"),
            StepKind::Drop(s) => format!("drop(s{s})"),
            StepKind::Restart(p) => format!("restart({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_covers_all_bands() {
        let (n, cap) = (3, 4);
        assert_eq!(
            StepKind::decode(ProcessId(2), n, cap),
            StepKind::Step(ProcessId(2))
        );
        assert_eq!(
            StepKind::decode(ProcessId(3), n, cap),
            StepKind::Crash(ProcessId(0))
        );
        assert_eq!(
            StepKind::decode(ProcessId(5), n, cap),
            StepKind::Crash(ProcessId(2))
        );
        assert_eq!(StepKind::decode(ProcessId(6), n, cap), StepKind::Deliver(0));
        assert_eq!(StepKind::decode(ProcessId(9), n, cap), StepKind::Deliver(3));
        assert_eq!(StepKind::decode(ProcessId(10), n, cap), StepKind::Drop(0));
        assert_eq!(StepKind::decode(ProcessId(13), n, cap), StepKind::Drop(3));
        assert_eq!(
            StepKind::decode(ProcessId(14), n, cap),
            StepKind::Restart(ProcessId(0))
        );
        assert_eq!(
            StepKind::decode(ProcessId(16), n, cap),
            StepKind::Restart(ProcessId(2))
        );
    }

    #[test]
    fn encode_is_inverse_of_decode() {
        let (n, cap) = (2, 3);
        for raw in 0..(2 * n + 2 * cap + n) {
            let id = ProcessId(raw);
            assert_eq!(StepKind::decode(id, n, cap).encode(n, cap), id);
        }
    }

    /// Satellite: exhaustive encode/decode round-trip over *all* bands for a
    /// sweep of `(n, cap)` geometries, plus the band-membership invariant, so
    /// extending the id space can never silently alias two transitions.
    #[test]
    fn encode_decode_round_trip_sweeps_every_band() {
        for n in 1..=5usize {
            for cap in 0..=4usize {
                let total = 2 * n + 2 * cap + n;
                for raw in 0..total {
                    let id = ProcessId(raw);
                    let kind = StepKind::decode(id, n, cap);
                    assert_eq!(
                        kind.encode(n, cap),
                        id,
                        "round-trip failed at raw={raw} n={n} cap={cap}"
                    );
                    // Band membership must match the documented layout.
                    let expect_band = if raw < n {
                        0
                    } else if raw < 2 * n {
                        1
                    } else if raw < 2 * n + cap {
                        2
                    } else if raw < 2 * n + 2 * cap {
                        3
                    } else {
                        4
                    };
                    let got_band = match kind {
                        StepKind::Step(p) => {
                            assert_eq!(p.index(), raw);
                            0
                        }
                        StepKind::Crash(p) => {
                            assert_eq!(p.index(), raw - n);
                            1
                        }
                        StepKind::Deliver(s) => {
                            assert_eq!(s, raw - 2 * n);
                            2
                        }
                        StepKind::Drop(s) => {
                            assert_eq!(s, raw - 2 * n - cap);
                            3
                        }
                        StepKind::Restart(p) => {
                            assert_eq!(p.index(), raw - 2 * n - 2 * cap);
                            4
                        }
                    };
                    assert_eq!(got_band, expect_band, "band mismatch at raw={raw}");
                }
            }
        }
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(StepKind::Step(ProcessId(1)).describe(), "p1");
        assert_eq!(StepKind::Crash(ProcessId(0)).describe(), "crash(p0)");
        assert_eq!(StepKind::Deliver(2).describe(), "deliver(s2)");
        assert_eq!(StepKind::Drop(7).describe(), "drop(s7)");
        assert_eq!(StepKind::Restart(ProcessId(1)).describe(), "restart(p1)");
    }
}
