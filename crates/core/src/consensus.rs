//! Abortable consensus (Appendix A) and the wait-free baseline.
//!
//! The universal construction of §4 is parameterised by a consensus object
//! that may abort under contention. This module provides:
//!
//! * [`Splitter`] — a Moir–Anderson splitter built from two registers, the
//!   contention detector used by SplitConsensus.
//! * [`SplitConsensus`] — Algorithm 3: constant step complexity, commits in
//!   the absence of *interval* contention (after Luchangco, Moir and
//!   Shavit), registers only.
//! * [`AbortableBakery`] — Algorithm 4: `O(n)` step complexity, commits in
//!   the absence of *step* contention (an abortable variant of the solo-fast
//!   consensus of Attiya et al.), registers only.
//! * [`CasConsensus`] — the wait-free baseline: a single compare-and-swap
//!   register (consensus number ∞); never aborts.
//!
//! Each algorithm implements [`AbortableConsensus`]: a *raw* single `propose`
//! ([`AbortableConsensus::propose_once`]) plus the two-phase wrapper of the
//! paper (`SplitConsensus(old, v)` / `AbortableBakery(old, v)`), which first
//! proposes the value inherited from a previous instance (`old`, possibly
//! `⊥`) and only then the process's own proposal. [`ConsensusObject`] adapts
//! any of them to a standalone [`SimObject`] so the experiment harness can
//! measure their step complexity and abort rates directly.

use scl_sim::{
    Footprint, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory, SimObject, StepOutcome,
    Value,
};
use scl_spec::{ConsensusOp, ConsensusSpec, ProcessId, Request};

/// The sentinel encoding of the unset value `⊥` in consensus registers.
const NIL: i64 = i64::MIN;

fn to_code(v: Option<i64>) -> i64 {
    v.unwrap_or(NIL)
}

fn from_code(c: i64) -> Option<i64> {
    if c == NIL {
        None
    } else {
        Some(c)
    }
}

/// Outcome of a consensus propose: a commit or an abort, each carrying a
/// (possibly `⊥`) value. On abort the value is only tentative — agreement is
/// not guaranteed (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusOutcome {
    /// The instance committed the value (`None` encodes `⊥`).
    Commit(Option<i64>),
    /// The instance aborted; the value is the current tentative decision.
    Abort(Option<i64>),
}

impl ConsensusOutcome {
    /// The carried value regardless of indication.
    pub fn value(&self) -> Option<i64> {
        match self {
            ConsensusOutcome::Commit(v) | ConsensusOutcome::Abort(v) => *v,
        }
    }

    /// Whether the outcome is a commit.
    pub fn is_commit(&self) -> bool {
        matches!(self, ConsensusOutcome::Commit(_))
    }
}

/// A consensus propose in progress; one shared-memory step per call, `None`
/// means "not finished yet".
pub trait ConsensusExec {
    /// Performs at most one shared-memory step.
    fn step(&mut self, mem: &mut SharedMemory) -> Option<ConsensusOutcome>;

    /// Duplicates the in-flight propose so executions embedding it (the
    /// universal construction, [`ConsensusObject`]) can be checkpointed by
    /// the schedule explorer. `None` (the default) opts out; the explorer
    /// then falls back to prefix replay.
    fn fork(&self) -> Option<Box<dyn ConsensusExec>> {
        None
    }

    /// The access footprint of the next [`Self::step`] call (must depend on
    /// local state only); [`Footprint::Unknown`] is always sound.
    fn next_footprint(&self) -> Footprint {
        Footprint::Unknown
    }
}

/// An abortable consensus object usable inside the universal construction.
pub trait AbortableConsensus: Clone + 'static {
    /// Allocates a fresh instance for `n` processes.
    fn allocate(mem: &mut SharedMemory, n: usize) -> Self;

    /// The raw `propose` procedure of the algorithm (a single phase).
    fn propose_once(&self, p: ProcessId, value: Option<i64>) -> Box<dyn ConsensusExec>;

    /// Short human-readable name.
    fn algorithm_name() -> &'static str;

    /// Whether the algorithm is wait-free (never aborts).
    fn never_aborts() -> bool {
        false
    }

    /// The two-phase wrapper of Appendix A (`SplitConsensus(old, v)`): first
    /// propose the inherited value `old`; if that aborts, abort with `old`;
    /// if it commits a non-`⊥` value, commit it; if it commits `⊥`, propose
    /// the process's own value `v`.
    ///
    /// When there is no inherited value (`old = ⊥`) the first phase is
    /// skipped: proposing `⊥` carries no information, and in the bakery it
    /// would pollute the timestamp arrays with `⊥` estimates. The second
    /// phase adopts any existing estimate before using `value`, so agreement
    /// is unaffected and the uncontended step complexity is halved.
    fn propose(&self, p: ProcessId, old: Option<i64>, value: i64) -> Box<dyn ConsensusExec>
    where
        Self: Sized,
    {
        if old.is_none() {
            return self.propose_once(p, Some(value));
        }
        Box::new(TwoPhaseExec {
            obj: self.clone(),
            p,
            old,
            value,
            phase: TwoPhase::First(self.propose_once(p, old)),
        })
    }
}

enum TwoPhase {
    First(Box<dyn ConsensusExec>),
    Second(Box<dyn ConsensusExec>),
}

struct TwoPhaseExec<C: AbortableConsensus> {
    obj: C,
    p: ProcessId,
    old: Option<i64>,
    value: i64,
    phase: TwoPhase,
}

impl<C: AbortableConsensus> ConsensusExec for TwoPhaseExec<C> {
    fn step(&mut self, mem: &mut SharedMemory) -> Option<ConsensusOutcome> {
        match &mut self.phase {
            TwoPhase::First(exec) => match exec.step(mem)? {
                ConsensusOutcome::Abort(_) => Some(ConsensusOutcome::Abort(self.old)),
                ConsensusOutcome::Commit(Some(v)) => Some(ConsensusOutcome::Commit(Some(v))),
                ConsensusOutcome::Commit(None) => {
                    self.phase = TwoPhase::Second(self.obj.propose_once(self.p, Some(self.value)));
                    None
                }
            },
            TwoPhase::Second(exec) => exec.step(mem),
        }
    }

    fn fork(&self) -> Option<Box<dyn ConsensusExec>> {
        let phase = match &self.phase {
            TwoPhase::First(exec) => TwoPhase::First(exec.fork()?),
            TwoPhase::Second(exec) => TwoPhase::Second(exec.fork()?),
        };
        Some(Box::new(TwoPhaseExec {
            obj: self.obj.clone(),
            p: self.p,
            old: self.old,
            value: self.value,
            phase,
        }))
    }

    fn next_footprint(&self) -> Footprint {
        match &self.phase {
            TwoPhase::First(exec) | TwoPhase::Second(exec) => exec.next_footprint(),
        }
    }
}

// ---------------------------------------------------------------------------
// Splitter
// ---------------------------------------------------------------------------

/// A Moir–Anderson splitter built from two registers: at most one process
/// returns `stop` per acquisition round; a process running alone always
/// stops. Used by [`SplitConsensus`] to detect interval contention.
#[derive(Debug, Clone, Copy)]
pub struct Splitter {
    x: RegId,
    y: RegId,
}

/// Result of a splitter acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitterResult {
    /// The process acquired the splitter (it ran alone through it).
    Stop,
    /// The process detected contention.
    Lose,
}

impl Splitter {
    /// Allocates a fresh splitter.
    pub fn new(mem: &mut SharedMemory) -> Self {
        Splitter {
            x: mem.alloc("splitter.X", Value::NULL),
            y: mem.alloc("splitter.Y", Value::FALSE),
        }
    }

    /// Begins an acquisition by process `p` (4 shared-memory steps at most).
    pub fn acquire(&self, p: ProcessId) -> SplitterExec {
        SplitterExec {
            regs: *self,
            p,
            pc: SplitterPc::WriteX,
        }
    }

    /// Resets the splitter (one write). Only meaningful when the resetter
    /// knows no other process is inside the splitter (the uncontended
    /// committer in SplitConsensus).
    pub fn reset(&self, p: ProcessId, mem: &mut SharedMemory) {
        mem.write(p, self.y, Value::FALSE);
    }
}

#[derive(Debug, Clone, Copy)]
enum SplitterPc {
    WriteX,
    ReadY,
    WriteY,
    ReadX,
}

/// A splitter acquisition in progress.
#[derive(Debug, Clone, Copy)]
pub struct SplitterExec {
    regs: Splitter,
    p: ProcessId,
    pc: SplitterPc,
}

impl SplitterExec {
    /// The register the next [`Self::step`] call accesses.
    pub fn next_footprint(&self) -> Footprint {
        match self.pc {
            SplitterPc::WriteX => Footprint::Write(self.regs.x),
            SplitterPc::ReadY => Footprint::Read(self.regs.y),
            SplitterPc::WriteY => Footprint::Write(self.regs.y),
            SplitterPc::ReadX => Footprint::Read(self.regs.x),
        }
    }
    /// Performs one shared-memory step; returns the result when finished.
    pub fn step(&mut self, mem: &mut SharedMemory) -> Option<SplitterResult> {
        match self.pc {
            SplitterPc::WriteX => {
                mem.write(self.p, self.regs.x, Value::proc(self.p));
                self.pc = SplitterPc::ReadY;
                None
            }
            SplitterPc::ReadY => {
                if mem.read(self.p, self.regs.y).as_bool() {
                    Some(SplitterResult::Lose)
                } else {
                    self.pc = SplitterPc::WriteY;
                    None
                }
            }
            SplitterPc::WriteY => {
                mem.write(self.p, self.regs.y, Value::TRUE);
                self.pc = SplitterPc::ReadX;
                None
            }
            SplitterPc::ReadX => {
                if mem.read(self.p, self.regs.x).as_opt_proc() == Some(self.p) {
                    Some(SplitterResult::Stop)
                } else {
                    Some(SplitterResult::Lose)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SplitConsensus (Algorithm 3)
// ---------------------------------------------------------------------------

/// The SplitConsensus abortable consensus (Algorithm 3): a splitter plus a
/// value register `V` and a contention flag `C`. Constant step complexity;
/// commits when run without interval contention.
#[derive(Debug, Clone, Copy)]
pub struct SplitConsensus {
    splitter: Splitter,
    v: RegId,
    c: RegId,
}

impl AbortableConsensus for SplitConsensus {
    fn allocate(mem: &mut SharedMemory, _n: usize) -> Self {
        SplitConsensus {
            splitter: Splitter::new(mem),
            v: mem.alloc("split.V", Value::int(NIL)),
            c: mem.alloc("split.C", Value::FALSE),
        }
    }

    fn propose_once(&self, p: ProcessId, value: Option<i64>) -> Box<dyn ConsensusExec> {
        Box::new(SplitExec {
            regs: *self,
            p,
            value: to_code(value),
            pc: SplitPc::Splitter(self.splitter.acquire(p)),
        })
    }

    fn algorithm_name() -> &'static str {
        "SplitConsensus"
    }
}

#[derive(Clone, Copy)]
enum SplitPc {
    Splitter(SplitterExec),
    ReadV,
    ReadCAfterExisting(i64),
    ResetSplitterExisting(i64),
    WriteV,
    ReadCAfterWrite,
    ResetSplitter,
    WriteContention,
    ReadVForAbort,
}

#[derive(Clone, Copy)]
struct SplitExec {
    regs: SplitConsensus,
    p: ProcessId,
    value: i64,
    pc: SplitPc,
}

impl ConsensusExec for SplitExec {
    fn step(&mut self, mem: &mut SharedMemory) -> Option<ConsensusOutcome> {
        match &mut self.pc {
            SplitPc::Splitter(exec) => {
                match exec.step(mem) {
                    None => {}
                    Some(SplitterResult::Stop) => self.pc = SplitPc::ReadV,
                    Some(SplitterResult::Lose) => self.pc = SplitPc::WriteContention,
                }
                None
            }
            SplitPc::ReadV => {
                let v = mem.read(self.p, self.regs.v).as_int();
                if v != NIL {
                    self.pc = SplitPc::ReadCAfterExisting(v);
                } else {
                    self.pc = SplitPc::WriteV;
                }
                None
            }
            SplitPc::ReadCAfterExisting(v) => {
                let v = *v;
                if mem.read(self.p, self.regs.c).as_bool() {
                    Some(ConsensusOutcome::Abort(from_code(v)))
                } else {
                    // Release the splitter before committing the existing
                    // decision, so that later uncontended proposals (e.g.
                    // another process replaying an already-decided slot of
                    // the universal construction) can still acquire it.
                    self.pc = SplitPc::ResetSplitterExisting(v);
                    None
                }
            }
            SplitPc::ResetSplitterExisting(v) => {
                let v = *v;
                self.regs.splitter.reset(self.p, mem);
                Some(ConsensusOutcome::Commit(from_code(v)))
            }
            SplitPc::WriteV => {
                mem.write(self.p, self.regs.v, Value::int(self.value));
                self.pc = SplitPc::ReadCAfterWrite;
                None
            }
            SplitPc::ReadCAfterWrite => {
                if mem.read(self.p, self.regs.c).as_bool() {
                    Some(ConsensusOutcome::Abort(from_code(self.value)))
                } else {
                    self.pc = SplitPc::ResetSplitter;
                    None
                }
            }
            SplitPc::ResetSplitter => {
                self.regs.splitter.reset(self.p, mem);
                Some(ConsensusOutcome::Commit(from_code(self.value)))
            }
            SplitPc::WriteContention => {
                mem.write(self.p, self.regs.c, Value::TRUE);
                self.pc = SplitPc::ReadVForAbort;
                None
            }
            SplitPc::ReadVForAbort => {
                let v = mem.read(self.p, self.regs.v).as_int();
                Some(ConsensusOutcome::Abort(from_code(v)))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn ConsensusExec>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        match &self.pc {
            SplitPc::Splitter(exec) => exec.next_footprint(),
            SplitPc::ReadV | SplitPc::ReadVForAbort => Footprint::Read(self.regs.v),
            SplitPc::ReadCAfterExisting(_) | SplitPc::ReadCAfterWrite => {
                Footprint::Read(self.regs.c)
            }
            // Splitter::reset writes the splitter's Y register.
            SplitPc::ResetSplitterExisting(_) | SplitPc::ResetSplitter => {
                Footprint::Write(self.regs.splitter.y)
            }
            SplitPc::WriteV => Footprint::Write(self.regs.v),
            SplitPc::WriteContention => Footprint::Write(self.regs.c),
        }
    }
}

// ---------------------------------------------------------------------------
// AbortableBakery (Algorithm 4)
// ---------------------------------------------------------------------------

/// The AbortableBakery abortable consensus (Algorithm 4): timestamp arrays
/// `(A_i)` and `(B_i)`, a `Quit` flag and a `Dec` register. `O(n)` step
/// complexity; commits in the absence of step contention.
#[derive(Debug, Clone)]
pub struct AbortableBakery {
    a: std::rc::Rc<Vec<RegId>>,
    b: std::rc::Rc<Vec<RegId>>,
    quit: RegId,
    dec: RegId,
}

impl AbortableConsensus for AbortableBakery {
    fn allocate(mem: &mut SharedMemory, n: usize) -> Self {
        let a = (0..n)
            .map(|i| mem.alloc(&format!("bakery.A[{i}]"), Value::NULL))
            .collect();
        let b = (0..n)
            .map(|i| mem.alloc(&format!("bakery.B[{i}]"), Value::NULL))
            .collect();
        AbortableBakery {
            a: std::rc::Rc::new(a),
            b: std::rc::Rc::new(b),
            quit: mem.alloc("bakery.Quit", Value::FALSE),
            dec: mem.alloc("bakery.Dec", Value::int(NIL)),
        }
    }

    fn propose_once(&self, p: ProcessId, value: Option<i64>) -> Box<dyn ConsensusExec> {
        Box::new(BakeryExec {
            regs: self.clone(),
            p,
            input: to_code(value),
            collected: Vec::new(),
            k: 0,
            v: NIL,
            pc: BakeryPc::CollectA1(0),
        })
    }

    fn algorithm_name() -> &'static str {
        "AbortableBakery"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BakeryPc {
    /// First collect of `(A_i)`; the payload is the next index to read.
    CollectA1(usize),
    /// Collect of `(B_i)` when no timestamp was adopted from `A`.
    CollectB(usize),
    /// Write `(k_i, v_i)` to `A_i`.
    WriteA,
    /// Second collect of `(A_i)`.
    CollectA2(usize),
    /// Write `(k_i, v_i)` to `B_i`.
    WriteB,
    /// Third collect of `(A_i)`.
    CollectA3(usize),
    /// Read `Quit`.
    ReadQuit,
    /// Write `Dec` and commit.
    WriteDec,
    /// Write `Quit ← true` (abort path).
    WriteQuit,
    /// Read `Dec` and abort with it.
    ReadDec,
}

#[derive(Clone)]
struct BakeryExec {
    regs: AbortableBakery,
    p: ProcessId,
    input: i64,
    collected: Vec<Option<(i64, i64)>>,
    k: i64,
    v: i64,
    pc: BakeryPc,
}

impl BakeryExec {
    /// The minimal timestamp `k` such that the collected values contain no
    /// timestamp larger than `k` and no two distinct values with timestamp
    /// `k`.
    fn minimal_timestamp(collected: &[Option<(i64, i64)>]) -> i64 {
        let max_ts = collected
            .iter()
            .flatten()
            .map(|(k, _)| *k)
            .max()
            .unwrap_or(0);
        let mut k = max_ts;
        loop {
            let values_at_k: std::collections::BTreeSet<i64> = collected
                .iter()
                .flatten()
                .filter(|(ts, _)| *ts == k)
                .map(|(_, v)| *v)
                .collect();
            if values_at_k.len() <= 1 {
                return k;
            }
            k += 1;
        }
    }

    /// Whether the collect is "clean" for `(k, v)`: no timestamp larger than
    /// `k` and no value other than `v` with timestamp `k`.
    fn clean(collected: &[Option<(i64, i64)>], k: i64, v: i64) -> bool {
        collected
            .iter()
            .flatten()
            .all(|(ts, val)| *ts < k || (*ts == k && *val == v))
    }
}

impl ConsensusExec for BakeryExec {
    fn step(&mut self, mem: &mut SharedMemory) -> Option<ConsensusOutcome> {
        let n = self.regs.a.len();
        match self.pc {
            BakeryPc::CollectA1(i) => {
                self.collected
                    .push(mem.read(self.p, self.regs.a[i]).as_opt_int_pair());
                if i + 1 < n {
                    self.pc = BakeryPc::CollectA1(i + 1);
                    return None;
                }
                self.k = Self::minimal_timestamp(&self.collected);
                if let Some((_, v)) = self
                    .collected
                    .iter()
                    .flatten()
                    .find(|(ts, _)| *ts == self.k)
                {
                    self.v = *v;
                    self.pc = BakeryPc::WriteA;
                } else {
                    self.collected.clear();
                    self.pc = BakeryPc::CollectB(0);
                }
                None
            }
            BakeryPc::CollectB(i) => {
                self.collected
                    .push(mem.read(self.p, self.regs.b[i]).as_opt_int_pair());
                if i + 1 < n {
                    self.pc = BakeryPc::CollectB(i + 1);
                    return None;
                }
                self.v = self
                    .collected
                    .iter()
                    .flatten()
                    .max_by_key(|(ts, _)| *ts)
                    .map(|(_, v)| *v)
                    .unwrap_or(self.input);
                self.pc = BakeryPc::WriteA;
                None
            }
            BakeryPc::WriteA => {
                mem.write(
                    self.p,
                    self.regs.a[self.p.index()],
                    Value::int_pair(self.k, self.v),
                );
                self.collected.clear();
                self.pc = BakeryPc::CollectA2(0);
                None
            }
            BakeryPc::CollectA2(i) => {
                self.collected
                    .push(mem.read(self.p, self.regs.a[i]).as_opt_int_pair());
                if i + 1 < n {
                    self.pc = BakeryPc::CollectA2(i + 1);
                    return None;
                }
                if Self::clean(&self.collected, self.k, self.v) {
                    self.pc = BakeryPc::WriteB;
                } else {
                    self.pc = BakeryPc::WriteQuit;
                }
                None
            }
            BakeryPc::WriteB => {
                mem.write(
                    self.p,
                    self.regs.b[self.p.index()],
                    Value::int_pair(self.k, self.v),
                );
                self.collected.clear();
                self.pc = BakeryPc::CollectA3(0);
                None
            }
            BakeryPc::CollectA3(i) => {
                self.collected
                    .push(mem.read(self.p, self.regs.a[i]).as_opt_int_pair());
                if i + 1 < n {
                    self.pc = BakeryPc::CollectA3(i + 1);
                    return None;
                }
                if Self::clean(&self.collected, self.k, self.v) {
                    self.pc = BakeryPc::ReadQuit;
                } else {
                    self.pc = BakeryPc::WriteQuit;
                }
                None
            }
            BakeryPc::ReadQuit => {
                if mem.read(self.p, self.regs.quit).as_bool() {
                    self.pc = BakeryPc::WriteQuit;
                } else {
                    self.pc = BakeryPc::WriteDec;
                }
                None
            }
            BakeryPc::WriteDec => {
                mem.write(self.p, self.regs.dec, Value::int(self.v));
                Some(ConsensusOutcome::Commit(from_code(self.v)))
            }
            BakeryPc::WriteQuit => {
                mem.write(self.p, self.regs.quit, Value::TRUE);
                self.pc = BakeryPc::ReadDec;
                None
            }
            BakeryPc::ReadDec => {
                let d = mem.read(self.p, self.regs.dec).as_int();
                Some(ConsensusOutcome::Abort(from_code(d)))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn ConsensusExec>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            BakeryPc::CollectA1(i) | BakeryPc::CollectA2(i) | BakeryPc::CollectA3(i) => {
                Footprint::Read(self.regs.a[i])
            }
            BakeryPc::CollectB(i) => Footprint::Read(self.regs.b[i]),
            BakeryPc::WriteA => Footprint::Write(self.regs.a[self.p.index()]),
            BakeryPc::WriteB => Footprint::Write(self.regs.b[self.p.index()]),
            BakeryPc::ReadQuit => Footprint::Read(self.regs.quit),
            BakeryPc::WriteDec => Footprint::Write(self.regs.dec),
            BakeryPc::WriteQuit => Footprint::Write(self.regs.quit),
            BakeryPc::ReadDec => Footprint::Read(self.regs.dec),
        }
    }
}

// ---------------------------------------------------------------------------
// Wait-free CAS-based consensus
// ---------------------------------------------------------------------------

/// Wait-free consensus from a single compare-and-swap register (consensus
/// number ∞). Never aborts; two shared-memory steps per propose.
#[derive(Debug, Clone, Copy)]
pub struct CasConsensus {
    dec: RegId,
}

impl AbortableConsensus for CasConsensus {
    fn allocate(mem: &mut SharedMemory, _n: usize) -> Self {
        CasConsensus {
            dec: mem.alloc("cas.Dec", Value::int(NIL)),
        }
    }

    fn propose_once(&self, p: ProcessId, value: Option<i64>) -> Box<dyn ConsensusExec> {
        Box::new(CasExec {
            dec: self.dec,
            p,
            value: to_code(value),
            done_cas: false,
        })
    }

    fn algorithm_name() -> &'static str {
        "CasConsensus"
    }

    fn never_aborts() -> bool {
        true
    }
}

#[derive(Clone, Copy)]
struct CasExec {
    dec: RegId,
    p: ProcessId,
    value: i64,
    done_cas: bool,
}

impl ConsensusExec for CasExec {
    fn step(&mut self, mem: &mut SharedMemory) -> Option<ConsensusOutcome> {
        if !self.done_cas {
            // Proposing ⊥ must not claim the decision slot.
            if self.value != NIL {
                mem.compare_and_swap(self.p, self.dec, Value::int(NIL), Value::int(self.value));
            } else {
                mem.read(self.p, self.dec);
            }
            self.done_cas = true;
            return None;
        }
        let d = mem.read(self.p, self.dec).as_int();
        Some(ConsensusOutcome::Commit(from_code(d)))
    }

    fn fork(&self) -> Option<Box<dyn ConsensusExec>> {
        Some(Box::new(*self))
    }

    fn next_footprint(&self) -> Footprint {
        if !self.done_cas && self.value != NIL {
            Footprint::Write(self.dec)
        } else {
            Footprint::Read(self.dec)
        }
    }
}

// ---------------------------------------------------------------------------
// Standalone SimObject adapter
// ---------------------------------------------------------------------------

/// Switch values of standalone consensus objects: the tentative decision
/// carried by an abort (`None` = `⊥`).
pub type ConsensusSwitch = Option<i64>;

/// Adapts an [`AbortableConsensus`] algorithm to a standalone [`SimObject`]
/// over [`ConsensusSpec`], for direct measurement of step complexity and
/// abort rates (experiment E4).
#[derive(Debug, Clone)]
pub struct ConsensusObject<C: AbortableConsensus> {
    inner: C,
}

impl<C: AbortableConsensus> ConsensusObject<C> {
    /// Allocates a standalone consensus object for `n` processes.
    pub fn new(mem: &mut SharedMemory, n: usize) -> Self {
        ConsensusObject {
            inner: C::allocate(mem, n),
        }
    }

    /// Access to the underlying algorithm instance.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

struct ConsensusObjectExec {
    exec: Box<dyn ConsensusExec>,
}

impl OpExecution<ConsensusSpec, ConsensusSwitch> for ConsensusObjectExec {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<ConsensusSpec, ConsensusSwitch> {
        match self.exec.step(mem) {
            None => StepOutcome::Continue,
            Some(ConsensusOutcome::Commit(Some(v))) => {
                StepOutcome::Done(OpOutcome::Commit(v as u64))
            }
            // A commit of ⊥ cannot be mapped to a decision; report it as an
            // abort with no tentative value.
            Some(ConsensusOutcome::Commit(None)) => StepOutcome::Done(OpOutcome::Abort(None)),
            Some(ConsensusOutcome::Abort(v)) => StepOutcome::Done(OpOutcome::Abort(v)),
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<ConsensusSpec, ConsensusSwitch>>> {
        Some(Box::new(ConsensusObjectExec {
            exec: self.exec.fork()?,
        }))
    }

    fn next_footprint(&self) -> Footprint {
        self.exec.next_footprint()
    }
}

impl<C: AbortableConsensus> SimObject<ConsensusSpec, ConsensusSwitch> for ConsensusObject<C> {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<ConsensusSpec>,
        switch: Option<ConsensusSwitch>,
    ) -> Box<dyn OpExecution<ConsensusSpec, ConsensusSwitch>> {
        let ConsensusOp { proposal } = req.op;
        let old = switch.flatten();
        Box::new(ConsensusObjectExec {
            exec: self.inner.propose(req.proc, old, proposal as i64),
        })
    }

    fn name(&self) -> &'static str {
        C::algorithm_name()
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // Every provided consensus algorithm keeps its whole state in shared
        // registers; the instance structs are plain register handles.
        Some(ObjectSnapshot::stateless())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::{
        explore_schedules, Executor, ExploreConfig, InvokeAllThenSequential, RandomAdversary,
        RoundRobinAdversary, SoloAdversary, Workload,
    };
    use scl_spec::{check_linearizable, ConsensusSpec};

    type Wl = Workload<ConsensusSpec, ConsensusSwitch>;

    fn proposals_workload(values: &[u64]) -> Wl {
        Workload {
            ops: values
                .iter()
                .map(|v| vec![(ConsensusOp { proposal: *v }, None)])
                .collect(),
        }
    }

    fn agreement_and_validity_check(
        res: &scl_sim::ExecutionResult<ConsensusSpec, ConsensusSwitch>,
        proposals: &[u64],
    ) -> Result<(), String> {
        let decisions: Vec<u64> = res.trace().commits().iter().map(|(_, d)| *d).collect();
        if decisions.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("agreement violated: {decisions:?}"));
        }
        if let Some(d) = decisions.first() {
            if !proposals.contains(d) {
                return Err(format!(
                    "validity violated: decided {d}, proposed {proposals:?}"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn split_consensus_solo_commits_own_value_in_constant_steps() {
        let mut mem = SharedMemory::new();
        let mut obj: ConsensusObject<SplitConsensus> = ConsensusObject::new(&mut mem, 1);
        let res = Executor::new().run(
            &mut mem,
            &mut obj,
            &proposals_workload(&[42]),
            &mut SoloAdversary,
        );
        assert!(res.completed);
        assert_eq!(res.trace().commits()[0].1, 42);
        assert!(
            res.metrics.ops[0].steps <= 16,
            "steps = {}",
            res.metrics.ops[0].steps
        );
        assert_eq!(res.metrics.ops[0].rmws, 0);
        assert_eq!(mem.max_required_consensus_number(), Some(1));
    }

    #[test]
    fn split_consensus_sequential_agreement() {
        let mut mem = SharedMemory::new();
        let mut obj: ConsensusObject<SplitConsensus> = ConsensusObject::new(&mut mem, 3);
        let proposals = [7, 9, 11];
        let res = Executor::new().run(
            &mut mem,
            &mut obj,
            &proposals_workload(&proposals),
            &mut SoloAdversary,
        );
        assert!(res.completed);
        agreement_and_validity_check(&res, &proposals).unwrap();
        // Everyone committed (no contention), and the first value won.
        assert_eq!(res.metrics.committed_count(), 3);
        assert_eq!(res.trace().commits()[0].1, 7);
    }

    #[test]
    fn split_consensus_aborts_under_step_contention_but_stays_safe() {
        for seed in 0..20 {
            let mut mem = SharedMemory::new();
            let mut obj: ConsensusObject<SplitConsensus> = ConsensusObject::new(&mut mem, 3);
            let proposals = [1, 2, 3];
            let res = Executor::new().run(
                &mut mem,
                &mut obj,
                &proposals_workload(&proposals),
                &mut RandomAdversary::new(seed),
            );
            assert!(res.completed);
            agreement_and_validity_check(&res, &proposals).unwrap();
        }
    }

    #[test]
    fn split_consensus_exhaustive_two_processes() {
        let proposals = [5, 6];
        explore_schedules(
            |mem| ConsensusObject::<SplitConsensus>::new(mem, 2),
            &proposals_workload(&proposals),
            &ExploreConfig::default(),
            |res, _| {
                if !res.completed {
                    return Err("did not complete".into());
                }
                agreement_and_validity_check(res, &proposals)?;
                if !check_linearizable(&ConsensusSpec, &res.trace().commit_projection())
                    .is_linearizable()
                {
                    return Err("commit projection not linearizable".into());
                }
                Ok(())
            },
        )
        .expect("SplitConsensus must satisfy agreement/validity under every schedule");
    }

    #[test]
    fn bakery_solo_commits_own_value_with_linear_steps() {
        for n in [1usize, 2, 4, 8] {
            let mut mem = SharedMemory::new();
            let mut obj: ConsensusObject<AbortableBakery> = ConsensusObject::new(&mut mem, n);
            let mut wl_ops = vec![Vec::new(); n];
            wl_ops[0] = vec![(ConsensusOp { proposal: 33 }, None)];
            let wl: Wl = Workload { ops: wl_ops };
            let res = Executor::new().run(&mut mem, &mut obj, &wl, &mut SoloAdversary);
            assert!(res.completed);
            assert_eq!(res.trace().commits()[0].1, 33);
            let steps = res.metrics.ops[0].steps;
            // Two propose phases, each with up to 3 collects of n registers
            // plus a constant number of extra accesses.
            assert!(steps >= 2 * n as u64, "n={n}, steps={steps}");
            assert!(steps <= (8 * n + 12) as u64, "n={n}, steps={steps}");
            assert_eq!(res.metrics.ops[0].rmws, 0);
        }
    }

    #[test]
    fn bakery_sequential_agreement_and_no_aborts() {
        let mut mem = SharedMemory::new();
        let mut obj: ConsensusObject<AbortableBakery> = ConsensusObject::new(&mut mem, 3);
        let proposals = [4, 5, 6];
        let res = Executor::new().run(
            &mut mem,
            &mut obj,
            &proposals_workload(&proposals),
            &mut SoloAdversary,
        );
        assert!(res.completed);
        assert_eq!(res.metrics.aborted_count(), 0);
        agreement_and_validity_check(&res, &proposals).unwrap();
    }

    #[test]
    fn bakery_commits_without_step_contention_even_with_interval_contention() {
        let mut mem = SharedMemory::new();
        let mut obj: ConsensusObject<AbortableBakery> = ConsensusObject::new(&mut mem, 3);
        let proposals = [4, 5, 6];
        let res = Executor::new().run(
            &mut mem,
            &mut obj,
            &proposals_workload(&proposals),
            &mut InvokeAllThenSequential,
        );
        assert!(res.completed);
        // The step-contention-free operation (the first one scheduled to run)
        // must commit.
        for op in &res.metrics.ops {
            if op.step_contention_free() {
                assert!(!op.aborted);
            }
        }
        agreement_and_validity_check(&res, &proposals).unwrap();
    }

    #[test]
    fn bakery_exhaustive_two_processes() {
        let proposals = [8, 9];
        explore_schedules(
            |mem| ConsensusObject::<AbortableBakery>::new(mem, 2),
            &proposals_workload(&proposals),
            &ExploreConfig {
                max_schedules: 150_000,
                max_ticks: 10_000,
                ..Default::default()
            },
            |res, _| {
                if !res.completed {
                    return Err("did not complete".into());
                }
                agreement_and_validity_check(res, &proposals)
            },
        )
        .expect("AbortableBakery must satisfy agreement/validity under every schedule");
    }

    #[test]
    fn cas_consensus_never_aborts_and_agrees_under_contention() {
        for seed in 0..10 {
            let mut mem = SharedMemory::new();
            let mut obj: ConsensusObject<CasConsensus> = ConsensusObject::new(&mut mem, 4);
            let proposals = [10, 20, 30, 40];
            let res = Executor::new().run(
                &mut mem,
                &mut obj,
                &proposals_workload(&proposals),
                &mut RoundRobinAdversary::default(),
            );
            assert!(res.completed, "seed {seed}");
            assert_eq!(res.metrics.aborted_count(), 0);
            assert_eq!(res.metrics.committed_count(), 4);
            agreement_and_validity_check(&res, &proposals).unwrap();
            // CAS is a consensus-number-∞ primitive.
            assert_eq!(mem.max_required_consensus_number(), None);
        }
        assert!(CasConsensus::never_aborts());
        assert!(!SplitConsensus::never_aborts());
    }

    #[test]
    fn splitter_solo_stops_and_contended_processes_do_not_all_stop() {
        // Solo acquisition stops.
        let mut mem = SharedMemory::new();
        let s = Splitter::new(&mut mem);
        let mut e = s.acquire(ProcessId(0));
        let mut out = None;
        while out.is_none() {
            out = e.step(&mut mem);
        }
        assert_eq!(out, Some(SplitterResult::Stop));

        // Two interleaved acquisitions: at most one stop.
        let mut mem = SharedMemory::new();
        let s = Splitter::new(&mut mem);
        let mut e0 = s.acquire(ProcessId(0));
        let mut e1 = s.acquire(ProcessId(1));
        let mut r0 = None;
        let mut r1 = None;
        while r0.is_none() || r1.is_none() {
            if r0.is_none() {
                r0 = e0.step(&mut mem);
            }
            if r1.is_none() {
                r1 = e1.step(&mut mem);
            }
        }
        let stops = [r0, r1]
            .iter()
            .filter(|r| **r == Some(SplitterResult::Stop))
            .count();
        assert!(stops <= 1);
    }

    #[test]
    fn consensus_outcome_helpers() {
        assert!(ConsensusOutcome::Commit(Some(3)).is_commit());
        assert!(!ConsensusOutcome::Abort(None).is_commit());
        assert_eq!(ConsensusOutcome::Abort(Some(7)).value(), Some(7));
        let mut mem = SharedMemory::new();
        let obj = ConsensusObject::<CasConsensus>::new(&mut mem, 1);
        assert_eq!(
            SimObject::<ConsensusSpec, ConsensusSwitch>::name(&obj),
            "CasConsensus"
        );
        let _ = obj.inner();
    }
}
