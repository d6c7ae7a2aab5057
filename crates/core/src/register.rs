//! A write-behind register — the seeded *crash* mutant.
//!
//! The repository's other seeded bug (`A1Variant::DroppedRawFence`) violates
//! plain linearizability; this object is deliberately constructed to be
//! linearizable in every crash-free execution **and** under the open
//! crashed-pending closure, while violating *strict* linearizability once
//! its writer can crash — it separates the two `--crashed-pending` modes
//! (`open` and `strict`) of `scl-check` on the same histories.
//!
//! The register keeps two cells:
//!
//! * `buf` — the write-ahead cell, written first;
//! * `main` — the primary cell, written second (the write commits here).
//!
//! A read loads `main`, then `buf`. If they agree it returns `main`. If they
//! disagree (a write is in flight, or the writer crashed between its two
//! steps) the reader *helps* by flushing `buf` into `main` — but returns the
//! **stale** pre-flush `main` value it already read. Crash-free this is
//! harmless: the in-flight write is still pending, so the stale read
//! linearizes before it. If the writer *crashed* between the two cells,
//! however, a post-crash read pair observes `old` then `new` — explainable
//! only by the crashed write taking effect *between* two operations invoked
//! after the crash, which the strict closure forbids.
//!
//! Under the crash-*recovery* adversary the register additionally carries a
//! configurable [`WbRecovery`] routine, run when the crashed writer
//! restarts:
//!
//! * [`WbRecovery::Flush`] — *redo*: recovery rewrites both cells from the
//!   interrupted request and **resolves** the write with its late response.
//!   The write then durably commits in every closure; only the
//!   never-restarted subspace keeps the strict violation alive.
//! * [`WbRecovery::Abandon`] — *rollback*: recovery copies `main` back into
//!   `buf` (undoing a half-applied write the readers have not flushed yet)
//!   and abandons the interrupted operation. The write is genuinely lost —
//!   exactly what the `durable` closure permits and the `recoverable`
//!   closure forbids, separating the two on the same witness space.

use scl_sim::{
    Footprint, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory, SimObject, StepOutcome,
    Value,
};
use scl_spec::{ProcessId, RegisterOp, RegisterSpec, Request};

/// What a restarted writer's recovery routine does with a write interrupted
/// by its crash (see the [module documentation](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbRecovery {
    /// No recovery routine: the restarted process resumes after a trivial
    /// recovery tick and the interrupted write stays pending forever (the
    /// PR-6 crash-only behaviour).
    None,
    /// Redo the whole write (`buf`, then `main`) and resolve it with a late
    /// commit.
    Flush,
    /// Roll the write-ahead cell back (`buf := main`) and abandon the
    /// interrupted write.
    Abandon,
}

/// See the [module documentation](self).
pub struct WriteBehindRegister {
    buf: RegId,
    main: RegId,
    recovery: WbRecovery,
}

impl WriteBehindRegister {
    /// Allocates the two cells (initial value 0) with no recovery routine.
    pub fn new(mem: &mut SharedMemory) -> Self {
        Self::with_recovery(mem, WbRecovery::None)
    }

    /// Allocates the two cells with the given crash-recovery policy.
    pub fn with_recovery(mem: &mut SharedMemory, recovery: WbRecovery) -> Self {
        WriteBehindRegister {
            buf: mem.alloc("wb.buf", Value::int(0)),
            main: mem.alloc("wb.main", Value::int(0)),
            recovery,
        }
    }
}

impl SimObject<RegisterSpec, ()> for WriteBehindRegister {
    fn invoke(
        &mut self,
        _mem: &mut SharedMemory,
        req: Request<RegisterSpec>,
        _switch: Option<()>,
    ) -> Box<dyn OpExecution<RegisterSpec, ()>> {
        match req.op {
            RegisterOp::Write(v) => Box::new(WbWrite {
                buf: self.buf,
                main: self.main,
                proc: req.proc,
                v,
                pc: 0,
            }),
            RegisterOp::Read => Box::new(WbRead {
                buf: self.buf,
                main: self.main,
                proc: req.proc,
                m: 0,
                b: 0,
                pc: 0,
            }),
        }
    }

    fn recover(
        &mut self,
        _mem: &mut SharedMemory,
        _proc: ProcessId,
        interrupted: Option<&Request<RegisterSpec>>,
    ) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        let req = interrupted?;
        // Only interrupted writes leave a half-applied effect behind; an
        // interrupted read has nothing to redo or roll back.
        let RegisterOp::Write(v) = req.op else {
            return None;
        };
        match self.recovery {
            WbRecovery::None => None,
            WbRecovery::Flush => Some(Box::new(WbFlushRecovery {
                buf: self.buf,
                main: self.main,
                proc: req.proc,
                v,
                pc: 0,
            })),
            WbRecovery::Abandon => Some(Box::new(WbRollbackRecovery {
                buf: self.buf,
                main: self.main,
                proc: req.proc,
                m: 0,
                pc: 0,
            })),
        }
    }

    fn name(&self) -> &'static str {
        match self.recovery {
            WbRecovery::None => "write-behind register",
            WbRecovery::Flush => "write-behind register (flush recovery)",
            WbRecovery::Abandon => "write-behind register (abandon recovery)",
        }
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // All mutable state lives in the two shared registers.
        Some(ObjectSnapshot::stateless())
    }
}

/// [`WbRecovery::Flush`]: redo the interrupted write from its request —
/// `buf := v`, then `main := v` — and resolve it with the late commit.
/// Rewriting *both* cells matters: flushing `main` alone after a crash at
/// the very first write step would leave `buf` stale and a helping reader
/// would "flush" the old value back over the recovered one.
#[derive(Clone)]
struct WbFlushRecovery {
    buf: RegId,
    main: RegId,
    proc: ProcessId,
    v: u64,
    pc: u8,
}

impl OpExecution<RegisterSpec, ()> for WbFlushRecovery {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        match self.pc {
            0 => {
                mem.write(self.proc, self.buf, Value::int(self.v as i64));
                self.pc = 1;
                StepOutcome::Continue
            }
            _ => {
                mem.write(self.proc, self.main, Value::int(self.v as i64));
                StepOutcome::Done(OpOutcome::Commit(self.v))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            0 => Footprint::Write(self.buf),
            _ => Footprint::Write(self.main),
        }
    }
}

/// [`WbRecovery::Abandon`]: roll the write-ahead cell back (`buf := main`)
/// so the half-applied write can no longer be flushed by a helping reader,
/// then abandon the interrupted operation. A reader that already flushed
/// `buf` into `main` before the rollback runs makes it a no-op — the write's
/// effect survives, which the `durable` closure tolerates (the operation
/// merely completed) and the rolled-back case is what `recoverable`
/// rejects (a required operation that never takes effect).
#[derive(Clone)]
struct WbRollbackRecovery {
    buf: RegId,
    main: RegId,
    proc: ProcessId,
    m: u64,
    pc: u8,
}

impl OpExecution<RegisterSpec, ()> for WbRollbackRecovery {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        match self.pc {
            0 => {
                self.m = mem.read(self.proc, self.main).as_int() as u64;
                self.pc = 1;
                StepOutcome::Continue
            }
            _ => {
                mem.write(self.proc, self.buf, Value::int(self.m as i64));
                StepOutcome::Done(OpOutcome::Abort(()))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            0 => Footprint::Read(self.main),
            _ => Footprint::Write(self.buf),
        }
    }
}

/// `Write(v)`: `buf := v`, then `main := v`, commit `v`.
#[derive(Clone)]
struct WbWrite {
    buf: RegId,
    main: RegId,
    proc: scl_spec::ProcessId,
    v: u64,
    pc: u8,
}

impl OpExecution<RegisterSpec, ()> for WbWrite {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        match self.pc {
            0 => {
                mem.write(self.proc, self.buf, Value::int(self.v as i64));
                self.pc = 1;
                StepOutcome::Continue
            }
            _ => {
                mem.write(self.proc, self.main, Value::int(self.v as i64));
                StepOutcome::Done(OpOutcome::Commit(self.v))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            0 => Footprint::Write(self.buf),
            _ => Footprint::Write(self.main),
        }
    }
}

/// `Read`: load `main`, load `buf`; equal → commit `main`; else flush
/// `main := buf` and commit the stale pre-flush `main`.
#[derive(Clone)]
struct WbRead {
    buf: RegId,
    main: RegId,
    proc: scl_spec::ProcessId,
    /// The `main` value loaded at pc 0 (the committed response).
    m: u64,
    /// The `buf` value loaded at pc 1 (flushed at pc 2 when they disagree).
    b: u64,
    pc: u8,
}

impl OpExecution<RegisterSpec, ()> for WbRead {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        match self.pc {
            0 => {
                self.m = mem.read(self.proc, self.main).as_int() as u64;
                self.pc = 1;
                StepOutcome::Continue
            }
            1 => {
                self.b = mem.read(self.proc, self.buf).as_int() as u64;
                if self.b == self.m {
                    StepOutcome::Done(OpOutcome::Commit(self.m))
                } else {
                    self.pc = 2;
                    StepOutcome::Continue
                }
            }
            _ => {
                mem.write(self.proc, self.main, Value::int(self.b as i64));
                StepOutcome::Done(OpOutcome::Commit(self.m))
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            0 => Footprint::Read(self.main),
            1 => Footprint::Read(self.buf),
            _ => Footprint::Write(self.main),
        }
    }
}
