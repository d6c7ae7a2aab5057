//! The simulated shared memory: a register file with one-step atomic
//! operations, step accounting, and a base-object audit.
//!
//! Every operation on [`SharedMemory`] models exactly one shared-memory step
//! of the paper's model. Operations are classified by [`PrimitiveClass`];
//! the audit records which classes were applied to each register, from which
//! the *consensus number* required of that base object follows (registers:
//! 1; swap / test-and-set / fetch-and-add: 2; compare-and-swap: ∞). This is
//! what experiment E9 uses to verify that the composed test-and-set only
//! relies on objects with consensus number at most two.
//!
//! The memory also approximates *fence complexity* (Attiya et al., "Laws of
//! Order"): a read-after-write (RAW) fence is charged the first time a
//! process reads shared memory after having written it within the same
//! operation, and every atomic read-modify-write primitive is charged as an
//! atomic-instruction fence. [`SharedMemory::begin_op`] resets the per-
//! operation write flag.
//!
//! # Hot-path layout
//!
//! The schedule explorer executes hundreds of thousands of tiny executions,
//! so every structure here is flat and allocation-free once warm:
//!
//! * registers are a `Vec<Value>` of 16-byte `Copy` [`Value`]s — reads
//!   return by value, no clone, no heap;
//! * per-process counters and the RAW-fence flags are `Vec`s indexed
//!   directly by process id (the old `BTreeMap` lookups were the single
//!   hottest line of the whole simulator);
//! * [`SharedMemory::reset`] rewinds the memory to "freshly constructed"
//!   while *reusing* every allocation: register slots, audit entries
//!   (including their name `String`s) and counter vectors are recycled by
//!   the next epoch's `alloc` calls;
//! * checkpoints are marks on undo logs: after [`SharedMemory::mark`],
//!   every write logs the pre-image of what it overwrites (a register, a
//!   process's counters and fence flag, an in-flight slot, an inbox-lane
//!   push or pop, a replica's state), and the scalars (live register count,
//!   global step count, slot sequence, born/occupied/severed masks, audit-log
//!   length) ride in the [`MemMark`] itself. Taking a mark is `O(1)`;
//!   [`SharedMemory::undo_to`] pops the logs back to it, so a backtrack
//!   costs what the abandoned continuation changed, not the size of the
//!   state. Marks nest like a stack and one mark may be undone to
//!   repeatedly;
//! * the full-copy checkpoint API remains: [`SharedMemory::snapshot_into`]
//!   and [`SharedMemory::restore`] copy into the destination's existing
//!   `Vec`s, down to each replica's state and each inbox (`clone_from`), so
//!   a warm save or restore allocates nothing — and a [`MemSnapshot`] can be
//!   restored into a different memory of the same shape;
//! * the audit is rolled back by log, not by scan: every first application
//!   of a primitive class to a register appends that register to an
//!   append-only audit log, a snapshot or mark records only the log's
//!   length, and a rewind pops the log back to it (see [`MemSnapshot`]);
//! * the set of occupied in-flight network slots is a maintained `u64`
//!   mask, so [`SharedMemory::net_occupied`] and
//!   [`SharedMemory::net_in_flight`] are `O(1)`.

use crate::value::Value;
use scl_spec::ProcessId;

/// Identifier of a simulated shared register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(pub usize);

/// An endpoint of the simulated message-passing network: either a *client*
/// (one of the scheduled processes, identified by its process index) or a
/// *server* replica (passive state machines that live inside the network
/// layer and react to message deliveries via the registered
/// [`ServerHandler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetNode {
    /// Process `0..clients` — a scheduled process with a message inbox.
    Client(usize),
    /// Replica `0..servers` — passive state driven by deliveries.
    Server(usize),
}

/// One simulated network message.
///
/// `owner` names the client process whose operation the message belongs to
/// (the original sender for requests, the requesting client for replies);
/// the explorer labels delivery and drop transitions with it. `lost` is set
/// only on the loss notifications [`SharedMemory::net_drop`] synthesizes:
/// the original message with `lost = true`, delivered directly to the
/// owner's inbox — modelling the sender's timeout firing. A protocol must
/// only inspect a lost message's routing metadata (`src`, `dst`, `body`
/// kind/request tags) to decide what to re-send, never use its payload as
/// received data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending endpoint.
    pub src: NetNode,
    /// Destination endpoint.
    pub dst: NetNode,
    /// The client process whose operation this message belongs to.
    pub owner: ProcessId,
    /// Mailbox lane key: a client-bound message is filed under lane
    /// `lane % NET_LANES` of the destination inbox, and each lane is its own
    /// FIFO queue with its own virtual register. Protocols key this by
    /// phase/request id so *stale* replies (a phase the client already left)
    /// land in a different lane than the phase currently being collected —
    /// making their deliveries commute with the client's progress instead of
    /// serialising through one inbox cell. Replies and loss notifications
    /// inherit the request's lane.
    pub lane: usize,
    /// Protocol payload (kind, request id, and protocol-specific words).
    pub body: [i64; 4],
    /// Whether this is a loss notification rather than a real delivery.
    pub lost: bool,
}

/// Number of mailbox lanes per client inbox (see [`Message::lane`]). Lane
/// keys are reduced modulo this, so distinct-enough phase ids map to
/// distinct lanes; collisions are harmless (two phases sharing a lane just
/// serialise through the same register, as the single-inbox model always
/// did).
pub const NET_LANES: usize = 8;

/// The reaction of a passive server replica to a delivered message: mutate
/// the replica state in place and optionally emit one reply (enqueued into
/// the in-flight buffer as part of the same delivery transition). A plain
/// `fn` so the network state stays `Clone` and snapshots stay trivial.
pub type ServerHandler = fn(server: usize, state: &mut Vec<i64>, msg: &Message) -> Option<Message>;

/// The simulated network: an in-flight message buffer whose deliveries are
/// *scheduled transitions*, per-client inboxes, and passive server replicas.
///
/// Slots are never reused within an execution (`seq` is monotone and
/// asserts `seq < cap`), so a slot index is a stable identity for "this
/// message's delivery" across the whole schedule exploration — sends commute
/// with deliveries and drops of *other* slots, which the explorer's
/// footprints rely on.
#[derive(Debug, Clone, Default)]
struct Network {
    cap: usize,
    clients: usize,
    /// Per-replica protocol state, mutated by the handler on delivery.
    servers: Vec<Vec<i64>>,
    handler: Option<ServerHandler>,
    /// The in-flight buffer. Client sends occupy slots `0, 1, 2, …` in send
    /// order; a server's *reply* to the request in slot `s` occupies slot
    /// `cap - 1 - s` — a deterministic address, so the slot layout is
    /// independent of delivery order and reply-enqueuing deliveries to
    /// different replicas commute. Delivered/dropped slots become `None`.
    slots: Vec<Option<Message>>,
    /// Client messages sent so far this execution (the next send slot).
    seq: usize,
    /// Bit `s` = slot `s` has ever held a message this execution (slots are
    /// never reused; this catches send/reply collisions under too-small
    /// caps, since a consumed slot is `None` again).
    born: u64,
    /// Bit `s` = slot `s` holds an undelivered message right now: set by a
    /// send or a reply enqueue, cleared by the delivery or drop that
    /// consumes it. Always equal to the `Some` entries of `slots`.
    occupied: u64,
    /// Per-client, per-lane FIFO inboxes, indexed `c * NET_LANES + lane`;
    /// deliveries push onto the message's lane, [`SharedMemory::net_recv`]
    /// pops from the front of one lane. Separate queues make deliveries
    /// into different lanes of the same client genuinely commute.
    inboxes: Vec<Vec<Message>>,
    /// Severed endpoints (bit `i` = client `i`, bit `clients + j` = server
    /// `j`): a message to or from a severed endpoint vanishes silently at
    /// send time — no slot, no loss notification, no drop budget consumed.
    severed: u64,
    /// Virtual registers giving network transitions honest footprints: one
    /// per client inbox *lane*, one per server replica, one for the slot-allocation
    /// order, and one per in-flight slot (the message's identity — its send,
    /// delivery and drop all write it, so creation and consumption are
    /// ordered and deliver/drop of the same slot never commute).
    inbox_regs: Vec<RegId>,
    server_regs: Vec<RegId>,
    slot_reg: Option<RegId>,
    slot_item_regs: Vec<RegId>,
}

/// A point-in-time copy of the network state (part of [`MemSnapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NetSnapshot {
    servers: Vec<Vec<i64>>,
    slots: Vec<Option<Message>>,
    seq: usize,
    born: u64,
    occupied: u64,
    inboxes: Vec<Vec<Message>>,
    severed: u64,
}

/// The shared-memory access footprint of one scheduling transition.
///
/// In the paper's model a transition performs *at most one* shared-memory
/// step, so a footprint is at most one register together with the direction
/// of the access. Footprints drive the partial-order reduction in
/// [`crate::explore`]: two transitions *commute* (lead to the same state in
/// either order) whenever their footprints are [independent](Self::dependent).
///
/// `Write` covers plain writes and every read-modify-write primitive.
/// `Unknown` is the conservative footprint of transitions whose access
/// cannot be predicted; it is treated as dependent with everything.
/// `Net` is the exception to the one-register rule: a network transition
/// (send, delivery, drop) touches a small *set* of virtual registers in one
/// atomic step — see [`NetWrites`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Footprint {
    /// No shared-memory access (an invocation, or a purely local transition).
    #[default]
    Pure,
    /// An atomic read of the register.
    Read(RegId),
    /// A write or read-modify-write of the register.
    Write(RegId),
    /// The exact write set of a network transition.
    Net(NetWrites),
    /// Not statically known; conservatively dependent with everything.
    Unknown,
}

/// The write set of one network transition, over the network layer's
/// virtual registers: the slot-allocation register (any transition that
/// assigns a slot number), per-slot cells (a message's send, delivery and
/// drop all write its slot cell, ordering creation before consumption and
/// making deliver-vs-drop of the same message conflict), per-replica state
/// and per-client inboxes. Every effect is a write: two network footprints
/// are dependent iff their sets intersect, and a network footprint is
/// dependent with a plain `Read`/`Write` iff the set contains its register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetWrites {
    regs: [RegId; 4],
    len: u8,
}

impl NetWrites {
    pub(crate) fn new(regs: &[RegId]) -> Self {
        debug_assert!(!regs.is_empty() && regs.len() <= 4);
        let mut a = [regs[0]; 4];
        a[..regs.len()].copy_from_slice(regs);
        NetWrites {
            regs: a,
            len: regs.len() as u8,
        }
    }

    /// The written registers.
    pub fn regs(&self) -> &[RegId] {
        &self.regs[..self.len as usize]
    }

    /// Whether `r` is in the write set.
    pub fn contains(&self, r: RegId) -> bool {
        self.regs().contains(&r)
    }

    fn intersects(&self, other: &NetWrites) -> bool {
        self.regs().iter().any(|r| other.contains(*r))
    }
}

/// Shorthand for a network write-set footprint.
fn net_fp(regs: &[RegId]) -> Footprint {
    Footprint::Net(NetWrites::new(regs))
}

impl Footprint {
    /// Whether two transitions with these footprints may fail to commute.
    ///
    /// Two footprints are dependent iff either is [`Footprint::Unknown`], or
    /// they touch the same register and at least one of them writes it.
    /// [`Footprint::Pure`] transitions commute with everything *at the level
    /// of shared memory and operation outcomes* (they may still reorder
    /// bookkeeping such as contention metrics and trace event order — see
    /// the soundness notes on [`crate::explore::Reduction`]).
    pub fn dependent(self, other: Footprint) -> bool {
        match (self, other) {
            (Footprint::Unknown, _) | (_, Footprint::Unknown) => true,
            (Footprint::Pure, _) | (_, Footprint::Pure) => false,
            // Network write sets: dependent on any overlap (all effects are
            // writes).
            (Footprint::Net(a), Footprint::Net(b)) => a.intersects(&b),
            (Footprint::Net(a), Footprint::Read(r))
            | (Footprint::Net(a), Footprint::Write(r))
            | (Footprint::Read(r), Footprint::Net(a))
            | (Footprint::Write(r), Footprint::Net(a)) => a.contains(r),
            // Read-read pairs commute even on the same register.
            (Footprint::Read(_), Footprint::Read(_)) => false,
            (Footprint::Write(a), Footprint::Write(b))
            | (Footprint::Read(a), Footprint::Write(b))
            | (Footprint::Write(a), Footprint::Read(b)) => a == b,
        }
    }
}

/// The label of one scheduling transition: which happens-before thread
/// moved and what shared-memory access it performed. The source-DPOR engine
/// in [`crate::explore`] decides both of its dependence questions with
/// [`StepLabel::dependent`]: races between *executed* transitions (via the
/// happens-before layer in [`crate::hb`]), whose labels say exactly what
/// each transition did, and sleep-set wakes, which compare an executed label
/// with a sleeping transition's *predicted* one
/// ([`crate::explore::pending_label`]). A prediction over-approximates, so
/// a wake never comes too late.
///
/// Invocations and responses are not part of the label: a verdict that
/// reads real-time order walks the linear extensions of each trace's
/// history instead (see [`crate::explore::Reduction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLabel {
    /// The process that took the transition.
    pub proc: ProcessId,
    /// The shared-memory access the transition performed
    /// ([`Footprint::Pure`] for invocations and silent local steps).
    pub footprint: Footprint,
}

impl StepLabel {
    /// Whether two executed transitions are dependent (may fail to commute).
    ///
    /// Transitions of the same process are always dependent (program order).
    /// Across processes the relation is shared-memory dependence of the
    /// footprints ([`Footprint::dependent`]).
    pub fn dependent(self, other: StepLabel) -> bool {
        self.proc == other.proc || self.footprint.dependent(other.footprint)
    }
}

/// Classification of shared-memory primitives by their consensus number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimitiveClass {
    /// Atomic read (consensus number 1).
    Read,
    /// Atomic write (consensus number 1).
    Write,
    /// Atomic swap (consensus number 2).
    Swap,
    /// Atomic test-and-set (consensus number 2).
    TestAndSet,
    /// Atomic fetch-and-add (consensus number 2).
    FetchAdd,
    /// Atomic compare-and-swap (consensus number ∞).
    CompareAndSwap,
}

impl PrimitiveClass {
    /// The consensus number of the primitive; `None` represents ∞.
    pub fn consensus_number(self) -> Option<u32> {
        match self {
            PrimitiveClass::Read | PrimitiveClass::Write => Some(1),
            PrimitiveClass::Swap | PrimitiveClass::TestAndSet | PrimitiveClass::FetchAdd => Some(2),
            PrimitiveClass::CompareAndSwap => None,
        }
    }

    /// Whether the primitive is a read-modify-write ("strong") primitive.
    pub fn is_rmw(self) -> bool {
        !matches!(self, PrimitiveClass::Read | PrimitiveClass::Write)
    }
}

/// Per-process step counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessCounters {
    /// Total shared-memory steps.
    pub steps: u64,
    /// Reads.
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Read-modify-write operations (swap, TAS, fetch-add, CAS).
    pub rmws: u64,
    /// Approximated fences: RAW fences plus atomic-instruction fences.
    pub fences: u64,
}

/// A register's audit entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterAudit {
    /// Human-readable name given at allocation.
    pub name: String,
    /// The primitive classes ever applied to the register.
    pub classes: Vec<PrimitiveClass>,
}

impl RegisterAudit {
    /// The consensus number required of this base object: the maximum over
    /// the primitive classes applied to it (`None` = ∞).
    pub fn required_consensus_number(&self) -> Option<u32> {
        let mut max = Some(1);
        for c in &self.classes {
            match (max, c.consensus_number()) {
                (_, None) => return None,
                (Some(m), Some(n)) => max = Some(m.max(n)),
                (None, _) => return None,
            }
        }
        max
    }
}

/// A point-in-time copy of a [`SharedMemory`], restorable in `O(state)`:
/// the full-copy checkpoint ([`SharedMemory::snapshot_into`],
/// [`SharedMemory::restore`]). The explorer checkpoints by undo-log marks
/// ([`SharedMemory::mark`]); this copy serves perfbench's per-layer timing
/// and the tests' reference.
///
/// What is copied: the live register values, the per-process counters and
/// RAW-fence flags, the global step count, and the whole network state
/// (replica states, in-flight slots with their occupied mask, the slot
/// sequence and born mask, every inbox lane, the severed mask).
///
/// What is *not* copied: the audit. The append-only structures are
/// recorded by their *high-water marks* only — the live register count,
/// and the length of the memory's audit log (the registers to which a
/// primitive class was first applied, in order) — so
/// [`SharedMemory::restore`] rewinds allocations by truncation and audit
/// classes by popping the log back to the mark, touching only what changed
/// since the snapshot. Snapshots are plain buffers; reuse one across
/// [`SharedMemory::snapshot_into`] calls to avoid reallocating. Two
/// snapshots compare equal iff they captured the same state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    live: usize,
    regs: Vec<Value>,
    /// The audit log's length at snapshot time.
    audit_len: usize,
    counters: Vec<ProcessCounters>,
    wrote_in_op: Vec<bool>,
    global_steps: u64,
    net: NetSnapshot,
}

impl MemSnapshot {
    /// An empty snapshot buffer (fill with [`SharedMemory::snapshot_into`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The global step count at snapshot time.
    pub fn global_steps(&self) -> u64 {
        self.global_steps
    }
}

/// A position on a [`SharedMemory`]'s undo logs, returned by
/// [`SharedMemory::mark`] and consumed by [`SharedMemory::undo_to`].
///
/// It holds the length of every undo log and the memory's scalars at
/// marking time: the live register count, the number of processes with
/// counters, the global step count, the audit-log length, and the network's
/// slot sequence and born, occupied and severed masks. Everything else is
/// rewound from the logs, so a mark is a few words and costs `O(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemMark {
    regs: usize,
    counters: usize,
    slots: usize,
    inboxes: usize,
    servers: usize,
    words: usize,
    live: usize,
    procs: usize,
    global_steps: u64,
    audit_len: usize,
    seq: usize,
    born: u64,
    occupied: u64,
    severed: u64,
}

/// The undo logs behind [`SharedMemory::mark`]: the pre-image of every
/// write since the first mark, one log per kind of state, popped in
/// reverse by [`SharedMemory::undo_to`]. The logs are independent — each
/// covers state no other log touches — so only the order within a log
/// matters.
#[derive(Debug, Clone, Default)]
struct UndoLog {
    /// Whether writes are logged: set by the first mark, cleared by
    /// [`SharedMemory::reset`] and [`SharedMemory::restore`]. Without a
    /// mark nothing can be undone, so nothing is logged.
    on: bool,
    /// Overwritten register values.
    regs: Vec<(RegId, Value)>,
    /// A process's counters and RAW-fence flag before a step.
    counters: Vec<(usize, ProcessCounters, bool)>,
    /// An in-flight slot before a send, delivery, drop or reply.
    slots: Vec<(usize, Option<Message>)>,
    /// Inbox-lane changes: `None` undoes a push by popping the lane's back,
    /// `Some(m)` undoes a receive by putting `m` back at its front.
    inboxes: Vec<(usize, Option<Message>)>,
    /// A replica's state before a delivery: the replica and where its
    /// words start in `words` (they run to the next entry's start).
    servers: Vec<(usize, usize)>,
    words: Vec<i64>,
}

impl UndoLog {
    fn clear(&mut self) {
        self.on = false;
        self.regs.clear();
        self.counters.clear();
        self.slots.clear();
        self.inboxes.clear();
        self.servers.clear();
        self.words.clear();
    }
}

/// The simulated shared memory.
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    regs: Vec<Value>,
    audit: Vec<RegisterAudit>,
    /// Registers live in the current epoch (`<= regs.len()`). [`Self::alloc`]
    /// recycles slots beyond `live` left over from before the last
    /// [`Self::reset`].
    live: usize,
    /// Per-process counters, indexed by process id.
    counters: Vec<ProcessCounters>,
    /// Whether the process has written during its current operation
    /// (used for RAW-fence accounting), indexed by process id.
    wrote_in_op: Vec<bool>,
    /// Global step counter (total across all processes).
    global_steps: u64,
    /// Footprint of the most recent shared-memory step (for the explorer's
    /// dependence tracking); `Pure` until the first step.
    last_footprint: Footprint,
    /// The registers in the order a primitive class was first applied to
    /// them: entry `k` records that the `k`-th audit class push went to
    /// that register. Snapshots store its length; restores pop it back,
    /// popping one class off each popped register's audit.
    audit_log: Vec<RegId>,
    /// The simulated message-passing network (empty until
    /// [`Self::net_init`]).
    net: Network,
    /// Pre-images of the writes since the first [`Self::mark`].
    undo: UndoLog,
}

impl SharedMemory {
    /// An empty shared memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the memory to its freshly-constructed state while keeping
    /// every allocation for reuse: subsequent [`Self::alloc`] calls recycle
    /// the existing register slots and audit entries, and the counter
    /// vectors are zeroed in place. After `reset()` + identical `alloc`
    /// calls, the memory is indistinguishable from a brand-new one.
    pub fn reset(&mut self) {
        self.live = 0;
        self.counters
            .iter_mut()
            .for_each(|c| *c = ProcessCounters::default());
        self.wrote_in_op.iter_mut().for_each(|w| *w = false);
        self.global_steps = 0;
        self.last_footprint = Footprint::Pure;
        self.audit_log.clear();
        self.undo.clear();
        // The network is structural per epoch: setup re-runs `net_init`.
        self.net.cap = 0;
        self.net.clients = 0;
        self.net.servers.clear();
        self.net.handler = None;
        self.net.slots.clear();
        self.net.seq = 0;
        self.net.born = 0;
        self.net.occupied = 0;
        self.net.inboxes.clear();
        self.net.severed = 0;
        self.net.inbox_regs.clear();
        self.net.server_regs.clear();
        self.net.slot_reg = None;
        self.net.slot_item_regs.clear();
    }

    /// Allocates a fresh register with the given debug name and initial
    /// value. Allocation itself is not a shared-memory step.
    pub fn alloc(&mut self, name: &str, init: Value) -> RegId {
        let id = RegId(self.live);
        self.live += 1;
        if id.0 < self.regs.len() {
            // Recycle a slot from a previous epoch.
            self.regs[id.0] = init;
            let audit = &mut self.audit[id.0];
            audit.classes.clear();
            if audit.name != name {
                audit.name.clear();
                audit.name.push_str(name);
            }
        } else {
            self.regs.push(init);
            self.audit.push(RegisterAudit {
                name: name.to_string(),
                classes: Vec::new(),
            });
        }
        id
    }

    /// Number of registers allocated so far (space complexity).
    pub fn register_count(&self) -> usize {
        self.live
    }

    /// Total shared-memory steps taken by all processes.
    pub fn global_steps(&self) -> u64 {
        self.global_steps
    }

    /// Per-process counters.
    pub fn counters(&self, p: ProcessId) -> ProcessCounters {
        self.counters.get(p.index()).copied().unwrap_or_default()
    }

    /// The audit of every register.
    pub fn audit(&self) -> &[RegisterAudit] {
        &self.audit[..self.live]
    }

    /// The maximum consensus number required over all registers that were
    /// accessed with at least one primitive (`None` = ∞, i.e. CAS was used).
    pub fn max_required_consensus_number(&self) -> Option<u32> {
        let mut max = Some(1);
        for a in self.audit() {
            if a.classes.is_empty() {
                continue;
            }
            match (max, a.required_consensus_number()) {
                (_, None) => return None,
                (Some(m), Some(n)) => max = Some(m.max(n)),
                (None, _) => return None,
            }
        }
        max
    }

    /// Captures the memory state into `snap`, reusing its buffers.
    ///
    /// Together with [`Self::restore`] this is the full-copy checkpoint API.
    /// The explorer's prefix-resume backtracking uses the undo-log marks
    /// instead ([`Self::mark`], [`Self::undo_to`]); the copy stays for
    /// perfbench's per-layer timing and as the tests' reference for what a
    /// rewind must reproduce. Only allocations performed *after* the
    /// snapshot are rolled back (by truncating the live range); registers
    /// allocated before it keep their identity.
    ///
    /// The copy covers register values, counters, fence flags and the
    /// network (see [`MemSnapshot`]); the audit costs one length, because
    /// its rollback runs off the audit log.
    pub fn snapshot_into(&self, snap: &mut MemSnapshot) {
        snap.live = self.live;
        snap.regs.clear();
        snap.regs.extend_from_slice(&self.regs[..self.live]);
        snap.audit_len = self.audit_log.len();
        snap.counters.clear();
        snap.counters.extend_from_slice(&self.counters);
        snap.wrote_in_op.clear();
        snap.wrote_in_op.extend_from_slice(&self.wrote_in_op);
        snap.global_steps = self.global_steps;
        snap.net.servers.clone_from(&self.net.servers);
        snap.net.slots.clear();
        snap.net.slots.extend_from_slice(&self.net.slots);
        snap.net.seq = self.net.seq;
        snap.net.born = self.net.born;
        snap.net.occupied = self.net.occupied;
        snap.net.inboxes.clone_from(&self.net.inboxes);
        snap.net.severed = self.net.severed;
    }

    /// Captures the memory state into a fresh [`MemSnapshot`].
    pub fn snapshot(&self) -> MemSnapshot {
        let mut snap = MemSnapshot::new();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Restores the state captured by [`Self::snapshot_into`]. The snapshot
    /// must have been taken on this memory within the current epoch (no
    /// intervening [`Self::reset`]), and no snapshot taken after it may have
    /// been restored since (checkpoints nest like a stack); registers
    /// allocated after the snapshot are rolled back and their slots become
    /// recyclable by future `alloc`s, exactly as after a `reset`.
    ///
    /// The audit rewinds by popping the audit log back to the snapshot's
    /// length: every popped entry takes the last class off its register.
    /// Log entries only name registers live when they were pushed, so the
    /// popped classes are exactly the ones applied since the snapshot.
    ///
    /// A restore discards every [`Self::mark`]: the undo logs describe the
    /// path to the state being overwritten, not to the restored one.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        debug_assert!(
            snap.live <= self.regs.len(),
            "snapshot from a different memory or epoch"
        );
        debug_assert!(
            snap.audit_len <= self.audit_log.len(),
            "snapshot restored out of stack order"
        );
        self.live = snap.live;
        self.regs[..snap.live].copy_from_slice(&snap.regs);
        for r in self.audit_log.drain(snap.audit_len..) {
            self.audit[r.0].classes.pop();
        }
        self.counters.truncate(snap.counters.len());
        self.counters.copy_from_slice(&snap.counters);
        self.wrote_in_op.truncate(snap.wrote_in_op.len());
        self.wrote_in_op.copy_from_slice(&snap.wrote_in_op);
        self.global_steps = snap.global_steps;
        debug_assert_eq!(
            snap.net.servers.len(),
            self.net.servers.len(),
            "network snapshot from a different topology or epoch"
        );
        self.net.servers.clone_from(&snap.net.servers);
        self.net.slots.clear();
        self.net.slots.extend_from_slice(&snap.net.slots);
        self.net.seq = snap.net.seq;
        self.net.born = snap.net.born;
        self.net.occupied = snap.net.occupied;
        self.net.inboxes.clone_from(&snap.net.inboxes);
        self.net.severed = snap.net.severed;
        self.undo.clear();
    }

    /// Marks the current state on the undo logs, for a later
    /// [`Self::undo_to`]: the prefix-resume checkpoint of the schedule
    /// explorer. From the first mark on, every write logs the pre-image of
    /// what it overwrites (see [`MemMark`] for what the mark itself holds),
    /// so marking is `O(1)` and an undo costs what changed since the mark.
    pub fn mark(&mut self) -> MemMark {
        self.undo.on = true;
        MemMark {
            regs: self.undo.regs.len(),
            counters: self.undo.counters.len(),
            slots: self.undo.slots.len(),
            inboxes: self.undo.inboxes.len(),
            servers: self.undo.servers.len(),
            words: self.undo.words.len(),
            live: self.live,
            procs: self.counters.len(),
            global_steps: self.global_steps,
            audit_len: self.audit_log.len(),
            seq: self.net.seq,
            born: self.net.born,
            occupied: self.net.occupied,
            severed: self.net.severed,
        }
    }

    /// Rewinds the memory to the state at `mark`, popping every undo log
    /// back to the mark's position. Marks nest like a stack: `mark` must
    /// have been taken on this memory within the current epoch (no
    /// [`Self::reset`] or [`Self::restore`] since), and no mark taken before
    /// it may have been undone to since. `mark` stays valid, so the same
    /// branch point can be rewound to once per sibling. As with
    /// [`Self::restore`], registers allocated after the mark are rolled
    /// back and their slots become recyclable.
    pub fn undo_to(&mut self, mark: &MemMark) {
        let u = &mut self.undo;
        debug_assert!(
            u.on && mark.regs <= u.regs.len()
                && mark.counters <= u.counters.len()
                && mark.slots <= u.slots.len()
                && mark.inboxes <= u.inboxes.len()
                && mark.servers <= u.servers.len()
                && mark.audit_len <= self.audit_log.len(),
            "undo to a mark from another epoch, or out of stack order"
        );
        for (r, v) in u.regs.drain(mark.regs..).rev() {
            self.regs[r.0] = v;
        }
        for (p, c, wrote) in u.counters.drain(mark.counters..).rev() {
            self.counters[p] = c;
            self.wrote_in_op[p] = wrote;
        }
        self.counters.truncate(mark.procs);
        self.wrote_in_op.truncate(mark.procs);
        for (s, slot) in u.slots.drain(mark.slots..).rev() {
            self.net.slots[s] = slot;
        }
        for (ix, popped) in u.inboxes.drain(mark.inboxes..).rev() {
            match popped {
                None => drop(self.net.inboxes[ix].pop()),
                Some(m) => self.net.inboxes[ix].insert(0, m),
            }
        }
        while u.servers.len() > mark.servers {
            let (j, start) = u.servers.pop().expect("length checked");
            let state = &mut self.net.servers[j];
            state.clear();
            state.extend_from_slice(&u.words[start..]);
            u.words.truncate(start);
        }
        debug_assert_eq!(u.words.len(), mark.words);
        for r in self.audit_log.drain(mark.audit_len..) {
            self.audit[r.0].classes.pop();
        }
        self.live = mark.live;
        self.global_steps = mark.global_steps;
        self.net.seq = mark.seq;
        self.net.born = mark.born;
        self.net.occupied = mark.occupied;
        self.net.severed = mark.severed;
    }

    /// Sets register `r`, logging its old value while a mark is live.
    #[inline]
    fn set_reg(&mut self, r: RegId, v: Value) {
        if self.undo.on {
            self.undo.regs.push((r, self.regs[r.0]));
        }
        self.regs[r.0] = v;
    }

    /// Logs process `pi`'s counters and fence flag before a change.
    #[inline]
    fn log_counters(&mut self, pi: usize) {
        if self.undo.on {
            self.undo
                .counters
                .push((pi, self.counters[pi], self.wrote_in_op[pi]));
        }
    }

    /// Sets in-flight slot `s`, logging its old content while a mark is
    /// live; returns the old content.
    #[inline]
    fn set_slot(&mut self, s: usize, msg: Option<Message>) -> Option<Message> {
        let old = std::mem::replace(&mut self.net.slots[s], msg);
        if self.undo.on {
            self.undo.slots.push((s, old));
        }
        old
    }

    /// Appends `msg` to inbox lane `ix`, logging the push while a mark is
    /// live.
    #[inline]
    fn inbox_push(&mut self, ix: usize, msg: Message) {
        self.net.inboxes[ix].push(msg);
        if self.undo.on {
            self.undo.inboxes.push((ix, None));
        }
    }

    /// The footprint of the most recent shared-memory step
    /// ([`Footprint::Pure`] before the first step).
    pub fn last_footprint(&self) -> Footprint {
        self.last_footprint
    }

    /// Marks the beginning of a new operation by process `p` (resets the
    /// per-operation RAW-fence accounting).
    pub fn begin_op(&mut self, p: ProcessId) {
        self.ensure_proc(p);
        self.log_counters(p.index());
        self.wrote_in_op[p.index()] = false;
    }

    #[inline]
    fn ensure_proc(&mut self, p: ProcessId) {
        let n = p.index() + 1;
        if self.counters.len() < n {
            self.counters.resize(n, ProcessCounters::default());
            self.wrote_in_op.resize(n, false);
        }
    }

    #[inline]
    fn record(&mut self, p: ProcessId, r: RegId, class: PrimitiveClass) {
        debug_assert!(r.0 < self.live, "access to a register from a stale epoch");
        self.ensure_proc(p);
        self.global_steps += 1;
        let pi = p.index();
        self.log_counters(pi);
        let c = &mut self.counters[pi];
        c.steps += 1;
        match class {
            PrimitiveClass::Read => c.reads += 1,
            PrimitiveClass::Write => c.writes += 1,
            _ => c.rmws += 1,
        }
        // Fence accounting.
        if class.is_rmw() {
            c.fences += 1;
            self.wrote_in_op[pi] = false;
        } else if class == PrimitiveClass::Write {
            self.wrote_in_op[pi] = true;
        } else if class == PrimitiveClass::Read && self.wrote_in_op[pi] {
            c.fences += 1;
            self.wrote_in_op[pi] = false;
        }
        let audit = &mut self.audit[r.0];
        if !audit.classes.contains(&class) {
            audit.classes.push(class);
            self.audit_log.push(r);
        }
        self.last_footprint = if class == PrimitiveClass::Read {
            Footprint::Read(r)
        } else {
            Footprint::Write(r)
        };
    }

    /// Atomic read (one step). Returns the value by copy — registers hold
    /// 16-byte [`Value`]s, so this never allocates.
    pub fn read(&mut self, p: ProcessId, r: RegId) -> Value {
        self.record(p, r, PrimitiveClass::Read);
        self.regs[r.0]
    }

    /// Atomic write (one step).
    pub fn write(&mut self, p: ProcessId, r: RegId, v: Value) {
        self.record(p, r, PrimitiveClass::Write);
        self.set_reg(r, v);
    }

    /// Atomic swap: writes `v` and returns the previous value (one step,
    /// consensus number 2).
    pub fn swap(&mut self, p: ProcessId, r: RegId, v: Value) -> Value {
        self.record(p, r, PrimitiveClass::Swap);
        let prev = self.regs[r.0];
        self.set_reg(r, v);
        prev
    }

    /// Atomic test-and-set on a boolean register: sets it to `true` and
    /// returns the previous boolean (one step, consensus number 2).
    pub fn test_and_set(&mut self, p: ProcessId, r: RegId) -> bool {
        self.record(p, r, PrimitiveClass::TestAndSet);
        let prev = self.regs[r.0].as_bool();
        self.set_reg(r, Value::TRUE);
        prev
    }

    /// Atomic fetch-and-add on an integer register (one step, consensus
    /// number 2). `⊥` is treated as 0.
    pub fn fetch_add(&mut self, p: ProcessId, r: RegId, delta: i64) -> i64 {
        self.record(p, r, PrimitiveClass::FetchAdd);
        let prev = self.regs[r.0].as_opt_int().unwrap_or(0);
        self.set_reg(r, Value::int(prev + delta));
        prev
    }

    /// Atomic compare-and-swap (one step, consensus number ∞). Returns the
    /// value held before the operation; the swap succeeded iff that value
    /// equals `expected`.
    pub fn compare_and_swap(
        &mut self,
        p: ProcessId,
        r: RegId,
        expected: Value,
        new: Value,
    ) -> Value {
        self.record(p, r, PrimitiveClass::CompareAndSwap);
        let current = self.regs[r.0];
        if current == expected {
            self.set_reg(r, new);
        }
        current
    }

    /// Reads a register without counting a step — used only by assertions
    /// and metrics collection in tests/harnesses, never by algorithms.
    pub fn peek(&self, r: RegId) -> Value {
        self.regs[r.0]
    }

    // ------------------------------------------------------------------
    // The simulated network.
    // ------------------------------------------------------------------

    /// Sets up the simulated network: `clients` client endpoints (mapped to
    /// processes `0..clients`), `servers` passive replicas each initialised
    /// to `server_init`, and an in-flight buffer of `cap` slots. Call from
    /// the scenario's setup closure, after [`Self::reset`] (the network is
    /// structural per epoch and is *not* part of snapshots).
    ///
    /// `cap` bounds the total number of messages *sent* per execution (slots
    /// are monotone, never reused); pick it as the worst-case message count
    /// of the workload and the explorer will map slot `s` to delivery
    /// pseudo-process `2n + s` and drop pseudo-process `2n + cap + s`.
    /// `cap` is at most 64: slot sets are `u64` masks.
    pub fn net_init(
        &mut self,
        clients: usize,
        servers: usize,
        cap: usize,
        server_init: &[i64],
        handler: ServerHandler,
    ) {
        assert!(
            clients + servers <= 64,
            "severed-endpoint mask is a u64: at most 64 endpoints"
        );
        assert!(
            cap <= 64,
            "in-flight slot masks are u64s: net_init cap must be at most 64 (got {cap})"
        );
        self.net.cap = cap;
        self.net.clients = clients;
        self.net.servers.clear();
        self.net
            .servers
            .extend((0..servers).map(|_| server_init.to_vec()));
        self.net.handler = Some(handler);
        self.net.slots.clear();
        self.net.slots.resize(cap, None);
        self.net.seq = 0;
        self.net.born = 0;
        self.net.occupied = 0;
        self.net.inboxes.clear();
        self.net.inboxes.resize(clients * NET_LANES, Vec::new());
        self.net.severed = 0;
        self.net.inbox_regs.clear();
        for c in 0..clients {
            for lane in 0..NET_LANES {
                let r = self.alloc(&format!("net.inbox{c}.{lane}"), Value::NULL);
                self.net.inbox_regs.push(r);
            }
        }
        self.net.server_regs.clear();
        for s in 0..servers {
            let r = self.alloc(&format!("net.srv{s}"), Value::NULL);
            self.net.server_regs.push(r);
        }
        self.net.slot_reg = Some(self.alloc("net.slots", Value::NULL));
        self.net.slot_item_regs.clear();
        for s in 0..cap {
            let r = self.alloc(&format!("net.slot{s}"), Value::NULL);
            self.net.slot_item_regs.push(r);
        }
    }

    /// The in-flight buffer capacity (0 when no network is configured —
    /// the explorer uses this to decide whether network pseudo-processes
    /// exist at all).
    pub fn net_cap(&self) -> usize {
        self.net.cap
    }

    /// Number of client endpoints.
    pub fn net_clients(&self) -> usize {
        self.net.clients
    }

    /// Severs the endpoints in `mask` (bit `i` = client `i`, bit
    /// `clients + j` = server `j`): every subsequent send to or from a
    /// severed endpoint vanishes silently — no slot, no loss notification,
    /// no drop budget. Models a link partition (or an unresponsive node)
    /// lasting the whole execution when applied at setup time.
    pub fn net_sever(&mut self, mask: u64) {
        self.net.severed = mask;
    }

    /// The current severed-endpoint mask.
    pub fn net_severed(&self) -> u64 {
        self.net.severed
    }

    #[inline]
    fn endpoint_bit(clients: usize, node: NetNode) -> u64 {
        match node {
            NetNode::Client(i) => 1u64 << i,
            NetNode::Server(j) => 1u64 << (clients + j),
        }
    }

    #[inline]
    fn net_crosses_severed(&self, msg: &Message) -> bool {
        let bits = Self::endpoint_bit(self.net.clients, msg.src)
            | Self::endpoint_bit(self.net.clients, msg.dst);
        self.net.severed & bits != 0
    }

    /// Sends `msg`: the *one* shared-memory step of the calling process's
    /// transition. Its footprint is `{slot_reg, item(s)}` — all sends
    /// conflict with each other through `slot_reg` (slot assignment is
    /// order-sensitive), and writing the freshly assigned slot's item cell
    /// orders the send before the delivery/drop that consumes it. Returns
    /// `false` when the message crossed a severed link and vanished without
    /// consuming a slot (a purely local step: nothing shared was touched).
    pub fn net_send(&mut self, p: ProcessId, msg: Message) -> bool {
        if self.net_crosses_severed(&msg) {
            return false;
        }
        let slot_reg = self.net.slot_reg.expect("net_send before net_init");
        self.record(p, slot_reg, PrimitiveClass::Write);
        let s = self.net.seq;
        assert!(
            s < self.net.cap && self.net.born & (1u64 << s) == 0,
            "network capacity exhausted (send slot {s} collides with the reply region) — raise \
             the net_init cap"
        );
        self.net.born |= 1u64 << s;
        self.net.occupied |= 1u64 << s;
        self.set_slot(s, Some(msg));
        self.net.seq += 1;
        // `record` set a single-register `Write(slot_reg)`; widen it to the
        // exact two-register network write set.
        self.last_footprint = net_fp(&[slot_reg, self.net.slot_item_regs[s]]);
        true
    }

    /// Bitmask of occupied in-flight slots (bit `s` = slot `s` holds an
    /// undelivered message) — the explorer's per-state set of enabled
    /// delivery/drop transitions. Maintained by every send, delivery and
    /// drop, so this is a field read.
    pub fn net_occupied(&self) -> u64 {
        debug_assert_eq!(
            self.net.occupied,
            self.scanned_occupied(),
            "maintained in-flight mask diverged from the slots"
        );
        self.net.occupied
    }

    /// The occupied-slot mask recomputed by scanning every slot: the
    /// reference the maintained mask is checked against.
    fn scanned_occupied(&self) -> u64 {
        self.net
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .fold(0, |m, (s, _)| m | 1u64 << s)
    }

    /// Number of in-flight (undelivered) messages.
    pub fn net_in_flight(&self) -> usize {
        self.net_occupied().count_ones() as usize
    }

    /// The message currently occupying `slot`, if any — an inspector for
    /// harnesses and tests that steer deliveries by content (never used by
    /// algorithms, which only see their own inboxes).
    pub fn net_slot(&self, slot: usize) -> Option<&Message> {
        self.net.slots.get(slot).and_then(|s| s.as_ref())
    }

    /// Delivers the message in `slot` (a scheduled transition, not a process
    /// step — the executor charges no process counters). To a client: pushes
    /// it onto the destination inbox. To a server: runs the handler, which
    /// mutates the replica state and may enqueue one reply into a fresh slot
    /// (vanishing silently if the reply would cross a severed link).
    ///
    /// Returns `(owner, footprint)` for the transition's [`StepLabel`].
    /// The footprint is the transition's exact write set over the network's
    /// virtual registers ([`NetWrites`]):
    ///
    /// * every delivery writes `item(slot)` — the same cell its send wrote,
    ///   so the happens-before layer always has an edge back to the
    ///   transition that *created* the message, and a deliver and a drop of
    ///   the same message never commute;
    /// * a delivery to a **client** also writes that client's inbox;
    /// * a delivery to a **server** also writes that replica's state, and —
    ///   when the handler **enqueues a reply** — the reply's item cell at
    ///   its deterministic address `cap - 1 - s` (never `slot_reg`: reply
    ///   placement is independent of delivery order by construction).
    ///
    /// Everything else (a delivery to server `j`, a delivery to client `c`,
    /// a send by some other client) commutes, which is exactly the freedom
    /// the partial-order reductions need to prune message interleavings.
    pub fn net_deliver(&mut self, slot: usize) -> (ProcessId, Footprint) {
        let msg = self
            .set_slot(slot, None)
            .expect("net_deliver of an empty slot");
        self.net.occupied &= !(1u64 << slot);
        let owner = msg.owner;
        let item = self.net.slot_item_regs[slot];
        match msg.dst {
            NetNode::Client(c) => {
                let ix = Self::lane_ix(c, msg.lane);
                let fp = net_fp(&[item, self.net.inbox_regs[ix]]);
                self.inbox_push(ix, msg);
                (owner, fp)
            }
            NetNode::Server(j) => {
                let handler = self.net.handler.expect("net_deliver before net_init");
                if self.undo.on {
                    self.undo.servers.push((j, self.undo.words.len()));
                    self.undo.words.extend_from_slice(&self.net.servers[j]);
                }
                let reply = handler(j, &mut self.net.servers[j], &msg);
                let srv = self.net.server_regs[j];
                match reply {
                    Some(r) if !self.net_crosses_severed(&r) => {
                        // Deterministic reply address: the reply to slot `s`
                        // lands at `cap - 1 - s`, independent of delivery
                        // order — so the footprint needs no `slot_reg` and
                        // reply-enqueuing deliveries to different replicas
                        // commute.
                        let rs = self.net.cap - 1 - slot;
                        assert!(
                            rs > slot && self.net.born & (1u64 << rs) == 0,
                            "network capacity exhausted (reply slot {rs} collides) — raise the \
                             net_init cap"
                        );
                        self.net.born |= 1u64 << rs;
                        self.net.occupied |= 1u64 << rs;
                        self.set_slot(rs, Some(r));
                        (owner, net_fp(&[item, srv, self.net.slot_item_regs[rs]]))
                    }
                    _ => (owner, net_fp(&[item, srv])),
                }
            }
        }
    }

    /// Drops the message in `slot` (a scheduled fault transition): the
    /// message is removed from flight and a *loss notification* — the same
    /// message with [`Message::lost`] set — is pushed directly onto the
    /// owner's inbox, modelling the sender's timeout firing. Returns
    /// `(owner, footprint)` for the transition's label: the write set
    /// `{item(slot), inbox(owner, lane)}` — the item cell orders the drop
    /// after the send that created the message (and excludes it against the
    /// delivery of the same slot), the inbox-lane write covers the loss
    /// notification (filed under the dropped message's own lane, so the
    /// owner's current collect phase sees it iff it is still in that phase).
    pub fn net_drop(&mut self, slot: usize) -> (ProcessId, Footprint) {
        let msg = self
            .set_slot(slot, None)
            .expect("net_drop of an empty slot");
        self.net.occupied &= !(1u64 << slot);
        let owner = msg.owner;
        let ix = Self::lane_ix(owner.index(), msg.lane);
        let fp = net_fp(&[self.net.slot_item_regs[slot], self.net.inbox_regs[ix]]);
        self.inbox_push(ix, Message { lost: true, ..msg });
        (owner, fp)
    }

    /// The inbox index of client `c`'s lane for key `lane` (keys reduce
    /// modulo [`NET_LANES`]).
    #[inline]
    fn lane_ix(c: usize, lane: usize) -> usize {
        c * NET_LANES + lane % NET_LANES
    }

    /// Receives the next message from lane `lane` of process `p`'s inbox
    /// (FIFO within the lane): the one shared-memory step of the calling
    /// transition (a read of that lane's register — receives from other
    /// lanes, and deliveries into them, commute with this one). Returns
    /// `None` on an empty lane — protocols normally guard with
    /// [`crate::machine::OpExecution::blocked`] so the scheduler never
    /// wastes a step here.
    pub fn net_recv(&mut self, p: ProcessId, lane: usize) -> Option<Message> {
        let ix = Self::lane_ix(p.index(), lane);
        let r = self.net.inbox_regs[ix];
        self.record(p, r, PrimitiveClass::Read);
        if self.net.inboxes[ix].is_empty() {
            None
        } else {
            let msg = self.net.inboxes[ix].remove(0);
            if self.undo.on {
                self.undo.inboxes.push((ix, Some(msg)));
            }
            Some(msg)
        }
    }

    /// Whether lane `lane` of process `p`'s inbox holds at least one
    /// message (no step).
    pub fn net_pending(&self, p: ProcessId, lane: usize) -> bool {
        self.net
            .inboxes
            .get(Self::lane_ix(p.index(), lane))
            .is_some_and(|ib| !ib.is_empty())
    }

    /// Read-only view of replica `j`'s protocol state — for assertions and
    /// harnesses, never a protocol step.
    pub fn net_server_state(&self, j: usize) -> &[i64] {
        &self.net.servers[j]
    }

    /// The virtual register standing for lane `lane` of client `c`'s inbox.
    pub fn net_inbox_reg(&self, c: usize, lane: usize) -> RegId {
        self.net.inbox_regs[Self::lane_ix(c, lane)]
    }

    /// The virtual register standing for replica `j`'s protocol state.
    pub fn net_server_reg(&self, j: usize) -> RegId {
        self.net.server_regs[j]
    }

    /// The virtual register standing for the shared in-flight slot buffer.
    pub fn net_slot_reg(&self) -> RegId {
        self.net.slot_reg.expect("no network configured")
    }

    /// The virtual register standing for slot `s`'s in-flight message (its
    /// send, delivery and drop all write it).
    pub fn net_slot_item_reg(&self, s: usize) -> RegId {
        self.net.slot_item_regs[s]
    }

    /// Predicted footprint of *delivering* slot `s` — the sleep-set wake
    /// rule's over-approximation of what [`Self::net_deliver`] would touch.
    /// For a server-bound message it always includes the deterministic reply
    /// address `cap - 1 - s`: the handler *may* enqueue a reply there. An
    /// empty slot (already consumed by the sibling drop) degrades to
    /// [`Footprint::Unknown`] — a spurious wake at worst.
    pub fn net_deliver_footprint(&self, s: usize) -> Footprint {
        match self.net.slots.get(s).and_then(|m| m.as_ref()) {
            None => Footprint::Unknown,
            Some(msg) => match msg.dst {
                NetNode::Client(c) => net_fp(&[
                    self.net.slot_item_regs[s],
                    self.net.inbox_regs[Self::lane_ix(c, msg.lane)],
                ]),
                NetNode::Server(j) => net_fp(&[
                    self.net.slot_item_regs[s],
                    self.net.server_regs[j],
                    self.net.slot_item_regs[self.net.cap - 1 - s],
                ]),
            },
        }
    }

    /// Predicted footprint of *dropping* slot `s` — exact (see
    /// [`Self::net_drop`]), with the same empty-slot degradation as
    /// [`Self::net_deliver_footprint`].
    pub fn net_drop_footprint(&self, s: usize) -> Footprint {
        match self.net.slots.get(s).and_then(|m| m.as_ref()) {
            None => Footprint::Unknown,
            Some(msg) => net_fp(&[
                self.net.slot_item_regs[s],
                self.net.inbox_regs[Self::lane_ix(msg.owner.index(), msg.lane)],
            ]),
        }
    }

    /// Order-sensitive digest of the full network state (replicas, in-flight
    /// slots, seq, inboxes, severed mask) — used by snapshot round-trip
    /// tests to check bit-identical restoration.
    pub fn net_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(FNV_PRIME);
        };
        let mix_msg = |mix: &mut dyn FnMut(u64), m: &Message| {
            let code = |n: NetNode| match n {
                NetNode::Client(i) => i as u64 * 2,
                NetNode::Server(j) => j as u64 * 2 + 1,
            };
            mix(code(m.src));
            mix(code(m.dst));
            mix(m.owner.index() as u64);
            mix(m.lane as u64);
            for w in m.body {
                mix(w as u64);
            }
            mix(m.lost as u64);
        };
        mix(self.net.seq as u64);
        mix(self.net.born);
        mix(self.net.severed);
        for state in &self.net.servers {
            mix(state.len() as u64);
            for &w in state {
                mix(w as u64);
            }
        }
        for slot in &self.net.slots {
            match slot {
                None => mix(0),
                Some(m) => {
                    mix(1);
                    mix_msg(&mut mix, m);
                }
            }
        }
        for ib in &self.net.inboxes {
            mix(ib.len() as u64);
            for m in ib {
                mix_msg(&mut mix, m);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn read_write_round_trip_counts_steps() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(0));
        m.begin_op(p(0));
        assert_eq!(m.read(p(0), r), Value::int(0));
        m.write(p(0), r, Value::int(5));
        assert_eq!(m.read(p(0), r), Value::int(5));
        let c = m.counters(p(0));
        assert_eq!(c.steps, 3);
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(m.global_steps(), 3);
    }

    #[test]
    fn swap_and_tas_are_rmw() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(1));
        let b = m.alloc("flag", Value::FALSE);
        m.begin_op(p(0));
        assert_eq!(m.swap(p(0), r, Value::int(2)), Value::int(1));
        assert!(!m.test_and_set(p(0), b));
        assert!(m.test_and_set(p(0), b));
        let c = m.counters(p(0));
        assert_eq!(c.rmws, 3);
        assert_eq!(c.fences, 3);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let mut m = SharedMemory::new();
        let r = m.alloc("count", Value::int(0));
        assert_eq!(m.fetch_add(p(0), r, 1), 0);
        assert_eq!(m.fetch_add(p(1), r, 1), 1);
        assert_eq!(m.peek(r), Value::int(2));
    }

    #[test]
    fn cas_succeeds_only_on_expected() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::NULL);
        let before = m.compare_and_swap(p(0), r, Value::NULL, Value::int(1));
        assert_eq!(before, Value::NULL);
        let before = m.compare_and_swap(p(1), r, Value::NULL, Value::int(2));
        assert_eq!(before, Value::int(1));
        assert_eq!(m.peek(r), Value::int(1));
    }

    #[test]
    fn audit_tracks_consensus_numbers() {
        let mut m = SharedMemory::new();
        let a = m.alloc("reg-only", Value::int(0));
        let b = m.alloc("tas", Value::FALSE);
        let c = m.alloc("cas", Value::NULL);
        m.read(p(0), a);
        m.write(p(0), a, Value::int(1));
        m.test_and_set(p(0), b);
        assert_eq!(m.audit()[a.0].required_consensus_number(), Some(1));
        assert_eq!(m.audit()[b.0].required_consensus_number(), Some(2));
        assert_eq!(m.max_required_consensus_number(), Some(2));
        m.compare_and_swap(p(0), c, Value::NULL, Value::int(1));
        assert_eq!(m.max_required_consensus_number(), None);
    }

    #[test]
    fn unused_registers_do_not_affect_audit() {
        let mut m = SharedMemory::new();
        let _ = m.alloc("unused-cas-target", Value::NULL);
        let a = m.alloc("used", Value::int(0));
        m.read(p(0), a);
        assert_eq!(m.max_required_consensus_number(), Some(1));
    }

    #[test]
    fn raw_fence_charged_on_read_after_write_within_op() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(0));
        m.begin_op(p(0));
        m.read(p(0), r); // no fence
        m.write(p(0), r, Value::int(1));
        m.read(p(0), r); // RAW fence
        m.read(p(0), r); // already fenced
        assert_eq!(m.counters(p(0)).fences, 1);
        // New operation resets the accounting.
        m.begin_op(p(0));
        m.read(p(0), r);
        assert_eq!(m.counters(p(0)).fences, 1);
    }

    #[test]
    fn per_process_counters_are_independent() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(0));
        m.read(p(0), r);
        m.read(p(1), r);
        m.read(p(1), r);
        assert_eq!(m.counters(p(0)).steps, 1);
        assert_eq!(m.counters(p(1)).steps, 2);
        assert_eq!(m.global_steps(), 3);
    }

    #[test]
    fn reset_restores_a_fresh_memory_and_reuses_slots() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(7));
        let probe = m.alloc("probe", Value::FALSE);
        m.begin_op(p(0));
        m.write(p(0), r, Value::int(9));
        m.test_and_set(p(0), probe);
        assert!(m.global_steps() > 0);

        m.reset();
        assert_eq!(m.register_count(), 0);
        assert_eq!(m.global_steps(), 0);
        assert_eq!(m.counters(p(0)), ProcessCounters::default());
        assert!(m.audit().is_empty());

        // Reallocate with the same shape: initial values and audit are fresh.
        let r2 = m.alloc("x", Value::int(7));
        assert_eq!(r2, r);
        assert_eq!(m.peek(r2), Value::int(7));
        assert!(m.audit()[r2.0].classes.is_empty());
        assert_eq!(m.audit()[r2.0].name, "x");

        // Reallocating under a different name rewrites the audit name.
        m.reset();
        let r3 = m.alloc("y", Value::NULL);
        assert_eq!(m.audit()[r3.0].name, "y");
    }

    #[test]
    fn footprint_dependence_rules() {
        let a = RegId(0);
        let b = RegId(1);
        assert!(!Footprint::Read(a).dependent(Footprint::Read(a)));
        assert!(!Footprint::Read(a).dependent(Footprint::Read(b)));
        assert!(Footprint::Read(a).dependent(Footprint::Write(a)));
        assert!(Footprint::Write(a).dependent(Footprint::Read(a)));
        assert!(Footprint::Write(a).dependent(Footprint::Write(a)));
        assert!(!Footprint::Write(a).dependent(Footprint::Write(b)));
        assert!(!Footprint::Pure.dependent(Footprint::Write(a)));
        assert!(!Footprint::Pure.dependent(Footprint::Pure));
        assert!(Footprint::Unknown.dependent(Footprint::Pure));
        assert!(Footprint::Read(a).dependent(Footprint::Unknown));
    }

    #[test]
    fn last_footprint_tracks_the_most_recent_step() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(0));
        let s = m.alloc("y", Value::FALSE);
        assert_eq!(m.last_footprint(), Footprint::Pure);
        m.read(p(0), r);
        assert_eq!(m.last_footprint(), Footprint::Read(r));
        m.write(p(0), r, Value::int(1));
        assert_eq!(m.last_footprint(), Footprint::Write(r));
        m.test_and_set(p(1), s);
        assert_eq!(m.last_footprint(), Footprint::Write(s));
        m.reset();
        assert_eq!(m.last_footprint(), Footprint::Pure);
    }

    #[test]
    fn snapshot_restore_round_trips_values_counters_and_audit() {
        let mut m = SharedMemory::new();
        let r = m.alloc("x", Value::int(7));
        let f = m.alloc("flag", Value::FALSE);
        m.begin_op(p(0));
        m.write(p(0), r, Value::int(9));

        let snap = m.snapshot();
        let audit_before = m.audit().to_vec();
        let counters_before = m.counters(p(0));

        // Mutate: new values, new classes, new registers, new processes.
        m.test_and_set(p(1), f);
        m.swap(p(0), r, Value::int(11));
        m.read(p(0), r); // RAW-relevant read by a process that wrote
        let extra = m.alloc("late", Value::NULL);
        m.compare_and_swap(p(2), extra, Value::NULL, Value::int(1));
        assert_eq!(m.max_required_consensus_number(), None);

        m.restore(&snap);
        assert_eq!(m.register_count(), 2);
        assert_eq!(m.peek(r), Value::int(9));
        assert_eq!(m.peek(f), Value::FALSE);
        assert_eq!(m.audit(), &audit_before[..]);
        assert_eq!(m.counters(p(0)), counters_before);
        assert_eq!(m.counters(p(1)), ProcessCounters::default());
        assert_eq!(m.counters(p(2)), ProcessCounters::default());
        assert_eq!(m.global_steps(), snap.global_steps());
        assert_eq!(m.max_required_consensus_number(), Some(1));
    }

    #[test]
    fn snapshot_restore_then_replay_is_bit_identical_to_uninterrupted_run() {
        let suffix = |m: &mut SharedMemory, r: RegId, f: RegId| {
            m.begin_op(p(1));
            m.test_and_set(p(1), f);
            m.write(p(1), r, Value::int(3));
            m.read(p(1), r);
        };

        // Uninterrupted reference run.
        let mut a = SharedMemory::new();
        let (ra, fa) = (a.alloc("x", Value::int(0)), a.alloc("f", Value::FALSE));
        a.begin_op(p(0));
        a.write(p(0), ra, Value::int(1));
        suffix(&mut a, ra, fa);

        // Snapshot mid-way, take a detour, restore, replay the suffix.
        let mut b = SharedMemory::new();
        let (rb, fb) = (b.alloc("x", Value::int(0)), b.alloc("f", Value::FALSE));
        b.begin_op(p(0));
        b.write(p(0), rb, Value::int(1));
        let mut snap = MemSnapshot::new();
        b.snapshot_into(&mut snap);
        b.fetch_add(p(2), rb, 40);
        let _ = b.alloc("detour", Value::TRUE);
        b.restore(&snap);
        suffix(&mut b, rb, fb);

        assert_eq!(a.peek(ra), b.peek(rb));
        assert_eq!(a.peek(fa), b.peek(fb));
        assert_eq!(a.audit(), b.audit());
        assert_eq!(a.global_steps(), b.global_steps());
        for i in 0..3 {
            assert_eq!(a.counters(p(i)), b.counters(p(i)), "process {i}");
        }
        assert_eq!(a.last_footprint(), b.last_footprint());
    }

    #[test]
    fn registers_allocated_after_a_restore_recycle_rolled_back_slots() {
        let mut m = SharedMemory::new();
        let keep = m.alloc("keep", Value::int(1));
        let snap = m.snapshot();
        let rolled = m.alloc("rolled-back", Value::TRUE);
        m.write(p(0), rolled, Value::FALSE);
        m.restore(&snap);
        assert_eq!(m.register_count(), 1);
        // The next alloc reuses the rolled-back slot with fresh contents.
        let fresh = m.alloc("fresh", Value::int(5));
        assert_eq!(fresh, rolled);
        assert_eq!(m.peek(fresh), Value::int(5));
        assert!(m.audit()[fresh.0].classes.is_empty());
        assert_eq!(m.audit()[fresh.0].name, "fresh");
        assert_eq!(m.peek(keep), Value::int(1));
    }

    #[test]
    fn reset_then_same_allocs_is_indistinguishable_from_new() {
        let build = |m: &mut SharedMemory| {
            let a = m.alloc("a", Value::NULL);
            let b = m.alloc("b", Value::int(3));
            (a, b)
        };
        let mut fresh = SharedMemory::new();
        let (fa, fb) = build(&mut fresh);
        fresh.read(p(1), fa);
        fresh.swap(p(0), fb, Value::int(4));

        let mut reused = SharedMemory::new();
        let _ = build(&mut reused);
        reused.fetch_add(p(2), RegId(1), 5);
        reused.reset();
        let (ra, rb) = build(&mut reused);
        reused.read(p(1), ra);
        reused.swap(p(0), rb, Value::int(4));

        assert_eq!(fresh.global_steps(), reused.global_steps());
        assert_eq!(fresh.counters(p(0)), reused.counters(p(0)));
        assert_eq!(fresh.counters(p(1)), reused.counters(p(1)));
        assert_eq!(fresh.counters(p(2)), reused.counters(p(2)));
        assert_eq!(fresh.audit(), reused.audit());
        assert_eq!(fresh.peek(fb), reused.peek(rb));
    }

    /// Echo replica for network tests: stores the last payload word and
    /// replies with it to the message's owner.
    #[allow(clippy::ptr_arg)] // the `net_init` handler type is `fn(_, &mut Vec<i64>, _)`
    fn echo_handler(server: usize, state: &mut Vec<i64>, msg: &Message) -> Option<Message> {
        state[0] = msg.body[3];
        Some(Message {
            src: NetNode::Server(server),
            dst: NetNode::Client(msg.owner.index()),
            owner: msg.owner,
            lane: msg.lane,
            body: [1, msg.body[1], 0, state[0]],
            lost: false,
        })
    }

    /// Lane key used by [`req`] — deliberately above `NET_LANES` so the
    /// tests exercise the modulo filing (11 % 8 = lane 3).
    const LANE: usize = 11;

    fn req(owner: usize, server: usize, val: i64) -> Message {
        Message {
            src: NetNode::Client(owner),
            dst: NetNode::Server(server),
            owner: p(owner),
            lane: LANE,
            body: [0, 7, 0, val],
            lost: false,
        }
    }

    #[test]
    fn network_send_deliver_reply_recv_round_trip() {
        let mut m = SharedMemory::new();
        m.net_init(2, 2, 8, &[0], echo_handler);
        assert_eq!(m.net_cap(), 8);
        assert_eq!(m.net_clients(), 2);

        assert!(m.net_send(p(0), req(0, 1, 42)));
        assert_eq!(m.net_occupied(), 0b1);
        assert_eq!(m.net_in_flight(), 1);
        assert_eq!(
            m.last_footprint(),
            net_fp(&[m.net_slot_reg(), m.net_slot_item_reg(0)])
        );

        // Delivery to the server mutates the replica and enqueues the reply
        // at its deterministic address cap-1-0 = 7: {item(0), srv(1), item(7)}.
        let (owner, fp) = m.net_deliver(0);
        assert_eq!(owner, p(0));
        assert_eq!(
            fp,
            net_fp(&[
                m.net_slot_item_reg(0),
                m.net_server_reg(1),
                m.net_slot_item_reg(7),
            ])
        );
        assert_eq!(m.net_server_state(1), &[42]);
        assert_eq!(m.net_occupied(), 0b1000_0000);

        // Delivery of the reply lands in the owner's inbox.
        let (owner, fp) = m.net_deliver(7);
        assert_eq!(owner, p(0));
        assert_eq!(
            fp,
            net_fp(&[m.net_slot_item_reg(7), m.net_inbox_reg(0, LANE)])
        );
        assert!(m.net_pending(p(0), LANE));
        assert!(!m.net_pending(p(0), LANE + 1), "other lanes stay empty");
        assert!(!m.net_pending(p(1), LANE));

        let got = m.net_recv(p(0), LANE).expect("reply queued");
        assert_eq!(got.body, [1, 7, 0, 42]);
        assert_eq!(got.lane, LANE);
        assert!(!got.lost);
        assert!(m.net_recv(p(0), LANE).is_none());
    }

    #[test]
    fn network_drop_delivers_a_loss_notification_to_the_owner() {
        let mut m = SharedMemory::new();
        m.net_init(1, 1, 4, &[0], echo_handler);
        assert!(m.net_send(p(0), req(0, 0, 5)));
        let (owner, fp) = m.net_drop(0);
        assert_eq!(owner, p(0));
        // The drop writes the message's item cell (ordering it after the
        // send that created it) and the owner's inbox (the notification).
        assert_eq!(
            fp,
            net_fp(&[m.net_slot_item_reg(0), m.net_inbox_reg(0, LANE)])
        );
        assert_eq!(m.net_in_flight(), 0);
        // The server never saw the message.
        assert_eq!(m.net_server_state(0), &[0]);
        let lost = m.net_recv(p(0), LANE).expect("loss notification queued");
        assert!(lost.lost);
        assert_eq!(lost.dst, NetNode::Server(0));
        assert_eq!(lost.body[1], 7);
    }

    #[test]
    fn severed_sends_vanish_without_consuming_slots_or_steps() {
        let mut m = SharedMemory::new();
        m.net_init(2, 3, 8, &[0], echo_handler);
        // Sever server 2 (bit clients + 2 = 4).
        m.net_sever(1 << 4);
        assert_eq!(m.net_severed(), 1 << 4);
        let steps_before = m.global_steps();
        assert!(!m.net_send(p(0), req(0, 2, 9)));
        assert_eq!(m.global_steps(), steps_before);
        assert_eq!(m.net_in_flight(), 0);
        // Other links are unaffected, and a reply *to* a severed client
        // vanishes at delivery time.
        assert!(m.net_send(p(1), req(1, 0, 3)));
        m.net_sever(1 << 1);
        let (_, fp) = m.net_deliver(0);
        // The reply vanished at the severed link, so the footprint is just
        // {item(0), srv(0)} — no reply slot was allocated.
        assert_eq!(fp, net_fp(&[m.net_slot_item_reg(0), m.net_server_reg(0)]));
        assert_eq!(m.net_server_state(0), &[3]);
        assert_eq!(m.net_in_flight(), 0);
    }

    #[test]
    fn snapshot_restore_round_trips_the_network_bit_identically() {
        let mut m = SharedMemory::new();
        m.net_init(2, 2, 8, &[0], echo_handler);
        assert!(m.net_send(p(0), req(0, 0, 1)));
        assert!(m.net_send(p(1), req(1, 1, 2)));
        m.net_deliver(0);
        let digest = m.net_digest();
        let snap = m.snapshot();

        // Detour: deliver the reply (at cap-1-0 = 7), drop, sever, recv —
        // then roll everything back.
        m.net_deliver(7);
        m.net_drop(1);
        m.net_sever(0b11);
        let _ = m.net_recv(p(0), LANE);
        assert_ne!(m.net_digest(), digest);

        m.restore(&snap);
        assert_eq!(m.net_digest(), digest);
        assert_eq!(m.net_server_state(0), &[1]);
        assert_eq!(m.net_severed(), 0);
        assert_eq!(m.net_occupied(), 0b1000_0010);
    }

    #[test]
    #[should_panic(expected = "net_init cap must be at most 64")]
    fn net_init_rejects_a_cap_beyond_the_u64_slot_masks() {
        let mut m = SharedMemory::new();
        m.net_init(1, 1, 65, &[0], echo_handler);
    }

    /// The audit log read back per register: entry counts must equal each
    /// live register's class count, and no entry may name a dead register.
    fn assert_audit_log_matches_a_scan(m: &SharedMemory, at: &str) {
        let mut per_reg = vec![0usize; m.register_count()];
        for r in &m.audit_log {
            assert!(
                r.0 < m.register_count(),
                "log names a dead register at {at}"
            );
            per_reg[r.0] += 1;
        }
        for (r, a) in m.audit().iter().enumerate() {
            assert_eq!(per_reg[r], a.classes.len(), "register {r} at {at}");
        }
    }

    #[test]
    fn random_traffic_with_checkpoints_keeps_the_mask_and_audit_equal_to_a_scan() {
        use crate::rng::SplitMix64;
        const CAP: usize = 64;
        for case in 0..48u64 {
            let mut rng = SplitMix64::new(0x0CC_0F1A ^ case);
            let mut m = SharedMemory::new();
            m.net_init(2, 2, CAP, &[0], echo_handler);
            let mut regs: Vec<RegId> = (0..3)
                .map(|i| m.alloc(&format!("r{i}"), Value::int(0)))
                .collect();
            // Sends so far: kept below CAP / 2 so every send slot `s` and
            // its reply slot `CAP - 1 - s` stay disjoint.
            let mut sends = 0usize;
            // Checkpoints: the mark, a full-copy snapshot and a clone of the
            // memory taken at the mark, and the send count at the time.
            let mut stack: Vec<(MemMark, MemSnapshot, SharedMemory, usize)> = Vec::new();
            for step in 0..240 {
                let at = format!("case {case} step {step}");
                let in_flight = m.scanned_occupied();
                let pick = |rng: &mut SplitMix64, mask: u64| {
                    let k = rng.next_below(mask.count_ones() as usize);
                    (0..CAP).filter(|s| mask & 1u64 << s != 0).nth(k).unwrap()
                };
                match rng.next_below(12) {
                    0 | 1 if sends < CAP / 2 => {
                        let c = rng.next_below(2);
                        assert!(m.net_send(p(c), req(c, rng.next_below(2), step as i64)));
                        sends += 1;
                    }
                    2..=4 if in_flight != 0 => {
                        m.net_deliver(pick(&mut rng, in_flight));
                    }
                    5 if in_flight != 0 => {
                        m.net_drop(pick(&mut rng, in_flight));
                    }
                    6 => {
                        let _ = m.net_recv(p(rng.next_below(2)), LANE);
                    }
                    7 if regs.len() < 6 => regs.push(m.alloc("late", Value::int(0))),
                    8 | 9 => {
                        let r = regs[rng.next_below(regs.len())];
                        let q = p(rng.next_below(3));
                        match rng.next_below(5) {
                            0 => drop(m.read(q, r)),
                            1 => m.write(q, r, Value::int(1)),
                            2 => drop(m.swap(q, r, Value::int(2))),
                            3 => drop(m.fetch_add(q, r, 1)),
                            _ => drop(m.compare_and_swap(q, r, Value::int(0), Value::int(3))),
                        }
                    }
                    10 => {
                        let mark = m.mark();
                        let mut snap = MemSnapshot::new();
                        m.snapshot_into(&mut snap);
                        stack.push((mark, snap, m.clone(), sends));
                    }
                    11 if !stack.is_empty() => {
                        // Undo to the newest mark; keep it for a later second
                        // undo half of the time. The rewound state must equal
                        // the full copy taken at the mark.
                        let (mark, snap, expect, at_sends) = if rng.next_bool() {
                            stack.pop().unwrap()
                        } else {
                            stack.last().cloned().unwrap()
                        };
                        m.undo_to(&mark);
                        sends = at_sends;
                        regs.retain(|r| r.0 < m.register_count());
                        assert_eq!(m.snapshot(), snap, "state at {at}");
                        for i in 0..m.register_count() {
                            assert_eq!(
                                m.peek(RegId(i)),
                                expect.peek(RegId(i)),
                                "register {i} at {at}"
                            );
                        }
                        assert_eq!(m.audit(), expect.audit(), "audit at {at}");
                        assert_eq!(m.net_digest(), expect.net_digest(), "network at {at}");
                        assert_eq!(m.net.occupied, expect.net.occupied, "mask at {at}");
                    }
                    _ => {}
                }
                assert_eq!(m.net.occupied, m.scanned_occupied(), "mask at {at}");
                assert_eq!(
                    m.net_in_flight(),
                    m.scanned_occupied().count_ones() as usize
                );
                assert_audit_log_matches_a_scan(&m, &at);
            }
        }
    }

    #[test]
    fn reset_clears_the_network_for_the_next_epoch() {
        let mut m = SharedMemory::new();
        m.net_init(1, 1, 4, &[0], echo_handler);
        assert!(m.net_send(p(0), req(0, 0, 5)));
        m.net_sever(1);
        m.reset();
        assert_eq!(m.net_cap(), 0);
        assert_eq!(m.net_in_flight(), 0);
        assert_eq!(m.net_severed(), 0);
        // Re-init after reset rebuilds the same structure deterministically.
        m.net_init(1, 1, 4, &[0], echo_handler);
        assert_eq!(m.net_cap(), 4);
        assert_eq!(m.net_occupied(), 0);
    }
}
