//! A multi-writer ABD register emulation over the simulated network — the
//! message-passing counterpart of the crate's shared-memory registers, used
//! to check the quorum theorems as executable expectations.
//!
//! The algorithm is the classic Attiya–Bar-Noy–Dolev emulation in its
//! multi-writer form. Every operation runs two quorum phases against a set
//! of passive replicas:
//!
//! * **query** — send `QUERY` to every replica, collect `(tag, value)`
//!   snapshots until a quorum of *distinct* replicas answered, and take the
//!   maximum tag (tags pack `(timestamp, writer-id)` so they totally order
//!   concurrent writes);
//! * **update** — `Write(v)` bumps the timestamp and propagates
//!   `(max_ts + 1 · writer, v)`; `Read` writes *back* the maximum it saw
//!   (the read must be ordered after the write it returns, or a slow
//!   update could let two sequential reads observe new-then-old). The
//!   operation commits once a quorum of distinct replicas acknowledged.
//!
//! Replicas adopt an update iff its tag strictly exceeds their own, so
//! redelivery and resends are idempotent.
//!
//! **Fault handling.** The network layer turns a dropped message into a
//! loss notification delivered to the owning client (a sender-timeout
//! model). A client that learns a message of its *current* phase was lost
//! re-sends it to the same replica, spending one unit of its bounded retry
//! budget; once the budget is exhausted the operation degrades to a
//! *designed abort* ([`OpOutcome::Abort`]) instead of retrying forever.
//! Messages that cross a severed (partitioned) link vanish without a
//! notification, so an operation that can no longer assemble a quorum
//! simply *blocks* ([`OpExecution::blocked`]) — the executor then reports a
//! wedged execution with the operation still open, which the checkers
//! surface as a progress violation rather than a hang.
//!
//! The quorum size defaults to a majority (`servers / 2 + 1`), which makes
//! any two quorums intersect — the property the linearizability proof
//! rests on. [`AbdRegister::new_quorum_mutant`] seeds the classic
//! off-by-one bug (quorum = majority − 1): two quorums may be disjoint, a
//! reader can miss a completed write, and every linearizability-preserving
//! exploration mode must catch the stale read it produces.

use scl_sim::{
    Footprint, Message, NetNode, ObjectSnapshot, OpExecution, OpOutcome, RegId, SharedMemory,
    SimObject, StepOutcome,
};
use scl_spec::{ProcessId, RegisterOp, RegisterSpec, Request};

/// Message kinds carried in `body[0]`.
const QUERY: i64 = 0;
const QUERY_RESP: i64 = 1;
const UPDATE: i64 = 2;
const UPDATE_ACK: i64 = 3;

/// Packs a `(timestamp, writer)` pair into one totally ordered tag. The
/// writer id occupies the low 6 bits (the network caps endpoints at 64), so
/// comparing tags compares timestamps first and breaks ties by writer.
fn pack_tag(ts: i64, writer: usize) -> i64 {
    ts * 64 + writer as i64
}

/// The timestamp half of a packed tag.
fn tag_ts(tag: i64) -> i64 {
    tag / 64
}

/// The replica handler: answers `QUERY` with the current `(tag, value)`
/// snapshot and adopts an `UPDATE` iff its tag strictly exceeds the stored
/// one (making redelivery idempotent), acknowledging either way.
#[allow(clippy::ptr_arg)] // the `net_init` handler type is `fn(_, &mut Vec<i64>, _)`
fn abd_server(server: usize, state: &mut Vec<i64>, msg: &Message) -> Option<Message> {
    let [kind, req, tag, val] = msg.body;
    let reply = |body: [i64; 4]| {
        Some(Message {
            src: NetNode::Server(server),
            dst: msg.src,
            owner: msg.owner,
            // Replies travel on the requesting phase's mailbox lane, so a
            // reply that arrives after its phase completed lands in a lane
            // the client is no longer collecting from — and its delivery
            // commutes with the client's current phase.
            lane: msg.lane,
            body,
            lost: false,
        })
    };
    match kind {
        QUERY => reply([QUERY_RESP, req, state[0], state[1]]),
        UPDATE => {
            if tag > state[0] {
                state[0] = tag;
                state[1] = val;
            }
            reply([UPDATE_ACK, req, tag, val])
        }
        _ => None,
    }
}

/// See the [module documentation](self).
pub struct AbdRegister {
    servers: usize,
    quorum: usize,
    retry: usize,
    slot_reg: RegId,
}

impl AbdRegister {
    /// Sets up the network (`clients` client endpoints, `servers` replicas
    /// initialised to `(tag 0, value 0)`, an in-flight buffer of `cap`
    /// slots) and returns the register with a majority quorum
    /// (`servers / 2 + 1`) and `retry` resends per operation.
    pub fn new(
        mem: &mut SharedMemory,
        clients: usize,
        servers: usize,
        cap: usize,
        retry: usize,
    ) -> Self {
        Self::with_quorum(mem, clients, servers, cap, retry, servers / 2 + 1)
    }

    /// The seeded off-by-one mutant: quorum = majority − 1. Two quorums may
    /// be disjoint, so a read can miss a completed write — non-linearizable
    /// even with zero crashes, drops and partitions.
    pub fn new_quorum_mutant(
        mem: &mut SharedMemory,
        clients: usize,
        servers: usize,
        cap: usize,
        retry: usize,
    ) -> Self {
        Self::with_quorum(mem, clients, servers, cap, retry, servers / 2)
    }

    /// Explicit-quorum constructor backing the two public ones.
    pub fn with_quorum(
        mem: &mut SharedMemory,
        clients: usize,
        servers: usize,
        cap: usize,
        retry: usize,
        quorum: usize,
    ) -> Self {
        assert!(quorum >= 1 && quorum <= servers, "quorum out of range");
        mem.net_init(clients, servers, cap, &[0, 0], abd_server);
        AbdRegister {
            servers,
            quorum,
            retry,
            slot_reg: mem.net_slot_reg(),
        }
    }
}

impl SimObject<RegisterSpec, ()> for AbdRegister {
    fn invoke(
        &mut self,
        mem: &mut SharedMemory,
        req: Request<RegisterSpec>,
        _switch: Option<()>,
    ) -> Box<dyn OpExecution<RegisterSpec, ()>> {
        let client = req.proc.index();
        Box::new(AbdOp {
            proc: req.proc,
            servers: self.servers,
            quorum: self.quorum,
            retry_left: self.retry,
            op: req.op,
            // Phase ids are globally unique (request ids are), so stale
            // replies and loss notifications from earlier phases are
            // recognised and ignored.
            phase_req: (req.id.raw() as i64) * 2,
            pc: Pc::SendQuery,
            send_cursor: 0,
            acked: 0,
            max_tag: -1,
            max_val: 0,
            update_tag: 0,
            update_val: 0,
            resend_to: None,
            slot_reg: self.slot_reg,
            query_inbox_reg: mem.net_inbox_reg(client, (req.id.raw() as usize) * 2),
            update_inbox_reg: mem.net_inbox_reg(client, (req.id.raw() as usize) * 2 + 1),
        })
    }

    fn name(&self) -> &'static str {
        "abd register"
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        // All mutable state lives in the simulated network (replicas,
        // in-flight slots, inboxes), which the memory snapshot carries.
        Some(ObjectSnapshot::stateless())
    }
}

/// Client phases: one message sent (or re-sent) per step, one inbox message
/// consumed per step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pc {
    SendQuery,
    CollectQuery,
    SendUpdate,
    CollectUpdate,
}

/// One in-flight ABD operation (both `Read` and `Write` — they share the
/// two-phase skeleton and differ only in what the update phase propagates
/// and what the commit returns).
#[derive(Clone)]
struct AbdOp {
    proc: ProcessId,
    servers: usize,
    quorum: usize,
    retry_left: usize,
    op: RegisterOp,
    /// The current phase's id, carried in `body[1]` (query = `2·req.id`,
    /// update = `2·req.id + 1`).
    phase_req: i64,
    pc: Pc,
    send_cursor: usize,
    /// Distinct replicas that answered the current collect phase.
    acked: u64,
    max_tag: i64,
    max_val: i64,
    update_tag: i64,
    update_val: i64,
    /// A replica owed a resend (stashed on a loss notification; the send
    /// itself happens on the *next* step, keeping one network access per
    /// step).
    resend_to: Option<usize>,
    slot_reg: RegId,
    /// The mailbox-lane registers of the two phases (lane key = phase id):
    /// each collect phase reads only its own lane, so stale traffic for the
    /// other phase — or for other operations — commutes with it.
    query_inbox_reg: RegId,
    update_inbox_reg: RegId,
}

impl AbdOp {
    fn send_to(&self, mem: &mut SharedMemory, server: usize) {
        let body = match self.pc {
            Pc::SendQuery | Pc::CollectQuery => [QUERY, self.phase_req, 0, 0],
            Pc::SendUpdate | Pc::CollectUpdate => {
                [UPDATE, self.phase_req, self.update_tag, self.update_val]
            }
        };
        // A send to a severed replica vanishes silently (no slot, no loss
        // notification) — the operation will block or abort on its own.
        let _ = mem.net_send(
            self.proc,
            Message {
                src: NetNode::Client(self.proc.index()),
                dst: NetNode::Server(server),
                owner: self.proc,
                lane: self.phase_req as usize,
                body,
                lost: false,
            },
        );
    }

    /// The replica on the far end of a message of ours (request or reply).
    fn far_server(&self, msg: &Message) -> Option<usize> {
        match (msg.src, msg.dst) {
            (NetNode::Server(j), _) | (_, NetNode::Server(j)) => Some(j),
            _ => None,
        }
    }

    /// Advances from a completed query collect into the update phase.
    fn begin_update(&mut self) {
        match self.op {
            RegisterOp::Write(v) => {
                self.update_tag = pack_tag(tag_ts(self.max_tag.max(0)) + 1, self.proc.index());
                self.update_val = v as i64;
            }
            RegisterOp::Read => {
                // Write-back: propagate the maximum we saw so the returned
                // value is committed at a quorum before we respond.
                self.update_tag = self.max_tag.max(0);
                self.update_val = self.max_val;
            }
        }
        self.phase_req += 1;
        self.pc = Pc::SendUpdate;
        self.send_cursor = 0;
        self.acked = 0;
    }

    fn committed_value(&self) -> u64 {
        match self.op {
            RegisterOp::Write(v) => v,
            RegisterOp::Read => self.max_val as u64,
        }
    }
}

impl OpExecution<RegisterSpec, ()> for AbdOp {
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<RegisterSpec, ()> {
        match self.pc {
            Pc::SendQuery | Pc::SendUpdate => {
                let server = self.send_cursor;
                self.send_to(mem, server);
                self.send_cursor += 1;
                if self.send_cursor == self.servers {
                    self.pc = match self.pc {
                        Pc::SendQuery => Pc::CollectQuery,
                        _ => Pc::CollectUpdate,
                    };
                }
                StepOutcome::Continue
            }
            Pc::CollectQuery | Pc::CollectUpdate => {
                if let Some(server) = self.resend_to.take() {
                    self.send_to(mem, server);
                    return StepOutcome::Continue;
                }
                let Some(msg) = mem.net_recv(self.proc, self.phase_req as usize) else {
                    // Scheduled despite an empty inbox (the executor's
                    // `blocked` gate normally prevents this); the read of
                    // the inbox register was still a step.
                    return StepOutcome::Continue;
                };
                let [kind, req, tag, val] = msg.body;
                if req != self.phase_req {
                    // A stale reply or loss notification from an earlier
                    // phase — the operation has already moved on.
                    return StepOutcome::Continue;
                }
                if msg.lost {
                    if self.retry_left == 0 {
                        // Retry budget exhausted: the designed abort of the
                        // module interface, not a hang.
                        return StepOutcome::Done(OpOutcome::Abort(()));
                    }
                    self.retry_left -= 1;
                    self.resend_to = self.far_server(&msg);
                    return StepOutcome::Continue;
                }
                let expected = match self.pc {
                    Pc::CollectQuery => QUERY_RESP,
                    _ => UPDATE_ACK,
                };
                if kind != expected {
                    return StepOutcome::Continue;
                }
                let Some(j) = self.far_server(&msg) else {
                    return StepOutcome::Continue;
                };
                if self.acked & (1 << j) != 0 {
                    // A duplicate (the replica answered a resend too):
                    // quorums count *distinct* replicas.
                    return StepOutcome::Continue;
                }
                self.acked |= 1 << j;
                if self.pc == Pc::CollectQuery && tag > self.max_tag {
                    self.max_tag = tag;
                    self.max_val = val;
                }
                if (self.acked.count_ones() as usize) < self.quorum {
                    return StepOutcome::Continue;
                }
                match self.pc {
                    Pc::CollectQuery => {
                        self.begin_update();
                        StepOutcome::Continue
                    }
                    _ => StepOutcome::Done(OpOutcome::Commit(self.committed_value())),
                }
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<RegisterSpec, ()>>> {
        Some(Box::new(self.clone()))
    }

    fn next_footprint(&self) -> Footprint {
        match self.pc {
            // Sends (and queued resends) allocate an in-flight slot, so
            // every pair of sends races on the slot-allocation register.
            // The send also writes its new slot's item cell, which this
            // prediction leaves out. Slots are never reused, and send slots
            // and reply slots are disjoint regions of the network, so only
            // the send that creates a message touches its item cell before
            // that message exists: no transition that can run while the
            // send sleeps writes or reads the cell, and leaving it out loses
            // no dependence.
            Pc::SendQuery | Pc::SendUpdate => Footprint::Write(self.slot_reg),
            Pc::CollectQuery | Pc::CollectUpdate => {
                if self.resend_to.is_some() {
                    Footprint::Write(self.slot_reg)
                } else if self.pc == Pc::CollectQuery {
                    Footprint::Read(self.query_inbox_reg)
                } else {
                    Footprint::Read(self.update_inbox_reg)
                }
            }
        }
    }

    fn may_respond_next(&self) -> bool {
        // Commit and abort both happen while consuming the inbox.
        matches!(self.pc, Pc::CollectQuery | Pc::CollectUpdate) && self.resend_to.is_none()
    }

    fn blocked(&self, mem: &SharedMemory) -> bool {
        matches!(self.pc, Pc::CollectQuery | Pc::CollectUpdate)
            && self.resend_to.is_none()
            && !mem.net_pending(self.proc, self.phase_req as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_sim::SharedMemory;

    fn invoke(
        obj: &mut AbdRegister,
        mem: &mut SharedMemory,
        id: u64,
        proc: usize,
        op: RegisterOp,
    ) -> Box<dyn OpExecution<RegisterSpec, ()>> {
        obj.invoke(mem, Request::new(id, proc, op), None)
    }

    /// Steps `exec`, delivering every in-flight message after each step,
    /// until the operation finishes. Panics if it blocks forever.
    fn run_to_done(
        exec: &mut Box<dyn OpExecution<RegisterSpec, ()>>,
        mem: &mut SharedMemory,
    ) -> OpOutcome<RegisterSpec, ()> {
        for _ in 0..256 {
            if !exec.blocked(mem) {
                if let StepOutcome::Done(o) = exec.step(mem) {
                    return o;
                }
            }
            let occupied = mem.net_occupied();
            for s in 0..mem.net_cap() {
                if occupied & (1 << s) != 0 {
                    mem.net_deliver(s);
                }
            }
        }
        panic!("operation did not finish");
    }

    #[test]
    fn write_then_read_round_trips_through_the_quorum() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new(&mut mem, 1, 2, 32, 1);
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(7));
        assert_eq!(run_to_done(&mut w, &mut mem), OpOutcome::Commit(7));
        assert_eq!(mem.net_server_state(0)[1], 7);
        assert_eq!(mem.net_server_state(1)[1], 7);
        let mut r = invoke(&mut obj, &mut mem, 2, 0usize, RegisterOp::Read);
        assert_eq!(run_to_done(&mut r, &mut mem), OpOutcome::Commit(7));
    }

    /// Steps `exec` to completion, delivering only the in-flight messages
    /// `keep` selects (the rest stay in flight — an asynchronous network is
    /// free to delay them forever).
    fn run_with_delivery(
        exec: &mut Box<dyn OpExecution<RegisterSpec, ()>>,
        mem: &mut SharedMemory,
        keep: impl Fn(&Message) -> bool,
    ) -> OpOutcome<RegisterSpec, ()> {
        for _ in 0..256 {
            if !exec.blocked(mem) {
                if let StepOutcome::Done(o) = exec.step(mem) {
                    return o;
                }
            }
            let occupied = mem.net_occupied();
            for s in 0..mem.net_cap() {
                if occupied & (1 << s) != 0 && mem.net_slot(s).is_some_and(&keep) {
                    mem.net_deliver(s);
                }
            }
        }
        panic!("operation did not finish under the chosen delivery policy");
    }

    fn touches(msg: &Message, replica: usize) -> bool {
        msg.src == NetNode::Server(replica) || msg.dst == NetNode::Server(replica)
    }

    #[test]
    fn quorum_mutant_lets_a_read_miss_a_completed_write() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new_quorum_mutant(&mut mem, 2, 2, 32, 1);
        // Writer: quorum 1 — only replica 0 ever hears from it (the
        // replica-1 messages stay in flight, as an asynchronous network
        // permits).
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(7));
        let o = run_with_delivery(&mut w, &mut mem, |m| touches(m, 0));
        assert_eq!(o, OpOutcome::Commit(7));
        assert_eq!(
            mem.net_server_state(1)[0],
            0,
            "replica 1 must miss the write"
        );
        // Reader, strictly after the completed write: replica 1 answers
        // first, the mutant's quorum of 1 is satisfied, and the stale 0 is
        // returned — the linearizability violation the mutant seeds. (Only
        // the reader's own replica-1 messages are delivered; the writer's
        // still-in-flight update must not sneak in.)
        let mut r = invoke(&mut obj, &mut mem, 2, 1usize, RegisterOp::Read);
        let o = run_with_delivery(&mut r, &mut mem, |m| {
            m.owner == ProcessId(1) && touches(m, 1)
        });
        assert_eq!(o, OpOutcome::Commit(0), "stale read");
    }

    #[test]
    fn a_dropped_query_is_resent_and_the_write_still_commits() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new(&mut mem, 1, 2, 32, 1);
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(9));
        // Two query sends.
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        // Drop the query to replica 1: the loss notification reaches the
        // writer, which resends out of its budget and still commits.
        mem.net_drop(1);
        assert_eq!(run_to_done(&mut w, &mut mem), OpOutcome::Commit(9));
        assert_eq!(mem.net_server_state(1)[1], 9);
    }

    #[test]
    fn retry_exhaustion_degrades_to_the_designed_abort() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new(&mut mem, 1, 2, 32, 0);
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(9));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        mem.net_drop(1);
        // The very next consumed message is the loss notification; with a
        // zero retry budget the operation aborts by design.
        assert_eq!(run_to_done(&mut w, &mut mem), OpOutcome::Abort(()));
    }

    #[test]
    fn collect_phase_blocks_exactly_while_the_inbox_is_empty() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new(&mut mem, 1, 2, 32, 1);
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(3));
        assert!(!w.blocked(&mem), "send phase never blocks");
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        assert!(w.blocked(&mem), "collect with an empty inbox blocks");
        mem.net_deliver(0);
        assert!(w.blocked(&mem), "a replica delivery alone does not unblock");
        let occupied = mem.net_occupied();
        let reply = (0..mem.net_cap())
            .find(|s| occupied & (1 << s) != 0 && *s != 1)
            .expect("reply slot");
        mem.net_deliver(reply);
        assert!(!w.blocked(&mem), "the reply in the inbox unblocks");
    }

    #[test]
    fn a_severed_majority_wedges_the_writer() {
        let mut mem = SharedMemory::new();
        let mut obj = AbdRegister::new(&mut mem, 1, 2, 32, 1);
        // Sever replica 1 (endpoint bit clients + 1): quorum 2 becomes
        // unreachable.
        mem.net_sever(1 << 2);
        let mut w = invoke(&mut obj, &mut mem, 1, 0usize, RegisterOp::Write(5));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
        // Only the replica-0 query is in flight; drain it and its reply.
        let mut guard = 0;
        while mem.net_in_flight() > 0 || !w.blocked(&mem) {
            let occupied = mem.net_occupied();
            for s in 0..mem.net_cap() {
                if occupied & (1 << s) != 0 {
                    mem.net_deliver(s);
                }
            }
            if !w.blocked(&mem) {
                assert!(matches!(w.step(&mut mem), StepOutcome::Continue));
            }
            guard += 1;
            assert!(guard < 64, "writer must wedge, not spin");
        }
        assert!(w.blocked(&mem), "one replica can never assemble the quorum");
    }
}
