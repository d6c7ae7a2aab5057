//! An incremental (online) Wing–Gong linearizability checker.
//!
//! [`crate::check_linearizable`] re-runs a memoised depth-first search over
//! the *whole* history every time it is called. That is the right shape for
//! checking one recorded trace, but the schedule explorer in `scl-sim`
//! enumerates thousands of executions that share long prefixes: re-checking
//! each complete execution from scratch repeats almost all of the work.
//!
//! [`IncrementalLinChecker`] is the same search turned inside out, in the
//! style of Wing & Gong's original online formulation (and of Lowe's
//! "just-in-time linearization"): the checker consumes invocation and commit
//! events one at a time and maintains the *frontier* — the set of
//! `(linearized-set, object-state)` configurations that are consistent with
//! the events seen so far:
//!
//! * an **invocation** adds a pending operation (the frontier is unchanged —
//!   the operation may take effect at any later point);
//! * a **commit** of operation `X` with response `r` replaces the frontier:
//!   from every configuration, the checker linearizes any sequence of
//!   currently-pending operations ending with `X` (whose response must then
//!   equal `r`), deduplicating configurations along the way. An empty new
//!   frontier means no linearization order exists — the history is not
//!   linearizable, and stays so for every extension.
//!
//! The real-time order falls out for free: an operation can only be
//! linearized after its invocation has been consumed and must be linearized
//! no later than its commit, which is exactly the "response before
//! invocation" precedence of linearizability. Operations that never commit
//! (crashed or aborted speculative instances) are never forced into the
//! witness: they may be linearized on demand to explain someone else's
//! response — taking effect with an arbitrary response — or silently dropped,
//! as usual for linearizability.
//!
//! Because the frontier after a prefix of events is a pure function of that
//! prefix, the checker supports [`IncrementalLinChecker::mark`] /
//! [`IncrementalLinChecker::rewind_to`]: the explorer snapshots the frontier
//! at every branch point (alongside its memory/session/object checkpoints)
//! and re-checks only the suffix when backtracking — the memoised Wing–Gong
//! states keyed at branch points that make per-schedule linearizability
//! verdicts affordable over a whole schedule space.
//!
//! # Representation
//!
//! Object states, responses and overlong assigned-response lists are
//! hash-consed into append-only arenas (see `ConfigStore`), so a frontier
//! configuration is a small `Copy` value (operation mask + state id + an
//! inline list of assigned-response ids): frontier updates, `visited`
//! deduplication and mark snapshots move plain words instead of cloning and
//! re-hashing spec states — the constant factor that used to eat the
//! incremental checker's state-count win.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::history::Request;
use crate::ids::RequestId;
use crate::seqspec::SequentialSpec;

/// Work accounting of an [`IncrementalLinChecker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncCheckStats {
    /// Frontier configurations expanded (the incremental analogue of the
    /// from-scratch checker's search states).
    pub states: u64,
    /// Commit events processed.
    pub commits: u64,
    /// Invocation events processed.
    pub invokes: u64,
}

impl IncCheckStats {
    fn clear(&mut self) {
        *self = IncCheckStats::default();
    }
}

/// The verdict of the checker for the events consumed so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncVerdict {
    /// Every commit consumed so far admits a linearization order.
    Linearizable,
    /// Some commit admits no linearization order; the offending request is
    /// reported. Once reached, every extension of the history stays
    /// non-linearizable — except where the only orders left place a crashed
    /// operation past its crash gate ([`IncrementalLinChecker::crash`]):
    /// those stand if that operation still commits.
    NotLinearizable(RequestId),
    /// More than 128 concurrently tracked operations (the same bound as
    /// [`crate::check_linearizable`]).
    TooLarge,
}

impl IncVerdict {
    /// `true` iff the verdict is [`IncVerdict::Linearizable`].
    pub fn is_linearizable(&self) -> bool {
        matches!(self, IncVerdict::Linearizable)
    }
}

#[derive(Debug, Clone)]
struct IncOp<S: SequentialSpec> {
    id: RequestId,
    op: S::Op,
    /// `Some` once the commit event for this operation has been consumed.
    committed: bool,
    /// `Some(seq)` once a crash event for this operation has been consumed,
    /// where `seq` is the number of invocations consumed before the crash:
    /// slots `>= seq` belong to operations invoked *after* the crash. Under
    /// the strict completion closure the operation may only be linearized
    /// while no such later-invoked operation is linearized yet.
    crashed_seq: Option<usize>,
    /// Whether the crash gate dissolves if the operation commits after all
    /// (a recovery may still resolve it): a configuration may then
    /// linearize it past the gate, but owes its commit (see [`OWED`]).
    may_commit: bool,
}

/// Undo log entries for [`IncrementalLinChecker::rewind_to`].
#[derive(Debug, Clone, Copy)]
enum LogEntry {
    /// `ops[slot]` was appended by an invocation.
    Invoked(usize),
    /// `ops[slot].committed` was set by a commit.
    Committed(usize),
    /// `ops[slot].crashed_seq` was set by a crash.
    Crashed(usize),
}

/// A hash-consing arena: each distinct value gets a dense `u32` id, so
/// value equality becomes id equality and frontier configurations can carry
/// ids instead of cloned values.
struct Arena<T: Clone + Eq + std::hash::Hash> {
    values: Vec<T>,
    ids: FxHashMap<T, u32>,
}

impl<T: Clone + Eq + std::hash::Hash> Arena<T> {
    fn new() -> Self {
        Arena {
            values: Vec::new(),
            ids: FxHashMap::default(),
        }
    }

    fn clear(&mut self) {
        self.values.clear();
        self.ids.clear();
    }

    fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.clone());
        self.ids.insert(value, id);
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }
}

/// An assigned-response entry, packed as `(slot << 32) | resp_id`. Slots
/// occupy the high bits, so sorting entries sorts by slot (slots are unique
/// within one list).
type AssignedEntry = u64;

#[inline]
fn pack_entry(slot: usize, resp_id: u32) -> AssignedEntry {
    ((slot as u64) << 32) | resp_id as u64
}

#[inline]
fn entry_slot(entry: AssignedEntry) -> usize {
    (entry >> 32) as usize
}

#[inline]
fn entry_resp(entry: AssignedEntry) -> u32 {
    entry as u32
}

/// Set on the response id of an assigned entry whose operation was
/// linearized past its crash gate: the configuration stands only if that
/// operation still commits (which removes the entry). Response ids are
/// arena indices, far below this bit.
const OWED: u32 = 1 << 31;

/// How many assigned-response entries a [`Config`] stores inline. Lists
/// longer than this (more than `ASSIGNED_INLINE` operations linearized while
/// still pending — rare) are hash-consed into the spill arena.
const ASSIGNED_INLINE: usize = 4;

/// The responses assigned to operations linearized *while still pending*,
/// sorted by slot. Canonical representation: at most [`ASSIGNED_INLINE`]
/// entries inline (unused slots zeroed), longer lists always spilled (and
/// hash-consed, so derived equality is value equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Assigned {
    Inline {
        len: u8,
        entries: [AssignedEntry; ASSIGNED_INLINE],
    },
    Spilled(u32),
}

impl Assigned {
    const EMPTY: Assigned = Assigned::Inline {
        len: 0,
        entries: [0; ASSIGNED_INLINE],
    };
}

/// The value store backing [`Config`]s: hash-consing arenas for object
/// states, responses and overlong assigned lists, plus the scratch buffer
/// the assigned-list operations build into. Arenas are append-only between
/// [`IncrementalLinChecker::begin`]s, so ids stay valid across
/// [`IncrementalLinChecker::rewind_to`].
struct ConfigStore<S: SequentialSpec> {
    states: Arena<S::State>,
    resps: Arena<S::Resp>,
    spill: Arena<Vec<AssignedEntry>>,
    scratch: Vec<AssignedEntry>,
}

impl<S: SequentialSpec> ConfigStore<S> {
    fn new() -> Self {
        ConfigStore {
            states: Arena::new(),
            resps: Arena::new(),
            spill: Arena::new(),
            scratch: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.states.clear();
        self.resps.clear();
        self.spill.clear();
    }

    /// Whether `assigned` linearized a crashed operation past its crash gate
    /// that has not committed since.
    fn owes_commit(&self, assigned: Assigned) -> bool {
        let entries: &[AssignedEntry] = match &assigned {
            Assigned::Inline { len, entries } => &entries[..*len as usize],
            Assigned::Spilled(id) => self.spill.get(*id),
        };
        entries.iter().any(|&e| entry_resp(e) & OWED != 0)
    }

    /// The response id assigned to `slot` (with [`OWED`] set if it was
    /// linearized past its crash gate), if any.
    fn assigned_find(&self, assigned: Assigned, slot: usize) -> Option<u32> {
        let entries: &[AssignedEntry] = match &assigned {
            Assigned::Inline { len, entries } => &entries[..*len as usize],
            Assigned::Spilled(id) => self.spill.get(*id),
        };
        entries
            .iter()
            .find(|&&e| entry_slot(e) == slot)
            .map(|&e| entry_resp(e))
    }

    /// A copy of `assigned` with `(slot, resp_id)` inserted (sorted by slot).
    fn assigned_insert(&mut self, assigned: Assigned, slot: usize, resp_id: u32) -> Assigned {
        let entry = pack_entry(slot, resp_id);
        self.load_scratch(assigned);
        let pos = self.scratch.partition_point(|&e| e < entry);
        self.scratch.insert(pos, entry);
        self.pack_scratch()
    }

    /// A copy of `assigned` with the entry for `slot` removed.
    fn assigned_remove(&mut self, assigned: Assigned, slot: usize) -> Assigned {
        self.load_scratch(assigned);
        self.scratch.retain(|&e| entry_slot(e) != slot);
        self.pack_scratch()
    }

    fn load_scratch(&mut self, assigned: Assigned) {
        self.scratch.clear();
        match assigned {
            Assigned::Inline { len, entries } => {
                self.scratch.extend_from_slice(&entries[..len as usize])
            }
            Assigned::Spilled(id) => self.scratch.extend_from_slice(self.spill.get(id)),
        }
    }

    fn pack_scratch(&mut self) -> Assigned {
        let len = self.scratch.len();
        if len <= ASSIGNED_INLINE {
            let mut entries = [0u64; ASSIGNED_INLINE];
            entries[..len].copy_from_slice(&self.scratch);
            Assigned::Inline {
                len: len as u8,
                entries,
            }
        } else {
            // Hash-consed with a borrowed lookup: repeated spills of the
            // same list allocate once, and the scratch buffer is kept.
            if let Some(&id) = self.spill.ids.get(self.scratch.as_slice()) {
                return Assigned::Spilled(id);
            }
            let id = self.spill.values.len() as u32;
            self.spill.values.push(self.scratch.clone());
            self.spill.ids.insert(self.scratch.clone(), id);
            Assigned::Spilled(id)
        }
    }
}

/// One frontier configuration: the set of linearized operations (as a bit
/// mask over `ops` slots), the object state they produce, and the responses
/// assigned to operations that were linearized *while still pending* (sorted
/// by slot). When such an operation later commits, only configurations whose
/// assigned response matches the observed one survive; operations that never
/// commit may keep any assignment (or none — they can also be dropped).
///
/// States, responses and overlong assigned lists live in the checker's
/// [`ConfigStore`] and are referred to by hash-consed ids, so a `Config` is
/// a small `Copy` value: frontier moves, `visited` deduplication and mark
/// snapshots never clone object states or response values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Config {
    mask: u128,
    state: u32,
    assigned: Assigned,
}

/// A saved checker position: the frontier (and failure state) at a mark.
/// The frontier itself lives in [`IncrementalLinChecker::mark_frontiers`]
/// from `frontier_start` up to the next mark's start.
struct MarkEntry {
    token: u64,
    log_len: usize,
    frontier_start: usize,
    failure: Option<RequestId>,
    owing: Option<RequestId>,
    too_large: bool,
}

/// See the [module documentation](self).
pub struct IncrementalLinChecker<S: SequentialSpec> {
    spec: S,
    ops: Vec<IncOp<S>>,
    index: FxHashMap<RequestId, usize>,
    /// Hash-consing store for the values [`Config`] ids refer to.
    store: ConfigStore<S>,
    /// Current frontier of configurations consistent with the events so far.
    frontier: Vec<Config>,
    /// Scratch for the next frontier (reused across commits).
    next_frontier: Vec<Config>,
    /// Deduplication of configurations during one commit update.
    visited: FxHashSet<Config>,
    /// DFS worklist scratch.
    stack: Vec<Config>,
    log: Vec<LogEntry>,
    marks: Vec<MarkEntry>,
    /// The frontiers of all live marks, one flat stack in mark order
    /// ([`MarkEntry::frontier_start`]), so a mark allocates nothing once
    /// the stack has grown to the deepest branch's size.
    mark_frontiers: Vec<Config>,
    next_token: u64,
    failure: Option<RequestId>,
    /// The commit after which every frontier configuration owes some crashed
    /// operation's late commit: the verdict unless one arrives.
    owing: Option<RequestId>,
    too_large: bool,
    stats: IncCheckStats,
}

impl<S: SequentialSpec> IncrementalLinChecker<S> {
    /// A fresh checker for `spec`, positioned at the empty history.
    pub fn new(spec: S) -> Self {
        let mut checker = IncrementalLinChecker {
            spec,
            ops: Vec::new(),
            index: FxHashMap::default(),
            store: ConfigStore::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            visited: FxHashSet::default(),
            stack: Vec::new(),
            log: Vec::new(),
            marks: Vec::new(),
            mark_frontiers: Vec::new(),
            next_token: 0,
            failure: None,
            owing: None,
            too_large: false,
            stats: IncCheckStats::default(),
        };
        checker.begin();
        checker
    }

    /// Rewinds the checker to the empty history, keeping allocations (one
    /// checker is reused across a whole exploration). Statistics are *not*
    /// reset — they account for the exploration, not one execution.
    pub fn begin(&mut self) {
        self.ops.clear();
        self.index.clear();
        self.store.clear();
        self.frontier.clear();
        let initial = self.store.states.intern(self.spec.initial_state());
        self.frontier.push(Config {
            mask: 0,
            state: initial,
            assigned: Assigned::EMPTY,
        });
        self.log.clear();
        self.marks.clear();
        self.mark_frontiers.clear();
        self.failure = None;
        self.owing = None;
        self.too_large = false;
    }

    /// Work accounting since construction (or [`Self::reset_stats`]).
    pub fn stats(&self) -> IncCheckStats {
        self.stats
    }

    /// Zeroes the work accounting.
    pub fn reset_stats(&mut self) {
        self.stats.clear();
    }

    /// Number of operations (pending + committed) currently tracked.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Consumes an invocation event.
    pub fn invoke(&mut self, req: &Request<S>) {
        self.stats.invokes += 1;
        if self.too_large || self.index.contains_key(&req.id) {
            return;
        }
        if self.ops.len() >= 128 {
            self.too_large = true;
            return;
        }
        let slot = self.ops.len();
        self.index.insert(req.id, slot);
        self.ops.push(IncOp {
            id: req.id,
            op: req.op.clone(),
            committed: false,
            crashed_seq: None,
            may_commit: false,
        });
        self.log.push(LogEntry::Invoked(slot));
    }

    /// Consumes a crash event: the process running operation `id` crashed
    /// with the operation still pending. Under the *strict* completion
    /// closure this checker implements for crashes, the operation may only
    /// take effect before its crash point — once any operation invoked after
    /// the crash is linearized, the crashed operation can no longer be
    /// linearized on demand (it can still be dropped) — unless it commits
    /// after all: a recovery that resolves the operation dissolves the gate,
    /// and the operation is then an ordinary one whose response came late.
    /// Callers wanting the plain (open) closure simply never report crashes.
    /// Crashes of unknown, committed or already-crashed requests are
    /// ignored.
    pub fn crash(&mut self, id: RequestId) {
        self.gate(id, true);
    }

    /// Consumes an abandonment under the *durable* closure: the owner of
    /// operation `id` recovered without resolving it, so it may not take
    /// effect after this point and never commits. The same gate as
    /// [`Self::crash`], except that no later commit can dissolve it.
    pub fn abandon(&mut self, id: RequestId) {
        self.gate(id, false);
    }

    /// Records the crash gate of `id` at the current invocation count; see
    /// [`Self::crash`]. Returns the operation's slot, or `None` when the
    /// event is ignored.
    fn gate(&mut self, id: RequestId, may_commit: bool) -> Option<usize> {
        if self.too_large {
            return None;
        }
        let &slot = self.index.get(&id)?;
        if self.ops[slot].committed || self.ops[slot].crashed_seq.is_some() {
            return None;
        }
        self.ops[slot].crashed_seq = Some(self.ops.len());
        self.ops[slot].may_commit = may_commit;
        self.log.push(LogEntry::Crashed(slot));
        Some(slot)
    }

    /// The [`OWED`] marker for linearizing operation `op` from a
    /// configuration with linearized set `mask`: `Some(0)` before its crash
    /// gate (or if it never crashed), `Some(OWED)` past a gate its commit
    /// may still dissolve, `None` past a gate that stays.
    #[inline]
    fn gate_marker(op: &IncOp<S>, mask: u128) -> Option<u32> {
        match op.crashed_seq {
            Some(seq) if seq < 128 && mask & (!0u128 << seq) != 0 => op.may_commit.then_some(OWED),
            _ => Some(0),
        }
    }

    /// Replaces the frontier with the one `id`'s event produced, and
    /// updates the verdict: an empty frontier fails for good; a frontier in
    /// which every configuration owes a crashed operation's late commit
    /// fails unless that commit arrives.
    fn install_frontier(&mut self, id: RequestId) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        if self.frontier.is_empty() {
            self.failure = Some(id);
        } else if self
            .frontier
            .iter()
            .any(|cfg| !self.store.owes_commit(cfg.assigned))
        {
            self.owing = None;
        } else if self.owing.is_none() {
            self.owing = Some(id);
        }
    }

    /// Consumes a recovery-completion event under the *recoverable*
    /// closure: the process running operation `id` crashed, restarted, and
    /// its recovery routine just completed *without* resolving the
    /// operation. Recoverability demands the interrupted operation takes
    /// effect no later than this point, so the frontier is eagerly replaced:
    /// from every configuration, the checker linearizes any sequence of
    /// currently-pending operations ending with `id` (which takes effect
    /// with an arbitrary response — nothing observed it yet). An empty new
    /// frontier means no order places the operation before its recovery
    /// completed — the history is not recoverable, and stays so for every
    /// extension.
    ///
    /// The eager expansion is required for soundness, not an optimisation:
    /// deferring the check to the next commit (or the final verdict) would
    /// miss histories where *no* later commit re-examines the frontier —
    /// the deadline is the recovery completion itself. The operation also
    /// picks up the strict crash gate (it may not be ordered after anything
    /// invoked after this point), which is what "no later than" means for
    /// events consumed afterwards. Events for unknown, committed or
    /// already-crashed requests are ignored.
    pub fn recovered_required(&mut self, id: RequestId) {
        let Some(slot) = self.gate(id, false) else {
            return;
        };
        if self.failure.is_some() {
            return;
        }
        self.visited.clear();
        self.next_frontier.clear();
        self.stack.clear();
        for cfg in self.frontier.drain(..) {
            if self.visited.insert(cfg) {
                self.stack.push(cfg);
            }
        }
        let target_bit = 1u128 << slot;
        while let Some(cfg) = self.stack.pop() {
            self.stats.states += 1;
            if cfg.mask & target_bit != 0 {
                // Already linearized on demand earlier (with some assigned
                // response, never validated — the operation never commits):
                // the configuration survives as-is. `visited` guarantees
                // each configuration is popped once, so no duplicates.
                self.next_frontier.push(cfg);
                continue;
            }
            // Linearize the required operation now (with an arbitrary
            // response, recorded for the — never arriving — commit)...
            let (next_state, r) = self
                .spec
                .apply(self.store.states.get(cfg.state), &self.ops[slot].op);
            let resp_id = self.store.resps.intern(r);
            let next = Config {
                mask: cfg.mask | target_bit,
                state: self.store.states.intern(next_state),
                assigned: self.store.assigned_insert(cfg.assigned, slot, resp_id),
            };
            if self.visited.insert(next) {
                self.next_frontier.push(next);
            }
            // ...or linearize some other pending operation first.
            self.linearize_another(cfg, slot);
        }
        self.install_frontier(id);
    }

    /// Pushes onto the stack each unvisited configuration that linearizes
    /// one more pending operation other than `slot` after `cfg`, recording
    /// the response it takes effect with for later validation. Strict
    /// closure: a crashed operation may only take effect before its crash
    /// point, so it is blocked once any operation invoked after the crash is
    /// linearized — unless it may still commit, which the configuration
    /// then owes.
    fn linearize_another(&mut self, cfg: Config, slot: usize) {
        for (i, op) in self.ops.iter().enumerate() {
            let bit = 1u128 << i;
            if i == slot || cfg.mask & bit != 0 || op.committed {
                continue;
            }
            let Some(owed) = Self::gate_marker(op, cfg.mask) else {
                continue;
            };
            let (next_state, assigned_resp) =
                self.spec.apply(self.store.states.get(cfg.state), &op.op);
            let resp_id = self.store.resps.intern(assigned_resp);
            let next = Config {
                mask: cfg.mask | bit,
                state: self.store.states.intern(next_state),
                assigned: self.store.assigned_insert(cfg.assigned, i, resp_id | owed),
            };
            if self.visited.insert(next) {
                self.stack.push(next);
            }
        }
    }

    /// Consumes a commit event: operation `id` responded with `resp`.
    /// Commits of unknown or already-committed requests are ignored.
    pub fn commit(&mut self, id: RequestId, resp: &S::Resp) {
        self.stats.commits += 1;
        if self.too_large {
            return;
        }
        let Some(&slot) = self.index.get(&id) else {
            return;
        };
        if self.ops[slot].committed {
            return;
        }
        self.ops[slot].committed = true;
        self.log.push(LogEntry::Committed(slot));
        if self.failure.is_some() {
            // Already failed: the frontier is empty and stays empty; the
            // completion is logged above so rewinds stay consistent.
            return;
        }

        // Just-in-time linearization: from every frontier configuration,
        // either validate an earlier on-demand linearization of `slot`
        // (assigned response must match the observed one) or linearize a
        // sequence of pending operations ending with `slot`. `visited`
        // deduplicates configurations across the whole update; because
        // states, responses and spilled lists are hash-consed, id equality
        // is value equality and every `Config` is a `Copy` move.
        self.visited.clear();
        self.next_frontier.clear();
        self.stack.clear();
        for cfg in self.frontier.drain(..) {
            if self.visited.insert(cfg) {
                self.stack.push(cfg);
            }
        }
        // Interning the observed response makes the assigned-response
        // validation below a u32 compare.
        let observed = self.store.resps.intern(resp.clone());
        let target_bit = 1u128 << slot;
        while let Some(cfg) = self.stack.pop() {
            self.stats.states += 1;
            if cfg.mask & target_bit != 0 {
                // The operation was linearized while pending; the commit only
                // validates its assigned response (and pays what a
                // linearization past its crash gate owed).
                if self
                    .store
                    .assigned_find(cfg.assigned, slot)
                    .is_some_and(|r| r & !OWED == observed)
                {
                    let survivor = Config {
                        assigned: self.store.assigned_remove(cfg.assigned, slot),
                        ..cfg
                    };
                    if self.visited.insert(survivor) {
                        self.next_frontier.push(survivor);
                    }
                }
                continue;
            }
            // Linearize the committed operation now...
            let (next_state, r) = self
                .spec
                .apply(self.store.states.get(cfg.state), &self.ops[slot].op);
            if r == *resp {
                let next = Config {
                    mask: cfg.mask | target_bit,
                    state: self.store.states.intern(next_state),
                    assigned: cfg.assigned,
                };
                if self.visited.insert(next) {
                    self.next_frontier.push(next);
                }
            }
            // ...or linearize some other pending operation first.
            self.linearize_another(cfg, slot);
        }
        self.install_frontier(id);
    }

    /// The verdict for the events consumed so far.
    pub fn verdict(&self) -> IncVerdict {
        if self.too_large {
            IncVerdict::TooLarge
        } else {
            // An owing frontier precedes any later empty one: report the
            // first commit no gate-respecting order admits.
            match self.owing.or(self.failure) {
                Some(id) => IncVerdict::NotLinearizable(id),
                None => IncVerdict::Linearizable,
            }
        }
    }

    /// Whether the frontier is empty: no linearization order exists for the
    /// events consumed so far, and none will for any extension of them.
    /// (A [`IncVerdict::NotLinearizable`] verdict may instead come from a
    /// frontier that owes a crashed operation's late commit, which a later
    /// commit can still pay.)
    pub fn refuted(&self) -> bool {
        self.failure.is_some()
    }

    /// Saves the current checker position and returns a token for
    /// [`Self::rewind_to`]. Tokens form a stack: rewinding to a token
    /// discards every later one.
    pub fn mark(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.marks.push(MarkEntry {
            token,
            log_len: self.log.len(),
            frontier_start: self.mark_frontiers.len(),
            failure: self.failure,
            owing: self.owing,
            too_large: self.too_large,
        });
        self.mark_frontiers.extend_from_slice(&self.frontier);
        token
    }

    /// Rewinds the checker to the position captured by `mark`. The mark
    /// stays valid for further rewinds; marks taken after it are discarded.
    ///
    /// Panics if `token` was never returned by [`Self::mark`] on this
    /// checker since the last [`Self::begin`], or was already discarded.
    pub fn rewind_to(&mut self, token: u64) {
        while let Some(top) = self.marks.last() {
            if top.token > token {
                // A deeper mark's frontier sits on top of this one's.
                self.mark_frontiers.truncate(top.frontier_start);
                self.marks.pop();
            } else {
                break;
            }
        }
        let entry = self
            .marks
            .last()
            .filter(|m| m.token == token)
            .expect("rewind_to: unknown or discarded checker mark");
        while self.log.len() > entry.log_len {
            match self.log.pop().expect("len checked above") {
                LogEntry::Invoked(slot) => {
                    debug_assert_eq!(slot, self.ops.len() - 1, "invokes append");
                    let op = self.ops.pop().expect("slot exists");
                    self.index.remove(&op.id);
                }
                LogEntry::Committed(slot) => {
                    self.ops[slot].committed = false;
                }
                LogEntry::Crashed(slot) => {
                    self.ops[slot].crashed_seq = None;
                }
            }
        }
        self.frontier.clear();
        // The store is append-only between `begin`s, so the ids in the
        // mark's frontier are still valid.
        self.frontier
            .extend_from_slice(&self.mark_frontiers[entry.frontier_start..]);
        self.failure = entry.failure;
        self.owing = entry.owing;
        self.too_large = entry.too_large;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::{check_linearizable, ConcurrentHistory};
    use crate::objects::{RegisterOp, RegisterSpec, TasOp, TasResp, TasSpec};

    fn tas_req(id: u64, p: usize) -> Request<TasSpec> {
        Request::new(id, p, TasOp::TestAndSet)
    }

    /// Drives both checkers over the same event sequence and asserts they
    /// agree. Events: `(Some(resp), id)` = commit, `(None, id)` = invoke.
    fn oracle_tas(events: &[(u64, usize, Option<TasResp>)]) -> bool {
        let mut inc = IncrementalLinChecker::new(TasSpec);
        let mut hist = ConcurrentHistory::new();
        for (at, &(id, p, ref resp)) in events.iter().enumerate() {
            match resp {
                None => {
                    let req = tas_req(id, p);
                    hist.record_invoke(at, req.clone());
                    inc.invoke(&req);
                }
                Some(r) => {
                    hist.record_response(at, RequestId(id), *r);
                    inc.commit(RequestId(id), r);
                }
            }
        }
        let from_scratch = check_linearizable(&TasSpec, &hist).is_linearizable();
        assert_eq!(
            inc.verdict().is_linearizable(),
            from_scratch,
            "incremental and from-scratch checkers disagree on {events:?}"
        );
        from_scratch
    }

    #[test]
    fn agrees_with_from_scratch_on_tas_histories() {
        use TasResp::{Loser, Winner};
        // Sequential winner then loser: linearizable.
        assert!(oracle_tas(&[
            (1, 0, None),
            (1, 0, Some(Winner)),
            (2, 1, None),
            (2, 1, Some(Loser)),
        ]));
        // Two winners: not linearizable.
        assert!(!oracle_tas(&[
            (1, 0, None),
            (2, 1, None),
            (1, 0, Some(Winner)),
            (2, 1, Some(Winner)),
        ]));
        // Sequential loser first: not linearizable.
        assert!(!oracle_tas(&[
            (1, 0, None),
            (1, 0, Some(Loser)),
            (2, 1, None),
            (2, 1, Some(Winner)),
        ]));
        // Overlapping, loser responds first: linearizable.
        assert!(oracle_tas(&[
            (1, 0, None),
            (2, 1, None),
            (2, 1, Some(Loser)),
            (1, 0, Some(Winner)),
        ]));
    }

    #[test]
    fn pending_op_can_take_effect() {
        // A pending (crashed) TAS can explain a later Loser: the checker must
        // linearize the pending op on demand.
        use TasResp::Loser;
        assert!(oracle_tas(&[
            (1, 0, None), // never commits
            (2, 1, None),
            (2, 1, Some(Loser)),
        ]));
    }

    #[test]
    fn pending_op_can_be_dropped() {
        // A pending TAS must NOT be forced to take effect: the later Winner
        // only linearizes if the pending op is dropped (or ordered after).
        use TasResp::Winner;
        assert!(oracle_tas(&[
            (1, 0, None), // never commits
            (2, 1, None),
            (2, 1, Some(Winner)),
        ]));
    }

    #[test]
    fn failure_is_sticky_and_reports_the_offending_request() {
        use TasResp::Winner;
        let mut inc = IncrementalLinChecker::new(TasSpec);
        inc.invoke(&tas_req(1, 0));
        inc.commit(RequestId(1), &Winner);
        inc.invoke(&tas_req(2, 1));
        inc.commit(RequestId(2), &Winner);
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(2)));
        // Further consistent events do not clear the failure.
        inc.invoke(&tas_req(3, 2));
        inc.commit(RequestId(3), &TasResp::Loser);
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(2)));
    }

    #[test]
    fn mark_and_rewind_restore_the_frontier_and_failure_state() {
        use TasResp::{Loser, Winner};
        let mut inc = IncrementalLinChecker::new(TasSpec);
        inc.invoke(&tas_req(1, 0));
        let m = inc.mark();
        // Failing suffix.
        inc.commit(RequestId(1), &Loser);
        assert!(!inc.verdict().is_linearizable());
        // Rewind, take a passing suffix instead.
        inc.rewind_to(m);
        assert!(inc.verdict().is_linearizable());
        inc.commit(RequestId(1), &Winner);
        inc.invoke(&tas_req(2, 1));
        inc.commit(RequestId(2), &Loser);
        assert!(inc.verdict().is_linearizable());
        // The mark survives multiple rewinds.
        inc.rewind_to(m);
        assert_eq!(inc.op_count(), 1);
        inc.commit(RequestId(1), &Winner);
        assert!(inc.verdict().is_linearizable());
    }

    #[test]
    fn rewind_discards_deeper_marks() {
        use TasResp::Winner;
        let mut inc = IncrementalLinChecker::new(TasSpec);
        inc.invoke(&tas_req(1, 0));
        let shallow = inc.mark();
        inc.commit(RequestId(1), &Winner);
        let _deep = inc.mark();
        inc.invoke(&tas_req(2, 1));
        inc.rewind_to(shallow);
        assert_eq!(inc.op_count(), 1);
        // The deep mark is gone; marking again works.
        let again = inc.mark();
        inc.invoke(&tas_req(2, 1));
        inc.rewind_to(again);
        assert_eq!(inc.op_count(), 1);
    }

    #[test]
    fn begin_resets_for_reuse() {
        use TasResp::Winner;
        let mut inc = IncrementalLinChecker::new(TasSpec);
        inc.invoke(&tas_req(1, 0));
        inc.commit(RequestId(1), &TasResp::Loser);
        assert!(!inc.verdict().is_linearizable());
        inc.begin();
        assert!(inc.verdict().is_linearizable());
        inc.invoke(&tas_req(1, 0));
        inc.commit(RequestId(1), &Winner);
        assert!(inc.verdict().is_linearizable());
        assert!(inc.stats().states > 0);
    }

    #[test]
    fn register_stale_read_is_caught() {
        let spec = RegisterSpec;
        let mut inc = IncrementalLinChecker::new(spec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&w);
        inc.commit(RequestId(1), &5);
        inc.invoke(&r);
        inc.commit(RequestId(2), &0);
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(2)));
    }

    #[test]
    fn register_concurrent_read_may_see_old_or_new() {
        for observed in [0u64, 5u64] {
            let mut inc = IncrementalLinChecker::new(RegisterSpec);
            let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
            let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
            inc.invoke(&w);
            inc.invoke(&r);
            inc.commit(RequestId(2), &observed);
            inc.commit(RequestId(1), &5);
            assert!(
                inc.verdict().is_linearizable(),
                "concurrent read observing {observed}"
            );
        }
    }

    #[test]
    fn too_large_histories_are_reported_not_mischecked() {
        let mut inc = IncrementalLinChecker::new(TasSpec);
        for i in 0..200u64 {
            inc.invoke(&tas_req(i + 1, (i % 64) as usize));
        }
        assert_eq!(inc.verdict(), IncVerdict::TooLarge);
    }

    /// The write-behind-register shape (see the strict tests in
    /// `linearizability.rs`): W(5) crashes, two later reads return 0 then 5.
    fn crashed_write_then_reads(r1_sees: u64, r2_sees: u64) -> IncrementalLinChecker<RegisterSpec> {
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        inc.crash(RequestId(1));
        let r1: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&r1);
        inc.commit(RequestId(2), &r1_sees);
        let r2: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        inc.invoke(&r2);
        inc.commit(RequestId(3), &r2_sees);
        inc
    }

    #[test]
    fn crash_blocks_the_op_after_later_invocations() {
        // 0 then 5 needs W *between* the post-crash reads: strictly invalid.
        assert!(!crashed_write_then_reads(0, 5).verdict().is_linearizable());
        // W before everything (5, 5) or dropped (0, 0): strictly fine.
        assert!(crashed_write_then_reads(5, 5).verdict().is_linearizable());
        assert!(crashed_write_then_reads(0, 0).verdict().is_linearizable());
    }

    #[test]
    fn a_late_commit_dissolves_the_crash_gate() {
        // 0 then 5 with W between the post-crash reads, then a recovery
        // resolves W: W's interval now spans both reads, so the order
        // r1, W, r2 stands — as in the from-scratch checker, which sees W
        // as an ordinary op that responded late.
        let mut inc = crashed_write_then_reads(0, 5);
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(3)));
        inc.commit(RequestId(1), &5);
        assert!(inc.verdict().is_linearizable());
        // A gate that no commit can dissolve stays.
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        inc.abandon(RequestId(1));
        for (id, sees) in [(2u64, 0u64), (3, 5)] {
            let r: Request<RegisterSpec> = Request::new(id, 1usize, RegisterOp::Read);
            inc.invoke(&r);
            inc.commit(RequestId(id), &sees);
        }
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(3)));
    }

    #[test]
    fn uncrashed_checker_still_accepts_the_open_closure() {
        // The same events WITHOUT the crash call: the pending W may take
        // effect between the reads, so 0-then-5 is (plain) linearizable.
        // Open mode in the bridge = never telling the checker about crashes.
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        let r1: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&r1);
        inc.commit(RequestId(2), &0);
        let r2: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        inc.invoke(&r2);
        inc.commit(RequestId(3), &5);
        assert!(inc.verdict().is_linearizable());
    }

    /// The recoverable-closure shape (see `required_op_must_take_effect…` in
    /// `linearizability.rs`): W(5) interrupted, recovery completes without
    /// resolving it, a later read observes `sees`.
    fn required_write_then_read(sees: u64) -> IncrementalLinChecker<RegisterSpec> {
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        inc.recovered_required(RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&r);
        inc.commit(RequestId(2), &sees);
        inc
    }

    #[test]
    fn recovered_required_forces_the_op_into_every_order() {
        // The post-recovery read seeing 0 contradicts the obligation: the
        // required W(5) is in every frontier configuration, so the read's
        // commit validates against the assigned 5 and the frontier empties.
        let inc = required_write_then_read(0);
        assert_eq!(inc.verdict(), IncVerdict::NotLinearizable(RequestId(2)));
        // Seeing 5 is exactly the required order.
        assert!(required_write_then_read(5).verdict().is_linearizable());
    }

    #[test]
    fn recovered_required_agrees_with_the_from_scratch_checker() {
        // Drive both checkers over the same recoverable-closure event
        // sequences (including a pre-deadline read that may be ordered
        // before the required write) and compare verdicts.
        for (r1_at_invoke, sees, expect) in [
            (false, 0u64, false), // post-deadline stale read: violation
            (false, 5u64, true),  // post-deadline fresh read: fine
            (true, 0u64, true),   // pre-deadline read may precede the write
            (true, 5u64, true),   // pre-deadline read may follow it too
        ] {
            let mut inc = IncrementalLinChecker::new(RegisterSpec);
            let mut hist: ConcurrentHistory<RegisterSpec> = ConcurrentHistory::new();
            let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
            let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
            let mut at = 0;
            inc.invoke(&w);
            hist.record_invoke(at, w.clone());
            at += 1;
            if r1_at_invoke {
                inc.invoke(&r);
                hist.record_invoke(at, r.clone());
                at += 1;
            }
            inc.recovered_required(RequestId(1));
            hist.record_crash_required(at, RequestId(1));
            at += 1;
            if !r1_at_invoke {
                inc.invoke(&r);
                hist.record_invoke(at, r.clone());
                at += 1;
            }
            inc.commit(RequestId(2), &sees);
            hist.record_response(at, RequestId(2), sees);
            let from_scratch =
                crate::linearizability::check_strict_linearizable(&RegisterSpec, &hist)
                    .is_linearizable();
            assert_eq!(
                from_scratch, expect,
                "from-scratch on r1_at_invoke={r1_at_invoke} sees={sees}"
            );
            assert_eq!(
                inc.verdict().is_linearizable(),
                expect,
                "incremental on r1_at_invoke={r1_at_invoke} sees={sees}"
            );
        }
    }

    #[test]
    fn recovered_required_is_undone_by_rewind() {
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        let m = inc.mark();

        // Required suffix with a contradicting read: violation.
        inc.recovered_required(RequestId(1));
        let r: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&r);
        inc.commit(RequestId(2), &0);
        assert!(!inc.verdict().is_linearizable());

        // Rewinding clears the obligation: the same read is fine against the
        // merely-pending write.
        inc.rewind_to(m);
        assert!(inc.verdict().is_linearizable());
        let r: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        inc.invoke(&r);
        inc.commit(RequestId(3), &0);
        assert!(inc.verdict().is_linearizable());
    }

    #[test]
    fn crash_is_undone_by_rewind() {
        let mut inc = IncrementalLinChecker::new(RegisterSpec);
        let w: Request<RegisterSpec> = Request::new(1u64, 0usize, RegisterOp::Write(5));
        inc.invoke(&w);
        let m = inc.mark();

        // Crashy suffix: strictly invalid.
        inc.crash(RequestId(1));
        let r1: Request<RegisterSpec> = Request::new(2u64, 1usize, RegisterOp::Read);
        inc.invoke(&r1);
        inc.commit(RequestId(2), &0);
        let r2: Request<RegisterSpec> = Request::new(3u64, 1usize, RegisterOp::Read);
        inc.invoke(&r2);
        inc.commit(RequestId(3), &5);
        assert!(!inc.verdict().is_linearizable());

        // Rewinding reopens the op: the same suffix without the crash is
        // linearizable again (W is merely pending).
        inc.rewind_to(m);
        assert!(inc.verdict().is_linearizable());
        let r1: Request<RegisterSpec> = Request::new(4u64, 1usize, RegisterOp::Read);
        inc.invoke(&r1);
        inc.commit(RequestId(4), &0);
        let r2: Request<RegisterSpec> = Request::new(5u64, 1usize, RegisterOp::Read);
        inc.invoke(&r2);
        inc.commit(RequestId(5), &5);
        assert!(inc.verdict().is_linearizable());
    }
}
