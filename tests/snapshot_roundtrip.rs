//! Snapshot round-trip property tests: for every core `SimObject`,
//! `snapshot → mutate → restore → replay` must be bit-identical to an
//! uninterrupted fresh replay — traces, metrics, op records, decision logs,
//! tick counts, and the shared memory's registers, counters and audit.
//!
//! This is the property the explorer's prefix-resume mode rests on. The
//! `SharedMemory`-only round trip is unit-tested in `scl-sim`; these tests
//! exercise the full (memory, session, object) triple through the public
//! checkpoint API on the paper's actual algorithms, the way the explorer
//! does: marks on the memory's and the session's undo logs plus an object
//! snapshot, rewound with `undo_to`/`restore` — twice from the same mark,
//! after detours in which a crash and an operation's completion replace
//! running process states.

use scl::core::{
    new_composable_universal, new_solo_fast_tas, new_speculative_tas, new_three_level_universal,
    A1Tas, A2Tas, AbdRegister, CasConsensus, ConsensusObject, RecoverableTas, ResettableTas,
    SplitConsensus, UniversalConstruction, WbRecovery, WriteBehindRegister,
};
use scl::sim::{
    ExecSession, Executor, SharedMemory, SimObject, SplitMix64, SurveyStatus, TickEmission,
    Workload,
};
use scl::spec::{
    ConsensusOp, ConsensusSpec, CounterOp, CounterSpec, History, ProcessId, RegisterOp,
    RegisterSpec, SequentialSpec, TasOp, TasSpec, TasSwitch,
};
use std::fmt::Debug;
use std::hash::Hash;

/// Replicates `ScriptedAdversary`'s choice rule for the step-wise API.
/// Scripted ids in `n..2n` are crash pseudo-steps (crash of process
/// `id - n`), honoured while the target is still enabled and the crash
/// budget lasts; with a network of `cap` slots, ids in `2n..2n+cap` are
/// deliveries (honoured while the survey lists them as enabled) and ids in
/// `2n+cap..2n+2cap` are drops of the same slots; ids in `2n+2cap..` are
/// restarts of crashed processes, honoured while the target is currently
/// down — the same encoding the executor and explorer use.
struct Script<'a> {
    script: &'a [ProcessId],
    pos: usize,
    processes: usize,
    cap: usize,
    crash_budget: usize,
}

impl<'a> Script<'a> {
    fn new(script: &'a [ProcessId], processes: usize, cap: usize, crash_budget: usize) -> Self {
        Script {
            script,
            pos: 0,
            processes,
            cap,
            crash_budget,
        }
    }

    fn choose(&mut self, enabled: &[ProcessId], crashed_now: u64) -> ProcessId {
        if self.pos < self.script.len() {
            let p = self.script[self.pos];
            self.pos += 1;
            // Real process steps and deliveries appear in `enabled` as-is.
            if enabled.contains(&p) {
                return p;
            }
            let i = p.index();
            if i >= self.processes
                && i < 2 * self.processes
                && self.crash_budget > 0
                && enabled.contains(&ProcessId(i - self.processes))
            {
                self.crash_budget -= 1;
                return p;
            }
            // A drop of slot `s` is valid exactly when the delivery of `s`
            // is enabled (the message is in flight).
            if self.cap > 0
                && i >= 2 * self.processes + self.cap
                && i < 2 * self.processes + 2 * self.cap
                && enabled.contains(&ProcessId(i - self.cap))
            {
                return p;
            }
            // A restart of process `r` is valid exactly while `r` is
            // currently crashed (the same rule the replay decoder uses).
            if i >= 2 * self.processes + 2 * self.cap {
                let r = i - 2 * self.processes - 2 * self.cap;
                if r < self.processes && crashed_now & (1u64 << r) != 0 {
                    return p;
                }
            }
        }
        enabled[0]
    }
}

/// Scrambles the state a rewind must undo: crashes a process — a running
/// one if some running process is enabled, so its in-flight state is
/// replaced — and restarts it; then runs another running process until its
/// operation completes; then takes up to eight more ticks, of the last
/// enabled transition in round 0 and of the first in round 1.
fn detour<S, V, O>(
    executor: &Executor,
    session: &mut ExecSession<S, V>,
    mem: &mut SharedMemory,
    obj: &mut O,
    workload: &Workload<S, V>,
    round: usize,
) where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let n = workload.processes();
    let cap = mem.net_cap();
    // The caller surveyed: the enabled set is current. With a network it
    // may hold only delivery pseudo-steps; then the tick loop below
    // scrambles the in-flight buffer instead.
    let enabled = session.enabled().to_vec();
    let real = |p: &&ProcessId| p.index() < n && enabled.contains(p);
    let running = session.in_progress().iter().find(real).copied();
    let victim = running.or_else(|| enabled.iter().find(real).copied());
    if let Some(victim) = victim {
        // The crash puts the victim's state (a running operation's, if it
        // had one) on the undo log; the restart wipes volatile state, sets
        // the restarted bit and installs the object's recovery routine.
        executor.tick(session, mem, obj, workload, ProcessId(n + victim.index()));
        executor.tick(
            session,
            mem,
            obj,
            workload,
            ProcessId(2 * n + 2 * cap + victim.index()),
        );
    }
    // Step another running process until its operation completes (or it
    // stops being schedulable): its state goes on the log at its first
    // step and is replaced at the completion.
    if executor.survey(session, mem, workload) == SurveyStatus::Choose {
        let other = session
            .in_progress()
            .iter()
            .copied()
            .find(|p| Some(*p) != victim && p.index() < n && session.enabled().contains(p));
        if let Some(q) = other {
            for _ in 0..16 {
                executor.tick(session, mem, obj, workload, q);
                let completed = matches!(
                    session.last_emission(),
                    TickEmission::Committed { .. } | TickEmission::Aborted { .. }
                );
                if completed
                    || executor.survey(session, mem, workload) != SurveyStatus::Choose
                    || !session.enabled().contains(&q)
                {
                    break;
                }
            }
        }
    }
    for _ in 0..8 {
        if executor.survey(session, mem, workload) != SurveyStatus::Choose {
            break;
        }
        let enabled = session.enabled();
        let pick = if round == 0 {
            enabled[enabled.len() - 1]
        } else {
            enabled[0]
        };
        executor.tick(session, mem, obj, workload, pick);
    }
}

/// Drives `object` under `script`; at decision `checkpoint_at` marks the
/// memory and the session and snapshots the object, takes a detour, rewinds
/// (twice: a mark stays valid after an undo), and finishes the scripted
/// run. Returns nothing; panics on any divergence from the uninterrupted
/// reference run.
fn assert_roundtrip_bit_identical<S, V, O>(
    build: impl Fn(&mut SharedMemory) -> O,
    workload: &Workload<S, V>,
    script: &[ProcessId],
    checkpoint_at: usize,
) where
    S: SequentialSpec + PartialEq + Debug,
    V: Clone + Eq + Hash + Debug,
    O: SimObject<S, V>,
{
    let executor = Executor::new();
    let n = workload.processes();

    // Uninterrupted reference run.
    let mut ref_mem = SharedMemory::new();
    let mut ref_obj = build(&mut ref_mem);
    let cap = ref_mem.net_cap();
    let mut ref_session: ExecSession<S, V> = ExecSession::new();
    executor.begin(&mut ref_session, workload);
    let mut ref_script = Script::new(script, n, cap, usize::MAX);
    while executor.survey(&mut ref_session, &ref_mem, workload) == SurveyStatus::Choose {
        let chosen = ref_script.choose(ref_session.enabled(), ref_session.crashed_now());
        executor.tick(
            &mut ref_session,
            &mut ref_mem,
            &mut ref_obj,
            workload,
            chosen,
        );
    }

    // Interrupted run: mark, detour, rewind, replay.
    let mut mem = SharedMemory::new();
    let mut obj = build(&mut mem);
    let mut session: ExecSession<S, V> = ExecSession::new();
    executor.begin(&mut session, workload);
    let mut run_script = Script::new(script, n, cap, usize::MAX);
    let mut rewound = false;
    loop {
        let status = executor.survey(&mut session, &mem, workload);
        if !rewound && session.depth() == checkpoint_at && status == SurveyStatus::Choose {
            rewound = true;
            let mem_mark = mem.mark();
            let session_mark = session
                .mark()
                .expect("every core object must support in-flight forking");
            assert_eq!(session_mark.depth(), checkpoint_at);
            let object_snap = obj
                .snapshot()
                .expect("every core object must support snapshotting");
            let enabled = session.enabled().to_vec();
            let in_progress = session.in_progress().to_vec();
            for round in 0..2 {
                detour(&executor, &mut session, &mut mem, &mut obj, workload, round);
                mem.undo_to(&mem_mark);
                session.undo_to(&session_mark);
                obj.restore(&object_snap);
                assert_eq!(session.depth(), checkpoint_at);
                assert_eq!(
                    executor.survey(&mut session, &mem, workload),
                    SurveyStatus::Choose
                );
                assert_eq!(session.enabled(), &enabled[..], "enabled set after an undo");
                assert_eq!(session.in_progress(), &in_progress[..]);
            }
            continue;
        }
        if status != SurveyStatus::Choose {
            break;
        }
        let chosen = run_script.choose(session.enabled(), session.crashed_now());
        executor.tick(&mut session, &mut mem, &mut obj, workload, chosen);
    }
    // Short executions may finish before `checkpoint_at`; the run then
    // degenerates to two uninterrupted replays, which must still agree (the
    // depth lists below include small values so every object gets real
    // checkpoint coverage).

    let r = ref_session.result();
    let c = session.result();
    assert_eq!(r.trace, c.trace, "trace diverged");
    assert_eq!(r.metrics, c.metrics, "metrics diverged");
    assert_eq!(r.ops, c.ops, "op records diverged");
    assert_eq!(r.decisions, c.decisions, "decision log diverged");
    assert_eq!(r.completed, c.completed);
    assert_eq!(r.crashed, c.crashed, "crash mask diverged");
    assert_eq!(r.restarted, c.restarted, "restart mask diverged");
    assert_eq!(ref_mem.global_steps(), mem.global_steps());
    assert_eq!(ref_mem.register_count(), mem.register_count());
    assert_eq!(ref_mem.audit(), mem.audit());
    assert_eq!(
        ref_mem.net_digest(),
        mem.net_digest(),
        "network state (replicas, in-flight slots, inboxes, partition) diverged"
    );
    assert_eq!(
        ref_mem.net_occupied(),
        mem.net_occupied(),
        "in-flight mask diverged"
    );
    assert_eq!(ref_mem.net_in_flight(), mem.net_in_flight());
    for i in 0..ref_mem.register_count() {
        assert_eq!(
            ref_mem.peek(scl::sim::RegId(i)),
            mem.peek(scl::sim::RegId(i)),
            "register {i} diverged"
        );
    }
    for p in 0..workload.processes() {
        assert_eq!(
            ref_mem.counters(ProcessId(p)),
            mem.counters(ProcessId(p)),
            "counters of process {p} diverged"
        );
    }
}

fn scripts(n: usize, len: usize, seeds: &[u64]) -> Vec<Vec<ProcessId>> {
    seeds
        .iter()
        .map(|&seed| {
            let mut rng = SplitMix64::new(seed);
            (0..len).map(|_| ProcessId(rng.next_below(n))).collect()
        })
        .collect()
}

/// Crash-free scripts plus crashy ones: ids drawn from `0..2n`, where the
/// upper half are crash pseudo-steps — checkpoints taken after a crash must
/// restore the crash mask, the frozen process and its pending op exactly.
fn scripts_with_crashes(n: usize, len: usize, seeds: &[u64]) -> Vec<Vec<ProcessId>> {
    let mut all = scripts(n, len, seeds);
    all.extend(scripts(2 * n, len, seeds));
    all
}

/// Scripts over the crash-recovery alphabet (no network, so cap = 0): real
/// steps, crashes (`n..2n`) and restarts (`2n..3n`). Checkpoints land after
/// restarts and *inside* recovery routines, so the restore must rewind the
/// restart mask, the revived process and its in-flight recovery execution.
fn scripts_with_recovery(n: usize, len: usize, seeds: &[u64]) -> Vec<Vec<ProcessId>> {
    let mut all = scripts_with_crashes(n, len, seeds);
    all.extend(scripts(3 * n, len, seeds));
    all
}

/// Scripts over the full faulty alphabet of a networked object: real steps,
/// crashes, deliveries (`2n..2n+cap`) and drops (`2n+cap..2n+2cap`), so
/// checkpoints land between sends, deliveries and losses and the restore
/// must rewind replicas, the in-flight buffer and every inbox exactly.
fn scripts_with_network(n: usize, cap: usize, len: usize, seeds: &[u64]) -> Vec<Vec<ProcessId>> {
    let mut all = scripts_with_crashes(n, len, seeds);
    all.extend(scripts(2 * n + 2 * cap, len, seeds));
    all
}

fn check_tas_object<O: SimObject<TasSpec, TasSwitch>>(build: impl Fn(&mut SharedMemory) -> O) {
    let n = 3;
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
    for script in scripts_with_crashes(n, 48, &[2012, 7, 99]) {
        for checkpoint_at in [1, 4, 9] {
            assert_roundtrip_bit_identical(&build, &wl, &script, checkpoint_at);
        }
    }
}

#[test]
fn a1_roundtrip() {
    check_tas_object(A1Tas::new);
}

#[test]
fn a2_roundtrip() {
    check_tas_object(A2Tas::new);
}

#[test]
fn speculative_tas_roundtrip() {
    check_tas_object(new_speculative_tas);
}

#[test]
fn solo_fast_tas_roundtrip() {
    check_tas_object(new_solo_fast_tas);
}

#[test]
fn resettable_tas_roundtrip() {
    // Include resets so the round-array state (lazily allocated rounds,
    // crtWinner flags) is exercised across the checkpoint.
    let n = 2;
    let wl: Workload<TasSpec, TasSwitch> = Workload::from_ops(vec![
        vec![TasOp::TestAndSet, TasOp::Reset, TasOp::TestAndSet],
        vec![TasOp::TestAndSet, TasOp::TestAndSet],
    ]);
    for script in scripts_with_crashes(n, 64, &[3, 41, 2024]) {
        for checkpoint_at in [2, 7, 13] {
            assert_roundtrip_bit_identical(
                |mem| ResettableTas::new(mem, n),
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn universal_construction_roundtrip() {
    let n = 2;
    let wl: Workload<CounterSpec, History<CounterSpec>> =
        Workload::uniform(n, CounterOp::Increment, 2);
    for script in scripts_with_crashes(n, 96, &[11, 500]) {
        for checkpoint_at in [3, 10, 21] {
            assert_roundtrip_bit_identical(
                |mem| UniversalConstruction::<CounterSpec, CasConsensus>::new(mem, n, CounterSpec),
                &wl,
                &script,
                checkpoint_at,
            );
            assert_roundtrip_bit_identical(
                |mem| {
                    UniversalConstruction::<CounterSpec, SplitConsensus>::new(mem, n, CounterSpec)
                },
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn composable_universal_roundtrip() {
    let n = 2;
    let wl: Workload<CounterSpec, History<CounterSpec>> =
        Workload::uniform(n, CounterOp::Increment, 2);
    for script in scripts_with_crashes(n, 96, &[13, 77]) {
        for checkpoint_at in [4, 15] {
            assert_roundtrip_bit_identical(
                |mem| new_composable_universal(mem, n, CounterSpec),
                &wl,
                &script,
                checkpoint_at,
            );
            assert_roundtrip_bit_identical(
                |mem| new_three_level_universal(mem, n, CounterSpec),
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn write_behind_register_roundtrip() {
    // The seeded crash mutant: its interesting behaviour *is* the crash
    // window between the two cells, so the crashy scripts carry the load.
    let n = 2;
    let wl: Workload<RegisterSpec, ()> = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    for script in scripts_with_crashes(n, 32, &[1, 9, 321]) {
        for checkpoint_at in [1, 3, 6] {
            assert_roundtrip_bit_identical(WriteBehindRegister::new, &wl, &script, checkpoint_at);
        }
    }
}

#[test]
fn recoverable_tas_roundtrip() {
    // The crash-*recovery* object: restart steps in the scripts wipe a
    // crashed process's volatile state and hand it the object's recovery
    // routine, so checkpoints land after restarts and mid-recovery.
    let n = 2;
    let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
    for script in scripts_with_recovery(n, 32, &[2012, 7, 99]) {
        for checkpoint_at in [1, 3, 6] {
            assert_roundtrip_bit_identical(
                |mem| RecoverableTas::new(mem, n),
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn write_behind_recovery_roundtrip() {
    // Both recovery policies of the write-behind register: the flush redo
    // and the rollback each run a two-step recovery routine, so a
    // checkpoint can land between its steps.
    let n = 2;
    let wl: Workload<RegisterSpec, ()> = Workload::from_ops(vec![
        vec![RegisterOp::Write(5)],
        vec![RegisterOp::Read, RegisterOp::Read],
    ]);
    for recovery in [WbRecovery::Flush, WbRecovery::Abandon] {
        for script in scripts_with_recovery(n, 32, &[1, 9, 321]) {
            for checkpoint_at in [1, 3, 6] {
                assert_roundtrip_bit_identical(
                    |mem| WriteBehindRegister::with_recovery(mem, recovery),
                    &wl,
                    &script,
                    checkpoint_at,
                );
            }
        }
    }
}

#[test]
fn abd_register_roundtrip() {
    // A writer and a reader over two replicas: the scripts interleave
    // quorum-phase sends with deliveries, drops (→ resends) and crashes, so
    // the checkpoint catches the network mid-flight. Slots are never reused,
    // so the cap must cover the worst case: per op ≤ 4 phase sends + 2
    // retries and one reply each = 12 slots, ×2 ops = 24.
    let n = 2;
    let cap = 28;
    let wl: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    for script in scripts_with_network(n, cap, 96, &[7, 2012, 4242]) {
        for checkpoint_at in [2, 6, 13] {
            assert_roundtrip_bit_identical(
                |mem| AbdRegister::new(mem, n, 2, cap, 2),
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn abd_register_partition_roundtrip() {
    // Sever one replica at setup: quorum = 2 of 2 is unreachable, every op
    // wedges open, and sends to the dead link vanish without allocating
    // slots — the restore must reproduce the severed mask and the wedge.
    let n = 2;
    let cap = 16;
    let wl: Workload<RegisterSpec, ()> =
        Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]]);
    for script in scripts_with_network(n, cap, 64, &[31, 900]) {
        for checkpoint_at in [1, 4] {
            assert_roundtrip_bit_identical(
                |mem| {
                    let reg = AbdRegister::new(mem, n, 2, cap, 2);
                    // Endpoint bit n + 1 = server 1 (after the clients).
                    mem.net_sever(1 << (n + 1));
                    reg
                },
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}

#[test]
fn consensus_object_roundtrip() {
    let n = 3;
    let wl: Workload<ConsensusSpec, Option<i64>> = Workload {
        ops: (0..n)
            .map(|i| {
                vec![(
                    ConsensusOp {
                        proposal: 10 + i as u64,
                    },
                    None,
                )]
            })
            .collect(),
    };
    for script in scripts_with_crashes(n, 64, &[5, 23]) {
        for checkpoint_at in [2, 6, 12] {
            assert_roundtrip_bit_identical(
                |mem| ConsensusObject::<SplitConsensus>::new(mem, n),
                &wl,
                &script,
                checkpoint_at,
            );
            assert_roundtrip_bit_identical(
                |mem| ConsensusObject::<CasConsensus>::new(mem, n),
                &wl,
                &script,
                checkpoint_at,
            );
            assert_roundtrip_bit_identical(
                |mem| ConsensusObject::<scl::core::AbortableBakery>::new(mem, n),
                &wl,
                &script,
                checkpoint_at,
            );
        }
    }
}
