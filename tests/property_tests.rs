//! Property-based tests on the core data structures and on the algorithms
//! under randomised workloads and schedules.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest these properties are exercised over pseudo-random cases drawn
//! from the in-repo deterministic [`SplitMix64`] generator: every run checks
//! exactly the same cases, and a failing case is reproducible from its
//! printed seed.

use scl::core::{new_speculative_tas, ResettableTas};
use scl::sim::{Executor, RandomAdversary, SharedMemory, SplitMix64, Value, Workload};
use scl::spec::{
    check_linearizable, equivalent_by_state, History, ProcessId, Request, TasOp, TasResp, TasSpec,
    TasSwitch,
};
use std::collections::BTreeSet;
use std::collections::HashSet;

const CASES: u64 = 64;

/// A weighted random TAS op sequence: 3:1 test-and-set to reset, 1..=max ops.
fn arb_tas_ops(rng: &mut SplitMix64, max: usize) -> Vec<TasOp> {
    let len = 1 + rng.next_below(max);
    (0..len)
        .map(|_| {
            if rng.next_below(4) < 3 {
                TasOp::TestAndSet
            } else {
                TasOp::Reset
            }
        })
        .collect()
}

/// β over any request sequence: exactly one winner between consecutive
/// resets, and responses are deterministic under replay.
#[test]
fn tas_spec_has_one_winner_per_reset_epoch() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE1 ^ case);
        let ops = arb_tas_ops(&mut rng, 24);
        let spec = TasSpec;
        let history: History<TasSpec> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| Request::<TasSpec>::new(i as u64, 0usize, *op))
            .collect();
        let responses = history.all_responses(&spec);
        let mut winners_in_epoch = 0usize;
        for (op, resp) in ops.iter().zip(&responses) {
            match op {
                TasOp::Reset => winners_in_epoch = 0,
                TasOp::TestAndSet => {
                    if *resp == TasResp::Winner {
                        winners_in_epoch += 1;
                    }
                    assert!(
                        winners_in_epoch <= 1,
                        "case {case}: two winners in one epoch"
                    );
                }
            }
        }
        // Determinism of β.
        assert_eq!(history.all_responses(&spec), responses, "case {case}");
    }
}

/// History prefix algebra: prefixes are prefixes, concatenation extends,
/// and the longest common prefix is a prefix of both operands.
#[test]
fn history_prefix_algebra() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA1 ^ case);
        let len = 1 + rng.next_below(11);
        let cut = rng.next_below(12).min(len);
        let h: History<TasSpec> = (0..len as u64)
            .map(|i| Request::<TasSpec>::new(i, (i % 3) as usize, TasOp::TestAndSet))
            .collect();
        let p = h.prefix(cut);
        assert!(p.is_prefix_of(&h), "case {case}");
        assert_eq!(h.longest_common_prefix(&p).len(), cut, "case {case}");
        let q: History<TasSpec> = (100..100 + len as u64)
            .map(|i| Request::<TasSpec>::new(i, 0usize, TasOp::TestAndSet))
            .collect();
        let hq = h.concat(&q).unwrap();
        assert!(h.is_prefix_of(&hq), "case {case}");
        assert_eq!(hq.len(), h.len() + q.len(), "case {case}");
    }
}

/// The `≡_I` check is reflexive and symmetric on arbitrary histories.
#[test]
fn equivalence_is_reflexive_and_symmetric() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE9_u64 ^ (case << 8));
        let len = 1 + rng.next_below(7);
        let swap = rng.next_below(8);
        let spec = TasSpec;
        let reqs: Vec<Request<TasSpec>> = (0..len as u64)
            .map(|i| Request::<TasSpec>::new(i, 0usize, TasOp::TestAndSet))
            .collect();
        let h1: History<TasSpec> = reqs.clone().into_iter().collect();
        let mut shuffled = reqs;
        if shuffled.len() > 1 {
            let j = swap % shuffled.len();
            shuffled.swap(0, j);
        }
        let h2: History<TasSpec> = shuffled.into_iter().collect();
        let i_set: BTreeSet<_> = h1.id_set();
        assert!(equivalent_by_state(&spec, &i_set, &h1, &h1), "case {case}");
        assert_eq!(
            equivalent_by_state(&spec, &i_set, &h1, &h2),
            equivalent_by_state(&spec, &i_set, &h2, &h1),
            "case {case}"
        );
    }
}

/// The composed test-and-set is linearizable with exactly one winner for
/// arbitrary process counts and schedule seeds.
#[test]
fn speculative_tas_random_schedules() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EC ^ case);
        let n = 1 + rng.next_below(5);
        let seed = rng.next_u64() % 200;
        let mut mem = SharedMemory::new();
        let mut tas = new_speculative_tas(&mut mem);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed, "case {case} (n={n}, seed={seed})");
        assert_eq!(
            res.metrics.aborted_count(),
            0,
            "case {case} (n={n}, seed={seed})"
        );
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1, "case {case} (n={n}, seed={seed})");
        assert!(
            check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
            "case {case} (n={n}, seed={seed})"
        );
    }
}

/// A description of a random `PackedValue`, for round-trip checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValueModel {
    Null,
    Bool(bool),
    Int(i64),
    Proc(usize),
    Pair(i32, i64),
}

impl ValueModel {
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        match rng.next_below(5) {
            0 => ValueModel::Null,
            1 => ValueModel::Bool(rng.next_bool()),
            // Mix small magnitudes with full-range extremes and sentinels.
            2 => ValueModel::Int(match rng.next_below(4) {
                0 => rng.next_below(100) as i64 - 50,
                1 => i64::MIN,
                2 => i64::MAX,
                _ => rng.next_i64(),
            }),
            3 => ValueModel::Proc(rng.next_below(1024)),
            _ => ValueModel::Pair(
                match rng.next_below(3) {
                    0 => rng.next_below(100) as i32,
                    1 => i32::MIN,
                    _ => i32::MAX,
                },
                match rng.next_below(3) {
                    0 => rng.next_below(100) as i64 - 50,
                    1 => i64::MIN,
                    _ => rng.next_i64(),
                },
            ),
        }
    }

    fn build(self) -> Value {
        match self {
            ValueModel::Null => Value::NULL,
            ValueModel::Bool(b) => Value::from(b),
            ValueModel::Int(i) => Value::int(i),
            ValueModel::Proc(p) => Value::proc(ProcessId(p)),
            ValueModel::Pair(a, b) => Value::int_pair(a as i64, b),
        }
    }
}

/// `PackedValue` round trip: every accessor returns exactly what the
/// constructor stored, over randomised values of every variant including
/// full-range extremes and the bakery's `i64::MIN` sentinel.
#[test]
fn packed_value_round_trips() {
    let mut rng = SplitMix64::new(0x9ACC);
    for case in 0..4096 {
        let model = ValueModel::arbitrary(&mut rng);
        let v = model.build();
        match model {
            ValueModel::Null => {
                assert!(v.is_null(), "case {case}");
                assert!(!v.as_bool(), "case {case}");
                assert_eq!(v.as_opt_int(), None, "case {case}");
                assert_eq!(v.as_opt_proc(), None, "case {case}");
                assert_eq!(v.as_opt_int_pair(), None, "case {case}");
            }
            ValueModel::Bool(b) => {
                assert!(!v.is_null(), "case {case}");
                assert_eq!(v.as_bool(), b, "case {case}");
            }
            ValueModel::Int(i) => {
                assert_eq!(v.as_int(), i, "case {case}");
                assert_eq!(v.as_opt_int(), Some(i), "case {case}");
            }
            ValueModel::Proc(p) => {
                assert_eq!(v.as_opt_proc(), Some(ProcessId(p)), "case {case}");
            }
            ValueModel::Pair(a, b) => {
                assert_eq!(v.as_opt_int_pair(), Some((a as i64, b)), "case {case}");
            }
        }
    }
}

/// `PackedValue` equality coincides with equality of the constructing model:
/// two values are `==` iff they were built from the same variant and
/// payload, and equal values hash identically.
#[test]
fn packed_value_equality_matches_model_equality() {
    let mut rng = SplitMix64::new(0xEA1);
    let models: Vec<ValueModel> = (0..200).map(|_| ValueModel::arbitrary(&mut rng)).collect();
    for (i, a) in models.iter().enumerate() {
        for (j, b) in models.iter().enumerate() {
            let va = a.build();
            let vb = b.build();
            assert_eq!(va == vb, a == b, "models {i}/{j}: {a:?} vs {b:?}");
        }
    }
    // Equal values collapse in a hash set exactly like their models do.
    let model_set: HashSet<ValueModel> = models.iter().copied().collect();
    let value_set: HashSet<Value> = models.iter().map(|m| m.build()).collect();
    assert_eq!(model_set.len(), value_set.len());
}

/// The long-lived resettable object stays linearizable under random
/// schedules of test-and-set workloads.
#[test]
fn resettable_tas_random_schedules() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x4E5 ^ case);
        let n = 2 + rng.next_below(3);
        let seed = rng.next_u64() % 100;
        let mut mem = SharedMemory::new();
        let mut tas = ResettableTas::new(&mut mem, n);
        let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(n, TasOp::TestAndSet);
        let res = Executor::new().run(&mut mem, &mut tas, &wl, &mut RandomAdversary::new(seed));
        assert!(res.completed, "case {case} (n={n}, seed={seed})");
        let winners = res
            .trace()
            .commits()
            .iter()
            .filter(|(_, r)| *r == TasResp::Winner)
            .count();
        assert_eq!(winners, 1, "case {case} (n={n}, seed={seed})");
        assert!(
            check_linearizable(&TasSpec, &res.trace().commit_projection()).is_linearizable(),
            "case {case} (n={n}, seed={seed})"
        );
    }
}
