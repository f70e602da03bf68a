//! Differential tests: the optimized hot-path `Ring` (struct-of-arrays
//! columns, task queues of `u32` positions into one sorted key arena,
//! pooled buffers, in-place arc splits) against the naive reference
//! implementation in [`autobal::reference`], which keeps task keys as
//! ids and preserves the pre-optimization semantics verbatim.
//!
//! Equality here is **bit-for-bit**: not just the same task multisets
//! but the same element order inside every vnode's task queue, so the
//! shared xorshift pop stream consumes identical indices on both sides.

use autobal::reference::{NaiveRing, NaiveSample, NaiveSim};
use autobal::sim::{Ring, Sim, SimConfig, StrategyKind};
use autobal::Id;
use proptest::prelude::*;

/// 256 vnode positions spread across the whole 160-bit ring (the top
/// limb holds 32 bits), so the highest occupied position's arc
/// regularly wraps through zero. Limbs are little-endian: `(lo, mid,
/// hi)`.
fn pos_id(v: u8) -> Id {
    Id::from_limbs(0x5DEE_CE66_D154_21C4, 0, (v as u64) << 24)
}

/// Task keys at finer top-limb granularity than the positions, so they
/// interleave through every arc including the wrap arc. Distinct mid
/// limbs keep keys and positions from ever colliding exactly.
fn key_id(v: u16) -> Id {
    Id::from_limbs(1, 0x9E37_79B9, (v as u64) << 16)
}

/// A vnode id: mostly one of the 256 spread positions, sometimes above
/// every position and key (its split victim is the smallest vnode,
/// across the wrap) or below every one (it splits the wrap arc of the
/// largest vnode).
fn vnode_id(kind: u8, v: u8) -> Id {
    match kind % 8 {
        6 => Id::from_limbs(u64::MAX - v as u64, u64::MAX, 0xFFFF_FFFF),
        7 => Id::from_limbs(v as u64, 0, 0),
        _ => pos_id(v),
    }
}

/// A task key: mostly fine-grained, sometimes one of 16 coarse values
/// (so keys repeat) or exactly a vnode position.
fn task_key(kind: u8, v: u16) -> Id {
    match kind % 8 {
        5 | 6 => key_id(v & 0xF000),
        7 => pos_id((v >> 8) as u8),
        _ => key_id(v),
    }
}

fn task_keys(raw: Vec<(u8, u16)>) -> Vec<Id> {
    raw.into_iter().map(|(kind, v)| task_key(kind, v)).collect()
}

/// Post-setup operations: inserts, removals and pops at any id, pops at
/// the `rank`-th vnode present, and further task assignments onto the
/// loaded ring.
#[derive(Debug, Clone)]
enum Op {
    Insert { at: Id, owner: u8 },
    Remove { at: Id },
    Pop { at: Id },
    PopNth { rank: u8 },
    Assign { keys: Vec<Id> },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        proptest::collection::vec((any::<u8>(), any::<u16>()), 0..12),
    )
        .prop_map(|(tag, kind, v, owner, keys)| {
            let at = vnode_id(kind, v);
            match tag {
                0..=2 => Op::Insert { at, owner },
                3 | 4 => Op::Remove { at },
                5 => Op::Pop { at },
                6..=8 => Op::PopNth { rank: v },
                _ => Op::Assign {
                    keys: task_keys(keys),
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Setup inserts, one task assignment, then a random soup of
    /// inserts (wrap-arc ones included), removals, pops and further
    /// assignments, over keys that repeat and keys that sit exactly at
    /// vnode ids. Full state (including task element order) must agree
    /// after every single operation, and the ring's own invariants —
    /// the key arena and its cached positions — must hold throughout.
    #[test]
    fn ring_matches_naive_reference(
        positions in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..10),
        keys in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..60),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut ring = Ring::new();
        let mut naive = NaiveRing::new();
        for (i, &(kind, v)) in positions.iter().enumerate() {
            let id = vnode_id(kind, v);
            prop_assert_eq!(ring.insert_vnode(id, i).ok(), naive.insert_vnode(id, i).ok());
        }
        let keys = task_keys(keys);
        ring.assign_tasks(keys.clone()).unwrap();
        naive.assign_tasks(keys);
        prop_assert_eq!(ring.rows(), naive.rows());

        for op in ops {
            match op {
                Op::Insert { at, owner } => {
                    prop_assert_eq!(
                        ring.insert_vnode(at, owner as usize).ok(),
                        naive.insert_vnode(at, owner as usize).ok()
                    );
                }
                Op::Remove { at } => {
                    prop_assert_eq!(ring.remove_vnode(at).ok(), naive.remove_vnode(at).ok());
                }
                Op::Pop { at } => {
                    prop_assert_eq!(ring.pop_task(at), naive.pop_task(at));
                }
                Op::PopNth { rank } => {
                    let rows = naive.rows();
                    if let Some((at, _, _)) = rows.get(rank as usize % rows.len().max(1)) {
                        prop_assert_eq!(ring.pop_task(*at), naive.pop_task(*at));
                    }
                }
                Op::Assign { keys } => {
                    if !naive.is_empty() {
                        ring.assign_tasks(keys.clone()).unwrap();
                        naive.assign_tasks(keys);
                    }
                }
            }
            prop_assert_eq!(ring.len(), naive.len());
            prop_assert_eq!(ring.total_tasks(), naive.total_tasks());
            prop_assert_eq!(ring.rows(), naive.rows());
            prop_assert_eq!(ring.check_invariants(), Ok(()));
        }
    }

    /// Key routing agrees everywhere, including keys that wrap.
    #[test]
    fn routing_matches_naive_reference(
        positions in proptest::collection::vec(any::<u8>(), 1..12),
        probes in proptest::collection::vec(any::<u16>(), 1..32),
    ) {
        let mut ring = Ring::new();
        let mut naive = NaiveRing::new();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            prop_assert_eq!(ring.insert_vnode(id, i).ok(), naive.insert_vnode(id, i).ok());
        }
        for probe in probes {
            let k = key_id(probe);
            prop_assert_eq!(ring.owner_of_key(k), naive.owner_of_key(k));
            prop_assert_eq!(ring.successor_of(k), naive.successor_of(k));
        }
    }
}

/// An id from one of the families that stress the vnode index, which
/// homes each id on its top bits: ids that share their top 64 bits (one
/// home, one long run), ids packed just below `Id::MAX` (runs past the
/// array's end) and just above `Id::ZERO`, and ids spread over the whole
/// ring.
fn adversarial_id(family: u8, v: u16) -> Id {
    let x = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match family % 4 {
        0 => Id::from_limbs(x, 0xC0FF_EE00_0000_0000 | v as u64, 0x8000_0000),
        1 => Id::MAX.wrapping_sub(Id::from(v as u64)),
        2 => Id::from(v as u64),
        _ => Id::from_limbs(x, x.rotate_left(17), ((v as u64) << 16) | (x >> 48)),
    }
}

/// Index-level operations: single inserts and removes, a bulk insert
/// of `count` ids of one family (crossing several growth thresholds),
/// a drain back down to `keep` vnodes in ring order from `rank`, and
/// further task assignments.
#[derive(Debug, Clone)]
enum IndexOp {
    Insert {
        at: Id,
        owner: u8,
    },
    Remove {
        at: Id,
    },
    Bulk {
        family: u8,
        start: u16,
        stride: u16,
        count: u16,
    },
    Drain {
        rank: u8,
        keep: u8,
    },
    Assign {
        keys: Vec<Id>,
    },
}

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    (
        0u8..12,
        (any::<u8>(), any::<u16>(), any::<u8>()),
        (any::<u16>(), 0u16..300),
        proptest::collection::vec((any::<u8>(), any::<u16>()), 0..12),
    )
        .prop_map(|(tag, (family, v, owner), (stride, count), keys)| {
            let at = adversarial_id(family, v);
            match tag {
                0..=3 => IndexOp::Insert { at, owner },
                4..=6 => IndexOp::Remove { at },
                7 | 8 => IndexOp::Bulk {
                    family,
                    start: v,
                    stride: stride | 1,
                    count,
                },
                9 | 10 => IndexOp::Drain {
                    rank: owner,
                    keep: (v % 8) as u8,
                },
                _ => IndexOp::Assign {
                    keys: keys
                        .into_iter()
                        .map(|(f, v)| adversarial_id(f, v))
                        .collect(),
                },
            }
        })
}

/// Neighbour queries at and next to `at` and at both ends of the ring
/// agree with the reference, and so does the whole ring.
fn assert_same_ring(ring: &Ring, naive: &NaiveRing, at: Id) -> Result<(), TestCaseError> {
    prop_assert_eq!(ring.len(), naive.len());
    prop_assert_eq!(ring.total_tasks(), naive.total_tasks());
    for probe in [
        at,
        at.wrapping_add(Id::ONE),
        at.wrapping_sub(Id::ONE),
        Id::ZERO,
        Id::MAX,
    ] {
        prop_assert_eq!(ring.successor_of(probe), naive.successor_of(probe));
        prop_assert_eq!(ring.predecessor_of(probe), naive.predecessor_of(probe));
        prop_assert_eq!(ring.owner_of_key(probe), naive.owner_of_key(probe));
    }
    prop_assert_eq!(ring.rows(), naive.rows());
    prop_assert_eq!(ring.check_invariants(), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The vnode index under ids it cannot spread by their top bits:
    /// shared top 64 bits, runs packed against either end of the ring,
    /// bulk inserts across several growth thresholds and drains back
    /// down. Every op is compared against the reference.
    #[test]
    fn index_matches_naive_reference_on_adversarial_ids(
        seeds in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..6),
        keys in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..40),
        ops in proptest::collection::vec(arb_index_op(), 1..24),
    ) {
        let mut ring = Ring::new();
        let mut naive = NaiveRing::new();
        for (i, &(family, v)) in seeds.iter().enumerate() {
            let id = adversarial_id(family, v);
            prop_assert_eq!(ring.insert_vnode(id, i).ok(), naive.insert_vnode(id, i).ok());
        }
        let keys: Vec<Id> = keys.into_iter().map(|(f, v)| adversarial_id(f, v)).collect();
        ring.assign_tasks(keys.clone()).unwrap();
        naive.assign_tasks(keys);
        assert_same_ring(&ring, &naive, Id::ZERO)?;

        for op in ops {
            match op {
                IndexOp::Insert { at, owner } => {
                    prop_assert_eq!(
                        ring.insert_vnode(at, owner as usize).ok(),
                        naive.insert_vnode(at, owner as usize).ok()
                    );
                    assert_same_ring(&ring, &naive, at)?;
                }
                IndexOp::Remove { at } => {
                    prop_assert_eq!(ring.remove_vnode(at).ok(), naive.remove_vnode(at).ok());
                    assert_same_ring(&ring, &naive, at)?;
                }
                IndexOp::Bulk { family, start, stride, count } => {
                    for i in 0..count {
                        let at = adversarial_id(family, start.wrapping_add(i.wrapping_mul(stride)));
                        prop_assert_eq!(
                            ring.insert_vnode(at, i as usize).ok(),
                            naive.insert_vnode(at, i as usize).ok()
                        );
                        assert_same_ring(&ring, &naive, at)?;
                    }
                }
                IndexOp::Drain { rank, keep } => {
                    while naive.len() > keep as usize {
                        let rows = naive.rows();
                        let Some(&(at, _, _)) = rows.get(rank as usize % rows.len()) else {
                            break;
                        };
                        let removed = naive.remove_vnode(at).ok();
                        prop_assert_eq!(ring.remove_vnode(at).ok(), removed);
                        assert_same_ring(&ring, &naive, at)?;
                        if removed.is_none() {
                            break;
                        }
                    }
                }
                IndexOp::Assign { keys } => {
                    if !naive.is_empty() {
                        ring.assign_tasks(keys.clone()).unwrap();
                        naive.assign_tasks(keys);
                        assert_same_ring(&ring, &naive, Id::ZERO)?;
                    }
                }
            }
        }
    }
}

/// A scripted wrap-arc scenario: the highest vnode owns the arc that
/// wraps through zero, and a later insert inside that wrap arc splits
/// it. Pinned explicitly because it is the branchiest path of
/// `insert_vnode`'s in-place split.
#[test]
fn wrap_arc_split_matches_reference() {
    let mut ring = Ring::new();
    let mut naive = NaiveRing::new();

    for (pos, owner) in [(0x40u8, 0usize), (0xF0, 1)] {
        assert!(ring.insert_vnode(pos_id(pos), owner).is_ok());
        assert!(naive.insert_vnode(pos_id(pos), owner).is_ok());
    }
    // Keys in the wrap region (above 0xF0 and below 0x40) and in the
    // middle arc.
    let keys: Vec<Id> = [0xF8_00u16, 0xFE_00, 0x01_00, 0x20_00, 0x30_00, 0x90_00]
        .into_iter()
        .map(key_id)
        .collect();
    ring.assign_tasks(keys.clone()).unwrap();
    naive.assign_tasks(keys);
    assert_eq!(ring.load(pos_id(0x40)), 5, "wrap arc holds 5 keys");

    // Split the wrap arc at 0x08 — it acquires the keys strictly in
    // (0xF0, 0x08], i.e. 0xF8, 0xFE, 0x01.
    let a = ring.insert_vnode(pos_id(0x08), 2);
    let b = naive.insert_vnode(pos_id(0x08), 2);
    assert_eq!(a.ok(), b.ok());
    assert_eq!(a.ok(), Some(3));
    assert_eq!(ring.rows(), naive.rows());

    // Merging back on removal restores the wrap arc identically.
    assert_eq!(
        ring.remove_vnode(pos_id(0x08)).ok(),
        naive.remove_vnode(pos_id(0x08)).ok()
    );
    assert_eq!(ring.rows(), naive.rows());
    assert_eq!(ring.load(pos_id(0x40)), 5);
}

/// Pool recycling must not leak state: vectors returned to the pool by
/// `remove_vnode` and reused by `insert_vnode` start logically empty.
#[test]
fn pooled_buffers_carry_no_stale_tasks() {
    let mut ring = Ring::new();
    let mut naive = NaiveRing::new();
    for round in 0..10u8 {
        for (i, pos) in [0x10u8, 0x80, 0xE0].into_iter().enumerate() {
            assert_eq!(
                ring.insert_vnode(pos_id(pos), i).ok(),
                naive.insert_vnode(pos_id(pos), i).ok()
            );
        }
        let keys: Vec<Id> = (0..40u16)
            .map(|k| key_id(k.wrapping_mul(1621) ^ round as u16))
            .collect();
        ring.assign_tasks(keys.clone()).unwrap();
        naive.assign_tasks(keys);
        // Drain every node so the final removal is legal (removing the
        // last vnode with tasks still aboard is refused by both).
        for pos in [0x10u8, 0x80, 0xE0] {
            while ring.pop_task(pos_id(pos)) {
                assert!(naive.pop_task(pos_id(pos)));
            }
            assert!(!naive.pop_task(pos_id(pos)));
        }
        for pos in [0xE0u8, 0x80, 0x10] {
            assert_eq!(
                ring.remove_vnode(pos_id(pos)).ok(),
                naive.remove_vnode(pos_id(pos)).ok()
            );
            assert_eq!(ring.rows(), naive.rows());
        }
        assert!(ring.is_empty() && naive.is_empty());
        assert_eq!(ring.total_tasks(), 0);
    }
}

/// End-to-end: the optimized simulator and the naive reference
/// simulator produce identical runs for the engines the reference
/// models (no strategy, and background churn).
#[test]
fn naive_sim_matches_optimized_sim() {
    for (strategy, churn_rate) in [(StrategyKind::None, 0.0), (StrategyKind::Churn, 0.05)] {
        let cfg = SimConfig {
            nodes: 40,
            tasks: 2_000,
            strategy,
            churn_rate,
            record_metrics: true,
            metrics_interval: Some(3),
            ..SimConfig::default()
        };
        for seed in [1u64, 42, 0xA0B1_C2D3] {
            let opt = Sim::new(cfg.clone(), seed).run();
            let naive = NaiveSim::new(cfg.clone(), seed).run();
            assert_eq!(opt.ticks, naive.ticks, "{strategy:?} seed {seed}");
            assert_eq!(opt.completed, naive.completed, "{strategy:?} seed {seed}");
            assert_eq!(
                opt.work_per_tick, naive.work_per_tick,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                opt.messages.churn_leaves, naive.churn_leaves,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                opt.messages.churn_joins, naive.churn_joins,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                opt.peak_vnodes, naive.peak_vnodes,
                "{strategy:?} seed {seed}"
            );
            let samples: Vec<NaiveSample> = opt.metrics.iter().map(NaiveSample::of).collect();
            assert!(!samples.is_empty());
            assert_eq!(samples, naive.samples, "{strategy:?} seed {seed}");
        }
    }
}

/// The detached-ledger tick (nothing armed that could observe worker
/// loads mid-run: no churn, no strategy, no sampling or snapshots)
/// plans pops from the ring's dense columns instead of the worker
/// table. It must stay bit-identical to the naive reference under both
/// capacity models, since the planner reads capacities from a cached
/// column, and a run stepped by hand must keep the worker ledger
/// truthful and finish exactly like an unstepped one.
#[test]
fn detached_ledger_runs_match_naive_reference() {
    use autobal::sim::{Heterogeneity, WorkMeasurement};
    for (heterogeneity, work_measurement) in [
        (Heterogeneity::Homogeneous, WorkMeasurement::OnePerTick),
        (
            Heterogeneity::Heterogeneous,
            WorkMeasurement::StrengthPerTick,
        ),
    ] {
        let cfg = SimConfig {
            nodes: 70,
            tasks: 7_000,
            strategy: StrategyKind::None,
            churn_rate: 0.0,
            heterogeneity,
            work_measurement,
            ..SimConfig::default()
        };
        let whole = Sim::new(cfg.clone(), 99).run();
        let naive = NaiveSim::new(cfg.clone(), 99).run();
        assert_eq!(whole.ticks, naive.ticks, "{heterogeneity:?}");
        assert_eq!(
            whole.work_per_tick, naive.work_per_tick,
            "{heterogeneity:?}"
        );

        let mut sim = Sim::new(cfg, 99);
        let mut head_consumed = 0u64;
        for _ in 0..3 {
            head_consumed += sim.step();
        }
        let loads: u64 = sim.active_loads().iter().sum();
        assert_eq!(
            loads,
            sim.remaining_tasks(),
            "stale ledger leaked into active_loads"
        );
        assert_eq!(
            head_consumed,
            naive.work_per_tick.iter().take(3).sum::<u64>(),
            "{heterogeneity:?} diverged in stepped head"
        );
        assert_eq!(
            sim.run(),
            whole,
            "{heterogeneity:?} diverged after stepping"
        );
    }
}
