//! Differential tests: the optimized hot-path `Ring` (struct-of-arrays
//! shards, pooled task vectors, in-place arc splits) against the naive
//! reference implementation in [`autobal::reference`], which preserves
//! the pre-optimization semantics verbatim.
//!
//! Equality here is **bit-for-bit**: not just the same task multisets
//! but the same element order inside every vnode's task vector, so the
//! shared xorshift pop stream consumes identical indices on both sides.

use autobal::reference::{NaiveRing, NaiveSim};
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

/// Post-setup operations. `assign_tasks` is deliberately absent: every
/// production caller assigns exactly once at setup (see
/// `Sim::with_placement` and `placement::initial_loads`), so the
/// differential run mirrors that contract — setup inserts, one assign,
/// then arbitrary churn and consumption.
#[derive(Debug, Clone)]
enum Op {
    Insert { pos: u8, owner: u8 },
    Remove { pos: u8 },
    Pop { pos: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<u8>(), any::<u8>()).prop_map(|(tag, pos, owner)| match tag {
        0..=2 => Op::Insert { pos, owner },
        3 | 4 => Op::Remove { pos },
        _ => Op::Pop { pos },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Production-shaped run: setup inserts, one task assignment, then
    /// a random soup of inserts, removals, and pops. Full state
    /// (including task element order) must agree after every single
    /// operation.
    #[test]
    fn ring_matches_naive_reference(
        positions in proptest::collection::vec(any::<u8>(), 1..10),
        keys in proptest::collection::vec(any::<u16>(), 0..60),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut ring = Ring::new();
        let mut naive = NaiveRing::new();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            prop_assert_eq!(ring.insert_vnode(id, i).ok(), naive.insert_vnode(id, i).ok());
        }
        let keys: Vec<Id> = keys.into_iter().map(key_id).collect();
        ring.assign_tasks(keys.clone());
        naive.assign_tasks(keys);
        prop_assert_eq!(ring.rows(), naive.rows());

        for op in ops {
            match op {
                Op::Insert { pos, owner } => {
                    let id = pos_id(pos);
                    prop_assert_eq!(
                        ring.insert_vnode(id, owner as usize).ok(),
                        naive.insert_vnode(id, owner as usize).ok()
                    );
                }
                Op::Remove { pos } => {
                    let id = pos_id(pos);
                    prop_assert_eq!(
                        ring.remove_vnode(id).ok(),
                        naive.remove_vnode(id).ok()
                    );
                }
                Op::Pop { pos } => {
                    let id = pos_id(pos);
                    prop_assert_eq!(ring.pop_task(id), naive.pop_task(id));
                }
            }
            prop_assert_eq!(ring.len(), naive.len());
            prop_assert_eq!(ring.total_tasks(), naive.total_tasks());
            prop_assert_eq!(ring.rows(), naive.rows());
            prop_assert!(ring.check_invariants().is_ok());
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
    ring.assign_tasks(keys.clone());
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
        ring.assign_tasks(keys.clone());
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
            assert_eq!(
                opt.series.gini, naive.series_gini,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                opt.series.idle, naive.series_idle,
                "{strategy:?} seed {seed}"
            );
        }
    }
}
