//! Differential tests for the arc-range partitioning of the ring: the
//! struct-of-arrays [`Ring`] at every supported shard count against the
//! naive reference in [`autobal::reference`] and against itself at one
//! shard.
//!
//! Equality is **bit-for-bit**: identical task element order inside
//! every vnode (so the shared xorshift pop stream consumes identical
//! indices), identical routing answers, and — at the simulator level —
//! identical [`RunResult`]s including trace and metrics bytes, for
//! every strategy, at every shard count, under any rayon thread count.

use autobal::reference::{NaiveRing, NaiveSim};
use autobal::sim::{Ring, Sim, SimConfig, StrategyKind};
use autobal::Id;
use proptest::prelude::*;

/// Shard counts under differential test. 1 has no shard seams; 3 is
/// deliberately not a divisor of the id space; 8 puts the `pos_id`
/// population across every shard.
const SHARD_COUNTS: &[usize] = &[1, 2, 3, 8];

/// 256 vnode positions spread across the whole 160-bit ring (top limb
/// holds 32 bits). With 8 shards the arc boundaries sit at `v = 32·k`,
/// so the population regularly straddles shard boundaries and the
/// highest position's arc wraps through zero (and through the shard
/// 7 → 0 seam).
fn pos_id(v: u8) -> Id {
    Id::from_limbs(0x5DEE_CE66_D154_21C4, 0, (v as u64) << 24)
}

/// Task keys at finer top-limb granularity than the positions, so they
/// interleave through every arc including the wrap arc.
fn key_id(v: u16) -> Id {
    Id::from_limbs(1, 0x9E37_79B9, (v as u64) << 16)
}

/// Post-setup operations, mirroring `tests/ring_reference.rs`: setup
/// inserts, one task assignment, then arbitrary churn and consumption.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One operation soup, driven simultaneously through the naive
    /// reference and a `Ring` per shard count. Full state
    /// (including task element order) must agree after every single
    /// operation on every engine.
    #[test]
    fn op_soup_is_bit_identical_across_shard_counts(
        positions in proptest::collection::vec(any::<u8>(), 1..10),
        keys in proptest::collection::vec(any::<u16>(), 0..60),
        ops in proptest::collection::vec(arb_op(), 1..64),
    ) {
        let mut naive = NaiveRing::new();
        let mut stores: Vec<Ring> =
            SHARD_COUNTS.iter().map(|&s| Ring::with_shards(s)).collect();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            let want = naive.insert_vnode(id, i).ok();
            for st in stores.iter_mut() {
                prop_assert_eq!(st.insert_vnode(id, i).ok(), want);
            }
        }
        let keys: Vec<Id> = keys.into_iter().map(key_id).collect();
        naive.assign_tasks(keys.clone());
        for st in stores.iter_mut() {
            st.assign_tasks(keys.clone());
            prop_assert_eq!(st.rows(), naive.rows());
        }

        for op in ops {
            match op {
                Op::Insert { pos, owner } => {
                    let id = pos_id(pos);
                    let want = naive.insert_vnode(id, owner as usize).ok();
                    for st in stores.iter_mut() {
                        prop_assert_eq!(st.insert_vnode(id, owner as usize).ok(), want);
                    }
                }
                Op::Remove { pos } => {
                    let id = pos_id(pos);
                    let want = naive.remove_vnode(id).ok();
                    for st in stores.iter_mut() {
                        prop_assert_eq!(st.remove_vnode(id).ok(), want);
                    }
                }
                Op::Pop { pos } => {
                    let id = pos_id(pos);
                    let want = naive.pop_task(id);
                    for st in stores.iter_mut() {
                        prop_assert_eq!(st.pop_task(id), want);
                    }
                }
            }
            for st in stores.iter() {
                prop_assert_eq!(st.len(), naive.len());
                prop_assert_eq!(st.total_tasks(), naive.total_tasks());
                prop_assert_eq!(st.rows(), naive.rows());
                prop_assert!(st.check_invariants().is_ok());
            }
        }
    }

    /// Routing answers — key ownership, successor/predecessor walks,
    /// and k-neighbor lists (which cross shard seams) — agree across
    /// every shard count.
    #[test]
    fn routing_is_identical_across_shard_counts(
        positions in proptest::collection::vec(any::<u8>(), 1..12),
        probes in proptest::collection::vec(any::<u16>(), 1..32),
    ) {
        let mut stores: Vec<Ring> =
            SHARD_COUNTS.iter().map(|&s| Ring::with_shards(s)).collect();
        for (i, &p) in positions.iter().enumerate() {
            let id = pos_id(p);
            for st in stores.iter_mut() {
                let _ = st.insert_vnode(id, i);
            }
        }
        let (solo, rest) = stores.split_first().expect("nonempty");
        for probe in probes {
            let k = key_id(probe);
            for st in rest {
                prop_assert_eq!(st.owner_of_key(k), solo.owner_of_key(k));
                prop_assert_eq!(st.successor_of(k), solo.successor_of(k));
                prop_assert_eq!(st.predecessor_of(k), solo.predecessor_of(k));
                prop_assert_eq!(st.successors(k, 3), solo.successors(k, 3));
                prop_assert_eq!(st.predecessors(k, 3), solo.predecessors(k, 3));
            }
        }
    }
}

/// A scripted cross-shard split: with 8 shards the population sits in
/// shards 0 (`0x10`), 3 (`0x70`), and 7 (`0xF0`). The arc
/// `(0xF0, 0x10]` wraps through zero across the shard 7 → 0 seam, and
/// inserting at `0x70` splits an arc whose keys live in a different
/// shard than the newcomer. Both are the branchiest paths of the
/// sharded `insert_vnode`/`remove_vnode` (cross-shard successor walks
/// plus task migration between shards).
#[test]
fn cross_shard_splits_match_reference() {
    let mut naive = NaiveRing::new();
    let mut store = Ring::with_shards(8);

    for (pos, owner) in [(0x10u8, 0usize), (0xF0, 1)] {
        assert!(naive.insert_vnode(pos_id(pos), owner).is_ok());
        assert!(store.insert_vnode(pos_id(pos), owner).is_ok());
    }
    // Keys in the wrap region (above 0xF0, below 0x10) and mid-ring.
    let keys: Vec<Id> = [0xF8_00u16, 0xFE_00, 0x01_00, 0x20_00, 0x70_00, 0x90_00]
        .into_iter()
        .map(key_id)
        .collect();
    naive.assign_tasks(keys.clone());
    store.assign_tasks(keys);
    assert_eq!(store.load(pos_id(0x10)), 3, "wrap arc holds 3 keys");
    assert_eq!(store.rows(), naive.rows());

    // Split the long arc (0x10, 0xF0] at 0x70: the newcomer (shard 3)
    // takes the keys in (0x10, 0x70] away from 0xF0 (shard 7).
    assert_eq!(
        store.insert_vnode(pos_id(0x70), 2).ok(),
        naive.insert_vnode(pos_id(0x70), 2).ok()
    );
    assert_eq!(store.rows(), naive.rows());

    // Split the wrap arc at 0x08 (shard 0): keys strictly in
    // (0xF0, 0x08] — 0xF8, 0xFE, 0x01 — migrate from shard 0's 0x10.
    assert_eq!(
        store.insert_vnode(pos_id(0x08), 3).ok(),
        naive.insert_vnode(pos_id(0x08), 3).ok()
    );
    assert_eq!(store.rows(), naive.rows());

    // Removals merge back across the same seams identically.
    for pos in [0x08u8, 0x70] {
        assert_eq!(
            store.remove_vnode(pos_id(pos)).ok(),
            naive.remove_vnode(pos_id(pos)).ok()
        );
        assert_eq!(store.rows(), naive.rows());
    }
    assert_eq!(store.load(pos_id(0x10)), 3);
    assert!(store.check_invariants().is_ok());
}

/// Simulator-level parity: for every strategy (including the
/// centralized oracle) and background churn, a run with `shards` ≥ 2 —
/// whose planned pops replay shard by shard, in parallel where threads
/// exist — produces a `RunResult` equal to the single-shard run in
/// every field: ticks, work curve, snapshots, message counts, event
/// log, golden float series, trace records, and metrics samples. (The
/// single-shard runs themselves are pinned to the ordered-map engine
/// that preceded this one by `tests/engine_baseline.rs`.)
#[test]
fn every_strategy_is_shard_count_invariant() {
    let kinds = StrategyKind::ALL
        .iter()
        .copied()
        .chain([StrategyKind::CentralizedOracle]);
    for kind in kinds {
        let base = SimConfig {
            nodes: 60,
            tasks: 6_000,
            strategy: kind,
            churn_rate: 0.01,
            snapshot_ticks: vec![0, 5],
            record_trace: true,
            record_metrics: true,
            metrics_interval: Some(3),
            ..SimConfig::default()
        };
        let solo = Sim::new(
            SimConfig {
                shards: 1,
                ..base.clone()
            },
            123,
        )
        .run();
        for shards in [2u32, 3, 8] {
            let sharded = Sim::new(
                SimConfig {
                    shards,
                    ..base.clone()
                },
                123,
            )
            .run();
            assert_eq!(solo, sharded, "{kind:?} diverged at {shards} shards");
        }
    }
}

/// A partitioned ring agrees with the naive reference simulator end to
/// end, with and without churn interruptions.
#[test]
fn sharded_sim_matches_naive_reference() {
    for (strategy, churn_rate) in [(StrategyKind::None, 0.0), (StrategyKind::Churn, 0.05)] {
        let cfg = SimConfig {
            nodes: 40,
            tasks: 2_000,
            strategy,
            churn_rate,
            record_metrics: true,
            metrics_interval: Some(3),
            shards: 4,
            ..SimConfig::default()
        };
        for seed in [1u64, 42, 0xA0B1_C2D3] {
            let sharded = Sim::new(cfg.clone(), seed).run();
            let naive = NaiveSim::new(cfg.clone(), seed).run();
            assert_eq!(sharded.ticks, naive.ticks, "{strategy:?} seed {seed}");
            assert_eq!(
                sharded.completed, naive.completed,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.work_per_tick, naive.work_per_tick,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.messages.churn_leaves, naive.churn_leaves,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.messages.churn_joins, naive.churn_joins,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.peak_vnodes, naive.peak_vnodes,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.series.gini, naive.series_gini,
                "{strategy:?} seed {seed}"
            );
            assert_eq!(
                sharded.series.idle, naive.series_idle,
                "{strategy:?} seed {seed}"
            );
        }
    }
}

/// The detached-ledger tick (nothing armed that could observe worker
/// loads mid-run: no churn, no strategy, no sampling or snapshots)
/// plans pops from the ring's dense columns instead of the worker
/// table. It must stay bit-identical to the naive reference at every
/// shard count — under both capacity models, since the planner reads
/// capacities from a cached column.
#[test]
fn detached_ledger_runs_match_classic_and_naive() {
    use autobal::sim::{Heterogeneity, WorkMeasurement};
    for (heterogeneity, work_measurement) in [
        (Heterogeneity::Homogeneous, WorkMeasurement::OnePerTick),
        (
            Heterogeneity::Heterogeneous,
            WorkMeasurement::StrengthPerTick,
        ),
    ] {
        let base = SimConfig {
            nodes: 70,
            tasks: 7_000,
            strategy: StrategyKind::None,
            churn_rate: 0.0,
            heterogeneity,
            work_measurement,
            ..SimConfig::default()
        };
        let solo = Sim::new(
            SimConfig {
                shards: 1,
                ..base.clone()
            },
            99,
        )
        .run();
        let naive = NaiveSim::new(
            SimConfig {
                shards: 1,
                ..base.clone()
            },
            99,
        )
        .run();
        assert_eq!(solo.ticks, naive.ticks, "{heterogeneity:?}");
        assert_eq!(solo.work_per_tick, naive.work_per_tick, "{heterogeneity:?}");
        for shards in [2u32, 4, 8] {
            let mut sim = Sim::new(
                SimConfig {
                    shards,
                    ..base.clone()
                },
                99,
            );
            // Drive a few ticks by hand first: the worker ledger must
            // stay truthful mid-run.
            let mut head_consumed = 0u64;
            for _ in 0..3 {
                head_consumed += sim.step();
            }
            let loads: u64 = sim.active_loads().iter().sum();
            assert_eq!(
                loads,
                sim.remaining_tasks(),
                "stale ledger leaked into active_loads at {shards} shards"
            );
            let sharded = sim.run();
            assert_eq!(
                head_consumed,
                solo.work_per_tick.iter().take(3).sum::<u64>(),
                "{heterogeneity:?} diverged in stepped head at {shards} shards"
            );
            assert_eq!(
                sharded, solo,
                "{heterogeneity:?} diverged at {shards} shards"
            );
        }
    }
}

/// Rayon scheduling must not leak into results: the same sharded run
/// on a 1-thread pool (sequential shard dispatch) and an 8-thread pool
/// (parallel shard dispatch) emits byte-identical trace and metrics
/// JSONL and the same work curve.
#[test]
fn thread_count_does_not_change_trace_or_metrics_bytes() {
    let cfg = SimConfig {
        nodes: 80,
        tasks: 8_000,
        strategy: StrategyKind::Churn,
        churn_rate: 0.02,
        record_trace: true,
        record_metrics: true,
        shards: 8,
        ..SimConfig::default()
    };
    let run = |threads: usize| {
        let cfg = cfg.clone();
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(move || {
                let res = Sim::new(cfg, 7).run();
                (
                    autobal_telemetry::to_jsonl(res.trace.records()),
                    autobal_metrics::sample::to_jsonl(&res.metrics),
                    res.work_per_tick.clone(),
                    res.ticks,
                )
            })
    };
    let single = run(1);
    let multi = run(8);
    assert_eq!(single.0, multi.0, "trace bytes depend on thread count");
    assert_eq!(single.1, multi.1, "metrics bytes depend on thread count");
    assert_eq!((single.2, single.3), (multi.2, multi.3));
}
