//! Allocation regression test for the steady-state tick loop.
//!
//! The hot-path overhaul's core promise: once a simulation reaches
//! steady state (placement done, scratch buffers warmed), `Sim::step`
//! performs **zero** heap allocations. This binary installs the
//! counting allocator from `autobal-meminstr` process-wide and measures
//! a 1 000-tick window directly.
//!
//! Gated behind the `count-allocs` feature so the ordinary test run
//! keeps the system allocator untouched:
//!
//! ```text
//! cargo test --release --features count-allocs --test zero_alloc
//! ```
#![cfg(feature = "count-allocs")]

use autobal::meminstr::{allocation_delta, CountingAlloc};
use autobal::sim::{Sim, SimConfig, StrategyKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A workload big enough that 1 000 + warmup ticks cannot drain it, so
/// every measured tick exercises the full work loop.
fn steady_cfg() -> SimConfig {
    SimConfig {
        nodes: 200,
        tasks: 2_000_000,
        strategy: StrategyKind::None,
        churn_rate: 0.0,
        ..SimConfig::default()
    }
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    let mut sim = Sim::new(steady_cfg(), 0xA0B1_C2D3);
    // Warmup: lets one-time lazy growth (work history headroom,
    // strategy scratch) happen outside the measured window.
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "steady-state tick loop allocated {allocs} times over 1k ticks"
    );
}

/// The metrics plane keeps the promise: with recording on, every tick
/// pays the incremental-statistics upkeep (Fenwick updates, counter
/// bumps) yet still allocates nothing. Only the periodic sample dump
/// may allocate, so the cadence is pushed past the measured window.
#[test]
fn metrics_recording_ticks_do_not_allocate() {
    let mut cfg = steady_cfg();
    cfg.record_metrics = true;
    cfg.metrics_interval = Some(1_000_000);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    for _ in 0..32 {
        sim.step();
    }
    let (allocs, consumed) = allocation_delta(|| {
        let mut consumed = 0u64;
        for _ in 0..1_000 {
            consumed += sim.step();
        }
        consumed
    });
    assert!(consumed > 0, "window must have done real work");
    assert_eq!(
        allocs, 0,
        "metrics-instrumented tick loop allocated {allocs} times over 1k ticks"
    );
}

/// Sharding keeps the promise: with the ring partitioned (`shards` ≥ 2)
/// the planned pop path — per-vnode planning pass, state-stream
/// generation, per-shard replay — reuses its buffers and allocates
/// nothing per tick. Measured on a
/// 1-thread pool because handing work to rayon's scoped threads boxes
/// closures (a threading-infrastructure cost, not a tick-loop cost);
/// the sequential dispatch path is the one the zero-alloc contract
/// covers.
#[test]
fn sharded_steady_state_ticks_do_not_allocate() {
    let mut cfg = steady_cfg();
    cfg.shards = 4;
    cfg.record_metrics = true;
    cfg.metrics_interval = Some(1_000_000);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            for _ in 0..32 {
                sim.step();
            }
            let (allocs, consumed) = allocation_delta(|| {
                let mut consumed = 0u64;
                for _ in 0..1_000 {
                    consumed += sim.step();
                }
                consumed
            });
            assert!(consumed > 0, "window must have done real work");
            assert_eq!(
                allocs, 0,
                "sharded tick loop allocated {allocs} times over 1k ticks"
            );
        });
}

/// Rings that hold Sybils keep the promise too: the per-vnode plan
/// (the walk over each worker's slot handles, the per-slot plan
/// entries, the pop stream) reuses its buffers. Random injection spawns
/// and retires Sybils only at check ticks, so the measured windows are
/// the work-only ticks between two checks, once the first Sybils exist.
#[test]
fn sybil_ring_work_ticks_do_not_allocate() {
    let cfg = SimConfig {
        tasks: 400_000,
        strategy: StrategyKind::RandomInjection,
        ..steady_cfg()
    };
    let (nodes, every) = (cfg.nodes, cfg.check_interval);
    let mut sim = Sim::new(cfg, 0xA0B1_C2D3);
    while sim.messages().sybils_created == 0 || !sim.tick().is_multiple_of(every) {
        sim.step();
    }
    let (mut allocs, mut consumed) = (0u64, 0u64);
    for _ in 0..50 {
        let (a, c) = allocation_delta(|| (1..every).map(|_| sim.step()).sum::<u64>());
        allocs += a;
        consumed += c;
        assert!(sim.ring().len() > nodes, "window must run on a Sybil ring");
        // The check tick: Sybils spawn and retire here, unmeasured.
        sim.step();
    }
    assert!(consumed > 0, "windows must have done real work");
    assert_eq!(
        allocs, 0,
        "work ticks on a Sybil ring allocated {allocs} times"
    );
}

/// The same property seen end-to-end: a full run's allocation count is
/// dominated by setup, not by ticks — running 4x more ticks over the
/// same setup must not add more than a sliver of allocations.
#[test]
fn allocations_scale_with_setup_not_ticks() {
    let short = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(250);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..250 {
                sim.step();
            }
        })
        .0
    };
    let long = {
        let mut cfg = steady_cfg();
        cfg.max_ticks = Some(1_000);
        let mut sim = Sim::new(cfg, 7);
        allocation_delta(|| {
            for _ in 0..1_000 {
                sim.step();
            }
        })
        .0
    };
    assert!(
        long <= short + 8,
        "4x the ticks added {} allocations (short {short}, long {long})",
        long - short
    );
}
