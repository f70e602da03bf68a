//! Determinism and serialization guarantees: identical seeds produce
//! identical runs regardless of parallelism, and every result record
//! survives a serde round-trip.

use autobal::sim::trace::event_log;
use autobal::sim::{RunResult, Sim, SimConfig, StrategyKind};
use autobal::workload::trials::run_trials;
use autobal::workload::ExperimentSpec;

fn demo_cfg() -> SimConfig {
    SimConfig {
        nodes: 60,
        tasks: 6_000,
        strategy: StrategyKind::RandomInjection,
        churn_rate: 0.01,
        snapshot_ticks: vec![0, 5],
        ..SimConfig::default()
    }
}

#[test]
fn identical_seeds_identical_runs() {
    let a = Sim::new(demo_cfg(), 77).run();
    let b = Sim::new(demo_cfg(), 77).run();
    assert_eq!(a, b, "full RunResult equality");
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = Sim::new(demo_cfg(), 1).run();
    let b = Sim::new(demo_cfg(), 2).run();
    assert_ne!(
        (a.ticks, a.work_per_tick.clone()),
        (b.ticks, b.work_per_tick.clone())
    );
}

#[test]
fn parallel_batch_is_deterministic_under_any_thread_count() {
    // Run the same batch on a 1-thread and a many-thread pool; rayon
    // scheduling must not leak into results.
    let cfg = demo_cfg();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| run_trials(&cfg, 6, 42));
    let multi = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap()
        .install(|| run_trials(&cfg, 6, 42));
    assert_eq!(single, multi);
}

#[test]
fn trait_dispatch_is_deterministic_for_every_strategy() {
    // Strategies are now trait objects dispatched from a registry; the
    // indirection must not cost determinism for any of them, alone or
    // composed with background churn.
    let kinds = StrategyKind::ALL
        .iter()
        .copied()
        .chain([StrategyKind::CentralizedOracle]);
    for kind in kinds {
        for churn_rate in [0.0, 0.01] {
            let cfg = SimConfig {
                nodes: 60,
                tasks: 6_000,
                strategy: kind,
                churn_rate,
                record_trace: true,
                ..SimConfig::default()
            };
            let a = Sim::new(cfg.clone(), 123).run();
            let b = Sim::new(cfg, 123).run();
            assert_eq!(a, b, "{kind:?} with churn {churn_rate} must replay exactly");
        }
    }
}

#[test]
fn composed_stack_is_deterministic_under_any_thread_count() {
    // The StrategyStack composition the registry builds (background
    // churn layered under a Sybil strategy) across rayon pools of
    // different widths — scheduling must not leak into results.
    for kind in [
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
        StrategyKind::CentralizedOracle,
    ] {
        let cfg = SimConfig {
            nodes: 60,
            tasks: 6_000,
            strategy: kind,
            churn_rate: 0.02,
            ..SimConfig::default()
        };
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| run_trials(&cfg, 4, 9));
        let multi = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| run_trials(&cfg, 4, 9));
        assert_eq!(
            single, multi,
            "{kind:?} batch must not depend on thread count"
        );
    }
}

#[test]
fn protocol_substrate_is_deterministic() {
    // The Chord-backed substrate gets the same guarantee as the oracle
    // ring: replaying a seed replays every join, leave, and message.
    use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
    let cfg = ProtocolSimConfig {
        nodes: 32,
        tasks: 1_600,
        strategy: StrategyKind::SmartNeighbor,
        churn_rate: 0.005,
        record_trace: true,
        ..ProtocolSimConfig::default()
    };
    let a = run_protocol_sim(&cfg, 21);
    let b = run_protocol_sim(&cfg, 21);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.sybils_created, b.sybils_created);
    assert_eq!(event_log(&a.trace), event_log(&b.trace));
}

#[test]
fn run_result_serde_roundtrip() {
    let res = Sim::new(demo_cfg(), 5).run();
    let json = serde_json::to_string(&res).unwrap();
    let back: RunResult = serde_json::from_str(&json).unwrap();
    assert_eq!(res, back);
}

#[test]
fn experiment_spec_roundtrip_preserves_config() {
    let spec = ExperimentSpec::new("roundtrip", demo_cfg(), 10, 99);
    let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(spec, back);
    assert_eq!(back.config.snapshot_ticks, vec![0, 5]);
}

#[test]
fn placement_is_strategy_independent() {
    // The same seed must yield the same initial distribution whatever
    // strategy runs later — the property all "same starting
    // configuration" figure comparisons rely on.
    let mut base = demo_cfg();
    base.snapshot_ticks = vec![0];
    let mut churn = base.clone();
    churn.strategy = StrategyKind::Churn;
    churn.churn_rate = 0.05;
    let a = Sim::new(base, 31).run();
    let b = Sim::new(churn, 31).run();
    let la = &a.snapshots[0].loads;
    let lb = &b.snapshots[0].loads;
    let mut sa = la.clone();
    let mut sb = lb.clone();
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "tick-0 distributions must match");
}
