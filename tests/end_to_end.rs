//! Cross-crate integration tests: the paper's headline results at
//! reduced scale, exercised through the umbrella `autobal` API exactly
//! as a downstream user would.

use autobal::sim::{Heterogeneity, Sim, SimConfig, StrategyKind, WorkMeasurement};
use autobal::stats::spacings;
use autobal::workload::trials::{run_and_summarize, run_trials};

fn cfg(nodes: usize, tasks: u64, strategy: StrategyKind) -> SimConfig {
    SimConfig {
        nodes,
        tasks,
        strategy,
        ..SimConfig::default()
    }
}

/// The no-strategy runtime factor matches the spacings theory ≈ H_n —
/// the number every other experiment is normalized against.
#[test]
fn baseline_factor_matches_harmonic_prediction() {
    let s = run_and_summarize(&cfg(200, 20_000, StrategyKind::None), 8, 1);
    let predicted = spacings::predicted_baseline_runtime_factor(200); // ≈ 5.88
    assert!(
        (s.mean_runtime_factor - predicted).abs() < 1.0,
        "measured {} vs predicted {predicted}",
        s.mean_runtime_factor
    );
}

/// Table II's shape: the runtime factor decreases monotonically in the
/// churn rate.
#[test]
fn churn_effect_is_monotone_in_rate() {
    let mut last = f64::INFINITY;
    for rate in [0.0, 0.001, 0.01] {
        let c = SimConfig {
            churn_rate: rate,
            ..cfg(150, 30_000, StrategyKind::Churn)
        };
        let s = run_and_summarize(&c, 8, 2);
        assert!(
            s.mean_runtime_factor < last + 0.15,
            "rate {rate}: {} not below previous {last}",
            s.mean_runtime_factor
        );
        last = s.mean_runtime_factor;
    }
    // And the 0.01 run must be a big win, not a tie.
    assert!(last < 4.0, "churn 0.01 factor {last}");
}

/// The paper's core ranking: every strategy beats no strategy, and
/// random injection beats them all.
#[test]
fn strategy_ranking_matches_paper() {
    let trials = 8;
    let factor = |strategy, rate| {
        let c = SimConfig {
            churn_rate: rate,
            ..cfg(150, 15_000, strategy)
        };
        run_and_summarize(&c, trials, 3).mean_runtime_factor
    };
    let none = factor(StrategyKind::None, 0.0);
    let churn = factor(StrategyKind::Churn, 0.01);
    let random = factor(StrategyKind::RandomInjection, 0.0);
    let neighbor = factor(StrategyKind::NeighborInjection, 0.0);
    let smart = factor(StrategyKind::SmartNeighbor, 0.0);
    let invitation = factor(StrategyKind::Invitation, 0.0);

    assert!(random < churn, "random {random} < churn {churn}");
    assert!(random < neighbor, "random {random} < neighbor {neighbor}");
    assert!(
        random < invitation,
        "random {random} < invitation {invitation}"
    );
    for (name, f) in [
        ("churn", churn),
        ("neighbor", neighbor),
        ("smart", smart),
        ("invitation", invitation),
    ] {
        assert!(f < none, "{name} {f} should beat baseline {none}");
    }
    // §VI-B: random injection approaches the ideal.
    assert!(random < 2.2, "random injection factor {random}");
}

/// §VI-B: with more tasks per node, random injection gets closer to
/// ideal (the paper's 1e6 vs 1e5 comparison).
#[test]
fn more_tasks_per_node_improves_random_injection() {
    let light = run_and_summarize(&cfg(100, 10_000, StrategyKind::RandomInjection), 8, 4);
    let heavy = run_and_summarize(&cfg(100, 100_000, StrategyKind::RandomInjection), 8, 4);
    assert!(
        heavy.mean_runtime_factor < light.mean_runtime_factor,
        "heavy {} vs light {}",
        heavy.mean_runtime_factor,
        light.mean_runtime_factor
    );
}

/// §VI conclusions: heterogeneous strength-based networks fare worse
/// under the Sybil strategies than homogeneous ones.
#[test]
fn heterogeneity_with_strength_consumption_hurts() {
    let hom = run_and_summarize(&cfg(150, 15_000, StrategyKind::RandomInjection), 8, 5);
    let het_cfg = SimConfig {
        heterogeneity: Heterogeneity::Heterogeneous,
        work_measurement: WorkMeasurement::StrengthPerTick,
        ..cfg(150, 15_000, StrategyKind::RandomInjection)
    };
    let het = run_and_summarize(&het_cfg, 8, 5);
    assert!(
        het.mean_runtime_factor > hom.mean_runtime_factor,
        "het {} should exceed hom {}",
        het.mean_runtime_factor,
        hom.mean_runtime_factor
    );
}

/// Task conservation holds for every strategy across full runs.
#[test]
fn all_strategies_consume_every_task_exactly_once() {
    for strategy in StrategyKind::ALL {
        let c = SimConfig {
            churn_rate: if strategy == StrategyKind::Churn {
                0.02
            } else {
                0.0
            },
            ..cfg(80, 8_000, strategy)
        };
        for r in run_trials(&c, 3, 6) {
            assert!(r.completed, "{strategy:?} did not finish");
            assert_eq!(
                r.work_per_tick.iter().sum::<u64>(),
                8_000,
                "{strategy:?} consumed a different number of tasks"
            );
        }
    }
}

/// The messages ordering the paper argues: reactive invitation spends
/// fewer strategy messages than the proactive probing strategy.
#[test]
fn invitation_uses_less_bandwidth_than_smart_neighbor() {
    let inv = run_and_summarize(&cfg(150, 15_000, StrategyKind::Invitation), 6, 7);
    let smart = run_and_summarize(&cfg(150, 15_000, StrategyKind::SmartNeighbor), 6, 7);
    assert!(
        inv.messages.strategy_messages() < smart.messages.strategy_messages(),
        "invitation {} vs smart {}",
        inv.messages.strategy_messages(),
        smart.messages.strategy_messages()
    );
}

/// Figure 3's claim: evenly spacing the *nodes* improves the balance
/// but the tasks still cluster, so the runtime factor stays well above
/// 1 — and above the ratio a Sybil strategy reaches.
#[test]
fn even_node_spacing_helps_but_does_not_fix_imbalance() {
    use autobal::workload::gen;
    let nodes = 200usize;
    let tasks = 20_000u64;
    let cfg = SimConfig {
        nodes,
        tasks,
        ..SimConfig::default()
    };
    let sha1 = Sim::new(cfg.clone(), 9).run();

    let even_ids = gen::evenly_spaced_ids(nodes);
    let mut key_rng = autobal::stats::rng::substream(9, 0, autobal::stats::rng::domains::TASKS);
    let keys = gen::sha1_keys(tasks as usize, &mut key_rng);
    let even = Sim::with_placement(cfg.clone(), 9, even_ids, keys).run();

    assert!(
        even.runtime_factor < sha1.runtime_factor,
        "even {} vs sha1 {}",
        even.runtime_factor,
        sha1.runtime_factor
    );
    // But task keys still cluster: even placement is far from ideal…
    assert!(even.runtime_factor > 1.15, "even {}", even.runtime_factor);
    // …and random injection on the *bad* placement still beats it.
    let sybil = Sim::new(
        SimConfig {
            strategy: StrategyKind::RandomInjection,
            ..cfg
        },
        9,
    )
    .run();
    assert!(sybil.runtime_factor < even.runtime_factor + 0.5);
}

/// Snapshots feed the figure pipeline end to end: capture → histogram →
/// CSV, with mass conserved at every step.
#[test]
fn snapshot_to_figure_pipeline_conserves_mass() {
    let c = SimConfig {
        snapshot_ticks: vec![0, 5, 35],
        ..cfg(120, 12_000, StrategyKind::RandomInjection)
    };
    let res = Sim::new(c, 8).run();
    let ticks: Vec<u64> = res.snapshots.iter().map(|s| s.tick).collect();
    assert_eq!(ticks, [0, 5, 35]);
    for snap in &res.snapshots {
        assert_eq!(snap.loads.len(), 120, "one load per worker");
        let done: u64 = res.work_per_tick[..snap.tick as usize].iter().sum();
        assert_eq!(snap.loads.iter().sum::<u64>(), 12_000 - done);
        let hist = autobal::stats::Histogram::auto(&snap.loads, 25);
        assert_eq!(hist.total() as usize, snap.loads.len());
        let csv = autobal::viz::csv::histogram_series_csv(&[("net", &hist.rows())]);
        let data_rows = csv.lines().count() - 1;
        assert_eq!(data_rows, hist.rows().len());
    }
}
