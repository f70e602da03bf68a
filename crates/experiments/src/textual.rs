//! Drivers for the scalar claims in the running text of §VI (random
//! injection, neighbor injection, invitation), plus the message-count
//! comparison the paper argues qualitatively.

use crate::common::{gauge_series, gini_series, write_out, write_table, Args};
use autobal_core::{Heterogeneity, SimConfig, StrategyKind, WorkMeasurement};
use autobal_metrics::names;
use autobal_telemetry::outln;
use autobal_workload::tables::{f3, Table};

fn base(nodes: usize, tasks: u64, strategy: StrategyKind) -> SimConfig {
    SimConfig {
        nodes,
        tasks,
        strategy,
        ..SimConfig::default()
    }
}

/// Runs one scalar-claim cell, prints it and adds its table row;
/// returns the mean runtime factor.
fn claim(
    args: &Args,
    table: &mut Table,
    name: &str,
    cfg: &SimConfig,
    note: &str,
    salt: u64,
) -> f64 {
    let s = args.run_cell(cfg, args.seed ^ salt);
    let (mean, std) = (s.mean_runtime_factor, s.std_runtime_factor);
    outln!("  {name}: {mean:.3} ± {std:.3}   [{note}]");
    table.push_row(vec![name.to_string(), f3(mean), f3(std), note.to_string()]);
    mean
}

/// §VI-B scalar claims for random injection.
pub fn text_ri(args: &Args) {
    outln!("text_ri: §VI-B random injection claims");
    let mut table = Table::new(vec!["configuration", "mean factor", "σ", "paper says"]);
    let mut log = |name: &str, cfg: SimConfig, note: &str, salt: u64| {
        claim(args, &mut table, name, &cfg, note, salt)
    };

    // Homogeneous factor bands.
    let f_1e5 = log(
        "1000n/1e5t homogeneous",
        base(1000, 100_000, StrategyKind::RandomInjection),
        "never > 1.7, as fast as 1.36",
        1,
    );
    let f_1e6 = log(
        "1000n/1e6t homogeneous",
        base(1000, 1_000_000, StrategyKind::RandomInjection),
        "1.12 – 1.25; ≈0.82 below the 1e5 case",
        2,
    );
    outln!(
        "  Δ(1e5 − 1e6) = {:.3} (paper ≈ 0.82 in their bands)",
        f_1e5 - f_1e6
    );

    // Ratio-matched networks: the smaller runs slightly faster.
    let f_small = log(
        "100n/1e4t (100 tasks/node)",
        base(100, 10_000, StrategyKind::RandomInjection),
        "smaller net ≈0.086 faster than ratio-matched larger",
        3,
    );
    let f_big = log(
        "1000n/1e5t (100 tasks/node)",
        base(1000, 100_000, StrategyKind::RandomInjection),
        "(same row as above)",
        1,
    );
    outln!(
        "  ratio-matched Δ(big − small) = {:.3} (paper 0.086)",
        f_big - f_small
    );

    // Heterogeneity hurts.
    log(
        "1000n/1e5t heterogeneous + strength work",
        SimConfig {
            heterogeneity: Heterogeneity::Heterogeneous,
            work_measurement: WorkMeasurement::StrengthPerTick,
            ..base(1000, 100_000, StrategyKind::RandomInjection)
        },
        "het worse; worst het avg 4.052 @100 t/n, 1.955 @1000 t/n",
        4,
    );
    log(
        "1000n/1e6t heterogeneous + strength work",
        SimConfig {
            heterogeneity: Heterogeneity::Heterogeneous,
            work_measurement: WorkMeasurement::StrengthPerTick,
            ..base(1000, 1_000_000, StrategyKind::RandomInjection)
        },
        "larger ratio handles heterogeneity better",
        5,
    );

    // Sybil threshold effect (homogeneous 1e5: ≥0.1 reduction).
    log(
        "1000n/1e5t threshold 0",
        base(1000, 100_000, StrategyKind::RandomInjection),
        "baseline for threshold comparison",
        1,
    );
    log(
        "1000n/1e5t threshold 5",
        SimConfig {
            sybil_threshold: 5,
            ..base(1000, 100_000, StrategyKind::RandomInjection)
        },
        "threshold reduces factor ≥0.1 in 100 t/n homogeneous nets",
        6,
    );

    // Background churn on top of random injection: no positive impact.
    log(
        "1000n/1e5t random + churn 0.01",
        SimConfig {
            churn_rate: 0.01,
            ..base(1000, 100_000, StrategyKind::RandomInjection)
        },
        "churn adds ≈ +0.06, never helps",
        7,
    );

    // maxSybils 10 in heterogeneous nets hurts.
    log(
        "1000n/1e5t het strength work, maxSybils 10",
        SimConfig {
            heterogeneity: Heterogeneity::Heterogeneous,
            work_measurement: WorkMeasurement::StrengthPerTick,
            max_sybils: 10,
            ..base(1000, 100_000, StrategyKind::RandomInjection)
        },
        "strength range 1–10 worse than 1–5 (≈ +1 at 100 t/n)",
        8,
    );
    write_table(&args.out, "text_ri", &table);
}

/// §VI-C scalar claims for neighbor injection.
pub fn text_ni(args: &Args) {
    outln!("text_ni: §VI-C neighbor injection claims");
    let mut table = Table::new(vec!["configuration", "mean factor", "σ", "paper says"]);
    let mut log = |name: &str, cfg: SimConfig, note: &str, salt: u64| {
        claim(args, &mut table, name, &cfg, note, salt)
    };

    let plain_big = log(
        "1000n/1e5t neighbor",
        base(1000, 100_000, StrategyKind::NeighborInjection),
        "5.033 (2.4 below no strategy)",
        11,
    );
    log(
        "100n/1e4t neighbor",
        base(100, 10_000, StrategyKind::NeighborInjection),
        "3.006 (2 below no strategy)",
        12,
    );
    let smart_big = log(
        "1000n/1e5t smart neighbor",
        base(1000, 100_000, StrategyKind::SmartNeighbor),
        "probing improves factor by ≈1.2 on average",
        13,
    );
    let het = |strategy| SimConfig {
        heterogeneity: Heterogeneity::Heterogeneous,
        work_measurement: WorkMeasurement::StrengthPerTick,
        ..base(1000, 100_000, strategy)
    };
    let plain_het = log(
        "1000n/1e5t neighbor het + strength",
        het(StrategyKind::NeighborInjection),
        "(het side of the smart-vs-plain average)",
        16,
    );
    let smart_het = log(
        "1000n/1e5t smart het + strength",
        het(StrategyKind::SmartNeighbor),
        "(het side of the smart-vs-plain average)",
        17,
    );
    // The paper compares "each strategy's mean homogeneous and
    // heterogeneous runtimes".
    let improvement = (plain_big + plain_het) / 2.0 - (smart_big + smart_het) / 2.0;
    outln!("  smart improvement (homo+het mean) = {improvement:.3} (paper ≈ 1.2)");

    let s5 = plain_big;
    let s10 = log(
        "1000n/1e5t neighbor, 10 successors",
        SimConfig {
            num_successors: 10,
            ..base(1000, 100_000, StrategyKind::NeighborInjection)
        },
        "larger numSuccessors ⇒ ≈ −0.3",
        14,
    );
    outln!(
        "  successors 10 improvement = {:.3} (paper ≈ 0.3)",
        s5 - s10
    );

    write_table(&args.out, "text_ni", &table);
}

/// §VI-D scalar claims for invitation.
pub fn text_inv(args: &Args) {
    outln!("text_inv: §VI-D invitation claims");
    let mut table = Table::new(vec!["configuration", "mean factor", "σ", "paper says"]);
    let mut log = |name: &str, cfg: SimConfig, note: &str, salt: u64| {
        claim(args, &mut table, name, &cfg, note, salt)
    };
    log(
        "100n/1e5t invitation",
        base(100, 100_000, StrategyKind::Invitation),
        "3.749",
        21,
    );
    log(
        "1000n/1e5t invitation",
        base(1000, 100_000, StrategyKind::Invitation),
        "5.673",
        22,
    );
    log(
        "1000n/1e5t invitation het + strength work",
        SimConfig {
            heterogeneity: Heterogeneity::Heterogeneous,
            work_measurement: WorkMeasurement::StrengthPerTick,
            ..base(1000, 100_000, StrategyKind::Invitation)
        },
        "6.097 (het + strength consumption fares much worse)",
        23,
    );
    write_table(&args.out, "text_inv", &table);
}

/// §V-C's "average work per tick" output: the work-completion time
/// series of every strategy on the same placement, as CSV and an SVG
/// line chart. Includes the centralized-oracle comparator to show the
/// price of decentralization.
pub fn worktick(args: &Args) {
    use autobal_core::Sim;
    outln!("worktick: work completed per tick, all strategies (1000n/1e5t)");
    let strategies = [
        StrategyKind::None,
        StrategyKind::Churn,
        StrategyKind::RandomInjection,
        StrategyKind::NeighborInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
        StrategyKind::CentralizedOracle,
    ];
    let mut chart = autobal_viz::LineChart::new(
        "Work completed per tick — 1000 nodes / 100k tasks, same placement",
    );
    chart.y_label = "tasks/tick".into();
    let mut series_f64: Vec<(String, Vec<f64>)> = Vec::new();
    for strat in strategies {
        let cfg = SimConfig {
            strategy: strat,
            churn_rate: if strat == StrategyKind::Churn {
                0.01
            } else {
                0.0
            },
            ..base(1000, 100_000, strat).clone()
        };
        let res = Sim::new(cfg, args.seed).run();
        let ys: Vec<f64> = res.work_per_tick.iter().map(|&w| w as f64).collect();
        outln!(
            "  {:<11} mean {:>6.1} tasks/tick over {} ticks",
            strat.label(),
            res.mean_work_per_tick(),
            res.ticks
        );
        chart.push_series(strat.label(), ys.clone());
        series_f64.push((strat.label().to_string(), ys));
    }
    let max_len = series_f64.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let xs: Vec<f64> = (0..max_len).map(|t| t as f64).collect();
    let refs: Vec<(&str, &[f64])> = series_f64
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    write_out(
        &args.out,
        "worktick.csv",
        &autobal_viz::csv::xy_series_csv("tick", &xs, &refs),
    );
    write_out(&args.out, "worktick.svg", &chart.to_svg());
}

/// Per-tick time series of balance quality and network shape under each
/// strategy (§V-C "detailed observations of how the workload is
/// distributed and redistributed throughout the network").
pub fn timeseries(args: &Args) {
    use autobal_core::Sim;
    outln!("timeseries: gini / ring size / idle workers over time (1000n/1e5t)");
    let strategies = [
        StrategyKind::None,
        StrategyKind::Churn,
        StrategyKind::RandomInjection,
        StrategyKind::Invitation,
    ];
    let mut gini_chart =
        autobal_viz::LineChart::new("Gini coefficient of workload over time (same placement)");
    gini_chart.y_label = "gini".into();
    let mut vnode_chart =
        autobal_viz::LineChart::new("Virtual nodes in the ring over time (same placement)");
    vnode_chart.y_label = "vnodes".into();
    let mut csv = String::from("strategy,tick,gini,vnodes,active,idle,remaining\n");
    for strat in strategies {
        let mut cfg = SimConfig {
            strategy: strat,
            churn_rate: if strat == StrategyKind::Churn {
                0.01
            } else {
                0.0
            },
            record_metrics: true,
            metrics_interval: Some(5),
            ..base(1000, 100_000, strat)
        };
        args.instrument(&mut cfg);
        let ideal = cfg.ideal_ticks();
        let res = Sim::new(cfg, args.seed).run();
        args.write_trace(
            &format!("timeseries_{}", strat.label()),
            res.trace.records(),
        );
        let gini = gini_series(&res.metrics);
        let vnodes = gauge_series(&res.metrics, names::VNODES);
        let active = gauge_series(&res.metrics, names::WORKERS_ACTIVE);
        let idle = gauge_series(&res.metrics, names::WORKERS_IDLE);
        let remaining = gauge_series(&res.metrics, names::TASKS_REMAINING);
        for (i, m) in res.metrics.iter().enumerate() {
            csv.push_str(&format!(
                "{},{},{:.4},{},{},{},{}\n",
                strat.label(),
                m.time,
                gini[i],
                vnodes[i],
                active[i],
                idle[i],
                remaining[i]
            ));
        }
        // Near completion a handful of stragglers hold every remaining
        // task, so late samples read ≈1 whatever the strategy. The last
        // sample at or before the ideal runtime shows how balanced each
        // strategy kept the network while it was still working.
        let ideal_gini = res
            .metrics
            .iter()
            .zip(&gini)
            .rev()
            .find(|(m, _)| m.time <= ideal)
            .map_or(0.0, |(_, &g)| g);
        outln!(
            "  {:<11} samples {:>4}, gini at ideal tick {ideal} {:.3}, peak vnodes {}",
            strat.label(),
            res.metrics.len(),
            ideal_gini,
            res.peak_vnodes
        );
        gini_chart.push_series(strat.label(), gini);
        vnode_chart.push_series(strat.label(), vnodes.iter().map(|&v| v as f64).collect());
    }
    write_out(&args.out, "timeseries.csv", &csv);
    write_out(&args.out, "timeseries_gini.svg", &gini_chart.to_svg());
    write_out(&args.out, "timeseries_vnodes.svg", &vnode_chart.to_svg());
}

/// §VII future-work extensions implemented in this reproduction:
/// strength-aware invitation and chosen-ID (task-median) placement.
pub fn extensions(args: &Args) {
    outln!("extensions: §VII future-work features");
    let mut table = Table::new(vec!["configuration", "mean factor", "σ", "expectation"]);
    let mut log = |name: &str, cfg: SimConfig, note: &str, salt: u64| {
        claim(args, &mut table, name, &cfg, note, salt)
    };
    let het_inv = SimConfig {
        heterogeneity: Heterogeneity::Heterogeneous,
        work_measurement: WorkMeasurement::StrengthPerTick,
        ..base(1000, 100_000, StrategyKind::Invitation)
    };
    let vanilla = log(
        "invitation het + strength (paper strategy)",
        het_inv.clone(),
        "published baseline, paper reports 6.097",
        41,
    );
    let aware = log(
        "invitation het + strength, strength-aware helpers",
        SimConfig {
            strength_aware_invitation: true,
            ..het_inv
        },
        "§VII: 'consider the node strength as a factor'",
        41,
    );
    outln!("  strength-aware improvement = {:.3}", vanilla - aware);

    let inv = base(1000, 100_000, StrategyKind::Invitation);
    let v2 = log(
        "invitation midpoint placement",
        inv.clone(),
        "published baseline",
        42,
    );
    let c2 = log(
        "invitation chosen-ID (task-median) placement",
        SimConfig {
            chosen_ids: true,
            ..inv
        },
        "§VII: drop the 'cannot choose own ID' assumption",
        42,
    );
    outln!("  chosen-ID improvement (invitation) = {:.3}", v2 - c2);

    let smart = base(1000, 100_000, StrategyKind::SmartNeighbor);
    let v3 = log(
        "smart neighbor midpoint placement",
        smart.clone(),
        "published baseline",
        43,
    );
    let c3 = log(
        "smart neighbor chosen-ID placement",
        SimConfig {
            chosen_ids: true,
            ..smart
        },
        "guaranteed half-split of the probed victim",
        43,
    );
    outln!("  chosen-ID improvement (smart) = {:.3}", v3 - c3);
    write_table(&args.out, "extensions", &table);
}

/// Message-count comparison: the bandwidth ordering the paper argues.
pub fn messages(args: &Args) {
    outln!("messages: strategy bandwidth comparison (1000n / 1e5t)");
    let mut table = Table::new(vec![
        "strategy",
        "sybils created",
        "load queries",
        "invitations",
        "strategy messages",
        "factor",
    ]);
    for strat in [
        StrategyKind::Churn,
        StrategyKind::RandomInjection,
        StrategyKind::NeighborInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
    ] {
        let cfg = SimConfig {
            churn_rate: if strat == StrategyKind::Churn {
                0.01
            } else {
                0.0
            },
            ..base(1000, 100_000, strat)
        };
        let s = args.run_cell(&cfg, args.seed ^ 31);
        let m = &s.messages;
        let per_trial = |v: u64| v / args.trials.max(1);
        outln!(
            "  {:<11} sybils {:>7} queries {:>8} invites {:>7} total {:>8} factor {:.3}",
            strat.label(),
            per_trial(m.sybils_created),
            per_trial(m.load_queries),
            per_trial(m.invitations_sent),
            per_trial(m.strategy_messages()),
            s.mean_runtime_factor
        );
        table.push_row(vec![
            strat.label().to_string(),
            per_trial(m.sybils_created).to_string(),
            per_trial(m.load_queries).to_string(),
            per_trial(m.invitations_sent).to_string(),
            per_trial(m.strategy_messages()).to_string(),
            f3(s.mean_runtime_factor),
        ]);
    }
    write_table(&args.out, "messages", &table);
}
