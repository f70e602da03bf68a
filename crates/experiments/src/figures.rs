//! Figure drivers: the workload-distribution histograms (Figures 1 and
//! 4–14) and the ring visualizations (Figures 2–3).

use crate::common::{aligned_histograms, run_with_snapshots, write_out, Args};
use autobal_core::{Heterogeneity, SimConfig, StrategyKind};
use autobal_stats::rng::{domains, substream};
use autobal_stats::LogHistogram;
use autobal_viz::csv::histogram_series_csv;
use autobal_viz::{render_histogram, BarChart, RingScatter};
use autobal_workload::gen;

/// Figure 1: probability distribution of workload, 1000 nodes and one
/// million tasks, log-binned.
pub fn fig1(args: &Args) {
    println!("fig1: workload probability distribution (1000n / 1e6t)");
    let mut all_loads = Vec::new();
    for t in 0..args.trials.min(10) {
        all_loads.extend(autobal_workload::placement::initial_loads(
            1000, 1_000_000, args.seed, t,
        ));
    }
    let hist = LogHistogram::build(&all_loads);
    let rows = hist.rows();
    let mut sorted = all_loads.clone();
    sorted.sort_unstable();
    let median = autobal_stats::summary::percentile_sorted(&sorted, 50.0);
    println!(
        "  median {median:.1} (paper's dashed line ≈ 692); max {}",
        sorted.last().unwrap()
    );
    let csv = histogram_series_csv(&[("nodes", &rows)]);
    write_out(&args.out, "fig1.csv", &csv);
    let chart = BarChart::from_histogram_rows(
        format!("Fig 1 — workload distribution, 1000 nodes / 1e6 tasks (median {median:.0})"),
        &[("nodes", rows.as_slice())],
    );
    write_out(&args.out, "fig1.svg", &chart.to_svg());
    println!("{}", render_histogram("fig1 (log2 bins)", &rows, 48));
}

/// Figures 2 and 3: ring scatter of 10 nodes / 100 tasks, SHA-1 placed
/// versus evenly spaced.
pub fn fig2_3(args: &Args) {
    println!("fig2/fig3: ring visualizations (10 nodes, 100 tasks)");
    let mut prng = substream(args.seed, 0, domains::PLACEMENT);
    let mut trng = substream(args.seed, 0, domains::TASKS);
    let nodes = gen::sha1_ids(10, &mut prng);
    let tasks = gen::sha1_keys(100, &mut trng);

    let fig2 = RingScatter::new(
        "Fig 2 — SHA-1 placed nodes (red) and tasks (blue)",
        nodes.clone(),
        tasks.clone(),
    );
    write_out(&args.out, "fig2.svg", &fig2.to_svg());

    let even = gen::evenly_spaced_ids(10);
    let fig3 = RingScatter::new(
        "Fig 3 — evenly spaced nodes (red), SHA-1 tasks (blue)",
        even.clone(),
        tasks.clone(),
    );
    write_out(&args.out, "fig3.svg", &fig3.to_svg());

    // Coordinates CSV for both figures.
    let mut csv = String::from("figure,kind,id_hex,x,y\n");
    for (fig, ns) in [("fig2", &nodes), ("fig3", &even)] {
        for &n in ns.iter() {
            let p = autobal_id::embed::ring_xy(n);
            csv.push_str(&format!(
                "{fig},node,{},{:.6},{:.6}\n",
                n.to_hex(),
                p.x,
                p.y
            ));
        }
        for &t in &tasks {
            let p = autobal_id::embed::ring_xy(t);
            csv.push_str(&format!(
                "{fig},task,{},{:.6},{:.6}\n",
                t.to_hex(),
                p.x,
                p.y
            ));
        }
    }
    write_out(&args.out, "fig2_3_coords.csv", &csv);

    // Quantify the point of the figures: even spacing balances node
    // arcs but tasks still cluster.
    let sha1_loads = autobal_workload::placement::loads_for_placement(&nodes, tasks.clone());
    let even_loads = autobal_workload::placement::loads_for_placement(&even, tasks);
    println!(
        "  SHA-1 node Gini {:.3} vs evenly-spaced Gini {:.3}",
        autobal_stats::gini(&sha1_loads),
        autobal_stats::gini(&even_loads)
    );
}

/// One two-network comparison figure: runs both configs on the same
/// placement seed, snapshots at the given ticks, and writes a CSV + SVG
/// per tick.
#[allow(clippy::too_many_arguments)]
fn comparison_figure(
    args: &Args,
    stem: &str,
    title: &str,
    label_a: &str,
    cfg_a: SimConfig,
    label_b: &str,
    cfg_b: SimConfig,
    ticks: &[u64],
) {
    let snap_ticks: Vec<u64> = ticks.to_vec();
    let res_a = run_with_snapshots(args, &format!("{stem}_{label_a}"), cfg_a, &snap_ticks);
    let res_b = run_with_snapshots(args, &format!("{stem}_{label_b}"), cfg_b, &snap_ticks);
    for &t in ticks {
        let (Some(sa), Some(sb)) = (res_a.snapshot_at(t), res_b.snapshot_at(t)) else {
            // A run can finish before a late snapshot tick; skip.
            println!("  (no snapshot at tick {t}: one network already finished)");
            continue;
        };
        let hists = aligned_histograms(&[&sa.loads, &sb.loads]);
        let csv = histogram_series_csv(&[(label_a, &hists[0]), (label_b, &hists[1])]);
        let name = format!("{stem}_t{t}");
        write_out(&args.out, &format!("{name}.csv"), &csv);
        let chart = BarChart::from_histogram_rows(
            format!("{title} — tick {t}"),
            &[
                (label_a, hists[0].as_slice()),
                (label_b, hists[1].as_slice()),
            ],
        );
        write_out(&args.out, &format!("{name}.svg"), &chart.to_svg());
        println!(
            "  tick {t}: idle {} ({label_a}) vs {} ({label_b}); max {} vs {}",
            sa.idle,
            sb.idle,
            sa.loads.iter().max().unwrap_or(&0),
            sb.loads.iter().max().unwrap_or(&0)
        );
    }
    println!(
        "  factors: {label_a} {:.3} vs {label_b} {:.3}",
        res_a.runtime_factor, res_b.runtime_factor
    );
}

fn base_1000() -> SimConfig {
    SimConfig {
        nodes: 1000,
        tasks: 100_000,
        ..SimConfig::default()
    }
}

/// Figures 4–6: no-strategy vs churn 0.01 at ticks 0, 5, 35.
pub fn fig4_6(args: &Args) {
    println!("fig4-6: churn 0.01 vs none (1000n / 1e5t) at ticks 0, 5, 35");
    comparison_figure(
        args,
        "fig4_6",
        "Fig 4–6 — no strategy vs churn 0.01",
        "none",
        base_1000(),
        "churn_0.01",
        SimConfig {
            strategy: StrategyKind::Churn,
            churn_rate: 0.01,
            ..base_1000()
        },
        &[0, 5, 35],
    );
}

/// Figures 7–8: no-strategy vs random injection at ticks 5 and 35;
/// Figure 9: churn vs random injection at tick 35.
pub fn fig7_9(args: &Args) {
    println!("fig7-9: random injection vs none / churn (1000n / 1e5t)");
    comparison_figure(
        args,
        "fig7_8",
        "Fig 7–8 — no strategy vs random injection",
        "none",
        base_1000(),
        "random",
        SimConfig {
            strategy: StrategyKind::RandomInjection,
            ..base_1000()
        },
        &[5, 35],
    );
    comparison_figure(
        args,
        "fig9",
        "Fig 9 — churn 0.01 vs random injection",
        "churn_0.01",
        SimConfig {
            strategy: StrategyKind::Churn,
            churn_rate: 0.01,
            ..base_1000()
        },
        "random",
        SimConfig {
            strategy: StrategyKind::RandomInjection,
            ..base_1000()
        },
        &[35],
    );
}

/// Figure 10: heterogeneous networks, random injection vs none, tick 35.
///
/// Heterogeneity only influences behavior through strength: under the
/// default one-task-per-tick work measurement a threshold-0 node never
/// holds more than one Sybil, so the budget cap cannot bind and the run
/// is identical to the homogeneous one. The paper's heterogeneous
/// observations (§VI-B) are therefore reproduced under strength-based
/// consumption.
pub fn fig10(args: &Args) {
    println!("fig10: heterogeneous random injection vs none (tick 35)");
    let het = SimConfig {
        heterogeneity: Heterogeneity::Heterogeneous,
        work_measurement: autobal_core::WorkMeasurement::StrengthPerTick,
        ..base_1000()
    };
    comparison_figure(
        args,
        "fig10",
        "Fig 10 — heterogeneous: no strategy vs random injection",
        "none_het",
        het.clone(),
        "random_het",
        SimConfig {
            strategy: StrategyKind::RandomInjection,
            ..het
        },
        &[35],
    );
}

/// Figure 11: neighbor injection vs none; Figure 12: smart neighbor vs
/// none (tick 35).
pub fn fig11_12(args: &Args) {
    println!("fig11/fig12: neighbor and smart neighbor vs none (tick 35)");
    comparison_figure(
        args,
        "fig11",
        "Fig 11 — no strategy vs neighbor injection",
        "none",
        base_1000(),
        "neighbor",
        SimConfig {
            strategy: StrategyKind::NeighborInjection,
            ..base_1000()
        },
        &[35],
    );
    comparison_figure(
        args,
        "fig12",
        "Fig 12 — no strategy vs smart neighbor injection",
        "none",
        base_1000(),
        "smart",
        SimConfig {
            strategy: StrategyKind::SmartNeighbor,
            ..base_1000()
        },
        &[35],
    );
}

/// Figure 13: invitation vs none; Figure 14: invitation vs smart
/// neighbor (tick 35).
pub fn fig13_14(args: &Args) {
    println!("fig13/fig14: invitation vs none / smart neighbor (tick 35)");
    comparison_figure(
        args,
        "fig13",
        "Fig 13 — no strategy vs invitation",
        "none",
        base_1000(),
        "invitation",
        SimConfig {
            strategy: StrategyKind::Invitation,
            ..base_1000()
        },
        &[35],
    );
    comparison_figure(
        args,
        "fig14",
        "Fig 14 — smart neighbor vs invitation",
        "smart",
        SimConfig {
            strategy: StrategyKind::SmartNeighbor,
            ..base_1000()
        },
        "invitation",
        SimConfig {
            strategy: StrategyKind::Invitation,
            ..base_1000()
        },
        &[35],
    );
}
