//! Table I and Table II drivers.

use crate::common::{write_table, Args};
use autobal_core::{SimConfig, StrategyKind};
use autobal_stats::{spacings, summary::average_summaries};
use autobal_telemetry::outln;
use autobal_workload::initial_load_summary;
use autobal_workload::tables::{f3, Table};
use rayon::prelude::*;

/// Table I: median workload and σ of the initial distribution for nine
/// (nodes, tasks) combinations, averaged over trials, with the spacings
/// theory prediction alongside.
pub fn table1(args: &Args) {
    outln!("table1: initial workload distribution (paper Table I)");
    let combos: [(usize, usize); 9] = [
        (1000, 100_000),
        (1000, 500_000),
        (1000, 1_000_000),
        (5000, 100_000),
        (5000, 500_000),
        (5000, 1_000_000),
        (10_000, 100_000),
        (10_000, 500_000),
        (10_000, 1_000_000),
    ];
    let paper_median = [
        69.410, 346.570, 692.300, 13.810, 69.280, 138.360, 7.000, 34.550, 69.180,
    ];
    let paper_sigma = [
        137.27, 499.169, 996.982, 20.477, 100.344, 200.564, 10.492, 50.366, 100.319,
    ];

    let mut table = Table::new(vec![
        "Nodes",
        "Tasks",
        "Median (measured)",
        "Median (paper)",
        "Median (theory T/n·ln2)",
        "Sigma (measured)",
        "Sigma (paper)",
    ]);
    for (i, &(nodes, tasks)) in combos.iter().enumerate() {
        let summaries: Vec<_> = (0..args.trials)
            .into_par_iter()
            .map(|t| initial_load_summary(nodes, tasks, args.seed, t))
            .collect();
        let avg = average_summaries(&summaries).expect("trials > 0");
        let theory = spacings::expected_median_load(nodes as u64, tasks as u64);
        table.push_row(vec![
            nodes.to_string(),
            tasks.to_string(),
            f3(avg.median),
            f3(paper_median[i]),
            f3(theory),
            f3(avg.std_dev),
            f3(paper_sigma[i]),
        ]);
        outln!(
            "  {nodes} nodes / {tasks} tasks: median {:.3} (paper {:.3}), sigma {:.3} (paper {:.3})",
            avg.median, paper_median[i], avg.std_dev, paper_sigma[i]
        );
    }
    write_table(&args.out, "table1", &table);
}

/// Table II: runtime factor of the Churn strategy across churn rates and
/// network shapes.
pub fn table2(args: &Args) {
    outln!("table2: churn strategy runtime factors (paper Table II)");
    let configs: [(usize, u64); 5] = [
        (1000, 100_000),
        (1000, 1_000_000),
        (100, 10_000),
        (100, 100_000),
        (100, 1_000_000),
    ];
    let rates = [0.0, 0.0001, 0.001, 0.01];
    // Paper Table II, rows by rate then columns by config.
    let paper: [[f64; 5]; 4] = [
        [7.476, 7.467, 5.043, 5.022, 5.016],
        [7.122, 5.732, 4.934, 4.362, 3.077],
        [6.047, 3.674, 4.391, 3.019, 1.863],
        [3.721, 2.104, 3.076, 1.873, 1.309],
    ];

    let mut table = Table::new(vec![
        "Churn Rate",
        "1000n/1e5t",
        "paper",
        "1000n/1e6t",
        "paper",
        "100n/1e4t",
        "paper",
        "100n/1e5t",
        "paper",
        "100n/1e6t",
        "paper",
    ]);
    for (ri, &rate) in rates.iter().enumerate() {
        let mut row = vec![format!("{rate}")];
        for (ci, &(nodes, tasks)) in configs.iter().enumerate() {
            let cfg = SimConfig {
                nodes,
                tasks,
                strategy: StrategyKind::Churn,
                churn_rate: rate,
                ..SimConfig::default()
            };
            let s = args.run_cell(&cfg, args.seed ^ (ri as u64) << 8 ^ ci as u64);
            row.push(f3(s.mean_runtime_factor));
            row.push(f3(paper[ri][ci]));
            outln!(
                "  rate {rate} {nodes}n/{tasks}t: {:.3} (paper {:.3})",
                s.mean_runtime_factor,
                paper[ri][ci]
            );
        }
        table.push_row(row);
    }
    write_table(&args.out, "table2", &table);
}
