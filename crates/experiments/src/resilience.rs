//! `repro resilience` — strategy resilience under network adversity.
//!
//! The paper's experiments assume a benign network; the fault plane
//! lets us ask how much of each strategy's speedup survives hostile
//! conditions. This driver sweeps message-loss rate × crash-failure
//! rate on the **protocol substrate** (real joins, real maintenance,
//! real retries) and reports, per strategy:
//!
//! * the runtime factor and its degradation versus the fault-free run,
//! * tasks permanently lost (zero whenever replication covers crashes),
//! * the retry/timeout/drop bill the fault plane extracted.
//!
//! The headline claims this table backs: with the default replication
//! factor, **no tasks are lost** at ≤ 10% loss + 5% crashes, and every
//! strategy finishes within ~2× of its fault-free runtime at 10% loss.

use crate::common::{write_table, Args};
use autobal::protocol_sim::{run_protocol_sim, ProtocolRun, ProtocolSimConfig};
use autobal_chord::{FaultPlan, Partition};
use autobal_core::StrategyKind;
use autobal_telemetry::outln;
use autobal_workload::tables::{f3, Table};
use rayon::prelude::*;

const NODES: usize = 48;
const TASKS: u64 = 2_400;

const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::None,
    StrategyKind::RandomInjection,
    StrategyKind::NeighborInjection,
    StrategyKind::SmartNeighbor,
    StrategyKind::Invitation,
];
const LOSS_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
const CRASH_RATES: [f64; 2] = [0.0, 0.05];

fn cell_cfg(kind: StrategyKind, loss: f64, crash: f64, fault_seed: u64) -> ProtocolSimConfig {
    ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: kind,
        fault: FaultPlan::lossy(fault_seed, loss),
        crash_rate: crash,
        ..ProtocolSimConfig::default()
    }
}

struct Cell {
    kind: StrategyKind,
    loss: f64,
    crash: f64,
    mean_factor: f64,
    completed: u64,
    tasks_lost: u64,
    workers_crashed: u64,
    retries: u64,
    timeouts: u64,
    dropped: u64,
}

fn run_cell(args: &Args, kind: StrategyKind, loss: f64, crash: f64) -> Cell {
    let runs: Vec<ProtocolRun> = (0..args.trials)
        .map(|t| {
            let seed = args.seed.wrapping_add(t);
            run_protocol_sim(&cell_cfg(kind, loss, crash, seed ^ 0xFA17), seed)
        })
        .collect();
    Cell {
        kind,
        loss,
        crash,
        mean_factor: runs.iter().map(|r| r.runtime_factor).sum::<f64>() / runs.len() as f64,
        completed: runs.iter().filter(|r| r.completed).count() as u64,
        tasks_lost: runs.iter().map(|r| r.tasks_lost).sum(),
        workers_crashed: runs.iter().map(|r| r.workers_crashed).sum(),
        retries: runs.iter().map(|r| r.messages.retries).sum(),
        timeouts: runs.iter().map(|r| r.messages.timeouts).sum(),
        dropped: runs.iter().map(|r| r.messages.dropped).sum(),
    }
}

/// The loss × crash sweep (headline resilience table).
pub fn resilience(args: &Args) {
    outln!("resilience: loss × crash sweep on the protocol substrate");
    let grid: Vec<(StrategyKind, f64, f64)> = STRATEGIES
        .iter()
        .flat_map(|&k| {
            LOSS_RATES
                .iter()
                .flat_map(move |&l| CRASH_RATES.iter().map(move |&c| (k, l, c)))
        })
        .collect();

    let cells: Vec<Cell> = grid
        .into_par_iter()
        .map(|(k, l, c)| run_cell(args, k, l, c))
        .collect();

    let mut table = Table::new(vec![
        "strategy",
        "loss",
        "crash",
        "runtime factor",
        "× fault-free",
        "completed",
        "tasks lost",
        "workers crashed",
        "retries",
        "timeouts",
        "dropped",
    ]);
    for cell in &cells {
        // Degradation is measured against the same strategy's clean run.
        let clean = cells
            .iter()
            .find(|c| c.kind == cell.kind && c.loss == 0.0 && c.crash == 0.0)
            .expect("grid contains the fault-free cell");
        let degradation = cell.mean_factor / clean.mean_factor.max(f64::EPSILON);
        outln!(
            "  {:<20} loss {:>4.0}% crash {:>2.0}% → factor {:.2} ({:.2}× clean), lost {}",
            format!("{:?}", cell.kind),
            cell.loss * 100.0,
            cell.crash * 100.0,
            cell.mean_factor,
            degradation,
            cell.tasks_lost,
        );
        table.push_row(vec![
            format!("{:?}", cell.kind),
            format!("{:.2}", cell.loss),
            format!("{:.2}", cell.crash),
            f3(cell.mean_factor),
            f3(degradation),
            format!("{}/{}", cell.completed, args.trials),
            cell.tasks_lost.to_string(),
            cell.workers_crashed.to_string(),
            cell.retries.to_string(),
            cell.timeouts.to_string(),
            cell.dropped.to_string(),
        ]);
    }
    write_table(&args.out, "resilience", &table);

    // The replication guarantee, stated loudly when it holds.
    let covered = cells
        .iter()
        .filter(|c| c.loss <= 0.10 && c.crash <= 0.05)
        .all(|c| c.tasks_lost == 0);
    outln!(
        "  replication guarantee (≤10% loss, ≤5% crash ⇒ 0 tasks lost): {}",
        if covered { "HOLDS" } else { "VIOLATED" }
    );

    partition_healing(args);
}

// ---------------------------------------------------------------------
// Partition healing: transient cuts and the cost of reconvergence.
// ---------------------------------------------------------------------

/// Window lengths (ticks the cut stays up) crossed with cut counts
/// (consecutive windows, each at a fresh seed-derived pivot).
const WINDOWS: [u64; 2] = [10, 30];
const CUTS: [usize; 2] = [1, 3];
/// Ticks before the first cut opens, and the gap between healed cuts.
const CUT_LEAD: u64 = 10;

/// `cuts` consecutive partition windows of `window` ticks each,
/// separated by `CUT_LEAD` healed ticks.
fn partition_plan(seed: u64, window: u64, cuts: usize) -> FaultPlan {
    let mut partitions = Vec::with_capacity(cuts);
    let mut start = CUT_LEAD;
    for _ in 0..cuts {
        partitions.push(Partition {
            start,
            end: start + window,
        });
        start += window + CUT_LEAD;
    }
    FaultPlan {
        seed,
        partitions,
        ..FaultPlan::default()
    }
}

struct HealCell {
    kind: StrategyKind,
    window: u64,
    cuts: usize,
    mean_factor: f64,
    /// Mean ticks from the final heal to run completion — how long the
    /// strategy needs to reconverge once traffic flows again.
    mean_reconverge: f64,
    completed: u64,
    tasks_lost: u64,
    dropped: u64,
    retries: u64,
    timeouts: u64,
}

fn run_heal_cell(args: &Args, kind: StrategyKind, window: u64, cuts: usize) -> HealCell {
    let last_heal = CUT_LEAD + (window + CUT_LEAD) * cuts.saturating_sub(1) as u64 + window;
    let runs: Vec<ProtocolRun> = (0..args.trials)
        .map(|t| {
            let seed = args.seed.wrapping_add(t);
            let cfg = ProtocolSimConfig {
                nodes: NODES,
                tasks: TASKS,
                strategy: kind,
                fault: partition_plan(seed ^ 0x9A27, window, cuts),
                ..ProtocolSimConfig::default()
            };
            run_protocol_sim(&cfg, seed)
        })
        .collect();
    HealCell {
        kind,
        window,
        cuts,
        mean_factor: runs.iter().map(|r| r.runtime_factor).sum::<f64>() / runs.len() as f64,
        mean_reconverge: runs
            .iter()
            .map(|r| r.ticks.saturating_sub(last_heal) as f64)
            .sum::<f64>()
            / runs.len() as f64,
        completed: runs.iter().filter(|r| r.completed).count() as u64,
        tasks_lost: runs.iter().map(|r| r.tasks_lost).sum(),
        dropped: runs.iter().map(|r| r.messages.dropped).sum(),
        retries: runs.iter().map(|r| r.messages.retries).sum(),
        timeouts: runs.iter().map(|r| r.messages.timeouts).sum(),
    }
}

/// The window-length × cut-count sweep: transient partitions heal on
/// their own, so the question is purely how much runtime each strategy
/// loses and how quickly it finishes once the last cut closes.
fn partition_healing(args: &Args) {
    outln!("resilience: partition-healing sweep (window × cuts)");
    let grid: Vec<(StrategyKind, u64, usize)> = STRATEGIES
        .iter()
        .flat_map(|&k| {
            std::iter::once((k, 0u64, 0usize)).chain(
                WINDOWS
                    .iter()
                    .flat_map(move |&w| CUTS.iter().map(move |&c| (k, w, c))),
            )
        })
        .collect();

    let cells: Vec<HealCell> = grid
        .into_par_iter()
        .map(|(k, w, c)| run_heal_cell(args, k, w, c))
        .collect();

    let mut table = Table::new(vec![
        "strategy",
        "window",
        "cuts",
        "runtime factor",
        "× uncut",
        "reconverge ticks",
        "completed",
        "tasks lost",
        "dropped",
        "retries",
        "timeouts",
    ]);
    for cell in &cells {
        let clean = cells
            .iter()
            .find(|c| c.kind == cell.kind && c.cuts == 0)
            .expect("grid contains the uncut cell");
        let degradation = cell.mean_factor / clean.mean_factor.max(f64::EPSILON);
        outln!(
            "  {:<20} window {:>2} × {} cuts → factor {:.2} ({:.2}× uncut), reconverge {:.0} ticks",
            format!("{:?}", cell.kind),
            cell.window,
            cell.cuts,
            cell.mean_factor,
            degradation,
            cell.mean_reconverge,
        );
        table.push_row(vec![
            format!("{:?}", cell.kind),
            cell.window.to_string(),
            cell.cuts.to_string(),
            f3(cell.mean_factor),
            f3(degradation),
            f3(cell.mean_reconverge),
            format!("{}/{}", cell.completed, args.trials),
            cell.tasks_lost.to_string(),
            cell.dropped.to_string(),
            cell.retries.to_string(),
            cell.timeouts.to_string(),
        ]);
    }
    write_table(&args.out, "partition_healing", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_is_in_every_strategys_grid() {
        for k in STRATEGIES {
            assert!(
                LOSS_RATES.contains(&0.0) && CRASH_RATES.contains(&0.0),
                "{k:?}"
            );
        }
    }

    #[test]
    fn one_cell_runs_end_to_end() {
        let args = Args {
            targets: vec![],
            trials: 1,
            full: false,
            out: std::env::temp_dir().join("autobal-resilience-test"),
            seed: 7,
            trace: None,
            baseline: None,
            cache: std::sync::Arc::new(autobal_workload::WorkloadCache::new()),
        };
        let cell = run_cell(&args, StrategyKind::RandomInjection, 0.05, 0.0);
        assert_eq!(cell.completed, 1);
        assert!(cell.dropped > 0, "5% loss must eat some messages");
        assert_eq!(cell.tasks_lost, 0, "no crashes ⇒ nothing lost");
    }

    #[test]
    fn partition_plan_lays_out_disjoint_windows() {
        let plan = partition_plan(3, 10, 3);
        assert_eq!(plan.partitions.len(), 3);
        for w in plan.partitions.windows(2) {
            assert!(w[0].end < w[1].start, "cuts heal before the next opens");
        }
        assert!(plan.validate().is_ok());
        assert!(plan.is_active());
        // cuts == 0 must be a genuinely inert plan (the uncut baseline).
        assert!(!partition_plan(3, 10, 0).is_active());
    }

    #[test]
    fn one_heal_cell_runs_end_to_end() {
        let args = Args {
            targets: vec![],
            trials: 1,
            full: false,
            out: std::env::temp_dir().join("autobal-resilience-test"),
            seed: 7,
            trace: None,
            baseline: None,
            cache: std::sync::Arc::new(autobal_workload::WorkloadCache::new()),
        };
        let cell = run_heal_cell(&args, StrategyKind::SmartNeighbor, 10, 2);
        assert_eq!(cell.completed, 1);
        assert_eq!(cell.tasks_lost, 0, "partitions drop messages, not keys");
        assert!(
            cell.dropped > 0 || cell.timeouts > 0,
            "the cut actually blocked traffic"
        );
    }
}
