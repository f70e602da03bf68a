//! `repro byzantine` — load balancing under Byzantine load reporters.
//!
//! The paper's strategies steer entirely by *reported* loads, so the
//! obvious attack is not crashing nodes but lying to them. This driver
//! marks a seeded fraction of workers Byzantine ([`AdversaryPlan`]),
//! sweeps lying policy × Byzantine fraction × cross-checking probe
//! budget `k` on **both** real substrates (synchronous protocol shim
//! and asynchronous event wire), and scores, per cell:
//!
//! * final Gini over per-worker tasks consumed and the runtime factor,
//!   each also as a ratio against the honest run (the degradation),
//! * the `load_query` bill — cross-checking is not free; every
//!   redundant probe is a real billed message — plus the `lied`
//!   meta-counter and the number of reporters quarantined.
//!
//! The headline claims this table backs: at 25% liars the smart
//! neighbor strategy degrades measurably without defense (`k = 0`), and
//! cross-checking (`k = 2`) recovers most of the honest ordering at the
//! price of an explicit probe bill. The invitation strategy is printed
//! as a control: it steers by announcements, never by load probes, so
//! the `lied` counter stays at zero by construction.

use crate::common::{write_table, Args};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal_chord::{AdversaryPlan, LiePolicy};
use autobal_core::strategy::crosscheck::CrossCheckConfig;
use autobal_core::trace::{event_log, SimEvent};
use autobal_core::StrategyKind;
use autobal_stats::fairness::gini;
use autobal_telemetry::outln;
use autobal_workload::tables::{f3, Table};
use rayon::prelude::*;

const NODES: usize = 32;
const TASKS: u64 = 1_600;

const FRACTIONS: [f64; 2] = [0.125, 0.25];
const POLICIES: [(LiePolicy, &str); 4] = [
    (LiePolicy::UnderReport, "under"),
    (LiePolicy::OverReport, "over"),
    (LiePolicy::RandomNoise, "noise"),
    (LiePolicy::FlipFlop, "flipflop"),
];
const BUDGETS: [usize; 2] = [0, 2];

#[derive(Debug, Clone, Copy, PartialEq)]
enum SubstrateKind {
    Protocol,
    Event,
}

impl SubstrateKind {
    fn label(self) -> &'static str {
        match self {
            SubstrateKind::Protocol => "protocol",
            SubstrateKind::Event => "event",
        }
    }
}

/// One cell of the sweep. `policy` is `None` for the honest baseline.
#[derive(Debug, Clone, Copy)]
struct Spec {
    substrate: SubstrateKind,
    policy: Option<(LiePolicy, &'static str)>,
    fraction: f64,
    k: usize,
}

/// What one run contributes to a cell mean.
struct Obs {
    gini: f64,
    factor: f64,
    bill: u64,
    lied: u64,
    quarantined: u64,
    completed: bool,
}

struct Cell {
    spec: Spec,
    gini: f64,
    factor: f64,
    bill: u64,
    lied: u64,
    quarantined: u64,
    completed: u64,
}

fn count_quarantined(events: &[SimEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, SimEvent::Quarantined { .. }))
        .count() as u64
}

fn proto_cfg(spec: &Spec, fault_seed: u64) -> ProtocolSimConfig {
    let adversary = match spec.policy {
        Some((policy, _)) => AdversaryPlan::lying(fault_seed, spec.fraction, policy),
        None => AdversaryPlan::default(),
    };
    ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: StrategyKind::SmartNeighbor,
        record_trace: true,
        adversary,
        cross_check: CrossCheckConfig::with_budget(spec.k),
        ..ProtocolSimConfig::default()
    }
}

fn observe(spec: &Spec, cfg: &ProtocolSimConfig, seed: u64) -> Obs {
    match spec.substrate {
        SubstrateKind::Protocol => {
            let run = run_protocol_sim(cfg, seed);
            Obs {
                gini: gini(&run.tasks_done),
                factor: run.runtime_factor,
                bill: run.messages.load_query,
                lied: run.messages.lied,
                quarantined: count_quarantined(&event_log(&run.trace)),
                completed: run.completed,
            }
        }
        SubstrateKind::Event => {
            let run = run_event_sim(
                &EventSimConfig {
                    proto: cfg.clone(),
                    ..EventSimConfig::default()
                },
                seed,
            );
            Obs {
                gini: gini(&run.tasks_done),
                factor: run.runtime_factor,
                bill: run.wire.load_query,
                lied: run.wire.lied,
                quarantined: count_quarantined(&event_log(&run.trace)),
                completed: run.completed,
            }
        }
    }
}

fn run_cell(args: &Args, spec: Spec) -> Cell {
    let runs: Vec<Obs> = (0..args.trials)
        .map(|t| {
            let seed = args.seed.wrapping_add(t);
            observe(&spec, &proto_cfg(&spec, seed ^ 0xBAD), seed)
        })
        .collect();
    let n = runs.len() as f64;
    Cell {
        spec,
        gini: runs.iter().map(|r| r.gini).sum::<f64>() / n,
        factor: runs.iter().map(|r| r.factor).sum::<f64>() / n,
        bill: runs.iter().map(|r| r.bill).sum(),
        lied: runs.iter().map(|r| r.lied).sum(),
        quarantined: runs.iter().map(|r| r.quarantined).sum(),
        completed: runs.iter().filter(|r| r.completed).count() as u64,
    }
}

/// The Byzantine fraction × lying policy × probe budget sweep, on both
/// real substrates.
pub fn byzantine(args: &Args) {
    outln!("byzantine: lying-reporter sweep on both real substrates");
    let mut grid: Vec<Spec> = Vec::new();
    for substrate in [SubstrateKind::Protocol, SubstrateKind::Event] {
        // The honest baseline every ratio in this substrate divides by.
        grid.push(Spec {
            substrate,
            policy: None,
            fraction: 0.0,
            k: 0,
        });
        for &policy in &POLICIES {
            for &fraction in &FRACTIONS {
                for &k in &BUDGETS {
                    grid.push(Spec {
                        substrate,
                        policy: Some(policy),
                        fraction,
                        k,
                    });
                }
            }
        }
    }

    let cells: Vec<Cell> = grid.into_par_iter().map(|s| run_cell(args, s)).collect();

    let mut table = Table::new(vec![
        "substrate",
        "policy",
        "byzantine",
        "k",
        "final gini",
        "× honest",
        "runtime factor",
        "× honest",
        "load queries",
        "lied",
        "quarantined",
        "completed",
    ]);
    for cell in &cells {
        let honest = cells
            .iter()
            .find(|c| c.spec.substrate == cell.spec.substrate && c.spec.policy.is_none())
            .expect("grid contains the honest cell");
        let gini_x = cell.gini / honest.gini.max(f64::EPSILON);
        let factor_x = cell.factor / honest.factor.max(f64::EPSILON);
        let policy = cell.spec.policy.map_or("honest", |(_, label)| label);
        outln!(
            "  {:<8} {:<8} byz {:>5.1}% k={} → gini {:.3} ({:.2}× honest), factor {:.2} ({:.2}×), lied {}, quarantined {}",
            cell.spec.substrate.label(),
            policy,
            cell.spec.fraction * 100.0,
            cell.spec.k,
            cell.gini,
            gini_x,
            cell.factor,
            factor_x,
            cell.lied,
            cell.quarantined,
        );
        table.push_row(vec![
            cell.spec.substrate.label().to_string(),
            policy.to_string(),
            format!("{:.3}", cell.spec.fraction),
            cell.spec.k.to_string(),
            f3(cell.gini),
            f3(gini_x),
            f3(cell.factor),
            f3(factor_x),
            cell.bill.to_string(),
            cell.lied.to_string(),
            cell.quarantined.to_string(),
            format!("{}/{}", cell.completed, args.trials),
        ]);
    }
    write_table(&args.out, "byzantine", &table);

    // Control: the invitation strategy never probes loads, so the
    // adversary has nothing to distort — its lied bill must be zero.
    let control = run_protocol_sim(
        &ProtocolSimConfig {
            strategy: StrategyKind::Invitation,
            ..proto_cfg(
                &Spec {
                    substrate: SubstrateKind::Protocol,
                    policy: Some((LiePolicy::OverReport, "over")),
                    fraction: 0.25,
                    k: 0,
                },
                args.seed ^ 0xBAD,
            )
        },
        args.seed,
    );
    assert_eq!(
        control.messages.lied, 0,
        "invitation steers by announcements, not probes"
    );
    outln!("  control: Invitation at 25% liars → lied 0 (immune by construction)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_args() -> Args {
        Args {
            targets: vec![],
            trials: 1,
            full: false,
            out: std::env::temp_dir().join("autobal-byzantine-test"),
            seed: 7,
            trace: None,
            baseline: None,
            cache: std::sync::Arc::new(autobal_workload::WorkloadCache::new()),
        }
    }

    #[test]
    fn grid_has_one_honest_cell_per_substrate() {
        // The ratio columns depend on it; mirror the grid construction.
        for substrate in [SubstrateKind::Protocol, SubstrateKind::Event] {
            let spec = Spec {
                substrate,
                policy: None,
                fraction: 0.0,
                k: 0,
            };
            let cfg = proto_cfg(&spec, 0xBAD);
            assert!(!cfg.adversary.is_active());
            assert!(!cfg.cross_check.is_active());
        }
    }

    #[test]
    fn defended_cell_runs_end_to_end() {
        let args = test_args();
        let cell = run_cell(
            &args,
            Spec {
                substrate: SubstrateKind::Protocol,
                policy: Some((LiePolicy::OverReport, "over")),
                fraction: 0.25,
                k: 2,
            },
        );
        assert_eq!(cell.completed, 1);
        assert!(cell.lied > 0, "liars answered some probe");
        assert!(cell.quarantined > 0, "cross-checking caught repeat liars");
    }
}
