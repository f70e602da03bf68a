//! The four workloads, their stated sizes, and the inputs each trial
//! generates from the seed.
//!
//! Every knob not named here stays at `SimConfig::default()`,
//! `ProtocolSimConfig::default()` or `EventSimConfig::default()` — what
//! `repro` runs, which is the classic one-shard engine. Nothing here
//! sets `shards`, so no rayon pool ever starts.

use autobal::event_sim::EventSimConfig;
use autobal::protocol_sim::ProtocolSimConfig;
use autobal::sim::{SimConfig, StrategyKind};
use autobal::workload::WorkloadCache;
use autobal::Id;

/// Which simulator a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// `autobal::sim::Sim`, the oracle ring.
    Oracle,
    /// `run_protocol_sim_with_placement`, the synchronous Chord network.
    Protocol,
    /// `run_event_sim_with_placement`, the event-time Chord wire.
    Event,
}

impl Substrate {
    pub fn label(self) -> &'static str {
        match self {
            Substrate::Oracle => "oracle",
            Substrate::Protocol => "protocol",
            Substrate::Event => "event",
        }
    }
}

/// One benchmark workload: a substrate, a strategy, and a size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub substrate: Substrate,
    pub strategy: StrategyKind,
    pub workers: usize,
    pub tasks: u64,
    pub churn_rate: f64,
    /// Independent placements per untraced run. Each run reports the
    /// median over this fixed set, so its figures depend on the seed
    /// far less than one placement's would.
    pub trials: u64,
    /// Why the workload exists and the layers it is the mechanism case
    /// for; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
    /// Workloads that bypass those layers: a change to them is
    /// predicted to leave these workloads' end-to-end metrics unchanged.
    pub bypass: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "drain",
        substrate: Substrate::Oracle,
        strategy: StrategyKind::None,
        workers: 10_000,
        tasks: 1_000_000,
        churn_rate: 0.0,
        trials: 48,
        why: "Oracle ring, no strategy: only the ring engine and the work phase run. \
              Mechanism for ring and work-phase changes; predicted no change on event_wire, \
              protocol_sync",
        bypass: &["event_wire", "protocol_sync"],
    },
    Workload {
        name: "sybil",
        substrate: Substrate::Oracle,
        strategy: StrategyKind::RandomInjection,
        workers: 20_000,
        tasks: 2_000_000,
        churn_rate: 0.001,
        trials: 10,
        why: "Paper's headline strategy at scale: Sybil inserts/removes split and merge \
              task sets while pops read them. Mechanism for strategy and churn changes; \
              predicted no change on drain",
        bypass: &["drain"],
    },
    Workload {
        name: "event_wire",
        substrate: Substrate::Event,
        strategy: StrategyKind::SmartNeighbor,
        workers: 16,
        tasks: 1_600,
        churn_rate: 0.01,
        trials: 40,
        why: "Only workload whose hot path is the eventnet queue: lookups, timeouts, tick \
              stretch. Mechanism for event-wire changes; predicted no change on drain, \
              sybil, protocol_sync",
        bypass: &["drain", "sybil", "protocol_sync"],
    },
    Workload {
        name: "protocol_sync",
        substrate: Substrate::Protocol,
        strategy: StrategyKind::Invitation,
        workers: 128,
        tasks: 12_800,
        churn_rate: 0.01,
        trials: 28,
        why: "Only workload whose hot path is protocol_sim and the sync maintenance \
              cycle; reactive strategy. Mechanism for sync Chord changes; predicted no \
              change on drain, sybil",
        bypass: &["drain", "sybil"],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at a size that runs in well under a second:
    /// the smoke-test shape. Keeps `tasks / workers` at 100 like every
    /// stated size.
    pub fn tiny(self) -> Workload {
        let workers = match self.substrate {
            Substrate::Oracle => 200,
            Substrate::Protocol | Substrate::Event => 16,
        };
        Workload {
            workers,
            tasks: workers as u64 * 100,
            trials: 2,
            ..self
        }
    }

    /// The oracle-ring configuration. For the Chord workloads this is
    /// their oracle twin: same strategy, churn and size.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            nodes: self.workers,
            tasks: self.tasks,
            strategy: self.strategy,
            churn_rate: self.churn_rate,
            ..SimConfig::default()
        }
    }

    pub fn protocol_config(&self) -> ProtocolSimConfig {
        ProtocolSimConfig {
            nodes: self.workers,
            tasks: self.tasks,
            strategy: self.strategy,
            churn_rate: self.churn_rate,
            ..ProtocolSimConfig::default()
        }
    }

    pub fn event_config(&self) -> EventSimConfig {
        EventSimConfig {
            proto: self.protocol_config(),
            ..EventSimConfig::default()
        }
    }

    /// Ideal runtime in ticks, as every substrate computes it.
    pub fn ideal_ticks(&self) -> u64 {
        self.tasks.div_ceil(self.workers as u64).max(1)
    }
}

/// The seed of trial `trial` within a run at `seed` — the same
/// derivation the library's multi-trial runner uses.
pub fn trial_seed(seed: u64, trial: u64) -> u64 {
    seed ^ (trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// One trial's generated inputs: distinct node ids and task keys.
pub struct Inputs {
    pub node_ids: Vec<Id>,
    pub task_keys: Vec<Id>,
}

/// Generates a trial's placement through a fresh `WorkloadCache`, so
/// every call pays for generation (a shared cache would hand back the
/// previous copy).
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let cache = WorkloadCache::new();
    let node_ids = cache.random_node_ids(seed, 0, w.workers).to_vec();
    let task_keys = cache.random_task_keys(seed, 0, w.tasks as usize).to_vec();
    Inputs {
        node_ids,
        task_keys,
    }
}
