//! Experiment configuration, mirroring §V-B "Experimental Variables".

use serde::{Deserialize, Serialize};

/// Which autonomous load-balancing strategy the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// No strategy and no churn — the paper's baseline comparison
    /// network.
    None,
    /// §IV-A *Induced Churn*: every tick each active node leaves with
    /// probability `churn_rate`, and each waiting node joins with the
    /// same probability.
    Churn,
    /// §IV-B *Random Injection*: nodes at or below `sybil_threshold`
    /// create one Sybil at a uniformly random address every
    /// `check_interval` ticks.
    RandomInjection,
    /// §IV-C *Neighbor Injection*: underloaded nodes place a Sybil in
    /// the widest gap among their successor list (a free estimate of the
    /// most-loaded neighbor).
    NeighborInjection,
    /// §VI-C *Smart Neighbor Injection*: like neighbor injection, but
    /// queries each successor's actual load (one message each) and
    /// splits the most-loaded successor's range.
    SmartNeighbor,
    /// §IV-D *Invitation*: overloaded nodes announce for help; their
    /// least-loaded eligible predecessor injects a Sybil into the
    /// inviter's range.
    Invitation,
    /// **Not a paper strategy** — an omniscient centralized coordinator
    /// that optimally pairs idle workers with the most-loaded virtual
    /// nodes each check tick. Serves as the best-case comparator the
    /// paper's §I/§II centralization discussion implies; the gap to
    /// `RandomInjection` is the measured price of decentralization.
    CentralizedOracle,
}

impl StrategyKind {
    /// All strategies, in the order the paper presents them.
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::None,
        StrategyKind::Churn,
        StrategyKind::RandomInjection,
        StrategyKind::NeighborInjection,
        StrategyKind::SmartNeighbor,
        StrategyKind::Invitation,
    ];

    /// A short lowercase label used in CSV output and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::None => "none",
            StrategyKind::Churn => "churn",
            StrategyKind::RandomInjection => "random",
            StrategyKind::NeighborInjection => "neighbor",
            StrategyKind::SmartNeighbor => "smart",
            StrategyKind::Invitation => "invitation",
            StrategyKind::CentralizedOracle => "oracle",
        }
    }
}

/// Node strength distribution (§V-B *Homogeneity*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heterogeneity {
    /// Every node has strength 1.
    Homogeneous,
    /// Strength drawn uniformly from `1..=max_sybils` per node.
    Heterogeneous,
}

/// How much work a node completes per tick (§V-B *Work Measurement*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkMeasurement {
    /// One task per tick regardless of strength (the default).
    OnePerTick,
    /// `strength` tasks per tick.
    StrengthPerTick,
}

/// How nodes enter and leave the network over time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ChurnModel {
    /// The paper's model: memoryless per-tick coin flips at `churn_rate`
    /// for both leaving and joining ("we assume churn is constant
    /// throughout the experiment and that the joining and leaving rates
    /// are equal", §V-B).
    #[default]
    Bernoulli,
    /// Session-based churn: geometric on/off session lengths with the
    /// given mean durations in ticks. Measured P2P session behavior is
    /// heavily asymmetric (long downtimes, shorter uptimes); this knob
    /// relaxes the paper's equal-rates assumption. The expected active
    /// fraction converges to `mean_uptime / (mean_uptime +
    /// mean_downtime)` of the total population.
    Sessions {
        /// Mean ticks a node stays in the network per session (>= 1).
        mean_uptime: f64,
        /// Mean ticks a node waits before rejoining (>= 1).
        mean_downtime: f64,
    },
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Initial network size (§V-B *Network Size*).
    pub nodes: usize,
    /// Job size in tasks (§V-B *Number of Tasks*).
    pub tasks: u64,
    /// The load-balancing strategy.
    pub strategy: StrategyKind,
    /// Per-tick leave/join probability (§V-B *Churn Rate*; default 0).
    /// Applies to the `Churn` strategy, and as optional background churn
    /// for Sybil strategies (the §VI-B-1 "churn has no positive impact"
    /// experiment).
    pub churn_rate: f64,
    /// Tasks at or below which a node may create a Sybil (§V-B *Sybil
    /// Threshold*; default 0 — "a node must finish all their tasks").
    pub sybil_threshold: u64,
    /// Maximum simultaneous Sybils per node in a homogeneous network; in
    /// a heterogeneous network the node's strength is the cap (§V-B
    /// *Max Sybils*; default 5, also tested at 10).
    pub max_sybils: u32,
    /// Successor-list (and predecessor-list) length (§V-B *Successors*;
    /// default 5, also tested at 10).
    pub num_successors: usize,
    /// Homogeneous vs heterogeneous strengths.
    pub heterogeneity: Heterogeneity,
    /// Tasks consumed per tick.
    pub work_measurement: WorkMeasurement,
    /// Sybil strategies check their workload every this many ticks
    /// (§IV-B: "This check occurs every 5 ticks").
    pub check_interval: u64,
    /// Invitation only: a node considers itself overburdened when its
    /// load exceeds `overload_factor × (tasks / nodes)`. Nodes know the
    /// job size (§V), so this is locally computable. See DESIGN.md.
    pub overload_factor: f64,
    /// Ticks at which to capture full workload snapshots (for the
    /// Figure 4–14 histograms). Tick 0 = initial distribution.
    pub snapshot_ticks: Vec<u64>,
    /// Safety valve: abort (with `completed = false`) after this many
    /// ticks. `None` picks `max(10_000, 100 × ideal)` automatically.
    pub max_ticks: Option<u64>,
    /// §VII future-work extension: invitation helpers are chosen by
    /// *strength* (strongest eligible predecessor) instead of least
    /// load, so work migrates toward capable machines. Default off —
    /// the paper's published strategy.
    #[serde(default)]
    pub strength_aware_invitation: bool,
    /// §VII future-work extension: drop the "nodes cannot choose their
    /// own ID" assumption. Sybils targeting a specific virtual node
    /// (neighbor/smart/invitation) are planted at the *task median* of
    /// the victim's arc — guaranteeing they acquire half its remaining
    /// work — instead of the ID-space midpoint. Default off.
    #[serde(default)]
    pub chosen_ids: bool,
    /// The churn process (extension; default = the paper's Bernoulli
    /// equal-rates model).
    #[serde(default)]
    pub churn_model: ChurnModel,
    /// Classic *static virtual servers* baseline (Stoica et al. §6.3 /
    /// Karger & Ruhl): every worker starts with this many ring
    /// positions instead of one. `log₂ n` virtual servers flatten the
    /// max arc to O(1/n) — the centralized-setup alternative the
    /// paper's autonomous strategies compete against. Default 1 (the
    /// paper's model).
    #[serde(default = "one")]
    pub virtual_nodes_per_worker: u32,
    /// Record a span-structured flight-recorder trace into
    /// `RunResult::trace` (off by default; see `autobal-telemetry`).
    /// Stamped with ticks, never wall-clock, so same-seed traces are
    /// byte-identical. Its `Decision` records are the event log
    /// ([`crate::trace::event_log`]).
    #[serde(default)]
    pub record_trace: bool,
    /// Record streaming metrics samples into `RunResult::metrics` (off
    /// by default; see `autobal-metrics`); they are the run's time
    /// series. Counters ride the same emit funnel as the trace plane;
    /// fairness gauges come from one sorted sweep over the loads per
    /// sample.
    #[serde(default)]
    pub record_metrics: bool,
    /// Metrics sampling cadence in ticks (used when `record_metrics`;
    /// `None` means every tick). Tick 0 and the final tick are always
    /// sampled.
    #[serde(default)]
    pub metrics_interval: Option<u64>,
    /// Include a per-worker ring snapshot in every metrics sample
    /// (monitor food; O(workers) per sample, so off by default).
    #[serde(default)]
    pub metrics_ring: bool,
}

fn one() -> u32 {
    1
}

impl Default for SimConfig {
    /// The paper's defaults (§V-B): homogeneous, one task per tick,
    /// churn 0, threshold 0, maxSybils 5, 5 successors, 5-tick checks.
    fn default() -> SimConfig {
        SimConfig {
            nodes: 1000,
            tasks: 100_000,
            strategy: StrategyKind::None,
            churn_rate: 0.0,
            sybil_threshold: 0,
            max_sybils: 5,
            num_successors: 5,
            heterogeneity: Heterogeneity::Homogeneous,
            work_measurement: WorkMeasurement::OnePerTick,
            check_interval: 5,
            overload_factor: 2.0,
            snapshot_ticks: Vec::new(),
            max_ticks: None,
            strength_aware_invitation: false,
            chosen_ids: false,
            churn_model: ChurnModel::Bernoulli,
            virtual_nodes_per_worker: 1,
            record_trace: false,
            record_metrics: false,
            metrics_interval: None,
            metrics_ring: false,
        }
    }
}

impl SimConfig {
    /// The ideal runtime in ticks: `ceil(tasks / Σ capacity)` where
    /// Σ capacity is the initial network's total per-tick throughput
    /// (§V-C). For heterogeneous strength-based consumption the expected
    /// capacity `n·(1+max)/2` is used.
    pub fn ideal_ticks(&self) -> u64 {
        let cap = self.expected_total_capacity().max(1.0);
        (self.tasks as f64 / cap).ceil() as u64
    }

    /// Expected total tasks the initial network consumes per tick.
    pub fn expected_total_capacity(&self) -> f64 {
        match self.work_measurement {
            WorkMeasurement::OnePerTick => self.nodes as f64,
            WorkMeasurement::StrengthPerTick => match self.heterogeneity {
                Heterogeneity::Homogeneous => self.nodes as f64,
                Heterogeneity::Heterogeneous => {
                    self.nodes as f64 * (1.0 + self.max_sybils as f64) / 2.0
                }
            },
        }
    }

    /// Whether any churn process is active (used to decide if a waiting
    /// pool must be provisioned).
    pub fn churn_enabled(&self) -> bool {
        self.churn_rate > 0.0 || matches!(self.churn_model, ChurnModel::Sessions { .. })
    }

    /// Per-tick leave probability under the configured churn model.
    pub fn leave_probability(&self) -> f64 {
        match self.churn_model {
            ChurnModel::Bernoulli => self.churn_rate,
            ChurnModel::Sessions { mean_uptime, .. } => 1.0 / mean_uptime.max(1.0),
        }
    }

    /// Per-tick join probability under the configured churn model.
    pub fn join_probability(&self) -> f64 {
        match self.churn_model {
            ChurnModel::Bernoulli => self.churn_rate,
            ChurnModel::Sessions { mean_downtime, .. } => 1.0 / mean_downtime.max(1.0),
        }
    }

    /// The invitation strategy's overload cutoff in tasks.
    pub fn overload_threshold(&self) -> u64 {
        (self.overload_factor * self.tasks as f64 / self.nodes.max(1) as f64).ceil() as u64
    }

    /// Effective tick cap for the run loop.
    pub fn effective_max_ticks(&self) -> u64 {
        self.max_ticks
            .unwrap_or_else(|| (self.ideal_ticks().saturating_mul(100)).max(10_000))
    }

    /// Validates the configuration, returning a human-readable complaint
    /// for nonsensical setups.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("network must start with at least one node".into());
        }
        if self.tasks > crate::ring::MAX_TASKS {
            return Err(format!(
                "tasks {} exceeds the oracle ring's limit of {} task keys (u32 key positions)",
                self.tasks,
                crate::ring::MAX_TASKS
            ));
        }
        if !(0.0..=1.0).contains(&self.churn_rate) {
            return Err(format!("churn_rate {} outside [0, 1]", self.churn_rate));
        }
        if self.check_interval == 0 {
            return Err("check_interval must be at least 1".into());
        }
        if self.num_successors == 0 {
            return Err("num_successors must be at least 1".into());
        }
        if self.overload_factor <= 0.0 {
            return Err("overload_factor must be positive".into());
        }
        if let ChurnModel::Sessions {
            mean_uptime,
            mean_downtime,
        } = self.churn_model
        {
            if mean_uptime < 1.0 || mean_downtime < 1.0 {
                return Err("session means must be at least one tick".into());
            }
        }
        if self.virtual_nodes_per_worker == 0 {
            return Err("virtual_nodes_per_worker must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.nodes, 1000);
        assert_eq!(c.tasks, 100_000);
        assert_eq!(c.churn_rate, 0.0);
        assert_eq!(c.sybil_threshold, 0);
        assert_eq!(c.max_sybils, 5);
        assert_eq!(c.num_successors, 5);
        assert_eq!(c.check_interval, 5);
        assert_eq!(c.heterogeneity, Heterogeneity::Homogeneous);
        assert_eq!(c.work_measurement, WorkMeasurement::OnePerTick);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ideal_ticks_one_per_tick() {
        let c = SimConfig {
            nodes: 1000,
            tasks: 100_000,
            ..SimConfig::default()
        };
        assert_eq!(c.ideal_ticks(), 100);
        let c2 = SimConfig {
            nodes: 1000,
            tasks: 100_001,
            ..SimConfig::default()
        };
        assert_eq!(c2.ideal_ticks(), 101);
    }

    #[test]
    fn ideal_ticks_heterogeneous_strength() {
        let c = SimConfig {
            nodes: 100,
            tasks: 30_000,
            heterogeneity: Heterogeneity::Heterogeneous,
            work_measurement: WorkMeasurement::StrengthPerTick,
            max_sybils: 5,
            ..SimConfig::default()
        };
        // Expected capacity 100·3 = 300 → ideal 100.
        assert_eq!(c.ideal_ticks(), 100);
    }

    #[test]
    fn overload_threshold_scales_with_mean() {
        let c = SimConfig {
            nodes: 100,
            tasks: 10_000,
            overload_factor: 2.0,
            ..SimConfig::default()
        };
        assert_eq!(c.overload_threshold(), 200);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = [
            SimConfig {
                nodes: 0,
                ..SimConfig::default()
            },
            SimConfig {
                churn_rate: 1.5,
                ..SimConfig::default()
            },
            SimConfig {
                check_interval: 0,
                ..SimConfig::default()
            },
            SimConfig {
                num_successors: 0,
                ..SimConfig::default()
            },
            SimConfig {
                overload_factor: 0.0,
                ..SimConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            StrategyKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), StrategyKind::ALL.len());
    }

    #[test]
    fn effective_max_ticks_has_floor() {
        let c = SimConfig {
            nodes: 10,
            tasks: 100,
            ..SimConfig::default()
        };
        assert!(c.effective_max_ticks() >= 10_000);
        let c2 = SimConfig {
            max_ticks: Some(500),
            ..SimConfig::default()
        };
        assert_eq!(c2.effective_max_ticks(), 500);
    }
}

#[cfg(test)]
mod churn_model_tests {
    use super::*;

    #[test]
    fn bernoulli_probabilities_mirror_rate() {
        let c = SimConfig {
            churn_rate: 0.01,
            ..SimConfig::default()
        };
        assert_eq!(c.leave_probability(), 0.01);
        assert_eq!(c.join_probability(), 0.01);
        assert!(c.churn_enabled());
    }

    #[test]
    fn zero_rate_bernoulli_disables_churn() {
        let c = SimConfig::default();
        assert!(!c.churn_enabled());
        assert_eq!(c.leave_probability(), 0.0);
    }

    #[test]
    fn session_probabilities_are_inverse_means() {
        let c = SimConfig {
            churn_model: ChurnModel::Sessions {
                mean_uptime: 200.0,
                mean_downtime: 50.0,
            },
            ..SimConfig::default()
        };
        assert!(c.churn_enabled());
        assert!((c.leave_probability() - 0.005).abs() < 1e-12);
        assert!((c.join_probability() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn session_means_validated() {
        let c = SimConfig {
            churn_model: ChurnModel::Sessions {
                mean_uptime: 0.5,
                mean_downtime: 10.0,
            },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn task_count_bounded_by_u32_positions() {
        let at_limit = SimConfig {
            tasks: u32::MAX as u64,
            ..SimConfig::default()
        };
        assert!(at_limit.validate().is_ok());
        let past = SimConfig {
            tasks: u32::MAX as u64 + 1,
            ..SimConfig::default()
        };
        let err = past.validate().unwrap_err();
        assert!(
            err.contains("4294967296") && err.contains("4294967295"),
            "{err}"
        );
    }

    #[test]
    fn default_model_is_bernoulli() {
        assert_eq!(ChurnModel::default(), ChurnModel::Bernoulli);
    }
}
