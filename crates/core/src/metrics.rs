//! Run outputs: message tallies, workload snapshots, and the final
//! result record (§V-C "Outputs").

/// Message/bookkeeping counters attributable to load balancing.
///
/// The simulator does not charge these to runtime (neither does the
/// paper), but records them so the bandwidth ordering claims of §VI can
/// be checked: invitation (reactive) should spend fewer messages than
/// smart neighbor (which polls successors), which spends more than plain
/// neighbor (estimate only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimMessageStats {
    /// Sybil virtual nodes created (each costs one join's worth of
    /// lookup + key transfer).
    pub sybils_created: u64,
    /// Sybils dismissed ("has Sybils but no work → Sybils quit").
    pub sybils_retired: u64,
    /// Nodes that left via churn.
    pub churn_leaves: u64,
    /// Nodes that joined from the waiting pool.
    pub churn_joins: u64,
    /// Load queries sent to successors (smart neighbor injection).
    pub load_queries: u64,
    /// Help announcements broadcast to predecessors (invitation).
    pub invitations_sent: u64,
    /// Invitations that no predecessor could honor.
    pub invitations_refused: u64,
}

impl SimMessageStats {
    /// Total messages a real implementation would put on the wire for
    /// strategy decisions: queries + invitations + joins (a Sybil join ≈
    /// one lookup, counted as one message here; churn joins likewise).
    pub fn strategy_messages(&self) -> u64 {
        self.load_queries + self.invitations_sent + self.sybils_created + self.churn_joins
    }

    /// Column-wise sum for aggregating trials.
    pub fn merge(&mut self, o: &SimMessageStats) {
        self.sybils_created += o.sybils_created;
        self.sybils_retired += o.sybils_retired;
        self.churn_leaves += o.churn_leaves;
        self.churn_joins += o.churn_joins;
        self.load_queries += o.load_queries;
        self.invitations_sent += o.invitations_sent;
        self.invitations_refused += o.invitations_refused;
    }
}

/// Workload distribution captured at one tick: the per-worker totals of
/// every *active* worker (what the paper's Figure 4–14 histograms bin).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Snapshot {
    pub tick: u64,
    /// Tasks per active worker (unordered).
    pub loads: Vec<u64>,
    /// Number of active workers with zero tasks (idle).
    pub idle: usize,
    /// Virtual nodes in the ring at snapshot time.
    pub vnodes: usize,
}

impl Snapshot {
    pub fn from_loads(tick: u64, loads: Vec<u64>, vnodes: usize) -> Snapshot {
        let idle = loads.iter().filter(|&&l| l == 0).count();
        Snapshot {
            tick,
            loads,
            idle,
            vnodes,
        }
    }
}

/// Optional per-tick time series (recorded with
/// `SimConfig::record_metrics`, one row per metrics sample): the
/// evolution of network shape and balance quality over the run.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TickSeries {
    /// Tick numbers at which samples were taken.
    pub ticks: Vec<u64>,
    /// Active physical workers at each sample.
    pub active_workers: Vec<usize>,
    /// Virtual nodes (primaries + Sybils) at each sample.
    pub vnodes: Vec<usize>,
    /// Remaining tasks at each sample.
    pub remaining: Vec<u64>,
    /// Gini coefficient of the active-worker loads at each sample.
    pub gini: Vec<f64>,
    /// Idle active workers at each sample.
    pub idle: Vec<usize>,
}

impl TickSeries {
    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunResult {
    /// Ticks until the job finished (or the cap, when `!completed`).
    pub ticks: u64,
    /// The ideal runtime `ceil(tasks / Σ capacity)`.
    pub ideal_ticks: u64,
    /// `ticks / ideal_ticks` — the paper's headline metric.
    pub runtime_factor: f64,
    /// True when every task was consumed before the tick cap.
    pub completed: bool,
    /// Tasks consumed at each tick (index 0 = tick 1).
    pub work_per_tick: Vec<u64>,
    /// Workload snapshots captured at the configured ticks.
    pub snapshots: Vec<Snapshot>,
    /// Strategy message counters.
    pub messages: SimMessageStats,
    /// Peak number of virtual nodes observed.
    pub peak_vnodes: usize,
    /// Active workers at the end of the run.
    pub final_active_workers: usize,
    /// Optional per-tick series, one row per metrics sample (when
    /// `record_metrics` was set).
    #[cfg_attr(feature = "serde", serde(default))]
    pub series: TickSeries,
    /// Span-structured flight-recorder trace (when `record_trace` was
    /// set); empty and allocation-free otherwise. Its `Decision`
    /// records are the event log ([`crate::trace::event_log`]).
    #[cfg_attr(feature = "serde", serde(default))]
    pub trace: autobal_telemetry::Trace,
    /// Streaming metrics samples (when `record_metrics` was set);
    /// empty otherwise. Integer-only and byte-deterministic.
    #[cfg_attr(feature = "serde", serde(default))]
    pub metrics: Vec<autobal_metrics::MetricsSample>,
}

impl RunResult {
    /// Mean tasks consumed per tick over the whole run.
    pub fn mean_work_per_tick(&self) -> f64 {
        if self.work_per_tick.is_empty() {
            return 0.0;
        }
        self.work_per_tick.iter().sum::<u64>() as f64 / self.work_per_tick.len() as f64
    }

    /// The snapshot captured at `tick`, if one was requested.
    pub fn snapshot_at(&self, tick: u64) -> Option<&Snapshot> {
        self.snapshots.iter().find(|s| s.tick == tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_counts_idle_workers() {
        let s = Snapshot::from_loads(5, vec![0, 3, 0, 7], 4);
        assert_eq!(s.idle, 2);
        assert_eq!(s.tick, 5);
        assert_eq!(s.vnodes, 4);
    }

    #[test]
    fn message_stats_merge_and_total() {
        let mut a = SimMessageStats {
            sybils_created: 2,
            load_queries: 10,
            ..Default::default()
        };
        let b = SimMessageStats {
            sybils_created: 1,
            invitations_sent: 4,
            churn_joins: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sybils_created, 3);
        assert_eq!(a.strategy_messages(), 10 + 4 + 3 + 3);
    }

    #[test]
    fn run_result_helpers() {
        let r = RunResult {
            ticks: 10,
            ideal_ticks: 5,
            runtime_factor: 2.0,
            completed: true,
            work_per_tick: vec![5, 10, 15],
            snapshots: vec![Snapshot::from_loads(5, vec![1], 1)],
            messages: SimMessageStats::default(),
            peak_vnodes: 3,
            final_active_workers: 1,
            series: TickSeries::default(),
            trace: autobal_telemetry::Trace::default(),
            metrics: Vec::new(),
        };
        assert_eq!(r.mean_work_per_tick(), 10.0);
        assert!(r.snapshot_at(5).is_some());
        assert!(r.snapshot_at(6).is_none());
    }

    #[test]
    fn empty_work_history_mean_is_zero() {
        let r = RunResult {
            ticks: 0,
            ideal_ticks: 1,
            runtime_factor: 0.0,
            completed: true,
            work_per_tick: vec![],
            snapshots: vec![],
            messages: SimMessageStats::default(),
            peak_vnodes: 0,
            final_active_workers: 0,
            series: TickSeries::default(),
            trace: autobal_telemetry::Trace::default(),
            metrics: Vec::new(),
        };
        assert_eq!(r.mean_work_per_tick(), 0.0);
    }
}
