//! The substrate-facing surface of the metrics plane.
//!
//! [`MetricsHub`] plays the same role for metrics that
//! `autobal_telemetry::Trace` plays for traces: a concrete,
//! always-constructible recorder that is free when disabled. The
//! substrates' recorder (`autobal_core::record::Recorder`) calls its
//! counter and histogram methods from their hot paths (all
//! allocation-free after construction) and the sampling methods at its
//! cadence (which
//! snapshot the registry into a [`MetricsSample`] and may allocate;
//! sampling is outside the steady-state alloc gate).

use crate::dist::{gini_ppm_from_sums, LoadDist};
use crate::names;
use crate::registry::Registry;
use crate::sample::{HistSnapshot, MetricsSample, RingSlot};

/// Pre-sorted percentile levels sampled into gauges.
const PCTS: [(u64, &str); 3] = [
    (50, names::LOAD_P50),
    (90, names::LOAD_P90),
    (99, names::LOAD_P99),
];

/// A disabled hub costs one branch per call site and holds no registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    registry: Option<Registry>,
    samples: Vec<MetricsSample>,
}

impl MetricsHub {
    /// A hub that records when `enabled`.
    pub fn new(enabled: bool) -> MetricsHub {
        MetricsHub {
            registry: enabled.then(Registry::new),
            samples: Vec::new(),
        }
    }

    /// Is anything being recorded? Callers gate argument construction
    /// on this; every other method is a no-op when it is false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        if let Some(reg) = self.registry.as_mut() {
            reg.inc(name);
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(reg) = self.registry.as_mut() {
            reg.add(name, delta);
        }
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        if let Some(reg) = self.registry.as_mut() {
            reg.set_gauge(name, value);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if let Some(reg) = self.registry.as_mut() {
            reg.observe(name, value);
        }
    }

    /// Recorded samples so far.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// Consume the hub, yielding its samples.
    pub fn into_samples(self) -> Vec<MetricsSample> {
        self.samples
    }

    /// Snapshot the registry plus fairness gauges computed from an
    /// incrementally-maintained [`LoadDist`] — O(log L), no sort.
    pub fn sample_from_dist(&mut self, time: u64, dist: &LoadDist, ring: Vec<RingSlot>) {
        if self.registry.is_none() {
            return;
        }
        let total = dist.total();
        let stats = FairnessGauges {
            n: dist.len(),
            idle: dist.zeros(),
            total: total as u64,
            max: dist.max(),
            pct: [
                dist.percentile(PCTS[0].0),
                dist.percentile(PCTS[1].0),
                dist.percentile(PCTS[2].0),
            ],
            gini_ppm: dist.gini_ppm(),
        };
        self.push_sample(time, stats, ring);
    }

    /// Snapshot the registry plus fairness gauges computed by a batch
    /// sweep of `loads` (sorted in place). For substrates whose load
    /// movements happen inside the network and cannot be intercepted
    /// per-delta; emits byte-identical gauge values to the incremental
    /// path because both reduce to the same exact integer aggregates.
    pub fn sample_batch(&mut self, time: u64, loads: &mut [u64], ring: Vec<RingSlot>) {
        if self.registry.is_none() {
            return;
        }
        loads.sort_unstable();
        let n = loads.len() as u64;
        let total: u128 = loads.iter().map(|&v| v as u128).sum();
        let weighted: u128 = loads
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u128 + 1) * v as u128)
            .sum();
        let stats = FairnessGauges {
            n,
            idle: loads.iter().take_while(|&&v| v == 0).count() as u64,
            total: total as u64,
            max: loads.last().copied().unwrap_or(0),
            pct: [
                autobal_stats::fairness::percentile_sorted(loads, PCTS[0].0),
                autobal_stats::fairness::percentile_sorted(loads, PCTS[1].0),
                autobal_stats::fairness::percentile_sorted(loads, PCTS[2].0),
            ],
            gini_ppm: gini_ppm_from_sums(n, total, weighted),
        };
        self.push_sample(time, stats, ring);
    }

    fn push_sample(&mut self, time: u64, stats: FairnessGauges, ring: Vec<RingSlot>) {
        let reg = self.registry.as_mut().expect("checked by callers");
        reg.set_gauge(names::WORKERS_ACTIVE, stats.n);
        reg.set_gauge(names::WORKERS_IDLE, stats.idle);
        reg.set_gauge(names::LOAD_TOTAL, stats.total);
        reg.set_gauge(names::LOAD_MAX, stats.max);
        for (i, &(_, name)) in PCTS.iter().enumerate() {
            reg.set_gauge(name, stats.pct[i]);
        }
        reg.set_gauge(names::GINI_PPM, stats.gini_ppm);
        let imbalance_ppm = if stats.n == 0 || stats.total == 0 {
            0
        } else {
            (stats.max as u128 * stats.n as u128 * 1_000_000 / stats.total as u128) as u64
        };
        reg.set_gauge(names::IMBALANCE_PPM, imbalance_ppm);

        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        reg.each_scalar(|name, kind, value| match kind {
            crate::registry::Kind::Counter => counters.push((name.to_string(), value)),
            crate::registry::Kind::Gauge => gauges.push((name.to_string(), value)),
            crate::registry::Kind::Histogram => {}
        });
        let mut hists = Vec::new();
        reg.each_hist(|name, h| {
            hists.push((
                name.to_string(),
                HistSnapshot {
                    count: h.count,
                    sum: h.sum,
                    buckets: h.buckets[..h.trimmed_len()].to_vec(),
                },
            ));
        });
        self.samples.push(MetricsSample {
            time,
            counters,
            gauges,
            hists,
            ring,
        });
    }
}

struct FairnessGauges {
    n: u64,
    idle: u64,
    total: u64,
    max: u64,
    pct: [u64; 3],
    gini_ppm: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_is_inert() {
        let mut hub = MetricsHub::new(false);
        assert!(!hub.enabled());
        hub.inc(names::TICKS);
        hub.observe(names::MSG_RETRIES, 2);
        let mut dist = LoadDist::new();
        dist.insert(5);
        hub.sample_from_dist(3, &dist, Vec::new());
        assert!(hub.samples().is_empty());
    }

    #[test]
    fn dist_and_batch_sampling_agree_byte_for_byte() {
        let loads = [0u64, 4, 4, 9, 130, 2, 0, 77];
        let mut dist = LoadDist::new();
        for &l in &loads {
            dist.insert(l);
        }
        let mut a = MetricsHub::new(true);
        a.sample_from_dist(7, &dist, Vec::new());
        let mut b = MetricsHub::new(true);
        let mut scratch = loads.to_vec();
        b.sample_batch(7, &mut scratch, Vec::new());
        assert_eq!(
            crate::sample::to_jsonl(a.samples()),
            crate::sample::to_jsonl(b.samples())
        );
        let s = &a.samples()[0];
        assert_eq!(s.gauge(names::WORKERS_ACTIVE), Some(8));
        assert_eq!(s.gauge(names::WORKERS_IDLE), Some(2));
        assert_eq!(s.gauge(names::LOAD_MAX), Some(130));
        assert_eq!(s.gauge(names::LOAD_TOTAL), Some(226));
    }

    #[test]
    fn counters_and_histograms_land_in_the_sample() {
        let mut hub = MetricsHub::new(true);
        hub.inc(names::SYBIL_CREATED);
        hub.observe(names::TRANSFER_SIZE, 12);
        hub.observe(names::TRANSFER_SIZE, 3);
        hub.inc(names::TICKS);
        hub.add(names::TASKS_DONE, 50);
        let dist = LoadDist::new();
        hub.sample_from_dist(1, &dist, Vec::new());
        let s = &hub.samples()[0];
        assert_eq!(s.counter(names::SYBIL_CREATED), Some(1));
        assert_eq!(s.counter(names::WORKER_LEFT), Some(0));
        assert_eq!(s.counter(names::TICKS), Some(1));
        assert_eq!(s.counter(names::TASKS_DONE), Some(50));
        let transfers = s.hist(names::TRANSFER_SIZE).unwrap();
        assert_eq!(transfers.count, 2);
        assert_eq!(transfers.sum, 15);
    }

    #[test]
    fn ring_snapshot_is_carried_through() {
        let mut hub = MetricsHub::new(true);
        let dist = LoadDist::new();
        hub.sample_from_dist(
            0,
            &dist,
            vec![RingSlot {
                worker: 1,
                pos: "aa".into(),
                load: 3,
                sybils: 0,
                quarantined: 0,
            }],
        );
        assert_eq!(hub.samples()[0].ring.len(), 1);
    }
}
