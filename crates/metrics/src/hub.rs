//! The substrate-facing surface of the metrics plane.
//!
//! [`MetricsHub`] plays the same role for metrics that
//! `autobal_telemetry::Trace` plays for traces: a concrete,
//! always-constructible recorder that is free when disabled. The
//! substrates' recorder (`autobal_core::record::Recorder`) calls its
//! counter and histogram methods from their hot paths (all
//! allocation-free after construction) and [`MetricsHub::sample_batch`]
//! at its cadence (which snapshots the registry into a
//! [`MetricsSample`] and may allocate; sampling is outside the
//! steady-state alloc gate).

use crate::dist::gini_ppm_from_sums;
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

    /// Snapshot the registry plus fairness gauges computed by one
    /// sweep of the active workers' loads, `sorted` ascending: exact
    /// integer count, total and rank-weighted sum, from which the Gini
    /// gauge is derived, plus the idle count, max and percentiles read
    /// off the slice.
    pub fn sample_batch(&mut self, time: u64, sorted: &[u64], ring: Vec<RingSlot>) {
        let Some(reg) = self.registry.as_mut() else {
            return;
        };
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "sample_batch needs ascending loads"
        );
        let n = sorted.len() as u64;
        let total: u128 = sorted.iter().map(|&v| v as u128).sum();
        let weighted: u128 = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u128 + 1) * v as u128)
            .sum();
        let max = sorted.last().copied().unwrap_or(0);
        reg.set_gauge(names::WORKERS_ACTIVE, n);
        reg.set_gauge(
            names::WORKERS_IDLE,
            sorted.partition_point(|&v| v == 0) as u64,
        );
        reg.set_gauge(names::LOAD_TOTAL, total as u64);
        reg.set_gauge(names::LOAD_MAX, max);
        for (p, name) in PCTS {
            reg.set_gauge(name, autobal_stats::fairness::percentile_sorted(sorted, p));
        }
        reg.set_gauge(names::GINI_PPM, gini_ppm_from_sums(n, total, weighted));
        let imbalance_ppm = if n == 0 || total == 0 {
            0
        } else {
            (max as u128 * n as u128 * 1_000_000 / total) as u64
        };
        reg.set_gauge(names::IMBALANCE_PPM, imbalance_ppm);
        self.samples.push(snapshot(reg, time, ring));
    }
}

/// The registry's current values as one sample stamped `time`.
fn snapshot(reg: &Registry, time: u64, ring: Vec<RingSlot>) -> MetricsSample {
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
    MetricsSample {
        time,
        counters,
        gauges,
        hists,
        ring,
    }
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
        hub.sample_batch(3, &[5], Vec::new());
        assert!(hub.samples().is_empty());
    }

    #[test]
    fn batch_sample_reads_fairness_gauges_off_the_sorted_loads() {
        let mut hub = MetricsHub::new(true);
        hub.sample_batch(7, &[0, 0, 2, 4, 4, 9, 77, 130], Vec::new());
        let s = &hub.samples()[0];
        assert_eq!(s.time, 7);
        assert_eq!(s.gauge(names::WORKERS_ACTIVE), Some(8));
        assert_eq!(s.gauge(names::WORKERS_IDLE), Some(2));
        assert_eq!(s.gauge(names::LOAD_MAX), Some(130));
        assert_eq!(s.gauge(names::LOAD_TOTAL), Some(226));
        assert_eq!(s.gauge(names::LOAD_P50), Some(4));
        assert_eq!(s.gauge(names::LOAD_P99), Some(130));
        // max·n/T = 130·8/226.
        assert_eq!(s.gauge(names::IMBALANCE_PPM), Some(4_601_769));
    }

    #[test]
    fn counters_and_histograms_land_in_the_sample() {
        let mut hub = MetricsHub::new(true);
        hub.inc(names::SYBIL_CREATED);
        hub.observe(names::TRANSFER_SIZE, 12);
        hub.observe(names::TRANSFER_SIZE, 3);
        hub.inc(names::TICKS);
        hub.add(names::TASKS_DONE, 50);
        hub.sample_batch(1, &[], Vec::new());
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
        hub.sample_batch(
            0,
            &[],
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
