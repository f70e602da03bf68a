//! A metrics sample's ring slots as viz marks: the one conversion
//! behind `repro metrics`'s ring-heat snapshot and every
//! `autobal-monitor` panel.

use autobal_metrics::MetricsSample;
use autobal_viz::{RingHeat, RingMark};

/// The sample's ring slots as viz marks, positioned by each worker's
/// primary identifier and sorted by position; none without a sample.
pub fn ring_marks(sample: Option<&MetricsSample>) -> Vec<RingMark> {
    let mut marks: Vec<RingMark> = sample
        .map_or(&[][..], |s| s.ring.as_slice())
        .iter()
        .map(|slot| RingMark {
            label: slot.worker,
            frac: autobal_id::Id::from_hex(&slot.pos).map_or(0.0, |id| id.to_unit_fraction()),
            load: slot.load,
            vnodes: 1 + slot.sybils,
            flagged: slot.quarantined > 0,
        })
        .collect();
    marks.sort_by(|a, b| a.frac.total_cmp(&b.frac));
    marks
}

/// The SVG ring-heat snapshot of `sample`, drawn from its `marks`.
pub fn ring_heat_svg(sample: Option<&MetricsSample>, marks: &[RingMark]) -> String {
    let title = sample.map_or_else(
        || "ring (no samples)".to_string(),
        |s| format!("ring @ t={}", s.time),
    );
    RingHeat::new(title, marks.to_vec()).to_svg()
}
