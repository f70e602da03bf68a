//! Streaming metrics plane.
//!
//! The trace plane (`autobal-telemetry`) answers *what happened*, one
//! record per decision; this crate answers *how much, right now*, at a
//! cost low enough to leave on at scale. Three pieces:
//!
//! - **Registry** ([`registry`], [`names`]): a closed vocabulary of
//!   counters, gauges, and log₂ histograms. After construction every
//!   increment is allocation-free (flat `u64` slots, binary-searched
//!   static names), which the root crate's `meminstr` gate enforces.
//! - **Incremental fairness** ([`dist::LoadDist`]): the per-tick
//!   Gini/percentile sweep replaced by a Fenwick-tree-over-load-buckets
//!   multiset, `O(log L)` per load delta, maintaining the *exact*
//!   integer aggregates of the batch recompute so the floats produced
//!   through `autobal_stats::fairness` are bit-equal — the simulator's
//!   golden series do not move by a single byte.
//! - **Export** ([`sample`], [`expo`]): integer-only JSONL samples
//!   (byte-stable across platforms and thread counts), CSV time series,
//!   and dependency-free Prometheus text exposition with a validator.
//!
//! [`hub::MetricsHub`] is the substrate-facing recorder, mirroring
//! `Trace`: free when disabled, driven from the same emit funnels as
//! the trace plane. [`profile`] adds opt-in wall-clock phase timing
//! behind the `profile` feature, deliberately outside the
//! deterministic boundary.

pub mod dist;
pub mod expo;
pub mod fenwick;
pub mod hub;
pub mod names;
pub mod profile;
pub mod registry;
pub mod sample;

pub use dist::{DistSummary, LoadDist};
pub use hub::MetricsHub;
pub use sample::{MetricsSample, RingSlot};
