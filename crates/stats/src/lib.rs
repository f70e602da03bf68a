//! # autobal-stats
//!
//! Statistics used throughout the reproduction:
//!
//! * [`summary`] — mean / median / σ / percentiles over workloads
//!   (Table I of the paper reports exactly these).
//! * [`histogram`] — linear and logarithmic histograms (Figures 1 and
//!   4–14 are workload histograms).
//! * [`fairness`] — Gini coefficient, Jain's fairness index, and the
//!   coefficient of variation, the standard load-balance metrics.
//! * [`spacings`] — closed-form theory for random arcs on a circle:
//!   what the workload distribution *should* look like when `n` node IDs
//!   are placed uniformly at random, which the paper's Table I samples
//!   empirically.
//! * [`rng`] — deterministic, splittable random number generators so every
//!   experiment is reproducible from a single seed.

pub mod fairness;
pub mod histogram;
pub mod rng;
pub mod spacings;
pub mod summary;

pub use fairness::{coefficient_of_variation, gini, jain_index};
pub use histogram::{Histogram, LogHistogram};
pub use rng::{seeded_rng, DetRng};
pub use summary::Summary;
