//! # autobal-viz
//!
//! Dependency-free rendering of the paper's figures:
//!
//! * [`ascii`] — terminal histograms for quick inspection.
//! * [`csv`] — series writers for downstream plotting.
//! * [`svg`] — a tiny SVG emitter: grouped bar charts (the Figure 1 and
//!   4–14 workload histograms) and ring scatters (Figures 2–3).

pub mod ascii;
pub mod csv;
pub mod svg;

pub use ascii::{render_histogram, render_load_bars, render_ring, sparkline, RingMark};
pub use svg::{BarChart, LineChart, RingHeat, RingScatter};
