//! # autobal-workload
//!
//! Experiment plumbing: key/placement generators, the rayon-parallel
//! multi-trial runner, and table formatting.
//!
//! The paper's every table row is "the average of 100 trials"; this
//! crate runs those trials across cores with deterministic per-trial
//! seeds, so any row can be reproduced bit-for-bit from `(spec, seed)`.

pub mod cache;
pub mod gen;
pub mod placement;
pub mod spec;
pub mod tables;
pub mod trials;

pub use cache::WorkloadCache;
pub use gen::{evenly_spaced_ids, sha1_keys};
pub use placement::initial_load_summary;
pub use spec::ExperimentSpec;
pub use trials::{run_trials, summarize, TrialStats};
