//! # autobal — autonomous DHT load balancing via churn and the Sybil attack
//!
//! Umbrella crate re-exporting the workspace's public API. See the README
//! for a tour and `DESIGN.md` for the system inventory.

mod chord_driver;
pub mod event_sim;
pub mod protocol_sim;
pub mod reference;

pub use autobal_chord as chord;
pub use autobal_core as sim;
pub use autobal_id as id;
pub use autobal_stats as stats;
pub use autobal_viz as viz;
pub use autobal_workload as workload;

pub use autobal_id::Id;

#[cfg(feature = "count-allocs")]
pub use autobal_meminstr as meminstr;
