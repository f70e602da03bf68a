//! # autobal-core
//!
//! The paper's primary contribution: a tick-driven simulator of
//! **autonomous load balancing in a Chord DHT** via induced churn and
//! controlled Sybil attacks (Rosen, Levin & Bourgeois, 2021).
//!
//! A [`Sim`] holds a ring of *virtual nodes* (primaries and Sybils) owned
//! by physical *workers*. Each tick:
//!
//! 1. the configured [`StrategyKind`] may act (churn coin-flips every
//!    tick; Sybil strategies check every `check_interval` ticks);
//! 2. every active worker consumes up to its capacity in tasks;
//! 3. metrics are recorded (work per tick, workload snapshots).
//!
//! The run ends when every task is consumed; the headline output is the
//! **runtime factor** — measured ticks over the ideal runtime
//! `tasks / Σ capacity` (§V-C of the paper).
//!
//! ```
//! use autobal_core::{Sim, SimConfig, StrategyKind};
//!
//! let cfg = SimConfig {
//!     nodes: 100,
//!     tasks: 10_000,
//!     strategy: StrategyKind::RandomInjection,
//!     ..SimConfig::default()
//! };
//! let result = Sim::new(cfg, 42).run();
//! assert!(result.completed);
//! // Random injection lands well under the no-strategy factor (~5).
//! assert!(result.runtime_factor < 4.0);
//! ```

pub mod config;
pub mod metrics;
pub mod record;
pub mod ring;
pub mod sim;
pub mod strategy;
pub mod trace;
pub mod worker;

pub use config::{ChurnModel, Heterogeneity, SimConfig, StrategyKind, WorkMeasurement};
pub use metrics::{RunResult, SimMessageStats, Snapshot, TickSeries};
pub use record::Recorder;
pub use ring::{Ring, MAX_SHARDS};
pub use sim::Sim;
pub use trace::SimEvent;
pub use worker::{Worker, WorkerId, WorkerState};
