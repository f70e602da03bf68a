//! # autobal-chord
//!
//! A from-scratch **Chord** distributed-hash-table substrate
//! (Stoica et al., SIGCOMM 2001), the overlay the paper runs its
//! load-balancing strategies on.
//!
//! The implementation is protocol-faithful but runs inside a single
//! process: a [`Network`] owns every [`Node`], delivers "RPCs"
//! synchronously, and counts every message so the paper's bandwidth
//! arguments (invitation < neighbor < smart-neighbor < random injection)
//! can be measured rather than asserted.
//!
//! What is implemented:
//!
//! * **Routing** — 160-entry finger tables, iterative
//!   `find_successor` with hop counting (`O(log n)` hops with high
//!   probability; `repro perf`'s `chord_lookup` rows report ≈ ½·log₂ n).
//! * **Membership** — `join` through a bootstrap node, graceful `leave`
//!   with key handoff, abrupt `fail` with recovery.
//! * **Maintenance** — `stabilize` + `notify`, successor-list repair,
//!   predecessor tracking, incremental `fix_fingers`; one
//!   [`Network::maintenance_cycle`] is the paper's "tick worth" of
//!   upkeep.
//! * **Replication** — the ChordReduce *active backup* assumption: every
//!   node pushes its key set to its `replication_factor` successors each
//!   cycle, so a failing node loses nothing once a cycle has run.
//! * **Key-value API** — `put`/`get`/`remove` with values that ride the
//!   same handoff and replication machinery (see [`kv`]).
//!
//! ```
//! use autobal_chord::{Network, NetConfig};
//! use autobal_id::sha1::sha1_id_of_u64;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let mut net = Network::bootstrap(NetConfig::default(), 32, &mut rng);
//! for k in 0..100 {
//!     net.insert_key(sha1_id_of_u64(k));
//! }
//! let some_node = net.node_ids()[0];
//! let res = net.lookup(some_node, sha1_id_of_u64(5)).unwrap();
//! assert_eq!(res.owner, net.owner_of(sha1_id_of_u64(5)).unwrap());
//! ```

pub mod adversary;
pub mod eventnet;
pub mod fault;
pub mod fingers;
pub mod keyset;
pub mod kv;
pub mod maintenance;
pub mod messages;
pub mod network;
pub mod node;
mod queue;
pub mod routing;
mod table;

pub use adversary::{AdversaryPlan, AdversaryState, LiePolicy};
pub use eventnet::{AppEvent, AppMsg, AsyncLookup, EventConfig, EventNet, LOOKUP_TIMEOUT};
pub use fault::{CrashEvent, FaultPlan, FaultState, Partition};
pub use fingers::Fingers;
pub use keyset::KeySet;
pub use messages::{MessageKind, MessageStats};
pub use network::{FailReport, LookupResult, NetConfig, Network, NetworkError};
pub use node::{Node, Replica};
