//! Shared, read-only workload generation.
//!
//! Every trial of every experiment cell used to regenerate its node
//! placement and task key set from scratch, even when two cells differ
//! only in strategy. A [`WorkloadCache`] generates each distinct
//! `(seed, trial, kind, n)` workload exactly once and hands out
//! reference-counted slices (`Arc<[Id]>`), so concurrent runs
//! share one immutable copy.
//!
//! Entries live as long as the cache. A caller whose every run draws a
//! fresh seed gets no hits and only keeps every key set alive, so
//! `repro`'s multi-trial cells generate uncached; the single-run figure
//! drivers, which all share the master seed, keep one cache.
//!
//! Generation is **bit-identical** to the uncached path: the same
//! substream domains and the same generator bodies as
//! `autobal_core::Sim::new` (pinned by the equivalence tests below), so
//! caching can never change a result — only how often it is computed.

use autobal_core::{random_task_keys, Sim, SimConfig};
use autobal_id::Id;
use autobal_stats::rng::{domains, substream};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which generator a cached entry came from. Part of the cache key so
/// the node-id and task-key families can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// Distinct uniform node ids (`Sim::new`'s placement).
    RandomPlacement,
    /// Uniform task keys, duplicates allowed (`Sim::new`'s tasks).
    RandomTasks,
}

type CacheKey = (u64, u64, Kind, usize);

/// A concurrent memo table from workload parameters to generated id
/// sets. Cheap to share (`Arc<WorkloadCache>`); all methods take
/// `&self`.
#[derive(Debug, Default)]
pub struct WorkloadCache {
    entries: Mutex<BTreeMap<CacheKey, Arc<[Id]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WorkloadCache {
    pub fn new() -> WorkloadCache {
        WorkloadCache::default()
    }

    /// Times the map was asked for an entry it already had.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Times an entry had to be generated.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up or generates one entry. Generation runs outside the
    /// lock — two threads racing on the same fresh key may both
    /// generate, but they produce identical data and the first insert
    /// wins, so sharing stays correct under any interleaving.
    fn get_or_generate(&self, key: CacheKey, generate: impl FnOnce() -> Arc<[Id]>) -> Arc<[Id]> {
        {
            let entries = self.entries.lock().expect("cache lock");
            if let Some(hit) = entries.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = generate();
        let mut entries = self.entries.lock().expect("cache lock");
        Arc::clone(entries.entry(key).or_insert(fresh))
    }

    /// The node placement `Sim::new(cfg, seed)` draws: `n` distinct
    /// uniform ids from the `PLACEMENT` substream.
    pub fn random_node_ids(&self, seed: u64, trial: u64, n: usize) -> Arc<[Id]> {
        self.get_or_generate((seed, trial, Kind::RandomPlacement, n), || {
            Id::distinct_random(n, &mut substream(seed, trial, domains::PLACEMENT)).into()
        })
    }

    /// The task keys `Sim::new(cfg, seed)` draws: `n` uniform ids from
    /// the `TASKS` substream (duplicates allowed, like the paper).
    pub fn random_task_keys(&self, seed: u64, trial: u64, n: usize) -> Arc<[Id]> {
        self.get_or_generate((seed, trial, Kind::RandomTasks, n), || {
            random_task_keys(seed, trial, n)
        })
    }

    /// Cache-backed replacement for `Sim::new(cfg, seed)`: identical
    /// simulator (the placement substreams are shared through the
    /// cache; everything else of `Sim::with_placement` runs as usual).
    pub fn sim(&self, cfg: SimConfig, seed: u64) -> Sim {
        let nodes = self.random_node_ids(seed, 0, cfg.nodes);
        let keys = self.random_task_keys(seed, 0, cfg.tasks as usize);
        Sim::with_placement(cfg, seed, nodes.to_vec(), keys.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_core::StrategyKind;

    fn cfg(strategy: StrategyKind) -> SimConfig {
        SimConfig {
            nodes: 30,
            tasks: 1_000,
            strategy,
            ..SimConfig::default()
        }
    }

    #[test]
    fn cached_sim_matches_sim_new() {
        let cache = WorkloadCache::new();
        for seed in [1u64, 99, 0xA0B1_C2D3] {
            let a = Sim::new(cfg(StrategyKind::RandomInjection), seed).run();
            let b = cache.sim(cfg(StrategyKind::RandomInjection), seed).run();
            assert_eq!(a.ticks, b.ticks, "seed {seed}");
            assert_eq!(a.work_per_tick, b.work_per_tick, "seed {seed}");
            assert_eq!(a.messages, b.messages, "seed {seed}");
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = WorkloadCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let first = cache.random_node_ids(1, 0, 10);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.random_node_ids(1, 0, 10);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&first, &second), "shared, not regenerated");
    }
}
