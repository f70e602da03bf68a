//! Initial-placement analysis (no simulation): Table I and Figure 1.
//!
//! Table I reports the median and σ of the per-node workload immediately
//! after `tasks` SHA-1 keys land on `nodes` SHA-1-placed nodes. This
//! module computes those distributions directly on a [`Ring`], skipping
//! the tick loop entirely.

use autobal_core::Ring;
use autobal_id::Id;
use autobal_stats::rng::{domains, substream};
use autobal_stats::Summary;

use crate::gen;

/// Builds one random placement and returns the per-node loads.
pub fn initial_loads(nodes: usize, tasks: usize, seed: u64, trial: u64) -> Vec<u64> {
    let mut placement = substream(seed, trial, domains::PLACEMENT);
    let mut task_rng = substream(seed, trial, domains::TASKS);
    let node_ids = gen::sha1_ids(nodes, &mut placement);
    let keys = gen::sha1_keys(tasks, &mut task_rng);
    loads_for_placement(&node_ids, keys)
}

/// Per-node loads for an explicit placement.
pub fn loads_for_placement(node_ids: &[Id], keys: Vec<Id>) -> Vec<u64> {
    let mut ring = Ring::new();
    for (i, &id) in node_ids.iter().enumerate() {
        ring.insert_vnode(id, i)
            .expect("duplicate node id in placement");
    }
    ring.assign_tasks(keys)
        .expect("more task keys than one ring holds");
    ring.loads_by_owner(node_ids.len())
}

/// Summary (median, σ, …) of one random placement — one Table I sample.
pub fn initial_load_summary(nodes: usize, tasks: usize, seed: u64, trial: u64) -> Summary {
    Summary::from_u64s(&initial_loads(nodes, tasks, seed, trial)).expect("nodes > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_stats::spacings;

    #[test]
    fn loads_sum_to_task_count() {
        let loads = initial_loads(100, 5_000, 7, 0);
        assert_eq!(loads.len(), 100);
        assert_eq!(loads.iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn median_tracks_spacings_theory() {
        // Average a handful of trials of a mid-size network; the median
        // should approach T/n·ln2 (paper Table I row 1000/100000 ⇒ 69.4).
        let mut medians = 0.0;
        let trials = 5;
        for t in 0..trials {
            medians += initial_load_summary(1000, 100_000, 11, t).median;
        }
        let measured = medians / trials as f64;
        let theory = spacings::expected_median_load(1000, 100_000); // ≈ 69.3
        assert!(
            (measured - theory).abs() < 6.0,
            "measured {measured} vs theory {theory}"
        );
    }

    #[test]
    fn sigma_is_near_mean() {
        let s = initial_load_summary(1000, 100_000, 13, 0);
        // Exponential spacings: σ ≈ mean (paper: 137 ≈ wait — Table I has
        // σ 137 for mean 100; σ includes trial noise. Ours: single trial
        // σ close to mean 100 within 25%).
        assert!(
            (s.std_dev - s.mean).abs() / s.mean < 0.25,
            "σ {} mean {}",
            s.std_dev,
            s.mean
        );
    }

    #[test]
    fn explicit_placement_is_deterministic() {
        let ids = gen::evenly_spaced_ids(10);
        let keys: Vec<Id> = (0..100u64).map(|v| Id::from(v * 1_000_003)).collect();
        let a = loads_for_placement(&ids, keys.clone());
        let b = loads_for_placement(&ids, keys);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<u64>(), 100);
    }
}
