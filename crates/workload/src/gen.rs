//! Identifier and key generators.

use autobal_id::{ring, sha1::sha1_id_of_u64, Id};
use autobal_stats::rng::DetRng;
use rand::Rng;
use std::collections::BTreeSet;

/// `n` task keys produced the paper's way: "feeding random numbers into
/// the SHA1 hash function". Slower than [`Id::distinct_random`] but bit-faithful
/// to the described methodology; the `table1` experiment uses it.
pub fn sha1_keys(n: usize, rng: &mut DetRng) -> Vec<Id> {
    (0..n).map(|_| sha1_id_of_u64(rng.gen())).collect()
}

/// `n` distinct SHA-1 node ids.
pub fn sha1_ids(n: usize, rng: &mut DetRng) -> Vec<Id> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = sha1_id_of_u64(rng.gen());
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

/// `n` evenly spaced node ids (Figure 3's idealized placement):
/// `id_i = floor(i · 2^160 / n)`, computed exactly except for the final
/// position which uses `2^160 − 1`.
pub fn evenly_spaced_ids(n: usize) -> Vec<Id> {
    assert!(n > 0, "need at least one node");
    assert!(n <= u32::MAX as usize, "too many nodes for exact spacing");
    (0..n)
        .map(|i| ring::fraction_point(Id::ZERO, Id::MAX, i as u32, n as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_stats::rng::seeded_rng;
    use std::collections::HashSet;

    #[test]
    fn sha1_keys_reproducible_and_spread() {
        let a = sha1_keys(50, &mut seeded_rng(2));
        let b = sha1_keys(50, &mut seeded_rng(2));
        assert_eq!(a, b);
        // Spread check: top byte diversity.
        let tops: HashSet<u8> = a.iter().map(|id| id.to_be_bytes()[0]).collect();
        assert!(tops.len() > 20, "SHA-1 keys should scatter");
    }

    #[test]
    fn sha1_ids_distinct() {
        let ids = sha1_ids(64, &mut seeded_rng(3));
        let set: HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn evenly_spaced_is_actually_even() {
        let ids = evenly_spaced_ids(8);
        assert_eq!(ids[0], Id::ZERO);
        assert_eq!(ids.len(), 8);
        // Consecutive gaps differ by at most a rounding unit.
        let gaps: Vec<f64> = ids
            .windows(2)
            .map(|w| ring::distance(w[0], w[1]).to_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        for g in &gaps {
            assert!((g - mean).abs() / mean < 1e-6);
        }
        // Sorted ascending (prerequisite for Sim::with_placement).
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn evenly_spaced_single_node() {
        assert_eq!(evenly_spaced_ids(1), vec![Id::ZERO]);
    }

    #[test]
    #[should_panic]
    fn evenly_spaced_rejects_zero() {
        evenly_spaced_ids(0);
    }
}
