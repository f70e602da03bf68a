//! Routing measurement helpers.
//!
//! Chord's headline routing property is `O(log n)` lookup hops; the
//! routing-scalability experiment (`chordx.rs`) and the overlay tests
//! use these helpers to measure average hop counts against the
//! theoretical ≈ ½·log₂ n.

use crate::network::Network;
use autobal_id::Id;

/// Statistics from a batch of measured lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopStats {
    pub lookups: u64,
    pub total_hops: u64,
    pub max_hops: u32,
    pub failed: u64,
}

impl HopStats {
    pub fn mean(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.lookups as f64
        }
    }
}

/// Performs `count` lookups of random keys from random starting nodes
/// and aggregates hop counts. Failed lookups (possible mid-churn) are
/// counted, not unwrapped.
pub fn measure_hops<R: rand::Rng + ?Sized>(
    net: &mut Network,
    count: usize,
    rng: &mut R,
) -> HopStats {
    let ids = net.node_ids();
    let mut stats = HopStats {
        lookups: 0,
        total_hops: 0,
        max_hops: 0,
        failed: 0,
    };
    if ids.is_empty() {
        return stats;
    }
    for _ in 0..count {
        let from = ids[rng.gen_range(0..ids.len())];
        let key = Id::random(rng);
        match net.lookup(from, key) {
            Ok(res) => {
                stats.lookups += 1;
                stats.total_hops += res.hops as u64;
                stats.max_hops = stats.max_hops.max(res.hops);
            }
            Err(_) => stats.failed += 1,
        }
    }
    stats
}

/// The theoretical expected hop count for an `n`-node Chord ring:
/// ½·log₂ n.
pub fn expected_hops(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        (n as f64).log2() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn measured_hops_track_theory() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Network::bootstrap(NetConfig::default(), 512, &mut rng);
        let stats = measure_hops(&mut net, 300, &mut rng);
        assert_eq!(stats.failed, 0);
        let mean = stats.mean();
        let theory = expected_hops(512); // 4.5
        assert!(
            (mean - theory).abs() < 2.0,
            "mean {mean} vs theory {theory}"
        );
    }

    #[test]
    fn empty_network_measures_nothing() {
        let mut net = Network::new(NetConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stats = measure_hops(&mut net, 10, &mut rng);
        assert_eq!(stats.lookups, 0);
        assert_eq!(stats.mean(), 0.0);
    }

    #[test]
    fn expected_hops_values() {
        assert_eq!(expected_hops(0), 0.0);
        assert_eq!(expected_hops(1), 0.0);
        assert!((expected_hops(1024) - 5.0).abs() < 1e-12);
    }
}
