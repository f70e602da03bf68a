//! Deterministic, splittable randomness.
//!
//! Every experiment in the workspace is reproducible from a single `u64`
//! seed. Trials run in parallel (rayon), so each trial and each of its
//! subsystems (placement, churn, strategy decisions) derives an
//! independent stream with [`substream`], and adding randomness to one
//! subsystem never perturbs another.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used everywhere: ChaCha with 8 rounds — fast,
/// high quality, and jump-free seeding via (seed, stream) pairs.
pub type DetRng = ChaCha8Rng;

/// Root RNG for a given seed.
pub fn seeded_rng(seed: u64) -> DetRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Further split: an independent substream for a named subsystem within
/// a trial. `domain` values must be unique per subsystem (use the
/// constants below).
pub fn substream(seed: u64, trial: u64, domain: u64) -> DetRng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.set_stream(trial);
    rng
}

/// Substream domains used across the workspace.
pub mod domains {
    /// Node ID placement.
    pub const PLACEMENT: u64 = 1;
    /// Task key generation.
    pub const TASKS: u64 = 2;
    /// Churn coin flips and joining IDs.
    pub const CHURN: u64 = 3;
    /// Strategy decisions (Sybil target selection).
    pub const STRATEGY: u64 = 4;
    /// Node strengths in heterogeneous networks.
    pub const STRENGTH: u64 = 5;
    /// Static virtual-server placement (the classic baseline).
    pub const STATICS: u64 = 6;
    /// Fault-plane decisions (crash-victim selection).
    pub const FAULTS: u64 = 7;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn substreams_do_not_collide() {
        let mut a = substream(7, 0, domains::PLACEMENT);
        let mut b = substream(7, 0, domains::TASKS);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn substream_reproducible() {
        let mut a = substream(9, 3, domains::CHURN);
        let mut b = substream(9, 3, domains::CHURN);
        assert_eq!(a.gen::<u128>(), b.gen::<u128>());
    }
}
