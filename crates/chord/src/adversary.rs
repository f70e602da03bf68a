//! The Byzantine adversary plane: deterministic lying load reports.
//!
//! An [`AdversaryPlan`] is pure configuration — which fraction of the
//! initial worker population is Byzantine and how those workers lie
//! when asked for their load. An [`AdversaryState`] is the plan armed
//! for a run: a dedicated ChaCha stream (seeded like the fault stream,
//! `seed ^ ADVERSARY_SALT`) is consumed **once, at construction**, to
//! pick the liar set; answering a query draws nothing. Lies are a pure
//! function of `(plan, worker, true_load, now)`, so the same query
//! answered on the synchronous tick shim and on the event wire distorts
//! to the same value — that is what keeps the degenerate-parity pins
//! valid with an *active* adversary, and what makes an inert plan
//! (`AdversaryPlan::default()`) bit-for-bit invisible: a zero fraction
//! selects no liars and draws nothing at all.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Salt XOR-ed into the plan seed so the adversary stream can never
/// collide with the fault stream (`0xFA17_FA17`) under equal seeds.
const ADVERSARY_SALT: u64 = 0xBAD1_E5B0;

/// How a Byzantine worker distorts its reported load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LiePolicy {
    /// Report a fraction of the true load (`true / gain`) — the worker
    /// looks idle, attracting Sybils and invitations it then wastes.
    #[default]
    UnderReport,
    /// Report a multiple of the true load (`true * gain + gain`) — the
    /// worker looks swamped, repelling help it actually needs and
    /// pushing it toward honest neighbors.
    OverReport,
    /// Report a pseudo-random distortion derived by hashing
    /// `(seed, worker, now)` — no stream draws, so replays are exact.
    RandomNoise,
    /// Alternate under/over by the parity of `now` — targeted
    /// flip-flopping that defeats single-sample smoothing.
    FlipFlop,
}

/// Declarative description of who lies and how.
///
/// The default plan is fully inert: fraction zero marks nobody
/// Byzantine, the construction-time RNG draws nothing, and every load
/// reply is truthful — a run carrying the default plan is bit-for-bit
/// identical to one built before the adversary plane existed.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdversaryPlan {
    /// Seed for the liar-selection draw (and the `RandomNoise` hash).
    #[cfg_attr(feature = "serde", serde(default))]
    pub seed: u64,
    /// Fraction of the initial worker population that lies, in [0, 1].
    /// `ceil(fraction * workers)` liars are selected when positive.
    #[cfg_attr(feature = "serde", serde(default))]
    pub fraction: f64,
    /// The distortion every liar applies.
    #[cfg_attr(feature = "serde", serde(default))]
    pub policy: LiePolicy,
    /// Distortion strength: divisor for under-reporting, multiplier for
    /// over-reporting, spread bound for noise. Must be ≥ 1.
    #[cfg_attr(feature = "serde", serde(default = "default_gain"))]
    pub gain: u64,
}

fn default_gain() -> u64 {
    4
}

impl Default for AdversaryPlan {
    fn default() -> AdversaryPlan {
        AdversaryPlan {
            seed: 0,
            fraction: 0.0,
            policy: LiePolicy::UnderReport,
            gain: 4,
        }
    }
}

impl AdversaryPlan {
    /// A plan marking `fraction` of workers as liars under `policy`.
    pub fn lying(seed: u64, fraction: f64, policy: LiePolicy) -> AdversaryPlan {
        AdversaryPlan {
            seed,
            fraction,
            policy,
            ..AdversaryPlan::default()
        }
    }

    /// True when the plan can affect a run at all.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Checks rates and bounds; `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.fraction) || self.fraction.is_nan() {
            return Err(format!("fraction must be in [0, 1], got {}", self.fraction));
        }
        if self.gain == 0 {
            return Err("gain must be at least 1".into());
        }
        Ok(())
    }
}

/// An [`AdversaryPlan`] armed for a run: the liar set, drawn once from
/// the dedicated stream. Query-time lying is stateless — no RNG, no
/// interior mutability — so it is trivially `Sync` and identical across
/// substrates and thread counts.
#[derive(Debug, Clone)]
pub struct AdversaryState {
    plan: AdversaryPlan,
    liars: BTreeSet<usize>,
}

impl AdversaryState {
    /// Arms a plan over an initial population of `workers`. Liars are
    /// drawn by a partial Fisher–Yates over the worker indices using
    /// the dedicated stream; a zero fraction draws nothing. Workers
    /// churned in later (indices ≥ `workers`) are always honest.
    pub fn new(plan: AdversaryPlan, workers: usize) -> AdversaryState {
        #[cfg(feature = "strict")]
        // autobal-lint: allow(panic-safety, "strict mode is opt-in and fails loudly by design")
        plan.validate().expect("invalid adversary plan");
        let mut liars = BTreeSet::new();
        if plan.fraction > 0.0 && workers > 0 {
            let want = ((plan.fraction * workers as f64).ceil() as usize).min(workers);
            let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ ADVERSARY_SALT);
            let mut pool: Vec<usize> = (0..workers).collect();
            for i in 0..want {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
                if let Some(&picked) = pool.get(i) {
                    liars.insert(picked);
                }
            }
        }
        AdversaryState { plan, liars }
    }

    /// The state every run starts with: everyone is honest.
    pub fn inert() -> AdversaryState {
        AdversaryState::new(AdversaryPlan::default(), 0)
    }

    /// The plan this state was armed with.
    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    /// See [`AdversaryPlan::is_active`].
    pub fn is_active(&self) -> bool {
        self.plan.is_active() && !self.liars.is_empty()
    }

    /// The distorted load worker `w` reports at time `now` when its
    /// true load is `true_load` — or `None` if `w` answers honestly.
    /// Pure function of the inputs: no RNG, no state, so both real
    /// substrates distort identically and replays are exact.
    pub fn lie(&self, w: usize, true_load: u64, now: u64) -> Option<u64> {
        if !self.liars.contains(&w) {
            return None;
        }
        let gain = self.plan.gain.max(1);
        let lied = match self.plan.policy {
            LiePolicy::UnderReport => true_load / gain,
            LiePolicy::OverReport => true_load.saturating_mul(gain).saturating_add(gain),
            LiePolicy::RandomNoise => {
                // splitmix64 over (seed, worker, now): deterministic
                // noise without touching any stream.
                let mut x = self
                    .plan
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((w as u64) << 32)
                    .wrapping_add(now);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                if x & 1 == 0 {
                    true_load / gain
                } else {
                    true_load.saturating_mul(gain).saturating_add(gain)
                }
            }
            LiePolicy::FlipFlop => {
                if now & 1 == 0 {
                    true_load / gain
                } else {
                    true_load.saturating_mul(gain).saturating_add(gain)
                }
            }
        };
        Some(lied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = AdversaryPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        let st = AdversaryState::new(plan, 64);
        assert!(!st.is_active());
        assert!(st.liars.is_empty());
        for w in 0..64 {
            assert_eq!(st.lie(w, 17, 5), None, "inert plan must never lie");
        }
        // A zero fraction never touches the stream, so two states over
        // different populations are indistinguishable.
        let other = AdversaryState::new(AdversaryPlan::default(), 4096);
        assert_eq!(st.liars, other.liars);
    }

    #[test]
    fn fraction_selects_the_ceiling_count() {
        let st = AdversaryState::new(AdversaryPlan::lying(7, 0.25, LiePolicy::UnderReport), 10);
        assert_eq!(st.liars.len(), 3, "ceil(0.25 * 10) = 3");
        assert!(st.is_active());
        let all = AdversaryState::new(AdversaryPlan::lying(7, 1.0, LiePolicy::UnderReport), 10);
        assert_eq!(all.liars.len(), 10);
    }

    #[test]
    fn liar_selection_is_seed_deterministic() {
        let a = AdversaryState::new(AdversaryPlan::lying(9, 0.3, LiePolicy::OverReport), 40);
        let b = AdversaryState::new(AdversaryPlan::lying(9, 0.3, LiePolicy::OverReport), 40);
        assert_eq!(a.liars, b.liars);
        let c = AdversaryState::new(AdversaryPlan::lying(10, 0.3, LiePolicy::OverReport), 40);
        assert_ne!(a.liars, c.liars, "different seed, different liars");
    }

    #[test]
    fn policies_distort_as_documented() {
        let mk = |policy| AdversaryState::new(AdversaryPlan::lying(1, 1.0, policy), 4);
        let under = mk(LiePolicy::UnderReport);
        assert_eq!(under.lie(0, 40, 0), Some(10));
        assert_eq!(under.lie(0, 3, 0), Some(0), "small loads vanish");

        let over = mk(LiePolicy::OverReport);
        assert_eq!(over.lie(0, 40, 0), Some(164));
        assert_eq!(over.lie(0, 0, 0), Some(4), "idle liars still look busy");

        let flip = mk(LiePolicy::FlipFlop);
        assert_eq!(flip.lie(0, 40, 0), Some(10), "even time under-reports");
        assert_eq!(flip.lie(0, 40, 1), Some(164), "odd time over-reports");

        let noise = mk(LiePolicy::RandomNoise);
        let v1 = noise.lie(0, 40, 0);
        assert_eq!(v1, noise.lie(0, 40, 0), "noise is a pure function");
        assert!(matches!(v1, Some(10) | Some(164)));
        // Across times the hash flips direction at least once.
        let dirs: BTreeSet<u64> = (0..32).filter_map(|t| noise.lie(0, 40, t)).collect();
        assert!(dirs.len() > 1, "noise never varied over 32 times");
    }

    #[test]
    fn honest_workers_and_late_joiners_never_lie() {
        let st = AdversaryState::new(AdversaryPlan::lying(3, 0.5, LiePolicy::OverReport), 8);
        for w in 0..8 {
            assert_eq!(st.lie(w, 10, 2).is_some(), st.liars.contains(&w));
        }
        // Churn-pool indices beyond the initial population are honest.
        assert_eq!(st.lie(8, 10, 2), None);
        assert_eq!(st.lie(10_000, 10, 2), None);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(AdversaryPlan::lying(0, 1.5, LiePolicy::UnderReport)
            .validate()
            .is_err());
        assert!(AdversaryPlan::lying(0, -0.1, LiePolicy::UnderReport)
            .validate()
            .is_err());
        assert!(AdversaryPlan {
            gain: 0,
            ..AdversaryPlan::default()
        }
        .validate()
        .is_err());
        assert!(AdversaryPlan::lying(0, 0.2, LiePolicy::FlipFlop)
            .validate()
            .is_ok());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn plan_roundtrips_through_serde_defaults() {
        let plan = AdversaryPlan {
            fraction: 0.25,
            policy: LiePolicy::FlipFlop,
            seed: 11,
            ..AdversaryPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: AdversaryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Partial configs fill in defaults.
        let partial: AdversaryPlan = serde_json::from_str(r#"{"fraction":0.2}"#).unwrap();
        assert_eq!(partial.gain, 4);
        assert_eq!(partial.policy, LiePolicy::UnderReport);
        assert_eq!(partial.fraction, 0.2);
    }
}
