//! The fault-injection plane: deterministic, seeded adversity for both
//! network fidelities.
//!
//! A [`FaultPlan`] is pure configuration — per-message loss, duplication
//! and extra-delay rates, scheduled crash-failures, transient partitions,
//! and the attempt budget the protocol uses to survive them. A
//! [`FaultState`] is the plan armed with its own ChaCha stream: every
//! fault decision draws from this dedicated RNG and from nothing else,
//! and zero-rate paths draw nothing at all, so an inert plan
//! (`FaultPlan::default()`) is bit-for-bit invisible to every other
//! random stream in the system. That invariant is what keeps the
//! fixed-seed parity pins in `tests/strategy_parity.rs` and
//! `tests/differential.rs` valid.

use autobal_id::Id;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A scheduled crash-failure: at time `at` (ticks on the synchronous
/// substrate, time units on the event-driven one), `count` victims are
/// drawn from the live population using the fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CrashEvent {
    /// When the crash strikes (inclusive; applied once).
    pub at: u64,
    /// How many nodes die simultaneously.
    pub count: u32,
}

/// A transient partition: during `[start, end)` the ring is split in two
/// halves at a pivot id derived from the fault seed, and messages that
/// would cross the cut are dropped. Healing is implicit — the window
/// closes and traffic flows again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Partition {
    /// First time unit at which the cut is up.
    pub start: u64,
    /// First time unit at which the cut has healed.
    pub end: u64,
}

/// Declarative description of everything that goes wrong during a run.
///
/// The default plan is fully inert: no loss, no duplication, no delay,
/// no crashes, no partitions — and, crucially, no RNG draws, so a
/// network carrying the default plan behaves identically to one built
/// before the fault plane existed.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultPlan {
    /// Seed for the dedicated fault stream (loss coin flips, crash
    /// victim selection, partition pivots).
    #[cfg_attr(feature = "serde", serde(default))]
    pub seed: u64,
    /// Probability that any given message is silently dropped.
    #[cfg_attr(feature = "serde", serde(default))]
    pub loss_rate: f64,
    /// Probability that a delivered message is delivered twice.
    #[cfg_attr(feature = "serde", serde(default))]
    pub dup_rate: f64,
    /// Probability that a delivered message is delayed by `extra_delay`.
    #[cfg_attr(feature = "serde", serde(default))]
    pub delay_rate: f64,
    /// Additional latency (time units) applied to delayed messages.
    #[cfg_attr(feature = "serde", serde(default))]
    pub extra_delay: u64,
    /// Scheduled crash-failures.
    #[cfg_attr(feature = "serde", serde(default))]
    pub crashes: Vec<CrashEvent>,
    /// Transient partition windows.
    #[cfg_attr(feature = "serde", serde(default))]
    pub partitions: Vec<Partition>,
    /// Bounded-attempt semantics: how many times an operation (lookup
    /// hop, join, async lookup) is tried before reporting `TimedOut`.
    #[cfg_attr(feature = "serde", serde(default = "default_max_attempts"))]
    pub max_attempts: u32,
}

fn default_max_attempts() -> u32 {
    3
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            loss_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            extra_delay: 0,
            crashes: Vec::new(),
            partitions: Vec::new(),
            max_attempts: 3,
        }
    }
}

impl FaultPlan {
    /// A plan that only injects message loss — the most common knob.
    pub fn lossy(seed: u64, loss_rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            loss_rate,
            ..FaultPlan::default()
        }
    }

    /// True when the plan can affect a run at all.
    pub fn is_active(&self) -> bool {
        self.loss_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || !self.crashes.is_empty()
            || !self.partitions.is_empty()
    }

    /// Checks rates and bounds; `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("loss_rate", self.loss_rate),
            ("dup_rate", self.dup_rate),
            ("delay_rate", self.delay_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if self.loss_rate >= 1.0 {
            return Err("loss_rate 1.0 drops every message; nothing can run".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        for p in &self.partitions {
            if p.start >= p.end {
                return Err(format!(
                    "partition window [{}, {}) is empty",
                    p.start, p.end
                ));
            }
        }
        Ok(())
    }
}

/// A [`FaultPlan`] armed for a run: the dedicated RNG plus the derived
/// partition pivots. Lives inside `Network` / `EventNet`.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    /// One pivot id per partition window; nodes on opposite sides of the
    /// pivot cannot talk while the window is open.
    pivots: Vec<Id>,
}

impl FaultState {
    /// Arms a plan. The pivot ids are drawn first so they depend only on
    /// the seed, not on how many messages flowed before a window opens.
    pub fn new(plan: FaultPlan) -> FaultState {
        #[cfg(feature = "strict")]
        // autobal-lint: allow(panic-safety, "strict mode is opt-in and fails loudly by design")
        plan.validate().expect("invalid fault plan");
        let mut rng = ChaCha8Rng::seed_from_u64(plan.seed ^ 0xFA17_FA17);
        let pivots = plan
            .partitions
            .iter()
            .map(|_| Id::random(&mut rng))
            .collect();
        FaultState { plan, rng, pivots }
    }

    /// The state every network starts with: nothing ever goes wrong.
    pub fn inert() -> FaultState {
        FaultState::new(FaultPlan::default())
    }

    /// The plan this state was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// See [`FaultPlan::is_active`].
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Coin flip: is this message lost? Draws nothing at rate zero.
    pub fn lose_message(&mut self) -> bool {
        self.plan.loss_rate > 0.0 && self.rng.gen::<f64>() < self.plan.loss_rate
    }

    /// Coin flip: is this message delivered twice?
    pub fn duplicate_message(&mut self) -> bool {
        self.plan.dup_rate > 0.0 && self.rng.gen::<f64>() < self.plan.dup_rate
    }

    /// Extra latency for this message (0 unless the delay coin hits).
    pub fn extra_delay(&mut self) -> u64 {
        if self.plan.delay_rate > 0.0 && self.rng.gen::<f64>() < self.plan.delay_rate {
            self.plan.extra_delay
        } else {
            0
        }
    }

    /// True when `a` and `b` sit on opposite sides of an open partition
    /// window at time `now`. Purely a function of the plan and seed — no
    /// RNG draw, so it may be polled freely.
    pub fn partitioned(&self, now: u64, a: Id, b: Id) -> bool {
        self.plan
            .partitions
            .iter()
            .zip(&self.pivots)
            .any(|(p, &pivot)| now >= p.start && now < p.end && (a < pivot) != (b < pivot))
    }

    /// Total victims of crash events scheduled in `(since, upto]`.
    pub fn crashes_due(&self, since: u64, upto: u64) -> u32 {
        self.plan
            .crashes
            .iter()
            .filter(|c| c.at > since && c.at <= upto)
            .map(|c| c.count)
            .sum()
    }

    /// The fault stream itself, for victim selection by the harness.
    /// Anything that must stay deterministic under identical plans and
    /// must not perturb workload/strategy streams draws from here.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        let mut st = FaultState::new(plan);
        // No draws on any path: the RNG stays at its initial position.
        let before = st.rng.clone().gen::<u64>();
        assert!(!st.lose_message());
        assert!(!st.duplicate_message());
        assert_eq!(st.extra_delay(), 0);
        assert!(!st.partitioned(5, Id::from(1u64), Id::from(2u64)));
        let after = st.rng.clone().gen::<u64>();
        assert_eq!(before, after, "inert plan must not consume the stream");
    }

    #[test]
    fn lossy_plan_drops_roughly_the_configured_fraction() {
        let mut st = FaultState::new(FaultPlan::lossy(7, 0.25));
        let lost = (0..10_000).filter(|_| st.lose_message()).count();
        assert!((2_000..3_000).contains(&lost), "lost {lost}/10000 at 25%");
    }

    #[test]
    fn identical_seeds_replay_identical_fault_decisions() {
        let plan = FaultPlan {
            loss_rate: 0.3,
            dup_rate: 0.1,
            delay_rate: 0.2,
            extra_delay: 50,
            seed: 99,
            ..FaultPlan::default()
        };
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for _ in 0..1_000 {
            assert_eq!(a.lose_message(), b.lose_message());
            assert_eq!(a.duplicate_message(), b.duplicate_message());
            assert_eq!(a.extra_delay(), b.extra_delay());
        }
    }

    #[test]
    fn partition_splits_only_inside_its_window() {
        let plan = FaultPlan {
            partitions: vec![Partition { start: 10, end: 20 }],
            seed: 3,
            ..FaultPlan::default()
        };
        let st = FaultState::new(plan);
        let pivot = st.pivots[0];
        let below = Id::from(0u64);
        let above = pivot; // >= pivot, so on the other side of `below`
        assert!(below < pivot, "Id::from(0) is the ring minimum");
        assert!(st.partitioned(10, below, above));
        assert!(st.partitioned(19, above, below), "cut is symmetric");
        assert!(!st.partitioned(9, below, above), "window not yet open");
        assert!(!st.partitioned(20, below, above), "window healed");
        assert!(!st.partitioned(15, below, below), "same side always talks");
    }

    #[test]
    fn crashes_due_sums_the_window() {
        let plan = FaultPlan {
            crashes: vec![
                CrashEvent { at: 5, count: 2 },
                CrashEvent { at: 10, count: 1 },
                CrashEvent { at: 15, count: 4 },
            ],
            ..FaultPlan::default()
        };
        let st = FaultState::new(plan);
        assert_eq!(st.crashes_due(0, 4), 0);
        assert_eq!(st.crashes_due(0, 5), 2);
        assert_eq!(st.crashes_due(5, 10), 1);
        assert_eq!(st.crashes_due(0, 100), 7);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::lossy(0, 1.5).validate().is_err());
        assert!(FaultPlan::lossy(0, 1.0).validate().is_err());
        assert!(FaultPlan {
            max_attempts: 0,
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            partitions: vec![Partition { start: 9, end: 9 }],
            ..FaultPlan::default()
        }
        .validate()
        .is_err());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn plan_roundtrips_through_serde_defaults() {
        let plan = FaultPlan {
            loss_rate: 0.1,
            crashes: vec![CrashEvent { at: 40, count: 2 }],
            ..FaultPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Partial configs fill in defaults.
        let partial: FaultPlan = serde_json::from_str(r#"{"loss_rate":0.2}"#).unwrap();
        assert_eq!(partial.max_attempts, 3);
        assert_eq!(partial.loss_rate, 0.2);
    }
}
