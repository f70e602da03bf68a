//! Cross-checking probe defense against Byzantine load reporters.
//!
//! The paper's Sybil strategies steer entirely by the loads neighbors
//! *report*, so one dishonest responder can attract or repel the whole
//! balancing machinery. [`CrossCheck`] wraps any per-node strategy and
//! hardens its `query_load` calls: each probe about a target is asked
//! `k` extra times through distinct relay neighbors
//! ([`Actions::query_load_via`], each billed as a real `LoadQuery`),
//! the answers are combined by a robust **median** aggregator, and
//! reporters whose answers repeatedly deviate from the consensus
//! accumulate suspicion until they are **quarantined** — from then on
//! the wrapped strategy sees them as [`ActionError::Unreachable`] and
//! routes work elsewhere.
//!
//! The wrapper only touches the [`LocalView`]/[`Actions`] surface (no
//! substrate internals, enforced by autobal-lint rule S) and keeps its
//! suspicion table behind a `Mutex` because [`Strategy`] methods take
//! `&self`. It draws no RNG: relay selection walks the successor list
//! in order, so identical runs cross-check identically on every
//! substrate and thread count.

use super::{
    ActionError, Actions, ChurnOps, LocalView, NodeContext, Strategy, StrategyParams, StrategyScope,
};
use autobal_id::Id;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Knobs for the cross-checking defense. The default is disabled
/// (`k == 0`): [`wrap_if_enabled`] returns the inner strategy untouched
/// and not a single extra message is sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheckConfig {
    /// Redundant probes per load query, routed via distinct relay
    /// neighbors. `0` disables the wrapper entirely.
    pub k: usize,
    /// A report deviating from the median estimate by more than
    /// `tolerance * max(estimate, 1)` counts as a conflict.
    pub tolerance: f64,
    /// Conflicts a reporter may accumulate before quarantine.
    pub quarantine_after: u32,
}

impl Default for CrossCheckConfig {
    fn default() -> CrossCheckConfig {
        CrossCheckConfig {
            k: 0,
            tolerance: 0.5,
            quarantine_after: 3,
        }
    }
}

impl CrossCheckConfig {
    /// A config probing through `k` relays with the default thresholds.
    pub fn with_budget(k: usize) -> CrossCheckConfig {
        CrossCheckConfig {
            k,
            ..CrossCheckConfig::default()
        }
    }

    /// True when the wrapper would change anything at all.
    pub fn is_active(&self) -> bool {
        self.k > 0
    }

    /// Checks bounds; `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=f64::MAX).contains(&self.tolerance) || self.tolerance.is_nan() {
            return Err(format!(
                "tolerance must be non-negative, got {}",
                self.tolerance
            ));
        }
        if self.quarantine_after == 0 {
            return Err("quarantine_after must be at least 1".into());
        }
        Ok(())
    }
}

/// Per-run defense state shared across all checked nodes: every worker
/// contributes observations about the same reporters, so suspicion
/// accumulates network-wide (gossip-free collective memory — the
/// simplification is documented in DESIGN.md).
#[derive(Debug, Default)]
struct DefenseState {
    suspicion: BTreeMap<Id, u32>,
    quarantined: BTreeSet<Id>,
}

/// A [`Strategy`] decorator adding cross-checked load queries and
/// reporter quarantine around any inner per-node strategy. Transparent
/// to telemetry: `name()` delegates, so decision spans keep the inner
/// strategy's label and parity pins hold when the wrapper is inert.
pub struct CrossCheck {
    inner: Box<dyn Strategy>,
    cfg: CrossCheckConfig,
    state: Mutex<DefenseState>,
}

impl CrossCheck {
    pub fn new(inner: Box<dyn Strategy>, cfg: CrossCheckConfig) -> CrossCheck {
        CrossCheck {
            inner,
            cfg,
            state: Mutex::new(DefenseState::default()),
        }
    }
}

/// Wraps `inner` in a [`CrossCheck`] when the config asks for probes;
/// hands it back untouched (zero overhead, bit-for-bit) when not.
pub fn wrap_if_enabled(inner: Box<dyn Strategy>, cfg: &CrossCheckConfig) -> Box<dyn Strategy> {
    if cfg.is_active() {
        Box::new(CrossCheck::new(inner, *cfg))
    } else {
        inner
    }
}

impl Strategy for CrossCheck {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scope(&self) -> StrategyScope {
        self.inner.scope()
    }

    fn on_tick(&self, ops: &mut dyn ChurnOps) {
        self.inner.on_tick(ops);
    }

    fn check_node(&self, ctx: &mut dyn NodeContext) {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut checked = CheckedCtx {
            inner: ctx,
            cfg: &self.cfg,
            state: &mut guard,
        };
        self.inner.check_node(&mut checked);
    }
}

/// The hardened context handed to the inner strategy: every
/// `query_load` becomes a cross-checked round; everything else
/// delegates untouched.
struct CheckedCtx<'a> {
    inner: &'a mut dyn NodeContext,
    cfg: &'a CrossCheckConfig,
    state: &'a mut DefenseState,
}

impl CheckedCtx<'_> {
    /// One report deviates from the estimate beyond tolerance?
    fn conflicts(&self, report: u64, estimate: u64) -> bool {
        let spread = self.cfg.tolerance * estimate.max(1) as f64;
        (report.abs_diff(estimate)) as f64 > spread
    }

    /// Books one conflicting report against `reporter`; quarantines it
    /// at the threshold and tells the substrate when that happens.
    fn suspect(&mut self, reporter: Id) {
        let s = self.state.suspicion.entry(reporter).or_insert(0);
        *s += 1;
        let crossed = *s >= self.cfg.quarantine_after;
        let count = u64::from(*s);
        if crossed && self.state.quarantined.insert(reporter) {
            self.inner.note_quarantine(reporter, count);
        }
    }
}

impl LocalView for CheckedCtx<'_> {
    fn params(&self) -> StrategyParams {
        self.inner.params()
    }
    fn load(&self) -> u64 {
        self.inner.load()
    }
    fn sybil_count(&self) -> usize {
        self.inner.sybil_count()
    }
    fn sybil_slots_left(&self) -> u32 {
        self.inner.sybil_slots_left()
    }
    fn primary(&self) -> Id {
        self.inner.primary()
    }
    fn own_vnode_loads(&mut self) -> &[(Id, u64)] {
        self.inner.own_vnode_loads()
    }
    fn successor_list(&mut self) -> &[Id] {
        self.inner.successor_list()
    }
}

impl Actions for CheckedCtx<'_> {
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        if self.state.quarantined.contains(&neighbor) {
            // The strategy treats a quarantined reporter like a dead
            // one and routes its balancing elsewhere.
            return Err(ActionError::Unreachable);
        }
        // Direct answer first — the target speaks for itself …
        let direct = self.inner.query_load(neighbor);
        // … then up to `k` second opinions via distinct relays, walking
        // the successor list in its deterministic order.
        let relays: Vec<Id> = self
            .inner
            .successor_list()
            .iter()
            .copied()
            .filter(|r| *r != neighbor && !self.state.quarantined.contains(r))
            .take(self.cfg.k)
            .collect();
        let mut reports: Vec<(Id, u64)> = Vec::with_capacity(1 + relays.len());
        if let Ok(v) = direct {
            reports.push((neighbor, v));
        }
        for relay in relays {
            if let Ok(v) = self.inner.query_load_via(relay, neighbor) {
                reports.push((relay, v));
            }
        }
        if reports.is_empty() {
            // Nothing answered; surface the direct error (or a timeout
            // when only relays were tried and all failed).
            return Err(direct.err().unwrap_or(ActionError::TimedOut));
        }
        let mut values: Vec<u64> = reports.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        let estimate = values[(values.len() - 1) / 2];
        let mut agreed = true;
        for &(reporter, v) in &reports {
            if self.conflicts(v, estimate) {
                agreed = false;
                self.suspect(reporter);
            }
        }
        self.inner.note_probe(neighbor, agreed, estimate);
        Ok(estimate)
    }

    fn random_id(&mut self) -> Id {
        self.inner.random_id()
    }
    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError> {
        self.inner.spawn_sybil(pos)
    }
    fn retire_sybils(&mut self) {
        self.inner.retire_sybils();
    }
    fn split_target(&mut self, victim: Id) -> Option<Id> {
        self.inner.split_target(victim)
    }
    fn invite(&mut self, hot: Id) -> super::InviteOutcome {
        self.inner.invite(hot)
    }
    fn note_gap_split(&mut self, pos: Id) {
        self.inner.note_gap_split(pos);
    }
    fn query_load_via(&mut self, relay: Id, target: Id) -> Result<u64, ActionError> {
        self.inner.query_load_via(relay, target)
    }
    fn note_probe(&mut self, target: Id, agreed: bool, estimate: u64) {
        self.inner.note_probe(target, agreed, estimate);
    }
    fn note_quarantine(&mut self, reporter: Id, suspicion: u64) {
        self.inner.note_quarantine(reporter, suspicion);
    }
}

#[cfg(test)]
mod tests {
    use super::super::InviteOutcome;
    use super::*;

    /// A scripted world: fixed successor list, per-id true loads, one
    /// id that lies when asked directly, honest relays. Records every
    /// billed probe and every telemetry hook.
    struct MockCtx {
        succs: Vec<Id>,
        loads: BTreeMap<Id, u64>,
        liar: Option<Id>,
        lie_value: u64,
        billed: u64,
        probes: Vec<(Id, bool, u64)>,
        quarantines: Vec<(Id, u64)>,
    }

    impl MockCtx {
        fn new(liar: Option<Id>, lie_value: u64) -> MockCtx {
            let succs: Vec<Id> = (1u64..=4).map(Id::from).collect();
            let loads = succs.iter().map(|&s| (s, 40u64)).collect();
            MockCtx {
                succs,
                loads,
                liar,
                lie_value,
                billed: 0,
                probes: Vec::new(),
                quarantines: Vec::new(),
            }
        }
    }

    impl LocalView for MockCtx {
        fn params(&self) -> StrategyParams {
            StrategyParams {
                sybil_threshold: 1,
                overload_threshold: 100,
                num_neighbors: 4,
                chosen_ids: false,
                strength_aware_invitation: false,
            }
        }
        fn load(&self) -> u64 {
            0
        }
        fn sybil_count(&self) -> usize {
            0
        }
        fn sybil_slots_left(&self) -> u32 {
            5
        }
        fn primary(&self) -> Id {
            Id::from(0u64)
        }
        fn own_vnode_loads(&mut self) -> &[(Id, u64)] {
            &[(Id::ZERO, 0)]
        }
        fn successor_list(&mut self) -> &[Id] {
            &self.succs
        }
    }

    impl Actions for MockCtx {
        fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
            self.billed += 1;
            if self.liar == Some(neighbor) {
                return Ok(self.lie_value);
            }
            self.loads
                .get(&neighbor)
                .copied()
                .ok_or(ActionError::Unreachable)
        }
        fn random_id(&mut self) -> Id {
            Id::from(99u64)
        }
        fn spawn_sybil(&mut self, _pos: Id) -> Result<u64, ActionError> {
            Ok(0)
        }
        fn retire_sybils(&mut self) {}
        fn split_target(&mut self, victim: Id) -> Option<Id> {
            Some(victim)
        }
        fn invite(&mut self, _hot: Id) -> InviteOutcome {
            InviteOutcome::NoNeighbors
        }
        fn query_load_via(&mut self, _relay: Id, target: Id) -> Result<u64, ActionError> {
            // Relays are honest in this mock: they report the truth.
            self.billed += 1;
            self.loads
                .get(&target)
                .copied()
                .ok_or(ActionError::Unreachable)
        }
        fn note_probe(&mut self, target: Id, agreed: bool, estimate: u64) {
            self.probes.push((target, agreed, estimate));
        }
        fn note_quarantine(&mut self, reporter: Id, suspicion: u64) {
            self.quarantines.push((reporter, suspicion));
        }
    }

    fn checked_query(
        ctx: &mut MockCtx,
        cfg: &CrossCheckConfig,
        state: &mut DefenseState,
        target: Id,
    ) -> Result<u64, ActionError> {
        let mut checked = CheckedCtx {
            inner: ctx,
            cfg,
            state,
        };
        checked.query_load(target)
    }

    #[test]
    fn median_overrides_a_lying_target() {
        let liar = Id::from(1u64);
        let mut ctx = MockCtx::new(Some(liar), 2); // true load 40, reports 2
        let cfg = CrossCheckConfig::with_budget(2);
        let mut state = DefenseState::default();
        let est = checked_query(&mut ctx, &cfg, &mut state, liar);
        // Reports: direct lie (2) + two honest relays (40, 40) → median 40.
        assert_eq!(est, Ok(40));
        assert_eq!(ctx.billed, 3, "one direct + k relayed probes billed");
        assert_eq!(state.suspicion.get(&liar), Some(&1));
        assert_eq!(ctx.probes, vec![(liar, false, 40)], "conflict recorded");
    }

    #[test]
    fn honest_rounds_agree_and_book_no_suspicion() {
        let target = Id::from(2u64);
        let mut ctx = MockCtx::new(None, 0);
        let cfg = CrossCheckConfig::with_budget(2);
        let mut state = DefenseState::default();
        assert_eq!(checked_query(&mut ctx, &cfg, &mut state, target), Ok(40));
        assert!(state.suspicion.is_empty());
        assert_eq!(ctx.probes, vec![(target, true, 40)]);
        assert!(ctx.quarantines.is_empty());
    }

    #[test]
    fn repeated_conflicts_escalate_to_quarantine() {
        let liar = Id::from(1u64);
        let mut ctx = MockCtx::new(Some(liar), 500);
        let cfg = CrossCheckConfig::with_budget(2);
        let mut state = DefenseState::default();
        for _ in 0..cfg.quarantine_after {
            assert_eq!(checked_query(&mut ctx, &cfg, &mut state, liar), Ok(40));
        }
        assert_eq!(
            ctx.quarantines,
            vec![(liar, u64::from(cfg.quarantine_after))]
        );
        // From now on the liar reads as unreachable and costs nothing.
        let billed = ctx.billed;
        assert_eq!(
            checked_query(&mut ctx, &cfg, &mut state, liar),
            Err(ActionError::Unreachable)
        );
        assert_eq!(ctx.billed, billed, "quarantined probes are free");
        // Honest targets still answer, and the quarantined id is
        // skipped as a relay.
        assert_eq!(
            checked_query(&mut ctx, &cfg, &mut state, Id::from(2u64)),
            Ok(40)
        );
    }

    #[test]
    fn wrapper_is_transparent_and_default_is_inert() {
        let cfg = CrossCheckConfig::default();
        assert!(!cfg.is_active());
        assert!(cfg.validate().is_ok());
        let inner = super::super::strategy_for(crate::config::StrategyKind::SmartNeighbor)
            .expect("smart neighbor exists");
        let name = inner.name();
        let same = wrap_if_enabled(inner, &cfg);
        assert_eq!(same.name(), name, "inert config returns inner untouched");

        let wrapped = wrap_if_enabled(same, &CrossCheckConfig::with_budget(2));
        assert_eq!(wrapped.name(), name, "decorator keeps the inner label");
        assert_eq!(wrapped.scope(), StrategyScope::PerNode);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(CrossCheckConfig {
            tolerance: -0.5,
            ..CrossCheckConfig::default()
        }
        .validate()
        .is_err());
        assert!(CrossCheckConfig {
            tolerance: f64::NAN,
            ..CrossCheckConfig::default()
        }
        .validate()
        .is_err());
        assert!(CrossCheckConfig {
            quarantine_after: 0,
            ..CrossCheckConfig::default()
        }
        .validate()
        .is_err());
    }
}
