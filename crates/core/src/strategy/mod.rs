//! The four autonomous load-balancing strategies of §IV (plus the smart
//! neighbor-injection variant of §VI-C), written against a
//! substrate-agnostic trait so the *same* strategy code runs on both the
//! oracle ring ([`crate::sim::Sim`]) and a real Chord protocol stack.
//!
//! # Architecture
//!
//! A [`Strategy`] never touches simulator state directly. It sees the
//! world through a [`NodeContext`] — the pairing of [`LocalView`] (what
//! the paper grants a node: its own load, Sybil budget, and successor
//! list) and [`Actions`] (what a node can do: query a neighbor's load,
//! spawn or retire Sybils, invite help). Each substrate implements the
//! context over its own data structures and pays for information
//! honestly: `query_load` costs one `LoadQuery` message on *both*
//! substrates, and `invite` one `Invitation`.
//!
//! Three scopes of strategy exist ([`StrategyScope`]):
//!
//! * **TickOnly** — [`churn::BackgroundChurn`] fires every tick through
//!   [`ChurnOps`], not on the check cadence.
//! * **PerNode** — the paper's Sybil strategies; each active worker gets
//!   a [`Strategy::check_node`] call every `check_interval` ticks.
//! * **Omniscient** — the centralized comparator, which legitimately
//!   sees everything via [`OracleView`]. Only the oracle-ring substrate
//!   provides that view; a real network cannot.
//!
//! [`StrategyStack`] composes layers (background churn under any Sybil
//! strategy) and [`stack_for`] builds the stack a [`SimConfig`] asks
//! for. The [`Substrate`] trait is the dispatch surface each engine
//! implements; control is inverted — the substrate builds its concrete
//! context and hands it to the strategy as `&mut dyn NodeContext` — so
//! substrates need no generics and strategies stay object-safe.
//!
//! Random injection additionally applies the §IV-B housekeeping rule —
//! *"if a node has at least one Sybil, but no work, it has its Sybils
//! quit the network"* — so stale Sybils release their ring positions
//! (and budget) for a fresh attempt in the same decision. The paper
//! describes no such rule for neighbor injection or invitation, and
//! their §VI results (both can trail plain churn) are consistent with
//! nodes getting permanently stuck once their Sybil budget is spent;
//! we reproduce that behavior.

pub mod churn;
pub mod crosscheck;
pub mod invitation;
pub mod neighbor;
pub mod oracle;
pub mod random;

use crate::config::{SimConfig, StrategyKind};
use crate::worker::WorkerId;
use autobal_id::Id;
use autobal_stats::rng::DetRng;

/// The strategy-relevant configuration every node knows (§V: nodes are
/// told the job parameters at start-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyParams {
    /// A node at or below this load may volunteer a Sybil (§IV-B).
    pub sybil_threshold: u64,
    /// A node above this load calls for help (§IV-D).
    pub overload_threshold: u64,
    /// How many successors/predecessors a node tracks (§IV-C/§IV-D).
    pub num_neighbors: usize,
    /// §VII chosen-ID extension: split at the victim's task median.
    pub chosen_ids: bool,
    /// §VII extension: prefer the strongest eligible helper.
    pub strength_aware_invitation: bool,
}

/// What a node can *see* without spending messages: its own state plus
/// the neighbor lists Chord maintains anyway.
pub trait LocalView {
    /// Job parameters known network-wide.
    fn params(&self) -> StrategyParams;
    /// This worker's total remaining tasks across all its vnodes.
    fn load(&self) -> u64;
    /// Live Sybils this worker currently controls.
    fn sybil_count(&self) -> usize;
    /// Sybil budget still unspent.
    fn sybil_slots_left(&self) -> u32;
    /// Ring position of the worker's primary virtual node.
    fn primary(&self) -> Id;
    /// The worker's own vnode positions with their (self-known) loads:
    /// primary first, then static virtual servers, then Sybils. The
    /// slice is a buffer the context refills on each call.
    fn own_vnode_loads(&mut self) -> &[(Id, u64)];
    /// The primary's successor list, nearest first (free: Chord state),
    /// in a buffer the context refills on each call.
    fn successor_list(&mut self) -> &[Id];
}

/// Why a strategy action failed. The oracle-ring substrate only ever
/// produces [`ActionError::Occupied`] (its transport is infallible);
/// the protocol substrate surfaces real network adversity as
/// [`ActionError::Unreachable`] / [`ActionError::TimedOut`], and
/// strategies are expected to degrade gracefully rather than panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionError {
    /// The requested ring position is already taken.
    Occupied,
    /// The peer is dead or behind a partition; no reply will ever come.
    Unreachable,
    /// The operation exhausted its retry budget on a lossy link.
    TimedOut,
}

impl std::fmt::Display for ActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionError::Occupied => write!(f, "ring position occupied"),
            ActionError::Unreachable => write!(f, "peer unreachable"),
            ActionError::TimedOut => write!(f, "operation timed out"),
        }
    }
}

/// What a node can *do* — every observable query is charged to the
/// substrate's message counters. Message-bearing actions are fallible:
/// on a real (faulty) network a probe can time out and a join can fail,
/// and each strategy defines its own fallback (see the strategy docs).
pub trait Actions {
    /// Asks `neighbor` for its remaining task count. Costs one
    /// `LoadQuery` message even when the reply is lost.
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError>;
    /// Draws a uniformly random ring address from the strategy stream.
    fn random_id(&mut self) -> Id;
    /// Joins a Sybil of this worker at `pos`; `Ok(acquired_tasks)` on
    /// success, `Err(Occupied)` if the position is taken, or a network
    /// error when the join itself could not complete.
    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError>;
    /// All of this worker's Sybils quit the network.
    fn retire_sybils(&mut self);
    /// Where a Sybil targeting `victim`'s arc should land: the ID-space
    /// midpoint of the arc, or the victim's remaining-task median under
    /// the chosen-ID extension (when the substrate can compute it).
    fn split_target(&mut self, victim: Id) -> Option<Id>;
    /// Announces overload from own vnode `hot` to its predecessor list
    /// (§IV-D). The substrate selects the helper via
    /// [`invitation::pick_helper`] and performs the Sybil join. Costs
    /// one `Invitation` message unless no predecessor exists.
    fn invite(&mut self, hot: Id) -> InviteOutcome;
    /// Tells the substrate the upcoming [`Actions::spawn_sybil`] at
    /// `pos` came from the *gap estimate* (plain neighbor injection or
    /// the smart variant's no-answer fallback) rather than a measured
    /// probe. Pure observability — costs no messages, draws no RNG —
    /// so the default is a no-op and substrates without telemetry
    /// ignore it.
    fn note_gap_split(&mut self, _pos: Id) {}
    /// Asks `relay` what it believes `target`'s remaining task count
    /// is (replica knowledge: successors carry each other's key
    /// ranges). Costs one `LoadQuery` like a direct probe. The default
    /// falls back to asking `target` directly, which is exact on
    /// substrates without Byzantine reporters (the oracle ring).
    fn query_load_via(&mut self, _relay: Id, target: Id) -> Result<u64, ActionError> {
        self.query_load(target)
    }
    /// Telemetry hook: a cross-checking probe round about `target`
    /// finished with `agreed` (reporters within tolerance) and the
    /// robust `estimate`. No messages, no RNG; default no-op.
    fn note_probe(&mut self, _target: Id, _agreed: bool, _estimate: u64) {}
    /// Telemetry hook: `reporter` crossed the suspicion threshold and
    /// is quarantined from now on. No messages, no RNG; default no-op.
    fn note_quarantine(&mut self, _reporter: Id, _suspicion: u64) {}
}

/// Result of an [`Actions::invite`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InviteOutcome {
    /// The vnode has no predecessors to ask (degenerate ring); no
    /// invitation was sent or counted.
    NoNeighbors,
    /// The invitation was sent but no helper qualified (or the helper's
    /// join failed); counted as refused.
    Refused,
    /// The announcement was eaten by the network (loss or partition)
    /// before any predecessor heard it. Still costs the `Invitation`
    /// message; the node naturally re-announces on its next check.
    Unreachable,
    /// A helper split the inviter's arc and took `acquired` tasks.
    Helped { acquired: u64 },
}

/// The full per-node decision surface a substrate hands a strategy.
pub trait NodeContext: LocalView + Actions {}
impl<T: LocalView + Actions + ?Sized> NodeContext for T {}

/// Population-churn surface (§IV-A), driven once per tick by
/// [`churn::BackgroundChurn`]. A substrate implements the primitives;
/// the pass itself is the provided [`ChurnOps::churn_pass`], so a tick
/// makes one virtual call and every per-candidate call inside it is
/// static.
pub trait ChurnOps {
    /// Size of the worker table; workers are `0..worker_slots()`, and
    /// the active ones in that order are the leave candidates.
    fn worker_slots(&self) -> usize;
    /// Whether `w` is active (a leave candidate).
    fn is_active(&self, w: WorkerId) -> bool;
    /// Current active population.
    fn active_count(&self) -> usize;
    /// The churn random stream.
    fn churn_rng(&mut self) -> &mut DetRng;
    /// `w` departs: its vnodes dissolve and it joins the end of the
    /// waiting pool.
    fn depart(&mut self, w: WorkerId);
    /// The waiting pool, in join-trial order.
    fn waiting(&mut self) -> &mut Vec<WorkerId>;
    /// `w`, still listed in the waiting pool, rejoins at a fresh random
    /// position and acquires its arc's work. Returns `false` when the
    /// join failed and `w` stays waiting; the pass keeps its entry.
    fn rejoin(&mut self, w: WorkerId) -> bool;
    /// One tick of churn: a leave trial at `leave_p` for each active
    /// worker, then a join trial at `join_p` for each waiting one.
    fn churn_pass(&mut self, leave_p: f64, join_p: f64) {
        churn::churn_pass(self, leave_p, join_p);
    }
}

/// The global view only a centralized coordinator has. Deliberately
/// *not* implementable on a real network — that asymmetry is the point
/// of the comparator.
pub trait OracleView {
    /// Total worker-table size (active and waiting).
    fn worker_count(&self) -> usize;
    fn is_worker_active(&self, w: WorkerId) -> bool;
    fn worker_load(&self, w: WorkerId) -> u64;
    /// Whether `w` may spawn a Sybil right now (active, under the
    /// threshold, budget left).
    fn worker_can_spawn(&self, w: WorkerId) -> bool;
    /// Every vnode's load, in ring order.
    fn vnode_loads(&self) -> Vec<(Id, u64)>;
    /// Live load of one vnode.
    fn vnode_load(&self, v: Id) -> u64;
    /// The median remaining-task key of `v`'s arc.
    fn median_task_key(&self, v: Id) -> Option<Id>;
    /// Forces worker `w` to spawn a Sybil at `pos`.
    fn spawn_sybil_for(&mut self, w: WorkerId, pos: Id) -> Option<u64>;
}

/// When and how a strategy layer is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyScope {
    /// Runs every tick via [`Strategy::on_tick`] (churn).
    TickOnly,
    /// Runs per active worker on check ticks via
    /// [`Strategy::check_node`].
    PerNode,
    /// Runs once per check tick with the global view via
    /// [`Strategy::check_global`] (oracle-ring substrate only).
    Omniscient,
}

/// One load-balancing behavior, independent of the substrate it runs on.
pub trait Strategy: Send + Sync {
    /// Short label for traces and registries.
    fn name(&self) -> &'static str;
    /// Dispatch scope; defaults to per-node checks.
    fn scope(&self) -> StrategyScope {
        StrategyScope::PerNode
    }
    /// Called every tick, before any check (population churn).
    fn on_tick(&self, _ops: &mut dyn ChurnOps) {}
    /// Called per active worker on check ticks.
    fn check_node(&self, _ctx: &mut dyn NodeContext) {}
    /// Called once per check tick on substrates that can provide
    /// omniscience.
    fn check_global(&self, _view: &mut dyn OracleView) {}
}

/// The dispatch surface an execution engine implements. Control is
/// inverted: the substrate constructs its concrete node context
/// internally and passes it to the strategy, so implementations need no
/// associated types.
pub trait Substrate {
    /// Writes the active workers in decision order (the order the
    /// original simulator iterated them: worker-table order, inactive
    /// skipped) into `out`, replacing its contents.
    fn decision_order(&self, out: &mut Vec<WorkerId>);
    /// Runs `strategy.check_node` with `w`'s local context.
    fn check_worker(&mut self, w: WorkerId, strategy: &dyn Strategy);
    /// Runs `strategy.check_global` with the omniscient view, if this
    /// substrate has one. Returns `false` when it cannot.
    fn check_omniscient(&mut self, strategy: &dyn Strategy) -> bool;
    /// The substrate's churn surface.
    fn churn_ops(&mut self) -> &mut dyn ChurnOps;
}

/// An ordered composition of strategy layers — e.g. background churn
/// underneath random injection (§VI-B-1's "churn as turbulence").
#[derive(Default)]
pub struct StrategyStack {
    layers: Vec<Box<dyn Strategy>>,
    /// The check tick's decision order, reused from tick to tick.
    order: Vec<WorkerId>,
}

impl StrategyStack {
    pub fn new() -> StrategyStack {
        StrategyStack::default()
    }

    pub fn push(&mut self, layer: Box<dyn Strategy>) {
        self.layers.push(layer);
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer labels in dispatch order.
    pub fn names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs the every-tick phase (churn layers).
    pub fn on_tick(&self, sub: &mut dyn Substrate) {
        for layer in &self.layers {
            if layer.scope() == StrategyScope::TickOnly {
                layer.on_tick(sub.churn_ops());
            }
        }
    }

    /// Does any layer dispatch per worker on check ticks? Event-time
    /// substrates use this to decide whether a check tick needs
    /// per-worker timer events at all.
    pub fn has_per_node(&self) -> bool {
        self.layers
            .iter()
            .any(|l| l.scope() == StrategyScope::PerNode)
    }

    /// Runs every `PerNode` layer for one worker — the scheduling hook
    /// event-time substrates dispatch from per-worker timer events.
    /// [`StrategyStack::on_check`] iterates layer-outer/worker-inner;
    /// this is worker-outer/layer-inner. The two orders coincide
    /// whenever at most one `PerNode` layer is stacked, which holds for
    /// every paper configuration (background churn is `TickOnly`; the
    /// Sybil strategies never stack with each other).
    pub fn check_one(&self, sub: &mut dyn Substrate, w: WorkerId) {
        for layer in &self.layers {
            if layer.scope() == StrategyScope::PerNode {
                sub.check_worker(w, layer.as_ref());
            }
        }
    }

    /// Runs the check-cadence phase (Sybil layers).
    pub fn on_check(&mut self, sub: &mut dyn Substrate) {
        for layer in &self.layers {
            match layer.scope() {
                StrategyScope::TickOnly => {}
                StrategyScope::PerNode => {
                    sub.decision_order(&mut self.order);
                    for &w in &self.order {
                        sub.check_worker(w, layer.as_ref());
                    }
                }
                StrategyScope::Omniscient => {
                    let _ = sub.check_omniscient(layer.as_ref());
                }
            }
        }
    }
}

/// The strategy object for a [`StrategyKind`], if the kind does any
/// balancing beyond churn.
pub fn strategy_for(kind: StrategyKind) -> Option<Box<dyn Strategy>> {
    match kind {
        StrategyKind::None | StrategyKind::Churn => None,
        StrategyKind::RandomInjection => Some(Box::new(random::RandomInjection)),
        StrategyKind::NeighborInjection => Some(Box::new(neighbor::NeighborInjection::plain())),
        StrategyKind::SmartNeighbor => Some(Box::new(neighbor::NeighborInjection::smart())),
        StrategyKind::Invitation => Some(Box::new(invitation::Invitation)),
        StrategyKind::CentralizedOracle => Some(Box::new(oracle::CentralizedOracle)),
    }
}

/// Builds the layer stack a configuration asks for: background churn
/// first (whenever a churn rate or session model is set), then the
/// configured Sybil strategy.
pub fn stack_for(cfg: &SimConfig) -> StrategyStack {
    let mut stack = StrategyStack::new();
    if cfg.churn_enabled() {
        stack.push(Box::new(churn::BackgroundChurn {
            leave_p: cfg.leave_probability(),
            join_p: cfg.join_probability(),
        }));
    }
    if let Some(s) = strategy_for(cfg.strategy) {
        stack.push(s);
    }
    stack
}

/// Whether the node is eligible to create a new Sybil right now:
/// at/below the Sybil threshold with budget to spare (§IV-B).
pub fn eligible_to_spawn(view: &dyn LocalView) -> bool {
    view.load() <= view.params().sybil_threshold && view.sybil_slots_left() > 0
}

/// Applies the "idle with Sybils → Sybils quit" rule. Returns `true`
/// if the node retired Sybils this check.
pub fn retire_if_idle(ctx: &mut dyn NodeContext) -> bool {
    if ctx.load() == 0 && ctx.sybil_count() > 0 {
        ctx.retire_sybils();
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, StrategyKind};
    use crate::sim::Sim;

    #[test]
    fn can_spawn_respects_threshold_and_budget() {
        let cfg = SimConfig {
            nodes: 10,
            tasks: 1000,
            sybil_threshold: 0,
            strategy: StrategyKind::RandomInjection,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 1);
        // Freshly placed nodes almost surely all have work; find one with
        // load > 0: not eligible.
        let busy = (0..10).find(|&i| sim.workers()[i].load > 0).unwrap();
        assert!(!eligible_to_spawn(&sim.node_ctx(busy)));
        // Drain one worker to zero.
        let victim = busy;
        while sim.workers()[victim].load > 0 {
            let v = sim.workers()[victim].primary;
            sim.ring.pop_task(v);
            sim.workers[victim].load -= 1;
        }
        assert!(eligible_to_spawn(&sim.node_ctx(victim)));
    }

    #[test]
    fn retire_if_idle_only_fires_with_sybils_and_no_work() {
        let cfg = SimConfig {
            nodes: 5,
            tasks: 100,
            strategy: StrategyKind::RandomInjection,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg, 2);
        assert!(!retire_if_idle(&mut sim.node_ctx(0))); // has work, no sybils
                                                        // Give worker 0 a sybil and drain it completely.
        let pos = autobal_id::Id::from(12345u64);
        sim.create_sybil(0, pos).unwrap();
        while sim.workers()[0].load > 0 {
            let vs: Vec<_> = sim.workers()[0].vnodes().collect();
            for v in vs {
                if sim.ring.pop_task(v) {
                    sim.workers[0].load -= 1;
                    break;
                }
            }
        }
        assert!(retire_if_idle(&mut sim.node_ctx(0)));
        assert!(sim.workers()[0].sybils.is_empty());
        assert_eq!(sim.messages().sybils_retired, 1);
    }

    #[test]
    fn registry_builds_the_expected_stacks() {
        let plain = stack_for(&SimConfig {
            strategy: StrategyKind::None,
            ..SimConfig::default()
        });
        assert!(plain.is_empty());

        let churn_only = stack_for(&SimConfig {
            strategy: StrategyKind::Churn,
            churn_rate: 0.05,
            ..SimConfig::default()
        });
        assert_eq!(churn_only.names(), ["churn"]);

        let composed = stack_for(&SimConfig {
            strategy: StrategyKind::SmartNeighbor,
            churn_rate: 0.01,
            ..SimConfig::default()
        });
        assert_eq!(composed.names(), ["churn", "smart-neighbor"]);
    }

    #[test]
    fn every_kind_resolves_to_its_strategy() {
        assert!(strategy_for(StrategyKind::None).is_none());
        assert!(strategy_for(StrategyKind::Churn).is_none());
        let named: Vec<&str> = [
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::SmartNeighbor,
            StrategyKind::Invitation,
            StrategyKind::CentralizedOracle,
        ]
        .into_iter()
        .map(|k| strategy_for(k).unwrap().name())
        .collect();
        assert_eq!(
            named,
            [
                "random-injection",
                "neighbor-injection",
                "smart-neighbor",
                "invitation",
                "centralized-oracle"
            ]
        );
    }

    #[test]
    fn scopes_match_dispatch_expectations() {
        assert_eq!(
            churn::BackgroundChurn {
                leave_p: 0.1,
                join_p: 0.1
            }
            .scope(),
            StrategyScope::TickOnly
        );
        assert_eq!(random::RandomInjection.scope(), StrategyScope::PerNode);
        assert_eq!(oracle::CentralizedOracle.scope(), StrategyScope::Omniscient);
    }
}
