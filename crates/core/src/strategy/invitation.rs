//! §IV-D *Invitation* — the reactive strategy.
//!
//! Rather than idle nodes hunting for work (proactive), nodes that find
//! themselves **overburdened** announce for help to their predecessor
//! list. The predecessor with the least work — provided it is at or
//! below the `sybilThreshold` and has Sybil budget left — injects a
//! Sybil into the inviter's range, taking roughly half of its remaining
//! tasks. Invitations are refused when no predecessor qualifies.
//!
//! Overburdened: load > `overload_factor × tasks/nodes`. The paper says
//! nodes decide "using the sybilThreshold parameter" without a formula;
//! since nodes know the job size (§V), the ideal mean is locally
//! computable — see DESIGN.md for this substitution.
//!
//! The strategy itself only decides *when* to call for help and from
//! which of its vnodes; delivering the announcement, filtering eligible
//! predecessors, and performing the helper's join are substrate work
//! behind [`Actions::invite`](super::Actions::invite). Both substrates
//! share the rest of a round: the helper-selection rule
//! [`pick_helper`], and the settlement in the core recorder, whose
//! `Recorder::invitation_sent` records a delivered round and
//! `Recorder::invitation_settled` records it honored or refused. Each
//! substrate keeps only its own way of collecting candidates.

use super::{NodeContext, Strategy};
use crate::worker::WorkerId;

/// The invitation strategy, substrate-agnostic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Invitation;

impl Strategy for Invitation {
    fn name(&self) -> &'static str {
        "invitation"
    }

    fn check_node(&self, ctx: &mut dyn NodeContext) {
        if ctx.load() <= ctx.params().overload_threshold {
            return;
        }
        // The inviter's hottest virtual node is where help is needed.
        // Ties go to the later vnode (matching `Iterator::max_by_key`).
        let mut hot: Option<(autobal_id::Id, u64)> = None;
        for &(v, l) in ctx.own_vnode_loads() {
            if hot.is_none_or(|(_, bl)| l >= bl) {
                hot = Some((v, l));
            }
        }
        match hot {
            Some((v, l)) if l > 0 => {
                // A lost announcement (InviteOutcome::Unreachable) needs
                // no special handling: the node is still overburdened
                // next check and re-announces then — invitation is
                // self-retrying by construction.
                let _ = ctx.invite(v);
            }
            _ => {}
        }
    }
}

/// One predecessor a substrate offers as a potential helper, already
/// filtered for eligibility (active, load ≤ sybilThreshold, Sybil
/// budget left, not the inviter), in predecessor-list order.
#[derive(Debug, Clone, Copy)]
pub struct HelperCandidate {
    pub worker: WorkerId,
    pub strength: u32,
    pub load: u64,
}

/// Selects the helping predecessor among eligible candidates. The
/// paper's rule is least-loaded-first; the §VII strength-aware
/// extension prefers the *strongest* eligible helper (ties broken by
/// least load) so work migrates toward capable machines.
pub fn pick_helper(candidates: &[HelperCandidate], strength_first: bool) -> Option<WorkerId> {
    let mut best: Option<(WorkerId, u32, u64)> = None;
    for c in candidates {
        let better = match best {
            None => true,
            Some((_, bs, bl)) => {
                if strength_first {
                    c.strength > bs || (c.strength == bs && c.load < bl)
                } else {
                    c.load < bl
                }
            }
        };
        if better {
            best = Some((c.worker, c.strength, c.load));
        }
    }
    best.map(|(w, _, _)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, StrategyKind};
    use crate::sim::Sim;

    fn cfg() -> SimConfig {
        SimConfig {
            nodes: 100,
            tasks: 10_000,
            strategy: StrategyKind::Invitation,
            ..SimConfig::default()
        }
    }

    #[test]
    fn invitations_fire_and_help() {
        let res = Sim::new(cfg(), 1).run();
        assert!(res.completed);
        assert!(res.messages.invitations_sent > 0);
        assert!(res.messages.sybils_created > 0);
    }

    #[test]
    fn beats_baseline() {
        let base = Sim::new(
            SimConfig {
                strategy: StrategyKind::None,
                ..cfg()
            },
            2,
        )
        .run();
        let inv = Sim::new(cfg(), 2).run();
        assert!(
            inv.runtime_factor < base.runtime_factor,
            "invitation {} vs baseline {}",
            inv.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn reactive_messaging_is_lighter_than_smart_neighbor() {
        // §VI-D: invitation "uses less bandwidth" than the proactive
        // query strategies.
        let inv = Sim::new(cfg(), 3).run();
        let smart = Sim::new(
            SimConfig {
                strategy: StrategyKind::SmartNeighbor,
                ..cfg()
            },
            3,
        )
        .run();
        let inv_msgs = inv.messages.invitations_sent + inv.messages.load_queries;
        let smart_msgs = smart.messages.invitations_sent + smart.messages.load_queries;
        assert!(
            inv_msgs < smart_msgs,
            "invitation messages {inv_msgs} vs smart neighbor {smart_msgs}"
        );
    }

    #[test]
    fn refusals_counted_when_helpers_are_busy() {
        // With a sky-high overload factor nothing is overburdened ⇒ no
        // invitations at all; with factor near zero everyone invites and
        // busy helpers refuse.
        let quiet = Sim::new(
            SimConfig {
                overload_factor: 1e9,
                ..cfg()
            },
            4,
        )
        .run();
        assert_eq!(quiet.messages.invitations_sent, 0);

        let noisy = Sim::new(
            SimConfig {
                overload_factor: 0.1,
                ..cfg()
            },
            4,
        )
        .run();
        assert!(noisy.messages.invitations_sent > 0);
        assert!(noisy.messages.invitations_refused > 0);
    }

    #[test]
    fn picks_least_loaded_helper() {
        let cands = [
            HelperCandidate {
                worker: 1,
                strength: 1,
                load: 5,
            },
            HelperCandidate {
                worker: 2,
                strength: 3,
                load: 2,
            },
            HelperCandidate {
                worker: 3,
                strength: 5,
                load: 4,
            },
        ];
        assert_eq!(pick_helper(&cands, false), Some(2));
        // Strength-aware prefers the strongest even if busier.
        assert_eq!(pick_helper(&cands, true), Some(3));
        assert_eq!(pick_helper(&[], false), None);
    }

    #[test]
    fn tasks_conserved() {
        let mut sim = Sim::new(cfg(), 5);
        let mut consumed = 0;
        for _ in 0..60 {
            consumed += sim.step();
        }
        assert_eq!(sim.remaining_tasks() + consumed, 10_000);
        sim.ring().check_invariants().unwrap();
    }
}
