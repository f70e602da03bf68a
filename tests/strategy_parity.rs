//! Fixed-seed pins for every strategy on the oracle-ring substrate.
//!
//! These exact values were captured from the pre-trait-refactor engine
//! (free-function strategies dispatched by a `match` in `Sim::step`).
//! The trait-object dispatch must reproduce them bit-for-bit: same
//! worker iteration order, same RNG draw order, same message-counter
//! increments. A drift here means a strategy port changed behavior, not
//! just structure. The two churn pins were re-captured when churn moved
//! from one draw per candidate to one geometric-skip draw per event:
//! the same distribution over different draws.

use autobal::sim::{Sim, SimConfig, StrategyKind};

fn run(kind: StrategyKind, churn_rate: f64, seed: u64) -> autobal::sim::RunResult {
    let cfg = SimConfig {
        nodes: 100,
        tasks: 10_000,
        strategy: kind,
        churn_rate,
        ..SimConfig::default()
    };
    Sim::new(cfg, seed).run()
}

#[test]
fn random_injection_pins() {
    // (seed, ticks, sybils_created, sybils_retired)
    for (seed, ticks, created, retired) in
        [(1, 136, 863, 763), (2, 146, 1081, 981), (3, 145, 1082, 982)]
    {
        let r = run(StrategyKind::RandomInjection, 0.0, seed);
        assert_eq!(
            (
                r.ticks,
                r.messages.sybils_created,
                r.messages.sybils_retired
            ),
            (ticks, created, retired),
            "seed {seed}"
        );
    }
}

#[test]
fn neighbor_injection_pins() {
    for (seed, ticks, created) in [(1, 165, 487), (2, 204, 480), (3, 195, 495)] {
        let r = run(StrategyKind::NeighborInjection, 0.0, seed);
        assert_eq!(
            (r.ticks, r.messages.sybils_created),
            (ticks, created),
            "seed {seed}"
        );
        assert_eq!(r.messages.load_queries, 0, "plain variant never queries");
    }
}

#[test]
fn smart_neighbor_pins() {
    for (seed, ticks, created, queries) in [
        (1, 165, 129, 7015),
        (2, 201, 116, 10505),
        (3, 209, 128, 11030),
    ] {
        let r = run(StrategyKind::SmartNeighbor, 0.0, seed);
        assert_eq!(
            (r.ticks, r.messages.sybils_created, r.messages.load_queries),
            (ticks, created, queries),
            "seed {seed}"
        );
    }
}

#[test]
fn invitation_pins() {
    for (seed, ticks, created, sent, refused) in [
        (1, 228, 11, 60, 49),
        (2, 270, 7, 46, 39),
        (3, 224, 13, 60, 47),
    ] {
        let r = run(StrategyKind::Invitation, 0.0, seed);
        assert_eq!(
            (
                r.ticks,
                r.messages.sybils_created,
                r.messages.invitations_sent,
                r.messages.invitations_refused
            ),
            (ticks, created, sent, refused),
            "seed {seed}"
        );
    }
}

#[test]
fn centralized_oracle_pins() {
    for (seed, ticks, created) in [(1, 103, 79), (2, 103, 91), (3, 104, 110)] {
        let r = run(StrategyKind::CentralizedOracle, 0.0, seed);
        assert_eq!(
            (r.ticks, r.messages.sybils_created),
            (ticks, created),
            "seed {seed}"
        );
    }
}

#[test]
fn churn_pins() {
    // Re-pinned when churn moved to one geometric-skip draw per event
    // (same distribution, different draws).
    for (seed, ticks, leaves, joins) in [(1, 237, 500, 501), (2, 208, 388, 385), (3, 232, 464, 471)]
    {
        let r = run(StrategyKind::Churn, 0.02, seed);
        assert_eq!(
            (r.ticks, r.messages.churn_leaves, r.messages.churn_joins),
            (ticks, leaves, joins),
            "seed {seed}"
        );
    }
}

#[test]
fn composed_churn_plus_random_injection_pins() {
    // Background churn layered under random injection — the composition
    // the StrategyStack exists for. Re-pinned with the churn pins.
    for (seed, ticks, created, leaves, joins) in [
        (1, 133, 944, 125, 125),
        (2, 150, 1219, 155, 153),
        (3, 160, 1086, 165, 156),
    ] {
        let r = run(StrategyKind::RandomInjection, 0.01, seed);
        assert_eq!(
            (
                r.ticks,
                r.messages.sybils_created,
                r.messages.churn_leaves,
                r.messages.churn_joins
            ),
            (ticks, created, leaves, joins),
            "seed {seed}"
        );
    }
}
