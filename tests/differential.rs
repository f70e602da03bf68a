//! Differential test between the two substrates (the PR's central
//! claim): the *same* `Strategy` trait object, fed the same local
//! views, makes the same spawn/retire decisions whether the view is
//! backed by the oracle ring or by the real Chord protocol.
//!
//! Both substrates get bit-identical starting conditions (explicit node
//! ids and task keys, same seed ⇒ same strategy RNG stream) and record
//! their decision traces. The traces are compared in lockstep. The two
//! substrates consume tasks in different orders (the oracle ring pops a
//! pseudo-random task to keep remaining keys spread, a Chord node pops
//! its smallest key), so the *key sets* — and therefore the task count
//! a Sybil acquires — may drift apart even while the *load counts* seen
//! by the strategy stay identical. The test therefore asserts exact
//! decision equality (tick, worker, position) for as long as every
//! previously observed `acquired` matched — i.e. for as long as the
//! local views provably coincide — and requires a guaranteed nonempty
//! prefix by starting half the workers empty, so the first check tick
//! produces identical decisions on untouched state.

use autobal::protocol_sim::{run_protocol_sim_with_placement, ProtocolSimConfig};
use autobal::sim::trace::event_log;
use autobal::sim::{Sim, SimConfig, SimEvent, StrategyKind};
use autobal::stats::rng::{domains, substream, DetRng};
use autobal::Id;

const NODES: usize = 16;
const TASKS: u64 = 800;
const SEED: u64 = 41;

/// Explicit placement: 16 random node ids; all task keys constrained to
/// the arcs owned by the "loaded" half of the ring, so the other 8
/// workers start at load 0 and must act on the very first check tick,
/// before any substrate-specific task consumption can tell them apart.
fn placement() -> (Vec<Id>, Vec<Id>) {
    let mut rng: DetRng = substream(0xD1FF, 0, domains::PLACEMENT);
    let mut ids: Vec<Id> = Vec::new();
    while ids.len() < NODES {
        let id = Id::random(&mut rng);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let mut sorted = ids.clone();
    sorted.sort();
    let loaded: Vec<Id> = sorted.iter().copied().step_by(2).collect();
    let owner = |key: Id| -> Id {
        sorted
            .iter()
            .copied()
            .find(|&n| key <= n)
            .unwrap_or(sorted[0])
    };
    let mut keys = Vec::new();
    while (keys.len() as u64) < TASKS {
        let k = Id::random(&mut rng);
        if loaded.contains(&owner(k)) {
            keys.push(k);
        }
    }
    (ids, keys)
}

#[test]
fn oracle_and_chord_substrates_make_the_same_decisions() {
    let (ids, keys) = placement();

    let oracle = Sim::with_placement(
        SimConfig {
            nodes: NODES,
            tasks: TASKS,
            strategy: StrategyKind::RandomInjection,
            check_interval: 1,
            record_trace: true,
            ..SimConfig::default()
        },
        SEED,
        ids.clone(),
        keys.clone(),
    )
    .run();

    let proto = run_protocol_sim_with_placement(
        &ProtocolSimConfig {
            nodes: NODES,
            tasks: TASKS,
            strategy: StrategyKind::RandomInjection,
            check_interval: 1,
            record_trace: true,
            ..ProtocolSimConfig::default()
        },
        SEED,
        ids,
        keys,
    );

    assert!(oracle.completed && proto.completed);

    let mut compared = 0usize;
    let mut views_identical = true;
    for (a, b) in event_log(&oracle.trace)
        .iter()
        .zip(&event_log(&proto.trace))
    {
        match (a, b) {
            (
                SimEvent::SybilCreated {
                    tick: t1,
                    worker: w1,
                    pos: p1,
                    acquired: a1,
                },
                SimEvent::SybilCreated {
                    tick: t2,
                    worker: w2,
                    pos: p2,
                    acquired: a2,
                },
            ) => {
                // The decision — when, who, where — must match exactly.
                assert_eq!(
                    (t1, w1, p1),
                    (t2, w2, p2),
                    "spawn decision #{compared} diverged while views were identical"
                );
                compared += 1;
                if a1 != a2 {
                    // Task-consumption order has finally skewed the key
                    // sets; loads (and so future decisions) may differ
                    // from here on. The differential claim is satisfied
                    // up to this point.
                    views_identical = false;
                }
            }
            _ => {
                assert_eq!(
                    a, b,
                    "event #{compared} diverged while views were identical"
                );
                compared += 1;
            }
        }
        if !views_identical {
            break;
        }
    }

    // The 8 empty workers guarantee at least one full check tick of
    // decisions on provably identical state.
    assert!(
        compared >= 8,
        "only {compared} lockstep decisions before divergence"
    );
}

#[test]
fn first_check_tick_decisions_are_bit_identical() {
    // Strongest form of the claim: on tick 1 (check_interval = 1, and
    // checks run before the work phase) no task has been consumed yet,
    // so the local views are bit-identical — every event, including the
    // number of tasks each Sybil acquired, must match exactly.
    let (ids, keys) = placement();

    let oracle = Sim::with_placement(
        SimConfig {
            nodes: NODES,
            tasks: TASKS,
            strategy: StrategyKind::RandomInjection,
            check_interval: 1,
            record_trace: true,
            ..SimConfig::default()
        },
        SEED,
        ids.clone(),
        keys.clone(),
    )
    .run();
    let proto = run_protocol_sim_with_placement(
        &ProtocolSimConfig {
            nodes: NODES,
            tasks: TASKS,
            strategy: StrategyKind::RandomInjection,
            check_interval: 1,
            record_trace: true,
            ..ProtocolSimConfig::default()
        },
        SEED,
        ids,
        keys,
    );

    let first = |evs: &[SimEvent]| -> Vec<SimEvent> {
        evs.iter().filter(|e| e.tick() == 1).cloned().collect()
    };
    let o1 = first(&event_log(&oracle.trace));
    let p1 = first(&event_log(&proto.trace));
    assert!(
        o1.len() >= 8,
        "the 8 idle workers should all have acted on tick 1, got {}",
        o1.len()
    );
    assert_eq!(o1, p1, "tick-1 traces must match field-for-field");
}

#[test]
fn substrates_agree_on_the_outcome_too() {
    // Decisions aside, the macro story must hold on both fidelities:
    // random injection beats the do-nothing baseline by a similar
    // margin. (Runtime factors are compared loosely — the protocol run
    // pays for maintenance and routing, the oracle ring does not.)
    let (ids, keys) = placement();
    let mut sum = [0.0f64; 2];
    for (i, kind) in [StrategyKind::None, StrategyKind::RandomInjection]
        .into_iter()
        .enumerate()
    {
        let o = Sim::with_placement(
            SimConfig {
                nodes: NODES,
                tasks: TASKS,
                strategy: kind,
                ..SimConfig::default()
            },
            SEED,
            ids.clone(),
            keys.clone(),
        )
        .run();
        let p = run_protocol_sim_with_placement(
            &ProtocolSimConfig {
                nodes: NODES,
                tasks: TASKS,
                strategy: kind,
                ..ProtocolSimConfig::default()
            },
            SEED,
            ids.clone(),
            keys.clone(),
        );
        assert!(o.completed && p.completed);
        assert!(
            (o.runtime_factor - p.runtime_factor).abs() < o.runtime_factor.max(2.0),
            "{kind:?}: oracle {} vs protocol {}",
            o.runtime_factor,
            p.runtime_factor
        );
        sum[i] = p.runtime_factor;
    }
    assert!(
        sum[1] < sum[0],
        "injection {} should beat baseline {} on the protocol substrate",
        sum[1],
        sum[0]
    );
}

#[test]
fn adversary_and_probe_bills_match_across_substrates() {
    // Satellite pin for the Byzantine plane: cross-checked probes and
    // lied responses must bump `MessageStats` identically whether they
    // ride the synchronous tick shim or the event wire. Run the same
    // hostile config on both substrates at zero latency and compare the
    // decision stream, the `load_query` bill, and the `lied`
    // meta-counter field-for-field.
    use autobal::event_sim::{run_event_sim, EventSimConfig};
    use autobal::protocol_sim::run_protocol_sim;
    use autobal_chord::{AdversaryPlan, EventConfig, LiePolicy};
    use autobal_core::strategy::crosscheck::CrossCheckConfig;

    let proto_cfg = ProtocolSimConfig {
        nodes: NODES,
        tasks: TASKS,
        strategy: StrategyKind::SmartNeighbor,
        record_trace: true,
        adversary: AdversaryPlan::lying(SEED, 0.25, LiePolicy::OverReport),
        cross_check: CrossCheckConfig::with_budget(2),
        ..ProtocolSimConfig::default()
    };
    let event_cfg = EventSimConfig {
        proto: proto_cfg.clone(),
        event: EventConfig {
            latency: 0,
            ..EventConfig::default()
        },
        ..EventSimConfig::default()
    };

    let proto = run_protocol_sim(&proto_cfg, SEED);
    let event = run_event_sim(&event_cfg, SEED);

    assert!(proto.completed && event.completed);
    assert!(proto.messages.lied > 0, "the adversary actually fired");
    assert_eq!(
        event_log(&proto.trace),
        event_log(&event.trace),
        "decision streams diverged under the adversary"
    );
    // The parity that matters for accounting: every probe (direct or
    // relayed) and every distorted reply is billed once on each plane.
    assert_eq!(proto.messages.load_query, event.wire.load_query);
    assert_eq!(proto.messages.lied, event.wire.lied);
    // The synchronous counters stay off the event substrate's network
    // plane — strategy traffic lives on the wire there.
    assert_eq!(event.messages.load_query, 0);
}
