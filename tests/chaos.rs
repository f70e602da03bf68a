//! Chaos suite: randomized adversity against the Chord substrate, the
//! protocol-level strategy runs, and the event-time substrate.
//!
//! Three claims are defended here:
//!
//! 1. **Convergence** — under randomized loss (≤ 30%) and crash-failures
//!    (≤ 20% of the population), the ring reconverges to a consistent
//!    state once faults subside, and every task key is either alive or
//!    explicitly billed to `MessageStats::keys_lost` — nothing vanishes
//!    silently.
//! 2. **Determinism** — identical fault seeds replay identically, no
//!    matter how many rayon threads the surrounding harness uses.
//! 3. **Resilience acceptance** — at 10% loss + 5% crashes with the
//!    default replication factor, strategy runs lose zero tasks and
//!    finish within 2× of their fault-free runtime.
//!
//! `CHAOS_SEED` (env var) pins the randomized scenario for CI replay:
//! `CHAOS_SEED=3 cargo test --test chaos`.

use autobal::chord::{CrashEvent, EventConfig, FaultPlan, NetConfig, Network, Partition};
use autobal::event_sim::{run_event_sim, EventSimConfig};
use autobal::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
use autobal::sim::trace::event_log;
use autobal::sim::StrategyKind;
use autobal::stats::rng::{domains, substream};
use autobal::Id;
use proptest::prelude::*;
use rand::Rng;

const NODES: usize = 32;
const KEYS: u64 = 300;

/// Bootstraps a stabilized ring carrying `KEYS` task keys.
fn seeded_net(seed: u64) -> Network {
    let mut rng = substream(seed, 0, domains::PLACEMENT);
    let mut net = Network::bootstrap(NetConfig::default(), NODES, &mut rng);
    let mut keys = substream(seed, 0, domains::TASKS);
    for _ in 0..KEYS {
        net.insert_key(Id::random(&mut keys));
    }
    net.maintenance_cycle();
    net
}

/// Runs the canonical chaos scenario: armed faults + staggered crashes
/// with maintenance in between, then quiet convergence. Returns the net
/// for final assertions.
fn chaos_scenario(seed: u64, loss: f64, dup: f64, crashes: usize) -> Network {
    let mut net = seeded_net(seed);
    net.set_fault_plan(FaultPlan {
        seed,
        loss_rate: loss,
        dup_rate: dup,
        ..FaultPlan::default()
    });
    let mut victims = substream(seed, 0, domains::FAULTS);
    for _ in 0..crashes {
        let ids = net.node_ids();
        if ids.len() <= NODES / 2 {
            break;
        }
        let v = ids[victims.gen_range(0..ids.len())];
        net.fail(v).expect("victim is live");
        // Maintenance keeps running between crashes — replicas promote
        // and successor lists repair while links stay lossy.
        net.maintenance_cycle();
    }
    // Faults subside; convergence must follow within a bounded number
    // of quiet cycles.
    net.set_fault_plan(FaultPlan::default());
    for _ in 0..30 {
        net.maintenance_cycle();
        if net.is_consistent() {
            break;
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Claim 1: randomized loss + crashes never corrupt the ring or
    /// silently destroy keys.
    #[test]
    fn ring_survives_randomized_chaos(
        seed in any::<u64>(),
        loss_pct in 0u32..=30,
        dup_pct in 0u32..=20,
        crashes in 0usize..=6, // ≤ 20% of 32 nodes
    ) {
        let net = chaos_scenario(seed, loss_pct as f64 / 100.0, dup_pct as f64 / 100.0, crashes);
        prop_assert!(net.is_consistent(), "ring failed to reconverge");
        prop_assert_eq!(
            net.total_keys() as u64 + net.stats.keys_lost,
            KEYS,
            "keys neither died billed nor stayed alive"
        );
        // ≥ 1 replica per key and a cycle between crashes ⇒ usually
        // zero loss; the hard guarantee is only explicit accounting,
        // asserted above.
    }
}

/// Claim 1 again, on one pinned scenario CI can replay byte-for-byte
/// across machines: `CHAOS_SEED=n cargo test --test chaos`.
#[test]
fn pinned_chaos_scenario_converges() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let net = chaos_scenario(seed, 0.25, 0.10, 5);
    assert!(net.is_consistent(), "seed {seed}: ring must reconverge");
    assert_eq!(
        net.total_keys() as u64 + net.stats.keys_lost,
        KEYS,
        "seed {seed}: conservation violated"
    );
}

/// Claim 2: the fault stream is its own ChaCha instance, so two runs
/// with the same plan are bit-for-bit identical — regardless of the
/// rayon thread count the harness installs around them.
#[test]
fn identical_fault_seeds_replay_identically_across_thread_counts() {
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                run_protocol_sim(
                    &ProtocolSimConfig {
                        nodes: 24,
                        tasks: 1_200,
                        strategy: StrategyKind::RandomInjection,
                        fault: FaultPlan::lossy(99, 0.10),
                        crash_rate: 0.1,
                        record_trace: true,
                        ..ProtocolSimConfig::default()
                    },
                    5,
                )
            })
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.tasks_lost, b.tasks_lost);
    assert_eq!(a.workers_crashed, b.workers_crashed);
    assert_eq!(a.sybils_created, b.sybils_created);
    assert_eq!(
        event_log(&a.trace),
        event_log(&b.trace),
        "full decision traces match"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Claim 1 on **event time**: randomized wire loss × a partition
    /// window × scheduled crashes never destroy a task silently — every
    /// key is consumed, still alive, or billed as lost, and the billing
    /// planes agree.
    #[test]
    fn event_substrate_conserves_tasks_under_chaos(
        seed in any::<u64>(),
        loss_pct in 0u32..=20,
        partitioned in any::<bool>(),
        crashes in 0u32..=4,
    ) {
        let tasks = 800u64;
        let cfg = EventSimConfig {
            proto: ProtocolSimConfig {
                nodes: 24,
                tasks,
                strategy: StrategyKind::RandomInjection,
                fault: FaultPlan {
                    seed,
                    loss_rate: loss_pct as f64 / 100.0,
                    // Wire partition times are event-time units:
                    // ticks 10–30 at the default 100-unit tick.
                    partitions: if partitioned {
                        vec![Partition { start: 1_000, end: 3_000 }]
                    } else {
                        Vec::new()
                    },
                    // Crash events stay tick-indexed (substrate plane).
                    crashes: if crashes > 0 {
                        vec![CrashEvent { at: 5, count: crashes }]
                    } else {
                        Vec::new()
                    },
                    ..FaultPlan::default()
                },
                ..ProtocolSimConfig::default()
            },
            ..EventSimConfig::default()
        };
        let res = run_event_sim(&cfg, seed ^ 0x5EED);
        prop_assert!(res.completed, "survivors must finish the workload");
        let done: u64 = res.tasks_done.iter().sum();
        // Conservation: nothing vanishes silently. Any ownership
        // transfer — a crash promotion, but also every graceful Sybil
        // join/retire handoff — can *resurrect* a task consumed since
        // the previous replica sync (the active-backup model redoes
        // that work rather than risk dropping it; the synchronous
        // substrate over-counts identically). Strategies spawn Sybils
        // by design, so strict equality never holds: the invariant is
        // consumed + alive + billed-lost covers the workload.
        prop_assert!(
            done + res.tasks_remaining + res.tasks_lost >= tasks,
            "tasks vanished: done {} + remaining {} + lost {} < {}",
            done, res.tasks_remaining, res.tasks_lost, tasks
        );
        prop_assert_eq!(
            res.tasks_lost, res.messages.keys_lost,
            "substrate and network billing disagree"
        );
    }
}

/// Claim 2 on event time: wire faults, probe timeouts, and the event
/// queue all draw from seeded streams — runs are bit-identical across
/// rayon thread counts, down to the event clock and the wire bill.
#[test]
fn event_runs_replay_identically_across_thread_counts() {
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                run_event_sim(
                    &EventSimConfig {
                        proto: ProtocolSimConfig {
                            nodes: 24,
                            tasks: 1_200,
                            strategy: StrategyKind::SmartNeighbor,
                            fault: FaultPlan::lossy(99, 0.10),
                            crash_rate: 0.1,
                            record_trace: true,
                            ..ProtocolSimConfig::default()
                        },
                        event: EventConfig {
                            latency: 20,
                            ..EventConfig::default()
                        },
                        ..EventSimConfig::default()
                    },
                    5,
                )
            })
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.time, b.time, "event clocks diverged");
    assert_eq!(a.wire, b.wire, "wire bills diverged");
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.tasks_done, b.tasks_done);
    assert_eq!(a.lookup_latencies, b.lookup_latencies);
    assert_eq!(a.workers_crashed, b.workers_crashed);
    assert_eq!(
        event_log(&a.trace),
        event_log(&b.trace),
        "full decision traces match"
    );
}

/// Claim 3 (acceptance): 10% loss + 5% crashes with default replication
/// ⇒ zero tasks lost and ≤ 2× the fault-free runtime factor.
#[test]
fn loss_plus_crash_acceptance_criteria_hold() {
    for kind in [StrategyKind::RandomInjection, StrategyKind::SmartNeighbor] {
        let cfg = |fault: FaultPlan, crash_rate: f64| ProtocolSimConfig {
            nodes: 32,
            tasks: 1_600,
            strategy: kind,
            fault,
            crash_rate,
            ..ProtocolSimConfig::default()
        };
        let clean = run_protocol_sim(&cfg(FaultPlan::default(), 0.0), 21);
        let rough = run_protocol_sim(&cfg(FaultPlan::lossy(21, 0.10), 0.05), 21);
        assert!(rough.completed, "{kind:?} must finish under adversity");
        assert!(rough.workers_crashed > 0, "{kind:?}: crashes fired");
        assert_eq!(rough.tasks_lost, 0, "{kind:?}: replication covers crashes");
        assert!(
            rough.runtime_factor <= clean.runtime_factor * 2.0,
            "{kind:?}: rough {} vs clean {}",
            rough.runtime_factor,
            clean.runtime_factor
        );
    }
}

/// Partition windows on the synchronous substrate: the strategy run
/// rides through a mid-run split-brain window and still completes, with
/// the cut's drops explicitly billed.
#[test]
fn protocol_run_survives_a_partition_window() {
    let res = run_protocol_sim(
        &ProtocolSimConfig {
            nodes: 32,
            tasks: 1_600,
            strategy: StrategyKind::RandomInjection,
            fault: FaultPlan {
                seed: 17,
                partitions: vec![Partition { start: 10, end: 25 }],
                ..FaultPlan::default()
            },
            ..ProtocolSimConfig::default()
        },
        22,
    );
    assert!(res.completed, "the window heals and the run finishes");
    assert!(
        res.messages.dropped > 0,
        "cross-cut messages were dropped during the window"
    );
    assert_eq!(res.tasks_lost, 0, "partitions delay, they do not destroy");
}

/// Maps a proptest index onto a lying policy (proptest can't derive
/// strategies for foreign enums without a feature gate).
fn policy_for(i: u8) -> autobal::chord::LiePolicy {
    use autobal::chord::LiePolicy;
    match i % 4 {
        0 => LiePolicy::UnderReport,
        1 => LiePolicy::OverReport,
        2 => LiePolicy::RandomNoise,
        _ => LiePolicy::FlipFlop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Byzantine plane composed with the fault plane: liars plus
    /// randomized loss, a partition window, and scheduled crashes never
    /// panic, never destroy a task silently, and keep the billing
    /// planes in agreement — with and without the cross-check defense.
    #[test]
    fn byzantine_chaos_conserves_tasks(
        seed in any::<u64>(),
        fraction_pct in 0u32..=40,
        policy_ix in any::<u8>(),
        k in 0usize..=2,
        loss_pct in 0u32..=15,
        partitioned in any::<bool>(),
        crashes in 0u32..=3,
    ) {
        use autobal::chord::AdversaryPlan;
        use autobal_core::strategy::crosscheck::CrossCheckConfig;
        let tasks = 800u64;
        let cfg = ProtocolSimConfig {
            nodes: 24,
            tasks,
            strategy: StrategyKind::SmartNeighbor,
            adversary: AdversaryPlan::lying(
                seed,
                fraction_pct as f64 / 100.0,
                policy_for(policy_ix),
            ),
            cross_check: CrossCheckConfig::with_budget(k),
            fault: FaultPlan {
                seed,
                loss_rate: loss_pct as f64 / 100.0,
                partitions: if partitioned {
                    vec![Partition { start: 10, end: 25 }]
                } else {
                    Vec::new()
                },
                crashes: if crashes > 0 {
                    vec![CrashEvent { at: 5, count: crashes }]
                } else {
                    Vec::new()
                },
                ..FaultPlan::default()
            },
            ..ProtocolSimConfig::default()
        };
        let res = run_protocol_sim(&cfg, seed ^ 0xB12);
        prop_assert!(res.completed, "liars slow runs down, they must not wedge them");
        // Completed run ⇒ nothing is left in flight; conservation says
        // every task was consumed or billed as lost (handoff redo can
        // over-count, never under-count).
        let done: u64 = res.tasks_done.iter().sum();
        prop_assert!(
            done + res.tasks_lost >= tasks,
            "tasks vanished: done {} + lost {} < {}",
            done, res.tasks_lost, tasks
        );
        prop_assert_eq!(
            res.tasks_lost, res.messages.keys_lost,
            "substrate and network billing disagree"
        );
        if !cfg.adversary.is_active() {
            prop_assert_eq!(res.messages.lied, 0, "nobody lies in an honest run");
        }
    }
}

/// Claim 2 with the adversary live: liar selection, the lie function,
/// and the cross-check defense all avoid wall-clock and thread-local
/// state, so hostile runs replay bit-identically across rayon thread
/// counts on both substrates.
#[test]
fn byzantine_runs_replay_identically_across_thread_counts() {
    use autobal::chord::{AdversaryPlan, LiePolicy};
    use autobal_core::strategy::crosscheck::CrossCheckConfig;
    let proto_cfg = ProtocolSimConfig {
        nodes: 24,
        tasks: 1_200,
        strategy: StrategyKind::SmartNeighbor,
        adversary: AdversaryPlan::lying(99, 0.25, LiePolicy::FlipFlop),
        cross_check: CrossCheckConfig::with_budget(2),
        fault: FaultPlan::lossy(99, 0.05),
        record_trace: true,
        ..ProtocolSimConfig::default()
    };
    let run_proto = |threads: usize| {
        let cfg = proto_cfg.clone();
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(move || run_protocol_sim(&cfg, 5))
    };
    let a = run_proto(1);
    let b = run_proto(8);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.messages, b.messages, "lie and probe bills diverged");
    assert!(a.messages.lied > 0, "the adversary actually fired");
    assert_eq!(event_log(&a.trace), event_log(&b.trace));

    let run_event = |threads: usize| {
        let cfg = EventSimConfig {
            proto: proto_cfg.clone(),
            event: EventConfig {
                latency: 20,
                ..EventConfig::default()
            },
            ..EventSimConfig::default()
        };
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(move || run_event_sim(&cfg, 5))
    };
    let c = run_event(1);
    let d = run_event(8);
    assert_eq!(c.time, d.time, "event clocks diverged");
    assert_eq!(c.wire, d.wire, "wire bills diverged");
    assert!(c.wire.lied > 0, "liars answered on the wire too");
    assert_eq!(event_log(&c.trace), event_log(&d.trace));
}

/// Scheduled crash events from the plan (rather than `crash_rate`)
/// drive the same machinery: explicit timing, explicit victims count.
#[test]
fn scheduled_crash_events_fire_at_their_ticks() {
    let res = run_protocol_sim(
        &ProtocolSimConfig {
            nodes: 32,
            tasks: 1_600,
            strategy: StrategyKind::None,
            fault: FaultPlan {
                seed: 4,
                crashes: vec![
                    CrashEvent { at: 5, count: 2 },
                    CrashEvent { at: 15, count: 1 },
                ],
                ..FaultPlan::default()
            },
            record_trace: true,
            ..ProtocolSimConfig::default()
        },
        23,
    );
    assert!(res.completed);
    assert_eq!(res.workers_crashed, 3, "2 at tick 5 + 1 at tick 15");
    assert_eq!(
        res.tasks_lost, 0,
        "replication had cycles to cover all three"
    );
    let crash_ticks: Vec<u64> = event_log(&res.trace)
        .iter()
        .filter_map(|e| match e {
            autobal::sim::SimEvent::WorkerCrashed { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect();
    assert_eq!(crash_ticks, vec![5, 5, 15]);
}
