//! End-to-end validation: the paper's strategies running on the **real
//! Chord protocol substrate** instead of the oracle ring.
//!
//! The tick simulator (`autobal-core`) models ring state directly — the
//! same abstraction the paper's own simulator uses. This module closes
//! the loop: the shared Chord driver implements the same `Substrate` /
//! `LocalView` / `Actions` surface over an [`autobal_chord::Network`],
//! so the *same trait-object strategies* — random injection, neighbor
//! injection, smart neighbor, invitation, and background churn — run
//! here unmodified. A Sybil is a *real protocol join* (routing hops,
//! key-range handoff, notify); retirement is a real graceful leave;
//! ring repair runs the real stabilization machinery every tick.
//!
//! What this module owns is the **synchronous shim** transport and the
//! lockstep tick loop: a strategy's `query_load` and `invite` calls
//! resolve instantly and are billed to the network's [`MessageStats`]
//! (see [`MessageStats::strategy_overhead`]). The one deliberate
//! exception is the centralized oracle: a real network has no
//! omniscient view, so `check_omniscient` reports unsupported here.
//!
//! If the paper's effect survives on this substrate, the oracle-ring
//! shortcut is justified.

use autobal_chord::{AdversaryPlan, FaultPlan, MessageKind, MessageStats, NetConfig, Network};
use autobal_core::record::LOAD_QUERY;
use autobal_core::strategy::{
    crosscheck::CrossCheckConfig, invitation::HelperCandidate, ActionError,
};
use autobal_core::StrategyKind;
use autobal_id::Id;
use autobal_metrics::MetricsSample;
use autobal_telemetry::Trace;

use crate::chord_driver::{action_error, bootstrap, fate, Core, Driver, Transport};

/// Configuration for a protocol-level run.
#[derive(Debug, Clone)]
pub struct ProtocolSimConfig {
    /// Physical workers (each one Chord node at start).
    pub nodes: usize,
    /// Tasks (keys) to place and consume.
    pub tasks: u64,
    /// Which strategy to run. [`StrategyKind::CentralizedOracle`] is
    /// rejected: a real network cannot provide the omniscient view.
    pub strategy: StrategyKind,
    /// Per-tick Bernoulli churn probability; 0 disables churn. When
    /// set, a waiting pool of `nodes` extra workers is created, as in
    /// the oracle-ring simulator (§IV-A).
    pub churn_rate: f64,
    /// Check cadence in ticks (paper: 5).
    pub check_interval: u64,
    /// Maximum Sybils per worker (paper: 5).
    pub max_sybils: u32,
    /// A node at or below this load may volunteer a Sybil (paper: 0).
    pub sybil_threshold: u64,
    /// Invitation overload cutoff factor (threshold = factor × mean).
    pub overload_factor: f64,
    /// Chord substrate knobs.
    pub net: NetConfig,
    /// Safety cap.
    pub max_ticks: u64,
    /// Record a span-structured flight-recorder trace (see
    /// `autobal-telemetry`). Stamped with ticks, never wall-clock. Its
    /// `Decision` records are the run's event log
    /// (`autobal_core::trace::event_log`).
    pub record_trace: bool,
    /// Fault plan armed on the network after the initial stabilization
    /// (the paper's "network starts stable" assumption is preserved;
    /// adversity begins at tick 1). Inert by default.
    pub fault: FaultPlan,
    /// Fraction of the initial population to crash-fail over the run
    /// (victims picked uniformly, spread across the nominal duration).
    /// Only consulted when `fault.crashes` is empty; crashed workers
    /// never return. 0 disables.
    pub crash_rate: f64,
    /// Retire Sybils abruptly (`Network::fail`) instead of gracefully
    /// (`Network::leave`): the Sybil process just exits, and its keys
    /// survive only through replication.
    pub crash_retirement: bool,
    /// Byzantine adversary plan: which fraction of the initial workers
    /// answer load probes dishonestly, and how. Inert by default.
    pub adversary: AdversaryPlan,
    /// Cross-checking probe defense wrapped around the Sybil strategy
    /// (see `autobal_core::strategy::crosscheck`). Disabled by default.
    pub cross_check: CrossCheckConfig,
    /// Record streaming metrics samples (see `autobal-metrics`).
    pub record_metrics: bool,
    /// Metrics sampling cadence in ticks; defaults to every tick.
    pub metrics_interval: Option<u64>,
    /// Include a per-worker ring snapshot in each metrics sample
    /// (monitor food; O(workers) per sample).
    pub metrics_ring: bool,
}

impl Default for ProtocolSimConfig {
    fn default() -> Self {
        ProtocolSimConfig {
            nodes: 64,
            tasks: 6_400,
            strategy: StrategyKind::RandomInjection,
            churn_rate: 0.0,
            check_interval: 5,
            max_sybils: 5,
            sybil_threshold: 0,
            overload_factor: 2.0,
            net: NetConfig {
                // Fewer fingers per cycle keep the per-tick protocol cost
                // proportionate at this scale.
                fingers_per_cycle: 4,
                ..NetConfig::default()
            },
            max_ticks: 100_000,
            record_trace: false,
            fault: FaultPlan::default(),
            crash_rate: 0.0,
            crash_retirement: false,
            adversary: AdversaryPlan::default(),
            cross_check: CrossCheckConfig::default(),
            record_metrics: false,
            metrics_interval: None,
            metrics_ring: false,
        }
    }
}

/// Result of a protocol-level run.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    pub ticks: u64,
    pub ideal_ticks: u64,
    pub runtime_factor: f64,
    pub completed: bool,
    /// Protocol messages spent over the whole run (maintenance
    /// included); `messages.strategy_overhead()` isolates the balancing
    /// cost (load queries + invitations).
    pub messages: MessageStats,
    /// Sybil joins performed.
    pub sybils_created: u64,
    /// Sybil retirements performed (graceful leaves, or abrupt fails
    /// under [`ProtocolSimConfig::crash_retirement`]).
    pub sybils_retired: u64,
    /// Task keys permanently destroyed by crash-failures (no live
    /// replica existed at crash time). Always 0 with replication ≥ 1
    /// and a maintenance cycle between crashes.
    pub tasks_lost: u64,
    /// Workers removed by the crash plane (they never return).
    pub workers_crashed: u64,
    /// Tasks consumed per worker slot — the Gini input for the
    /// cross-substrate decision-quality comparison.
    pub tasks_done: Vec<u64>,
    /// Flight-recorder trace (empty unless
    /// [`ProtocolSimConfig::record_trace`]).
    pub trace: Trace,
    /// Streaming metrics samples (empty unless
    /// [`ProtocolSimConfig::record_metrics`]).
    pub metrics: Vec<MetricsSample>,
}

/// The synchronous shim: every probe, invitation and join resolves
/// instantly between ticks, billed to the network's own
/// [`MessageStats`] through its fault plane (`try_message`).
struct SyncShim;

impl Transport for SyncShim {
    fn plane<'a>(&'a mut self, net: &'a mut Network) -> &'a mut MessageStats {
        &mut net.stats
    }

    fn probe(
        &mut self,
        core: &mut Core,
        _from: Id,
        to: Id,
        about: Option<Id>,
    ) -> Result<u64, ActionError> {
        let about = about.unwrap_or(to);
        // The probe is billed whether or not it survives the network. A
        // stale successor-list entry pointing at a dead node never
        // replies.
        let answer = if core.net.try_message(MessageKind::LoadQuery) {
            core.net
                .node(to)
                .and(core.net.node(about))
                .map(|n| n.keys.len() as u64)
                .ok_or(ActionError::Unreachable)
        } else {
            Err(ActionError::TimedOut)
        };
        core.rec.bill(core.tick, LOAD_QUERY, fate(&answer), 0);
        // The querier only ever sees what the reporter *says*.
        Ok(core.reported_load(self, to, about, answer?))
    }

    /// The whole round is one flat-rate announcement. It costs its
    /// message even when the network eats it; the volunteers are the
    /// listed predecessors' owners with spawn capacity.
    fn invite_round(
        &mut self,
        core: &mut Core,
        inviter: usize,
        _hot: Id,
        preds: &[Id],
    ) -> Option<Vec<HelperCandidate>> {
        if !core.net.try_message(MessageKind::Invitation) {
            return None;
        }
        Some(
            preds
                .iter()
                .filter_map(|p| core.owner_of.get(p).copied())
                .filter(|&o| o != inviter && core.worker_can_spawn(o))
                .map(|o| HelperCandidate {
                    worker: o,
                    strength: 1, // the protocol substrate is homogeneous
                    load: core.worker_load(o),
                })
                .collect(),
        )
    }

    fn join(&mut self, core: &mut Core, pos: Id, contact: Id) -> Result<(), ActionError> {
        core.net.join_with_retry(pos, contact).map_err(action_error)
    }
}

/// Runs the computation on the protocol substrate and reports the
/// runtime factor, exactly like [`autobal_core::Sim`] but with every
/// DHT operation performed by the real implementation.
///
/// # Panics
/// Panics if `cfg.strategy` is [`StrategyKind::CentralizedOracle`] —
/// omniscience does not exist on a real network.
pub fn run_protocol_sim(cfg: &ProtocolSimConfig, seed: u64) -> ProtocolRun {
    let (net, node_ids, task_keys) = bootstrap(cfg, seed);
    run_inner(cfg, seed, net, node_ids, task_keys)
}

/// [`run_protocol_sim`] with explicit node placement and task keys —
/// the hook the differential oracle-vs-protocol tests use to hand both
/// substrates bit-identical starting conditions.
pub fn run_protocol_sim_with_placement(
    cfg: &ProtocolSimConfig,
    seed: u64,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> ProtocolRun {
    // autobal-lint: allow(panic-safety, "caller contract: placement ids are distinct")
    let net = Network::from_ids(cfg.net, &node_ids).expect("distinct node ids");
    run_inner(cfg, seed, net, node_ids, task_keys)
}

fn run_inner(
    cfg: &ProtocolSimConfig,
    seed: u64,
    net: Network,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> ProtocolRun {
    let (core, mut stack) = Core::setup(cfg, seed, net, &node_ids, task_keys, "chord");
    let mut d = Driver::new(core, SyncShim);
    // Adversity begins only after the initial stabilization — the paper
    // assumes "the network starts our experiments stable".
    d.core.net.set_fault_plan(cfg.fault.clone());

    while d.core.net.total_keys() > 0 && d.core.tick < cfg.max_ticks {
        d.begin_tick();
        // Churn layers fire every tick; Sybil layers on cadence — the
        // same dispatch the oracle-ring simulator runs.
        d.churn(&stack);
        if d.core.tick.is_multiple_of(cfg.check_interval) {
            d.check_all(&mut stack);
        }
        d.end_tick();
    }
    let (completed, rec) = d.finish();

    let core = d.core;
    ProtocolRun {
        ticks: core.tick,
        ideal_ticks: core.ideal_ticks,
        runtime_factor: core.tick as f64 / core.ideal_ticks as f64,
        completed,
        messages: core.net.stats.clone(),
        sybils_created: rec.tally.sybils_created,
        sybils_retired: rec.tally.sybils_retired,
        tasks_lost: core.tasks_lost,
        workers_crashed: rec.workers_crashed,
        tasks_done: core.tasks_done,
        trace: rec.trace,
        metrics: rec.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_core::trace::{event_log, SimEvent};

    fn small(strategy: StrategyKind) -> ProtocolSimConfig {
        ProtocolSimConfig {
            nodes: 32,
            tasks: 1_600,
            strategy,
            ..ProtocolSimConfig::default()
        }
    }

    #[test]
    fn protocol_baseline_matches_harmonic_ballpark() {
        let res = run_protocol_sim(&small(StrategyKind::None), 1);
        assert!(res.completed);
        // H_32 ≈ 4.06; generous envelope for a single trial.
        assert!(
            res.runtime_factor > 2.0 && res.runtime_factor < 7.5,
            "baseline factor {}",
            res.runtime_factor
        );
        assert_eq!(res.sybils_created, 0);
        assert_eq!(res.messages.strategy_overhead(), 0);
    }

    #[test]
    fn random_injection_wins_on_the_real_substrate_too() {
        let base = run_protocol_sim(&small(StrategyKind::None), 2);
        let inj = run_protocol_sim(&small(StrategyKind::RandomInjection), 2);
        assert!(inj.completed);
        assert!(inj.sybils_created > 0);
        assert!(
            inj.runtime_factor < base.runtime_factor * 0.75,
            "protocol-level injection {} vs baseline {}",
            inj.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn protocol_and_oracle_simulators_agree() {
        // The whole point: the oracle-ring simulator and the protocol
        // substrate must tell the same story on matched configurations.
        let proto = run_protocol_sim(&small(StrategyKind::RandomInjection), 3);
        let oracle = autobal_core::Sim::new(
            autobal_core::SimConfig {
                nodes: 32,
                tasks: 1_600,
                strategy: autobal_core::StrategyKind::RandomInjection,
                ..autobal_core::SimConfig::default()
            },
            3,
        )
        .run();
        let diff = (proto.runtime_factor - oracle.runtime_factor).abs();
        assert!(
            diff < 1.0,
            "protocol {} vs oracle {} should agree within a factor unit",
            proto.runtime_factor,
            oracle.runtime_factor
        );
    }

    #[test]
    fn protocol_run_spends_real_messages() {
        let res = run_protocol_sim(&small(StrategyKind::RandomInjection), 4);
        assert!(res.messages.stabilize > 0);
        assert!(res.messages.find_successor_hops > 0, "joins routed");
        assert!(res.messages.key_transfer > 0, "handoffs happened");
        assert!(res.messages.replica_push > 0, "active backup ran");
    }

    #[test]
    fn neighbor_injection_runs_on_the_protocol() {
        let base = run_protocol_sim(&small(StrategyKind::None), 5);
        let ni = run_protocol_sim(&small(StrategyKind::NeighborInjection), 5);
        assert!(ni.completed);
        assert!(ni.sybils_created > 0, "neighbor Sybils joined for real");
        // Plain neighbor estimates from free successor-list state.
        assert_eq!(ni.messages.load_query, 0);
        assert!(
            ni.runtime_factor < base.runtime_factor,
            "neighbor {} vs baseline {}",
            ni.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn smart_neighbor_pays_for_its_load_queries() {
        let smart = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 6);
        assert!(smart.completed);
        assert!(smart.sybils_created > 0);
        assert!(
            smart.messages.load_query > 0,
            "probing must be billed to the network"
        );
        assert_eq!(
            smart.messages.strategy_overhead(),
            smart.messages.load_query + smart.messages.invitation
        );
    }

    #[test]
    fn invitation_runs_end_to_end_on_the_protocol() {
        // A tight overload cutoff makes initially hot nodes call for
        // help; helpers answer with real Sybil joins.
        let inv = run_protocol_sim(
            &ProtocolSimConfig {
                overload_factor: 1.0,
                ..small(StrategyKind::Invitation)
            },
            7,
        );
        assert!(inv.completed);
        assert!(inv.messages.invitation > 0, "announcements were sent");
        assert!(inv.sybils_created > 0, "helpers actually joined");
        assert!(inv.messages.strategy_overhead() >= inv.messages.invitation);
    }

    #[test]
    fn background_churn_composes_with_injection_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                churn_rate: 0.005,
                record_trace: true,
                ..small(StrategyKind::RandomInjection)
            },
            8,
        );
        assert!(res.completed);
        let left = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerLeft { .. }))
            .count();
        let joined = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerJoined { .. }))
            .count();
        assert!(left > 0, "churn departures happened");
        assert!(joined > 0, "churn rejoins happened");
        assert!(res.sybils_created > 0, "injection kept working under churn");
    }

    #[test]
    fn oracle_strategy_is_rejected() {
        let r = std::panic::catch_unwind(|| {
            run_protocol_sim(&small(StrategyKind::CentralizedOracle), 1)
        });
        assert!(r.is_err(), "omniscience must not exist on a real network");
    }

    #[test]
    fn crash_failures_lose_nothing_under_replication() {
        // Acceptance criterion: with replication ≥ 2, a 5% crash rate
        // destroys zero tasks — every crashed node's keys had a live
        // replica (maintenance runs every tick).
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                crash_rate: 0.05,
                ..small(StrategyKind::RandomInjection)
            },
            9,
        );
        assert!(res.completed, "run must finish despite crashes");
        assert!(res.workers_crashed > 0, "the crash plane actually fired");
        assert_eq!(
            res.tasks_lost, 0,
            "replication_factor 5 must cover every crash victim"
        );
        assert_eq!(res.messages.keys_lost, 0);
    }

    #[test]
    fn unreplicated_crashes_report_their_losses_explicitly() {
        // With replication off, crash-failures genuinely destroy work —
        // and the run must say so rather than hang or lie.
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                crash_rate: 0.1,
                net: NetConfig {
                    replication_factor: 0,
                    fingers_per_cycle: 4,
                    ..NetConfig::default()
                },
                ..small(StrategyKind::None)
            },
            10,
        );
        assert!(res.workers_crashed > 0);
        assert!(
            res.tasks_lost > 0,
            "no replicas ⇒ crashed nodes' keys must be reported lost"
        );
        assert_eq!(res.tasks_lost, res.messages.keys_lost);
        assert!(res.completed, "the survivors still finish what remains");
    }

    #[test]
    fn both_sybil_retirement_paths_conserve_replicated_keys() {
        // Satellite: graceful leave and crash-style retirement must
        // agree on the macro outcome when replication covers the keys —
        // the run completes and nothing is destroyed either way.
        for crash_retirement in [false, true] {
            let res = run_protocol_sim(
                &ProtocolSimConfig {
                    crash_retirement,
                    ..small(StrategyKind::RandomInjection)
                },
                11,
            );
            assert!(res.completed, "crash_retirement={crash_retirement}");
            assert!(res.sybils_retired > 0, "retirements exercised both paths");
            assert_eq!(
                res.tasks_lost, 0,
                "replicated Sybil keys must survive retirement (crash={crash_retirement})"
            );
        }
    }

    #[test]
    fn lossy_links_degrade_gracefully() {
        // Acceptance criterion: 10% loss costs at most 2× the
        // fault-free runtime factor, for every strategy.
        for kind in [
            StrategyKind::None,
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::SmartNeighbor,
            StrategyKind::Invitation,
        ] {
            let clean = run_protocol_sim(&small(kind), 12);
            let lossy = run_protocol_sim(
                &ProtocolSimConfig {
                    fault: FaultPlan::lossy(12, 0.10),
                    ..small(kind)
                },
                12,
            );
            assert!(lossy.completed, "{kind:?} must finish at 10% loss");
            assert!(lossy.messages.dropped > 0, "{kind:?}: faults actually bit");
            assert!(
                lossy.runtime_factor <= clean.runtime_factor * 2.0,
                "{kind:?}: lossy {} vs clean {}",
                lossy.runtime_factor,
                clean.runtime_factor
            );
        }
    }

    #[test]
    fn inert_fault_plan_changes_nothing_on_the_protocol() {
        // Bit-for-bit: the default (inert) plan must not perturb a
        // single counter relative to the pre-fault-plane code path.
        let a = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 13);
        let b = run_protocol_sim(
            &ProtocolSimConfig {
                fault: FaultPlan::default(),
                ..small(StrategyKind::SmartNeighbor)
            },
            13,
        );
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.sybils_created, b.sybils_created);
        assert_eq!(a.messages.dropped, 0);
        assert_eq!(a.messages.retries, 0);
    }

    #[test]
    fn load_queried_events_mirror_the_protocol_query_counter() {
        // Satellite: every billed load query that got an answer shows up
        // as a LoadQueried event — on a faultless network, all of them.
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            14,
        );
        let queried = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadQueried { .. }))
            .count() as u64;
        assert!(queried > 0);
        assert_eq!(queried, res.messages.load_query);
    }

    #[test]
    fn plain_neighbor_records_gap_splits_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                ..small(StrategyKind::NeighborInjection)
            },
            15,
        );
        let splits = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::NeighborGapSplit { .. }))
            .count() as u64;
        // Every plain-neighbor spawn attempt is preceded by a gap-split
        // estimate; occupied midpoints mean attempts can exceed joins.
        assert!(splits > 0);
        assert!(splits >= res.sybils_created);
    }

    #[test]
    fn invitation_honored_events_carry_the_helper_on_the_protocol() {
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                overload_factor: 1.0,
                record_trace: true,
                ..small(StrategyKind::Invitation)
            },
            16,
        );
        let mut honored = 0u64;
        for e in &event_log(&res.trace) {
            if let SimEvent::InvitationHonored { worker, helper, .. } = e {
                honored += 1;
                assert_ne!(worker, helper, "a node cannot honor its own call");
            }
        }
        assert!(honored > 0, "some invitation was honored");
        let sent = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationSent { .. }))
            .count() as u64;
        let refused = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationRefused { .. }))
            .count() as u64;
        assert_eq!(sent, honored + refused);
    }

    #[test]
    fn protocol_trace_is_framed_and_spans_the_strategy() {
        use autobal_telemetry::{summarize, TraceBody};
        let res = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            17,
        );
        let records = res.trace.records();
        assert!(matches!(records[0].body, TraceBody::RunStart { .. }));
        assert!(matches!(
            records[records.len() - 1].body,
            TraceBody::RunEnd { .. }
        ));
        let s = summarize(records);
        assert_eq!(s.substrate, "chord");
        assert_eq!(s.strategy, "smart");
        assert!(s.completed);
        assert!(s.spans > 0, "strategy checks opened spans");
        assert!(s.decisions > 0);
        // load_query + invitation probes are traced individually; join
        // messages too — at least every load query must appear.
        assert!(s.messages.delivered >= res.messages.load_query);
        assert!(s.last_time <= res.ticks);
    }

    #[test]
    fn protocol_trace_is_disabled_by_default_and_byte_stable() {
        use autobal_telemetry::to_jsonl;
        let off = run_protocol_sim(&small(StrategyKind::SmartNeighbor), 18);
        assert!(off.trace.is_empty(), "tracing must be strictly opt-in");
        let cfg = ProtocolSimConfig {
            record_trace: true,
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_protocol_sim(&cfg, 18);
        let b = run_protocol_sim(&cfg, 18);
        assert_eq!(to_jsonl(a.trace.records()), to_jsonl(b.trace.records()));
        // Tracing must not perturb the run itself.
        assert_eq!(a.ticks, off.ticks);
        assert_eq!(a.messages, off.messages);
    }

    #[test]
    fn inert_adversary_plan_changes_nothing_on_the_protocol() {
        use autobal_chord::LiePolicy;
        // Non-tautological inert pin: a zero-fraction plan with a
        // non-default seed/policy/gain, plus a disabled (k = 0)
        // cross-check with non-default knobs, must not perturb a
        // single counter or decision relative to the plain default.
        let base = ProtocolSimConfig {
            record_trace: true,
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_protocol_sim(&base, 19);
        let b = run_protocol_sim(
            &ProtocolSimConfig {
                adversary: AdversaryPlan {
                    seed: 99,
                    fraction: 0.0,
                    policy: LiePolicy::OverReport,
                    gain: 9,
                },
                cross_check: CrossCheckConfig {
                    k: 0,
                    tolerance: 0.9,
                    quarantine_after: 1,
                },
                ..base.clone()
            },
            19,
        );
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.messages, b.messages);
        assert_eq!(event_log(&a.trace), event_log(&b.trace));
        assert_eq!(a.sybils_created, b.sybils_created);
        assert_eq!(b.messages.lied, 0);
    }

    #[test]
    fn byzantine_liars_distort_protocol_probes() {
        use autobal_chord::LiePolicy;
        // 25% over-reporting liars: smart-neighbor probes must see the
        // distorted loads (billed on the `lied` meta-counter, mirrored
        // one-for-one by `LoadLied` events) and reach different
        // decisions than the clean run.
        let clean = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                ..small(StrategyKind::SmartNeighbor)
            },
            20,
        );
        let lied = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                adversary: AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport),
                ..small(StrategyKind::SmartNeighbor)
            },
            20,
        );
        assert!(lied.completed, "liars slow the run down, not break it");
        assert!(lied.messages.lied > 0, "some probe hit a liar");
        let lied_events = event_log(&lied.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadLied { .. }))
            .count() as u64;
        assert_eq!(lied_events, lied.messages.lied);
        assert_ne!(
            event_log(&clean.trace),
            event_log(&lied.trace),
            "distorted reports must change the decision stream"
        );
    }

    #[test]
    fn cross_checking_bills_probes_and_quarantines_liars() {
        use autobal_chord::LiePolicy;
        // Over-reporting by gain 4 always conflicts with an honest
        // median (|4L+4 − L| > 0.5·max(L,1) for every L), so every
        // cross-checked probe round about a liar books suspicion and
        // the third one quarantines it.
        let plan = AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport);
        let undefended = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                adversary: plan.clone(),
                ..small(StrategyKind::SmartNeighbor)
            },
            21,
        );
        let defended = run_protocol_sim(
            &ProtocolSimConfig {
                record_trace: true,
                adversary: plan,
                cross_check: CrossCheckConfig::with_budget(2),
                ..small(StrategyKind::SmartNeighbor)
            },
            21,
        );
        assert!(defended.completed);
        assert!(
            defended.messages.load_query > undefended.messages.load_query,
            "redundant probes must be billed as real load queries"
        );
        let conflicts = event_log(&defended.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::ProbeConflict { .. }))
            .count() as u64;
        let mut quarantined = 0u64;
        for e in &event_log(&defended.trace) {
            if let SimEvent::Quarantined { suspicion, .. } = e {
                quarantined += 1;
                assert!(*suspicion >= 3, "quarantine fires at the threshold");
            }
        }
        assert!(conflicts > 0, "liars were caught in the act");
        assert!(quarantined > 0, "repeat offenders got quarantined");
        assert!(
            conflicts >= quarantined * 3,
            "each quarantine needs at least `quarantine_after` conflicts"
        );
    }
}
