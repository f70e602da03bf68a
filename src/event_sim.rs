//! The **event-time substrate**: the paper's strategies running on the
//! asynchronous Chord overlay, racing stabilization.
//!
//! [`protocol_sim`](crate::protocol_sim) closed the gap between the
//! oracle ring and the real protocol state machine, but it still
//! dispatches strategy actions through a synchronous shim: every load
//! probe, invitation, and Sybil join resolves instantly, between ticks.
//! This module removes that last idealization. It runs the same shared
//! Chord driver and the same trait-object `StrategyStack` unmodified,
//! but over the **event wire** transport, so observable actions become
//! real messages on the [`EventNet`] priority queue:
//!
//! * `query_load` sends an [`AppMsg::LoadQuery`] over the wire and
//!   blocks the check until the reply, a [`AppMsg::Nack`] bounce, or a
//!   probe timeout comes back — mapped to
//!   [`ActionError::Unreachable`] / [`ActionError::TimedOut`].
//! * `invite` announces to each listed predecessor as a separate wire
//!   message and harvests the `InviteReply`s that survive.
//! * Sybil joins and churn rejoins first resolve their position with a
//!   real tracked wire lookup (riding the existing retry budget), then
//!   hand off keys through the synchronous [`Network`] state machine.
//! * Strategy check cadence is a **timer event**: each check tick
//!   schedules one `CHECK` timer per active worker plus a `POSTCHECK`
//!   work/maintenance timer, so checks interleave with stabilize and
//!   notify traffic instead of running between ticks. Timers that
//!   fire while an action is blocked are deferred in FIFO order, which
//!   is exactly the synchronous dispatch order when latency is zero.
//!
//! Division of labor: the embedded [`Network`] is the **authoritative
//! state machine** (key placement, successor lists, replication — what
//! strategies read and what the work phase consumes), while the
//! [`EventNet`] is the **wire** (latency, loss, partitions,
//! duplication, retry budgets — what strategy traffic must survive).
//! Membership changes are mirrored into both on the spot; how fast the
//! *wire* learns about them is stabilization's problem, which is the
//! phenomenon under study. The network's own fault plan stays inert
//! here — adversity lives on the wire, plus the substrate-level crash
//! plane shared with the protocol substrate.
//!
//! **Correctness anchor:** under a *degenerate* configuration — zero
//! latency, inert faults — every reply arrives before the next
//! deferred timer fires, and ground-truth rewiring after each
//! membership change stands in for "stabilize before check". The
//! decision trace is then bit-for-bit identical to
//! [`run_protocol_sim`](crate::protocol_sim::run_protocol_sim) on the
//! same seed (`autobal-trace diff` reports no causal divergence).
//! Under real latency, divergence is the measurement, not a bug.

use autobal_chord::{AppEvent, AppMsg, AsyncLookup, EventConfig, EventNet, MessageStats, Network};
use autobal_core::record::LOAD_QUERY;
use autobal_core::strategy::{invitation::HelperCandidate, ActionError, Substrate};
use autobal_id::Id;
use autobal_metrics::MetricsSample;
use autobal_telemetry::Trace;
use std::collections::VecDeque;

use crate::chord_driver::{action_error, bootstrap, fate, Core, Driver, Transport};
pub use crate::protocol_sim::ProtocolSimConfig;

/// Substrate timer tokens: the top two bits carry the kind, the low 62
/// the payload (worker index for `CHECK`, request id for probes).
const TAG_SHIFT: u32 = 62;
/// Probe deadline; payload is the request id the probe is waiting on.
const TAG_PROBE: u64 = 0;
/// Tick boundary: churn, crash plane, check scheduling, work phase.
const TAG_TICK: u64 = 1;
/// One worker's strategy check; payload is the worker index.
const TAG_CHECK: u64 = 2;
/// End-of-sweep work phase + maintenance on check ticks.
const TAG_POSTCHECK: u64 = 3;

/// How long a load probe or invitation round waits for replies before
/// the action resolves as [`ActionError::TimedOut`]: a generous
/// multiple of the default round trip (2 × 10), so only loss or
/// partitions produce probe timeouts.
const PROBE_TIMEOUT: u64 = 400;

fn token(tag: u64, payload: u64) -> u64 {
    (tag << TAG_SHIFT) | payload
}

/// Configuration for an event-time run: the protocol-level knobs plus
/// the wire's timing model.
#[derive(Debug, Clone)]
pub struct EventSimConfig {
    /// Strategy, workload, churn, crash, and fault knobs — identical
    /// meaning to the synchronous protocol substrate. `proto.fault` is
    /// armed on the *wire* (crash events excepted: those stay on the
    /// substrate-level schedule, exactly as in the protocol run), and
    /// its partition/crash times are interpreted in **event time**.
    pub proto: ProtocolSimConfig,
    /// Wire timing: per-message latency, stabilize cadence, lookup
    /// timeout. `latency: 0` with an inert `proto.fault` selects the
    /// degenerate mode that reproduces the synchronous decision trace.
    pub event: EventConfig,
    /// Event-time units per simulator tick. Ticks *stretch* when a
    /// check sweep blocks on slow probes — the tick timer fires on
    /// schedule but is deferred behind the sweep, so task consumption
    /// genuinely waits for strategy traffic.
    pub tick_len: u64,
}

impl Default for EventSimConfig {
    fn default() -> Self {
        EventSimConfig {
            proto: ProtocolSimConfig::default(),
            event: EventConfig::default(),
            // One stabilize period per tick: maintenance traffic and
            // strategy cadence genuinely interleave.
            tick_len: 100,
        }
    }
}

/// Result of an event-time run. Superset of the protocol run report:
/// adds the wire plane (event clock, wire message bill, lookup-latency
/// tail) and the per-worker task counts the decision-quality table
/// computes Gini over.
#[derive(Debug, Clone)]
pub struct EventRun {
    /// Simulator ticks executed (work-phase opportunities).
    pub ticks: u64,
    pub ideal_ticks: u64,
    pub runtime_factor: f64,
    pub completed: bool,
    /// Final event-time clock. `time / ticks` exceeds `tick_len` when
    /// strategy traffic stalled the tick timer.
    pub time: u64,
    /// Synchronous state-machine bill: joins, key handoffs,
    /// replication — same meaning as the protocol run.
    pub messages: MessageStats,
    /// Wire bill: routing hops, stabilize/notify traffic, and the
    /// strategy vocabulary (`load_query`, `invitation`) that here
    /// rides the real queue. `wire.strategy_overhead()` isolates the
    /// balancing cost.
    pub wire: MessageStats,
    /// Events the wire's queue delivered to a handler over the whole
    /// run. A finished lookup's first-attempt timeout is skipped, not
    /// delivered, and is not counted.
    pub wire_events: u64,
    pub sybils_created: u64,
    pub sybils_retired: u64,
    pub tasks_lost: u64,
    pub workers_crashed: u64,
    /// Keys still unconsumed at exit (0 iff `completed`).
    pub tasks_remaining: u64,
    /// Tasks consumed per worker slot — the Gini input.
    pub tasks_done: Vec<u64>,
    /// Completed wire lookup latencies (join lookups: Sybil joins and
    /// churn rejoins), in event-time units, completion order.
    pub lookup_latencies: Vec<u64>,
    /// Wire lookups that exhausted their retry budget.
    pub lookup_timeouts: u64,
    /// Flight-recorder trace (empty unless
    /// [`ProtocolSimConfig::record_trace`]).
    pub trace: Trace,
    /// Streaming metrics samples (empty unless
    /// [`ProtocolSimConfig::record_metrics`]). Sample times are the
    /// **event clock**, not ticks.
    pub metrics: Vec<MetricsSample>,
}

/// The event wire: strategy traffic as real messages on the
/// [`EventNet`] queue. Every action blocks, draining the wire, until its
/// reply, a `Nack` bounce, or its deadline; substrate timers that
/// surface meanwhile are deferred.
struct EventWire {
    wire: EventNet,
    /// Zero latency + inert faults: rewire the wire's routing tables
    /// to ground truth after every membership change, standing in for
    /// "stabilization finished before the next check".
    degenerate: bool,
    /// Substrate timers that fired while an action was blocked on the
    /// wire, replayed FIFO by the driver. At zero latency this FIFO
    /// replay *is* the synchronous dispatch order.
    deferred: VecDeque<u64>,
    /// Request ids of an invitation round's unsettled announcements,
    /// ascending; kept between rounds so a round allocates nothing.
    outstanding: Vec<u64>,
    lookup_latencies: Vec<u64>,
    lookup_timeouts: u64,
}

impl EventWire {
    /// Files a timer that surfaced mid-drain: `CHECK`/`POSTCHECK`/
    /// `TICK` tokens are deferred for the driver; stale probe
    /// deadlines (their probe already resolved) are discarded.
    fn defer_timer(&mut self, tok: u64) {
        if tok >> TAG_SHIFT != TAG_PROBE {
            self.deferred.push_back(tok);
        }
    }

    /// Answers an application *request* arriving at vnode `at`;
    /// replies without a waiting drain are stale and ignored.
    fn serve_if_request(&mut self, core: &mut Core, at: Id, from: Id, req: u64, msg: AppMsg) {
        // A relay answers from its replica knowledge of the target's
        // key range; a Byzantine *reporter* distorts either answer.
        let mut load_reply = |about: Id| match core.net.node(about) {
            Some(n) => {
                let true_load = n.keys.len() as u64;
                AppMsg::LoadReply {
                    load: core.reported_load(self, at, about, true_load),
                }
            }
            None => AppMsg::Nack,
        };
        let reply = match msg {
            AppMsg::LoadQuery => load_reply(at),
            AppMsg::LoadQueryAbout { target } => load_reply(target),
            // Mirror of the synchronous candidate filter: the answering
            // owner volunteers iff it is not the inviter and has spawn
            // capacity, and quotes its current load.
            AppMsg::Invitation { inviter } => match core.owner_of.get(&at).copied() {
                Some(o) if o as u64 != inviter => AppMsg::InviteReply {
                    can: core.worker_can_spawn(o),
                    load: core.worker_load(o),
                },
                _ => AppMsg::InviteReply {
                    can: false,
                    load: 0,
                },
            },
            AppMsg::LoadReply { .. } | AppMsg::InviteReply { .. } | AppMsg::Nack => return,
        };
        self.wire.reply_app(at, from, req, reply);
    }

    /// Drains the wire until the tracked join lookup `req` completes
    /// (success or retry-budget exhaustion — the wire always resolves
    /// a watched lookup). Protocol traffic and other nodes' requests
    /// are handled inline; substrate timers are deferred.
    fn await_join(&mut self, core: &mut Core, req: u64) -> Option<AsyncLookup> {
        loop {
            match self.wire.run_until_app(u64::MAX)? {
                AppEvent::LookupDone(l) if l.req == req => return Some(l),
                AppEvent::LookupDone(_) => {}
                AppEvent::Timer { token } => self.defer_timer(token),
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => self.serve_if_request(core, at, from, r, msg),
            }
        }
    }

    /// Harvests completed wire lookups into the latency tail.
    fn drain_lookups(&mut self) {
        for l in self.wire.drain_completed() {
            if l.owner.is_some() {
                self.lookup_latencies.push(l.latency);
            } else {
                self.lookup_timeouts += 1;
            }
        }
    }
}

impl Transport for EventWire {
    fn plane<'a>(&'a mut self, _net: &'a mut Network) -> &'a mut MessageStats {
        &mut self.wire.stats
    }

    /// A real round trip: the query goes out, then the check **blocks**
    /// draining the wire until the reply, a dead-node `Nack`, or the
    /// probe deadline. Stabilization traffic keeps flowing while we
    /// wait — that is the race the paper's strategies live in.
    fn probe(
        &mut self,
        core: &mut Core,
        from: Id,
        to: Id,
        about: Option<Id>,
    ) -> Result<u64, ActionError> {
        let query = match about {
            None => AppMsg::LoadQuery,
            Some(target) => AppMsg::LoadQueryAbout { target },
        };
        let req = self.wire.send_app(from, to, query);
        let deadline = token(TAG_PROBE, req);
        let at = self.wire.now() + PROBE_TIMEOUT;
        self.wire.schedule_app_timer(at, deadline);
        let answer = loop {
            let Some(ev) = self.wire.run_until_app(u64::MAX) else {
                break Err(ActionError::TimedOut);
            };
            match ev {
                AppEvent::Timer { token: t } if t == deadline => break Err(ActionError::TimedOut),
                AppEvent::Timer { token: t } => self.defer_timer(t),
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::LoadReply { load },
                    ..
                } if r == req => break Ok(load),
                AppEvent::Msg {
                    req: r,
                    msg: AppMsg::Nack,
                    ..
                } if r == req => break Err(ActionError::Unreachable),
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => self.serve_if_request(core, at, from, r, msg),
                AppEvent::LookupDone(_) => {}
            }
        };
        core.rec.bill(core.tick, LOAD_QUERY, fate(&answer), 0);
        answer
    }

    /// The announcement goes to each listed predecessor as a separate
    /// wire message (the synchronous shim models the whole round as one
    /// flat-rate message; event time bills what the wire actually
    /// carries). Volunteers answer with `InviteReply`; the round closes
    /// when every announcement settles or the probe deadline passes,
    /// and the replies are kept in arrival order — at zero latency,
    /// exactly the synchronous candidate order.
    fn invite_round(
        &mut self,
        core: &mut Core,
        inviter: usize,
        hot: Id,
        preds: &[Id],
    ) -> Option<Vec<HelperCandidate>> {
        self.outstanding.clear();
        for &p in preds {
            let invitation = AppMsg::Invitation {
                inviter: inviter as u64,
            };
            self.outstanding
                .push(self.wire.send_app(hot, p, invitation));
        }
        let wait_tok = token(TAG_PROBE, *self.outstanding.first()?);
        let at = self.wire.now() + PROBE_TIMEOUT;
        self.wire.schedule_app_timer(at, wait_tok);
        let mut candidates: Vec<HelperCandidate> = Vec::new();
        let mut delivered = false;
        // Settles announcement `r` if it is still outstanding (request
        // ids grow, so the list is sorted).
        let settle = |outstanding: &mut Vec<u64>, r: u64| match outstanding.binary_search(&r) {
            Ok(i) => {
                outstanding.remove(i);
                true
            }
            Err(_) => false,
        };
        while !self.outstanding.is_empty() {
            let Some(ev) = self.wire.run_until_app(u64::MAX) else {
                break;
            };
            match ev {
                AppEvent::Timer { token: t } if t == wait_tok => break,
                AppEvent::Timer { token: t } => self.defer_timer(t),
                AppEvent::Msg {
                    at,
                    from,
                    req: r,
                    msg,
                } => match msg {
                    // Inbound requests (including our own announcements
                    // being *delivered* to their targets, which carry
                    // the same request ids) are served inline.
                    AppMsg::LoadQuery | AppMsg::Invitation { .. } => {
                        self.serve_if_request(core, at, from, r, msg)
                    }
                    AppMsg::InviteReply { can, load } if settle(&mut self.outstanding, r) => {
                        delivered = true;
                        if can {
                            if let Some(&o) = core.owner_of.get(&from) {
                                candidates.push(HelperCandidate {
                                    worker: o,
                                    strength: 1, // homogeneous substrate
                                    load,
                                });
                            }
                        }
                    }
                    AppMsg::Nack if settle(&mut self.outstanding, r) => {
                        delivered = true;
                    }
                    _ => {}
                },
                AppEvent::LookupDone(_) => {}
            }
        }
        delivered.then_some(candidates)
    }

    /// The position is first resolved by a real tracked wire lookup
    /// (latency, loss, and the retry budget all apply), then the
    /// synchronous network performs the authoritative key handoff.
    fn join(&mut self, core: &mut Core, pos: Id, contact: Id) -> Result<(), ActionError> {
        if core.net.node(pos).is_some() {
            // The synchronous shim's DuplicateId path.
            return Err(ActionError::Occupied);
        }
        let req = self
            .wire
            .join_tracked(pos, contact)
            .ok_or(ActionError::Unreachable)?;
        let resolved = self.await_join(core, req).and_then(|l| l.owner).is_some();
        // Undo a half-join the wire never resolved or the network
        // refused, so wire and network membership stay mirrored.
        let joined = if resolved {
            core.net.join_with_retry(pos, contact).map_err(action_error)
        } else {
            Err(ActionError::TimedOut)
        };
        if joined.is_err() {
            self.wire.fail(pos);
            return joined;
        }
        self.membership_changed();
        Ok(())
    }

    /// The wire has no graceful-leave vocabulary: a leaving vnode
    /// simply stops answering and stabilization routes around it.
    fn vnode_gone(&mut self, id: Id) {
        self.wire.fail(id);
    }

    fn membership_changed(&mut self) {
        if self.degenerate {
            self.wire.rewire_ground_truth();
        }
    }

    /// Samples are stamped with the event clock, not the tick.
    fn sample_clock(&self, _tick: u64) -> u64 {
        self.wire.now()
    }
}

/// Runs the computation on the event-time substrate.
///
/// # Panics
/// Panics where [`run_protocol_sim`](crate::protocol_sim::run_protocol_sim)
/// does on `cfg.proto`: a config the oracle ring rejects, or
/// [`StrategyKind::CentralizedOracle`](autobal_core::StrategyKind::CentralizedOracle).
pub fn run_event_sim(cfg: &EventSimConfig, seed: u64) -> EventRun {
    let (net, node_ids, task_keys) = bootstrap(&cfg.proto, seed);
    run_event_inner(cfg, seed, net, node_ids, task_keys)
}

/// [`run_event_sim`] with explicit node placement and task keys — the
/// hook the tick-vs-event differential tests use to hand both
/// substrates bit-identical starting conditions.
pub fn run_event_sim_with_placement(
    cfg: &EventSimConfig,
    seed: u64,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> EventRun {
    // autobal-lint: allow(panic-safety, "caller contract: placement ids are distinct, mirroring run_protocol_sim_with_placement")
    let net = Network::from_ids(cfg.proto.net, &node_ids).expect("distinct node ids");
    run_event_inner(cfg, seed, net, node_ids, task_keys)
}

fn run_event_inner(
    cfg: &EventSimConfig,
    seed: u64,
    net: Network,
    node_ids: Vec<Id>,
    task_keys: Vec<Id>,
) -> EventRun {
    // The synchronous network is the good-weather state machine here;
    // adversity lives on the wire (and the substrate crash plane), so
    // `net`'s own fault plan stays inert.
    let (core, stack) = Core::setup(&cfg.proto, seed, net, &node_ids, task_keys, "event");
    let mut wire = EventNet::from_ids(cfg.event, &node_ids);
    let mut wire_plan = cfg.proto.fault.clone();
    // Crash events stay on the substrate-level schedule (same victim
    // stream as the protocol run); the wire handles loss, delay,
    // duplication, and partitions — in event-time units.
    wire_plan.crashes = Vec::new();
    wire.set_fault_plan(wire_plan);
    let link = EventWire {
        wire,
        degenerate: cfg.event.latency == 0 && !cfg.proto.fault.is_active(),
        deferred: VecDeque::new(),
        outstanding: Vec::new(),
        lookup_latencies: Vec::new(),
        lookup_timeouts: 0,
    };
    let mut d = Driver::new(core, link);

    // First tick boundary after one tick's worth of event time; the
    // staggered stabilize timers armed by `from_ids` already populate
    // the queue, so the wire is never idle.
    let tick_len = cfg.tick_len.max(1);
    d.link.wire.schedule_app_timer(tick_len, token(TAG_TICK, 0));
    let mut order = Vec::new();

    loop {
        // Deferred timers — check sweeps and tick boundaries that fired
        // while an action was blocked — replay first, in the order the
        // queue originally surfaced them.
        let ev = match d.link.deferred.pop_front() {
            Some(tok) => AppEvent::Timer { token: tok },
            None => match d.link.wire.run_until_app(u64::MAX) {
                Some(ev) => ev,
                None => break,
            },
        };
        match ev {
            AppEvent::Timer { token: tok } => match tok >> TAG_SHIFT {
                TAG_TICK => {
                    if d.core.net.total_keys() == 0 || d.core.tick >= cfg.proto.max_ticks {
                        break;
                    }
                    d.begin_tick();
                    d.churn(&stack);
                    if d.core.tick.is_multiple_of(cfg.proto.check_interval) && stack.has_per_node()
                    {
                        // Schedule one CHECK per active worker plus the
                        // closing POSTCHECK, all "now": same-timestamp
                        // FIFO ordering makes the sweep run in the
                        // synchronous decision order, but any event
                        // already on the wire interleaves with it.
                        let now = d.link.wire.now();
                        d.decision_order(&mut order);
                        for &w in &order {
                            d.link
                                .wire
                                .schedule_app_timer(now, token(TAG_CHECK, w as u64));
                        }
                        d.link.wire.schedule_app_timer(now, token(TAG_POSTCHECK, 0));
                    } else {
                        d.end_tick();
                    }
                    d.link.drain_lookups();
                    let next = d.link.wire.now() + tick_len;
                    d.link.wire.schedule_app_timer(next, token(TAG_TICK, 0));
                }
                TAG_CHECK => d.check_one(&stack, (tok & ((1 << TAG_SHIFT) - 1)) as usize),
                TAG_POSTCHECK => d.end_tick(),
                // Stale probe deadline: its probe already resolved.
                _ => {}
            },
            AppEvent::Msg { at, from, req, msg } => {
                d.link.serve_if_request(&mut d.core, at, from, req, msg)
            }
            AppEvent::LookupDone(_) => {}
        }
    }
    d.link.drain_lookups();
    let (completed, rec) = d.finish();

    let (core, link) = (d.core, d.link);
    EventRun {
        ticks: core.tick,
        ideal_ticks: core.ideal_ticks,
        runtime_factor: core.tick as f64 / core.ideal_ticks as f64,
        completed,
        time: link.wire.now(),
        messages: core.net.stats.clone(),
        wire: link.wire.stats.clone(),
        wire_events: link.wire.wire_events,
        sybils_created: rec.tally.sybils_created,
        sybils_retired: rec.tally.sybils_retired,
        tasks_lost: core.tasks_lost,
        workers_crashed: rec.workers_crashed,
        tasks_remaining: core.net.total_keys() as u64,
        tasks_done: core.tasks_done,
        lookup_latencies: link.lookup_latencies,
        lookup_timeouts: link.lookup_timeouts,
        trace: rec.trace,
        metrics: rec.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol_sim::{run_protocol_sim, ProtocolRun};
    use autobal_chord::FaultPlan;
    use autobal_core::trace::{event_log, SimEvent};
    use autobal_core::StrategyKind;

    fn small(strategy: StrategyKind) -> EventSimConfig {
        EventSimConfig {
            proto: ProtocolSimConfig {
                nodes: 32,
                tasks: 1_600,
                strategy,
                ..ProtocolSimConfig::default()
            },
            ..EventSimConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "check_interval must be at least 1")]
    fn zero_check_interval_is_rejected() {
        let mut cfg = small(StrategyKind::RandomInjection);
        cfg.proto.check_interval = 0;
        run_event_sim(&cfg, 1);
    }

    fn degenerate(strategy: StrategyKind) -> EventSimConfig {
        EventSimConfig {
            event: EventConfig {
                latency: 0,
                ..EventConfig::default()
            },
            ..small(strategy)
        }
    }

    #[test]
    fn event_baseline_completes_under_real_latency() {
        let res = run_event_sim(&small(StrategyKind::None), 1);
        assert!(res.completed);
        assert_eq!(res.tasks_remaining, 0);
        assert!(res.time >= res.ticks * 100, "event time covers every tick");
        assert!(res.wire.stabilize > 0, "stabilization actually ran");
        assert!(res.wire_events > 0);
        assert_eq!(res.tasks_done.iter().sum::<u64>(), 1_600);
    }

    /// Asserts what the shared driver must do identically under both
    /// transports: the same per-worker work, the same losses, and the
    /// same network bill for joins, leaves and handoffs once strategy
    /// traffic (billed to the network by the shim, to the wire here)
    /// is set aside.
    fn assert_same_network_work(proto: &ProtocolRun, event: &EventRun, what: &str) {
        assert_eq!(proto.tasks_done, event.tasks_done, "{what}: tasks_done");
        assert_eq!(proto.tasks_lost, event.tasks_lost, "{what}: tasks_lost");
        let network_bill = MessageStats {
            load_query: 0,
            invitation: 0,
            lied: 0,
            ..proto.messages.clone()
        };
        assert_eq!(network_bill, event.messages, "{what}: network bills differ");
    }

    #[test]
    fn degenerate_config_reproduces_protocol_decisions() {
        // The tentpole pin: zero latency + inert faults must replay the
        // synchronous substrate's decision stream bit-for-bit, for
        // every decentralized strategy.
        for kind in [
            StrategyKind::None,
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::SmartNeighbor,
            StrategyKind::Invitation,
        ] {
            let cfg = degenerate(kind);
            let mut pcfg = cfg.proto.clone();
            pcfg.record_trace = true;
            let ecfg = EventSimConfig {
                proto: pcfg.clone(),
                ..cfg
            };
            let proto = run_protocol_sim(&pcfg, 2);
            let event = run_event_sim(&ecfg, 2);
            assert_eq!(proto.ticks, event.ticks, "{kind:?}: tick counts differ");
            assert_eq!(
                event_log(&proto.trace),
                event_log(&event.trace),
                "{kind:?}: decision streams differ"
            );
            assert_eq!(proto.sybils_created, event.sybils_created, "{kind:?}");
            assert_eq!(proto.sybils_retired, event.sybils_retired, "{kind:?}");
            assert_same_network_work(&proto, &event, &format!("{kind:?}"));
        }
    }

    #[test]
    fn degenerate_parity_survives_churn_and_crashes() {
        for (churn, crash) in [(0.005, 0.0), (0.0, 0.05), (0.005, 0.05)] {
            let mut cfg = degenerate(StrategyKind::RandomInjection);
            cfg.proto.churn_rate = churn;
            cfg.proto.crash_rate = crash;
            cfg.proto.record_trace = true;
            let proto = run_protocol_sim(&cfg.proto, 3);
            let event = run_event_sim(&cfg, 3);
            assert_eq!(
                event_log(&proto.trace),
                event_log(&event.trace),
                "churn={churn} crash={crash}: decision streams differ"
            );
            assert_eq!(proto.ticks, event.ticks);
            assert_eq!(proto.workers_crashed, event.workers_crashed);
            assert_same_network_work(&proto, &event, &format!("churn={churn} crash={crash}"));
        }
    }

    #[test]
    fn strategy_traffic_is_billed_to_the_wire() {
        let smart = run_event_sim(&small(StrategyKind::SmartNeighbor), 4);
        assert!(smart.completed);
        assert!(smart.sybils_created > 0);
        assert!(smart.wire.load_query > 0, "probes must ride the real queue");
        assert_eq!(
            smart.wire.strategy_overhead(),
            smart.wire.load_query + smart.wire.invitation
        );
        // The synchronous plane never bills strategy messages here.
        assert_eq!(smart.messages.load_query, 0);
        assert_eq!(smart.messages.invitation, 0);
    }

    #[test]
    fn invitation_round_trips_on_the_wire() {
        let inv = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    overload_factor: 1.0,
                    record_trace: true,
                    ..small(StrategyKind::Invitation).proto
                },
                ..small(StrategyKind::Invitation)
            },
            5,
        );
        assert!(inv.completed);
        assert!(inv.wire.invitation > 0, "announcements were sent");
        assert!(inv.sybils_created > 0, "helpers actually joined");
        let sent = event_log(&inv.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationSent { .. }))
            .count() as u64;
        let honored = event_log(&inv.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationHonored { .. }))
            .count() as u64;
        let refused = event_log(&inv.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationRefused { .. }))
            .count() as u64;
        assert!(honored > 0);
        assert_eq!(sent, honored + refused);
    }

    #[test]
    fn latency_stretches_ticks_for_probing_strategies() {
        // Smart neighbor pays per-probe round trips: at high latency
        // the same tick count must span strictly more event time than
        // the baseline's maintenance-only wire.
        let slow = EventSimConfig {
            event: EventConfig {
                latency: 50,
                ..EventConfig::default()
            },
            ..small(StrategyKind::SmartNeighbor)
        };
        let res = run_event_sim(&slow, 6);
        assert!(res.completed);
        assert!(
            res.time > res.ticks * res.tasks_done.len() as u64 / 8,
            "checks must consume event time"
        );
        assert!(res.wire.load_query > 0);
    }

    #[test]
    fn lossy_wire_degrades_gracefully() {
        for kind in [StrategyKind::RandomInjection, StrategyKind::SmartNeighbor] {
            let clean = run_event_sim(&small(kind), 7);
            let lossy = run_event_sim(
                &EventSimConfig {
                    proto: ProtocolSimConfig {
                        fault: FaultPlan::lossy(7, 0.10),
                        ..small(kind).proto
                    },
                    ..small(kind)
                },
                7,
            );
            assert!(lossy.completed, "{kind:?} must finish at 10% wire loss");
            assert!(lossy.wire.dropped > 0, "{kind:?}: the wire actually lost");
            assert!(
                lossy.runtime_factor <= clean.runtime_factor * 2.5,
                "{kind:?}: lossy {} vs clean {}",
                lossy.runtime_factor,
                clean.runtime_factor
            );
        }
    }

    #[test]
    fn churn_composes_on_event_time() {
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    churn_rate: 0.005,
                    record_trace: true,
                    ..small(StrategyKind::RandomInjection).proto
                },
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
        assert!(joined > 0, "churn rejoins happened (wire joins resolved)");
        assert!(res.sybils_created > 0);
    }

    #[test]
    fn oracle_strategy_is_rejected() {
        let r =
            std::panic::catch_unwind(|| run_event_sim(&small(StrategyKind::CentralizedOracle), 1));
        assert!(r.is_err());
    }

    #[test]
    fn event_runs_are_deterministic() {
        let cfg = EventSimConfig {
            proto: ProtocolSimConfig {
                record_trace: true,
                fault: FaultPlan::lossy(9, 0.05),
                ..small(StrategyKind::SmartNeighbor).proto
            },
            ..small(StrategyKind::SmartNeighbor)
        };
        let a = run_event_sim(&cfg, 9);
        let b = run_event_sim(&cfg, 9);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.time, b.time);
        assert_eq!(a.wire, b.wire);
        assert_eq!(a.tasks_done, b.tasks_done);
        assert_eq!(
            autobal_telemetry::to_jsonl(a.trace.records()),
            autobal_telemetry::to_jsonl(b.trace.records())
        );
    }

    #[test]
    fn crash_failures_conserve_replicated_keys_on_event_time() {
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    crash_rate: 0.05,
                    ..small(StrategyKind::RandomInjection).proto
                },
                ..small(StrategyKind::RandomInjection)
            },
            10,
        );
        assert!(res.completed, "run must finish despite crashes");
        assert!(res.workers_crashed > 0);
        assert_eq!(res.tasks_lost, 0, "replication covers every victim");
        assert_eq!(res.messages.keys_lost, 0);
    }

    #[test]
    fn lookup_latency_tail_is_recorded() {
        let res = run_event_sim(&small(StrategyKind::RandomInjection), 11);
        assert!(
            !res.lookup_latencies.is_empty(),
            "join lookups complete on the wire"
        );
        assert!(res.lookup_latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn byzantine_lies_are_billed_to_the_wire() {
        use autobal_chord::{AdversaryPlan, LiePolicy};
        // Lies are applied when the reply is served, ride the real
        // LoadReply back, and are mirrored one-for-one by LoadLied
        // events on a lossless wire.
        let res = run_event_sim(
            &EventSimConfig {
                proto: ProtocolSimConfig {
                    record_trace: true,
                    adversary: AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport),
                    ..small(StrategyKind::SmartNeighbor).proto
                },
                ..small(StrategyKind::SmartNeighbor)
            },
            12,
        );
        assert!(res.completed);
        assert!(res.wire.lied > 0, "some probe was answered by a liar");
        let lied_events = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadLied { .. }))
            .count() as u64;
        assert_eq!(lied_events, res.wire.lied);
        // Lies distort replies that were sent anyway: the meta-counter
        // stays out of the wire total.
        assert!(res.wire.total() >= res.wire.load_query);
    }

    #[test]
    fn degenerate_parity_holds_under_active_adversary_and_cross_check() {
        use autobal_chord::{AdversaryPlan, LiePolicy};
        use autobal_core::strategy::crosscheck::CrossCheckConfig;
        // The tentpole pin, hostile edition: with 25% liars AND the
        // cross-checking defense on, zero latency must still replay the
        // synchronous substrate bit-for-bit — lies are a pure function
        // of (worker, true load, tick) and relays are picked
        // deterministically, so nothing depends on wall-clock order.
        for kind in [StrategyKind::SmartNeighbor, StrategyKind::Invitation] {
            let mut cfg = degenerate(kind);
            cfg.proto.record_trace = true;
            cfg.proto.adversary = AdversaryPlan::lying(7, 0.25, LiePolicy::OverReport);
            cfg.proto.cross_check = CrossCheckConfig::with_budget(2);
            let proto = run_protocol_sim(&cfg.proto, 13);
            let event = run_event_sim(&cfg, 13);
            assert_eq!(proto.ticks, event.ticks, "{kind:?}: tick counts differ");
            assert_eq!(
                event_log(&proto.trace),
                event_log(&event.trace),
                "{kind:?}: decision streams differ under adversary"
            );
            // Satellite pin: probes and lied replies bill the tick shim
            // and the event wire identically.
            assert_eq!(
                proto.messages.load_query, event.wire.load_query,
                "{kind:?}: probe bills diverge"
            );
            assert_eq!(
                proto.messages.lied, event.wire.lied,
                "{kind:?}: lie meta-counters diverge"
            );
            assert_same_network_work(&proto, &event, &format!("{kind:?} under adversary"));
            if kind == StrategyKind::SmartNeighbor {
                // Invitation steers by announcements, not load probes,
                // so only the probing strategy actually meets the liars.
                assert!(proto.messages.lied > 0, "the adversary was live");
            }
        }
    }
}
