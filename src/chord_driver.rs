//! The driver both Chord substrates share: one worker table, one
//! waiting pool, one crash plane, one set of Sybil books, one emission
//! path, and one implementation of the strategy traits, generic over
//! how strategy traffic travels.
//!
//! [`protocol_sim`](crate::protocol_sim) and
//! [`event_sim`](crate::event_sim) differ only in their [`Transport`]:
//! the synchronous shim resolves every probe, invitation and join
//! instantly against the [`Network`], while the event wire sends them
//! as real messages on an `EventNet` queue and blocks until the reply
//! or a deadline. Everything else — which worker owns which vnode, how
//! a Sybil joins and retires, how a crash or a churn departure is
//! booked, what each decision emits, how the work phase consumes tasks
//! and how metrics are sampled — lives here, once. Each substrate keeps
//! only its outer loop (the lockstep tick loop or the timer-driven
//! event loop) and its public configuration and report types.
//!
//! The [`Network`] is the authoritative state machine on both
//! substrates: strategies read key counts, successor lists and
//! predecessor lists from it, and the work phase pops keys from it.

use autobal_chord::{AdversaryState, MessageStats, Network, NetworkError};
use autobal_core::record::{Recorder, Records, INVITATION, JOIN};
use autobal_core::strategy::{
    invitation::{pick_helper, HelperCandidate},
    stack_for, ActionError, Actions, ChurnOps, InviteOutcome, LocalView, Strategy, StrategyParams,
    StrategyStack, Substrate,
};
use autobal_core::trace::SimEvent;
use autobal_core::{random_task_keys, StrategyKind};
use autobal_id::{ring, Id};
use autobal_metrics::{profile, RingSlot};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::MessageStatus;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

use crate::protocol_sim::ProtocolSimConfig;

/// The fate of the message behind an action's result. An occupied
/// position still means the join reached the ring.
pub(crate) fn fate<T>(res: &Result<T, ActionError>) -> MessageStatus {
    match res {
        Ok(_) | Err(ActionError::Occupied) => MessageStatus::Delivered,
        Err(ActionError::TimedOut) => MessageStatus::TimedOut,
        Err(ActionError::Unreachable) => MessageStatus::Unreachable,
    }
}

/// What a failed network operation means to the strategy that asked.
pub(crate) fn action_error(e: NetworkError) -> ActionError {
    match e {
        NetworkError::DuplicateId(_) => ActionError::Occupied,
        NetworkError::TimedOut { .. } => ActionError::TimedOut,
        NetworkError::EmptyNetwork
        | NetworkError::UnknownNode(_)
        | NetworkError::LookupFailed { .. } => ActionError::Unreachable,
    }
}

/// The seeded starting conditions of a run: the bootstrapped network,
/// its node ids, and the task keys.
pub(crate) fn bootstrap(cfg: &ProtocolSimConfig, seed: u64) -> (Network, Vec<Id>, Vec<Id>) {
    let mut placement: DetRng = substream(seed, 0, domains::PLACEMENT);
    let net = Network::bootstrap(cfg.net, cfg.nodes, &mut placement);
    let node_ids = net.node_ids();
    let task_keys = random_task_keys(seed, 0, cfg.tasks as usize);
    (net, node_ids, task_keys)
}

/// How strategy traffic travels between workers. The driver calls the
/// transport for the five things the substrates do differently; every
/// method gets the shared [`Core`] so it can read the network and bill
/// what it sends.
pub(crate) trait Transport {
    /// The message plane strategy traffic, join retries and `lied`
    /// replies are billed to.
    fn plane<'a>(&'a mut self, net: &'a mut Network) -> &'a mut MessageStats;

    /// One load probe from `from` to `to`, asking about `about` (`to`
    /// itself when `None`). Bills the probe and returns the load the
    /// reporter answered with.
    fn probe(
        &mut self,
        core: &mut Core,
        from: Id,
        to: Id,
        about: Option<Id>,
    ) -> Result<u64, ActionError>;

    /// Announces `inviter`'s invitation from the hot vnode to its listed
    /// predecessors and returns the volunteers, or `None` when every
    /// announcement was lost.
    fn invite_round(
        &mut self,
        core: &mut Core,
        inviter: usize,
        hot: Id,
        preds: &[Id],
    ) -> Option<Vec<HelperCandidate>>;

    /// Joins a new vnode at `pos` through `contact`, ending with the
    /// authoritative key handoff on the network.
    fn join(&mut self, core: &mut Core, pos: Id, contact: Id) -> Result<(), ActionError>;

    /// Vnode `id` left the network (gracefully or not).
    fn vnode_gone(&mut self, _id: Id) {}

    /// Ring membership changed; runs once per membership event.
    fn membership_changed(&mut self) {}

    /// The clock metrics samples are stamped with.
    fn sample_clock(&self, tick: u64) -> u64 {
        tick
    }
}

/// One physical worker: its primary Chord node plus live Sybil nodes.
struct Worker {
    primary: Id,
    sybils: Vec<Id>,
    active: bool,
}

impl Worker {
    fn vnodes(&self) -> impl Iterator<Item = Id> + '_ {
        std::iter::once(self.primary)
            .chain(self.sybils.iter().copied())
            .filter(|_| self.active)
    }
}

/// Everything the two substrates share except the transport.
pub(crate) struct Core {
    pub(crate) net: Network,
    workers: Vec<Worker>,
    /// Waiting pool for churn (worker indices).
    waiting: Vec<usize>,
    /// Which worker controls each live node id.
    pub(crate) owner_of: BTreeMap<Id, usize>,
    params: StrategyParams,
    max_sybils: u32,
    active_count: usize,
    pub(crate) tick: u64,
    /// The nominal duration: tasks per initial worker, at least 1.
    pub(crate) ideal_ticks: u64,
    rng_strategy: DetRng,
    rng_churn: DetRng,
    /// Crash-victim selection stream — separate from churn and strategy
    /// so arming the fault plane never perturbs their draws.
    rng_faults: DetRng,
    /// Remaining substrate-level crash events, `(tick, victims)`.
    crash_schedule: VecDeque<(u64, u32)>,
    pub(crate) tasks_lost: u64,
    crash_retirement: bool,
    /// Armed Byzantine adversary: decides per owner whether a load
    /// reply is distorted. Stateless at query time, so a reply lies
    /// identically on either transport.
    adversary: AdversaryState,
    /// Tasks consumed per worker slot — the Gini input.
    pub(crate) tasks_done: Vec<u64>,
    /// The trace and metrics planes and the tallies derived from them.
    pub(crate) rec: Recorder,
    /// Cumulative quarantine decisions against each worker, for the
    /// ring snapshot's quarantine markers.
    quarantined_marks: Vec<u64>,
    /// The [`LocalView`] lists a check reads, reused from one call to
    /// the next: a worker's own node loads and its successor list.
    own_loads: Vec<(Id, u64)>,
    neighbors: Vec<Id>,
}

impl Core {
    /// Places the tasks, runs the first maintenance cycle, and builds
    /// the worker table, waiting pool, crash schedule and strategy
    /// stack. `substrate` names the run in the trace. The network's
    /// fault plan is left inert: adversity begins after this initial
    /// stabilization.
    ///
    /// The shared knobs go through the oracle ring's rules
    /// ([`ProtocolSimConfig::sim_config`]): its `validate`, its strategy
    /// stack, its [`StrategyParams`], its churn switch and its ideal
    /// runtime.
    ///
    /// # Panics
    /// Panics on a config the oracle ring would reject, or if
    /// `cfg.strategy` is [`StrategyKind::CentralizedOracle`] —
    /// omniscience does not exist on a real network.
    pub(crate) fn setup(
        cfg: &ProtocolSimConfig,
        seed: u64,
        mut net: Network,
        node_ids: &[Id],
        task_keys: Vec<Id>,
        substrate: &str,
    ) -> (Core, StrategyStack) {
        let shared = cfg.sim_config();
        // autobal-lint: allow(panic-safety, "caller contract: the same config rules Sim::with_placement enforces")
        shared.validate().expect("invalid SimConfig");
        assert!(
            cfg.strategy != StrategyKind::CentralizedOracle,
            "the centralized oracle needs the omniscient oracle-ring substrate"
        );
        for key in task_keys {
            net.insert_key(key);
        }
        net.maintenance_cycle();

        // Crash schedule: explicit events from the plan win; otherwise
        // `crash_rate` spreads ceil(rate × nodes) single-victim crashes
        // evenly across the nominal (ideal) duration.
        let ideal_ticks = shared.ideal_ticks().max(1);
        let mut crash_schedule: Vec<(u64, u32)> =
            cfg.fault.crashes.iter().map(|c| (c.at, c.count)).collect();
        if crash_schedule.is_empty() && cfg.crash_rate > 0.0 {
            let total = (cfg.crash_rate * cfg.nodes as f64).ceil() as u32;
            for i in 0..total as u64 {
                let at = ((i + 1) * ideal_ticks) / (total as u64 + 1);
                crash_schedule.push((at.max(1), 1));
            }
        }
        crash_schedule.sort_unstable();

        let mut workers: Vec<Worker> = node_ids
            .iter()
            .map(|&id| Worker {
                primary: id,
                sybils: Vec::new(),
                active: true,
            })
            .collect();
        let owner_of: BTreeMap<Id, usize> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        // The churn waiting pool "begins at the same initial size as the
        // network" (§IV-A).
        let mut waiting = Vec::new();
        if shared.churn_enabled() {
            for _ in 0..cfg.nodes {
                waiting.push(workers.len());
                workers.push(Worker {
                    primary: Id::ZERO,
                    sybils: Vec::new(),
                    active: false,
                });
            }
        }

        let stack = stack_for(&shared, &cfg.cross_check);

        let slots = workers.len();
        let mut rec = Recorder::new(
            cfg.record_trace,
            cfg.record_metrics,
            cfg.metrics_ring,
            cfg.metrics_interval,
        );
        rec.start(substrate, cfg.strategy.label(), seed);
        let core = Core {
            net,
            workers,
            waiting,
            owner_of,
            params: shared.strategy_params(),
            max_sybils: cfg.max_sybils,
            active_count: cfg.nodes,
            tick: 0,
            ideal_ticks,
            rng_strategy: substream(seed, 0, domains::STRATEGY),
            rng_churn: substream(seed, 0, domains::CHURN),
            rng_faults: substream(seed, 0, domains::FAULTS),
            crash_schedule: crash_schedule.into_iter().collect(),
            tasks_lost: 0,
            crash_retirement: cfg.crash_retirement,
            adversary: AdversaryState::new(cfg.adversary.clone(), cfg.nodes),
            tasks_done: vec![0; slots],
            rec,
            quarantined_marks: vec![0; slots],
            own_loads: Vec::new(),
            neighbors: Vec::new(),
        };
        (core, stack)
    }

    pub(crate) fn worker_load(&self, w: usize) -> u64 {
        self.workers
            .get(w)
            .into_iter()
            .flat_map(|p| p.vnodes())
            .filter_map(|v| self.net.node(v))
            .map(|n| n.keys.len() as u64)
            .sum()
    }

    pub(crate) fn worker_can_spawn(&self, w: usize) -> bool {
        let Some(p) = self.workers.get(w) else {
            return false;
        };
        p.active
            && self.worker_load(w) <= self.params.sybil_threshold
            && (p.sybils.len() as u32) < self.max_sybils
    }

    /// The load value vnode `reporter` actually answers with: the truth
    /// unless its owner is Byzantine, in which case the distorted value
    /// is billed to the transport's `lied` meta-counter and recorded as
    /// a `lied` decision — when the reply is served, so decision streams
    /// stay comparable across transports. `about` is the vnode the
    /// answer describes (the reporter itself for direct probes, the
    /// probe target for relays).
    pub(crate) fn reported_load<T: Transport>(
        &mut self,
        link: &mut T,
        reporter: Id,
        about: Id,
        true_load: u64,
    ) -> u64 {
        let tick = self.tick;
        let lie = self
            .owner_of
            .get(&reporter)
            .copied()
            .and_then(|o| self.adversary.lie(o, true_load, tick).map(|l| (o, l)));
        let Some((owner, reported)) = lie else {
            return true_load;
        };
        link.plane(&mut self.net).lied += 1;
        self.rec.emit(SimEvent::LoadLied {
            tick,
            worker: owner,
            about,
            reported,
        });
        reported
    }

    /// Gracefully leaves `id`, tolerating only "already gone": under
    /// crash faults a node can vanish before its owner retires it.
    /// Anything else would be an ownership-bookkeeping bug, which the
    /// debug builds refuse to paper over.
    fn leave_expecting_gone(&mut self, id: Id) {
        if let Err(e) = self.net.leave(id) {
            debug_assert!(
                matches!(e, NetworkError::UnknownNode(_)),
                "graceful leave failed structurally: {e:?}"
            );
        }
    }

    /// Work phase: each active worker consumes one task from its
    /// vnodes (primary first, then Sybils). The vnode iterator and the
    /// network are disjoint fields, so no per-worker collection.
    fn work_phase(&mut self) {
        let mut consumed = 0u64;
        for (p, done) in self.workers.iter().zip(self.tasks_done.iter_mut()) {
            for v in p.vnodes() {
                let popped = self
                    .net
                    .node_mut(v)
                    .and_then(|n| n.keys.pop_first())
                    .is_some();
                if popped {
                    *done += 1;
                    consumed += 1;
                    break;
                }
            }
        }
        self.rec.work(consumed);
    }
}

/// A Chord substrate: the shared [`Core`] driven over one transport.
pub(crate) struct Driver<T> {
    pub(crate) core: Core,
    pub(crate) link: T,
}

impl<T: Transport> Driver<T> {
    /// Wraps a set-up core and its transport, taking the initial
    /// metrics sample.
    pub(crate) fn new(core: Core, link: T) -> Driver<T> {
        let mut d = Driver { core, link };
        d.sample();
        d
    }

    /// Opens tick `tick + 1`: advances the clock and lands the crash
    /// events now due — adversity does not wait for the protocol.
    pub(crate) fn begin_tick(&mut self) {
        self.core.tick += 1;
        let tick = self.core.tick;
        self.core.net.set_clock(tick);
        let _p = profile::span("crash");
        while let Some(&(at, count)) = self.core.crash_schedule.front() {
            if at > tick {
                break;
            }
            self.core.crash_schedule.pop_front();
            self.apply_crashes(count);
        }
    }

    /// The churn layers, which fire every tick.
    pub(crate) fn churn(&mut self, stack: &StrategyStack) {
        let _p = profile::span("churn");
        stack.on_tick(self);
    }

    /// A whole check sweep: every per-node layer over every active
    /// worker, in decision order.
    pub(crate) fn check_all(&mut self, stack: &mut StrategyStack) {
        let _p = profile::span("checks");
        stack.on_check(self);
    }

    /// One worker's check, if it is still active.
    pub(crate) fn check_one(&mut self, stack: &StrategyStack, w: usize) {
        let _p = profile::span("checks");
        if self.core.workers.get(w).is_some_and(|p| p.active) {
            stack.check_one(self, w);
        }
    }

    /// Closes the tick: the work phase, one maintenance cycle (§V: "a
    /// tick is enough time to accomplish at least one maintenance
    /// cycle"), and the metrics sample on its cadence or at completion.
    pub(crate) fn end_tick(&mut self) {
        {
            let _p = profile::span("work");
            self.core.work_phase();
        }
        {
            let _p = profile::span("maintenance");
            self.core.net.maintenance_cycle();
        }
        let _p = profile::span("sample");
        self.sample();
    }

    /// Closes the trace and hands back the records, with whether every
    /// task was consumed.
    pub(crate) fn finish(&mut self) -> (bool, Records) {
        let completed = self.core.net.total_keys() == 0;
        let records = std::mem::take(&mut self.core.rec).finish(self.core.tick, completed);
        (completed, records)
    }

    /// Takes the metrics sample due now, if any, through the same
    /// recorder call as the oracle ring: one fairness sweep over the
    /// active workers' current loads.
    fn sample(&mut self) {
        let core = &mut self.core;
        if !core.rec.due(core.tick, || core.net.total_keys() == 0) {
            return;
        }
        let remaining = core.net.total_keys() as u64;
        let (mut vnodes, mut loads, mut ring) = (0, Vec::new(), Vec::new());
        for (w, worker) in core.workers.iter().enumerate() {
            if !worker.active {
                continue;
            }
            vnodes += 1 + worker.sybils.len();
            let load = core.worker_load(w);
            loads.push(load);
            if core.rec.ring_enabled() {
                ring.push(RingSlot {
                    worker: w as u64,
                    pos: worker.primary.to_hex(),
                    load,
                    sybils: worker.sybils.len() as u64,
                    quarantined: core.quarantined_marks.get(w).copied().unwrap_or(0),
                });
            }
        }
        let now = self.link.sample_clock(core.tick);
        core.rec.sample(now, vnodes, remaining, &mut loads, ring);
    }

    /// Joins a vnode at `pos` through `contact` over the transport and
    /// bills the join with the retries it cost.
    fn join(&mut self, pos: Id, contact: Id) -> Result<(), ActionError> {
        let before = self.link.plane(&mut self.core.net).retries;
        let joined = self.link.join(&mut self.core, pos, contact);
        let retries = self.link.plane(&mut self.core.net).retries - before;
        self.core
            .rec
            .bill(self.core.tick, JOIN, fate(&joined), retries);
        joined
    }

    /// A Sybil join for `w` at `pos` through `w`'s primary. The join
    /// rides the retry/backoff machinery, so transient loss is
    /// absorbed; only an occupied position, an exhausted attempt
    /// budget, or a dead contact surface as errors.
    fn spawn_sybil_as(&mut self, w: usize, pos: Id) -> Result<u64, ActionError> {
        let contact = self
            .core
            .workers
            .get(w)
            .map(|p| p.primary)
            .ok_or(ActionError::Unreachable)?;
        self.join(pos, contact)?;
        let core = &mut self.core;
        let acquired = core.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        if let Some(p) = core.workers.get_mut(w) {
            p.sybils.push(pos);
        }
        core.owner_of.insert(pos, w);
        let tick = core.tick;
        core.rec.emit(SimEvent::SybilCreated {
            tick,
            worker: w,
            pos,
            acquired,
        });
        Ok(acquired)
    }

    fn retire_sybils_of(&mut self, w: usize) {
        let core = &mut self.core;
        let sybils = match core.workers.get_mut(w) {
            Some(p) => std::mem::take(&mut p.sybils),
            None => return,
        };
        let n = sybils.len() as u64;
        for s in sybils {
            if core.crash_retirement {
                // Abrupt variant: the Sybil process just exits. Keys
                // with a live replica get promoted by maintenance; the
                // rest are billed as lost rather than silently gone.
                if let Ok(rep) = core.net.fail(s) {
                    core.tasks_lost += rep.keys_lost;
                }
            } else {
                core.leave_expecting_gone(s);
            }
            self.link.vnode_gone(s);
            core.owner_of.remove(&s);
        }
        if n > 0 {
            self.link.membership_changed();
            let tick = core.tick;
            core.rec.emit(SimEvent::SybilsRetired {
                tick,
                worker: w,
                count: n as u32,
            });
        }
    }

    /// Crash-fails one whole worker: every vnode vanishes abruptly, the
    /// worker never returns. Returns the keys permanently lost.
    fn crash_worker(&mut self, w: usize) -> u64 {
        let core = &mut self.core;
        let mut lost = 0;
        if let Some(p) = core.workers.get_mut(w) {
            // The vnode iterator holds the worker table; the network and
            // owner map are disjoint fields, so no collection is needed.
            for v in p.vnodes() {
                if let Ok(rep) = core.net.fail(v) {
                    lost += rep.keys_lost;
                }
                self.link.vnode_gone(v);
                core.owner_of.remove(&v);
            }
            p.sybils.clear();
            p.active = false;
        }
        core.active_count = core.active_count.saturating_sub(1);
        core.tasks_lost += lost;
        self.link.membership_changed();
        let tick = core.tick;
        core.rec.emit(SimEvent::WorkerCrashed {
            tick,
            worker: w,
            keys_lost: lost,
        });
        lost
    }

    /// Crashes up to `count` uniformly chosen active workers, always
    /// sparing at least one so the ring survives.
    fn apply_crashes(&mut self, count: u32) {
        for _ in 0..count {
            if self.core.active_count <= 1 {
                return;
            }
            // The k-th active worker in index order.
            let k = self.core.rng_faults.gen_range(0..self.core.active_count);
            let Some(w) = self
                .core
                .workers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.active)
                .map(|(i, _)| i)
                .nth(k)
            else {
                return;
            };
            self.crash_worker(w);
        }
    }
}

impl<T: Transport> Substrate for Driver<T> {
    fn decision_order(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.core
                .workers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.active)
                .map(|(i, _)| i),
        );
    }

    fn check_worker(&mut self, w: usize, strategy: &dyn Strategy) {
        let span = self
            .core
            .rec
            .open_span(self.core.tick, strategy.name(), w as u64);
        strategy.check_node(&mut NodeCtx { d: self, worker: w });
        let tick = self.core.tick;
        self.core.rec.close_span(tick, span);
    }

    fn check_omniscient(&mut self, _strategy: &dyn Strategy) -> bool {
        // A real network has no global view — that is the point of the
        // paper's decentralized strategies.
        false
    }

    fn churn_ops(&mut self) -> &mut dyn ChurnOps {
        self
    }
}

impl<T: Transport> ChurnOps for Driver<T> {
    fn worker_slots(&self) -> usize {
        self.core.workers.len()
    }

    fn is_active(&self, w: usize) -> bool {
        self.core.workers.get(w).is_some_and(|p| p.active)
    }

    fn active_count(&self) -> usize {
        self.core.active_count
    }

    fn churn_rng(&mut self) -> &mut DetRng {
        &mut self.core.rng_churn
    }

    fn depart(&mut self, w: usize) {
        let core = &mut self.core;
        let Some(p) = core.workers.get_mut(w) else {
            return;
        };
        let sybils = std::mem::take(&mut p.sybils);
        let primary = p.primary;
        p.active = false;
        for v in sybils.into_iter().chain(std::iter::once(primary)) {
            core.leave_expecting_gone(v);
            self.link.vnode_gone(v);
            core.owner_of.remove(&v);
        }
        core.active_count = core.active_count.saturating_sub(1);
        core.waiting.push(w);
        self.link.membership_changed();
        let tick = core.tick;
        core.rec.emit(SimEvent::WorkerLeft { tick, worker: w });
    }

    fn waiting(&mut self) -> &mut Vec<usize> {
        &mut self.core.waiting
    }

    fn rejoin(&mut self, w: usize) -> bool {
        let Some(contact) = self
            .core
            .workers
            .iter()
            .find(|p| p.active)
            .map(|p| p.primary)
        else {
            return false;
        };
        let pos = loop {
            let p = Id::random(&mut self.core.rng_churn);
            if self.core.net.node(p).is_none() {
                break p;
            }
        };
        // Churn joins ride the same machinery as Sybil joins; a worker
        // whose join still fails stays in the waiting pool and tries
        // again next tick.
        if self.join(pos, contact).is_err() {
            return false;
        }
        let core = &mut self.core;
        if let Some(slot) = core.workers.get_mut(w) {
            *slot = Worker {
                primary: pos,
                sybils: Vec::new(),
                active: true,
            };
        }
        core.owner_of.insert(pos, w);
        core.active_count += 1;
        let acquired = core.net.node(pos).map(|n| n.keys.len() as u64).unwrap_or(0);
        let tick = core.tick;
        core.rec.emit(SimEvent::WorkerJoined {
            tick,
            worker: w,
            pos,
            acquired,
        });
        true
    }
}

/// One worker's [`LocalView`]/[`Actions`] window onto the Chord
/// network: own nodes' key counts, the primary's live successor and
/// predecessor lists, and priced messages for everything else.
struct NodeCtx<'a, T> {
    d: &'a mut Driver<T>,
    worker: usize,
}

impl<T> NodeCtx<'_, T> {
    fn me(&self) -> Option<&Worker> {
        self.d.core.workers.get(self.worker)
    }
}

impl<T: Transport> LocalView for NodeCtx<'_, T> {
    fn params(&self) -> StrategyParams {
        self.d.core.params
    }

    fn load(&self) -> u64 {
        self.d.core.worker_load(self.worker)
    }

    fn sybil_count(&self) -> usize {
        self.me().map(|p| p.sybils.len()).unwrap_or(0)
    }

    fn sybil_slots_left(&self) -> u32 {
        self.d
            .core
            .max_sybils
            .saturating_sub(self.sybil_count() as u32)
    }

    fn primary(&self) -> Id {
        self.me().map(|p| p.primary).unwrap_or(Id::ZERO)
    }

    fn own_vnode_loads(&mut self) -> &[(Id, u64)] {
        let core = &mut self.d.core;
        let net = &core.net;
        core.own_loads.clear();
        core.own_loads.extend(
            core.workers
                .get(self.worker)
                .into_iter()
                .flat_map(|p| p.vnodes())
                .map(|v| (v, net.node(v).map(|n| n.keys.len() as u64).unwrap_or(0))),
        );
        &core.own_loads
    }

    fn successor_list(&mut self) -> &[Id] {
        let primary = self.primary();
        let core = &mut self.d.core;
        let k = core.params.num_neighbors;
        core.neighbors.clear();
        if let Some(n) = core.net.node(primary) {
            core.neighbors.extend(
                n.successors
                    .iter()
                    .copied()
                    .filter(|&s| s != primary)
                    .take(k),
            );
        }
        &core.neighbors
    }
}

impl<T: Transport> Actions for NodeCtx<'_, T> {
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        let from = self.primary();
        let load = self.d.link.probe(&mut self.d.core, from, neighbor, None)?;
        let (tick, worker) = (self.d.core.tick, self.worker);
        self.d.core.rec.emit(SimEvent::LoadQueried {
            tick,
            worker,
            neighbor,
            load,
        });
        Ok(load)
    }

    /// A relayed cross-checking probe: ask `relay` what it believes
    /// `target` holds (successors replicate each other's key ranges, so
    /// the relay can answer from its replica knowledge). Billed exactly
    /// like a direct probe; distorted iff the *relay*'s owner is
    /// Byzantine. Emits no `LoadQueried` decision — the round-level
    /// `note_probe` records the cross-checked outcome instead.
    fn query_load_via(&mut self, relay: Id, target: Id) -> Result<u64, ActionError> {
        let from = self.primary();
        self.d
            .link
            .probe(&mut self.d.core, from, relay, Some(target))
    }

    fn note_probe(&mut self, target: Id, agreed: bool, estimate: u64) {
        let (tick, worker) = (self.d.core.tick, self.worker);
        self.d.core.rec.emit(if agreed {
            SimEvent::ProbeAgreed {
                tick,
                worker,
                target,
                estimate,
            }
        } else {
            SimEvent::ProbeConflict {
                tick,
                worker,
                target,
                estimate,
            }
        });
    }

    fn note_quarantine(&mut self, reporter: Id, suspicion: u64) {
        let core = &mut self.d.core;
        if let Some(mark) = core
            .owner_of
            .get(&reporter)
            .copied()
            .and_then(|owner| core.quarantined_marks.get_mut(owner))
        {
            *mark += 1;
        }
        let tick = core.tick;
        core.rec.emit(SimEvent::Quarantined {
            tick,
            worker: self.worker,
            reporter,
            suspicion,
        });
    }

    fn random_id(&mut self) -> Id {
        Id::random(&mut self.d.core.rng_strategy)
    }

    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError> {
        self.d.spawn_sybil_as(self.worker, pos)
    }

    fn retire_sybils(&mut self) {
        self.d.retire_sybils_of(self.worker);
    }

    fn note_gap_split(&mut self, pos: Id) {
        let (tick, worker) = (self.d.core.tick, self.worker);
        self.d
            .core
            .rec
            .emit(SimEvent::NeighborGapSplit { tick, worker, pos });
    }

    fn split_target(&mut self, victim: Id) -> Option<Id> {
        // Chosen-ID placement would need the victim's key set — a real
        // node does not publish it, so Chord substrates always split at
        // the arc midpoint.
        let node = self.d.core.net.node(victim)?;
        let pred = node.predecessor();
        if pred == victim {
            return None;
        }
        Some(ring::midpoint(pred, victim))
    }

    fn invite(&mut self, hot: Id) -> InviteOutcome {
        let inviter = self.worker;
        let k = self.d.core.params.num_neighbors;
        let preds: Vec<Id> = match self.d.core.net.node(hot) {
            Some(n) => n
                .predecessors
                .iter()
                .copied()
                .filter(|&p| p != hot)
                .take(k)
                .collect(),
            None => return InviteOutcome::NoNeighbors,
        };
        if preds.is_empty() {
            return InviteOutcome::NoNeighbors;
        }
        let tick = self.d.core.tick;
        let Some(candidates) = self
            .d
            .link
            .invite_round(&mut self.d.core, inviter, hot, &preds)
        else {
            // The announcement died on the network: the overloaded node
            // simply re-announces on its next check, because it is
            // still overburdened then.
            self.d
                .core
                .rec
                .bill(tick, INVITATION, MessageStatus::Dropped, 0);
            return InviteOutcome::Unreachable;
        };
        self.d.core.rec.invitation_sent(tick, inviter);
        let helper = pick_helper(&candidates, self.d.core.params.strength_aware_invitation);
        let helped = helper
            .and_then(|h| self.split_target(hot).map(|pos| (h, pos)))
            .and_then(|(h, pos)| {
                self.d
                    .spawn_sybil_as(h, pos)
                    .ok()
                    .map(|acquired| (h, acquired))
            });
        self.d.core.rec.invitation_settled(tick, inviter, helped)
    }
}

#[cfg(all(test, feature = "profile"))]
mod tests {
    use crate::event_sim::{run_event_sim, EventSimConfig};
    use crate::protocol_sim::{run_protocol_sim, ProtocolSimConfig};
    use autobal_core::StrategyKind;
    use autobal_metrics::profile;

    /// Asserts the rendered report lists every per-tick phase, and
    /// every sub-step of the maintenance cycle, with at least one entry.
    fn assert_phases(substrate: &str, report: &str) {
        for phase in [
            "crash",
            "churn",
            "checks",
            "work",
            "maintenance",
            "prune",
            "stabilize",
            "lists",
            "fingers",
            "promote",
            "push",
            "sample",
        ] {
            let entries: Option<u64> = report.lines().find_map(|line| {
                let mut cols = line.split_whitespace();
                (cols.next() == Some(phase))
                    .then(|| cols.last()?.strip_prefix('x')?.parse().ok())
                    .flatten()
            });
            assert!(
                entries.is_some_and(|n| n > 0),
                "{substrate}: no {phase} row\n{report}"
            );
        }
    }

    #[test]
    fn both_substrates_report_their_phase_spans() {
        let proto = ProtocolSimConfig {
            nodes: 16,
            tasks: 800,
            strategy: StrategyKind::RandomInjection,
            ..ProtocolSimConfig::default()
        };
        profile::take_report();
        run_protocol_sim(&proto, 1);
        assert_phases("protocol", &profile::take_report());
        run_event_sim(
            &EventSimConfig {
                proto,
                ..EventSimConfig::default()
            },
            1,
        );
        assert_phases("event", &profile::take_report());
    }
}
