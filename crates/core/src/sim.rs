//! The tick-driven simulation engine (§V "Simulation Setup").

use crate::config::{Heterogeneity, SimConfig, WorkMeasurement};
use crate::metrics::{RunResult, SimMessageStats, Snapshot};
use crate::record::{Recorder, LOAD_QUERY};
use crate::ring::{Ring, RingError, Slot};
use crate::strategy::{
    crosscheck::CrossCheckConfig,
    invitation::{pick_helper, HelperCandidate},
    ActionError, Actions, ChurnOps, InviteOutcome, LocalView, OracleView, Strategy, StrategyParams,
    StrategyStack, Substrate,
};
use crate::trace::SimEvent;
use crate::worker::{Worker, WorkerId, WorkerState};
use autobal_id::{ring, Id};
use autobal_metrics::{profile, RingSlot};
use autobal_stats::rng::{domains, substream, DetRng};
use autobal_telemetry::MessageStatus;
use rand::Rng;

/// One simulated network executing a distributed computation.
///
/// Construct with [`Sim::new`] (random SHA-1-style placement, as in the
/// paper) or [`Sim::with_placement`] (explicit node ids and task keys,
/// used for the evenly-spaced ring of Figure 3 and deterministic tests),
/// then call [`Sim::run`] — or drive tick by tick with [`Sim::step`].
pub struct Sim {
    pub(crate) cfg: SimConfig,
    pub(crate) ring: Ring,
    pub(crate) workers: Vec<Worker>,
    /// Each worker's ring slot handles, in `Worker::vnodes()` order
    /// (primary, statics, Sybils): the planning pass reads queue
    /// lengths through them without an ordered-map lookup. Maintained
    /// at the only mutation points — `with_placement`,
    /// `insert_vnode_tracked` and `remove_vnode_tracked`.
    handles: Vec<Vec<Slot>>,
    /// Worker ids currently parked in the churn waiting pool.
    pub(crate) waiting: Vec<WorkerId>,
    pub(crate) tick: u64,
    pub(crate) rng_churn: DetRng,
    pub(crate) rng_strategy: DetRng,
    active_count: usize,
    work_history: Vec<u64>,
    snapshots: Vec<Snapshot>,
    peak_vnodes: usize,
    /// Whether [`Sim::run`] may tick with the worker load ledger
    /// detached: no churn, no strategy, one vnode per worker, no
    /// sampling or snapshots armed — nothing can observe per-worker
    /// loads mid-run, so the work phase pops straight off the ring's
    /// live slots instead of walking the whole worker table.
    ledger_detached_ok: bool,
    /// Per-worker tick capacities cached for the detached pops (static
    /// while the ledger-detached gate holds: no churn means no worker
    /// set changes, and strengths never change).
    caps: Vec<u32>,
    /// The trace and metrics planes and the tallies derived from them;
    /// with both planes off every emission is a tally bump and a
    /// branch.
    rec: Recorder,
    /// Strategy layers dispatched each tick/check (trait objects from
    /// [`crate::strategy::stack_for`]).
    strategies: StrategyStack,
    /// An invitation's eligible helpers, reused from one invitation to
    /// the next.
    helpers: Vec<HelperCandidate>,
    /// The [`LocalView`] lists a check reads, reused from one call to
    /// the next: a worker's own vnode loads and its successor list.
    own_loads: Vec<(Id, u64)>,
    neighbors: Vec<Id>,
}

impl Sim {
    /// Builds a network with `cfg.nodes` uniformly random node ids and
    /// `cfg.tasks` uniformly random task keys (statistically identical
    /// to the paper's "random numbers into SHA1" — see DESIGN.md).
    ///
    /// # Panics
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, seed: u64) -> Sim {
        let mut placement = substream(seed, 0, domains::PLACEMENT);
        let mut tasks_rng = substream(seed, 0, domains::TASKS);
        let node_ids = Id::distinct_random(cfg.nodes, &mut placement);
        let task_keys: Vec<Id> = (0..cfg.tasks).map(|_| Id::random(&mut tasks_rng)).collect();
        Sim::with_placement(cfg, seed, node_ids, task_keys)
    }

    /// Builds a network from explicit node ids and task keys.
    ///
    /// # Panics
    /// Panics on invalid config, duplicate node ids, or
    /// `node_ids.len() != cfg.nodes`.
    pub fn with_placement(cfg: SimConfig, seed: u64, node_ids: Vec<Id>, task_keys: Vec<Id>) -> Sim {
        cfg.validate().expect("invalid SimConfig");
        assert_eq!(
            node_ids.len(),
            cfg.nodes,
            "node_ids length must equal cfg.nodes"
        );
        assert_eq!(
            task_keys.len() as u64,
            cfg.tasks,
            "task_keys length must equal cfg.tasks"
        );

        let mut strength_rng = substream(seed, 0, domains::STRENGTH);
        let heterogeneous = cfg.heterogeneity == Heterogeneity::Heterogeneous;
        let draw_strength = |rng: &mut DetRng| -> u32 {
            if heterogeneous {
                rng.gen_range(1..=cfg.max_sybils.max(1))
            } else {
                1
            }
        };

        let mut ring = Ring::new();
        let mut workers = Vec::with_capacity(cfg.nodes * 2);
        let mut handles = Vec::with_capacity(cfg.nodes * 2);
        for id in node_ids {
            let s = draw_strength(&mut strength_rng);
            let widx = workers.len();
            workers.push(Worker::active(id, s));
            let (slot, _, _) = ring
                .insert_slotted(id, widx)
                .expect("duplicate node id in placement");
            handles.push(vec![slot]);
        }
        // Classic static virtual servers (baseline comparator): extra
        // ring positions per worker, placed before tasks land.
        if cfg.virtual_nodes_per_worker > 1 {
            let mut statics_rng = substream(seed, 0, domains::STATICS);
            for ((widx, w), hs) in workers.iter_mut().enumerate().zip(handles.iter_mut()) {
                for _ in 1..cfg.virtual_nodes_per_worker {
                    // A draw that lands on a vnode is redrawn.
                    let (pos, slot) = loop {
                        let p = Id::random(&mut statics_rng);
                        match ring.insert_slotted(p, widx) {
                            Err(RingError::Occupied(_)) => continue,
                            r => break (p, r.expect("insert at a free position").0),
                        }
                    };
                    w.statics.push(pos);
                    hs.push(slot);
                }
            }
        }
        ring.assign_tasks(task_keys)
            .expect("SimConfig::validate bounds the task count");
        let loads = ring.loads_by_owner(workers.len());
        for (w, &l) in workers.iter_mut().zip(&loads) {
            w.load = l;
        }

        // The churn waiting pool "begins at the same initial size as the
        // network" (§IV-A); it only matters when churn is possible. The
        // pool and each waiting worker's handle list are sized up front,
        // so churn ticks file departures and first joins without
        // allocating.
        let mut waiting = Vec::new();
        if cfg.churn_enabled() {
            waiting.reserve_exact(2 * cfg.nodes);
            for _ in 0..cfg.nodes {
                let s = draw_strength(&mut strength_rng);
                waiting.push(workers.len());
                workers.push(Worker::waiting(s));
                handles.push(Vec::with_capacity(cfg.virtual_nodes_per_worker as usize));
            }
        }

        let active_count = cfg.nodes;
        let peak = ring.len();
        let cfg_max_ticks = cfg.effective_max_ticks();
        let mut rec = Recorder::new(
            cfg.record_trace,
            cfg.record_metrics,
            cfg.metrics_ring,
            cfg.metrics_interval,
        );
        rec.start("oracle", cfg.strategy.label(), seed);
        let strategies = crate::strategy::stack_for(&cfg, &CrossCheckConfig::default());
        let ledger_detached_ok = matches!(cfg.strategy, crate::config::StrategyKind::None)
            && !cfg.churn_enabled()
            && !cfg.record_metrics
            && cfg.snapshot_ticks.is_empty()
            && cfg.virtual_nodes_per_worker <= 1;
        let caps: Vec<u32> = if ledger_detached_ok {
            let sb = cfg.work_measurement == WorkMeasurement::StrengthPerTick;
            workers
                .iter()
                .map(|w| w.capacity(sb).min(u32::MAX as u64) as u32)
                .collect()
        } else {
            Vec::new()
        };
        Sim {
            cfg,
            ring,
            workers,
            handles,
            waiting,
            tick: 0,
            rng_churn: substream(seed, 0, domains::CHURN),
            rng_strategy: substream(seed, 0, domains::STRATEGY),
            active_count,
            // Seed enough room for the common case (runs end well under
            // the tick cap); capped so absurd caps don't reserve memory.
            work_history: Vec::with_capacity((cfg_max_ticks.min(65_536)) as usize),
            snapshots: Vec::new(),
            peak_vnodes: peak,
            ledger_detached_ok,
            caps,
            rec,
            strategies,
            helpers: Vec::new(),
            own_loads: Vec::new(),
            neighbors: Vec::new(),
        }
    }

    /// Current tick (0 before the first step).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Tasks still unconsumed.
    pub fn remaining_tasks(&self) -> u64 {
        self.ring.total_tasks()
    }

    /// Read-only view of the ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Read-only worker table.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Message counters so far.
    pub fn messages(&self) -> SimMessageStats {
        self.rec.tally()
    }

    /// Per-active-worker loads (the quantity the paper's histograms bin).
    pub fn active_loads(&self) -> Vec<u64> {
        self.workers
            .iter()
            .filter(|w| w.is_active())
            .map(|w| w.load)
            .collect()
    }

    /// Captures a snapshot of the current workload distribution.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_loads(self.tick, self.active_loads(), self.ring.len())
    }

    /// Advances the simulation one tick: strategy actions, then work.
    /// Returns the number of tasks consumed this tick.
    pub fn step(&mut self) -> u64 {
        self.advance(false)
    }

    /// One tick. With `detached` the work phase pops ring-side and
    /// leaves worker load caches stale (see `ledger_detached_ok`); only
    /// [`Sim::run`] passes it, and it consumes the simulator, so every
    /// public view of the workers stays truthful.
    fn advance(&mut self, detached: bool) -> u64 {
        self.tick += 1;

        // Dispatch through the strategy stack (taken out and restored
        // around the calls so the layers can borrow the simulator).
        let mut stack = std::mem::take(&mut self.strategies);
        // 1. Churn layers fire every tick — as the Churn strategy
        //    itself, or as background turbulence under another strategy
        //    (§VI-B-1).
        {
            let _p = profile::span("churn");
            stack.on_tick(self);
        }
        // 2. Sybil layers check every `check_interval` ticks.
        if self.tick.is_multiple_of(self.cfg.check_interval) {
            let _p = profile::span("checks");
            stack.on_check(self);
        }
        self.strategies = stack;
        let _p = profile::span("work");

        // 3. Every active worker consumes up to its capacity: detached
        //    ticks pop in place over the ring's live slots; otherwise
        //    plan each popping vnode's pop count, then let the ring
        //    replay the plan.
        let consumed = if detached {
            self.ring.pop_detached(&self.caps)
        } else {
            let planned = self.plan_work();
            self.ring.run_pops(planned);
            planned
        };
        self.work_history.push(consumed);
        self.rec.work(consumed);
        self.peak_vnodes = self.peak_vnodes.max(self.ring.len());
        // Strict builds re-verify the ring's structural invariants every
        // tick — a step that corrupts the ring fails at the tick that
        // caused it, not at the test that later trips over it.
        #[cfg(feature = "strict")]
        debug_assert!(
            self.ring.check_invariants().is_ok(),
            "ring invariants violated at tick {}",
            self.tick
        );
        consumed
    }

    /// The sequential planning pass: walks workers in index order and
    /// each worker's vnodes in `Worker::vnodes()` order, spilling the
    /// worker's capacity across them as `min(remaining capacity, vnode
    /// load)` — exactly the pops a one-at-a-time loop would make, in
    /// the order it would draw them. Settles load caches as it goes.
    /// Returns the tick's total pop count.
    fn plan_work(&mut self) -> u64 {
        let strength_based = self.cfg.work_measurement == WorkMeasurement::StrengthPerTick;
        let Sim {
            workers,
            handles,
            ring,
            ..
        } = self;
        let mut consumed = 0u64;
        for (w, hs) in workers.iter_mut().zip(handles.iter()) {
            // Load first: in the drain tail most workers sit at 0, and
            // waiting workers always do, so one field read usually
            // settles the whole iteration.
            let load = w.load;
            if load == 0 || !w.is_active() {
                continue;
            }
            let budget = w.capacity(strength_based).min(load);
            let mut left = budget;
            for &h in hs {
                if left == 0 {
                    break;
                }
                let p = left.min(ring.queue_len(h));
                if p > 0 {
                    ring.plan_pops(h, p as u32);
                    consumed += p;
                    left -= p;
                }
            }
            w.load = load - (budget - left);
        }
        consumed
    }

    /// Records the metrics sample due at the current tick, if any, from
    /// one sweep of the active workers' cached loads, plus a per-worker
    /// ring snapshot when configured.
    fn sample(&mut self) {
        if !self.rec.due(self.tick, || self.ring.total_tasks() == 0) {
            return;
        }
        let _p = profile::span("sample");
        let mut loads = self.active_loads();
        debug_assert_eq!(loads.len(), self.active_count);
        let ring_slots: Vec<RingSlot> = if self.rec.ring_enabled() {
            self.workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.is_active())
                .map(|(i, w)| RingSlot {
                    worker: i as u64,
                    pos: w.primary.to_hex(),
                    load: w.load,
                    sybils: w.sybils.len() as u64,
                    quarantined: 0,
                })
                .collect()
        } else {
            Vec::new()
        };
        self.rec.sample(
            self.tick,
            self.ring.len(),
            self.ring.total_tasks(),
            &mut loads,
            ring_slots,
        );
    }

    /// Runs to completion (or the tick cap) and returns the result.
    pub fn run(mut self) -> RunResult {
        let snapshot_ticks: Vec<u64> = {
            let mut t = self.cfg.snapshot_ticks.clone();
            t.sort_unstable();
            t.dedup();
            t
        };
        if snapshot_ticks.contains(&0) {
            let s = self.snapshot();
            self.snapshots.push(s);
        }
        self.sample();
        let cap = self.cfg.effective_max_ticks();
        // Nothing can observe worker loads once the run starts (the
        // result carries none), so eligible runs tick ledger-detached.
        let detached = self.ledger_detached_ok;
        while self.ring.total_tasks() > 0 && self.tick < cap {
            self.advance(detached);
            if snapshot_ticks.binary_search(&self.tick).is_ok() {
                let s = self.snapshot();
                self.snapshots.push(s);
            }
            self.sample();
        }
        let completed = self.ring.total_tasks() == 0;
        let ideal = self.cfg.ideal_ticks().max(1);
        let rec = self.rec.finish(self.tick, completed);
        RunResult {
            ticks: self.tick,
            ideal_ticks: ideal,
            runtime_factor: self.tick as f64 / ideal as f64,
            completed,
            work_per_tick: self.work_history,
            snapshots: self.snapshots,
            messages: rec.tally,
            peak_vnodes: self.peak_vnodes,
            final_active_workers: self.active_count,
            trace: rec.trace,
            metrics: rec.metrics,
        }
    }

    // ---- churn ----------------------------------------------------

    /// A worker leaves the network: every virtual node it controls is
    /// removed (tasks merge into successors), and it enters the waiting
    /// pool.
    pub(crate) fn worker_leave(&mut self, idx: WorkerId) {
        debug_assert!(self.workers[idx].is_active());
        let sybils = std::mem::take(&mut self.workers[idx].sybils);
        self.workers[idx].sybils = self.remove_all(sybils);
        let statics = std::mem::take(&mut self.workers[idx].statics);
        self.workers[idx].statics = self.remove_all(statics);
        let primary = self.workers[idx].primary;
        let _ = self.remove_vnode_tracked(primary);
        self.workers[idx].state = WorkerState::Waiting;
        debug_assert_eq!(self.workers[idx].load, 0);
        self.workers[idx].load = 0;
        self.active_count -= 1;
        self.waiting.push(idx);
        let tick = self.tick;
        self.rec.emit(SimEvent::WorkerLeft { tick, worker: idx });
    }

    /// A waiting worker joins at a fresh random position, immediately
    /// acquiring the tasks of its new arc ("a node joining … can be a
    /// potential boon … immediately acquire work", §IV-A).
    pub(crate) fn worker_join(&mut self, idx: WorkerId) {
        debug_assert!(!self.workers[idx].is_active());
        self.workers[idx].state = WorkerState::Active;
        self.workers[idx].load = 0;
        let pos = self.insert_at_churn_draw(idx);
        self.workers[idx].primary = pos;
        // A rejoining worker re-creates its static virtual servers.
        for _ in 1..self.cfg.virtual_nodes_per_worker {
            let pos = self.insert_at_churn_draw(idx);
            self.workers[idx].statics.push(pos);
        }
        self.active_count += 1;
        let tick = self.tick;
        let pos = self.workers[idx].primary;
        let acquired = self.workers[idx].load;
        self.rec.emit(SimEvent::WorkerJoined {
            tick,
            worker: idx,
            pos,
            acquired,
        });
    }

    /// Inserts a vnode for `idx` at the first churn draw that lands on
    /// a free position; a draw that hits a vnode is redrawn.
    fn insert_at_churn_draw(&mut self, idx: WorkerId) -> Id {
        loop {
            let p = Id::random(&mut self.rng_churn);
            match self.insert_vnode_tracked(p, idx) {
                Err(RingError::Occupied(_)) => continue,
                r => {
                    r.expect("insert at a free position");
                    return p;
                }
            }
        }
    }

    // ---- tracked ring mutations ------------------------------------

    /// Inserts a virtual node and keeps worker load caches consistent:
    /// credits the owner with the acquired tasks and debits the victim.
    /// The new vnode's slot handle goes to the end of the owner's
    /// handle list, so callers insert in `Worker::vnodes()` order.
    /// Returns the number of tasks acquired.
    pub(crate) fn insert_vnode_tracked(
        &mut self,
        pos: Id,
        owner: WorkerId,
    ) -> Result<u64, RingError> {
        let (slot, acquired, victim) = self.ring.insert_slotted(pos, owner)?;
        self.handles[owner].push(slot);
        if acquired > 0 {
            self.workers[victim].load -= acquired;
            self.workers[owner].load += acquired;
        }
        Ok(acquired)
    }

    /// Removes a virtual node, updating both owners' load caches and
    /// dropping its slot handle (the rest keep their order).
    pub(crate) fn remove_vnode_tracked(&mut self, pos: Id) -> Result<u64, RingError> {
        let r = self.ring.remove_slotted(pos)?;
        let hs = &mut self.handles[r.owner];
        if let Some(i) = hs.iter().position(|&h| h == r.slot) {
            hs.remove(i);
        }
        if r.moved > 0 {
            self.workers[r.owner].load -= r.moved;
            self.workers[r.succ_owner].load += r.moved;
        }
        Ok(r.moved)
    }

    /// Removes every vnode in `list`, in order, and hands the list back
    /// empty, so the owner's next join or Sybil reuses its capacity.
    fn remove_all(&mut self, mut list: Vec<Id>) -> Vec<Id> {
        for &pos in &list {
            let _ = self.remove_vnode_tracked(pos);
        }
        list.clear();
        list
    }

    /// Creates a Sybil for `owner` at `pos`. Returns acquired task count,
    /// or `None` if the position is occupied.
    pub(crate) fn create_sybil(&mut self, owner: WorkerId, pos: Id) -> Option<u64> {
        match self.insert_vnode_tracked(pos, owner) {
            Ok(acquired) => {
                self.workers[owner].sybils.push(pos);
                let tick = self.tick;
                self.rec.emit(SimEvent::SybilCreated {
                    tick,
                    worker: owner,
                    pos,
                    acquired,
                });
                Some(acquired)
            }
            Err(_) => None,
        }
    }

    /// All of `owner`'s Sybils quit the network (§IV-B: "If a node has at
    /// least one Sybil, but no work, it has its Sybils quit").
    pub(crate) fn retire_sybils(&mut self, owner: WorkerId) {
        let sybils = std::mem::take(&mut self.workers[owner].sybils);
        let n = sybils.len() as u64;
        self.workers[owner].sybils = self.remove_all(sybils);
        if n > 0 {
            let tick = self.tick;
            self.rec.emit(SimEvent::SybilsRetired {
                tick,
                worker: owner,
                count: n as u32,
            });
        }
    }

    /// Whether `idx` is eligible to create a new Sybil right now:
    /// active, at/below the Sybil threshold, with budget to spare.
    fn worker_can_spawn_sybil(&self, idx: WorkerId) -> bool {
        let het = self.cfg.heterogeneity == Heterogeneity::Heterogeneous;
        let w = &self.workers[idx];
        w.is_active()
            && w.load <= self.cfg.sybil_threshold
            && w.sybil_slots_left(self.cfg.max_sybils, het) > 0
    }

    /// Where to plant a Sybil that targets `victim`'s arc: the ID-space
    /// midpoint of the arc by default, or — under the §VII chosen-ID
    /// extension — the victim's remaining-task median, which guarantees
    /// the Sybil acquires exactly half its work.
    fn split_position(&self, victim: Id) -> Option<Id> {
        if self.cfg.chosen_ids {
            if let Some(m) = self.ring.median_task_key(victim) {
                return Some(m);
            }
        }
        let pred = self.ring.predecessor_of(victim)?;
        Some(ring::midpoint(pred, victim))
    }

    /// The per-node strategy context for `worker` (oracle-ring flavor).
    pub(crate) fn node_ctx(&mut self, worker: WorkerId) -> SimNodeCtx<'_> {
        SimNodeCtx { sim: self, worker }
    }

    /// Debug helper: verify load caches and slot handles against the
    /// ring (O(vnodes)).
    #[cfg(test)]
    pub(crate) fn assert_load_caches(&self) {
        let truth = self.ring.loads_by_owner(self.workers.len());
        for (i, w) in self.workers.iter().enumerate() {
            assert_eq!(w.load, truth[i], "load cache of worker {i}");
            let via_handles: Vec<u64> = self.handles[i]
                .iter()
                .map(|&h| self.ring.queue_len(h))
                .collect();
            let via_ids: Vec<u64> = w.vnodes().map(|v| self.ring.load(v)).collect();
            assert_eq!(via_handles, via_ids, "slot handles of worker {i}");
        }
    }
}

// ---- strategy dispatch surfaces -----------------------------------

impl Substrate for Sim {
    fn decision_order(&self, out: &mut Vec<WorkerId>) {
        out.clear();
        out.extend((0..self.workers.len()).filter(|&i| self.workers[i].is_active()));
    }

    fn check_worker(&mut self, w: WorkerId, strategy: &dyn Strategy) {
        // One telemetry span per strategy decision, stamped with the
        // tick; the messages and outcomes the decision causes attach
        // to it. Free (one branch, ROOT_SPAN back) when tracing is off.
        let span = self.rec.open_span(self.tick, strategy.name(), w as u64);
        let mut ctx = self.node_ctx(w);
        strategy.check_node(&mut ctx);
        let tick = self.tick;
        self.rec.close_span(tick, span);
    }

    fn check_omniscient(&mut self, strategy: &dyn Strategy) -> bool {
        strategy.check_global(self);
        true
    }

    fn churn_ops(&mut self) -> &mut dyn ChurnOps {
        self
    }
}

impl ChurnOps for Sim {
    fn worker_slots(&self) -> usize {
        self.workers.len()
    }

    fn is_active(&self, w: WorkerId) -> bool {
        self.workers[w].is_active()
    }

    fn active_count(&self) -> usize {
        self.active_count
    }

    fn churn_rng(&mut self) -> &mut DetRng {
        &mut self.rng_churn
    }

    fn depart(&mut self, w: WorkerId) {
        self.worker_leave(w);
    }

    fn waiting(&mut self) -> &mut Vec<WorkerId> {
        &mut self.waiting
    }

    fn rejoin(&mut self, w: WorkerId) -> bool {
        self.worker_join(w);
        true
    }
}

impl OracleView for Sim {
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn is_worker_active(&self, w: WorkerId) -> bool {
        self.workers[w].is_active()
    }

    fn worker_load(&self, w: WorkerId) -> u64 {
        self.workers[w].load
    }

    fn worker_can_spawn(&self, w: WorkerId) -> bool {
        self.worker_can_spawn_sybil(w)
    }

    fn vnode_loads(&self) -> Vec<(Id, u64)> {
        self.ring.vnode_loads()
    }

    fn vnode_load(&self, v: Id) -> u64 {
        self.ring.load(v)
    }

    fn median_task_key(&self, v: Id) -> Option<Id> {
        self.ring.median_task_key(v)
    }

    fn spawn_sybil_for(&mut self, w: WorkerId, pos: Id) -> Option<u64> {
        self.create_sybil(w, pos)
    }
}

/// The [`LocalView`]/[`Actions`] pair over the oracle-ring simulator —
/// one worker's honest window onto [`Sim`] state. Everything a strategy
/// can reach through this context is either the worker's own state, its
/// Chord neighbor lists, or a priced message (`query_load`, `invite`).
pub(crate) struct SimNodeCtx<'a> {
    sim: &'a mut Sim,
    worker: WorkerId,
}

impl LocalView for SimNodeCtx<'_> {
    fn params(&self) -> StrategyParams {
        self.sim.cfg.strategy_params()
    }

    fn load(&self) -> u64 {
        self.sim.workers[self.worker].load
    }

    fn sybil_count(&self) -> usize {
        self.sim.workers[self.worker].sybils.len()
    }

    fn sybil_slots_left(&self) -> u32 {
        let het = self.sim.cfg.heterogeneity == Heterogeneity::Heterogeneous;
        self.sim.workers[self.worker].sybil_slots_left(self.sim.cfg.max_sybils, het)
    }

    fn primary(&self) -> Id {
        self.sim.workers[self.worker].primary
    }

    fn own_vnode_loads(&mut self) -> &[(Id, u64)] {
        let sim = &mut *self.sim;
        let ring = &sim.ring;
        sim.own_loads.clear();
        sim.own_loads
            .extend(sim.workers[self.worker].vnodes().map(|v| (v, ring.load(v))));
        &sim.own_loads
    }

    fn successor_list(&mut self) -> &[Id] {
        let sim = &mut *self.sim;
        let primary = sim.workers[self.worker].primary;
        sim.ring
            .successors(primary, sim.cfg.num_successors, &mut sim.neighbors);
        &sim.neighbors
    }
}

impl Actions for SimNodeCtx<'_> {
    // The oracle ring's transport is infallible: queries always answer
    // and joins only fail on address collisions, so the only error this
    // context ever returns is `ActionError::Occupied`. That keeps the
    // oracle substrate's behavior bit-for-bit identical to the
    // pre-fault-plane code under every strategy.
    fn query_load(&mut self, neighbor: Id) -> Result<u64, ActionError> {
        let load = self.sim.ring.load(neighbor);
        let tick = self.sim.tick;
        self.sim
            .rec
            .bill(tick, LOAD_QUERY, MessageStatus::Delivered, 0);
        let worker = self.worker;
        self.sim.rec.emit(SimEvent::LoadQueried {
            tick,
            worker,
            neighbor,
            load,
        });
        Ok(load)
    }

    fn random_id(&mut self) -> Id {
        Id::random(&mut self.sim.rng_strategy)
    }

    fn spawn_sybil(&mut self, pos: Id) -> Result<u64, ActionError> {
        self.sim
            .create_sybil(self.worker, pos)
            .ok_or(ActionError::Occupied)
    }

    fn retire_sybils(&mut self) {
        self.sim.retire_sybils(self.worker);
    }

    fn split_target(&mut self, victim: Id) -> Option<Id> {
        self.sim.split_position(victim)
    }

    fn note_gap_split(&mut self, pos: Id) {
        let tick = self.sim.tick;
        let worker = self.worker;
        self.sim
            .rec
            .emit(SimEvent::NeighborGapSplit { tick, worker, pos });
    }

    fn invite(&mut self, hot: Id) -> InviteOutcome {
        let sim = &mut *self.sim;
        let inviter = self.worker;
        let k = sim.cfg.num_successors;
        // The predecessor list is the walk counter-clockwise from `hot`
        // over up to `k` distinct vnodes, stopping if it wraps to `hot`.
        let pred_of = |ring: &Ring, cur: Id| ring.predecessor_of(cur).filter(|&p| p != hot);
        if k == 0 || pred_of(&sim.ring, hot).is_none() {
            return InviteOutcome::NoNeighbors;
        }
        // Offer the eligible predecessors in list order; an unmapped
        // vnode (impossible on a consistent ring) voids the whole round.
        let mut candidates = std::mem::take(&mut sim.helpers);
        candidates.clear();
        let mut mapped = true;
        let mut cur = hot;
        for _ in 0..k {
            let Some(p) = pred_of(&sim.ring, cur) else {
                break;
            };
            let Some(o) = sim.ring.vnode_owner(p) else {
                mapped = false;
                break;
            };
            if o != inviter && sim.worker_can_spawn_sybil(o) {
                candidates.push(HelperCandidate {
                    worker: o,
                    strength: sim.workers[o].strength,
                    load: sim.workers[o].load,
                });
            }
            cur = p;
        }
        let tick = sim.tick;
        sim.rec.invitation_sent(tick, inviter);
        let helper = pick_helper(&candidates, sim.cfg.strength_aware_invitation).filter(|_| mapped);
        sim.helpers = candidates;
        let helped = helper.and_then(|helper| {
            let pos = sim.split_position(hot).expect("ring non-trivial");
            sim.create_sybil(helper, pos)
                .map(|acquired| (helper, acquired))
        });
        sim.rec.invitation_settled(tick, inviter, helped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;

    fn small_cfg(strategy: StrategyKind) -> SimConfig {
        SimConfig {
            nodes: 50,
            tasks: 2_000,
            strategy,
            ..SimConfig::default()
        }
    }

    #[test]
    fn baseline_conserves_and_completes() {
        let sim = Sim::new(small_cfg(StrategyKind::None), 1);
        assert_eq!(sim.remaining_tasks(), 2_000);
        let res = sim.run();
        assert!(res.completed);
        assert_eq!(res.work_per_tick.iter().sum::<u64>(), 2_000);
        // The run takes exactly max-initial-load ticks.
        assert!(res.ticks >= res.ideal_ticks);
    }

    #[test]
    fn baseline_runtime_equals_max_initial_load() {
        let sim = Sim::new(small_cfg(StrategyKind::None), 2);
        let max_load = sim.active_loads().into_iter().max().unwrap();
        let res = sim.run();
        assert_eq!(res.ticks, max_load);
    }

    #[test]
    fn work_per_tick_never_exceeds_capacity() {
        let sim = Sim::new(small_cfg(StrategyKind::None), 3);
        let busy_at_start = sim.active_loads().iter().filter(|&&l| l > 0).count() as u64;
        let res = sim.run();
        assert!(res.work_per_tick.iter().all(|&w| w <= 50));
        // First tick: every node that has work consumes exactly one task
        // (a few arcs may start empty — exponential spacings).
        assert_eq!(res.work_per_tick[0], busy_at_start);
    }

    #[test]
    fn snapshots_are_captured_at_requested_ticks() {
        let mut cfg = small_cfg(StrategyKind::None);
        cfg.snapshot_ticks = vec![0, 5, 10];
        let res = Sim::new(cfg, 4).run();
        assert_eq!(res.snapshots.len(), 3);
        assert_eq!(res.snapshots[0].tick, 0);
        assert_eq!(res.snapshots[1].tick, 5);
        assert_eq!(res.snapshots[2].tick, 10);
        assert_eq!(res.snapshots[0].loads.len(), 50);
        assert_eq!(res.snapshots[0].loads.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn churn_keeps_tasks_conserved() {
        let mut cfg = small_cfg(StrategyKind::Churn);
        cfg.churn_rate = 0.05;
        let mut sim = Sim::new(cfg, 5);
        for _ in 0..20 {
            sim.step();
            sim.ring.check_invariants().unwrap();
            sim.assert_load_caches();
        }
        let consumed: u64 = sim.work_history.iter().sum();
        assert_eq!(sim.remaining_tasks() + consumed, 2_000);
        assert!(sim.messages().churn_leaves > 0 || sim.messages().churn_joins > 0);
    }

    #[test]
    fn churn_speeds_up_the_run() {
        // The paper's central hypothesis: churn load-balances. Compare
        // factors on the same placement seed.
        let base = Sim::new(small_cfg(StrategyKind::Churn), 6).run();
        let mut cfg = small_cfg(StrategyKind::Churn);
        cfg.churn_rate = 0.02;
        let churned = Sim::new(cfg, 6).run();
        assert!(churned.completed);
        assert!(
            churned.runtime_factor < base.runtime_factor,
            "churned {} vs base {}",
            churned.runtime_factor,
            base.runtime_factor
        );
    }

    #[test]
    fn churn_never_empties_network() {
        let mut cfg = small_cfg(StrategyKind::Churn);
        cfg.nodes = 2;
        cfg.tasks = 100;
        cfg.churn_rate = 0.9;
        let res = Sim::new(cfg, 7).run();
        assert!(res.completed);
        assert!(res.final_active_workers >= 1);
    }

    #[test]
    fn with_placement_is_deterministic() {
        let ids: Vec<Id> = (1..=10u64).map(|v| Id::from(v * 1000)).collect();
        let keys: Vec<Id> = (0..200u64).map(|v| Id::from(v * 53 + 7)).collect();
        let mut cfg = small_cfg(StrategyKind::None);
        cfg.nodes = 10;
        cfg.tasks = 200;
        let a = Sim::with_placement(cfg.clone(), 8, ids.clone(), keys.clone()).run();
        let b = Sim::with_placement(cfg, 8, ids, keys).run();
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.work_per_tick, b.work_per_tick);
    }

    #[test]
    #[should_panic(expected = "node_ids length")]
    fn with_placement_checks_node_count() {
        let cfg = small_cfg(StrategyKind::None);
        let _ = Sim::with_placement(cfg, 0, vec![Id::from(1u64)], vec![]);
    }

    #[test]
    fn strength_based_consumption_uses_strength() {
        let mut cfg = small_cfg(StrategyKind::None);
        cfg.heterogeneity = Heterogeneity::Heterogeneous;
        cfg.work_measurement = WorkMeasurement::StrengthPerTick;
        cfg.max_sybils = 5;
        let sim = Sim::new(cfg, 9);
        let total_strength: u64 = sim
            .workers()
            .iter()
            .filter(|w| w.is_active())
            .map(|w| w.strength as u64)
            .sum();
        assert!(total_strength > 50, "het strengths should exceed n");
        let res = sim.run();
        // First tick consumes ≤ total strength but ≥ active workers with work.
        assert!(res.work_per_tick[0] <= total_strength);
        assert!(res.completed);
    }

    #[test]
    fn same_seed_same_result_full_run() {
        let mut cfg = small_cfg(StrategyKind::RandomInjection);
        cfg.churn_rate = 0.01;
        let a = Sim::new(cfg.clone(), 10).run();
        let b = Sim::new(cfg, 10).run();
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn hand_stepped_worker_loads_match_the_ring() {
        // A `None` run with nothing armed is eligible for ledger-
        // detached ticks; stepping it by hand must still keep the
        // public worker table truthful.
        let mut sim = Sim::new(small_cfg(StrategyKind::None), 12);
        for _ in 0..7 {
            sim.step();
        }
        let loads: Vec<u64> = sim.workers().iter().map(|w| w.load).collect();
        assert_eq!(loads, sim.ring().loads_by_owner(sim.workers().len()));
        sim.assert_load_caches();
    }

    #[test]
    fn sybil_strategies_keep_load_caches_exact() {
        // Every Sybil insert and retirement credits and debits load
        // caches through the owner the ring hands back; stepping with
        // churn and static virtual servers checks them after each tick.
        for strategy in [
            StrategyKind::RandomInjection,
            StrategyKind::NeighborInjection,
            StrategyKind::Invitation,
        ] {
            let cfg = SimConfig {
                churn_rate: 0.05,
                virtual_nodes_per_worker: 3,
                ..small_cfg(strategy)
            };
            let mut sim = Sim::new(cfg, 13);
            while sim.remaining_tasks() > 0 && sim.tick() < 200 {
                sim.step();
                sim.assert_load_caches();
            }
            let m = sim.messages();
            assert!(m.sybils_created > 0, "{strategy:?}");
            assert!(m.churn_joins > 0, "{strategy:?}");
        }
    }

    #[test]
    fn tick_counter_advances() {
        let mut sim = Sim::new(small_cfg(StrategyKind::None), 11);
        assert_eq!(sim.tick(), 0);
        sim.step();
        assert_eq!(sim.tick(), 1);
    }
}

#[cfg(test)]
mod series_tests {
    use super::*;
    use crate::config::StrategyKind;
    use autobal_metrics::{names as metric_names, MetricsSample};

    /// One gauge across a run's metrics samples, its time series.
    fn gauge(samples: &[MetricsSample], name: &str) -> Vec<u64> {
        samples
            .iter()
            .map(|m| m.gauge(name).expect("gauge sampled"))
            .collect()
    }

    #[test]
    fn series_disabled_by_default() {
        let cfg = SimConfig {
            nodes: 20,
            tasks: 500,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 1).run();
        assert!(res.metrics.is_empty());
    }

    #[test]
    fn series_samples_at_interval_and_end() {
        let cfg = SimConfig {
            nodes: 20,
            tasks: 500,
            record_metrics: true,
            metrics_interval: Some(10),
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 2).run();
        let times: Vec<u64> = res.metrics.iter().map(|m| m.time).collect();
        // Tick 0, every 10th tick, and the final tick.
        let mut expected: Vec<u64> = (0..res.ticks).step_by(10).collect();
        expected.push(res.ticks);
        assert_eq!(times, expected);
        // Remaining tasks are non-increasing and end at zero.
        let remaining = gauge(&res.metrics, metric_names::TASKS_REMAINING);
        assert!(remaining.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(remaining.last(), Some(&0));
    }

    #[test]
    fn sampled_gini_lower_with_random_injection_than_none() {
        let mk = |strategy| SimConfig {
            nodes: 100,
            tasks: 10_000,
            strategy,
            record_metrics: true,
            metrics_interval: Some(5),
            ..SimConfig::default()
        };
        // Same placement seed, different strategies.
        let none = Sim::new(mk(StrategyKind::None), 3).run();
        let random = Sim::new(mk(StrategyKind::RandomInjection), 3).run();
        // Compare at sample index 8 (tick 40), well into the run but
        // long before either finishes.
        let idx = 8;
        assert!(none.metrics.len() > idx && random.metrics.len() > idx);
        assert_eq!(none.metrics[idx].time, 40);
        assert_eq!(random.metrics[idx].time, 40);
        let none_gini = gauge(&none.metrics, metric_names::GINI_PPM);
        let random_gini = gauge(&random.metrics, metric_names::GINI_PPM);
        assert!(
            random_gini[idx] < none_gini[idx],
            "random gini {} ppm vs none {} ppm",
            random_gini[idx],
            none_gini[idx]
        );
        // Sanity: gini always within [0, 1).
        assert!(none_gini.iter().chain(&random_gini).all(|&g| g < 1_000_000));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::trace::{event_log, SimEvent};

    #[test]
    fn events_disabled_by_default() {
        let cfg = SimConfig {
            nodes: 30,
            tasks: 1_000,
            strategy: StrategyKind::RandomInjection,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 1).run();
        assert!(event_log(&res.trace).is_empty());
        assert!(res.messages.sybils_created > 0, "actions happened anyway");
    }

    #[test]
    fn event_log_mirrors_message_counters() {
        let cfg = SimConfig {
            nodes: 50,
            tasks: 2_000,
            strategy: StrategyKind::RandomInjection,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 2).run();
        let created = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::SybilCreated { .. }))
            .count() as u64;
        assert_eq!(created, res.messages.sybils_created);
        let retired: u64 = event_log(&res.trace)
            .iter()
            .map(|e| match e {
                SimEvent::SybilsRetired { count, .. } => *count as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(retired, res.messages.sybils_retired);
        // Ticks are monotone.
        let ticks: Vec<u64> = event_log(&res.trace).iter().map(|e| e.tick()).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn churn_events_track_leaves_and_joins() {
        let cfg = SimConfig {
            nodes: 40,
            tasks: 2_000,
            strategy: StrategyKind::Churn,
            churn_rate: 0.02,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 3).run();
        let left = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerLeft { .. }))
            .count() as u64;
        let joined = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::WorkerJoined { .. }))
            .count() as u64;
        assert_eq!(left, res.messages.churn_leaves);
        assert_eq!(joined, res.messages.churn_joins);
    }

    #[test]
    fn invitation_events_recorded() {
        let cfg = SimConfig {
            nodes: 60,
            tasks: 6_000,
            strategy: StrategyKind::Invitation,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 4).run();
        let sent = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::InvitationSent { .. }))
            .count() as u64;
        assert_eq!(sent, res.messages.invitations_sent);
    }

    #[test]
    fn load_queried_events_mirror_query_counter() {
        let cfg = SimConfig {
            nodes: 50,
            tasks: 2_000,
            strategy: StrategyKind::SmartNeighbor,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 5).run();
        let queried = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::LoadQueried { .. }))
            .count() as u64;
        assert!(queried > 0, "smart neighbor must probe");
        assert_eq!(queried, res.messages.load_queries);
    }

    #[test]
    fn plain_neighbor_records_gap_splits() {
        let cfg = SimConfig {
            nodes: 50,
            tasks: 2_000,
            strategy: StrategyKind::NeighborInjection,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 6).run();
        // Every plain-neighbor Sybil came from a gap estimate; splits
        // can outnumber creations because an occupied midpoint skips
        // the spawn after the split was noted.
        let splits = event_log(&res.trace)
            .iter()
            .filter(|e| matches!(e, SimEvent::NeighborGapSplit { .. }))
            .count() as u64;
        assert!(splits >= res.messages.sybils_created);
        assert!(splits > 0);
    }

    #[test]
    fn invitation_honored_events_carry_the_helper() {
        let cfg = SimConfig {
            nodes: 60,
            tasks: 6_000,
            strategy: StrategyKind::Invitation,
            record_trace: true,
            ..SimConfig::default()
        };
        let res = Sim::new(cfg, 4).run();
        let honored: Vec<_> = event_log(&res.trace)
            .iter()
            .filter_map(|e| match e {
                SimEvent::InvitationHonored {
                    worker,
                    helper,
                    acquired,
                    ..
                } => Some((*worker, *helper, *acquired)),
                _ => None,
            })
            .collect();
        assert!(!honored.is_empty(), "some invitation must be honored");
        for (worker, helper, _) in &honored {
            assert_ne!(worker, helper, "a worker cannot honor itself");
        }
        // sent = honored + refused (every sent invitation resolves).
        assert_eq!(
            res.messages.invitations_sent,
            honored.len() as u64 + res.messages.invitations_refused
        );
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::config::StrategyKind;
    use autobal_telemetry::{summarize, to_jsonl, TraceBody};

    fn cfg(strategy: StrategyKind) -> SimConfig {
        SimConfig {
            nodes: 40,
            tasks: 1_500,
            strategy,
            record_trace: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn trace_disabled_by_default_and_costs_nothing() {
        let res = Sim::new(
            SimConfig {
                nodes: 40,
                tasks: 1_500,
                strategy: StrategyKind::RandomInjection,
                ..SimConfig::default()
            },
            1,
        )
        .run();
        assert!(res.trace.is_empty());
        assert!(!res.trace.enabled());
    }

    #[test]
    fn trace_is_framed_and_span_structured() {
        let res = Sim::new(cfg(StrategyKind::SmartNeighbor), 2).run();
        let records = res.trace.records();
        assert!(matches!(records[0].body, TraceBody::RunStart { .. }));
        assert!(matches!(
            records[records.len() - 1].body,
            TraceBody::RunEnd { .. }
        ));
        let s = summarize(records);
        assert_eq!(s.substrate, "oracle");
        assert_eq!(s.strategy, "smart");
        assert!(s.spans > 0, "every check opens a span");
        assert_eq!(s.messages.total(), res.messages.load_queries);
        assert_eq!(s.messages.delivered, res.messages.load_queries);
        // Virtual-time stamps are ticks: monotone, bounded by the run.
        let times: Vec<u64> = records.iter().map(|r| r.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t <= res.ticks));
    }

    #[test]
    fn same_seed_traces_are_byte_identical() {
        let a = Sim::new(cfg(StrategyKind::Invitation), 3).run();
        let b = Sim::new(cfg(StrategyKind::Invitation), 3).run();
        assert_eq!(to_jsonl(a.trace.records()), to_jsonl(b.trace.records()));
    }
}
