//! Naive reference implementations of the ring operations and the
//! pre-optimization tick engine.
//!
//! [`NaiveRing`] transcribes the straightforward (allocating) versions
//! of the hot ring operations — `partition`-based arc splits, a
//! get-then-get_mut task pop — and [`NaiveSim`] the original
//! collect-per-worker tick loop. Two consumers keep them honest:
//!
//! * `tests/ring_reference.rs` differentially pins the optimized
//!   [`autobal_core::Ring`] against `NaiveRing` under random operation
//!   sequences (including wrap arcs), element order included, so the
//!   in-place split can never drift from the obvious implementation.
//! * `repro perf` runs `NaiveSim` and the optimized engine on the same
//!   pinned scenario in the same process, asserts tick-for-tick
//!   equality, and reports the measured speedup in `BENCH_10.json`.
//!
//! Nothing here is reachable from the simulator's production paths; it
//! is deliberately slow and simple.

use autobal_core::{Heterogeneity, SimConfig, StrategyKind, WorkMeasurement, Worker, WorkerId};
use autobal_id::{ring as arc, Id};
use autobal_stats::rng::{domains, substream, DetRng};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// One virtual node of the reference ring.
#[derive(Debug, Clone)]
pub struct NaiveVNode {
    pub owner: WorkerId,
    pub tasks: Vec<Id>,
}

/// The reference ring: same contract as [`autobal_core::Ring`], written
/// the allocating way. Shares the optimized ring's RNG constants so task
/// pops select identical elements.
#[derive(Debug, Clone)]
pub struct NaiveRing {
    map: BTreeMap<Id, NaiveVNode>,
    total_tasks: u64,
    pop_rng: u64,
}

impl Default for NaiveRing {
    fn default() -> NaiveRing {
        NaiveRing::new()
    }
}

impl NaiveRing {
    pub fn new() -> NaiveRing {
        NaiveRing {
            map: BTreeMap::new(),
            total_tasks: 0,
            pop_rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The original double-step pop index: advance xorshift64* state,
    /// reduce to `0..len`.
    fn next_pop_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        let mut x = self.pop_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.pop_rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % len as u64) as usize
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    pub fn contains(&self, id: Id) -> bool {
        self.map.contains_key(&id)
    }

    pub fn load(&self, id: Id) -> u64 {
        self.map.get(&id).map_or(0, |v| v.tasks.len() as u64)
    }

    /// The exact task vector of one virtual node (order matters: the
    /// differential tests compare element-for-element).
    pub fn tasks(&self, id: Id) -> Option<&[Id]> {
        self.map.get(&id).map(|v| v.tasks.as_slice())
    }

    pub fn owner(&self, id: Id) -> Option<WorkerId> {
        self.map.get(&id).map(|v| v.owner)
    }

    /// All `(id, owner, tasks)` rows in ring order, for whole-ring
    /// equality assertions.
    pub fn rows(&self) -> Vec<(Id, WorkerId, Vec<Id>)> {
        self.map
            .iter()
            .map(|(id, v)| (*id, v.owner, v.tasks.clone()))
            .collect()
    }

    pub fn owner_of_key(&self, key: Id) -> Option<Id> {
        self.map
            .range(key..)
            .next()
            .map(|(id, _)| *id)
            .or_else(|| self.map.keys().next().copied())
    }

    pub fn successor_of(&self, id: Id) -> Option<Id> {
        if self.map.is_empty() {
            return None;
        }
        self.map
            .range((std::ops::Bound::Excluded(id), std::ops::Bound::Unbounded))
            .next()
            .map(|(i, _)| *i)
            .or_else(|| self.map.keys().next().copied())
    }

    /// The transcription of the pre-optimization `Ring::insert_vnode`:
    /// `partition` the successor's tasks into two fresh vectors.
    ///
    /// Errors are unit on purpose: the differential tests only compare
    /// ok/err against `Ring`'s `RingError`, never the error payload.
    #[allow(clippy::result_unit_err)]
    pub fn insert_vnode(&mut self, id: Id, owner: WorkerId) -> Result<u64, ()> {
        if self.map.contains_key(&id) {
            return Err(());
        }
        if self.map.is_empty() {
            self.map.insert(
                id,
                NaiveVNode {
                    owner,
                    tasks: Vec::new(),
                },
            );
            return Ok(0);
        }
        let succ_id = self.owner_of_key(id).expect("non-empty ring");
        let succ = self.map.get_mut(&succ_id).expect("successor exists");
        let (keep, give): (Vec<Id>, Vec<Id>) = succ
            .tasks
            .iter()
            .copied()
            .partition(|&k| arc::in_arc(id, succ_id, k));
        succ.tasks = keep;
        let acquired = give.len() as u64;
        self.map.insert(id, NaiveVNode { owner, tasks: give });
        Ok(acquired)
    }

    /// The transcription of the pre-optimization `Ring::remove_vnode`.
    ///
    /// Errors are unit on purpose: the differential tests only compare
    /// ok/err against `Ring`'s `RingError`, never the error payload.
    #[allow(clippy::result_unit_err)]
    pub fn remove_vnode(&mut self, id: Id) -> Result<(WorkerId, u64, Id), ()> {
        if !self.map.contains_key(&id) {
            return Err(());
        }
        if self.map.len() == 1 {
            let v = &self.map[&id];
            if v.tasks.is_empty() {
                let v = self.map.remove(&id).unwrap();
                return Ok((v.owner, 0, id));
            }
            return Err(());
        }
        let succ_id = self.successor_of(id).expect("len >= 2");
        let v = self.map.remove(&id).unwrap();
        let moved = v.tasks.len() as u64;
        let succ = self.map.get_mut(&succ_id).unwrap();
        succ.tasks.extend_from_slice(&v.tasks);
        Ok((v.owner, moved, succ_id))
    }

    /// Initial placement: the obvious per-key owner lookup (the
    /// optimized ring does one sorted sweep instead).
    pub fn assign_tasks(&mut self, keys: Vec<Id>) {
        assert!(!self.map.is_empty(), "assign_tasks on empty ring");
        let mut keys = keys;
        keys.sort_unstable();
        self.total_tasks += keys.len() as u64;
        for k in keys {
            let owner = self.owner_of_key(k).expect("non-empty ring");
            let node = self.map.get_mut(&owner).expect("owner exists");
            node.tasks.push(k);
        }
        // Match the optimized ring's integer-sorted task vectors.
        for v in self.map.values_mut() {
            v.tasks.sort_unstable();
        }
    }

    /// The transcription of the pre-optimization `Ring::pop_task`: look
    /// the node up once to measure, then again mutably to remove.
    pub fn pop_task(&mut self, id: Id) -> bool {
        let Some(v) = self.map.get(&id) else {
            return false;
        };
        let len = v.tasks.len();
        if len == 0 {
            return false;
        }
        let idx = self.next_pop_index(len);
        self.map.get_mut(&id).unwrap().tasks.swap_remove(idx);
        self.total_tasks -= 1;
        true
    }
}

/// What one [`NaiveSim`] run produces — the columns `repro perf`
/// compares against the optimized engine's [`autobal_core::RunResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveRunResult {
    pub ticks: u64,
    pub completed: bool,
    pub work_per_tick: Vec<u64>,
    pub churn_leaves: u64,
    pub churn_joins: u64,
    pub peak_vnodes: usize,
    pub series_gini: Vec<f64>,
    pub series_idle: Vec<usize>,
}

/// The pre-optimization tick engine, restricted to the strategies the
/// perf baseline needs (`None` and `Churn` — no Sybil layers). Every
/// hot-path allocation the optimization pass removed is preserved here:
/// the per-worker `vnodes().collect()`, the per-sample `active_loads()`
/// vector, and the partitioning ring operations above.
pub struct NaiveSim {
    cfg: SimConfig,
    ring: NaiveRing,
    workers: Vec<Worker>,
    waiting: Vec<WorkerId>,
    tick: u64,
    active_count: usize,
    rng_churn: DetRng,
    churn_leaves: u64,
    churn_joins: u64,
    work_history: Vec<u64>,
    peak_vnodes: usize,
    series_gini: Vec<f64>,
    series_idle: Vec<usize>,
}

impl NaiveSim {
    /// Mirrors `Sim::new`: identical substream usage, so a fixed seed
    /// produces the identical initial placement.
    pub fn new(cfg: SimConfig, seed: u64) -> NaiveSim {
        assert!(
            matches!(cfg.strategy, StrategyKind::None | StrategyKind::Churn),
            "NaiveSim only models the None/Churn engines"
        );
        cfg.validate().expect("invalid SimConfig");
        let mut placement = substream(seed, 0, domains::PLACEMENT);
        let mut tasks_rng = substream(seed, 0, domains::TASKS);
        let mut seen = BTreeSet::new();
        let mut node_ids = Vec::with_capacity(cfg.nodes);
        while node_ids.len() < cfg.nodes {
            let id = Id::random(&mut placement);
            if seen.insert(id) {
                node_ids.push(id);
            }
        }
        let task_keys: Vec<Id> = (0..cfg.tasks).map(|_| Id::random(&mut tasks_rng)).collect();

        let mut strength_rng = substream(seed, 0, domains::STRENGTH);
        let heterogeneous = cfg.heterogeneity == Heterogeneity::Heterogeneous;
        let draw_strength = |rng: &mut DetRng| -> u32 {
            if heterogeneous {
                rng.gen_range(1..=cfg.max_sybils.max(1))
            } else {
                1
            }
        };

        let mut ring = NaiveRing::new();
        let mut workers = Vec::with_capacity(cfg.nodes * 2);
        for id in node_ids {
            let s = draw_strength(&mut strength_rng);
            let widx = workers.len();
            workers.push(Worker::active(id, s));
            ring.insert_vnode(id, widx).expect("fresh position");
        }
        if cfg.virtual_nodes_per_worker > 1 {
            let mut statics_rng = substream(seed, 0, domains::STATICS);
            for (widx, w) in workers.iter_mut().enumerate() {
                for _ in 1..cfg.virtual_nodes_per_worker {
                    let pos = loop {
                        let p = Id::random(&mut statics_rng);
                        if !ring.contains(p) {
                            break p;
                        }
                    };
                    ring.insert_vnode(pos, widx).expect("fresh position");
                    w.statics.push(pos);
                }
            }
        }
        ring.assign_tasks(task_keys);
        let mut loads = vec![0u64; workers.len()];
        for (_, owner, tasks) in ring.rows() {
            loads[owner] += tasks.len() as u64;
        }
        for (w, &l) in workers.iter_mut().zip(&loads) {
            w.load = l;
        }

        let mut waiting = Vec::new();
        if cfg.churn_enabled() {
            for _ in 0..cfg.nodes {
                let s = draw_strength(&mut strength_rng);
                waiting.push(workers.len());
                workers.push(Worker::waiting(s));
            }
        }

        let active_count = cfg.nodes;
        let peak = ring.len();
        NaiveSim {
            cfg,
            ring,
            workers,
            waiting,
            tick: 0,
            active_count,
            rng_churn: substream(seed, 0, domains::CHURN),
            churn_leaves: 0,
            churn_joins: 0,
            work_history: Vec::new(),
            peak_vnodes: peak,
            series_gini: Vec::new(),
            series_idle: Vec::new(),
        }
    }

    fn remove_vnode_tracked(&mut self, pos: Id) {
        let Ok((owner, moved, succ)) = self.ring.remove_vnode(pos) else {
            return;
        };
        if moved > 0 {
            let succ_owner = self.ring.owner(succ).expect("successor");
            self.workers[owner].load -= moved;
            self.workers[succ_owner].load += moved;
        }
    }

    fn insert_vnode_tracked(&mut self, pos: Id, owner: WorkerId) {
        let acquired = self.ring.insert_vnode(pos, owner).expect("fresh position");
        if acquired > 0 {
            let victim_vnode = self.ring.successor_of(pos).expect("successor after split");
            let victim_owner = self.ring.owner(victim_vnode).expect("vnode");
            self.workers[victim_owner].load -= acquired;
            self.workers[owner].load += acquired;
        }
    }

    fn worker_leave(&mut self, idx: WorkerId) {
        let sybils = std::mem::take(&mut self.workers[idx].sybils);
        for s in sybils {
            self.remove_vnode_tracked(s);
        }
        let statics = std::mem::take(&mut self.workers[idx].statics);
        for s in statics {
            self.remove_vnode_tracked(s);
        }
        let primary = self.workers[idx].primary;
        self.remove_vnode_tracked(primary);
        self.workers[idx].state = autobal_core::WorkerState::Waiting;
        self.workers[idx].load = 0;
        self.active_count -= 1;
        self.waiting.push(idx);
        self.churn_leaves += 1;
    }

    fn worker_join(&mut self, idx: WorkerId) {
        self.workers[idx].state = autobal_core::WorkerState::Active;
        self.workers[idx].load = 0;
        let pos = loop {
            let p = Id::random(&mut self.rng_churn);
            if !self.ring.contains(p) {
                break p;
            }
        };
        self.insert_vnode_tracked(pos, idx);
        self.workers[idx].primary = pos;
        for _ in 1..self.cfg.virtual_nodes_per_worker {
            let pos = loop {
                let p = Id::random(&mut self.rng_churn);
                if !self.ring.contains(p) {
                    break p;
                }
            };
            self.insert_vnode_tracked(pos, idx);
            self.workers[idx].statics.push(pos);
        }
        self.active_count += 1;
        self.churn_joins += 1;
    }

    /// One churn pass, transcribed from `BackgroundChurn::on_tick` over
    /// the simulator's `ChurnOps` (same candidate order, same RNG draw
    /// per candidate).
    fn churn_tick(&mut self) {
        let leave_p = self.cfg.leave_probability();
        let join_p = self.cfg.join_probability();
        let candidates: Vec<WorkerId> = (0..self.workers.len())
            .filter(|&i| self.workers[i].is_active())
            .collect();
        for idx in candidates {
            if self.active_count <= 1 {
                break;
            }
            if self.rng_churn.gen::<f64>() <= leave_p {
                self.worker_leave(idx);
            }
        }
        for idx in std::mem::take(&mut self.waiting) {
            if self.rng_churn.gen::<f64>() <= join_p {
                self.worker_join(idx);
            } else {
                self.waiting.push(idx);
            }
        }
    }

    /// The original work phase: collect each worker's vnodes into a
    /// fresh vector, then drain up to capacity.
    fn step(&mut self) -> u64 {
        self.tick += 1;
        if self.cfg.churn_enabled() {
            self.churn_tick();
        }
        let strength_based = self.cfg.work_measurement == WorkMeasurement::StrengthPerTick;
        let mut consumed = 0u64;
        for idx in 0..self.workers.len() {
            if !self.workers[idx].is_active() {
                continue;
            }
            let mut cap = self.workers[idx].capacity(strength_based);
            if cap == 0 || self.workers[idx].load == 0 {
                continue;
            }
            let vnodes: Vec<Id> = self.workers[idx].vnodes().collect();
            'outer: for v in vnodes {
                while cap > 0 && self.ring.pop_task(v) {
                    cap -= 1;
                    consumed += 1;
                    self.workers[idx].load -= 1;
                    if self.workers[idx].load == 0 {
                        break 'outer;
                    }
                }
                if cap == 0 {
                    break;
                }
            }
        }
        self.work_history.push(consumed);
        self.peak_vnodes = self.peak_vnodes.max(self.ring.len());
        consumed
    }

    /// The original series sample: collect the active loads into a
    /// fresh vector, then compute Gini over the unsorted copy.
    fn sample_series(&mut self) {
        let loads: Vec<u64> = self
            .workers
            .iter()
            .filter(|w| w.is_active())
            .map(|w| w.load)
            .collect();
        self.series_gini.push(autobal_stats::gini(&loads));
        self.series_idle
            .push(loads.iter().filter(|&&l| l == 0).count());
    }

    /// Runs to completion (or the tick cap), mirroring `Sim::run`'s
    /// sampling schedule.
    pub fn run(mut self) -> NaiveRunResult {
        let series_every = self
            .cfg
            .record_metrics
            .then(|| self.cfg.metrics_interval.unwrap_or(1).max(1));
        if series_every.is_some() {
            self.sample_series();
        }
        let cap = self.cfg.effective_max_ticks();
        while self.ring.total_tasks() > 0 && self.tick < cap {
            self.step();
            if let Some(k) = series_every {
                if self.tick.is_multiple_of(k) || self.ring.total_tasks() == 0 {
                    self.sample_series();
                }
            }
        }
        let completed = self.ring.total_tasks() == 0;
        NaiveRunResult {
            ticks: self.tick,
            completed,
            work_per_tick: self.work_history,
            churn_leaves: self.churn_leaves,
            churn_joins: self.churn_joins,
            peak_vnodes: self.peak_vnodes,
            series_gini: self.series_gini,
            series_idle: self.series_idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::from(v)
    }

    #[test]
    fn naive_ring_basics_match_expectations() {
        let mut r = NaiveRing::new();
        r.insert_vnode(id(100), 0).unwrap();
        r.insert_vnode(id(300), 1).unwrap();
        r.assign_tasks(vec![id(150), id(250), id(280), id(350), id(50)]);
        assert_eq!(r.load(id(300)), 3);
        assert_eq!(r.load(id(100)), 2, "wrap arc holds 350 and 50");
        let got = r.insert_vnode(id(260), 9).unwrap();
        assert_eq!(got, 2);
        assert_eq!(r.total_tasks(), 5);
        assert!(r.pop_task(id(260)));
        assert_eq!(r.total_tasks(), 4);
        let (_, moved, succ) = r.remove_vnode(id(260)).unwrap();
        assert_eq!(moved, 1);
        assert_eq!(succ, id(300));
    }

    #[test]
    fn naive_sim_none_baseline_runs() {
        let cfg = SimConfig {
            nodes: 50,
            tasks: 2_000,
            ..SimConfig::default()
        };
        let res = NaiveSim::new(cfg, 1).run();
        assert!(res.completed);
        assert_eq!(res.work_per_tick.iter().sum::<u64>(), 2_000);
    }

    #[test]
    #[should_panic(expected = "None/Churn")]
    fn naive_sim_rejects_sybil_strategies() {
        let cfg = SimConfig {
            nodes: 10,
            tasks: 100,
            strategy: StrategyKind::RandomInjection,
            ..SimConfig::default()
        };
        let _ = NaiveSim::new(cfg, 1);
    }
}
