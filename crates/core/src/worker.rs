//! Physical workers: the machines behind the ring's virtual nodes.

use autobal_id::Id;

/// Index of a worker in the simulation's worker table.
pub type WorkerId = usize;

/// Whether a worker is participating or sitting in the churn pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Active in the ring with at least a primary virtual node.
    Active,
    /// In the waiting pool (churn strategy): no ring presence.
    Waiting,
}

/// A physical machine. It owns one *primary* virtual node while active,
/// plus up to its Sybil budget of additional virtual nodes.
#[derive(Debug, Clone)]
pub struct Worker {
    /// Ring position of the primary virtual node (meaningless while
    /// waiting).
    pub primary: Id,
    /// Ring positions of this worker's Sybil virtual nodes.
    pub sybils: Vec<Id>,
    /// Static virtual-server positions (the classic baseline); never
    /// retired, created only at setup.
    pub statics: Vec<Id>,
    /// Node strength: 1 in homogeneous networks, `U(1, maxSybils)` in
    /// heterogeneous ones. Dictates per-tick capacity under
    /// strength-based work measurement and the Sybil cap in
    /// heterogeneous networks (§V-B).
    pub strength: u32,
    /// Active vs waiting.
    pub state: WorkerState,
    /// Cached total tasks across this worker's virtual nodes; maintained
    /// by the simulator so strategy checks are O(1).
    pub load: u64,
}

impl Worker {
    /// A fresh active worker with the given primary position.
    pub fn active(primary: Id, strength: u32) -> Worker {
        Worker {
            primary,
            sybils: Vec::new(),
            statics: Vec::new(),
            strength,
            state: WorkerState::Active,
            load: 0,
        }
    }

    /// A worker parked in the waiting pool.
    pub fn waiting(strength: u32) -> Worker {
        Worker {
            primary: Id::ZERO,
            sybils: Vec::new(),
            statics: Vec::new(),
            strength,
            state: WorkerState::Waiting,
            load: 0,
        }
    }

    /// Is this worker active in the ring?
    pub fn is_active(&self) -> bool {
        self.state == WorkerState::Active
    }

    /// Tasks this worker completes per tick under the given work model.
    pub fn capacity(&self, strength_based: bool) -> u64 {
        if strength_based {
            self.strength as u64
        } else {
            1
        }
    }

    /// Maximum simultaneous Sybils: `max_sybils` when homogeneous,
    /// `strength` when heterogeneous (§IV-B).
    pub fn sybil_budget(&self, max_sybils: u32, heterogeneous: bool) -> u32 {
        if heterogeneous {
            self.strength
        } else {
            max_sybils
        }
    }

    /// Remaining Sybil slots.
    pub fn sybil_slots_left(&self, max_sybils: u32, heterogeneous: bool) -> u32 {
        self.sybil_budget(max_sybils, heterogeneous)
            .saturating_sub(self.sybils.len() as u32)
    }

    /// All ring positions this worker controls (primary first, then
    /// static virtual servers, then Sybils).
    pub fn vnodes(&self) -> impl Iterator<Item = Id> + '_ {
        let count = if self.is_active() {
            1 + self.statics.len() + self.sybils.len()
        } else {
            0
        };
        std::iter::once(self.primary)
            .chain(self.statics.iter().copied())
            .chain(self.sybils.iter().copied())
            .take(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64) -> Id {
        Id::from(v)
    }

    #[test]
    fn capacity_follows_work_model() {
        let w = Worker::active(id(1), 4);
        assert_eq!(w.capacity(false), 1);
        assert_eq!(w.capacity(true), 4);
    }

    #[test]
    fn sybil_budget_homogeneous_vs_heterogeneous() {
        let w = Worker::active(id(1), 3);
        assert_eq!(w.sybil_budget(5, false), 5);
        assert_eq!(w.sybil_budget(5, true), 3);
    }

    #[test]
    fn sybil_slots_shrink_as_sybils_spawn() {
        let mut w = Worker::active(id(1), 1);
        assert_eq!(w.sybil_slots_left(5, false), 5);
        w.sybils.push(id(10));
        w.sybils.push(id(20));
        assert_eq!(w.sybil_slots_left(5, false), 3);
        w.sybils.extend([id(30), id(40), id(50)]);
        assert_eq!(w.sybil_slots_left(5, false), 0);
        // Over budget never underflows.
        w.sybils.push(id(60));
        assert_eq!(w.sybil_slots_left(5, false), 0);
    }

    #[test]
    fn vnodes_lists_primary_then_sybils() {
        let mut w = Worker::active(id(1), 1);
        w.sybils.push(id(2));
        let v: Vec<Id> = w.vnodes().collect();
        assert_eq!(v, vec![id(1), id(2)]);
    }

    #[test]
    fn waiting_worker_has_no_vnodes() {
        let w = Worker::waiting(2);
        assert!(!w.is_active());
        assert_eq!(w.vnodes().count(), 0);
    }
}
