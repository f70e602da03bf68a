//! Per-node Chord state.

use crate::fingers::Fingers;
use crate::keyset::KeySet;
use autobal_id::{ring, Id};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The local state of one Chord participant.
///
/// A node only ever *reads* its own fields; learning about other nodes
/// happens through the [`crate::Network`]'s message-counted RPCs, which
/// keeps the implementation honest about what is local knowledge — the
/// property the paper's strategies depend on.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's ring identifier.
    pub id: Id,
    /// Successor list, nearest first. `successors[0]` is *the* successor.
    pub successors: Vec<Id>,
    /// Predecessor list, nearest (counter-clockwise) first.
    pub predecessors: Vec<Id>,
    /// Finger table: entry `k` routes toward `id + 2^k`. Entries are
    /// `None` until wiring or `fix_fingers` resolves them.
    pub fingers: Fingers,
    /// Keys this node is primary owner of, as one sorted run that its
    /// replica targets share ([`KeySet::share`]): a push copies no key,
    /// and consuming the smallest key ([`KeySet::pop_first`]) leaves
    /// the targets' snapshots untouched.
    pub keys: KeySet,
    /// Values for keys that carry data (the key-value API); keys used
    /// purely as task markers have no entry here.
    pub store: BTreeMap<Id, Bytes>,
    /// Active backups: owner id → that owner's keys and values as of the
    /// last replica push received. The keys share the owner's own
    /// [`KeySet`] run; the values are one snapshot shared by all of the
    /// owner's targets and reused from cycle to cycle while the owner's
    /// values are unchanged.
    pub replicas: BTreeMap<Id, Replica>,
    /// Next finger index to fix (incremental `fix_fingers` cursor).
    pub next_finger: usize,
}

/// One owner's backup on a replica holder.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// The owner's keys as last pushed.
    pub keys: KeySet,
    /// The owner's values as last pushed.
    pub values: Arc<BTreeMap<Id, Bytes>>,
}

impl Node {
    /// Creates a node that believes it is alone in the ring.
    pub fn solo(id: Id) -> Node {
        Node {
            id,
            successors: vec![id],
            predecessors: vec![id],
            fingers: Fingers::new(),
            keys: KeySet::new(),
            store: BTreeMap::new(),
            replicas: BTreeMap::new(),
            next_finger: 0,
        }
    }

    /// The immediate successor (self when alone).
    pub fn successor(&self) -> Id {
        self.successors.first().copied().unwrap_or(self.id)
    }

    /// The immediate predecessor (self when alone).
    pub fn predecessor(&self) -> Id {
        self.predecessors.first().copied().unwrap_or(self.id)
    }

    /// Number of keys this node currently owns.
    pub fn load(&self) -> usize {
        self.keys.len()
    }

    /// Whether `key` falls in this node's responsibility arc
    /// `(predecessor, id]`.
    pub fn owns(&self, key: Id) -> bool {
        ring::in_arc(self.predecessor(), self.id, key)
    }

    /// The finger target `id + 2^k`.
    pub fn finger_target(&self, k: usize) -> Id {
        self.id.wrapping_add(Id::pow2(k as u32))
    }

    /// The best local routing candidate strictly between `self.id` and
    /// `key`: scans fingers (longest first) then the successor list.
    /// Returns `None` when no local entry improves on the successor.
    pub fn closest_preceding(&self, key: Id) -> Option<Id> {
        self.fingers
            .closest_preceding(self.id, &self.successors, key)
    }

    /// Removes every reference to `dead` from routing state (lazy failure
    /// repair). Returns `true` if anything changed.
    pub fn forget(&mut self, dead: Id) -> bool {
        let mut changed = false;
        let before = self.successors.len();
        self.successors.retain(|&s| s != dead);
        changed |= self.successors.len() != before;
        let before = self.predecessors.len();
        self.predecessors.retain(|&p| p != dead);
        changed |= self.predecessors.len() != before;
        changed |= self.fingers.forget(dead) > 0;
        changed
    }

    /// The largest gap (clockwise arc) between consecutive entries of the
    /// successor list, including the arc from `self` to the first
    /// successor. Returns the `(from, to)` pair bounding the widest gap.
    /// This is the *estimate* the plain neighbor-injection strategy uses.
    pub fn widest_successor_gap(&self) -> Option<(Id, Id)> {
        if self.successors.is_empty() || self.successors[0] == self.id {
            return None;
        }
        let mut hops: Vec<Id> = Vec::with_capacity(self.successors.len() + 1);
        hops.push(self.id);
        hops.extend(self.successors.iter().copied());
        let mut best: Option<(Id, Id)> = None;
        let mut best_len = Id::ZERO;
        for w in hops.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            let len = ring::distance(a, b);
            if len > best_len {
                best_len = len;
                best = Some((a, b));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u128) -> Id {
        Id::from(v)
    }

    #[test]
    fn solo_node_owns_everything() {
        let n = Node::solo(id(100));
        assert_eq!(n.successor(), id(100));
        assert_eq!(n.predecessor(), id(100));
        assert!(n.owns(id(0)));
        assert!(n.owns(id(100)));
        assert!(n.owns(Id::MAX));
    }

    #[test]
    fn ownership_follows_predecessor_arc() {
        let mut n = Node::solo(id(100));
        n.predecessors = vec![id(50)];
        assert!(n.owns(id(51)));
        assert!(n.owns(id(100)));
        assert!(!n.owns(id(50)));
        assert!(!n.owns(id(101)));
    }

    #[test]
    fn finger_targets_are_power_offsets() {
        let n = Node::solo(id(10));
        assert_eq!(n.finger_target(0), id(11));
        assert_eq!(n.finger_target(4), id(26));
    }

    #[test]
    fn closest_preceding_prefers_far_fingers() {
        let mut n = Node::solo(id(0));
        n.successors = vec![id(10)];
        n.fingers.set(3, Some(id(8))); // id+8
        n.fingers.set(6, Some(id(64))); // id+64
                                        // Routing toward 100: the 64-finger precedes it and beats 8.
        assert_eq!(n.closest_preceding(id(100)), Some(id(64)));
        // Routing toward 50: 64 is past it, so the 8-finger wins.
        assert_eq!(n.closest_preceding(id(50)), Some(id(8)));
    }

    #[test]
    fn closest_preceding_falls_back_to_successors() {
        let mut n = Node::solo(id(0));
        n.successors = vec![id(5), id(9)];
        assert_eq!(n.closest_preceding(id(100)), Some(id(9)));
        assert_eq!(n.closest_preceding(id(7)), Some(id(5)));
        // Nothing precedes 3.
        assert_eq!(n.closest_preceding(id(3)), None);
    }

    #[test]
    fn forget_scrubs_all_references() {
        let mut n = Node::solo(id(0));
        n.successors = vec![id(5), id(9)];
        n.predecessors = vec![id(200), id(150)];
        n.fingers.set(2, Some(id(5)));
        assert!(n.forget(id(5)));
        assert_eq!(n.successors, vec![id(9)]);
        assert_eq!(n.fingers.get(2), None);
        assert!(n.forget(id(200)));
        assert_eq!(n.predecessors, vec![id(150)]);
        assert!(!n.forget(id(5)));
    }

    #[test]
    fn widest_gap_spots_the_big_hole() {
        let mut n = Node::solo(id(0));
        n.successors = vec![id(10), id(20), id(1000)];
        let (a, b) = n.widest_successor_gap().unwrap();
        assert_eq!((a, b), (id(20), id(1000)));
    }

    #[test]
    fn widest_gap_includes_self_to_first() {
        let mut n = Node::solo(id(0));
        n.successors = vec![id(500), id(510)];
        let (a, b) = n.widest_successor_gap().unwrap();
        assert_eq!((a, b), (id(0), id(500)));
    }

    #[test]
    fn widest_gap_none_when_alone() {
        let n = Node::solo(id(7));
        assert!(n.widest_successor_gap().is_none());
    }
}
