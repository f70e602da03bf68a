//! The simulated Chord network: node container, membership, key
//! placement, and iterative lookups with message accounting.

use crate::fault::{FaultPlan, FaultState};
use crate::keyset::KeySet;
use crate::messages::{MessageKind, MessageStats};
use crate::node::Node;
use crate::table::IdTable;
use autobal_id::{ring, Id};

/// Configuration knobs for the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Successor-list length (paper default: 5, also tested at 10).
    pub successor_list_len: usize,
    /// Predecessor-list length (paper: "nodes also keep track of the same
    /// number of predecessors").
    pub predecessor_list_len: usize,
    /// How many successors receive active backups of a node's keys.
    pub replication_factor: usize,
    /// Fingers fixed per node per maintenance cycle.
    pub fingers_per_cycle: usize,
}

/// Abort threshold for a single lookup (routing loop safety valve).
const MAX_LOOKUP_HOPS: u32 = 512;
// A lookup on a consistent ring takes at most one hop per identifier
// bit, so the cap must sit above that.
const _: () = assert!(MAX_LOOKUP_HOPS >= 160);

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            successor_list_len: 5,
            predecessor_list_len: 5,
            replication_factor: 5,
            fingers_per_cycle: 16,
        }
    }
}

/// Errors surfaced by network operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// Operation requires at least one live node.
    EmptyNetwork,
    /// A node with this id already exists.
    DuplicateId(Id),
    /// The referenced node is not in the network.
    UnknownNode(Id),
    /// Routing did not converge: the lookup passed the hop cap that
    /// stops a routing loop.
    LookupFailed { hops: u32 },
    /// The fault plane ate every attempt: retries exhausted without an
    /// answer (message loss) or the peer sits behind an open partition.
    TimedOut { attempts: u32 },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::EmptyNetwork => write!(f, "network has no live nodes"),
            NetworkError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
            NetworkError::UnknownNode(id) => write!(f, "unknown node {id}"),
            NetworkError::LookupFailed { hops } => {
                write!(f, "lookup failed to converge after {hops} hops")
            }
            NetworkError::TimedOut { attempts } => {
                write!(f, "operation timed out after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Outcome of an iterative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The node responsible for the key.
    pub owner: Id,
    /// Routing hops taken (0 when the starting node already knows).
    pub hops: u32,
    /// The nodes visited, starting node first.
    pub path: Vec<Id>,
}

/// What an abrupt [`Network::fail`] took with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailReport {
    /// Primary keys with no live replica anywhere: permanently gone.
    /// Also billed to [`MessageStats::keys_lost`].
    pub keys_lost: u64,
    /// Primary keys covered by at least one live replica; maintenance
    /// will promote them back.
    pub keys_recoverable: u64,
}

/// A whole simulated Chord overlay.
///
/// Nodes are owned by the network and communicate through it; every
/// simulated RPC bumps [`Network::stats`]. An optional [`FaultPlan`]
/// (inert by default) makes message delivery fallible.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) cfg: NetConfig,
    /// Every live node, in ascending id order.
    pub(crate) nodes: IdTable<Node>,
    /// Message counters for the lifetime of the network.
    pub stats: MessageStats,
    /// The armed fault plan (inert unless [`Network::set_fault_plan`]).
    pub(crate) faults: FaultState,
    /// Harness-driven clock used only to evaluate partition windows;
    /// the synchronous substrate otherwise has no notion of time.
    pub(crate) clock: u64,
    /// Ids removed by [`Network::leave`] and [`Network::fail`] since the
    /// last maintenance cycle, whose replicas that cycle promotes.
    pub(crate) departed: Vec<Id>,
    /// A buffer the maintenance sub-steps reuse: a node's stale
    /// neighbours while it prunes, the dead owners while replicas are
    /// promoted. Empty between uses.
    pub(crate) scratch: Vec<Id>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(cfg: NetConfig) -> Network {
        Network {
            cfg,
            nodes: IdTable::default(),
            stats: MessageStats::new(),
            faults: FaultState::inert(),
            clock: 0,
            departed: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Arms a fault plan. The default plan is inert, so a network that
    /// never calls this behaves exactly as before the fault plane
    /// existed (no extra RNG draws, no counter movement).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(plan);
    }

    /// Advances the partition-window clock (the harness calls this once
    /// per tick; see [`Network::set_clock`]).
    pub fn set_clock(&mut self, now: u64) {
        #[cfg(feature = "strict")]
        debug_assert!(now >= self.clock, "clock must be monotonic");
        self.clock = now;
    }

    /// Message-level fault shim for single-shot application messages
    /// (load queries, invitations). The message is billed either way —
    /// bandwidth is spent whether or not the packet arrives — and
    /// `false` means the fault plane ate it.
    pub fn try_message(&mut self, kind: MessageKind) -> bool {
        self.stats.record(kind);
        if self.faults.lose_message() {
            self.stats.dropped += 1;
            return false;
        }
        true
    }

    /// True when an open partition window separates `a` and `b` right
    /// now. Always false under the inert plan.
    pub fn partitioned(&self, a: Id, b: Id) -> bool {
        self.faults.partitioned(self.clock, a, b)
    }

    /// Delivers one protocol message from `from` to `to`, retrying up to
    /// `max_attempts` times on loss (each resend bills `retries` plus
    /// the message kind again — the bytes really cross the wire twice).
    /// A partition fails immediately: retrying inside one tick cannot
    /// outwait a multi-tick cut.
    pub(crate) fn deliver(
        &mut self,
        kind: MessageKind,
        from: Id,
        to: Id,
    ) -> Result<(), NetworkError> {
        self.stats.record(kind);
        if !self.faults.is_active() {
            return Ok(());
        }
        if self.faults.partitioned(self.clock, from, to) {
            self.stats.dropped += 1;
            self.stats.timeouts += 1;
            return Err(NetworkError::TimedOut { attempts: 1 });
        }
        let max = self.faults.plan().max_attempts.max(1);
        let mut attempt = 1;
        while self.faults.lose_message() {
            self.stats.dropped += 1;
            if attempt >= max {
                self.stats.timeouts += 1;
                return Err(NetworkError::TimedOut { attempts: attempt });
            }
            attempt += 1;
            self.stats.retries += 1;
            self.stats.record(kind);
        }
        Ok(())
    }

    /// Creates a network of `n` nodes with uniformly random IDs and a
    /// fully stabilized ring (correct successor/predecessor lists and
    /// finger tables). This models the paper's assumption that "the
    /// network starts our experiments stable".
    pub fn bootstrap<R: rand::Rng + ?Sized>(cfg: NetConfig, n: usize, rng: &mut R) -> Network {
        let mut net = Network::new(cfg);
        net.nodes = IdTable::from_ids(&Id::distinct_random(n, rng), Node::solo);
        net.rewire_ground_truth();
        net
    }

    /// Creates a fully stabilized network from explicit ids (used for
    /// evenly-spaced rings and deterministic tests). Duplicate ids error.
    pub fn from_ids(cfg: NetConfig, ids: &[Id]) -> Result<Network, NetworkError> {
        let mut net = Network::new(cfg);
        net.nodes = IdTable::from_ids(ids, Node::solo);
        if net.nodes.len() < ids.len() {
            // Name the first id that repeats an earlier one.
            let mut seen = IdTable::default();
            if let Some(&id) = ids.iter().find(|&&id| seen.insert(id, ()).is_some()) {
                return Err(NetworkError::DuplicateId(id));
            }
        }
        net.rewire_ground_truth();
        Ok(net)
    }

    /// The configuration this network runs with.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All live node ids in ring (ascending) order.
    pub fn node_ids(&self) -> Vec<Id> {
        self.nodes.keys().copied().collect()
    }

    /// Immutable access to one node's state.
    pub fn node(&self, id: Id) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Mutable access (tests and strategies that tweak state directly).
    pub fn node_mut(&mut self, id: Id) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// Ground-truth owner of `key`: the first live node clockwise from
    /// the key (an ordered search of the node table, *not* a protocol
    /// message).
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        self.nodes.owner(&key)
    }

    /// Ground-truth successor of an id, excluding the id itself unless
    /// it is the only node.
    pub(crate) fn truth_successor(&self, id: Id) -> Option<Id> {
        self.nodes.successor(&id)
    }

    /// Ground-truth predecessor of an id, excluding the id itself unless
    /// it is the only node.
    pub(crate) fn truth_predecessor(&self, id: Id) -> Option<Id> {
        self.nodes.predecessor(&id)
    }

    /// Stores a key on its ground-truth owner. Returns the owner.
    ///
    /// # Panics
    /// Panics if the network is empty.
    pub fn insert_key(&mut self, key: Id) -> Id {
        let at = self.store_key(key);
        self.nodes.id_at(at)
    }

    /// [`Network::insert_key`], returning the owner's position in the
    /// node table: one search.
    ///
    /// # Panics
    /// Panics if the network is empty.
    pub(crate) fn store_key(&mut self, key: Id) -> usize {
        let owner = self.nodes.owner_position(&key);
        // autobal-lint: allow(panic-safety, "documented panic: inserting into an empty network is a caller bug")
        let at = owner.expect("insert_key on empty network");
        self.nodes.at_mut(at).keys.insert(key);
        at
    }

    /// Total number of primary-copy keys across all nodes.
    pub fn total_keys(&self) -> usize {
        self.nodes.values().map(|n| n.keys.len()).sum()
    }

    /// Workload (key count) per node, in ring order.
    pub fn loads(&self) -> Vec<u64> {
        self.nodes.values().map(|n| n.keys.len() as u64).collect()
    }

    /// Iterative Chord lookup from node `from` for `key`, using only
    /// node-local routing state. Dead references encountered en route are
    /// lazily repaired (timeout → forget), exactly like a real deployment.
    pub fn lookup(&mut self, from: Id, key: Id) -> Result<LookupResult, NetworkError> {
        let mut path = Vec::new();
        let owner = self.route(from, key, Some(&mut path))?;
        Ok(LookupResult {
            owner,
            hops: (path.len() - 1) as u32,
            path,
        })
    }

    /// The routing loop behind [`Network::lookup`]: returns the owner
    /// of `key` and, when `path` is given, appends the nodes visited
    /// (starting node first). Callers that read only the owner pass
    /// `None` and pay for no path; the bill and every repair are the
    /// same either way.
    pub(crate) fn route(
        &mut self,
        from: Id,
        key: Id,
        path: Option<&mut Vec<Id>>,
    ) -> Result<Id, NetworkError> {
        let Some(at) = self.nodes.position(&from) else {
            return Err(NetworkError::UnknownNode(from));
        };
        self.route_at(at, key, path)
    }

    /// [`Network::route`] from the node at position `at` of the node
    /// table.
    pub(crate) fn route_at(
        &mut self,
        mut at: usize,
        key: Id,
        mut path: Option<&mut Vec<Id>>,
    ) -> Result<Id, NetworkError> {
        let mut cur = self.nodes.id_at(at);
        let mut hops = 0u32;
        if let Some(p) = path.as_deref_mut() {
            p.push(cur);
        }
        // Membership is fixed while a lookup routes, so `at`, the
        // position of `cur` in the node table, stays valid throughout.
        loop {
            if hops > MAX_LOOKUP_HOPS {
                return Err(NetworkError::LookupFailed { hops });
            }
            let node = self.nodes.at(at);
            // Does the current node already own the key?
            if node.owns(key)
                && self
                    .nodes
                    .position_near(&node.predecessor(), self.nodes.back(at, 1))
                    .is_some()
            {
                return Ok(cur);
            }
            let succ = node.successor();
            // Key between cur and its live successor → successor owns it.
            let (next, next_at, found) = match self.nodes.position_near(&succ, at + 1) {
                Some(s) if ring::in_arc(cur, succ, key) => (succ, s, true),
                _ => {
                    // Otherwise route through the closest preceding live entry.
                    let mut candidate = node.closest_preceding(key);
                    // Skip dead candidates, forgetting them as we go.
                    let preceding = loop {
                        let Some(c) = candidate else { break None };
                        if let Some(p) = self.nodes.position(&c) {
                            break Some((c, p));
                        }
                        self.stats.record(MessageKind::Ping);
                        let n = self.nodes.at_mut(at);
                        n.forget(c);
                        candidate = n.closest_preceding(key);
                    };
                    match preceding {
                        Some((n, p)) if n != cur => (n, p, false),
                        // No better candidate: fall to the live successor.
                        _ => match self.first_live_successor_at(at) {
                            Some((s, p)) if s != cur => (s, p, false),
                            // Alone in the ring (or fully partitioned):
                            // current node is the owner by default.
                            _ => return Ok(cur),
                        },
                    }
                }
            };
            self.deliver(MessageKind::FindSuccessorHop, cur, next)?;
            hops += 1;
            if let Some(p) = path.as_deref_mut() {
                p.push(next);
            }
            if found {
                return Ok(next);
            }
            (cur, at) = (next, next_at);
        }
    }

    /// First entry of the successor list of the node at position `at`
    /// that is still alive, with its position, pruning dead ones (each
    /// probe counts as a ping). A node that lists itself gets itself.
    pub(crate) fn first_live_successor_at(&mut self, at: usize) -> Option<(Id, usize)> {
        let id = self.nodes.id_at(at);
        loop {
            let cand = self.nodes.at(at).successors.first().copied()?;
            if cand == id {
                return Some((id, at));
            }
            // Dead entries are gone from the table too, so the first
            // live one sits right after the node in a consistent ring.
            if let Some(p) = self.nodes.position_near(&cand, at + 1) {
                return Some((cand, p));
            }
            self.stats.record(MessageKind::Ping);
            let n = self.nodes.at_mut(at);
            n.forget(cand);
            if n.successors.is_empty() {
                return None;
            }
        }
    }

    /// A new node joins through `contact`. Performs the Chord join
    /// protocol: lookup of the new id, key handoff from the successor,
    /// and immediate linking of the neighbor pointers (the paper cites
    /// \[21\] for nodes joining "extremely quickly"; subsequent maintenance
    /// cycles rebuild fingers and lists incrementally).
    pub fn join(&mut self, new_id: Id, contact: Id) -> Result<(), NetworkError> {
        if self.nodes.contains_key(&new_id) {
            return Err(NetworkError::DuplicateId(new_id));
        }
        if self.nodes.is_empty() {
            self.nodes.insert(new_id, Node::solo(new_id));
            return Ok(());
        }
        if !self.nodes.contains_key(&contact) {
            return Err(NetworkError::UnknownNode(contact));
        }

        let succ_id = self.route(contact, new_id, None)?;
        let Some(pred_id) = self
            .nodes
            .get(&succ_id)
            .map(|s| s.predecessor())
            .filter(|p| self.nodes.contains_key(p))
            .or_else(|| self.truth_predecessor(succ_id))
        else {
            return Err(NetworkError::UnknownNode(succ_id));
        };

        // Take over keys in (pred, new_id] from the successor, values
        // included.
        let Some(succ) = self.nodes.get_mut(&succ_id) else {
            return Err(NetworkError::UnknownNode(succ_id));
        };
        let stays = |k: &Id| ring::in_arc(new_id, succ_id, *k);
        let moved: KeySet = succ.keys.iter().copied().filter(|k| !stays(k)).collect();
        succ.keys.retain(stays);
        let mut moved_values = std::collections::BTreeMap::new();
        for k in &moved {
            if let Some(v) = succ.store.remove(k) {
                moved_values.insert(*k, v);
            }
        }
        self.stats
            .record_n(MessageKind::KeyTransfer, moved.len().max(1) as u64);

        // Build the new node.
        let mut node = Node::solo(new_id);
        node.successors = {
            let mut list = vec![succ_id];
            if let Some(succ) = self.nodes.get(&succ_id) {
                list.extend(succ.successors.iter().copied().filter(|&s| s != new_id));
            }
            list.truncate(self.cfg.successor_list_len);
            list
        };
        node.predecessors = {
            let mut list = vec![pred_id];
            if let Some(pred) = self.nodes.get(&pred_id) {
                list.extend(pred.predecessors.iter().copied().filter(|&p| p != new_id));
            }
            list.truncate(self.cfg.predecessor_list_len);
            list
        };
        node.keys = moved;
        node.store = moved_values;
        self.nodes.insert(new_id, node);

        // Link the neighbors to us.
        let slen = self.cfg.successor_list_len;
        let plen = self.cfg.predecessor_list_len;
        if let Some(p) = self.nodes.get_mut(&pred_id) {
            p.successors.retain(|&s| s != new_id);
            p.successors.insert(0, new_id);
            p.successors.truncate(slen);
        }
        if let Some(s) = self.nodes.get_mut(&succ_id) {
            s.predecessors.retain(|&q| q != new_id);
            s.predecessors.insert(0, new_id);
            s.predecessors.truncate(plen);
        }
        self.stats.record(MessageKind::Notify);
        Ok(())
    }

    /// [`Network::join`] with bounded-attempt semantics: under an active
    /// fault plan the join's lookup can time out; this retries the whole
    /// join up to the plan's `max_attempts` (billing each extra round
    /// as a retry) before giving up. Non-transient errors (duplicate id,
    /// dead contact) are returned immediately.
    pub fn join_with_retry(&mut self, new_id: Id, contact: Id) -> Result<(), NetworkError> {
        let max = self.faults.plan().max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match self.join(new_id, contact) {
                Err(NetworkError::TimedOut { .. }) if attempt < max => {
                    attempt += 1;
                    self.stats.retries += 1;
                }
                other => return other,
            }
        }
    }

    /// Graceful departure: keys are handed to the successor, neighbors
    /// are relinked, and the node is removed.
    pub fn leave(&mut self, id: Id) -> Result<(), NetworkError> {
        if !self.nodes.contains_key(&id) {
            return Err(NetworkError::UnknownNode(id));
        }
        if self.nodes.len() == 1 {
            self.nodes.remove(&id);
            self.departed.push(id);
            return Ok(());
        }
        let (Some(succ_id), Some(pred_id)) = (self.truth_successor(id), self.truth_predecessor(id))
        else {
            return Err(NetworkError::UnknownNode(id));
        };

        let Some(node) = self.nodes.remove(&id) else {
            return Err(NetworkError::UnknownNode(id));
        };
        self.departed.push(id);
        let keys = node.keys;
        let store = node.store;
        self.stats
            .record_n(MessageKind::KeyTransfer, keys.len().max(1) as u64);
        let Some(succ) = self.nodes.get_mut(&succ_id) else {
            return Err(NetworkError::UnknownNode(succ_id));
        };
        succ.keys.extend(keys.iter().copied());
        succ.store.extend(store);
        succ.forget(id);
        succ.predecessors.retain(|&p| p != pred_id);
        succ.predecessors.insert(0, pred_id);
        succ.predecessors.truncate(self.cfg.predecessor_list_len);

        let slen = self.cfg.successor_list_len;
        let Some(pred) = self.nodes.get_mut(&pred_id) else {
            return Err(NetworkError::UnknownNode(pred_id));
        };
        pred.forget(id);
        pred.successors.retain(|&s| s != succ_id);
        pred.successors.insert(0, succ_id);
        pred.successors.truncate(slen);
        self.stats.record(MessageKind::Notify);
        Ok(())
    }

    /// Abrupt failure: the node vanishes without handing anything off.
    /// Replicated keys stay recoverable (the next maintenance cycles
    /// promote them); keys with no live replica are gone for good, and
    /// the report says so explicitly — they are also billed to
    /// [`MessageStats::keys_lost`] rather than silently vanishing.
    pub fn fail(&mut self, id: Id) -> Result<FailReport, NetworkError> {
        let node = self
            .nodes
            .remove(&id)
            .ok_or(NetworkError::UnknownNode(id))?;
        self.departed.push(id);
        let held: Vec<&KeySet> = self
            .nodes
            .values()
            .filter_map(|n| n.replicas.get(&id).map(|rep| &rep.keys))
            .collect();
        let keys_lost = node
            .keys
            .iter()
            .filter(|k| !held.iter().any(|keys| keys.contains(k)))
            .count() as u64;
        self.stats.keys_lost += keys_lost;
        Ok(FailReport {
            keys_lost,
            keys_recoverable: node.keys.len() as u64 - keys_lost,
        })
    }

    /// Wires every node's successor list, predecessor list and finger
    /// table from ground truth: the "perfectly stabilized" state a new
    /// network starts in. Runs only while the network is being built,
    /// before any node holds a replica.
    fn rewire_ground_truth(&mut self) {
        debug_assert!(
            self.nodes.values().all(|n| n.replicas.is_empty()),
            "ground-truth wiring runs before any replica exists"
        );
        let cfg = self.cfg;
        let (slen, plen) = (cfg.successor_list_len, cfg.predecessor_list_len);
        self.nodes.wire(slen, plen, |node, succ, pred, fingers| {
            node.successors.clear();
            node.successors.extend_from_slice(succ);
            node.predecessors.clear();
            node.predecessors.extend_from_slice(pred);
            node.fingers.clone_from(fingers);
        });
    }

    /// Checks that every node's immediate successor and predecessor agree
    /// with ground truth and every key sits on its rightful owner.
    pub fn is_consistent(&self) -> bool {
        for (&id, node) in &self.nodes {
            if node.successor() != self.truth_successor(id).unwrap_or(id) {
                return false;
            }
            if node.predecessor() != self.truth_predecessor(id).unwrap_or(id) {
                return false;
            }
            for &k in &node.keys {
                if self.owner_of(k) != Some(id) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_id::sha1::sha1_id_of_u64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn bootstrap_is_consistent() {
        let net = Network::bootstrap(NetConfig::default(), 50, &mut rng(1));
        assert_eq!(net.len(), 50);
        assert!(net.is_consistent());
    }

    #[test]
    fn bootstrap_single_node() {
        let net = Network::bootstrap(NetConfig::default(), 1, &mut rng(2));
        let id = net.node_ids()[0];
        let n = net.node(id).unwrap();
        assert_eq!(n.successor(), id);
        assert_eq!(n.predecessor(), id);
        assert!(net.is_consistent());
    }

    #[test]
    fn from_ids_rejects_duplicates() {
        let a = Id::from(5u64);
        assert!(matches!(
            Network::from_ids(NetConfig::default(), &[a, a]),
            Err(NetworkError::DuplicateId(_))
        ));
    }

    #[test]
    fn owner_of_wraps_around() {
        let ids = [Id::from(100u64), Id::from(200u64)];
        let net = Network::from_ids(NetConfig::default(), &ids).unwrap();
        assert_eq!(net.owner_of(Id::from(150u64)), Some(Id::from(200u64)));
        assert_eq!(net.owner_of(Id::from(250u64)), Some(Id::from(100u64)));
        assert_eq!(net.owner_of(Id::from(100u64)), Some(Id::from(100u64)));
        assert_eq!(net.owner_of(Id::from(50u64)), Some(Id::from(100u64)));
    }

    #[test]
    fn insert_key_lands_on_owner() {
        let mut net = Network::bootstrap(NetConfig::default(), 20, &mut rng(3));
        for k in 0..200u64 {
            let key = sha1_id_of_u64(k);
            let owner = net.insert_key(key);
            assert_eq!(net.owner_of(key), Some(owner));
            assert!(net.node(owner).unwrap().keys.contains(&key));
        }
        assert_eq!(net.total_keys(), 200);
        assert!(net.is_consistent());
    }

    #[test]
    fn lookup_finds_owner_from_every_node() {
        let mut net = Network::bootstrap(NetConfig::default(), 64, &mut rng(4));
        let key = sha1_id_of_u64(999);
        let truth = net.owner_of(key).unwrap();
        for from in net.node_ids() {
            let res = net.lookup(from, key).unwrap();
            assert_eq!(res.owner, truth, "from {from}");
            assert_eq!(res.path.first(), Some(&from));
            assert_eq!(res.path.last(), Some(&res.owner));
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let mut net = Network::bootstrap(NetConfig::default(), 256, &mut rng(5));
        let ids = net.node_ids();
        let mut total_hops = 0u64;
        let mut lookups = 0u64;
        for k in 0..200u64 {
            let key = sha1_id_of_u64(k);
            let from = ids[(k as usize * 37) % ids.len()];
            let res = net.lookup(from, key).unwrap();
            total_hops += res.hops as u64;
            lookups += 1;
        }
        let avg = total_hops as f64 / lookups as f64;
        // Expected ≈ ½ log2 256 = 4; allow generous slack.
        assert!(avg < 8.0, "average hops {avg}");
        assert!(avg > 1.0, "suspiciously fast: {avg}");
    }

    #[test]
    fn lookup_from_unknown_node_errors() {
        let mut net = Network::bootstrap(NetConfig::default(), 4, &mut rng(6));
        let bogus = Id::from(1u64);
        assert!(!net.nodes.contains_key(&bogus));
        assert_eq!(
            net.lookup(bogus, Id::from(2u64)),
            Err(NetworkError::UnknownNode(bogus))
        );
    }

    #[test]
    fn join_takes_over_key_range() {
        let ids = [Id::from(1000u64), Id::from(2000u64)];
        let mut net = Network::from_ids(NetConfig::default(), &ids).unwrap();
        // Keys 1500 and 1800 belong to 2000.
        net.insert_key(Id::from(1500u64));
        net.insert_key(Id::from(1800u64));
        // A node at 1600 takes over (1000, 1600]: key 1500.
        net.join(Id::from(1600u64), ids[0]).unwrap();
        let newcomer = net.node(Id::from(1600u64)).unwrap();
        assert!(newcomer.keys.contains(&Id::from(1500u64)));
        assert!(!newcomer.keys.contains(&Id::from(1800u64)));
        let old = net.node(Id::from(2000u64)).unwrap();
        assert!(old.keys.contains(&Id::from(1800u64)));
        assert!(net.is_consistent());
    }

    #[test]
    fn join_into_empty_network() {
        let mut net = Network::new(NetConfig::default());
        net.join(Id::from(42u64), Id::from(42u64)).unwrap();
        assert_eq!(net.len(), 1);
        assert!(net.is_consistent());
    }

    #[test]
    fn join_duplicate_errors() {
        let mut net = Network::bootstrap(NetConfig::default(), 3, &mut rng(7));
        let existing = net.node_ids()[0];
        assert_eq!(
            net.join(existing, existing),
            Err(NetworkError::DuplicateId(existing))
        );
    }

    #[test]
    fn many_joins_preserve_consistency_and_keys() {
        let mut net = Network::bootstrap(NetConfig::default(), 8, &mut rng(8));
        for k in 0..300u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        let contact = net.node_ids()[0];
        let mut r = rng(9);
        for _ in 0..32 {
            let id = Id::random(&mut r);
            net.join(id, contact).unwrap();
        }
        assert_eq!(net.len(), 40);
        assert_eq!(net.total_keys(), 300);
        assert!(net.is_consistent());
    }

    #[test]
    fn graceful_leave_hands_keys_to_successor() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(10));
        for k in 0..100u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        let victim = net.node_ids()[3];
        let succ = net.truth_successor(victim).unwrap();
        let expected = net.node(victim).unwrap().keys.len() + net.node(succ).unwrap().keys.len();
        net.leave(victim).unwrap();
        assert_eq!(net.node(succ).unwrap().keys.len(), expected);
        assert_eq!(net.total_keys(), 100);
        assert!(net.is_consistent());
    }

    #[test]
    fn leave_last_node_empties_network() {
        let mut net = Network::bootstrap(NetConfig::default(), 1, &mut rng(11));
        let id = net.node_ids()[0];
        net.leave(id).unwrap();
        assert!(net.is_empty());
        assert_eq!(net.leave(id), Err(NetworkError::UnknownNode(id)));
    }

    #[test]
    fn fail_drops_primary_keys() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(12));
        for k in 0..100u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        let victim = net.node_ids()[0];
        let lost = net.node(victim).unwrap().keys.len();
        net.fail(victim).unwrap();
        assert_eq!(net.total_keys(), 100 - lost);
    }

    #[test]
    fn lookup_survives_stale_fingers() {
        let mut net = Network::bootstrap(NetConfig::default(), 64, &mut rng(13));
        // Kill a quarter of the nodes without any repair.
        let ids = net.node_ids();
        for id in ids.iter().step_by(4) {
            net.fail(*id).unwrap();
        }
        let live = net.node_ids();
        let key = sha1_id_of_u64(5);
        let truth = net.owner_of(key).unwrap();
        let res = net.lookup(live[0], key).unwrap();
        assert_eq!(res.owner, truth);
    }

    #[test]
    fn single_node_lookup_is_trivial() {
        let mut net = Network::bootstrap(NetConfig::default(), 1, &mut rng(14));
        let id = net.node_ids()[0];
        let res = net.lookup(id, Id::from(123u64)).unwrap();
        assert_eq!(res.owner, id);
        assert_eq!(res.hops, 0);
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let id = Id::from(7u64);
        assert_eq!(
            NetworkError::EmptyNetwork.to_string(),
            "network has no live nodes"
        );
        assert!(NetworkError::DuplicateId(id)
            .to_string()
            .contains("duplicate"));
        assert!(NetworkError::UnknownNode(id)
            .to_string()
            .contains("unknown"));
        assert!(NetworkError::LookupFailed { hops: 9 }
            .to_string()
            .contains('9'));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&NetworkError::EmptyNetwork);
    }

    #[test]
    fn config_default_values() {
        let c = NetConfig::default();
        assert_eq!(c.successor_list_len, 5);
        assert_eq!(c.predecessor_list_len, 5);
        assert_eq!(c.replication_factor, 5);
    }

    #[test]
    fn join_through_dead_contact_errors() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0dead);
        let mut net = Network::bootstrap(NetConfig::default(), 4, &mut rng);
        let ghost = Id::from(1u64);
        assert!(!net.contains(ghost));
        let newcomer = Id::from(2u64);
        assert_eq!(
            net.join(newcomer, ghost),
            Err(NetworkError::UnknownNode(ghost))
        );
    }

    #[test]
    fn owner_of_on_empty_network_is_none() {
        let net = Network::new(NetConfig::default());
        assert_eq!(net.owner_of(Id::from(5u64)), None);
        assert!(net.is_empty());
        assert!(net.is_consistent(), "vacuously consistent");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultPlan, Partition};
    use autobal_id::sha1::sha1_id_of_u64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn default_plan_changes_nothing() {
        // Identical seeds, one network with the (inert) plan explicitly
        // armed: every counter and every lookup must match bit-for-bit.
        let mut a = Network::bootstrap(NetConfig::default(), 32, &mut rng(50));
        let mut b = Network::bootstrap(NetConfig::default(), 32, &mut rng(50));
        b.set_fault_plan(FaultPlan::default());
        for k in 0..100u64 {
            a.insert_key(sha1_id_of_u64(k));
            b.insert_key(sha1_id_of_u64(k));
        }
        for _ in 0..3 {
            a.maintenance_cycle();
            b.maintenance_cycle();
        }
        let from_a = a.node_ids()[0];
        let from_b = b.node_ids()[0];
        for k in 0..50u64 {
            let key = sha1_id_of_u64(k);
            assert_eq!(a.lookup(from_a, key), b.lookup(from_b, key));
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.dropped, 0);
        assert_eq!(a.stats.retries, 0);
    }

    #[test]
    fn lossy_lookups_retry_and_mostly_succeed() {
        let mut net = Network::bootstrap(NetConfig::default(), 64, &mut rng(51));
        net.set_fault_plan(FaultPlan::lossy(9, 0.10));
        let from = net.node_ids()[0];
        let mut ok = 0;
        let mut timed_out = 0;
        for k in 0..200u64 {
            match net.lookup(from, sha1_id_of_u64(k)) {
                Ok(_) => ok += 1,
                Err(NetworkError::TimedOut { .. }) => timed_out += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // Per-hop drop probability after 3 attempts is 0.1^3 = 0.1%;
        // nearly everything resolves, and the plumbing bills its work.
        assert!(ok >= 190, "ok {ok}/200 at 10% loss with retries");
        assert_eq!(ok + timed_out, 200);
        assert!(net.stats.retries > 0, "losses triggered retries");
        assert!(net.stats.dropped > 0);
        assert_eq!(net.stats.timeouts, timed_out as u64);
    }

    #[test]
    fn partition_blocks_cross_cut_lookups_then_heals() {
        let mut net = Network::bootstrap(NetConfig::default(), 32, &mut rng(52));
        net.set_fault_plan(FaultPlan {
            partitions: vec![Partition { start: 5, end: 10 }],
            seed: 4,
            ..FaultPlan::default()
        });
        let ids = net.node_ids();
        // Find a pair on opposite sides of the cut.
        let (a, b) = ids
            .iter()
            .flat_map(|&x| ids.iter().map(move |&y| (x, y)))
            .find(|&(x, y)| net.faults.partitioned(5, x, y))
            .expect("some pair straddles the pivot");
        net.set_clock(5);
        assert!(net.partitioned(a, b));
        // A lookup from a for b's own id must cross the cut eventually.
        let r = net.lookup(a, b);
        assert!(
            matches!(r, Err(NetworkError::TimedOut { .. })),
            "cross-cut lookup fails during the window, got {r:?}"
        );
        net.set_clock(10);
        assert!(!net.partitioned(a, b));
        assert_eq!(net.lookup(a, b).unwrap().owner, b, "heals after window");
    }

    #[test]
    fn fail_report_separates_lost_from_recoverable() {
        let mut net = Network::bootstrap(NetConfig::default(), 16, &mut rng(53));
        for k in 0..120u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        // No maintenance yet: no replicas, everything on the victim is lost.
        let victim = net.node_ids()[2];
        let held = net.node(victim).unwrap().keys.len() as u64;
        let rep = net.fail(victim).unwrap();
        assert_eq!(rep.keys_lost, held);
        assert_eq!(rep.keys_recoverable, 0);
        assert_eq!(net.stats.keys_lost, held);

        // With replicas seeded, a crash loses nothing.
        net.maintenance_cycle();
        let victim2 = net.node_ids()[3];
        let held2 = net.node(victim2).unwrap().keys.len() as u64;
        let rep2 = net.fail(victim2).unwrap();
        assert_eq!(rep2.keys_lost, 0, "replicated keys are recoverable");
        assert_eq!(rep2.keys_recoverable, held2);
        assert_eq!(net.stats.keys_lost, held, "unchanged by covered crash");
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        assert_eq!(net.total_keys() as u64, 120 - held);
    }

    #[test]
    fn join_with_retry_survives_a_lossy_ring() {
        let mut net = Network::bootstrap(NetConfig::default(), 24, &mut rng(55));
        net.set_fault_plan(FaultPlan::lossy(11, 0.15));
        let contact = net.node_ids()[0];
        let mut r = rng(56);
        let mut joined = 0;
        for _ in 0..20 {
            if net.join_with_retry(Id::random(&mut r), contact).is_ok() {
                joined += 1;
            }
        }
        assert!(joined >= 18, "joins with retry at 15% loss: {joined}/20");
    }

    #[test]
    fn maintenance_converges_under_loss_once_faults_subside() {
        let mut net = Network::bootstrap(NetConfig::default(), 40, &mut rng(57));
        for k in 0..200u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        net.set_fault_plan(FaultPlan::lossy(13, 0.30));
        // Heavy loss plus a few crashes while maintenance keeps running.
        let mut r = rng(58);
        use rand::Rng;
        for _ in 0..6 {
            let ids = net.node_ids();
            let victim = ids[r.gen_range(0..ids.len())];
            net.fail(victim).unwrap();
            net.maintenance_cycle();
        }
        // Faults subside; the ring must converge and keep what the fault
        // plane did not explicitly bill as lost.
        net.set_fault_plan(FaultPlan::default());
        for _ in 0..20 {
            net.maintenance_cycle();
            if net.is_consistent() {
                break;
            }
        }
        assert!(net.is_consistent(), "ring reconverges after faults");
        assert_eq!(
            net.total_keys() as u64 + net.stats.keys_lost,
            200,
            "every key is either alive or explicitly billed lost"
        );
    }
}

#[cfg(test)]
mod route_tests {
    use super::*;
    use crate::fault::FaultPlan;
    use autobal_id::sha1::sha1_id_of_u64;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Every node's successors, predecessors and fingers, in ring order.
    type RoutingState = Vec<(Id, Vec<Id>, Vec<Id>, Vec<Option<Id>>)>;

    fn routing_state(net: &Network) -> RoutingState {
        net.nodes
            .values()
            .map(|n| {
                (
                    n.id,
                    n.successors.clone(),
                    n.predecessors.clone(),
                    n.fingers.iter().collect(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `route` without a path is `lookup` without the path: the same
        /// owner or error, the same hops, the same bill and the same lazy
        /// repairs, op after op, on a ring whose failed nodes no
        /// maintenance has pruned yet, under an inert and a lossy plan.
        #[test]
        fn route_without_path_matches_lookup(
            seed in any::<u64>(),
            n in 8usize..48,
            kills in 1usize..16,
            ops in proptest::collection::vec((any::<u16>(), any::<u64>()), 1..60),
        ) {
            for plan in [FaultPlan::default(), FaultPlan::lossy(seed, 0.2)] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut net = Network::bootstrap(NetConfig::default(), n, &mut rng);
                let ids = net.node_ids();
                for _ in 0..kills.min(n - 1) {
                    let live = net.node_ids();
                    net.fail(live[rng.gen_range(0..live.len())]).unwrap();
                }
                net.set_fault_plan(plan);
                let (mut a, mut b) = (net.clone(), net);
                for &(from, key) in &ops {
                    // Origins include failed nodes, so `UnknownNode` is covered.
                    let from = ids[usize::from(from) % ids.len()];
                    let key = sha1_id_of_u64(key);
                    let before = a.stats.clone();
                    let routed = a.route(from, key, None);
                    let looked = b.lookup(from, key);
                    prop_assert_eq!(routed, looked.as_ref().map(|r| r.owner).map_err(|e| *e));
                    prop_assert_eq!(&a.stats, &b.stats);
                    if let Ok(r) = &looked {
                        prop_assert_eq!(r.path.first(), Some(&from));
                        prop_assert_eq!(r.path.last(), Some(&r.owner));
                        // Each hop is billed once, plus once per resend.
                        prop_assert_eq!(
                            a.stats.find_successor_hops - before.find_successor_hops,
                            u64::from(r.hops) + a.stats.retries - before.retries
                        );
                    }
                    prop_assert_eq!(routing_state(&a), routing_state(&b));
                }
            }
        }
    }
}
