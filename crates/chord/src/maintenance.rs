//! Ring maintenance: stabilization, list repair, finger fixing, and
//! active replication.
//!
//! One [`Network::maintenance_cycle`] is what the paper assumes fits in a
//! tick: "a tick is enough time to accomplish at least one maintenance
//! cycle". The cycle follows the Chord paper's stabilize/notify/
//! fix-fingers trio, extended with the ChordReduce *active backup*
//! behavior (each node aggressively re-pushes its keys to its successor
//! list every cycle, and replica holders promote a dead owner's keys the
//! moment they become responsible for them). Promotion is driven by
//! departures: [`Network::leave`] and [`Network::fail`] record the ids
//! they remove, and only a cycle that follows one looks at the
//! holders' replicas.
//!
//! A cycle never changes membership: every sub-step rewrites neighbor
//! state, fingers, keys or replicas, and promotion's forwarded keys go
//! through `Network::store_key`, which only adds keys. So the cycle
//! walks the node table by position, and each sub-step reaches its own
//! node by that position. The other nodes it talks to are found by id,
//! but a ring neighbour is first looked for where a consistent ring puts
//! it, `i + 1 + k` for the `k`-th successor and `i - 1 - k` for the
//! `k`-th predecessor (`IdTable::position_near`), and a finger run
//! whose node is in the successor list at that successor's position;
//! only a miss, or a farther finger, costs a table search.

use crate::fingers;
use crate::messages::MessageKind;
use crate::network::Network;
use crate::node::Replica;
use autobal_id::{ring, Id};
use autobal_metrics::profile;
use std::collections::btree_map::Entry;
use std::sync::Arc;

impl Network {
    /// Runs one full maintenance cycle on every live node (in ring
    /// order): prune dead neighbors, stabilize successor/predecessor
    /// pointers, refresh the successor and predecessor lists, and fix a
    /// batch of fingers; then promote replicas of owners that departed
    /// since the last cycle; then push replicas (promotion goes first,
    /// for the reason given below).
    pub fn maintenance_cycle(&mut self) {
        let n = self.nodes.len();
        // The per-node sub-steps open their own profile spans; promotion
        // and pushes take one span per pass.
        for i in 0..n {
            self.prune_dead_neighbors(i);
            self.stabilize_one(i);
            self.refresh_lists(i);
            self.fix_fingers(i);
        }
        // Promote before pushing: keys recovered from a dead owner's
        // replica must be re-replicated in the *same* cycle, otherwise a
        // follow-up failure of the promoting node inside the window
        // would lose them (their original replicas are consumed by the
        // promotion). Pushing afterwards also guarantees pushes land on
        // current successors.
        self.promote_departed();
        let _p = profile::span("push");
        for i in 0..n {
            self.push_replicas(i);
        }
        debug_assert_eq!(
            self.nodes.len(),
            n,
            "a maintenance cycle changed membership"
        );
    }

    /// True if the node is still alive.
    pub fn contains(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Drops dead entries from the neighbor lists and fingers of the
    /// node at position `i` (each stale entry costs a ping, duplicates
    /// included). Equal neighbouring ids are probed once, and so is each
    /// run of the finger table, which is billed one ping per entry it
    /// covers. Falls back to the ground-truth successor when the entire
    /// successor list has died — standing in for the out-of-band
    /// re-bootstrap a real deployment would perform.
    fn prune_dead_neighbors(&mut self, i: usize) {
        let _p = profile::span("prune");
        let mut stale = std::mem::take(&mut self.scratch);
        let node = self.nodes.at(i);
        let nodes = &self.nodes;
        let mut last: Option<(Id, bool)> = None;
        let mut pings = 0;
        // `hint` is where `n` sits if the ring is consistent, when known.
        let mut probe = |n: Id, hint: Option<usize>, entries: usize| {
            let dead = match last {
                Some((prev, dead)) if prev == n => dead,
                _ => {
                    let found = match hint {
                        Some(h) => nodes.position_near(&n, h),
                        None => nodes.position(&n),
                    };
                    let dead = found.is_none();
                    if dead {
                        stale.push(n);
                    }
                    dead
                }
            };
            last = Some((n, dead));
            if dead {
                pings += entries as u64;
            }
        };
        for (k, &n) in node.successors.iter().enumerate() {
            probe(n, Some(i + 1 + k), 1);
        }
        for (k, &n) in node.predecessors.iter().enumerate() {
            probe(n, Some(nodes.back(i, 1 + k)), 1);
        }
        // The nearest finger runs point at successors, the first one
        // always; only the farther ones are searched for.
        for (entries, finger) in node.fingers.runs() {
            if let Some(n) = finger {
                let k = node.successors.iter().position(|&s| s == n);
                probe(n, k.map(|k| i + 1 + k), entries);
            }
        }
        if pings > 0 {
            self.stats.record_n(MessageKind::Ping, pings);
            let node = self.nodes.at_mut(i);
            for &d in &stale {
                node.forget(d);
            }
        }
        stale.clear();
        self.scratch = stale;
        let id = self.nodes.id_at(i);
        let node = self.nodes.at(i);
        let (no_successor, no_predecessor) =
            (node.successors.is_empty(), node.predecessors.is_empty());
        if no_successor {
            if let Some(s) = self.truth_successor(id) {
                self.nodes.at_mut(i).successors.push(s);
                self.stats.record(MessageKind::SuccessorListPull);
            }
        }
        if no_predecessor {
            if let Some(p) = self.truth_predecessor(id) {
                self.nodes.at_mut(i).predecessors.push(p);
            }
        }
    }

    /// Chord `stabilize` + `notify` for the node at position `i`. Under
    /// an active fault plan either probe can be lost; the sub-step is
    /// then skipped for this cycle and retried naturally on the next
    /// one — maintenance never wedges on a dropped message.
    fn stabilize_one(&mut self, i: usize) {
        let _p = profile::span("stabilize");
        let id = self.nodes.id_at(i);
        let Some((succ, si)) = self.first_live_successor_at(i) else {
            return;
        };
        if succ == id {
            self.stats.record(MessageKind::Stabilize);
        } else if self.deliver(MessageKind::Stabilize, id, succ).is_err() {
            return;
        }
        if succ != id {
            // x = successor.predecessor; adopt it if it sits between us.
            let x = self.nodes.at(si).predecessor();
            if x != id && self.nodes.contains_key(&x) && ring::in_open_arc(id, succ, x) {
                let cap = self.cfg.successor_list_len;
                let successors = &mut self.nodes.at_mut(i).successors;
                successors.retain(|&s| s != x);
                successors.insert(0, x);
                successors.truncate(cap);
            }
        }
        // notify(new successor, self)
        let succ = self.nodes.at(i).successor();
        if succ == id {
            return;
        }
        let Some(si) = self.nodes.position_near(&succ, i + 1) else {
            return;
        };
        if self.deliver(MessageKind::Notify, id, succ).is_err() {
            return;
        }
        let plen = self.cfg.predecessor_list_len;
        let s = self.nodes.at_mut(si);
        let cur_pred = s.predecessor();
        if cur_pred == succ
            || !ring::in_open_arc(id, succ, cur_pred) && ring::in_open_arc(cur_pred, succ, id)
        {
            s.predecessors.retain(|&p| p != id);
            s.predecessors.insert(0, id);
            s.predecessors.truncate(plen);
        }
    }

    /// Pulls the successor's successor list and the predecessor's
    /// predecessor list into the node at position `i`, keeping its own
    /// fresh. Each list is rebuilt in its own buffer.
    fn refresh_lists(&mut self, i: usize) {
        let _p = profile::span("lists");
        let id = self.nodes.id_at(i);
        let succ = self.nodes.at(i).successor();
        if succ != id {
            if let Some(si) = self.nodes.position_near(&succ, i + 1) {
                if self
                    .deliver(MessageKind::SuccessorListPull, id, succ)
                    .is_ok()
                {
                    let mut list = std::mem::take(&mut self.nodes.at_mut(i).successors);
                    list.clear();
                    list.push(succ);
                    list.extend(
                        self.nodes
                            .at(si)
                            .successors
                            .iter()
                            .copied()
                            .filter(|&x| x != id && x != succ),
                    );
                    list.truncate(self.cfg.successor_list_len);
                    self.nodes.at_mut(i).successors = list;
                }
            }
        }
        let pred = self.nodes.at(i).predecessor();
        if pred != id {
            if let Some(pi) = self.nodes.position_near(&pred, self.nodes.back(i, 1)) {
                if self
                    .deliver(MessageKind::SuccessorListPull, id, pred)
                    .is_ok()
                {
                    let mut list = std::mem::take(&mut self.nodes.at_mut(i).predecessors);
                    list.clear();
                    list.push(pred);
                    list.extend(
                        self.nodes
                            .at(pi)
                            .predecessors
                            .iter()
                            .copied()
                            .filter(|&x| x != id && x != pred),
                    );
                    list.truncate(self.cfg.predecessor_list_len);
                    self.nodes.at_mut(i).predecessors = list;
                }
            }
        }
    }

    /// Fixes `fingers_per_cycle` finger entries of the node at position
    /// `i` via real lookups.
    fn fix_fingers(&mut self, i: usize) {
        let _p = profile::span("fingers");
        for _ in 0..self.cfg.fingers_per_cycle {
            let (k, target) = {
                let node = self.nodes.at(i);
                let k = node.next_finger % fingers::LEN;
                (k, node.finger_target(k))
            };
            self.stats.record(MessageKind::FixFinger);
            let resolved = match self.route_at(i, target, None) {
                Ok(owner) => Some(owner),
                // A fault-plane timeout says nothing about the old
                // entry; keep it rather than tearing a working finger.
                Err(crate::network::NetworkError::TimedOut { .. }) => {
                    self.nodes.at(i).fingers.get(k)
                }
                Err(_) => None,
            };
            let node = self.nodes.at_mut(i);
            node.fingers.set(k, resolved);
            node.next_finger = (k + 1) % fingers::LEN;
        }
    }

    /// Pushes a full replica of the keys of the node at position `i` to
    /// its first `replication_factor` live successors (active backup).
    /// Every target receives a clone that shares the owner's own
    /// [`KeySet`] run ([`KeySet::share`]), so no key is copied; a target
    /// that already reads that very snapshot is not written. The values
    /// snapshot is shared too, and copied only after the owner's values
    /// change. Each push is still billed as its own message.
    ///
    /// [`KeySet`]: crate::KeySet
    fn push_replicas(&mut self, i: usize) {
        let id = self.nodes.id_at(i);
        // Lend the successor list out for the pushes; nothing below
        // reads or changes it.
        let node = self.nodes.at_mut(i);
        let targets = std::mem::take(&mut node.successors);
        let keys = node.keys.share();
        // The `k`-th successor sits at `i + 1 + k` in a consistent ring.
        let first = targets
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != id)
            .find_map(|(k, t)| self.nodes.position_near(t, i + 1 + k));
        if let Some(first) = first {
            let (first, node) = (self.nodes.at(first), self.nodes.at(i));
            let values = match first.replicas.get(&id) {
                Some(held) if *held.values == node.store => Arc::clone(&held.values),
                _ => Arc::new(node.store.clone()),
            };
            let mut pushed = 0;
            for (k, &t) in targets.iter().enumerate() {
                if pushed == self.cfg.replication_factor {
                    break;
                }
                if t == id {
                    continue;
                }
                let Some(ti) = self.nodes.position_near(&t, i + 1 + k) else {
                    continue;
                };
                pushed += 1;
                // A lost push leaves the target's previous (stale)
                // replica in place — strictly less fresh, never less
                // safe.
                if self.deliver(MessageKind::ReplicaPush, id, t).is_err() {
                    continue;
                }
                match self.nodes.at_mut(ti).replicas.entry(id) {
                    Entry::Occupied(mut held) => {
                        let held = held.get_mut();
                        if !held.keys.same_as(&keys) {
                            held.keys = keys.clone();
                        }
                        if !Arc::ptr_eq(&held.values, &values) {
                            held.values = Arc::clone(&values);
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Replica {
                            keys: keys.clone(),
                            values: Arc::clone(&values),
                        });
                    }
                }
            }
        }
        self.nodes.at_mut(i).successors = targets;
    }

    /// Promotes the replicas of the owners that departed since the last
    /// cycle and are still gone (a departed id may have rejoined), on
    /// every node in ring order. A cycle with no such owner skips the
    /// pass. Every other owner is alive: the last cycle's pass removed
    /// each entry of a dead owner, and only live owners push.
    fn promote_departed(&mut self) {
        let _p = profile::span("promote");
        let mut dead = std::mem::take(&mut self.scratch);
        dead.append(&mut self.departed);
        dead.retain(|id| !self.nodes.contains_key(id));
        dead.sort_unstable();
        dead.dedup();
        if !dead.is_empty() {
            for i in 0..self.nodes.len() {
                self.promote_replicas(i, &dead);
            }
        }
        dead.clear();
        self.scratch = dead;
        debug_assert!(
            self.nodes
                .values()
                .all(|n| n.replicas.keys().all(|o| self.nodes.contains_key(o))),
            "a live node holds a replica of a dead owner"
        );
    }

    /// Promotes keys from the replicas held by the node at position `i`
    /// of the `dead` owners (ascending, as the holder's replica map
    /// orders them) that now fall into this node's responsibility, and
    /// forwards the rest to their owners; drops those replica entries.
    fn promote_replicas(&mut self, i: usize, dead: &[Id]) {
        let id = self.nodes.id_at(i);
        let pred = self.nodes.at(i).predecessor();
        for owner in dead {
            let node = self.nodes.at_mut(i);
            let Some(Replica { keys, values }) = node.replicas.remove(owner) else {
                continue;
            };
            let mut values = Arc::unwrap_or_clone(values);
            let mine = |k: &Id| ring::in_arc(pred, id, *k);
            for k in keys.iter().filter(|k| mine(k)) {
                if let Some(v) = values.remove(k) {
                    node.store.insert(*k, v);
                }
            }
            node.keys.extend(keys.iter().copied().filter(mine));
            // A node joined inside the dead owner's old arc and now owns
            // the forwarded keys; each goes there as an ordinary routed
            // store (duplicates are idempotent since other replica
            // holders may forward the same key).
            for &k in keys.iter().filter(|k| !mine(k)) {
                let target = self.store_key(k);
                if let Some(v) = values.remove(&k) {
                    self.nodes.at_mut(target).store.insert(k, v);
                }
            }
            if !keys.is_empty() {
                self.stats
                    .record_n(MessageKind::KeyTransfer, keys.len() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::{NetConfig, Network};
    use crate::table;
    use autobal_id::sha1::sha1_id_of_u64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The network the search pins below measure (and the one the
    /// zero-allocation cycle pins use): 149 nodes holding 12 800 keys,
    /// past three warm cycles.
    fn warm_network() -> Network {
        let ids: Vec<autobal_id::Id> = (0..149u64).map(sha1_id_of_u64).collect();
        let mut net = Network::from_ids(NetConfig::default(), &ids).unwrap();
        for k in 0..12_800u64 {
            net.insert_key(sha1_id_of_u64(1_000_000 + k));
        }
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        net
    }

    /// Full table searches of one cycle on the warm network, about 4.5
    /// per node: the finger runs that point past the successor list,
    /// and the fingers routing hops through. A ring neighbour found at
    /// the position next to its node costs none; the same cycle made
    /// 6 490 searches while every neighbour was searched for. Debug
    /// builds add one search per replica entry, the promote pass's
    /// assertion that every owner is alive.
    const QUIET_CYCLE_SEARCHES: u64 = if cfg!(debug_assertions) {
        665 + 745
    } else {
        665
    };
    /// The same after one crash and one join (6 940 while every
    /// neighbour was searched for).
    const CHURNED_CYCLE_SEARCHES: u64 = if cfg!(debug_assertions) {
        969 + 735
    } else {
        969
    };

    /// The full searches of a quiet cycle and of a churned one (one
    /// crash, one join) are pinned exactly; a change that makes a
    /// sub-step search again for a neighbour it can reach by position
    /// shows up here.
    #[test]
    fn maintenance_cycle_searches_are_pinned() {
        let mut net = warm_network();
        let before = table::searches();
        net.maintenance_cycle();
        let quiet = table::searches() - before;
        let mut net = warm_network();
        let ids = net.node_ids();
        let victim = ids
            .iter()
            .copied()
            .find(|&id| net.node(id).is_some_and(|n| n.keys.len() > 50))
            .unwrap();
        net.fail(victim).unwrap();
        net.join(sha1_id_of_u64(7_000_000), net.node_ids()[0])
            .unwrap();
        let before = table::searches();
        net.maintenance_cycle();
        let churned = table::searches() - before;
        assert_eq!(
            (quiet, churned),
            (QUIET_CYCLE_SEARCHES, CHURNED_CYCLE_SEARCHES),
            "full searches of a quiet and a churned cycle"
        );
    }

    #[test]
    fn cycle_on_stable_ring_keeps_consistency() {
        let mut net = Network::bootstrap(NetConfig::default(), 40, &mut rng(1));
        for k in 0..100u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        assert!(net.is_consistent());
        assert_eq!(net.total_keys(), 100);
    }

    /// Pruning bills one ping per stale entry, duplicates included: the
    /// successor repeats through a run of fingers, and every repeat is a
    /// reference the node had to drop. Probing a run once must not shrink
    /// the bill.
    #[test]
    fn prune_bills_one_ping_per_stale_entry() {
        let ids: Vec<autobal_id::Id> = (0..24u64).map(sha1_id_of_u64).collect();
        let mut net = Network::from_ids(NetConfig::default(), &ids).unwrap();
        let id = net.node_ids()[0];
        let node = net.node(id).unwrap();
        // The successor and the third successor fail; the second lives.
        let dead = [node.successors[0], node.successors[2]];
        let refs = |net: &Network| {
            let n = net.node(id).unwrap();
            n.successors
                .iter()
                .chain(&n.predecessors)
                .copied()
                .chain(n.fingers.iter().flatten())
                .filter(|x| dead.contains(x))
                .count() as u64
        };
        let stale = refs(&net);
        let run = node.fingers.iter().filter(|&f| f == Some(dead[0])).count();
        assert!(run > 1, "the successor fills a run of fingers");
        for d in dead {
            net.fail(d).unwrap();
        }
        let pings = net.stats.ping;
        net.prune_dead_neighbors(net.nodes.position(&id).unwrap());
        assert_eq!(net.stats.ping - pings, stale, "one ping per stale entry");
        assert!(stale > run as u64, "duplicates and both victims billed");
        assert_eq!(refs(&net), 0, "no reference to a dead node remains");
    }

    #[test]
    fn replicas_are_pushed_to_successors() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(2));
        for k in 0..50u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        // Every node with keys must be replicated on its successor, as
        // the owner's own snapshot.
        for id in net.node_ids() {
            let keys = &net.node(id).unwrap().keys;
            if keys.is_empty() {
                continue;
            }
            let succ = net.node(id).unwrap().successor();
            let rep = net.node(succ).unwrap().replicas.get(&id).map(|r| &r.keys);
            assert_eq!(rep, Some(keys), "replica of {id} on {succ}");
            assert!(rep.is_some_and(|r| r.same_as(keys)), "{id} copied");
        }
    }

    #[test]
    fn failure_recovery_restores_all_keys() {
        let mut net = Network::bootstrap(NetConfig::default(), 30, &mut rng(3));
        for k in 0..300u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle(); // seed replicas
        let victims: Vec<_> = net.node_ids().into_iter().step_by(7).take(4).collect();
        for v in &victims {
            net.fail(*v).unwrap();
        }
        assert!(net.total_keys() < 300 || victims.iter().all(|v| !net.contains(*v)));
        // A couple of cycles repair pointers and promote replicas.
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        assert_eq!(net.total_keys(), 300, "all keys recovered");
        assert!(net.is_consistent());
    }

    #[test]
    fn recovery_after_adjacent_failures() {
        // Kill two neighboring nodes at once; the next live successor
        // holds replicas of both (replication_factor = 5 > 2).
        let mut net = Network::bootstrap(NetConfig::default(), 20, &mut rng(4));
        for k in 0..200u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        let ids = net.node_ids();
        net.fail(ids[5]).unwrap();
        net.fail(ids[6]).unwrap();
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        assert_eq!(net.total_keys(), 200);
        assert!(net.is_consistent());
    }

    /// Ids of the owners whose replicas some live node holds.
    fn replica_owners(net: &Network) -> std::collections::BTreeSet<autobal_id::Id> {
        net.nodes
            .values()
            .flat_map(|n| n.replicas.keys().copied())
            .collect()
    }

    /// A node that leaves and a node that crashes between two cycles
    /// both have their replicas promoted by the next one: no holder
    /// keeps an entry of either, and every key is on its owner.
    #[test]
    fn departures_between_cycles_are_promoted_next_cycle() {
        let mut net = Network::bootstrap(NetConfig::default(), 24, &mut rng(10));
        for k in 0..240u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        let ids = net.node_ids();
        let (gone, crashed) = (ids[3], ids[12]);
        assert!(
            !net.node(crashed).unwrap().keys.is_empty(),
            "the victim holds keys"
        );
        let owners = replica_owners(&net);
        assert!(owners.contains(&gone) && owners.contains(&crashed));
        net.leave(gone).unwrap();
        net.fail(crashed).unwrap();
        assert!(
            net.total_keys() < 240,
            "the crashed node's keys are only replicas now"
        );
        let moved = net.stats.key_transfer;
        net.maintenance_cycle();
        assert!(net.stats.key_transfer > moved, "promotion moved keys");
        let owners = replica_owners(&net);
        assert!(!owners.contains(&gone) && !owners.contains(&crashed));
        assert!(net.departed.is_empty() && net.scratch.is_empty());
        assert_eq!(net.total_keys(), 240, "every key is back on an owner");
        assert!(net.is_consistent());
    }

    /// A node that crashes and rejoins with its old id before the next
    /// cycle is alive at that cycle: its holders keep their entries and
    /// nothing is promoted, exactly as when no departure is recorded.
    #[test]
    fn an_owner_that_rejoins_before_the_cycle_keeps_its_holders_entries() {
        let mut net = Network::bootstrap(NetConfig::default(), 24, &mut rng(11));
        for k in 0..240u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        let ids = net.node_ids();
        let x = ids[7];
        let held = |net: &Network| -> Vec<autobal_id::Id> {
            let holders = net
                .nodes
                .iter()
                .filter(|(_, n)| n.replicas.contains_key(&x));
            holders.map(|(&h, _)| h).collect()
        };
        let holders = held(&net);
        assert_eq!(holders.len(), NetConfig::default().replication_factor);
        net.fail(x).unwrap();
        net.join(x, ids[0]).unwrap();
        assert_eq!(net.departed, vec![x]);
        let moved = net.stats.key_transfer;
        net.maintenance_cycle();
        assert_eq!(net.stats.key_transfer, moved, "nothing was promoted");
        assert_eq!(held(&net), holders, "the holders kept their entries of {x}");
        assert!(net.departed.is_empty());
    }

    #[test]
    fn join_then_cycles_rebuild_fingers() {
        let mut net = Network::bootstrap(NetConfig::default(), 16, &mut rng(5));
        let contact = net.node_ids()[0];
        let mut r = rng(6);
        for _ in 0..4 {
            net.join(autobal_id::Id::random(&mut r), contact).unwrap();
        }
        // Enough cycles to fix all 160 fingers (16 per cycle).
        for _ in 0..10 {
            net.maintenance_cycle();
        }
        assert!(net.is_consistent());
        // Fingers of newcomers resolve to live nodes.
        for id in net.node_ids() {
            let node = net.node(id).unwrap();
            for f in node.fingers.iter().flatten() {
                assert!(net.contains(f));
            }
        }
    }

    #[test]
    fn churn_storm_converges() {
        let mut net = Network::bootstrap(NetConfig::default(), 50, &mut rng(7));
        for k in 0..200u64 {
            net.insert_key(sha1_id_of_u64(k));
        }
        net.maintenance_cycle();
        let mut r = rng(8);
        use rand::Rng;
        // 10 rounds of simultaneous join+fail, maintenance between.
        for round in 0..10 {
            let ids = net.node_ids();
            let victim = ids[r.gen_range(0..ids.len())];
            net.fail(victim).unwrap();
            let contact = net.node_ids()[0];
            let newcomer = autobal_id::Id::random(&mut r);
            net.join(newcomer, contact).unwrap();
            net.maintenance_cycle();
            assert_eq!(net.len(), 50, "round {round}");
        }
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        assert_eq!(net.total_keys(), 200);
        assert!(net.is_consistent());
    }

    #[test]
    fn message_counters_move_during_maintenance() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(9));
        let before = net.stats.total();
        net.maintenance_cycle();
        let after = net.stats.total();
        assert!(after > before);
        assert!(net.stats.stabilize >= 10);
        assert!(net.stats.fix_finger >= 10);
    }
}
