//! Active-backup replicas under op soups of membership changes, key
//! inserts, puts and work-phase pops on a fault-free [`Network`].
//!
//! After every `maintenance_cycle`, each owner's first
//! `replication_factor` live successors hold exactly the owner's `keys`
//! and `store`: the keys as the owner's own snapshot (its run, read from
//! its cursor), the values as one snapshot allocation shared by all
//! targets. A crash followed by a cycle promotes the victim's keys back
//! without losing any of them. A node that crashes and rejoins with its
//! old id before the next cycle is alive at that cycle, so nothing of
//! its is promoted: the keys it held are gone.

use autobal_chord::{NetConfig, Network, NetworkError};
use autobal_id::sha1::sha1_id_of_u64;
use autobal_id::Id;
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Op {
    Join(u16),
    Leave(u8),
    Fail(u8),
    Insert(u16),
    Put(u16),
    /// The node consumes its smallest key, as the work phase does.
    Pop(u8),
    /// The node leaves (even pick) or crashes (odd pick) and rejoins
    /// with its old id before the next cycle.
    Rejoin(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..14, any::<u16>()).prop_map(|(tag, v)| match tag {
        0 | 1 => Op::Join(v),
        2 => Op::Leave(v as u8),
        3 | 4 => Op::Fail(v as u8),
        5..=7 => Op::Insert(v),
        8 | 9 => Op::Put(v),
        10 | 11 => Op::Pop(v as u8),
        _ => Op::Rejoin(v as u8),
    })
}

fn node_id(v: u16) -> Id {
    sha1_id_of_u64(u64::from(v))
}

fn key_id(v: u16) -> Id {
    sha1_id_of_u64(1_000_000 + u64::from(v))
}

/// Every primary key held anywhere in the network.
fn all_keys(net: &Network) -> BTreeSet<Id> {
    net.node_ids()
        .into_iter()
        .filter_map(|id| net.node(id))
        .flat_map(|n| n.keys.iter().copied())
        .collect()
}

/// Each owner's replica targets (the first `replication_factor` live
/// successors) hold exactly its keys and values: the keys as the
/// owner's own snapshot (its run, read from its cursor), the values
/// through one snapshot shared by all of its targets.
fn check_replicas(net: &Network) -> Result<(), TestCaseError> {
    let rf = net.config().replication_factor;
    for owner in net.node_ids() {
        let node = net.node(owner).expect("listed node is live");
        let targets: Vec<Id> = node
            .successors
            .iter()
            .copied()
            .filter(|&s| s != owner && net.node(s).is_some())
            .take(rf)
            .collect();
        let mut shared: Option<&Arc<_>> = None;
        for t in targets {
            let tgt = net.node(t).expect("target is live");
            let Some(rep) = tgt.replicas.get(&owner) else {
                prop_assert!(false, "no replica of {owner} on {t}");
                continue;
            };
            prop_assert_eq!(&rep.keys, &node.keys);
            prop_assert_eq!(&*rep.values, &node.store);
            prop_assert!(
                rep.keys.same_as(&node.keys),
                "key snapshot of {owner} copied"
            );
            match shared {
                None => shared = Some(&rep.values),
                Some(v0) => {
                    prop_assert!(
                        Arc::ptr_eq(v0, &rep.values),
                        "value snapshot of {owner} copied"
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replicas_mirror_owners_through_one_snapshot(
        seeds in proptest::collection::vec(any::<u16>(), 2..24),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let ids: BTreeSet<Id> = seeds.iter().map(|&v| node_id(v)).collect();
        let ids: Vec<Id> = ids.into_iter().collect();
        let mut net = Network::from_ids(NetConfig::default(), &ids).expect("nonempty");
        let mut expected: BTreeSet<Id> = BTreeSet::new();
        // Consumed keys, and keys lost with a crashed node that rejoined
        // before a cycle: a stale replica on a node that is no longer
        // among the owner's targets may still hold one, and promote it
        // when the owner crashes (a redone task).
        let mut popped: BTreeSet<Id> = BTreeSet::new();
        net.maintenance_cycle();
        check_replicas(&net)?;
        for op in ops {
            let live = net.node_ids();
            let pick = |i: u8| live[i as usize % live.len()];
            match op {
                Op::Join(v) => {
                    if let Err(e) = net.join(node_id(v), live[0]) {
                        prop_assert_eq!(e, NetworkError::DuplicateId(node_id(v)));
                    }
                }
                Op::Leave(i) if live.len() > 1 => {
                    net.leave(pick(i)).expect("live node leaves");
                }
                Op::Fail(i) if live.len() > 1 => {
                    // Replicas are one cycle fresh: nothing is lost.
                    let report = net.fail(pick(i)).expect("live node fails");
                    prop_assert_eq!(report.keys_lost, 0);
                }
                Op::Rejoin(i) if live.len() > 1 => {
                    let id = pick(i);
                    if i % 2 == 0 {
                        net.leave(id).expect("live node leaves");
                    } else {
                        let held: Vec<Id> = net.node(id).expect("live").keys.iter().copied().collect();
                        net.fail(id).expect("live node fails");
                        for key in held {
                            expected.remove(&key);
                            popped.insert(key);
                        }
                    }
                    let contact = net.node_ids()[0];
                    net.join(id, contact).expect("the old id is free again");
                }
                Op::Leave(_) | Op::Fail(_) | Op::Rejoin(_) => {}
                Op::Insert(v) => {
                    expected.insert(key_id(v));
                    net.insert_key(key_id(v));
                }
                Op::Put(v) => {
                    let value = Bytes::from(v.to_le_bytes().to_vec());
                    net.put(live[0], key_id(v), value).expect("fault-free put");
                    expected.insert(key_id(v));
                }
                Op::Pop(i) => {
                    let node = net.node_mut(pick(i)).expect("live node");
                    if let Some(key) = node.keys.pop_first() {
                        expected.remove(&key);
                        popped.insert(key);
                    }
                }
            }
            net.maintenance_cycle();
            check_replicas(&net)?;
            // Nothing is lost, and only a consumed key comes back.
            let keys = all_keys(&net);
            prop_assert!(expected.is_subset(&keys), "a key was lost");
            prop_assert!(keys.difference(&expected).all(|k| popped.contains(k)));
            expected = keys;
        }
    }
}

#[test]
fn fail_then_cycle_promotes_every_key_and_value() {
    let ids: Vec<Id> = (0..24u16).map(node_id).collect();
    let mut net = Network::from_ids(NetConfig::default(), &ids).expect("nonempty");
    for v in 0..300u16 {
        net.insert_key(key_id(v));
    }
    let origin = net.node_ids()[0];
    for v in 300..360u16 {
        let value = Bytes::from(v.to_le_bytes().to_vec());
        net.put(origin, key_id(v), value).expect("fault-free put");
    }
    net.maintenance_cycle();
    let keys = all_keys(&net);
    let values = net.total_values();
    // The busiest node dies: its keys exist only in replicas now.
    let victim = net
        .node_ids()
        .into_iter()
        .max_by_key(|&id| net.node(id).map_or(0, |n| n.keys.len()))
        .expect("nonempty");
    let report = net.fail(victim).expect("live node fails");
    assert_eq!(report.keys_lost, 0);
    assert!(report.keys_recoverable > 0, "the victim held keys");
    assert!(all_keys(&net).len() < keys.len());
    net.maintenance_cycle();
    assert_eq!(all_keys(&net), keys, "promotion restored every key");
    assert_eq!(net.total_keys(), keys.len(), "each key on one owner");
    assert_eq!(net.total_values(), values, "values promoted with keys");
    assert!(net.is_consistent());
    check_replicas(&net).expect("replicas mirror owners after promotion");
}
