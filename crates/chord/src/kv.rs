//! The key-value API — the DHT's original use case ("whether a DHT is
//! being used for file access or distributing a large-scale computing
//! job", §I).
//!
//! `put`/`get`/`remove` route through the normal iterative lookup (every
//! hop counted), store on the owner, and inherit the active-backup
//! replication: once a maintenance cycle has run, a stored value
//! survives the owner's failure.

use crate::messages::MessageKind;
use crate::network::{Network, NetworkError};
use autobal_id::Id;
use bytes::Bytes;

impl Network {
    /// Stores `value` under `key`, routing from `from`. Returns the
    /// owner that accepted the write.
    pub fn put(&mut self, from: Id, key: Id, value: Bytes) -> Result<Id, NetworkError> {
        let owner = self.route(from, key, None)?;
        self.stats.record(MessageKind::StoreValue);
        let node = self.node_mut(owner).expect("owner is live");
        node.keys.insert(key);
        node.store.insert(key, value);
        Ok(owner)
    }

    /// Fetches the value under `key`, routing from `from`. `Ok(None)`
    /// means the key is unknown (or holds no value).
    pub fn get(&mut self, from: Id, key: Id) -> Result<Option<Bytes>, NetworkError> {
        let owner = self.route(from, key, None)?;
        self.stats.record(MessageKind::FetchValue);
        Ok(self.node(owner).and_then(|n| n.store.get(&key)).cloned())
    }

    /// Removes the value (and key) stored under `key`. Returns the value
    /// that was removed, if any. Replicas forget it on the owner's next
    /// replica push.
    pub fn remove(&mut self, from: Id, key: Id) -> Result<Option<Bytes>, NetworkError> {
        let owner = self.route(from, key, None)?;
        self.stats.record(MessageKind::StoreValue);
        let node = self.node_mut(owner).expect("owner is live");
        node.keys.remove(&key);
        Ok(node.store.remove(&key))
    }

    /// Total number of stored values across all primaries.
    pub fn total_values(&self) -> usize {
        self.node_ids()
            .iter()
            .filter_map(|id| self.node(*id))
            .map(|n| n.store.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use autobal_id::sha1::sha1_id_of_u64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn value(i: u64) -> Bytes {
        Bytes::from(format!("block-{i}"))
    }

    #[test]
    fn put_get_roundtrip() {
        let mut net = Network::bootstrap(NetConfig::default(), 20, &mut rng(1));
        let from = net.node_ids()[0];
        for i in 0..50u64 {
            let key = sha1_id_of_u64(i);
            let owner = net.put(from, key, value(i)).unwrap();
            assert_eq!(net.owner_of(key), Some(owner));
        }
        assert_eq!(net.total_values(), 50);
        for i in 0..50u64 {
            let got = net.get(from, sha1_id_of_u64(i)).unwrap();
            assert_eq!(got, Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn get_unknown_key_is_none() {
        let mut net = Network::bootstrap(NetConfig::default(), 5, &mut rng(2));
        let from = net.node_ids()[0];
        assert_eq!(net.get(from, sha1_id_of_u64(99)).unwrap(), None);
    }

    #[test]
    fn remove_deletes_and_returns() {
        let mut net = Network::bootstrap(NetConfig::default(), 5, &mut rng(3));
        let from = net.node_ids()[0];
        let key = sha1_id_of_u64(7);
        net.put(from, key, value(7)).unwrap();
        assert_eq!(net.remove(from, key).unwrap(), Some(value(7)));
        assert_eq!(net.get(from, key).unwrap(), None);
        assert_eq!(net.remove(from, key).unwrap(), None);
        assert_eq!(net.total_values(), 0);
    }

    #[test]
    fn values_survive_owner_failure() {
        let mut net = Network::bootstrap(NetConfig::default(), 25, &mut rng(4));
        let from = net.node_ids()[0];
        for i in 0..100u64 {
            net.put(from, sha1_id_of_u64(i), value(i)).unwrap();
        }
        net.maintenance_cycle(); // replicate values

        // Kill the owner of key 5.
        let key = sha1_id_of_u64(5);
        let owner = net.owner_of(key).unwrap();
        net.fail(owner).unwrap();
        for _ in 0..3 {
            net.maintenance_cycle();
        }
        let from = net.node_ids()[0];
        assert_eq!(
            net.get(from, key).unwrap(),
            Some(value(5)),
            "value recovered"
        );
        assert_eq!(net.total_values(), 100);
    }

    #[test]
    fn values_follow_join_handoff() {
        let mut net = Network::bootstrap(NetConfig::default(), 8, &mut rng(5));
        let from = net.node_ids()[0];
        for i in 0..60u64 {
            net.put(from, sha1_id_of_u64(i), value(i)).unwrap();
        }
        // A newcomer splits some arc; its values must move with the keys.
        let mut r = rng(6);
        for _ in 0..8 {
            let contact = net.node_ids()[0];
            net.join(Id::random(&mut r), contact).unwrap();
        }
        assert_eq!(net.total_values(), 60);
        for i in 0..60u64 {
            let key = sha1_id_of_u64(i);
            let owner = net.owner_of(key).unwrap();
            assert!(
                net.node(owner).unwrap().store.contains_key(&key),
                "value {i} must live on its owner after joins"
            );
        }
    }

    #[test]
    fn values_follow_graceful_leave() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(7));
        let from = net.node_ids()[0];
        for i in 0..40u64 {
            net.put(from, sha1_id_of_u64(i), value(i)).unwrap();
        }
        let ids = net.node_ids();
        for id in ids.iter().take(5) {
            net.leave(*id).unwrap();
        }
        assert_eq!(net.total_values(), 40);
        let from = net.node_ids()[0];
        for i in 0..40u64 {
            assert_eq!(net.get(from, sha1_id_of_u64(i)).unwrap(), Some(value(i)));
        }
    }

    #[test]
    fn kv_messages_are_counted() {
        let mut net = Network::bootstrap(NetConfig::default(), 10, &mut rng(8));
        let from = net.node_ids()[0];
        net.put(from, sha1_id_of_u64(1), value(1)).unwrap();
        net.get(from, sha1_id_of_u64(1)).unwrap();
        assert_eq!(net.stats.store_value, 1);
        assert_eq!(net.stats.fetch_value, 1);
    }
}
