//! The node table both Chord substrates keep: every live node's state
//! in ascending id order, found by id.
//!
//! A maintenance cycle finds nodes by id about a hundred times per node,
//! so the table is laid out for that probe. It holds three parallel
//! columns: a `u64` key per id (its top 64 bits, which order the same
//! way the ids do), the ids, and the values. A lookup binary-searches
//! the key column with one integer compare per step and confirms the
//! hit against the id at that position. Only ids that share their top
//! 64 bits, such as the small integer ids of tests, fall back to a
//! binary search over the ids themselves.
//!
//! Iteration is slice iteration in ascending id order. Inserts and
//! removes shift all three columns; joins and leaves are rare next to
//! probes.

use autobal_id::Id;

/// Ids in ascending order, each with a value; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct IdTable<V> {
    /// The top 64 bits of each id, `(hi << 32) | (mid >> 32)`.
    keys: Vec<u64>,
    ids: Vec<Id>,
    values: Vec<V>,
}

/// The top 64 bits of an id: monotone in the id, so the key column is
/// sorted whenever the id column is.
#[inline]
fn key_of(id: &Id) -> u64 {
    let [_, mid, hi] = id.limbs();
    (hi << 32) | (mid >> 32)
}

impl<V> Default for IdTable<V> {
    fn default() -> IdTable<V> {
        IdTable {
            keys: Vec::new(),
            ids: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> IdTable<V> {
    /// A table over `ids` in any order, with one sort; duplicates
    /// collapse. `value` makes each id's value.
    pub(crate) fn from_ids(ids: &[Id], value: impl FnMut(Id) -> V) -> IdTable<V> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        IdTable {
            keys: ids.iter().map(key_of).collect(),
            values: ids.iter().copied().map(value).collect(),
            ids,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Position of `id`, if present.
    #[inline]
    fn find(&self, id: &Id) -> Option<usize> {
        let key = key_of(id);
        let i = self.keys.partition_point(|&k| k < key);
        if self.keys.get(i) != Some(&key) {
            return None;
        }
        if self.ids[i] == *id {
            return Some(i);
        }
        // Same top 64 bits, different id: the ids from `i` on are sorted
        // and every one past the equal-key run is larger than `id`.
        self.ids[i..].binary_search(id).ok().map(|j| i + j)
    }

    /// Position of the first id at or after `id` (`len` if none).
    fn lower_bound(&self, id: &Id) -> usize {
        let key = key_of(id);
        let i = self.keys.partition_point(|&k| k < key);
        match self.keys.get(i) {
            Some(&k) if k == key => i + self.ids[i..].partition_point(|x| x < id),
            _ => i,
        }
    }

    #[inline]
    pub(crate) fn contains_key(&self, id: &Id) -> bool {
        self.find(id).is_some()
    }

    #[inline]
    pub(crate) fn get(&self, id: &Id) -> Option<&V> {
        self.find(id).map(|i| &self.values[i])
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: &Id) -> Option<&mut V> {
        self.find(id).map(|i| &mut self.values[i])
    }

    /// Inserts `value` under `id`, returning the value it replaced.
    pub(crate) fn insert(&mut self, id: Id, value: V) -> Option<V> {
        let i = self.lower_bound(&id);
        if self.ids.get(i) == Some(&id) {
            return Some(std::mem::replace(&mut self.values[i], value));
        }
        self.keys.insert(i, key_of(&id));
        self.ids.insert(i, id);
        self.values.insert(i, value);
        None
    }

    /// Removes `id`, returning its value.
    pub(crate) fn remove(&mut self, id: &Id) -> Option<V> {
        let i = self.find(id)?;
        self.keys.remove(i);
        self.ids.remove(i);
        Some(self.values.remove(i))
    }

    /// The first id at or after `id`, without wrapping.
    pub(crate) fn at_or_after(&self, id: &Id) -> Option<Id> {
        self.ids.get(self.lower_bound(id)).copied()
    }

    /// The first id strictly after `id`, without wrapping.
    pub(crate) fn after(&self, id: &Id) -> Option<Id> {
        let i = self.lower_bound(id);
        let i = i + usize::from(self.ids.get(i) == Some(id));
        self.ids.get(i).copied()
    }

    /// The last id strictly before `id`, without wrapping.
    pub(crate) fn before(&self, id: &Id) -> Option<Id> {
        let i = self.lower_bound(id).checked_sub(1)?;
        self.ids.get(i).copied()
    }

    /// The ids in ascending order.
    pub(crate) fn keys(&self) -> std::slice::Iter<'_, Id> {
        self.ids.iter()
    }

    /// The values in ascending id order.
    pub(crate) fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// `(id, value)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> std::iter::Zip<std::slice::Iter<'_, Id>, std::slice::Iter<'_, V>> {
        self.ids.iter().zip(self.values.iter())
    }
}

impl<'a, V> IntoIterator for &'a IdTable<V> {
    type Item = (&'a Id, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, Id>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V> std::ops::Index<&Id> for IdTable<V> {
    type Output = V;

    /// # Panics
    /// Panics if `id` is absent, like `BTreeMap`'s index.
    fn index(&self, id: &Id) -> &V {
        match self.get(id) {
            Some(v) => v,
            None => panic!("no entry for id {id} in the table"),
        }
    }
}

/// `n` distinct uniformly random ids, in ascending order. The draws are
/// exactly those of a loop that draws until it holds `n` distinct ids:
/// `n` draws, then one more per collision.
pub(crate) fn distinct_random_ids<R: rand::Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Id> {
    let mut ids: Vec<Id> = (0..n).map(|_| Id::random(rng)).collect();
    ids.sort_unstable();
    ids.dedup();
    while ids.len() < n {
        let id = Id::random(rng);
        if let Err(i) = ids.binary_search(&id) {
            ids.insert(i, id);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A shared `hi`/`mid` pair for ids whose keys collide.
    const HI: u64 = 0x1234_5678;
    const MID: u64 = 0x9abc_def0_1357_9bdf;

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// An id from one of three pools, chosen by `pool`: random ids from
    /// a small universe (so inserts and removes hit), ids sharing `hi`
    /// and `mid` or a small integer's zero prefix (the equal-key path),
    /// and the two ends of the ring.
    fn pooled_id(pool: u8, x: u64) -> Id {
        match pool % 4 {
            0 => {
                let s = x % 24;
                Id::from_limbs(mix(s), mix(s + 100), mix(s + 200))
            }
            1 => Id::from_limbs(x % 16, MID ^ ((x >> 8) & 1), HI),
            2 => Id::from(x % 8),
            _ if x & 1 == 0 => Id::ZERO,
            _ => Id::MAX,
        }
    }

    fn value_of(id: &Id) -> u32 {
        let [lo, mid, hi] = id.limbs();
        mix(lo ^ mid.rotate_left(21) ^ hi.rotate_left(42)) as u32
    }

    /// Every read the table serves, compared with the map's answer.
    fn agree(t: &IdTable<u32>, m: &BTreeMap<Id, u32>, probe: &Id) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.len(), m.len());
        prop_assert_eq!(t.is_empty(), m.is_empty());
        prop_assert!(t.iter().eq(m.iter()));
        prop_assert!(t.keys().eq(m.keys()));
        prop_assert!(t.values().eq(m.values()));
        prop_assert!(t.keys.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(t.keys().map(key_of).eq(t.keys.iter().copied()));
        prop_assert_eq!(t.get(probe), m.get(probe));
        prop_assert_eq!(t.contains_key(probe), m.contains_key(probe));
        prop_assert_eq!(
            t.at_or_after(probe),
            m.range(*probe..).next().map(|(i, _)| *i)
        );
        let after = m
            .range((
                std::ops::Bound::Excluded(*probe),
                std::ops::Bound::Unbounded,
            ))
            .next()
            .map(|(i, _)| *i);
        prop_assert_eq!(t.after(probe), after);
        prop_assert_eq!(
            t.before(probe),
            m.range(..*probe).next_back().map(|(i, _)| *i)
        );
        prop_assert_eq!(t.keys().next(), m.keys().next());
        prop_assert_eq!(t.keys().next_back(), m.keys().next_back());
        for j in 0..=m.len() {
            prop_assert_eq!(t.keys().nth(j), m.keys().nth(j));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `IdTable` answers every query exactly as `BTreeMap` does,
        /// after every insert, duplicate insert, remove and absent
        /// remove of an op soup over the three id pools.
        #[test]
        fn id_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u64>(), any::<u64>()), 1..160),
        ) {
            let mut t = IdTable::default();
            let mut m = BTreeMap::new();
            for &(op, pool, x, probe) in &ops {
                let id = pooled_id(pool, x);
                match op {
                    0 | 1 => {
                        let v = value_of(&id) ^ u32::from(op);
                        prop_assert_eq!(t.insert(id, v), m.insert(id, v));
                    }
                    _ => prop_assert_eq!(t.remove(&id), m.remove(&id)),
                }
                agree(&t, &m, &id)?;
                agree(&t, &m, &pooled_id(pool.rotate_left(2), probe))?;
            }
        }

        /// A bulk build from an unordered id list with duplicates equals
        /// one insert per distinct id.
        #[test]
        fn id_table_bulk_build_matches_inserts(
            raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..96),
        ) {
            let ids: Vec<Id> = raw.iter().map(|&(pool, x)| pooled_id(pool, x)).collect();
            let bulk = IdTable::from_ids(&ids, |id| value_of(&id));
            let mut one = IdTable::default();
            let mut m = BTreeMap::new();
            for id in &ids {
                if !one.contains_key(id) {
                    one.insert(*id, value_of(id));
                }
                m.entry(*id).or_insert_with(|| value_of(id));
            }
            prop_assert_eq!(&bulk.keys, &one.keys);
            prop_assert_eq!(&bulk.ids, &one.ids);
            prop_assert_eq!(&bulk.values, &one.values);
            for id in &ids {
                agree(&bulk, &m, id)?;
            }
        }
    }

    #[test]
    fn distinct_random_ids_draws_like_an_insert_loop() {
        use rand::SeedableRng;
        for n in [0, 1, 7, 64] {
            let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
            let mut b = a.clone();
            let mut looped = BTreeMap::new();
            while looped.len() < n {
                looped.insert(Id::random(&mut b), ());
            }
            let drawn = distinct_random_ids(n, &mut a);
            assert!(drawn.iter().eq(looped.keys()));
            assert_eq!(
                Id::random(&mut a),
                Id::random(&mut b),
                "same number of draws"
            );
        }
    }
}
