//! The node table both Chord substrates keep: every live node's state
//! in ascending id order, found by id or by position. It is also their
//! only source of ground truth: the wrapping owner, successor and
//! predecessor reads, and the wiring of a fully stabilized ring.
//!
//! Most of the nodes a Chord step talks to are its own ring neighbours,
//! and in a consistent ring the `k`-th successor of the node at position
//! `i` sits at `i + 1 + k` and its `k`-th predecessor at `i - 1 - k`. So
//! a caller that knows a node's position first compares the id where
//! adjacency puts it ([`IdTable::position_near`]) and searches only when
//! that compare misses. A quiet synchronous maintenance cycle on 149
//! nodes, fixing 16 fingers per node, makes 665 full searches, about 4.5
//! per node: the finger runs that point past the successor list and the
//! fingers routing hops through. It made 6 490 when every neighbour was
//! searched for.
//!
//! The search itself is laid out for speed. The table holds three
//! parallel columns: a `u64` key per id (its top 64 bits, which order
//! the same way the ids do), the ids, and the values. Beside them, a
//! bucket index splits the key space into `2^b` equal prefixes, at
//! least `len` and fewer than `4 len` of them, and records where each
//! prefix's keys begin. A probe reads its bucket's start and end and
//! searches only that short run of keys, then confirms the hit against
//! the id there. Ids are uniform on the ring, so a bucket holds about
//! one key. Only ids that share their top 64 bits, such as the small
//! integer ids of tests, fall back to a binary search over the ids
//! themselves.
//!
//! Iteration is slice iteration in ascending id order, and a position
//! stays valid until the next insert or remove. Inserts and removes
//! shift all three columns and move the later bucket starts by one;
//! the index is rebuilt only when `len` leaves that range, which takes
//! a power-of-two crossing. Joins and leaves are rare next to probes.

use crate::fingers::Fingers;
use autobal_id::Id;

#[cfg(test)]
thread_local! {
    /// Full searches made on this thread, by every table.
    static SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The number of full searches (bucket probes) the tables on this
/// thread have made so far; a test reads it before and after an
/// operation.
#[cfg(test)]
pub(crate) fn searches() -> u64 {
    SEARCHES.with(|n| n.get())
}

/// Ids in ascending order, each with a value; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct IdTable<V> {
    /// The top 64 bits of each id, `(hi << 32) | (mid >> 32)`.
    keys: Vec<u64>,
    ids: Vec<Id>,
    values: Vec<V>,
    /// `starts[j]` is the number of keys whose top `64 - shift` bits
    /// are below `j`: bucket `j` spans `starts[j]..starts[j + 1]`.
    starts: Vec<u32>,
    /// `64 - b` for `2^b` buckets, so a key's bucket is `key >> shift`.
    shift: u32,
}

/// The top 64 bits of an id: monotone in the id, so the key column is
/// sorted whenever the id column is.
#[inline]
fn key_of(id: &Id) -> u64 {
    let [_, mid, hi] = id.limbs();
    (hi << 32) | (mid >> 32)
}

/// The bucket shift for `len` entries: `2^b` buckets with `2^b` the
/// least power of two at or above `len`, and at least two, so the shift
/// stays below 64.
fn shift_for(len: usize) -> u32 {
    64 - len.next_power_of_two().max(2).trailing_zeros()
}

/// Whether `2^(64 - shift)` buckets suit `len` entries: at least one
/// bucket per entry, and fewer than four, down to the two-bucket floor.
fn index_fits(len: usize, shift: u32) -> bool {
    let buckets = 1usize << (64 - shift);
    len <= buckets && (buckets == 2 || buckets < 4 * len)
}

impl<V> Default for IdTable<V> {
    fn default() -> IdTable<V> {
        let mut t = IdTable {
            keys: Vec::new(),
            ids: Vec::new(),
            values: Vec::new(),
            starts: Vec::new(),
            shift: shift_for(0),
        };
        t.index();
        t
    }
}

impl<V> IdTable<V> {
    /// A table over `ids` in any order, with one sort; duplicates
    /// collapse. `value` makes each id's value.
    pub(crate) fn from_ids(ids: &[Id], value: impl FnMut(Id) -> V) -> IdTable<V> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let mut t = IdTable {
            keys: ids.iter().map(key_of).collect(),
            values: ids.iter().copied().map(value).collect(),
            starts: Vec::new(),
            shift: shift_for(ids.len()),
            ids,
        };
        t.index();
        t
    }

    /// Rebuilds the bucket starts for the current `shift` from the key
    /// column.
    fn index(&mut self) {
        let buckets = 1usize << (64 - self.shift);
        self.starts.clear();
        self.starts.reserve(buckets + 1);
        let mut i = 0;
        for j in 0..buckets {
            while i < self.keys.len() && self.bucket(self.keys[i]) < j {
                i += 1;
            }
            self.starts.push(i as u32);
        }
        self.starts.push(self.keys.len() as u32);
    }

    /// After an insert or remove in bucket `bucket`: moves every later
    /// bucket start by one, or rebuilds the index for the new `len`
    /// when `len` outgrew the buckets or fell below a quarter of them.
    /// The slack means a table that grows and shrinks across one power
    /// of two, as a join and a leave do, does not rebuild each time.
    fn reindex(&mut self, bucket: usize, inserted: bool) {
        if !index_fits(self.len(), self.shift) {
            self.shift = shift_for(self.len());
            self.index();
            return;
        }
        let later = &mut self.starts[bucket + 1..];
        if inserted {
            later.iter_mut().for_each(|s| *s += 1);
        } else {
            later.iter_mut().for_each(|s| *s -= 1);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The bucket of `key`.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key >> self.shift) as usize
    }

    /// Position of the first key at or after `key`. Every full search
    /// of the table goes through here.
    #[inline]
    fn key_bound(&self, key: u64) -> usize {
        #[cfg(test)]
        SEARCHES.with(|n| n.set(n.get() + 1));
        let j = self.bucket(key);
        let (lo, hi) = (self.starts[j] as usize, self.starts[j + 1] as usize);
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }

    /// Position of `id`, if present.
    #[inline]
    pub(crate) fn position(&self, id: &Id) -> Option<usize> {
        let key = key_of(id);
        let i = self.key_bound(key);
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

    /// Position of `id`, if present, trying position `hint` (modulo
    /// `len`) before any search. A node's ring neighbours sit next to it
    /// in a consistent ring, so a caller that knows a node's position
    /// hints `i + 1 + k` for its `k`-th successor and `i - 1 - k` for
    /// its `k`-th predecessor. A hit compares the full id, so it proves
    /// the id is present and the answer equals [`IdTable::position`]'s.
    #[inline]
    pub(crate) fn position_near(&self, id: &Id, hint: usize) -> Option<usize> {
        let i = hint.checked_rem(self.len())?;
        if self.ids[i] == *id {
            return Some(i);
        }
        self.position(id)
    }

    /// Position `i - d`, wrapping: where the `d`-th predecessor of the
    /// id at position `i` sits in a consistent ring, as a hint for
    /// [`IdTable::position_near`].
    ///
    /// # Panics
    /// Panics if the table is empty.
    #[inline]
    pub(crate) fn back(&self, i: usize, d: usize) -> usize {
        let len = self.len();
        (i + len - d % len) % len
    }

    /// Position of the ground-truth owner of key `id`: the first id at or
    /// after it, wrapping past the top of the ring. One search.
    pub(crate) fn owner_position(&self, id: &Id) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        Some(self.lower_bound(id) % self.len())
    }

    /// Position of the first id at or after `id` (`len` if none).
    fn lower_bound(&self, id: &Id) -> usize {
        let key = key_of(id);
        let i = self.key_bound(key);
        match self.keys.get(i) {
            Some(&k) if k == key => i + self.ids[i..].partition_point(|x| x < id),
            _ => i,
        }
    }

    #[inline]
    pub(crate) fn contains_key(&self, id: &Id) -> bool {
        self.position(id).is_some()
    }

    #[inline]
    pub(crate) fn get(&self, id: &Id) -> Option<&V> {
        self.position(id).map(|i| &self.values[i])
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: &Id) -> Option<&mut V> {
        self.position(id).map(|i| &mut self.values[i])
    }

    /// The id at position `i` (ascending order).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub(crate) fn id_at(&self, i: usize) -> Id {
        self.ids[i]
    }

    /// The value at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// The value at position `i`, mutably.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut V {
        &mut self.values[i]
    }

    /// Inserts `value` under `id`, returning the value it replaced.
    pub(crate) fn insert(&mut self, id: Id, value: V) -> Option<V> {
        let i = self.lower_bound(&id);
        if self.ids.get(i) == Some(&id) {
            return Some(std::mem::replace(&mut self.values[i], value));
        }
        let key = key_of(&id);
        self.keys.insert(i, key);
        self.ids.insert(i, id);
        self.values.insert(i, value);
        self.reindex(self.bucket(key), true);
        None
    }

    /// Removes `id`, returning its value.
    pub(crate) fn remove(&mut self, id: &Id) -> Option<V> {
        let i = self.position(id)?;
        let key = self.keys.remove(i);
        self.ids.remove(i);
        let value = self.values.remove(i);
        self.reindex(self.bucket(key), false);
        Some(value)
    }

    /// The first id at or after `id`, wrapping past the top of the
    /// ring: the ground-truth owner of key `id`.
    pub(crate) fn owner(&self, id: &Id) -> Option<Id> {
        self.owner_position(id).map(|i| self.ids[i])
    }

    /// The first id strictly after `id`, wrapping: the ground-truth
    /// successor of `id` (itself when it is the only id).
    pub(crate) fn successor(&self, id: &Id) -> Option<Id> {
        let i = self.lower_bound(id);
        let i = i + usize::from(self.ids.get(i) == Some(id));
        self.ids.get(i).or(self.ids.first()).copied()
    }

    /// The last id strictly before `id`, wrapping: the ground-truth
    /// predecessor of `id` (itself when it is the only id).
    pub(crate) fn predecessor(&self, id: &Id) -> Option<Id> {
        let i = self.lower_bound(id).checked_sub(1);
        i.and_then(|i| self.ids.get(i)).or(self.ids.last()).copied()
    }

    /// Rewires every entry from ground truth, the state a fully
    /// stabilized ring converges to. For the id at each position, `set`
    /// gets its value; its `succ_len` successors and `pred_len`
    /// predecessors, nearest first and capped at the number of other
    /// ids (a list that comes out empty holds the id itself); and its
    /// finger table, whose entry `k` is the owner of `id + 2^k`.
    pub(crate) fn wire(
        &mut self,
        succ_len: usize,
        pred_len: usize,
        mut set: impl FnMut(&mut V, &[Id], &[Id], &Fingers),
    ) {
        fn refill<'a>(list: &mut Vec<Id>, ring: impl Iterator<Item = &'a Id>, len: usize, id: Id) {
            list.clear();
            list.extend(ring.take(len));
            if list.is_empty() {
                list.push(id);
            }
        }
        let others = self.len().saturating_sub(1).max(1);
        let (mut succ, mut pred) = (Vec::new(), Vec::new());
        let mut fingers = Fingers::new();
        for i in 0..self.len() {
            let id = self.ids[i];
            let (before, after) = self.ids.split_at(i);
            let clockwise = after[1..].iter().chain(&self.ids);
            refill(&mut succ, clockwise, succ_len.min(others), id);
            let counter = before.iter().rev().chain(self.ids.iter().rev());
            refill(&mut pred, counter, pred_len.min(others), id);
            fingers.wire(id, |target| self.owner(&target));
            set(&mut self.values[i], &succ, &pred, &fingers);
        }
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

#[cfg(test)]
pub(crate) mod tests {
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

    /// An id from one of six pools, chosen by `pool`: random ids from
    /// a small universe (so inserts and removes hit), ids sharing `hi`
    /// and `mid` or a small integer's zero prefix (the equal-key path),
    /// the two ends of the ring, and ids packed just below `Id::MAX` or
    /// just above `Id::ZERO` (a crowded first or last bucket).
    pub(crate) fn pooled_id(pool: u8, x: u64) -> Id {
        match pool % 6 {
            0 => {
                let s = x % 24;
                Id::from_limbs(mix(s), mix(s + 100), mix(s + 200))
            }
            1 => Id::from_limbs(x % 16, MID ^ ((x >> 8) & 1), HI),
            2 => Id::from(x % 8),
            3 if x & 1 == 0 => Id::ZERO,
            3 => Id::MAX,
            4 => Id::MAX.wrapping_sub(packed_offset(x)),
            _ => Id::ZERO.wrapping_add(packed_offset(x)),
        }
    }

    /// A small offset from a ring end: below the key bits (so the ids
    /// share a key), just inside them, or spread over the top buckets.
    fn packed_offset(x: u64) -> Id {
        let shift = [0, 60, 96, 120][(x >> 6) as usize % 4];
        Id::from(x % 64).shl(shift)
    }

    /// An id for the growth test: uniform over the ring, or packed at
    /// either end, or sharing one key, from universes wide enough that
    /// a run holds a few hundred distinct ids.
    fn spread_id(pool: u8, x: u64) -> Id {
        match pool % 4 {
            0 | 1 => Id::from_limbs(mix(x), mix(x ^ 1), mix(x ^ 2)),
            2 if x & 1 == 0 => Id::MAX.wrapping_sub(packed_offset(x >> 1)),
            2 => Id::ZERO.wrapping_add(packed_offset(x >> 1)),
            _ => Id::from_limbs(x % 64, MID, HI),
        }
    }

    fn value_of(id: &Id) -> u32 {
        let [lo, mid, hi] = id.limbs();
        mix(lo ^ mid.rotate_left(21) ^ hi.rotate_left(42)) as u32
    }

    /// Every probe read the table serves, compared with the map's
    /// answer, plus the table's own invariants: sorted keys that match
    /// the ids, and a bucket index equal to a fresh rebuild.
    fn reads_agree(
        t: &IdTable<u32>,
        m: &BTreeMap<Id, u32>,
        probe: &Id,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.len(), m.len());
        prop_assert_eq!(t.is_empty(), m.is_empty());
        prop_assert!(t.iter().eq(m.iter()));
        prop_assert!(t.keys().eq(m.keys()));
        prop_assert!(t.values().eq(m.values()));
        prop_assert!(t.keys.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(t.keys().map(key_of).eq(t.keys.iter().copied()));
        prop_assert!(index_fits(t.len(), t.shift));
        let mut fresh = t.clone();
        fresh.index();
        prop_assert_eq!(&t.starts, &fresh.starts);
        prop_assert_eq!(t.get(probe), m.get(probe));
        prop_assert_eq!(t.contains_key(probe), m.contains_key(probe));
        prop_assert_eq!(
            t.position(probe).map(|i| (t.id_at(i), *t.at(i))),
            m.get_key_value(probe).map(|(i, v)| (*i, *v))
        );
        let (first, last) = (m.keys().next().copied(), m.keys().next_back().copied());
        prop_assert_eq!(
            t.owner(probe),
            m.range(*probe..).next().map(|(i, _)| *i).or(first)
        );
        let after = m
            .range((
                std::ops::Bound::Excluded(*probe),
                std::ops::Bound::Unbounded,
            ))
            .next()
            .map(|(i, _)| *i);
        prop_assert_eq!(t.successor(probe), after.or(first));
        prop_assert_eq!(
            t.predecessor(probe),
            m.range(..*probe).next_back().map(|(i, _)| *i).or(last)
        );
        Ok(())
    }

    /// [`reads_agree`], then iteration from both ends and at every
    /// position.
    fn agree(t: &IdTable<u32>, m: &BTreeMap<Id, u32>, probe: &Id) -> Result<(), TestCaseError> {
        reads_agree(t, m, probe)?;
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
                agree(&t, &m, &pooled_id(pool.wrapping_add(1 + (probe % 5) as u8), probe))?;
            }
        }

        /// `position_near` answers as `position` does at every hint, and
        /// `owner_position` is the brute-force owner's position, on
        /// tables of spread ids, ids sharing their top 64 bits and ids
        /// packed at either end of the ring, and on the empty and the
        /// one-entry table: for every id present, each id's neighbours
        /// one below and one above, and ids from the other pools.
        #[test]
        fn id_table_position_near_matches_position(
            raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..40),
            absent in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..8),
        ) {
            let ids: Vec<Id> = raw.iter().map(|&(pool, x)| spread_id(pool, x)).collect();
            for take in [0, 1, ids.len()] {
                let t = IdTable::from_ids(&ids[..take.min(ids.len())], |id| value_of(&id));
                let len = t.len();
                let present = t.keys().copied();
                let near = t
                    .keys()
                    .flat_map(|id| [id.wrapping_sub(Id::ONE), id.wrapping_add(Id::ONE)]);
                let others = absent.iter().map(|&(pool, x)| pooled_id(pool, x));
                let queries: Vec<Id> = present.chain(near).chain(others).collect();
                for q in &queries {
                    let want = t.position(q);
                    for hint in 0..2 * len + 6 {
                        prop_assert_eq!(t.position_near(q, hint), want, "hint {}", hint);
                    }
                    let owner = t.keys().position(|id| id >= q).or((len > 0).then_some(0));
                    prop_assert_eq!(t.owner_position(q), owner);
                }
                for (i, d) in (0..len).flat_map(|i| (0..2 * len + 6).map(move |d| (i, d))) {
                    let want = (i as i64 - d as i64).rem_euclid(len as i64) as usize;
                    prop_assert_eq!(t.back(i, d), want);
                }
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
            prop_assert_eq!(&bulk.starts, &one.starts);
            for id in &ids {
                agree(&bulk, &m, id)?;
            }
        }

        /// The bucket index follows the table up through every power of
        /// two to a few hundred ids and back down to empty: after each
        /// insert and each remove, every read matches `BTreeMap` at the
        /// id just touched and at a neighbour from another pool.
        #[test]
        fn id_table_index_follows_growth_and_shrink(
            raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..320),
            order in any::<u32>(),
        ) {
            let mut t = IdTable::default();
            let mut m = BTreeMap::new();
            for &(pool, x) in &raw {
                let id = spread_id(pool, x);
                prop_assert_eq!(t.insert(id, value_of(&id)), m.insert(id, value_of(&id)));
                reads_agree(&t, &m, &id)?;
                reads_agree(&t, &m, &spread_id(pool ^ 2, x.rotate_left(7)))?;
            }
            let mut gone: Vec<Id> = m.keys().copied().collect();
            gone.sort_by_key(|id| value_of(id) ^ order);
            for id in gone {
                prop_assert_eq!(t.remove(&id), m.remove(&id));
                prop_assert_eq!(t.remove(&id), None);
                reads_agree(&t, &m, &id)?;
                reads_agree(&t, &m, &spread_id(order as u8, key_of(&id)))?;
            }
            prop_assert!(t.is_empty());
        }
    }
}
