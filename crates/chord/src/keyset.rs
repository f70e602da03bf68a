//! A node's primary key set as a sorted run that replicas share.
//!
//! Active backup hands every replica target a copy of the owner's keys
//! each cycle, while the work phase consumes the owner's smallest key
//! every tick. [`KeySet`] makes both cheap. The keys are one sorted run,
//! read from a consumed-prefix cursor onward. [`KeySet::share`] moves
//! the run behind an `Arc` (no key is copied) and returns a clone that
//! shares it; [`KeySet::pop_first`] only advances the cursor, so a clone
//! taken before the pop keeps reading the keys it was taken with. Every
//! other mutation takes the run back, copying it while a clone still
//! shares it, and drops the consumed prefix, so no clone ever sees a
//! change made after it was taken.
//!
//! A run stays unshared until it is first pushed: setup's one-key
//! inserts then reach the keys through one pointer, with no reference
//! count to check.

use autobal_id::Id;
use std::fmt;
use std::sync::Arc;

/// A sorted set of ids: an owned or shared run plus a consumed-prefix
/// cursor.
///
/// An empty set that never held a key allocates nothing.
#[derive(Clone, Default)]
pub struct KeySet {
    /// The run while no clone can share it: ascending, duplicate-free.
    /// Empty while `shared` holds the run.
    owned: Vec<Id>,
    /// The run once [`KeySet::share`] has moved it here.
    shared: Option<Arc<Vec<Id>>>,
    /// Ids before this position of the run are consumed.
    start: usize,
}

impl KeySet {
    /// An empty set.
    pub fn new() -> KeySet {
        KeySet::default()
    }

    /// The live keys, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[Id] {
        let run = self.shared.as_deref().unwrap_or(&self.owned);
        run.get(self.start..).unwrap_or_default()
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set holds no key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The keys in ascending order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, Id> {
        self.as_slice().iter()
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: &Id) -> bool {
        self.as_slice().binary_search(key).is_ok()
    }

    /// A clone that shares this set's run, moving the run behind an
    /// `Arc` first if it is not there yet (no key is copied). Clones of
    /// a shared set share its run too.
    pub fn share(&mut self) -> KeySet {
        if self.shared.is_none() {
            self.shared = Some(Arc::new(std::mem::take(&mut self.owned)));
        }
        self.clone()
    }

    /// Whether `other` reads this very snapshot: the same shared run
    /// from the same cursor. Equal sets built apart, or sets that were
    /// never shared, are not the same snapshot.
    pub fn same_as(&self, other: &KeySet) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) && self.start == other.start,
            _ => false,
        }
    }

    /// Removes and returns the smallest key. Only the cursor moves, so
    /// clones that share the run are untouched and nothing is copied.
    #[inline]
    pub fn pop_first(&mut self) -> Option<Id> {
        let first = self.as_slice().first().copied()?;
        self.start += 1;
        Some(first)
    }

    /// Adds `key`; returns whether it was new.
    #[inline]
    pub fn insert(&mut self, key: Id) -> bool {
        match self.as_slice().binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.make_mut().insert(i, key);
                true
            }
        }
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: &Id) -> bool {
        match self.as_slice().binary_search(key) {
            Ok(i) => {
                self.make_mut().remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps only the keys for which `keep` returns true. A set that
    /// keeps every key is left as it is, shared run and cursor included.
    pub fn retain(&mut self, keep: impl Fn(&Id) -> bool) {
        if !self.iter().all(&keep) {
            self.make_mut().retain(keep);
        }
    }

    /// The run, owned again and with the consumed prefix dropped: taken
    /// back in place when no clone shares it, copied otherwise.
    #[inline]
    fn make_mut(&mut self) -> &mut Vec<Id> {
        if let Some(run) = self.shared.take() {
            self.owned = Arc::unwrap_or_clone(run);
        }
        let start = std::mem::take(&mut self.start);
        if start > 0 {
            self.owned.drain(..start);
        }
        &mut self.owned
    }
}

/// Adds every key of the iterator; the input need not be sorted.
impl Extend<Id> for KeySet {
    fn extend<I: IntoIterator<Item = Id>>(&mut self, keys: I) {
        let mut add: Vec<Id> = keys.into_iter().collect();
        if add.is_empty() {
            return;
        }
        if !add.is_sorted() {
            add.sort_unstable();
        }
        add.dedup();
        let live = self.as_slice();
        let merged = if live.is_empty() {
            add
        } else {
            let mut merged = Vec::with_capacity(live.len() + add.len());
            let (mut a, mut b) = (live.iter().peekable(), add.iter().peekable());
            while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
                merged.push(x.min(y));
                if x <= y {
                    a.next();
                }
                if y <= x {
                    b.next();
                }
            }
            merged.extend(a.chain(b));
            merged
        };
        *self = KeySet {
            owned: merged,
            shared: None,
            start: 0,
        };
    }
}

impl FromIterator<Id> for KeySet {
    fn from_iter<I: IntoIterator<Item = Id>>(keys: I) -> KeySet {
        let mut set = KeySet::new();
        set.extend(keys);
        set
    }
}

impl<'a> IntoIterator for &'a KeySet {
    type Item = &'a Id;
    type IntoIter = std::slice::Iter<'a, Id>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for KeySet {
    fn eq(&self, other: &KeySet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeySet {}

impl fmt::Debug for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn id(v: u16) -> Id {
        Id::from(u64::from(v))
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16),
        Remove(u16),
        PopFirst,
        /// Keep the keys whose value is not a multiple of the modulus.
        Retain(u16),
        Extend(Vec<u16>),
        /// Take a clone that shares the set's run.
        Share,
        /// Take a plain clone of the set.
        Clone,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0u8..14,
            0u16..64,
            proptest::collection::vec(0u16..64, 0..12),
        )
            .prop_map(|(tag, v, vs)| match tag {
                0..=3 => Op::Insert(v),
                4 | 5 => Op::Remove(v),
                6..=8 => Op::PopFirst,
                9 => Op::Retain(2 + v % 4),
                10 => Op::Extend(vs),
                11 | 12 => Op::Share,
                _ => Op::Clone,
            })
    }

    fn check(set: &KeySet, model: &BTreeSet<Id>) -> Result<(), TestCaseError> {
        prop_assert!(set.iter().eq(model.iter()), "{set:?} != {model:?}");
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        for v in 0..64 {
            prop_assert_eq!(set.contains(&id(v)), model.contains(&id(v)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `KeySet` behaves as a `BTreeSet` under every operation, and
        /// a clone, shared or plain, keeps reading exactly the
        /// `BTreeSet` copied at the same moment, whatever the original
        /// does afterwards.
        #[test]
        fn key_set_matches_btree_set_and_clones_stay_frozen(
            ops in proptest::collection::vec(arb_op(), 0..80),
        ) {
            let mut set = KeySet::new();
            let mut model = BTreeSet::new();
            let mut snapshots: Vec<(KeySet, BTreeSet<Id>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(v) => prop_assert_eq!(set.insert(id(v)), model.insert(id(v))),
                    Op::Remove(v) => prop_assert_eq!(set.remove(&id(v)), model.remove(&id(v))),
                    Op::PopFirst => prop_assert_eq!(set.pop_first(), model.pop_first()),
                    Op::Retain(m) => {
                        let keep = |k: &Id| !k.limbs()[0].is_multiple_of(u64::from(m));
                        set.retain(keep);
                        model.retain(keep);
                    }
                    Op::Extend(vs) => {
                        set.extend(vs.iter().map(|&v| id(v)));
                        model.extend(vs.iter().map(|&v| id(v)));
                    }
                    Op::Share => {
                        let snap = set.share();
                        prop_assert!(snap.same_as(&set));
                        snapshots.push((snap, model.clone()));
                    }
                    Op::Clone => {
                        let snap = set.clone();
                        prop_assert_eq!(snap.same_as(&set), set.shared.is_some());
                        snapshots.push((snap, model.clone()));
                    }
                }
                check(&set, &model)?;
                for (snap, frozen) in &snapshots {
                    check(snap, frozen)?;
                }
            }
            prop_assert_eq!(set.clone(), set.iter().copied().collect::<KeySet>());
        }
    }

    #[test]
    fn pop_keeps_the_shared_run_and_mutation_takes_it_back() {
        let mut set: KeySet = [3u16, 1, 2].into_iter().map(id).collect();
        assert!(!set.clone().same_as(&set), "an owned run is copied");
        let held = set.share();
        assert!(held.same_as(&set));
        assert!(set.clone().same_as(&set), "a shared run is not");
        assert_eq!(set.pop_first(), Some(id(1)));
        assert!(!held.same_as(&set), "the cursor moved");
        let popped = set.share();
        assert!(popped.same_as(&set));
        assert!(set.insert(id(9)));
        assert!(!popped.same_as(&set), "an insert copies a shared run");
        assert!(set.shared.is_none() && set.start == 0);
        assert_eq!(held.as_slice(), &[id(1), id(2), id(3)]);
        assert_eq!(popped.as_slice(), &[id(2), id(3)]);
        assert_eq!(set.as_slice(), &[id(2), id(3), id(9)]);
    }

    #[test]
    fn a_run_no_clone_shares_is_taken_back_in_place() {
        let mut set: KeySet = [1u16, 2, 3].into_iter().map(id).collect();
        let buf = set.owned.as_ptr();
        drop(set.share());
        assert_eq!(set.pop_first(), Some(id(1)));
        assert!(set.remove(&id(3)));
        assert_eq!(set.owned.as_ptr(), buf, "the run was not copied");
        assert_eq!(set.as_slice(), &[id(2)]);
    }

    #[test]
    fn a_new_set_allocates_nothing() {
        let set = KeySet::new();
        assert!(set.owned.capacity() == 0 && set.shared.is_none());
        assert!(set.is_empty() && set.iter().next().is_none());
    }
}
