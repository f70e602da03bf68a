//! Run-length finger tables, shared by both Chord overlays.
//!
//! A node's 160 fingers point at few distinct nodes: every finger whose
//! target falls between the node and its successor points at the
//! successor, so a 128-node ring has about seven runs of equal entries
//! per node. [`Fingers`] stores those runs, not the 160 slots, so
//! routing scans and liveness probes visit each run once.

use autobal_id::{ring, Id, ID_BITS};

/// Number of finger entries, one per bit of the id space.
pub const LEN: usize = ID_BITS as usize;

/// A finger table as runs of equal entries: `fingers[k]` routes toward
/// `id + 2^k`, and is `None` until something resolves it.
///
/// Each run is `(last index, entry)`, in index order: a run covers the
/// indices after the previous run's last index up to its own. The last
/// run ends at `LEN - 1`, and no two adjacent runs hold the same entry,
/// so every table has exactly one representation.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingers {
    runs: Vec<(u8, Option<Id>)>,
}

impl Default for Fingers {
    fn default() -> Fingers {
        Fingers::new()
    }
}

impl Clone for Fingers {
    fn clone(&self) -> Fingers {
        Fingers {
            runs: self.runs.clone(),
        }
    }

    /// Reuses `self`'s run buffer (wiring copies one scratch table
    /// into every node).
    fn clone_from(&mut self, source: &Fingers) {
        self.runs.clone_from(&source.runs);
    }
}

impl Fingers {
    /// A table with every entry unresolved.
    pub fn new() -> Fingers {
        Fingers {
            runs: vec![(LAST, None)],
        }
    }

    /// Entry `k` (`None` when unresolved or out of range).
    #[inline]
    pub fn get(&self, k: usize) -> Option<Id> {
        self.runs.get(self.run_of(k)).and_then(|&(_, entry)| entry)
    }

    /// Sets entry `k` to `v`, splitting the run that holds it and
    /// merging with a neighbouring run that already holds `v`. Does
    /// nothing when the entry already reads `v` or `k` is out of range.
    #[inline]
    pub fn set(&mut self, k: usize, v: Option<Id>) {
        let j = self.run_of(k);
        match self.runs.get(j) {
            Some(&(_, cur)) if cur != v => self.rewrite(j, k, v),
            _ => {}
        }
    }

    /// [`Fingers::set`] once entry `k`, in run `j`, is known to change:
    /// splits run `j` around `k` and merges `k` into a neighbouring run
    /// that holds `v`.
    fn rewrite(&mut self, j: usize, k: usize, v: Option<Id>) {
        let Some(&(end, cur)) = self.runs.get(j) else {
            return;
        };
        // `k < LEN <= 256`, so it fits the run's index type.
        let kk = k as u8;
        let start = match j.checked_sub(1).and_then(|p| self.runs.get(p)) {
            Some(&(prev_end, _)) => prev_end + 1,
            None => 0,
        };
        let prev_holds_v = kk == start && j > 0 && self.entry(j - 1) == Some(v);
        let next_holds_v = kk == end && self.entry(j + 1) == Some(v);
        match (kk > start, kk < end) {
            // The run is `k` alone.
            (false, false) => match (prev_holds_v, next_holds_v) {
                (true, true) => {
                    let next_end = self.runs.get(j + 1).map_or(LAST, |r| r.0);
                    self.set_end(j - 1, next_end);
                    self.runs.drain(j..j + 2);
                }
                (true, false) => {
                    self.set_end(j - 1, kk);
                    self.runs.remove(j);
                }
                (false, true) => {
                    self.runs.remove(j);
                }
                (false, false) => {
                    if let Some(run) = self.runs.get_mut(j) {
                        run.1 = v;
                    }
                }
            },
            // `k` ends the run.
            (true, false) => {
                self.set_end(j, kk - 1);
                if !next_holds_v {
                    self.runs.insert(j + 1, (kk, v));
                }
            }
            // `k` starts the run.
            (false, true) => {
                if prev_holds_v {
                    self.set_end(j - 1, kk);
                } else {
                    self.runs.insert(j, (kk, v));
                }
            }
            // `k` sits inside the run.
            (true, true) => {
                self.set_end(j, kk - 1);
                self.runs.splice(j + 1..j + 1, [(kk, v), (end, cur)]);
            }
        }
    }

    /// Clears every entry that points at `dead`; returns how many did.
    pub fn forget(&mut self, dead: Id) -> usize {
        let mut cleared = 0;
        let mut start = 0;
        for (end, entry) in &mut self.runs {
            if *entry == Some(dead) {
                *entry = None;
                cleared += usize::from(*end) + 1 - start;
            }
            start = usize::from(*end) + 1;
        }
        if cleared > 0 {
            self.runs.dedup_by(|next, prev| {
                let same = next.1 == prev.1;
                if same {
                    prev.0 = next.0;
                }
                same
            });
        }
        cleared
    }

    /// Fills the table of node `id` from ground truth: `owner(t)` is the
    /// first live node at or after `t`. Asks once per run, not once per
    /// entry: if `o` owns `id + 2^k`, no node sits between that target
    /// and `o`, so `o` also owns every later target up to the largest
    /// `id + 2^j <= o`, and the next target lies past `o`.
    pub(crate) fn wire(&mut self, id: Id, mut owner: impl FnMut(Id) -> Option<Id>) {
        self.runs.clear();
        let mut k = 0;
        while k < LEN {
            let entry = owner(id.wrapping_add(Id::pow2(k as u32)));
            // Past the last node but `id` itself, every target wraps to
            // the same owner; so does a missing one.
            let end = match entry {
                Some(o) if o != id => floor_log2(ring::distance(id, o)).clamp(k as u8, LAST),
                _ => LAST,
            };
            self.runs.push((end, entry));
            k = usize::from(end) + 1;
        }
    }

    /// All `LEN` entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = Option<Id>> + '_ {
        self.runs()
            .flat_map(|(len, entry)| std::iter::repeat_n(entry, len))
    }

    /// The runs as `(length, entry)`, in index order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, Option<Id>)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |&(end, entry)| {
            let len = usize::from(end) + 1 - start;
            start = usize::from(end) + 1;
            (len, entry)
        })
    }

    /// The best routing candidate strictly between `id` and `key` among
    /// these fingers (longest first), then `successors` (farthest
    /// first); `None` when no entry improves on the successor. Both
    /// Chord overlays route by it. Equal entries give equal answers, so
    /// each run is tested once.
    pub(crate) fn closest_preceding(&self, id: Id, successors: &[Id], key: Id) -> Option<Id> {
        let fingers = self.runs.iter().rev().filter_map(|&(_, entry)| entry);
        fingers
            .chain(successors.iter().rev().copied())
            .find(|&e| ring::in_open_arc(id, key, e))
    }

    /// Position of the run holding entry `k` (`runs.len()` past the
    /// end). A linear scan: the first run, the successor's, holds all
    /// but the top few entries.
    #[inline]
    fn run_of(&self, k: usize) -> usize {
        let mut j = 0;
        while let Some(&(end, _)) = self.runs.get(j) {
            if usize::from(end) >= k {
                break;
            }
            j += 1;
        }
        j
    }

    /// The entry of run `j`, if there is one.
    fn entry(&self, j: usize) -> Option<Option<Id>> {
        self.runs.get(j).map(|&(_, entry)| entry)
    }

    fn set_end(&mut self, j: usize, end: u8) {
        if let Some(run) = self.runs.get_mut(j) {
            run.0 = end;
        }
    }
}

/// The last finger index.
const LAST: u8 = (LEN - 1) as u8;

/// `floor(log2 d)` for a nonzero `d` (0 for zero).
fn floor_log2(d: Id) -> u8 {
    let [lo, mid, hi] = d.limbs();
    let bits = if hi != 0 {
        192 - hi.leading_zeros()
    } else if mid != 0 {
        128 - mid.leading_zeros()
    } else {
        64 - lo.leading_zeros()
    };
    bits.saturating_sub(1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::pooled_id;
    use proptest::prelude::*;

    /// An id from the id-table tests' pools: spread over the ring,
    /// sharing their top bits, or packed at either end of the ring.
    fn spread(v: u8) -> Id {
        pooled_id(v, u64::from(v / 6))
    }

    /// The first id at or after `t` in the sorted `ring`, wrapping.
    fn brute_owner(ring: &[Id], t: Id) -> Option<Id> {
        ring.iter()
            .copied()
            .find(|&x| x >= t)
            .or(ring.first().copied())
    }

    /// The routing scan over a dense table that `closest_preceding`
    /// replaces: every entry, longest finger first, then the successors.
    fn dense_closest_preceding(
        id: Id,
        fingers: &[Option<Id>],
        successors: &[Id],
        key: Id,
    ) -> Option<Id> {
        let entries = fingers
            .iter()
            .rev()
            .flatten()
            .chain(successors.iter().rev());
        entries.copied().find(|&e| ring::in_open_arc(id, key, e))
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Set entry `k` to a ring member (`None` for the last choice).
        Set(u8, u8),
        /// Set a stretch of entries to one value, as a run of fixes does.
        Sweep(u8, u8, u8),
        /// Forget a ring member.
        Forget(u8),
        /// Wire the table of a ring member from a new ring: pooled ids
        /// and ids at `node + 2^j + x`, which split the low fingers.
        Wire(u8, Vec<(bool, u8, u16)>),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let ring = proptest::collection::vec((any::<bool>(), 0u8..160, 0u16..4), 0..24);
        (0u8..10, 0u8..160, any::<u8>(), 0u8..40, ring).prop_map(|(tag, k, v, n, ring)| match tag {
            0..=4 => Op::Set(k, v),
            5 => Op::Sweep(k, n, v),
            6 | 7 => Op::Forget(v),
            _ => Op::Wire(v, ring),
        })
    }

    /// The value a choice `v` names: a member of `ring`, or `None`.
    fn pick(ring: &[Id], v: u8) -> Option<Id> {
        ring.get(usize::from(v) % (ring.len() + 1)).copied()
    }

    fn check(
        fingers: &Fingers,
        dense: &[Option<Id>],
        node: Id,
        ring: &[Id],
        key: Id,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(fingers.iter().collect::<Vec<_>>(), dense);
        for (k, &entry) in dense.iter().enumerate() {
            prop_assert_eq!(fingers.get(k), entry, "entry {}", k);
        }
        prop_assert_eq!(fingers.get(LEN), None);
        let ends: Vec<u8> = fingers.runs.iter().map(|r| r.0).collect();
        prop_assert!(ends.windows(2).all(|w| w[0] < w[1]), "ends {:?}", ends);
        prop_assert_eq!(ends.last(), Some(&LAST));
        prop_assert!(
            fingers.runs.windows(2).all(|w| w[0].1 != w[1].1),
            "equal neighbouring runs: {:?}",
            fingers.runs
        );
        let successors: Vec<Id> = ring.iter().copied().filter(|&x| x > node).take(3).collect();
        let probes = ring
            .iter()
            .flat_map(|&x| [x, x.wrapping_add(Id::ONE), x.wrapping_sub(Id::ONE)]);
        for key in probes.chain([key, node]) {
            prop_assert_eq!(
                fingers.closest_preceding(node, &successors, key),
                dense_closest_preceding(node, dense, &successors, key),
                "key {}",
                key
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Fingers` behaves as a dense 160-entry table under `set`,
        /// `forget` and ground-truth wiring: `get` and `iter` agree,
        /// `forget` counts the entries it clears, `closest_preceding`
        /// answers as the dense scan did, and the runs stay canonical
        /// (ascending ends, the last at 159, no equal neighbours).
        #[test]
        fn fingers_match_dense_table(
            key in any::<u64>(),
            ops in proptest::collection::vec(arb_op(), 0..60),
        ) {
            let key = spread(0).wrapping_add(Id::from(key));
            let mut fingers = Fingers::new();
            let mut dense = vec![None; LEN];
            let mut ring: Vec<Id> = (0..4).map(spread).collect();
            ring.sort_unstable();
            ring.dedup();
            let mut node = ring[0];
            check(&fingers, &dense, node, &ring, key)?;
            for op in ops {
                match op {
                    Op::Set(k, v) => {
                        let v = pick(&ring, v);
                        fingers.set(usize::from(k), v);
                        dense[usize::from(k)] = v;
                    }
                    Op::Sweep(k, n, v) => {
                        let v = pick(&ring, v);
                        let stretch = dense.iter_mut().enumerate().skip(usize::from(k));
                        for (k, entry) in stretch.take(usize::from(n)) {
                            fingers.set(k, v);
                            *entry = v;
                        }
                    }
                    Op::Forget(v) => {
                        let dead = pick(&ring, v).unwrap_or(node);
                        let refs = dense.iter().filter(|&&e| e == Some(dead)).count();
                        prop_assert_eq!(fingers.forget(dead), refs);
                        dense.iter_mut().filter(|e| **e == Some(dead)).for_each(|e| *e = None);
                    }
                    Op::Wire(v, members) => {
                        node = pick(&ring, v).unwrap_or(node);
                        ring = members
                            .iter()
                            .map(|&(near, j, x)| match near {
                                true => node
                                    .wrapping_add(Id::pow2(u32::from(j)))
                                    .wrapping_add(Id::from(u64::from(x))),
                                false => spread(j),
                            })
                            .chain([node])
                            .collect();
                        ring.sort_unstable();
                        ring.dedup();
                        let mut asked = 0;
                        fingers.wire(node, |t| {
                            asked += 1;
                            brute_owner(&ring, t)
                        });
                        prop_assert_eq!(asked, fingers.runs.len(), "one owner query per run");
                        for (k, e) in dense.iter_mut().enumerate() {
                            *e = brute_owner(&ring, node.wrapping_add(Id::pow2(k as u32)));
                        }
                    }
                }
                check(&fingers, &dense, node, &ring, key)?;
            }
        }
    }

    #[test]
    fn a_fresh_table_is_one_unresolved_run() {
        let f = Fingers::new();
        assert_eq!(f.runs().collect::<Vec<_>>(), vec![(LEN, None)]);
        assert_eq!(f.iter().count(), LEN);
    }

    #[test]
    fn set_splits_and_merges_runs() {
        let (a, b) = (Some(spread(1)), Some(spread(2)));
        let mut f = Fingers::new();
        f.set(10, a);
        assert_eq!(f.runs, vec![(9, None), (10, a), (LAST, None)]);
        f.set(11, a);
        assert_eq!(f.runs, vec![(9, None), (11, a), (LAST, None)]);
        f.set(10, b);
        assert_eq!(f.runs, vec![(9, None), (10, b), (11, a), (LAST, None)]);
        f.set(10, None);
        assert_eq!(f.runs, vec![(10, None), (11, a), (LAST, None)]);
        f.set(11, None);
        assert_eq!(f, Fingers::new());
    }

    #[test]
    fn forget_counts_entries_and_merges_runs() {
        let (a, b) = (Some(spread(1)), Some(spread(2)));
        let mut f = Fingers::new();
        (0..100).for_each(|k| f.set(k, a));
        (100..LEN).for_each(|k| f.set(k, b));
        f.set(50, None);
        assert_eq!(f.forget(spread(1)), 99);
        assert_eq!(f.runs, vec![(99, None), (LAST, b)]);
        assert_eq!(f.forget(spread(1)), 0);
    }
}
