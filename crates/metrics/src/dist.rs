//! Incremental load-distribution statistics.
//!
//! [`LoadDist`] tracks the multiset of per-worker loads under inserts,
//! removes, and in-place updates, maintaining the *exact* integer
//! aggregates the batch fairness sweep computes from a sorted sample:
//! the element count `n`, the total `T = Σ x_i`, and the rank-weighted
//! sum `W = Σ (i+1)·x_i` over the ascending order. Because the
//! aggregates are exact integers and the final float expressions live
//! in `autobal_stats::fairness` (shared with the batch path), the
//! incremental Gini and imbalance are bit-equal to a full recompute —
//! not merely close — which is what lets the simulator's golden series
//! switch to this structure without perturbing a single byte.
//!
//! Cost per delta is `O(log L)` in the load bound `L` (two Fenwick
//! walks), replacing the `O(n log n)` copy-and-sort per sample.

use crate::fenwick::Fenwick;

/// Multiset of `u64` loads with incrementally-maintained fairness
/// aggregates. Memory is `O(L)` in the largest load ever observed,
/// grown lazily in powers of two; simulator loads are bounded by the
/// per-worker task share, so this stays small and cache-resident.
#[derive(Clone, Debug, Default)]
pub struct LoadDist {
    /// counts[v] = number of elements equal to v (Fenwick-indexed).
    counts: Fenwick,
    /// sums[v] = v · counts[v] (Fenwick-indexed).
    sums: Fenwick,
    n: u64,
    total: u128,
    weighted: u128,
}

impl LoadDist {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all elements, keeping allocated capacity (alloc-free).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.sums.clear();
        self.n = 0;
        self.total = 0;
        self.weighted = 0;
    }

    fn ensure_slot(&mut self, v: u64) {
        let needed = v as usize + 1;
        if needed > self.counts.slots() {
            let cap = needed.next_power_of_two().max(64);
            self.counts.grow_to(cap);
            self.sums.grow_to(cap);
        }
    }

    /// Insert one element of value `v`.
    ///
    /// Rank accounting: the new element lands after the `L_v` elements
    /// strictly below `v` and the `c_v` existing copies of `v`, taking
    /// 1-based rank `L_v + c_v + 1`; every element strictly above `v`
    /// shifts up one rank, adding its value to `W` once. Hence
    /// `ΔW = v·(L_v + c_v + 1) + S_{>v}`, all in exact integers.
    pub fn insert(&mut self, v: u64) {
        self.ensure_slot(v);
        let below = self.counts.prefix(v as usize) as u128;
        let copies = self.counts.count_at(v as usize) as u128;
        let le_sum = self.sums.prefix(v as usize + 1) as u128;
        let above_sum = self.total - le_sum;
        self.weighted += v as u128 * (below + copies + 1) + above_sum;
        self.total += v as u128;
        self.n += 1;
        self.counts.add(v as usize, 1);
        self.sums.add(v as usize, v);
    }

    /// Remove one element of value `v`, which must be present.
    ///
    /// Exact inverse of [`insert`](Self::insert): the departing copy
    /// held rank `L_v + c_v` (taking the highest-ranked copy; copies
    /// are interchangeable), and everything above it drops one rank.
    pub fn remove(&mut self, v: u64) {
        let copies = self.counts.count_at(v as usize) as u128;
        assert!(copies > 0, "remove of absent value {v}");
        let below = self.counts.prefix(v as usize) as u128;
        let le_sum = self.sums.prefix(v as usize + 1) as u128;
        let above_sum = self.total - le_sum;
        self.weighted -= v as u128 * (below + copies) + above_sum;
        self.total -= v as u128;
        self.n -= 1;
        self.counts.sub(v as usize, 1);
        self.sums.sub(v as usize, v);
    }

    /// Replace one element of value `old` with value `new`.
    pub fn update(&mut self, old: u64, new: u64) {
        if old == new {
            return;
        }
        self.remove(old);
        self.insert(new);
    }

    /// Number of tracked elements.
    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact total load `Σ x_i`.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Exact rank-weighted sum `Σ (i+1)·x_i` over the ascending order.
    pub fn weighted(&self) -> u128 {
        self.weighted
    }

    /// Number of zero-load (idle) elements.
    pub fn zeros(&self) -> u64 {
        self.counts.count_at(0)
    }

    /// Largest tracked load (0 when empty).
    pub fn max(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.counts.select(self.n) as u64
        }
    }

    /// Nearest-rank percentile, bit-equal to
    /// `autobal_stats::fairness::percentile_sorted` on the sorted
    /// sample: the k-th smallest with `k = max(1, ceil(p·n/100))`.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let p = p.min(100);
        let k = (p * self.n).div_ceil(100).max(1);
        self.counts.select(k) as u64
    }

    /// Gini coefficient, bit-equal to the batch
    /// `autobal_stats::fairness::gini_sorted` recompute.
    pub fn gini(&self) -> f64 {
        autobal_stats::fairness::gini_from_sums(self.n as usize, self.total, self.weighted)
    }

    /// Imbalance factor max/mean, bit-equal to the batch
    /// `autobal_stats::fairness::imbalance_sorted` recompute.
    pub fn imbalance(&self) -> f64 {
        autobal_stats::fairness::imbalance_from_sums(self.max(), self.n as usize, self.total)
    }

    /// Gini in parts-per-million as a pure integer, for the float-free
    /// JSONL sample stream: `⌊10⁶·(2W − T·(n+1)) / (n·T)⌋`. The
    /// numerator is the exact Gini numerator (non-negative: `W` is
    /// minimised at `T·(n+1)/2` when all loads are equal).
    pub fn gini_ppm(&self) -> u64 {
        gini_ppm_from_sums(self.n, self.total, self.weighted)
    }
}

/// Mergeable partial summary of a load multiset.
///
/// The oracle ring keeps one of these per arc-range shard and
/// folds them together at the tick barrier. Only aggregates that are
/// associative under disjoint union are carried — count, total, idle
/// count, and max — because the rank-weighted sum `W` behind the exact
/// Gini depends on the *global* ascending order and cannot be merged
/// from partials; the full [`LoadDist`] remains the source of truth for
/// fairness gauges. All fields are exact integers, so merging is
/// order-independent and bit-stable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistSummary {
    /// Number of observed elements.
    pub n: u64,
    /// Exact total load `Σ x_i`.
    pub total: u128,
    /// Number of zero-load (idle) elements.
    pub zeros: u64,
    /// Largest observed load (0 when empty).
    pub max: u64,
}

impl DistSummary {
    /// Fold one load into the summary.
    pub fn observe(&mut self, v: u64) {
        self.n += 1;
        self.total += v as u128;
        if v == 0 {
            self.zeros += 1;
        }
        self.max = self.max.max(v);
    }

    /// Fold another (disjoint) partial summary into this one.
    pub fn merge(&mut self, other: &DistSummary) {
        self.n += other.n;
        self.total += other.total;
        self.zeros += other.zeros;
        self.max = self.max.max(other.max);
    }

    /// Integer mean load, rounded down (0 when empty).
    pub fn mean_floor(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            (self.total / self.n as u128) as u64
        }
    }
}

impl LoadDist {
    /// The mergeable aggregate view of the tracked multiset; equals the
    /// fold of [`DistSummary::observe`] over the same elements.
    pub fn summary(&self) -> DistSummary {
        DistSummary {
            n: self.n,
            total: self.total,
            zeros: self.zeros(),
            max: self.max(),
        }
    }
}

/// Integer Gini (ppm) from exact aggregates; shared by the incremental
/// structure and the batch sampler so both emit identical JSONL.
pub fn gini_ppm_from_sums(n: u64, total: u128, weighted: u128) -> u64 {
    if n == 0 || total == 0 {
        return 0;
    }
    let numer = 2 * weighted - total * (n as u128 + 1);
    (numer * 1_000_000 / (n as u128 * total)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobal_stats::fairness;

    fn batch(sorted: &[u64]) -> (u128, u128) {
        let total: u128 = sorted.iter().map(|&v| v as u128).sum();
        let weighted: u128 = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u128 + 1) * v as u128)
            .sum();
        (total, weighted)
    }

    fn assert_matches_batch(dist: &LoadDist, items: &[u64]) {
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        let (total, weighted) = batch(&sorted);
        assert_eq!(dist.len() as usize, sorted.len());
        assert_eq!(dist.total(), total);
        assert_eq!(dist.weighted(), weighted, "weighted sum for {sorted:?}");
        assert_eq!(
            dist.gini().to_bits(),
            fairness::gini_sorted(&sorted).to_bits()
        );
        assert_eq!(
            dist.imbalance().to_bits(),
            fairness::imbalance_sorted(&sorted).to_bits()
        );
        assert_eq!(dist.max(), sorted.last().copied().unwrap_or(0));
        assert_eq!(
            dist.zeros(),
            sorted.iter().filter(|&&v| v == 0).count() as u64
        );
        for p in [0, 1, 10, 50, 90, 99, 100] {
            assert_eq!(
                dist.percentile(p),
                fairness::percentile_sorted(&sorted, p),
                "p{p} of {sorted:?}"
            );
        }
    }

    #[test]
    fn insert_remove_track_batch_aggregates() {
        let mut dist = LoadDist::new();
        let mut items: Vec<u64> = Vec::new();
        for v in [2u64, 5, 1, 5, 0, 9, 5, 0, 130, 7] {
            dist.insert(v);
            items.push(v);
            assert_matches_batch(&dist, &items);
        }
        for v in [5u64, 0, 130, 2] {
            dist.remove(v);
            items.remove(items.iter().position(|&x| x == v).unwrap());
            assert_matches_batch(&dist, &items);
        }
        dist.update(9, 3);
        let at = items.iter().position(|&x| x == 9).unwrap();
        items[at] = 3;
        assert_matches_batch(&dist, &items);
    }

    #[test]
    fn clear_resets_without_capacity_loss() {
        let mut dist = LoadDist::new();
        dist.insert(1000);
        dist.clear();
        assert!(dist.is_empty());
        assert_eq!(dist.gini(), 0.0);
        dist.insert(3);
        assert_matches_batch(&dist, &[3]);
    }

    #[test]
    fn gini_ppm_zero_for_level_loads() {
        let mut dist = LoadDist::new();
        for _ in 0..7 {
            dist.insert(42);
        }
        assert_eq!(dist.gini_ppm(), 0);
    }

    #[test]
    fn gini_ppm_tracks_float_gini() {
        let mut dist = LoadDist::new();
        for v in [0u64, 10] {
            dist.insert(v);
        }
        // G = 0.5 exactly for [0, x].
        assert_eq!(dist.gini_ppm(), 500_000);
        assert_eq!(dist.gini(), 0.5);
    }

    #[test]
    #[should_panic(expected = "remove of absent value")]
    fn remove_absent_panics() {
        let mut dist = LoadDist::new();
        dist.insert(1);
        dist.remove(2);
    }
}
