//! Fixed-vocabulary metric registry.
//!
//! Built once from [`names::ALL`]; after construction every operation
//! is allocation-free: counters and gauges are slots in a flat `u64`
//! array, histograms are fixed 65-bucket log₂ arrays, and name
//! resolution is a binary search over a pre-sorted index of
//! `&'static str`. Unknown names panic — the vocabulary is closed by
//! design (see the lint T family).

use crate::names;

/// What a registered name measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count.
    Counter,
    /// Point-in-time value, overwritten at each sample.
    Gauge,
    /// Log₂-bucketed value distribution.
    Histogram,
}

/// A log₂-bucketed histogram: bucket `i` holds values whose bit length
/// is `i` (bucket 0 = value 0, bucket 1 = 1, bucket 2 = 2..=3, …), so
/// bucket upper bounds are `2^i − 1`.
#[derive(Clone, Debug)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; 65],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            buckets: [0; 65],
        }
    }

    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Index one past the highest non-empty bucket (0 when empty).
    pub fn trimmed_len(&self) -> usize {
        self.buckets
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1)
    }
}

/// The registry proper. Scalar (counter/gauge) slots and histogram
/// slots are parallel to the order of `names::ALL`.
#[derive(Clone, Debug)]
pub struct Registry {
    /// `(name, kind, scalar-or-hist slot)` sorted by name for lookup.
    index: Vec<(&'static str, Kind, usize)>,
    scalars: Vec<u64>,
    hists: Vec<Hist>,
}

impl Registry {
    pub fn new() -> Registry {
        let mut index = Vec::with_capacity(names::ALL.len());
        let mut scalars = 0usize;
        let mut hists = 0usize;
        for &(name, kind, _help) in names::ALL {
            let slot = match kind {
                Kind::Counter | Kind::Gauge => {
                    scalars += 1;
                    scalars - 1
                }
                Kind::Histogram => {
                    hists += 1;
                    hists - 1
                }
            };
            index.push((name, kind, slot));
        }
        index.sort_unstable_by_key(|&(name, _, _)| name);
        Registry {
            index,
            scalars: vec![0; scalars],
            hists: vec![Hist::new(); hists],
        }
    }

    #[inline]
    fn resolve(&self, name: &str) -> (Kind, usize) {
        match self.index.binary_search_by_key(&name, |&(n, _, _)| n) {
            Ok(i) => (self.index[i].1, self.index[i].2),
            Err(_) => panic!("unregistered metric name {name:?}"),
        }
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, name: &str, delta: u64) {
        let (kind, slot) = self.resolve(name);
        debug_assert_eq!(kind, Kind::Counter, "{name} is not a counter");
        self.scalars[slot] += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        let (kind, slot) = self.resolve(name);
        debug_assert_eq!(kind, Kind::Gauge, "{name} is not a gauge");
        self.scalars[slot] = value;
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
        let (kind, slot) = self.resolve(name);
        debug_assert_eq!(kind, Kind::Histogram, "{name} is not a histogram");
        self.hists[slot].observe(value);
    }

    /// Current value of a counter or gauge.
    pub fn get(&self, name: &str) -> u64 {
        let (kind, slot) = self.resolve(name);
        debug_assert_ne!(kind, Kind::Histogram, "{name} is a histogram");
        self.scalars[slot]
    }

    /// Current state of a histogram.
    pub fn hist(&self, name: &str) -> &Hist {
        let (kind, slot) = self.resolve(name);
        debug_assert_eq!(kind, Kind::Histogram, "{name} is a histogram");
        &self.hists[slot]
    }

    /// Visit every registered name in `names::ALL` declaration order
    /// with its kind and — for scalars — current value.
    pub fn each_scalar(&self, mut f: impl FnMut(&'static str, Kind, u64)) {
        let mut scalar = 0usize;
        for &(name, kind, _help) in names::ALL {
            match kind {
                Kind::Counter | Kind::Gauge => {
                    f(name, kind, self.scalars[scalar]);
                    scalar += 1;
                }
                Kind::Histogram => {}
            }
        }
    }

    /// Visit every histogram in declaration order.
    pub fn each_hist(&self, mut f: impl FnMut(&'static str, &Hist)) {
        let mut hist = 0usize;
        for &(name, kind, _help) in names::ALL {
            if kind == Kind::Histogram {
                f(name, &self.hists[hist]);
                hist += 1;
            }
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = Registry::new();
        r.inc(names::SYBIL_CREATED);
        r.add(names::SYBIL_CREATED, 4);
        assert_eq!(r.get(names::SYBIL_CREATED), 5);
        r.set_gauge(names::LOAD_MAX, 9);
        r.set_gauge(names::LOAD_MAX, 7);
        assert_eq!(r.get(names::LOAD_MAX), 7);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut r = Registry::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            r.observe(names::TRANSFER_SIZE, v);
        }
        let h = r.hist(names::TRANSFER_SIZE);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1000 (512..=1023)
        assert_eq!(h.trimmed_len(), 11);
    }

    #[test]
    #[should_panic(expected = "unregistered metric name")]
    fn unknown_name_panics() {
        let mut r = Registry::new();
        r.inc("no_such_metric");
    }

    #[test]
    fn every_declared_name_resolves() {
        let r = Registry::new();
        for &(name, kind, _) in names::ALL {
            match kind {
                Kind::Histogram => {
                    assert_eq!(r.hist(name).count, 0);
                }
                _ => assert_eq!(r.get(name), 0),
            }
        }
    }
}
