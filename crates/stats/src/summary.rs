//! Order statistics and moments of a workload sample.

/// A summary of a sample of non-negative workloads (tasks per node).
///
/// Matches the columns of Table I in the paper: mean, median, and the
/// sample standard deviation σ, plus extremes and quartiles used by the
/// other experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator), the paper's σ.
    pub std_dev: f64,
    pub min: u64,
    pub max: u64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub p95: f64,
    pub p99: f64,
    pub total: u64,
}

impl Summary {
    /// Computes a summary of `values`. Returns `None` for an empty sample.
    pub fn from_u64s(values: &[u64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();

        let n = sorted.len();
        let total: u64 = sorted.iter().sum();
        let mean = total as f64 / n as f64;
        let var = if n > 1 {
            sorted
                .iter()
                .map(|&v| {
                    let d = v as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / (n - 1) as f64
        } else {
            0.0
        };

        Some(Summary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p25: percentile_sorted(&sorted, 25.0),
            p75: percentile_sorted(&sorted, 75.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            total,
        })
    }
}

/// Linear-interpolated percentile of an already-sorted slice.
///
/// Uses the standard "linear interpolation between closest ranks" method
/// (R-7, the numpy default): `h = (n−1)·p/100`.
///
/// # Panics
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0] as f64;
    }
    let h = (n - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

/// Averages a sequence of summaries column-wise — how the paper averages
/// "100 trials" into a single table row.
pub fn average_summaries(rows: &[Summary]) -> Option<Summary> {
    if rows.is_empty() {
        return None;
    }
    let k = rows.len() as f64;
    let avg = |f: fn(&Summary) -> f64| rows.iter().map(f).sum::<f64>() / k;
    Some(Summary {
        count: (rows.iter().map(|r| r.count).sum::<usize>() as f64 / k).round() as usize,
        mean: avg(|r| r.mean),
        std_dev: avg(|r| r.std_dev),
        min: (rows.iter().map(|r| r.min).sum::<u64>() as f64 / k).round() as u64,
        max: (rows.iter().map(|r| r.max).sum::<u64>() as f64 / k).round() as u64,
        median: avg(|r| r.median),
        p25: avg(|r| r.p25),
        p75: avg(|r| r.p75),
        p95: avg(|r| r.p95),
        p99: avg(|r| r.p99),
        total: (rows.iter().map(|r| r.total).sum::<u64>() as f64 / k).round() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::from_u64s(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::from_u64s(&[7]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.min, 7);
        assert_eq!(s.max, 7);
    }

    #[test]
    fn known_small_sample() {
        // 1..=5: mean 3, sample variance 2.5, median 3.
        let s = Summary::from_u64s(&[5, 3, 1, 2, 4]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert!((s.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.total, 15);
    }

    #[test]
    fn even_count_median_interpolates() {
        let s = Summary::from_u64s(&[1, 2, 3, 4]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 40.0);
        assert_eq!(percentile_sorted(&v, 50.0), 25.0);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_out_of_range() {
        percentile_sorted(&[1], 101.0);
    }

    #[test]
    fn averaging_summaries() {
        let a = Summary::from_u64s(&[0, 10]).unwrap();
        let b = Summary::from_u64s(&[10, 20]).unwrap();
        let avg = average_summaries(&[a, b]).unwrap();
        assert_eq!(avg.mean, 10.0);
        assert_eq!(avg.median, 10.0);
        assert_eq!(avg.count, 2);
        assert!(average_summaries(&[]).is_none());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s1 = Summary::from_u64s(&[9, 1, 5, 3, 7]).unwrap();
        let s2 = Summary::from_u64s(&[1, 3, 5, 7, 9]).unwrap();
        assert_eq!(s1, s2);
    }
}
