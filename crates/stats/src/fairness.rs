//! Load-balance quality metrics.
//!
//! The paper argues qualitatively from histograms; to make "significantly
//! rebalance the workload" quantitative we track the three standard
//! fairness measures of the load-balancing literature.

/// Gini coefficient of a workload sample, in `[0, 1)`.
///
/// 0 = perfectly equal; → 1 as one node holds everything. Uses the
/// sorted-sample formula `G = (2·Σ i·x_i)/(n·Σ x_i) − (n+1)/n` with
/// 1-based ranks `i`.
pub fn gini(values: &[u64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let total: u128 = sorted.iter().map(|&v| v as u128).sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let weighted: u128 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u128 + 1) * v as u128)
        .sum();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Nearest-rank percentile of a sorted sample: the k-th smallest value
/// with `k = max(1, ceil(p·n/100))`, clamped to `p ∈ [0, 100]`.
/// Returns 0 for an empty sample. The metrics plane's load percentile
/// gauges read it.
pub fn percentile_sorted(sorted: &[u64], p: u64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len() as u64;
    if n == 0 {
        return 0;
    }
    let p = p.min(100);
    let k = (p * n).div_ceil(100).max(1);
    sorted[(k - 1) as usize]
}

/// Jain's fairness index, in `(0, 1]`: `(Σx)² / (n·Σx²)`.
///
/// 1 = perfectly equal; `1/n` when a single node holds everything.
/// Returns 1.0 for an all-zero (trivially fair) sample.
pub fn jain_index(values: &[u64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().map(|&v| v as f64).sum();
    if sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
    sum * sum / (n as f64 * sum_sq)
}

/// Coefficient of variation σ/μ (population σ). 0 = perfectly level.
/// Returns 0.0 for an empty or all-zero sample.
pub fn coefficient_of_variation(values: &[u64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_equal_sample_is_zero() {
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
    }

    #[test]
    fn gini_of_concentrated_sample_approaches_one() {
        // One of n holds everything: G = (n-1)/n.
        let mut v = vec![0u64; 99];
        v.push(1000);
        let g = gini(&v);
        assert!((g - 0.99).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn gini_edge_cases() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert_eq!(gini(&[42]), 0.0);
    }

    #[test]
    fn gini_known_half() {
        // [0, x]: G = 1/2.
        assert!((gini(&[0, 10]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jain_of_equal_is_one() {
        assert!((jain_index(&[3, 3, 3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_of_concentrated_is_one_over_n() {
        let mut v = vec![0u64; 9];
        v.push(100);
        assert!((jain_index(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
    }

    #[test]
    fn cov_zero_for_level_loads() {
        assert_eq!(coefficient_of_variation(&[4, 4, 4]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0, 0]), 0.0);
    }

    #[test]
    fn cov_known_value() {
        // [0, 2]: mean 1, pop σ = 1, CoV = 1.
        assert!((coefficient_of_variation(&[0, 2]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_order_balanced_before_skewed() {
        let balanced = [100u64, 110, 90, 105, 95];
        let skewed = [5u64, 0, 480, 10, 5];
        assert!(gini(&balanced) < gini(&skewed));
        assert!(jain_index(&balanced) > jain_index(&skewed));
        assert!(coefficient_of_variation(&balanced) < coefficient_of_variation(&skewed));
    }
}
