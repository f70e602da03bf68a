//! Closed-form theory of random arcs on a circle.
//!
//! When `n` node IDs are dropped uniformly at random on the ring, the arc
//! lengths (fractions of the circle) are distributed like the spacings of
//! `n` uniform points: each arc is `Beta(1, n−1)`-distributed with mean
//! `1/n`, and for large `n` is well approximated by an exponential with
//! rate `n`. With `T` tasks placed uniformly, a node's expected workload
//! is `T·(arc length)`, which explains every number in Table I:
//!
//! * the **median** workload is `T/n · ln 2 ≈ 0.693·T/n` (the median of an
//!   exponential), e.g. 692.3 for `T = 10⁶, n = 10³`;
//! * the **σ** is ≈ the mean `T/n` (exponential: σ = mean), e.g. ≈ 997;
//! * the **max** workload is ≈ `T·H_n/n ≈ T·ln n / n`, which fixes the
//!   no-strategy runtime factor at ≈ `ln n` (7.5 at n=1000, 5.0 at n=100).

/// Harmonic number `H_n = Σ_{k=1..n} 1/k`.
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n < 10_000 {
        (1..=n).map(|k| 1.0 / k as f64).sum()
    } else {
        // Asymptotic expansion: ln n + γ + 1/2n − 1/12n².
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        let nf = n as f64;
        nf.ln() + EULER_GAMMA + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

/// Expected **median** workload `T/n · ln 2` — the "Median Workload"
/// column of Table I.
pub fn expected_median_load(nodes: u64, tasks: u64) -> f64 {
    tasks as f64 / nodes as f64 * std::f64::consts::LN_2
}

/// The no-strategy runtime factor predicted by theory: the straggler
/// needs `T·H_n/n` ticks while the ideal runtime is `T/n`, so the factor
/// is simply `H_n`.
pub fn predicted_baseline_runtime_factor(nodes: u64) -> f64 {
    harmonic(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_asymptotic_matches_exact_at_crossover() {
        // Compare the direct sum and the expansion near the switch point.
        let exact: f64 = (1..=20_000u64).map(|k| 1.0 / k as f64).sum();
        let approx = harmonic(20_000);
        assert!((exact - approx).abs() < 1e-9);
    }

    #[test]
    fn table1_median_prediction() {
        // Paper Table I: 1000 nodes, 1e6 tasks -> median 692.3.
        let m = expected_median_load(1000, 1_000_000);
        assert!((m - 693.1).abs() < 1.0, "got {m}");
        // 10000 nodes, 1e5 tasks -> median 7.0 in the paper.
        let m2 = expected_median_load(10_000, 100_000);
        assert!((m2 - 6.93).abs() < 0.1, "got {m2}");
    }

    #[test]
    fn baseline_factor_matches_paper_magnitudes() {
        // Paper Table II row churn=0: 7.476 for n=1000, ~5.02 for n=100.
        let f1000 = predicted_baseline_runtime_factor(1000);
        let f100 = predicted_baseline_runtime_factor(100);
        assert!((f1000 - 7.48).abs() < 0.2, "got {f1000}");
        assert!((f100 - 5.19).abs() < 0.2, "got {f100}");
    }
}
