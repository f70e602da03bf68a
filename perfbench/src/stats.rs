//! Order statistics for timing samples.

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Percentiles a timing's tail is chosen from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// A timing distribution as the benchmark reports it: the median, and
/// the tail — the highest percentile with at least ten samples beyond
/// it — together with that percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        let n = xs.len();
        let tail_pct = TAIL_CANDIDATES
            .iter()
            .copied()
            .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
            .unwrap_or(50.0);
        let p50 = median(xs);
        Timing {
            p50,
            // With too few samples for any higher percentile to keep
            // ten beyond it, the tail is the median itself.
            tail: if tail_pct > 50.0 {
                percentile(xs, tail_pct)
            } else {
                p50
            },
            tail_pct,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 990.0);
        assert_eq!(t.samples, 1000);
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Timing::of(&few).tail_pct, 75.0);
        assert_eq!(Timing::of(&few[..5]).tail_pct, 50.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Timing::of(&hundred).tail_pct, 90.0);
    }
}
