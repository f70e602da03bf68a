//! Linear and logarithmic histograms of workload samples.
//!
//! The paper's figures are all histograms of "tasks per node": Figure 1
//! uses logarithmic task bins; Figures 4–14 use linear bins and compare
//! two networks side by side. Both flavors here produce plain
//! `(bin, count)` rows that the viz crate renders to ASCII/CSV/SVG.

/// A linear-binned histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Histogram {
    /// Inclusive lower edge of bin 0.
    pub origin: u64,
    /// Width of every bin (> 0).
    pub bin_width: u64,
    /// `counts[i]` covers `[origin + i·w, origin + (i+1)·w)`.
    pub counts: Vec<u64>,
    /// Samples below `origin` (should stay 0 in our use).
    pub underflow: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` bins of width `bin_width` starting
    /// at `origin`; samples beyond the top edge are clamped into the last
    /// bin so mass is never silently dropped.
    ///
    /// # Panics
    /// Panics if `bin_width == 0` or `bins == 0`.
    pub fn build(values: &[u64], origin: u64, bin_width: u64, bins: usize) -> Histogram {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        let mut counts = vec![0u64; bins];
        let mut underflow = 0;
        for &v in values {
            if v < origin {
                underflow += 1;
                continue;
            }
            let idx = ((v - origin) / bin_width) as usize;
            counts[idx.min(bins - 1)] += 1;
        }
        Histogram {
            origin,
            bin_width,
            counts,
            underflow,
        }
    }

    /// Picks a bin width so that `max(values)` lands in the last of
    /// roughly `target_bins` bins, then builds the histogram from zero.
    pub fn auto(values: &[u64], target_bins: usize) -> Histogram {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (max / target_bins.max(1) as u64).max(1);
        let bins = (max / width + 1) as usize;
        Histogram::build(values, 0, width, bins)
    }

    /// Total number of binned samples (excluding underflow).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(lower_edge, upper_edge, count)` rows.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let lo = self.origin + i as u64 * self.bin_width;
                (lo, lo + self.bin_width, c)
            })
            .collect()
    }
}

/// A base-2 logarithmic histogram: bin `k ≥ 1` covers `[2^(k−1), 2^k)`,
/// bin 0 counts exact zeros. Matches the paper's Figure 1, which spans
/// workloads from idle nodes to >10⁴ tasks on a log axis.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogHistogram {
    /// `counts[0]` = zeros; `counts[k]` = samples in `[2^(k−1), 2^k)`.
    pub counts: Vec<u64>,
}

impl LogHistogram {
    /// Builds the histogram; the vector grows to fit the largest sample.
    pub fn build(values: &[u64]) -> LogHistogram {
        let mut counts: Vec<u64> = Vec::new();
        for &v in values {
            let bin = if v == 0 {
                0
            } else {
                (64 - v.leading_zeros()) as usize
            };
            if counts.len() <= bin {
                counts.resize(bin + 1, 0);
            }
            counts[bin] += 1;
        }
        LogHistogram { counts }
    }

    /// `(lower, upper_exclusive, count)` rows; the zero bin reports
    /// `(0, 1, zeros)`.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                if k == 0 {
                    (0, 1, c)
                } else {
                    (1u64 << (k - 1), 1u64 << k, c)
                }
            })
            .collect()
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_places_values() {
        let h = Histogram::build(&[0, 5, 9, 10, 15, 99], 0, 10, 3);
        // Bins: [0,10) [10,20) [20,30)+clamped
        assert_eq!(h.counts, vec![3, 2, 1]);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn overflow_clamps_into_last_bin() {
        let h = Histogram::build(&[1000], 0, 10, 5);
        assert_eq!(*h.counts.last().unwrap(), 1);
    }

    #[test]
    fn underflow_counted_separately() {
        let h = Histogram::build(&[5, 15], 10, 10, 2);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_bin_width_rejected() {
        Histogram::build(&[1], 0, 0, 1);
    }

    #[test]
    fn rows_report_edges() {
        let h = Histogram::build(&[0, 10], 0, 10, 2);
        assert_eq!(h.rows(), vec![(0, 10, 1), (10, 20, 1)]);
    }

    #[test]
    fn auto_covers_max() {
        let vals = [0u64, 3, 17, 999];
        let h = Histogram::auto(&vals, 10);
        assert_eq!(h.total(), 4);
        // Max value must not be clamped out of range: last bin holds it.
        let rows = h.rows();
        assert!(rows.last().unwrap().2 >= 1 || rows.iter().any(|r| r.2 > 0));
        assert_eq!(h.rows().iter().map(|r| r.2).sum::<u64>(), 4);
    }

    #[test]
    fn log_bins_are_powers_of_two() {
        let h = LogHistogram::build(&[0, 1, 2, 3, 4, 1024]);
        // zeros:1; [1,2):1; [2,4):2; [4,8):1; ... [1024,2048):1
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[11], 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn log_rows_edges() {
        let h = LogHistogram::build(&[0, 1, 7]);
        let rows = h.rows();
        assert_eq!(rows[0], (0, 1, 1));
        assert_eq!(rows[1], (1, 2, 1));
        assert_eq!(rows[3], (4, 8, 1));
    }

    #[test]
    fn log_histogram_of_empty() {
        let h = LogHistogram::build(&[]);
        assert_eq!(h.total(), 0);
        assert!(h.rows().is_empty());
    }
}
