//! Load-distribution aggregates: [`gini_ppm_from_sums`] turns the
//! exact integer sums of a sorted sweep into the integer Gini the
//! sample stream carries.

/// Integer Gini in parts-per-million from the exact aggregates of an
/// ascending sample — count `n`, total `T = Σ x_i` and rank-weighted
/// sum `W = Σ (i+1)·x_i` — for the float-free JSONL sample stream:
/// `⌊10⁶·(2W − T·(n+1)) / (n·T)⌋`. The numerator is non-negative
/// because `W` is smallest, at `T·(n+1)/2`, when all loads are equal.
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

    #[test]
    fn gini_ppm_is_zero_for_level_loads_and_half_for_zero_and_x() {
        // Seven loads of 42: W = 42·28, T = 294, n = 7.
        assert_eq!(gini_ppm_from_sums(7, 294, 42 * 28), 0);
        // [0, 10]: G = 0.5 exactly.
        assert_eq!(gini_ppm_from_sums(2, 10, 20), 500_000);
        assert_eq!(gini_ppm_from_sums(0, 0, 0), 0);
    }
}
