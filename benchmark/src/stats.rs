//! Order statistics over latency samples and completion times.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank of percentile `pct` (1..=100) among `n` samples, 1-based.
/// Integer arithmetic: `0.99 * n` in floating point can round up past an
/// exact rank.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `pct` in 1..=100.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `pct`.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// Median of unsorted floats (mean of the middle two when even).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond_it() {
        // 1000 samples: ranks 991..=1000 lie beyond p99 -> exactly 10
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(samples_beyond(12, 50), 6);
        assert_eq!(samples_beyond(0, 99), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
