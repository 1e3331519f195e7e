//! Order statistics over latency samples and over sets of runs.

/// The percentile ladder `highest_supported` chooses from.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest rank (1-based) of `pct` among `n` samples: `⌈pct/100 · n⌉`,
/// with a guard so that 99.9 % of 10 000 is 9 990 and not, by one ulp of
/// floating error, 9 991.
fn rank(n: usize, pct: f64) -> usize {
    (((pct / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pct` among `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n.max(1), pct).min(n)
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it — a tail read off fewer samples is one outlier's value, not a
/// percentile. `None` when even the median is unsupported (n < 20).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the driver judges spreads with that function, so `--selfcheck` must too.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(19_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(samples_beyond(100, 99.0), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
