//! Order statistics: the median, the "highest percentile with at least
//! ten samples beyond it" rule for tails, and the quartile rule the A/A
//! comparison shares with the driver.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
/// Computed in whole per-mille so that p99.9 of 10 000 is rank 9990, not
/// the 9991 that `99.9 / 100.0` rounds up to.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100, one decimal) of an
/// ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least
/// ten samples beyond it, or `None` when even p75 does not (fewer than
/// 40 samples): a tail read off fewer samples is one outlier, not a
/// percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Quartiles exactly as Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method) computes them — the rule the driver uses
/// for run-to-run spread. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread figure the
/// driver holds against each metric's bound.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    ((q3 - q1) / q2).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 39 samples: p75 leaves 39 - ceil(29.25) = 9 beyond -> nothing.
        assert_eq!(highest_supported_percentile(39), None);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // p99 of 1000 ascending samples is the 990th.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 99.0), 990.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(percentile_sorted(&xs, 100.0), 1000.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(iqr_share(&xs), 1.0);
        assert_eq!(iqr_share(&[7.0, 7.0, 7.0]), 0.0);
    }
}
