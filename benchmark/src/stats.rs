//! Order statistics over raw samples.
//!
//! Everything the benchmark reports as a median or a percentile is taken
//! from the exact samples, never from `cf_sim::Histogram`: its buckets are
//! 1.6 % wide, so a bucketed virtual-time percentile snaps to a grid and
//! can read identically on runs that in fact differ.

/// Percentiles the benchmark may report, lowest first, each with the
/// share of samples beyond it in parts per 10,000 (exact arithmetic:
/// `100.0 * (1.0 - 0.9)` is not 10).
pub const PERCENTILES: [(f64, usize); 5] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The highest entry of [`PERCENTILES`] with at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it; `None` when not even
/// the median has that many.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .filter(|(_, beyond)| n * beyond >= MIN_SAMPLES_BEYOND * 10_000)
        .map(|&(p, _)| p)
        .next_back()
}

/// Sorts `samples` in place and returns them (ascending).
pub fn sorted(samples: &mut [f64]) -> &[f64] {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Value at percentile `p` (0–100) of ascending `sorted`, interpolating
/// linearly between the two nearest order statistics.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    percentile(sorted(&mut v), 50.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spreads printed here are the ones the driver computes.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    [1, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative or above one where `j` was clamped: Python extrapolates.
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_over_median(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3, 7], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), [1.0, 3.0, 7.0]);
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert!((iqr_over_median(&ten) - 1.0).abs() < 1e-12);
    }
}
