//! Small statistics and unit-conversion helpers shared by experiments.

/// Converts a byte count moved over a duration into gigabits per second.
///
/// # Examples
///
/// ```
/// // 4096 bytes in 426 ns ≈ 77 Gbps (the paper's no-serialization echo).
/// let gbps = cf_sim::stats::gbps(4096, 426);
/// assert!((76.0..78.0).contains(&gbps));
/// ```
pub fn gbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / ns as f64
}

/// Converts requests completed over a duration into requests per second.
pub fn rps(requests: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    requests as f64 * 1e9 / ns as f64
}

/// Percent difference of `new` relative to `base`: `(new - base) / base * 100`.
pub fn percent_diff(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (new - base) / base * 100.0
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_matches_paper_anchor() {
        assert!((gbps(4096, 426) - 76.92).abs() < 0.1);
        assert_eq!(gbps(100, 0), 0.0);
    }

    #[test]
    fn rps_basic() {
        assert_eq!(rps(1000, 1_000_000_000), 1000.0);
        assert_eq!(rps(5, 0), 0.0);
    }

    #[test]
    fn percent_diff_signs() {
        // Float arithmetic: compare with an epsilon, not exact bits.
        assert!((percent_diff(115.4, 100.0) - 15.4).abs() < 1e-9);
        assert!(percent_diff(90.0, 100.0) < 0.0);
        assert_eq!(percent_diff(1.0, 0.0), 0.0);
    }

    #[test]
    fn mean_empty_and_nonempty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
