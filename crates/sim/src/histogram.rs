//! Log-bucketed latency histogram with quantile queries.
//!
//! The paper records round-trip times in a histogram and reports p99 (§6.1).
//! This implementation uses HDR-style buckets: for each power of two there
//! are [`SUB_BUCKETS`] linear sub-buckets, bounding relative quantile error
//! to `1 / SUB_BUCKETS` (< 2 %) while keeping recording O(1) and allocation
//! free after construction.

/// Linear sub-buckets per power-of-two bucket.
pub const SUB_BUCKETS: usize = 64;

/// Number of power-of-two buckets: covers values up to 2^40 ns ≈ 18 minutes.
const POW_BUCKETS: usize = 41;

/// A latency histogram over `u64` nanosecond values.
///
/// # Examples
///
/// ```
/// let mut h = cf_sim::Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((480..=520).contains(&p50));
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; POW_BUCKETS * SUB_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        // Values below SUB_BUCKETS are recorded exactly in the first bucket
        // group; above that, `exp` selects the power-of-two group and the top
        // bits below the leading one select the sub-bucket.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros() as usize; // >= 6
        let shift = exp - SUB_BUCKETS.trailing_zeros() as usize; // exp - 6
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        (exp - 5) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of a bucket index.
    fn bucket_value(idx: usize) -> u64 {
        let group = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if group == 0 {
            return sub;
        }
        let exp = group + 5;
        let shift = exp - 6;
        ((1u64 << 6) | sub) << shift
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_of(value).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within one bucket of exact.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Shorthand for `quantile(0.5)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.03, "q={q} got={got} expect={expect}");
        }
    }

    #[test]
    fn mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert_eq!(h.mean(), 30.0);
    }

    #[test]
    fn huge_values_saturate_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantile_on_empty_is_zero_at_any_q() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(4_321);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 4_321);
        assert_eq!(h.max(), 4_321);
        assert_eq!(h.mean(), 4_321.0);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let got = h.quantile(q);
            // One bucket of error below, clamped to max above.
            assert!(got <= 4_321, "q={q} got={got}");
            assert!((4_321 - got) as f64 / 4_321.0 <= 1.0 / SUB_BUCKETS as f64);
        }
    }

    #[test]
    fn reset_restores_empty_state_and_allows_reuse() {
        let mut h = Histogram::new();
        for v in [1u64, 500, 1_000_000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(1.0), 0);
        // Records after reset behave like a fresh histogram (min is not
        // stuck at the pre-reset value).
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        // bucket_value(bucket_of(v)) must never exceed v and must be within
        // 1/SUB_BUCKETS relative error for large v.
        for shift in 6..30 {
            for off in [0u64, 1, 17, 63] {
                let v = (1u64 << shift) + off * (1 << (shift - 6));
                let idx = Histogram::bucket_of(v);
                let rep = Histogram::bucket_value(idx);
                assert!(rep <= v, "v={v} rep={rep}");
                assert!((v - rep) as f64 / v as f64 <= 1.0 / 64.0 + 1e-9);
            }
        }
    }
}
