//! A synthetic Twitter cache trace (paper §6.1.4, cluster #4).
//!
//! The paper reports the properties that matter for the hybrid tradeoff:
//! "about 32 % of the requests query objects larger than 512 \[bytes\], and
//! about 8 % of requests are put requests", with objects larger than an MTU
//! split into MTU-sized pieces. We synthesize a trace with exactly those
//! marginals: Zipf-popular keys, per-key sizes drawn (deterministically per
//! key) from a piecewise distribution with P(size ≥ 512) ≈ 0.32 under the
//! *request* distribution, and an 8 % write ratio.

use cf_sim::rng::SplitMix64;

use crate::zipf::Zipf;
use crate::{hash01, mix};

/// Size buckets: (cumulative probability, low, high). Skewed small like
/// the published Twitter cluster CDFs, with 32 % of requests ≥ 512 B.
const SIZE_BUCKETS: &[(f64, usize, usize)] = &[
    (0.22, 16, 64),
    (0.46, 65, 256),
    (0.68, 257, 511),
    (0.87, 512, 2048),
    (0.97, 2049, 4096),
    (1.0, 4097, 8192),
];

/// One trace operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwitterOp {
    /// Read the object.
    Get {
        /// Key id.
        key: u64,
    },
    /// Write (replace) the object.
    Put {
        /// Key id.
        key: u64,
        /// New value size in bytes.
        size: usize,
    },
}

/// Zipf exponent for key popularity.
const THETA: f64 = 0.75;
/// Fraction of put requests.
const PUT_FRACTION: f64 = 0.08;

/// Configuration for the synthetic Twitter trace.
#[derive(Clone, Copy, Debug)]
pub struct TwitterConfig {
    /// Number of distinct keys pre-loaded (the paper pre-loads the first
    /// 4 M unique keys; we default lower to keep memory reasonable while
    /// still exceeding any simulated cache).
    pub num_keys: u64,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            num_keys: 1_000_000,
        }
    }
}

/// The synthetic Twitter cache trace generator.
#[derive(Clone, Debug)]
pub struct TwitterTrace {
    zipf: Zipf,
    rng: SplitMix64,
}

impl TwitterTrace {
    /// Creates a generator.
    pub fn new(config: TwitterConfig, seed: u64) -> Self {
        TwitterTrace {
            zipf: Zipf::new(config.num_keys, THETA, seed),
            rng: SplitMix64::new(seed ^ 0x7717),
        }
    }

    /// The size of `key`'s current value: deterministic hash-quantile
    /// sampling, so store contents are reproducible.
    pub fn value_size(key: u64) -> usize {
        Self::size_from_u(hash01(mix(key ^ 0x51CE)))
    }

    fn size_from_u(u: f64) -> usize {
        let mut prev = 0.0;
        for &(p, lo, hi) in SIZE_BUCKETS {
            if u <= p {
                let frac = (u - prev) / (p - prev);
                return lo + ((hi - lo) as f64 * frac).round() as usize;
            }
            prev = p;
        }
        SIZE_BUCKETS.last().expect("nonempty").2
    }

    /// Next operation.
    #[allow(clippy::should_implement_trait)] // fallible-free, by-value sampler
    pub fn next(&mut self) -> TwitterOp {
        let key = self.zipf.next();
        if self.rng.next_bool(PUT_FRACTION) {
            TwitterOp::Put {
                key,
                size: Self::value_size(key),
            }
        } else {
            TwitterOp::Get { key }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginals_match_paper() {
        let mut t = TwitterTrace::new(TwitterConfig::default(), 5);
        let n = 100_000;
        let mut puts = 0usize;
        let mut big_gets = 0usize;
        let mut gets = 0usize;
        for _ in 0..n {
            match t.next() {
                TwitterOp::Put { .. } => puts += 1,
                TwitterOp::Get { key } => {
                    gets += 1;
                    if TwitterTrace::value_size(key) >= 512 {
                        big_gets += 1;
                    }
                }
            }
        }
        let put_frac = puts as f64 / n as f64;
        assert!((0.07..0.09).contains(&put_frac), "puts={put_frac}");
        let big_frac = big_gets as f64 / gets as f64;
        assert!(
            (0.27..0.37).contains(&big_frac),
            "P(get ≥ 512B) = {big_frac}, paper reports ≈ 0.32"
        );
    }

    #[test]
    fn sizes_in_range_and_deterministic() {
        for k in 0..10_000u64 {
            let s = TwitterTrace::value_size(k);
            assert!((16..=8192).contains(&s));
            assert_eq!(s, TwitterTrace::value_size(k));
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let mut a = TwitterTrace::new(TwitterConfig::default(), 9);
        let mut b = TwitterTrace::new(TwitterConfig::default(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }
}
