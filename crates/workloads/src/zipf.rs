//! Zipf-distributed key popularity.
//!
//! YCSB's scrambled-Zipfian key choice: ranks follow a Zipf(θ) law and are
//! scrambled by a hash so popular keys are spread across the key space
//! (matching YCSB's `ScrambledZipfianGenerator` and avoiding artificial
//! locality between adjacent hot keys).

use cf_sim::rng::SplitMix64;

use crate::mix;

/// A Zipf(θ) sampler over `[0, n)` using the Gray et al. analytic method
/// (the same one YCSB uses), O(1) per sample after O(1) setup.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: SplitMix64,
}

impl Zipf {
    /// Creates a sampler over `n` items with exponent `theta` (YCSB-C uses
    /// 0.99). Ranks are scrambled across the key space.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in (0, 1).
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            rng: SplitMix64::new(seed),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin tail approximation above.
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // ∫ x^-θ dx from EXACT to n plus a midpoint correction.
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
            sum += 0.5 * (a.powf(-theta) + b.powf(-theta)) * 0.5;
        }
        sum
    }

    /// Next Zipf-distributed key in `[0, n)`.
    #[allow(clippy::should_implement_trait)] // fallible-free, by-value sampler
    pub fn next(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix(rank.min(self.n - 1)) % self.n
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let mut z = Zipf::new(1000, 0.99, 1);
        for _ in 0..10_000 {
            assert!(z.next() < 1000);
        }
    }

    #[test]
    fn scrambled_head_is_heavy() {
        let mut z = Zipf::new(1_000_000, 0.99, 2);
        let hottest = mix(0) % z.n();
        let n = 100_000;
        let hot = (0..n).filter(|_| z.next() == hottest).count();
        // Rank 0 should get roughly 1/zeta(n) ≈ 6-7 % of traffic.
        let frac = hot as f64 / n as f64;
        assert!((0.03..0.15).contains(&frac), "rank-0 fraction {frac}");
    }

    #[test]
    fn skew_concentrates_on_few_keys() {
        let mut z = Zipf::new(1_000_000, 0.99, 3);
        let n = 200_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(z.next()).or_insert(0usize) += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top100: usize = freq.iter().take(100).sum();
        let frac = top100 as f64 / n as f64;
        assert!(
            frac > 0.3,
            "top-100 keys should dominate a Zipf(0.99) stream, got {frac}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Zipf::new(1000, 0.9, 7);
        let mut b = Zipf::new(1000, 0.9, 7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let mut z = Zipf::new(1_000_000, 0.99, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(z.next());
        }
        // Scrambled hot keys should span the key space, not cluster at 0.
        let max = *seen.iter().max().unwrap();
        assert!(max > 500_000, "scrambled keys should reach high ids");
    }
}
