//! The YCSB-C workload (paper §6.1.4): read-only, Zipf(0.99) over 1 M keys.
//!
//! The generator draws keys only: each experiment sizes the values it
//! stores itself.

use crate::zipf::Zipf;

/// YCSB-C generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct YcsbConfig {
    /// Number of keys (the paper uses 1 M).
    pub num_keys: u64,
    /// Zipf exponent (the paper uses 0.99).
    pub theta: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            num_keys: 1_000_000,
            theta: 0.99,
        }
    }
}

/// The YCSB-C request generator.
#[derive(Clone, Debug)]
pub struct Ycsb {
    zipf: Zipf,
}

impl Ycsb {
    /// Creates a generator.
    pub fn new(config: YcsbConfig, seed: u64) -> Self {
        Ycsb {
            zipf: Zipf::new(config.num_keys, config.theta, seed),
        }
    }

    /// Next key to query.
    pub fn next_key(&mut self) -> u64 {
        self.zipf.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = YcsbConfig::default();
        assert_eq!(c.num_keys, 1_000_000);
        assert_eq!(c.theta, 0.99);
    }

    #[test]
    fn keys_in_range_and_deterministic() {
        let mut a = Ycsb::new(YcsbConfig::default(), 42);
        let mut b = Ycsb::new(YcsbConfig::default(), 42);
        for _ in 0..1000 {
            let k = a.next_key();
            assert!(k < 1_000_000);
            assert_eq!(k, b.next_key());
        }
    }
}
