//! Workload generators for the Cornflakes evaluation (paper §6.1.4).
//!
//! The paper's four workloads are reproduced from their published
//! distribution statistics (the original traces are proprietary or
//! multi-gigabyte downloads; `DESIGN.md` documents the substitution):
//!
//! - [`ycsb`] — the YCSB-C configuration: 1 M keys, Zipf(0.99) popularity,
//!   read-only, constant-size values (used by the §5 measurement study and
//!   the Redis command experiments).
//! - [`google`] — field sizes sampled from Google's fleetwide Protobuf
//!   study (Figure 4c of that paper): 34 % of fields ≤ 8 B, 94.9 % ≤ 512 B.
//!   Objects are linked lists of 1–16 such fields.
//! - [`twitter`] — a synthetic Twitter cache trace #4: Zipf-popular keys,
//!   ~32 % of read objects ≥ 512 B, ~8 % writes.
//! - [`cdn`] — a Tragen-style CDN "image" trace: object sizes 1 KB–116 MB
//!   with ≈ 20 KB mean, served as vectors of jumbo-frame-sized segments.
//!
//! All generators are deterministic (seeded [`cf_sim::rng::SplitMix64`]) so
//! experiment output is stable run to run. Value sizes are functions of the
//! key (hash-quantile sampling), so a store's contents are consistent no
//! matter in which order keys are touched.

#![forbid(unsafe_code)]

pub mod cdn;
pub mod google;
pub mod twitter;
pub mod ycsb;
pub mod zipf;

pub use cdn::CdnTrace;
pub use google::GoogleSizeDist;
pub use twitter::{TwitterConfig, TwitterOp, TwitterTrace};
pub use ycsb::{Ycsb, YcsbConfig};
pub use zipf::Zipf;

/// Formats key `id` as the evaluation's fixed-width key string
/// (30 bytes, YCSB-style).
pub fn key_string(id: u64) -> String {
    format!("user{id:026}")
}

/// Maps a 64-bit hash to a uniform f64 in [0, 1).
pub(crate) fn hash01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64-style avalanche hash for key → size derivations.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_string_is_30_bytes() {
        assert_eq!(key_string(0).len(), 30);
        assert_eq!(key_string(999_999).len(), 30);
        assert_ne!(key_string(1), key_string(2));
    }

    #[test]
    fn hash01_in_unit_interval() {
        for i in 0..1000u64 {
            let x = hash01(mix(i));
            assert!((0.0..1.0).contains(&x));
        }
    }
}
