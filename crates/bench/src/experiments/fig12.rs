//! Figure 12 + Table 4: the hybrid threshold ablation (§6.5.1).
//!
//! Cornflakes with its hybrid 512-byte threshold vs "only scatter-gather"
//! (threshold 0) vs "only copy" (threshold ∞). Paper results: on the
//! Twitter trace the hybrid is 2.3–3.9 % ahead of scatter-gather-only at
//! the ~50 µs SLO (and far ahead of copy-only); on the Google workload the
//! hybrid wins by 1.4–14.0 % once responses carry more than one entry.

use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;

use super::fig06::google_krps;
use super::fig07::sweep_twitter;
use crate::harness::Trace;
use crate::tables::{f1, pct, print_expectation, print_slo_figure, print_table};

/// The three §6.5.1 configurations.
pub fn configs() -> [(&'static str, SerializationConfig); 3] {
    [
        ("Hybrid (512B)", SerializationConfig::hybrid()),
        (
            "Only scatter-gather",
            SerializationConfig::always_zero_copy(),
        ),
        ("Only copy", SerializationConfig::always_copy()),
    ]
}

/// Each configuration's name and Twitter service trace.
pub fn twitter(num_keys: u64) -> Vec<(&'static str, Trace)> {
    configs()
        .into_iter()
        .map(|(name, config)| (name, sweep_twitter(SerKind::Cornflakes, config, num_keys)))
        .collect()
}

/// Runs and prints the Figure 12 Twitter comparison.
pub fn run_twitter(num_keys: u64, slo_ns: u64) {
    print_slo_figure(
        "Figure 12: hybrid vs SG-only vs copy-only (Twitter trace)",
        "Config",
        slo_ns,
        &twitter(num_keys),
        ("hybrid vs SG-only", "+2.3% to +3.9% at the SLO", 0, 1),
    );
}

/// Runs the Table 4 Google comparison: hybrid vs SG-only for each list
/// length. Returns (length, hybrid krps, sg krps).
pub fn run_google(num_keys: u64, requests: u64) -> Vec<(usize, f64, f64)> {
    let mut results = Vec::new();
    for &max_fields in &[1usize, 4, 8, 16] {
        let hybrid = google_krps(
            SerKind::Cornflakes,
            SerializationConfig::hybrid(),
            num_keys,
            max_fields,
            requests,
        );
        let sg = google_krps(
            SerKind::Cornflakes,
            SerializationConfig::always_zero_copy(),
            num_keys,
            max_fields,
            requests,
        );
        results.push((max_fields, hybrid, sg));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(n, h, s)| {
            vec![
                format!("1-{n} vals"),
                f1(*h),
                f1(*s),
                pct((h - s) / s * 100.0),
            ]
        })
        .collect();
    print_table(
        "Table 4: hybrid vs only-scatter-gather (Google distribution, krps)",
        &["List length", "Hybrid", "SG-only", "Hybrid gain"],
        &rows,
    );
    print_expectation(
        "hybrid gain",
        "+1.4% to +14.0% with >1 scatter-gather entry",
        "see table",
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::median;

    #[test]
    fn hybrid_beats_both_extremes_on_twitter() {
        // Working set several times the scaled LLC, as in the paper. One
        // run: each rate is the median over the arrival seeds of a replay
        // over one 60,000-request trace, and two runs in one process read
        // within 0.02 % of each other.
        let r = twitter(40_000);
        let at_slo = |i: usize| median(&r[i].1.rps_at_p99_slo(80_000));
        let (hybrid, sg, copy) = (at_slo(0), at_slo(1), at_slo(2));
        assert!(
            hybrid > copy * 1.02,
            "hybrid {hybrid:.1} must clearly beat copy-only {copy:.1}"
        );
        let gain = (hybrid - sg) / sg * 100.0;
        assert!(
            (-0.5..25.0).contains(&gain),
            "hybrid-vs-SG gain {gain:.1}% (paper 2.3-3.9%; small positive expected)"
        );
    }

    #[test]
    fn hybrid_beats_sg_only_on_google() {
        // Small-object workload: SG-only wastes bookkeeping on tiny fields.
        let results = run_google(5_000, 400);
        for (n, hybrid, sg) in results {
            assert!(
                hybrid > sg,
                "1-{n} vals: hybrid {hybrid:.1} should beat SG-only {sg:.1}"
            );
            let gain = (hybrid - sg) / sg * 100.0;
            assert!(gain < 45.0, "1-{n} vals: gain {gain:.1}% implausible");
        }
    }
}
