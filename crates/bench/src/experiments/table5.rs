//! Table 5: the combined serialize-and-send ablation (§6.5.2).
//!
//! With the optimization, the packet header, object header, and copied
//! fields share the first scatter-gather entry and no intermediate
//! scatter-gather array is materialized. Without it, the serialization
//! layer produces an SGA and the stack prepends a separate header entry.
//! Paper result: +7.7 % (Google 1–4 vals), +10.4 % (Twitter), +17.4 %
//! (YCSB 4 × 1024 B) — "crucial to squeeze the best performance out of the
//! scatter-gather hardware".

use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;

use super::fig03::microbench_gbps;
use super::fig06::google_krps;
use super::fig07::sweep_twitter;
use crate::tables::{f1, pct, print_expectation, print_table};

/// Runs Table 5. Returns [(workload, with, without, unit)].
pub fn run(num_keys: u64, requests: u64) -> Vec<(String, f64, f64, &'static str)> {
    let with_cfg = SerializationConfig::hybrid();
    let without_cfg = SerializationConfig::hybrid().without_serialize_and_send();
    let mut results = Vec::new();

    // Google 1-4 vals (krps).
    let g_with = google_krps(SerKind::Cornflakes, with_cfg, num_keys, 4, requests);
    let g_without = google_krps(SerKind::Cornflakes, without_cfg, num_keys, 4, requests);
    results.push(("Google 1-4 vals".to_string(), g_with, g_without, "krps"));

    // Twitter (max krps).
    let t_with = sweep_twitter(SerKind::Cornflakes, with_cfg, num_keys).rps() / 1e3;
    let t_without = sweep_twitter(SerKind::Cornflakes, without_cfg, num_keys).rps() / 1e3;
    results.push(("Twitter".to_string(), t_with, t_without, "krps"));

    // YCSB 4 x 1024 B (Gbps).
    let y_with = microbench_gbps(with_cfg, num_keys, 4, 1024, requests);
    let y_without = microbench_gbps(without_cfg, num_keys, 4, 1024, requests);
    results.push(("YCSB 1024x4".to_string(), y_with, y_without, "Gbps"));

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, w, wo, unit)| {
            vec![
                name.clone(),
                format!("{} {unit}", f1(*w)),
                format!("{} {unit}", f1(*wo)),
                pct((w - wo) / wo * 100.0),
            ]
        })
        .collect();
    print_table(
        "Table 5: combined serialize-and-send ablation",
        &["Workload", "With", "Without", "Gain"],
        &rows,
    );
    print_expectation("gain", "+7.7% to +17.4%", "see table");
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_and_send_always_helps() {
        let results = run(5_000, 400);
        for (name, with, without, _) in results {
            let gain = (with - without) / without * 100.0;
            assert!(
                gain > 2.0,
                "{name}: serialize-and-send should help (+{gain:.1}%)"
            );
            assert!(gain < 40.0, "{name}: gain {gain:.1}% implausible");
        }
    }
}
