//! Table 1 + Figure 6: the Google-distribution workload (§6.2.1).
//!
//! Values are linked lists of 1, 1–4, 1–8, or 1–16 fields with sizes from
//! Google's fleetwide Protobuf study (≈95 % below 512 B, so Cornflakes
//! mostly copies). Paper result (krps): Cornflakes within ~2 % of Protobuf
//! at 1 and 1–4 values, ahead of everything at 1–8 and 1–16; Cap'n Proto
//! trails throughout.

use cf_sim::MachineProfile;
use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;
use cf_workloads::{key_string, GoogleSizeDist, Zipf};

use crate::harness::{capacity, curve, KvBench};
use crate::tables::{f1, print_curve, print_expectation, print_table};

/// A `kind` server holding `num_keys` Google-distribution lists of
/// 1..=`max_fields` fields, and its Zipf(0.99) GET stream.
pub(crate) fn google_bench(
    kind: SerKind,
    config: SerializationConfig,
    num_keys: u64,
    max_fields: usize,
) -> (KvBench, Zipf) {
    let mut b = KvBench::new(MachineProfile::microbench(), kind, config);
    b.preload(num_keys, |id| {
        GoogleSizeDist::object_for_key(id, max_fields)
    });
    (b, Zipf::new(num_keys, 0.99, 0x60061e))
}

/// GETs the stream's next key.
fn get_next(b: &mut KvBench, zipf: &mut Zipf) -> u64 {
    let key = key_string(zipf.next());
    b.request(|c| c.send_get(&[key.as_bytes()]))
}

/// Max sustained krps for one (system, list-length) cell.
pub fn google_krps(
    kind: SerKind,
    config: SerializationConfig,
    num_keys: u64,
    max_fields: usize,
    requests: u64,
) -> f64 {
    let (mut b, mut zipf) = google_bench(kind, config, num_keys, max_fields);
    let sim = b.server_sim.clone();
    capacity(&sim, requests, requests / 10, |_| {
        get_next(&mut b, &mut zipf)
    })
    .rps()
        / 1e3
}

/// Runs Table 1 (max krps per system per list length). Returns
/// `result[system][length_idx]` in krps.
pub fn run_table1(num_keys: u64, requests: u64) -> Vec<(SerKind, Vec<f64>)> {
    let lengths = [1usize, 4, 8, 16];
    let mut results = Vec::new();
    for kind in SerKind::all() {
        let mut row = Vec::new();
        for &max_fields in &lengths {
            row.push(google_krps(
                kind,
                SerializationConfig::hybrid(),
                num_keys,
                max_fields,
                requests,
            ));
        }
        results.push((kind, row));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(kind, krps)| {
            let mut row = vec![kind.name().to_string()];
            row.extend(krps.iter().map(|&v| f1(v)));
            row
        })
        .collect();
    print_table(
        "Table 1: Google bytes distribution (max krps)",
        &["System", "1 val", "1-4 vals", "1-8 vals", "1-16 vals"],
        &rows,
    );
    let cf = &results[0].1;
    let proto = &results[1].1;
    print_expectation(
        "Cornflakes vs Protobuf",
        "within ~2% at 1 / 1-4 vals; ahead at 1-16 (441.2 vs 402.0 krps)",
        &format!(
            "ratios {:.3} / {:.3} / {:.3} / {:.3}",
            cf[0] / proto[0],
            cf[1] / proto[1],
            cf[2] / proto[2],
            cf[3] / proto[3]
        ),
    );
    results
}

/// Runs the Figure 6 throughput-latency sweep (1–8 values per list).
pub fn run_fig6_curves(num_keys: u64) {
    println!("\n=== Figure 6: throughput vs p99, Google 1-8 vals ===");
    for kind in SerKind::all() {
        let (mut b, mut zipf) = google_bench(kind, SerializationConfig::hybrid(), num_keys, 8);
        let sim = b.server_sim.clone();
        let trace = curve(&sim, |_| get_next(&mut b, &mut zipf));
        print_curve(kind.name(), &trace.points());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds_scaled_down() {
        let results = run_table1(6_000, 500);
        let krps: std::collections::HashMap<SerKind, &Vec<f64>> =
            results.iter().map(|(k, v)| (*k, v)).collect();
        let cf = krps[&SerKind::Cornflakes];
        let proto = krps[&SerKind::Protobuf];
        let capn = krps[&SerKind::CapnProto];
        // Cornflakes within 10 % of Protobuf on short lists...
        assert!(
            (cf[0] / proto[0] - 1.0).abs() < 0.10,
            "1 val: cf={} proto={}",
            cf[0],
            proto[0]
        );
        // ...and strictly ahead at 1-16 values.
        assert!(
            cf[3] > proto[3],
            "1-16 vals: cf={} proto={}",
            cf[3],
            proto[3]
        );
        // Cap'n Proto trails Cornflakes throughout (paper Table 1).
        for i in 0..4 {
            assert!(capn[i] < cf[i], "capn[{i}]={} cf={}", capn[i], cf[i]);
        }
        // Longer lists cost more per request for every system.
        for (_, row) in &results {
            assert!(row[0] > row[3]);
        }
    }
}
