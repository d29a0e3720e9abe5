//! Figure 7: the Twitter cache trace on the custom KV store (§6.2.1).
//!
//! About 32 % of reads touch objects of 512 B or more and 8 % of requests
//! are puts. Paper result: Cornflakes achieves 15.4 % higher throughput
//! than Protobuf at a ~53 µs p99 SLO, and beats all other baselines.

use cf_sim::MachineProfile;
use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;
use cf_workloads::{key_string, TwitterConfig, TwitterOp, TwitterTrace};

use crate::harness::{curve, Curve, KvBench, Load};
use crate::tables::{f1, pct, print_curve, print_expectation, print_table};

/// Runs the Figure 7 sweep for one system; returns its curve.
pub fn sweep_twitter(
    kind: SerKind,
    config: SerializationConfig,
    num_keys: u64,
    duration_ns: u64,
) -> Curve {
    let mut b = KvBench::new(MachineProfile::microbench(), kind, config);
    b.preload(num_keys, |id| vec![TwitterTrace::value_size(id)]);
    let mut trace = TwitterTrace::new(
        TwitterConfig {
            num_keys,
            ..TwitterConfig::default()
        },
        0x7A17,
    );
    let put_scratch = vec![0xB0u8; 8192];
    let load = Load {
        seed: 7,
        warmup: 2_000,
        probe: 3_000,
        lo: 0.4,
        hi: 0.99,
        steps: 6,
        duration_ns,
    };
    let sim = b.server_sim.clone();
    curve(&sim, &load, |_| {
        b.request(|c| match trace.next() {
            TwitterOp::Get { key } => c.send_get(&[key_string(key).as_bytes()]),
            TwitterOp::Put { key, size } => {
                c.send_put(key_string(key).as_bytes(), &put_scratch[..size])
            }
        })
    })
}

/// Runs Figure 7 for all systems, printing curves and the SLO comparison.
pub fn run(num_keys: u64, duration_ns: u64, slo_ns: u64) -> Vec<(SerKind, Curve)> {
    let mut results = Vec::new();
    for kind in SerKind::all() {
        let sweep = sweep_twitter(kind, SerializationConfig::hybrid(), num_keys, duration_ns);
        results.push((kind, sweep));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(kind, sweep)| {
            vec![
                kind.name().to_string(),
                f1(sweep.max_achieved_rps() / 1e3),
                f1(sweep.rps_at_p99_slo(slo_ns) / 1e3),
            ]
        })
        .collect();
    print_table(
        "Figure 7: Twitter cache trace (custom KV store)",
        &[
            "System",
            "Max krps",
            &format!("krps @ p99<={}us", slo_ns / 1000),
        ],
        &rows,
    );
    let cf = results[0].1.rps_at_p99_slo(slo_ns);
    let proto = results[1].1.rps_at_p99_slo(slo_ns);
    print_expectation(
        "Cornflakes vs Protobuf at the SLO",
        "+15.4%",
        &pct((cf - proto) / proto * 100.0),
    );
    for (kind, sweep) in &results {
        print_curve(kind.name(), sweep);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cornflakes_beats_baselines_on_twitter() {
        let mut caps = Vec::new();
        for kind in SerKind::all() {
            let sweep = sweep_twitter(kind, SerializationConfig::hybrid(), 10_000, 3_000_000);
            caps.push((kind, sweep.max_achieved_rps()));
        }
        let cf = caps[0].1;
        for &(kind, cap) in &caps[1..] {
            assert!(cf > cap, "Cornflakes {cf} should beat {kind:?} {cap}");
        }
        // The margin over Protobuf should be visible but not absurd
        // (paper: 15.4 % at the SLO).
        let proto = caps[1].1;
        let gain = (cf - proto) / proto * 100.0;
        assert!(
            (2.0..60.0).contains(&gain),
            "Cornflakes vs Protobuf gain {gain:.1}% out of plausible range"
        );
    }
}
