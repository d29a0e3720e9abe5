//! Figure 7: the Twitter cache trace on the custom KV store (§6.2.1).
//!
//! About 32 % of reads touch objects of 512 B or more and 8 % of requests
//! are puts. Paper result: Cornflakes achieves 15.4 % higher throughput
//! than Protobuf at a ~53 µs p99 SLO, and beats all other baselines.

use cf_sim::MachineProfile;
use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;
use cf_workloads::{key_string, TwitterConfig, TwitterOp, TwitterTrace};

use crate::harness::{curve, KvBench, Trace};
use crate::tables::print_slo_figure;

/// A `kind` server with `config` holding `num_keys` Twitter values.
pub(crate) fn twitter_bench(kind: SerKind, config: SerializationConfig, num_keys: u64) -> KvBench {
    let mut b = KvBench::new(MachineProfile::microbench(), kind, config);
    b.preload(num_keys, |id| vec![TwitterTrace::value_size(id)]);
    b
}

/// Runs the Figure 7 workload for one system; returns its service trace.
pub fn sweep_twitter(kind: SerKind, config: SerializationConfig, num_keys: u64) -> Trace {
    let mut b = twitter_bench(kind, config, num_keys);
    let mut ops = TwitterTrace::new(TwitterConfig { num_keys }, 0x7A17);
    let put_scratch = vec![0xB0u8; 8192];
    let sim = b.server_sim.clone();
    curve(&sim, |_| {
        b.request(|c| match ops.next() {
            TwitterOp::Get { key } => c.send_get(&[key_string(key).as_bytes()]),
            TwitterOp::Put { key, size } => {
                c.send_put(key_string(key).as_bytes(), &put_scratch[..size])
            }
        })
    })
}

/// Runs Figure 7 for all systems, printing curves and the SLO comparison.
pub fn run(num_keys: u64, slo_ns: u64) {
    let systems: Vec<_> = SerKind::all()
        .into_iter()
        .map(|kind| {
            let trace = sweep_twitter(kind, SerializationConfig::hybrid(), num_keys);
            (kind.name(), trace)
        })
        .collect();
    print_slo_figure(
        "Figure 7: Twitter cache trace (custom KV store)",
        "System",
        slo_ns,
        &systems,
        ("Cornflakes vs Protobuf at the SLO", "+15.4%", 0, 1),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::median;

    #[test]
    fn cornflakes_beats_baselines_on_twitter() {
        let kinds = SerKind::all();
        let traces = kinds.map(|kind| sweep_twitter(kind, SerializationConfig::hybrid(), 10_000));
        let cf = traces[0].rps();
        for (kind, trace) in kinds.iter().zip(&traces).skip(1) {
            let cap = trace.rps();
            assert!(cf > cap, "Cornflakes {cf} should beat {kind:?} {cap}");
        }
        // The margin over Protobuf should be visible but not absurd
        // (paper: 15.4 % at the SLO).
        let proto = traces[1].rps();
        let gain = (cf - proto) / proto * 100.0;
        assert!(
            (2.0..60.0).contains(&gain),
            "Cornflakes vs Protobuf gain {gain:.1}% out of plausible range"
        );
        // The paper's claim itself: ahead at the 53 µs SLO.
        let at_slo = |i: usize| median(&traces[i].rps_at_p99_slo(53_000));
        let (cf, proto) = (at_slo(0), at_slo(1));
        assert!(
            cf > proto,
            "at the SLO: Cornflakes {cf} vs Protobuf {proto}"
        );
    }
}
