//! Figure 2: the motivating echo experiment (§2.2).
//!
//! A single-core echo server deserializes and reserializes a list with two
//! 2048-byte elements under seven approaches. The paper's anchors: no
//! serialization 77 Gbps, raw zero-copy 48 Gbps, one-copy 28 Gbps, two-copy
//! 23 Gbps, and the three libraries 13–15 Gbps.

use cf_mem::PoolConfig;
use cf_net::UdpStack;
use cf_sim::{LoadPoint, MachineProfile};
use cornflakes_core::SerializationConfig;

use cf_kv::client::SERVER_PORT;
use cf_kv::echo::{client, EchoKind, EchoServer};
use cf_kv::msg_type;

use crate::harness::{curve, Curve, Load, Pair};
use crate::tables::{f1, print_curve, print_expectation, print_table};

/// The echo fixture of one variant: a client stack and the echo server.
fn echo_bench(kind: EchoKind) -> Pair<UdpStack, EchoServer> {
    Pair::on_wire(
        MachineProfile::cloudlab_c6525(),
        SERVER_PORT,
        SerializationConfig::hybrid(),
        PoolConfig::default(),
        |stack| stack,
        |stack| EchoServer::new(stack, kind),
    )
}

/// One variant's results.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// The variant.
    pub kind: EchoKind,
    /// Maximum achieved payload throughput (Gbps), the capacity probe's
    /// included.
    pub max_gbps: f64,
    /// The throughput-latency curve.
    pub curve: Curve,
}

/// Runs Figure 2 and returns per-variant results (also printed).
pub fn run(duration_ns: u64) -> Vec<VariantResult> {
    let fields = vec![vec![0x5Au8; 2048], vec![0xA5u8; 2048]];
    let load = Load {
        seed: 2,
        warmup: 500,
        probe: 4_000,
        lo: 0.3,
        hi: 0.99,
        steps: 6,
        duration_ns,
    };
    let mut results = Vec::new();
    for kind in EchoKind::figure2() {
        let mut bench = echo_bench(kind);
        let payload = client::request(kind, &bench.client, &fields);
        let sim = bench.server_sim.clone();
        let curve = curve(&sim, &load, |_| {
            bench.round_trip(msg_type::ECHO, &payload, EchoServer::poll)
        });
        let max_gbps = curve
            .points
            .iter()
            .map(LoadPoint::gbps)
            .fold(curve.capacity.gbps(), f64::max);
        results.push(VariantResult {
            kind,
            max_gbps,
            curve,
        });
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.kind.name().to_string(), f1(r.max_gbps)];
            let last = r.curve.points.last().expect("nonempty curve");
            row.push(f1(last.achieved_rps / 1e3));
            row.push(f1(last.p99_ns() as f64 / 1e3));
            row
        })
        .collect();
    print_table(
        "Figure 2: echo server, 2 x 2048 B fields (per variant)",
        &["Variant", "Max Gbps", "Achieved krps", "p99 us"],
        &rows,
    );
    print_expectation(
        "ordering",
        "no-ser 77 > raw zero-copy 48 > one-copy 28 > two-copy 23 > libraries 13-15 Gbps",
        &results
            .iter()
            .map(|r| format!("{} {:.0}", r.kind.name(), r.max_gbps))
            .collect::<Vec<_>>()
            .join(" | "),
    );
    // Throughput-latency curves for the figure itself.
    for r in &results {
        print_curve(r.kind.name(), &r.curve);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::stats::gbps;

    #[test]
    fn echo_bench_round_trips() {
        let mut b = echo_bench(EchoKind::Cornflakes);
        let fields = vec![vec![1u8; 2048], vec![2u8; 2048]];
        let payload = client::request(EchoKind::Cornflakes, &b.client, &fields);
        let got = b.round_trip(msg_type::ECHO, &payload, EchoServer::poll);
        assert!(got >= 4096, "echoed payload should include both fields");
    }

    #[test]
    fn figure2_shape_holds_scaled_down() {
        let results = run(2_000_000); // 2 ms window
        let g = |k: EchoKind| {
            results
                .iter()
                .find(|r| r.kind == k)
                .expect("variant present")
                .max_gbps
        };
        assert!(g(EchoKind::NoSerialization) > g(EchoKind::ZeroCopyRaw));
        assert!(g(EchoKind::ZeroCopyRaw) > g(EchoKind::OneCopy));
        assert!(g(EchoKind::OneCopy) > g(EchoKind::TwoCopy));
        for lib in [
            EchoKind::Protobuf,
            EchoKind::FlatBuffers,
            EchoKind::CapnProto,
        ] {
            assert!(g(EchoKind::TwoCopy) > g(lib), "{lib:?}");
        }
        // Absolute anchors within a loose band of the paper's numbers.
        assert!((70.0..85.0).contains(&g(EchoKind::NoSerialization)));
        assert!((40.0..56.0).contains(&g(EchoKind::ZeroCopyRaw)));
        assert!((24.0..32.0).contains(&g(EchoKind::OneCopy)));
        assert!((19.0..27.0).contains(&g(EchoKind::TwoCopy)));
        let _ = gbps(1, 1);
    }
}
