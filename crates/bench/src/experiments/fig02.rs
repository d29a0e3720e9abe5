//! Figure 2: the motivating echo experiment (§2.2).
//!
//! A single-core echo server deserializes and reserializes a list with two
//! 2048-byte elements under seven approaches. The paper's anchors: no
//! serialization 77 Gbps, raw zero-copy 48 Gbps, one-copy 28 Gbps, two-copy
//! 23 Gbps, and the three libraries 13–15 Gbps.

use cf_mem::PoolConfig;
use cf_net::UdpStack;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::SerializationConfig;

use cf_kv::client::SERVER_PORT;
use cf_kv::echo::{client, EchoKind, EchoServer};
use cf_kv::msg_type;

use crate::harness::{curve, Pair, Trace};
use crate::tables::{f1, print_curve, print_expectation, print_table};

/// The echo fixture of one variant: a client stack and the echo server.
pub(crate) fn echo_bench(kind: EchoKind) -> Pair<UdpStack, EchoServer> {
    Pair::on_wire(
        MachineProfile::cloudlab_c6525(),
        SERVER_PORT,
        SerializationConfig::hybrid(),
        PoolConfig::default(),
        |stack| stack,
        |stack| EchoServer::new(stack, kind),
    )
}

/// `kind`'s echo fixture measured by `measure` (the server's machine,
/// then one echo of two 2048-byte fields per call).
fn echo(kind: EchoKind, measure: impl FnOnce(&Sim, &mut dyn FnMut(u64) -> u64) -> Trace) -> Trace {
    let fields = vec![vec![0x5Au8; 2048], vec![0xA5u8; 2048]];
    let mut bench = echo_bench(kind);
    let payload = client::request(kind, &bench.client, &fields);
    let sim = bench.server_sim.clone();
    measure(&sim, &mut |_| {
        bench.round_trip(msg_type::ECHO, &payload, EchoServer::poll)
    })
}

/// Runs Figure 2 and returns each variant's service trace (also printed).
pub fn run() -> Vec<(EchoKind, Trace)> {
    let results: Vec<_> = EchoKind::figure2()
        .into_iter()
        .map(|kind| (kind, echo(kind, |sim, request| curve(sim, request))))
        .collect();

    let curves: Vec<Vec<(f64, f64)>> = results.iter().map(|(_, t)| t.points()).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .zip(&curves)
        .map(|((kind, trace), points)| {
            let (rps, p99) = points.last().expect("nonempty curve");
            vec![
                kind.name().to_string(),
                f1(trace.gbps()),
                f1(rps / 1e3),
                f1(p99 / 1e3),
            ]
        })
        .collect();
    print_table(
        "Figure 2: echo server, 2 x 2048 B fields (per variant)",
        &["Variant", "Max Gbps", "Offered krps", "p99 us"],
        &rows,
    );
    print_expectation(
        "ordering",
        "no-ser 77 > raw zero-copy 48 > one-copy 28 > two-copy 23 > libraries 13-15 Gbps",
        &results
            .iter()
            .map(|(kind, trace)| format!("{} {:.0}", kind.name(), trace.gbps()))
            .collect::<Vec<_>>()
            .join(" | "),
    );
    // Throughput-latency curves for the figure itself.
    for ((kind, _), points) in results.iter().zip(&curves) {
        print_curve(kind.name(), points);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::capacity;

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
        // A closed-loop probe per variant: the figure's capacities.
        let g = |kind| echo(kind, |sim, request| capacity(sim, 4_000, 500, request)).gbps();
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
    }
}
