//! Figure 2: the motivating echo experiment (§2.2).
//!
//! A single-core echo server deserializes and reserializes a list with two
//! 2048-byte elements under seven approaches. The paper's anchors: no
//! serialization 77 Gbps, raw zero-copy 48 Gbps, one-copy 28 Gbps, two-copy
//! 23 Gbps, and the three libraries 13–15 Gbps.

use cf_net::{FrameMeta, UdpStack, HEADER_BYTES};
use cf_nic::link;
use cf_sim::{LoadPoint, MachineProfile, Sim};
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, SerializationConfig};

use cf_baselines::capnlite::CapnGetM;
use cf_baselines::flatlite::FlatGetM;
use cf_baselines::protolite::PGetM;
use cf_kv::echo::{EchoKind, EchoServer};
use cf_kv::msg_type;
use cf_kv::msgs::GetMsg;

use crate::harness::{curve, Curve, Load};
use crate::tables::{f1, print_curve, print_expectation, print_table};

/// An echo fixture: client stack + echo server over one wire.
pub struct EchoBench {
    /// Server machine simulation.
    pub server_sim: Sim,
    /// Client datapath (own machine).
    pub client: UdpStack,
    /// The echo server.
    pub server: EchoServer,
}

impl EchoBench {
    /// Creates a fixture for one echo variant.
    pub fn new(kind: EchoKind) -> Self {
        let server_sim = Sim::new(MachineProfile::cloudlab_c6525());
        let (cp, sp) = link();
        let client = UdpStack::new(
            Sim::new(MachineProfile::cloudlab_c6525()),
            cp,
            4000,
            SerializationConfig::hybrid(),
        );
        let server_stack =
            UdpStack::new(server_sim.clone(), sp, 9000, SerializationConfig::hybrid());
        EchoBench {
            server_sim,
            client,
            server: EchoServer::new(server_stack, kind),
        }
    }

    /// Builds the request payload for this variant (each library speaks its
    /// own wire format; manual variants speak Cornflakes's).
    pub fn build_payload(&self, fields: &[Vec<u8>]) -> Vec<u8> {
        let sim = self.client.sim().clone();
        match self.server.kind {
            EchoKind::Protobuf => {
                let mut m = PGetM::new();
                for f in fields {
                    m.add_val(&sim, f);
                }
                m.encode(&sim, 0x10_0000)
            }
            EchoKind::FlatBuffers => {
                let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
                FlatGetM::encode(&sim, None, &[], &refs)
            }
            EchoKind::CapnProto => {
                let mut m = CapnGetM::new();
                for f in fields {
                    m.add_val(&sim, f);
                }
                CapnGetM::frame(&m.finish(&sim))
            }
            _ => {
                let mut m = GetMsg::new();
                let ctx = self.client.ctx();
                for f in fields {
                    m.get_mut_vals().append(CFBytes::new(ctx, f));
                }
                serialize_to_vec(&m)
            }
        }
    }

    /// One request round trip; returns the response payload size.
    pub fn echo_once(&mut self, payload: &[u8], seq: u64) -> u64 {
        let mut tx = self.client.alloc_tx(payload.len()).expect("client tx");
        tx.write_at(HEADER_BYTES, payload);
        let hdr = self.client.header_to(
            9000,
            FrameMeta {
                msg_type: msg_type::ECHO,
                flags: 0,
                req_id: seq as u32,
            },
        );
        self.client
            .send_built(hdr, tx, payload.len())
            .expect("send");
        self.server.poll();
        self.client
            .recv_packet()
            .map(|p| p.payload.len() as u64)
            .unwrap_or(0)
    }
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
        let mut bench = EchoBench::new(kind);
        let payload = bench.build_payload(&fields);
        let sim = bench.server_sim.clone();
        let curve = curve(&sim, &load, |seq| bench.echo_once(&payload, seq));
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
        let mut b = EchoBench::new(EchoKind::Cornflakes);
        let fields = vec![vec![1u8; 2048], vec![2u8; 2048]];
        let payload = b.build_payload(&fields);
        let got = b.echo_once(&payload, 1);
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
