//! Figure 9: the TCP integration (§6.2.3).
//!
//! Echo over the Demikernel-style TCP stack: raw packet echo (an L3
//! forwarder) vs FlatBuffers vs Cornflakes, reporting p5/p25/p50/p75/p99
//! round-trip latencies. Paper result: Cornflakes sits 18–27.8 µs below
//! FlatBuffers at the tail while only adding 4.9–10.8 µs over plain packet
//! echo.

use std::error::Error;

use cf_nic::link;
use cf_sim::{Histogram, MachineProfile, Sim};
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

use cf_baselines::flatlite::{FlatGetM, FlatGetMView};
use cf_kv::msgs::GetMsg;
use cf_net::TcpStack;

use crate::tables::{f1, print_expectation, print_table};

/// Echo variant over TCP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpEchoKind {
    /// Forward the raw message bytes (no serialization).
    RawEcho,
    /// FlatBuffers deserialize + reserialize.
    FlatBuffers,
    /// Cornflakes deserialize + hybrid reserialize.
    Cornflakes,
}

impl TcpEchoKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TcpEchoKind::RawEcho => "Raw packet echo",
            TcpEchoKind::FlatBuffers => "FlatBuffers",
            TcpEchoKind::Cornflakes => "Cornflakes",
        }
    }
}

/// Latency percentiles for one variant (ns).
#[derive(Clone, Debug)]
pub struct TcpEchoResult {
    /// The variant.
    pub kind: TcpEchoKind,
    /// The latency distribution.
    pub latency: Histogram,
}

/// Runs `rounds` echo round trips over an established TCP pair; the paper's
/// message is a list with two 2048-byte elements.
pub fn run_variant(kind: TcpEchoKind, rounds: u64) -> Result<TcpEchoResult, Box<dyn Error>> {
    // Client and server share one virtual machine clock: the RTT measured
    // below therefore contains both sides' processing plus the wire floor,
    // like a real two-host RTT.
    let sim = Sim::new(MachineProfile::cloudlab_c6525());
    let (pa, pb) = link();
    let mut client = TcpStack::new(sim.clone(), pa, 4000, SerializationConfig::hybrid());
    let mut server = TcpStack::new(sim.clone(), pb, 9000, SerializationConfig::hybrid());
    client.connect(9000)?;
    server.poll()?; // SYN → SYN|ACK
    client.poll()?; // → ACK
    server.poll()?; // established
    assert!(client.is_established() && server.is_established());

    let wire_one_way = sim.costs().one_way_wire_ns as u64;
    let fields = [vec![0x11u8; 2048], vec![0x22u8; 2048]];
    let mut latency = Histogram::new();
    for round in 0..rounds {
        let t0 = sim.now();
        // Client serializes and sends the request (Cornflakes framing for
        // the raw/Cornflakes variants; FlatBuffers for the FlatBuffers
        // variant — both length-prefixed on the stream).
        match kind {
            TcpEchoKind::FlatBuffers => {
                let csim = sim.clone();
                let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
                let built = FlatGetM::encode(&csim, Some(round as u32), &[], &refs);
                client.send_bytes(&built)?;
            }
            _ => {
                let mut m = GetMsg::new();
                {
                    let ctx = client.ctx();
                    for f in &fields {
                        m.get_mut_vals().append(CFBytes::new(ctx, f));
                    }
                }
                client.send_object(&m)?;
            }
        }
        sim.clock().advance(wire_one_way);
        server.poll()?;
        let msg = server.recv_msg()?.ok_or("request never delivered")?;
        // Server deserializes, reserializes, responds.
        match kind {
            TcpEchoKind::RawEcho => {
                // L3-style forward: re-send the received bytes unparsed.
                server.send_bytes(msg.as_slice())?;
            }
            TcpEchoKind::FlatBuffers => {
                let ssim = server.ctx().sim.clone();
                let v = FlatGetMView::parse(&ssim, msg.as_slice())?;
                let n = v.vals_len()?;
                let mut vals = Vec::with_capacity(n);
                for i in 0..n {
                    vals.push(v.val(i)?);
                }
                let built = FlatGetM::encode(&ssim, v.id()?, &[], &vals);
                server.send_bytes(&built)?;
            }
            TcpEchoKind::Cornflakes => {
                let mut resp = GetMsg::new();
                {
                    let ctx = server.ctx();
                    let req = GetMsg::deserialize(ctx, &msg)?;
                    resp.init_vals(req.vals.len());
                    for vref in req.vals.iter() {
                        resp.get_mut_vals()
                            .append(CFBytes::new(ctx, vref.as_slice()));
                    }
                }
                server.send_object(&resp)?;
            }
        }
        sim.clock().advance(wire_one_way);
        client.poll()?;
        let reply = client.recv_msg()?.ok_or("reply never delivered")?;
        assert!(reply.len() >= 4096, "echoed payload intact");
        // Drain ACK traffic.
        server.poll()?;
        client.poll()?;
        latency.record(sim.now() - t0);
    }
    Ok(TcpEchoResult { kind, latency })
}

/// Runs Figure 9 for all variants.
pub fn run(rounds: u64) -> Vec<TcpEchoResult> {
    let results: Vec<TcpEchoResult> = [
        TcpEchoKind::RawEcho,
        TcpEchoKind::FlatBuffers,
        TcpEchoKind::Cornflakes,
    ]
    .into_iter()
    .map(|k| run_variant(k, rounds).expect("TCP echo"))
    .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let q = |p: f64| f1(r.latency.quantile(p) as f64 / 1e3);
            vec![
                r.kind.name().to_string(),
                q(0.05),
                q(0.25),
                q(0.5),
                q(0.75),
                q(0.99),
            ]
        })
        .collect();
    print_table(
        "Figure 9: TCP echo latency (us)",
        &["Variant", "p5", "p25", "p50", "p75", "p99"],
        &rows,
    );
    let p99 = |r: &TcpEchoResult| r.latency.p99() as f64 / 1e3;
    if let [raw, flat, cf] = &results[..] {
        print_expectation(
            "Cornflakes vs FlatBuffers p99",
            "18 to 27.8 us lower; 4.9-10.8 us over raw echo",
            &format!(
                "{:.1} us lower; {:.1} us over raw echo",
                p99(flat) - p99(cf),
                p99(cf) - p99(raw)
            ),
        );
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_echo_latency_ordering() {
        let results = run(300);
        let p50 = |k: TcpEchoKind| {
            results
                .iter()
                .find(|r| r.kind == k)
                .expect("present")
                .latency
                .p50()
        };
        let raw = p50(TcpEchoKind::RawEcho);
        let flat = p50(TcpEchoKind::FlatBuffers);
        let cf = p50(TcpEchoKind::Cornflakes);
        assert!(raw < cf, "raw {raw} < cornflakes {cf}");
        assert!(cf < flat, "cornflakes {cf} < flatbuffers {flat}");
        // Wire floor: request + reply hops = 10 us minimum.
        assert!(raw >= 10_000, "raw echo p50 {raw} below the wire floor");
        // Cornflakes sits near raw echo; FlatBuffers clearly above both
        // (the paper's gaps are larger in absolute terms because its
        // Demikernel TCP integration is heavier; see EXPERIMENTS.md).
        assert!(
            cf - raw < 15_000,
            "Cornflakes adds {} us over raw",
            (cf - raw) / 1000
        );
        assert!(
            flat - cf > (cf - raw),
            "Cornflakes must sit closer to raw echo ({raw}) than to FlatBuffers ({flat}), cf={cf}"
        );
        assert!(
            flat - cf > 500,
            "FlatBuffers should be visibly above Cornflakes, got {}",
            flat - cf
        );
    }
}
