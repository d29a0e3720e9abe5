//! Connection-churn sweep: accept goodput, request-RTT tail, and the
//! flow-table memory ceiling as total churned flows scale 1k → 64k. The
//! enforcement artifact behind the CI churn ratchet (`BENCH_churn.json`).
//!
//! Each sweep point opens `concurrent` TCP flows against a
//! [`TcpKvServer`] behind a bounded [`TcpListener`], then churns the
//! remainder of `flows_total` through the table by closing and reopening
//! connections in fixed-size batches. Every flow runs one full lifecycle:
//! handshake, one GET of a preloaded hot key, an ACK releasing the
//! reply's retransmission records, and an orderly FIN. The driver speaks
//! raw frames (its own seq/ack state per flow) so a 64k-flow point does
//! not pay for 64k client stacks — the system under test is the
//! listener's slab, demux map, and timer wheel, not the client.
//!
//! Four measurements per point:
//!
//! - **accepts/sec** — completed handshakes per *virtual* second over the
//!   ramp + churn phases.
//! - **p99 RTT (ns)** — 99th-percentile GET round trip (request injected
//!   → reply frame drained), in virtual ns, sampled once per flow.
//! - **mem ceiling (bytes)** — max over per-batch samples of
//!   [`TcpListener::resident_bytes`] plus the pinned pool's registered
//!   bytes: the whole transport-side footprint.
//! - **reaped_to_zero** — after the final drain, the table is empty and
//!   the pool is back to its pre-traffic occupancy (no leaked buffers).
//!
//! What repeats run to run: the counts the driver fixes (flows, accepts,
//! the memory ceiling, the drain) repeat exactly. Virtual *times* come
//! from the cost model, which charges copies by the real heap address of
//! their source, and addresses move with ASLR and `RandomState`-timed
//! rehashes: accepts/sec and the p99 repeat to within 0.01 % here, not to
//! the bit.
//!
//! Emits `churn.json` (schema in EXPERIMENTS.md); the committed
//! `BENCH_churn.json` is the full preset's, gated by [`RULES`].

use std::error::Error;
use std::ops::Range;

use cf_kv::msg_type;
use cf_kv::msgs::GetMsg;
use cf_kv::tcp_server::{parse_sub_header, sub_header, TcpKvServer};
use cf_net::tcp::{build_header, FLAG_ACK, FLAG_FIN, FLAG_SYN, TCP_HEADER_BYTES};
use cf_net::{FlowConfig, TcpListener};
use cf_nic::{link, Port, PortHub};
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::obj::serialize_into;
use cornflakes_core::SerializationConfig;

use cf_telemetry::json::Value;

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::harness::quantile;
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

const SERVER_PORT: u16 = 9000;
const BASE_PORT: u16 = 10_000;

/// One sweep point: total flows churned through a table of `concurrent`
/// slots.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPoint {
    /// Total connection lifecycles driven.
    pub flows_total: usize,
    /// Flow-table capacity; flows held open at steady state.
    pub concurrent: usize,
}

/// Harness knobs.
#[derive(Clone, Debug)]
pub struct ChurnParams {
    /// Sweep points, each a full independent rig.
    pub points: Vec<ChurnPoint>,
    /// Flows opened/closed per driver step. Must divide every point's
    /// `concurrent` and `flows_total`.
    pub batch: usize,
    /// Size of the preloaded value every flow GETs.
    pub value_bytes: usize,
}

impl ChurnParams {
    /// Full sweep: 1k → 64k total flows, table capacity up to 32k.
    pub fn full() -> Self {
        ChurnParams {
            points: vec![
                ChurnPoint {
                    flows_total: 1_024,
                    concurrent: 1_024,
                },
                ChurnPoint {
                    flows_total: 4_096,
                    concurrent: 4_096,
                },
                ChurnPoint {
                    flows_total: 16_384,
                    concurrent: 16_384,
                },
                ChurnPoint {
                    flows_total: 65_536,
                    concurrent: 32_768,
                },
            ],
            batch: 256,
            value_bytes: 64,
        }
    }
}

fn raw_frame(src: u16, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
    let header = build_header(src, SERVER_PORT, seq, ack, flags);
    [&header[..], payload].concat()
}

/// The raw-frame churn driver: per-slot seq/ack state for up to
/// `concurrent` live flows, reusing one attached hub endpoint (and port)
/// per slot across churn generations.
struct Driver {
    server: TcpKvServer,
    hub: PortHub,
    eps: Vec<Port>,
    /// Stream bytes of each open slot's reply (needed to ack and FIN).
    reply_len: Vec<u32>,
    /// Stream bytes a request occupies (fixed: one GET per flow).
    req_stream_len: u32,
    /// Request message template; bytes 4..8 take the per-flow req id.
    msg_template: Vec<u8>,
    next_req_id: u32,
}

impl Driver {
    fn port(slot: usize) -> u16 {
        BASE_PORT + slot as u16
    }

    fn pump_poll(&mut self) -> Result<(), Box<dyn Error>> {
        self.hub.pump();
        self.server.poll()?;
        self.hub.pump();
        Ok(())
    }

    /// Drains a slot's endpoint, recycling every frame buffer; returns
    /// `(stream_len, req_id)` of the data frame seen, if any.
    fn drain(&self, slot: usize) -> Option<(u32, u32)> {
        let ep = &self.eps[slot];
        let mut data = None;
        while let Some(f) = ep.recv() {
            // The stream: a 4-byte length prefix, then the sub-header.
            let stream = &f.data[TCP_HEADER_BYTES..];
            if let Some((_, _, req_id)) = stream.get(4..).and_then(parse_sub_header) {
                data = Some((stream.len() as u32, req_id));
            }
            ep.recycle_rx_data(f.data);
        }
        data
    }

    /// Opens every slot in `slots`: handshake, one GET, ack the reply.
    /// Returns the batch's request RTT in virtual ns.
    fn open_batch(&mut self, slots: Range<usize>, sim: &Sim) -> Result<u64, Box<dyn Error>> {
        for s in slots.clone() {
            self.hub
                .inject(raw_frame(Self::port(s), 1, 0, FLAG_SYN, &[]));
        }
        self.pump_poll()?;
        for s in slots.clone() {
            self.drain(s); // SYN|ACK
        }

        let t0 = sim.clock().now();
        let mut expect = Vec::with_capacity(slots.len());
        for s in slots.clone() {
            let req_id = self.next_req_id;
            self.next_req_id = self.next_req_id.wrapping_add(1);
            self.msg_template[4..8].copy_from_slice(&req_id.to_le_bytes());
            let mut stream = Vec::with_capacity(4 + self.msg_template.len());
            stream.extend_from_slice(&(self.msg_template.len() as u32).to_le_bytes());
            stream.extend_from_slice(&self.msg_template);
            self.hub
                .inject(raw_frame(Self::port(s), 2, 2, FLAG_ACK, &stream));
            expect.push((s, req_id));
        }
        self.pump_poll()?;
        let rtt = sim.clock().now() - t0;
        for &(s, req_id) in &expect {
            let (len, got_id) = self
                .drain(s)
                .ok_or_else(|| format!("slot {s}: GET reply never arrived"))?;
            assert_eq!(got_id, req_id, "slot {s}: reply matches its request");
            self.reply_len[s] = len;
        }

        // Ack the reply so the flow parks with an empty retransmission
        // queue — an open-but-quiet connection must pin no pool buffers.
        for s in slots.clone() {
            self.hub.inject(raw_frame(
                Self::port(s),
                2 + self.req_stream_len,
                2 + self.reply_len[s],
                FLAG_ACK,
                &[],
            ));
        }
        self.pump_poll()?;
        Ok(rtt)
    }

    /// Orderly FIN for every slot in `slots`; the server's FIN|ACK frees
    /// each slot synchronously.
    fn close_batch(&mut self, slots: Range<usize>) -> Result<(), Box<dyn Error>> {
        for s in slots.clone() {
            self.hub.inject(raw_frame(
                Self::port(s),
                2 + self.req_stream_len,
                2 + self.reply_len[s],
                FLAG_ACK | FLAG_FIN,
                &[],
            ));
        }
        self.pump_poll()?;
        for s in slots {
            self.drain(s); // FIN|ACK
        }
        Ok(())
    }

    fn mem_resident(&self) -> u64 {
        (self.server.stack.resident_bytes() + self.server.stack.ctx().pool.registered_bytes())
            as u64
    }
}

/// Drives one sweep point; returns its `points` row.
fn run_point(point: ChurnPoint, params: &ChurnParams) -> Result<Value, Box<dyn Error>> {
    assert!(
        point.concurrent.is_multiple_of(params.batch)
            && point.flows_total.is_multiple_of(params.batch),
        "batch {} must divide concurrent {} and flows_total {}",
        params.batch,
        point.concurrent,
        point.flows_total
    );
    assert!(point.flows_total >= point.concurrent);
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (server_wire, trunk) = link();
    let mut hub = PortHub::new(trunk);
    let listener = TcpListener::new(
        sim.clone(),
        server_wire,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        FlowConfig {
            capacity: point.concurrent,
            syn_backlog: params.batch,
            // Flows park open across the whole run; reaping is the drain
            // phase's job, not the sweep's. A wide wheel tick keeps idle
            // re-arms off the hot path.
            idle_timeout_ns: 1_000_000_000,
            wheel_slots: 256,
            wheel_tick_ns: 1_000_000,
        },
    );
    let mut server = TcpKvServer::new(listener);
    let key = b"churn-hot-key";
    let value = vec![0xC5u8; params.value_bytes];
    server.store.put(server.stack.ctx(), key, &value, 8192)?;
    // The bytes `TcpKvClient::get` sends: sub-header, then the request.
    let mut msg_template = sub_header(msg_type::GET, 0, 0).to_vec();
    let mut req = GetMsg::new();
    req.add_keys(server.stack.ctx(), key);
    serialize_into(&req, &mut msg_template);
    drop(req);
    server.stack.ctx().end_request();
    let req_stream_len = (4 + msg_template.len()) as u32;
    let pool_baseline = server.stack.ctx().pool.live_slots();

    let eps: Vec<Port> = (0..point.concurrent)
        .map(|s| hub.attach(Driver::port(s)))
        .collect();
    let mut d = Driver {
        server,
        hub,
        eps,
        reply_len: vec![0; point.concurrent],
        req_stream_len,
        msg_template,
        next_req_id: 1,
    };

    let mut rtts: Vec<u64> = Vec::with_capacity(point.flows_total);
    let mut mem_ceiling = d.mem_resident();
    let sample = |d: &Driver, ceiling: &mut u64| {
        *ceiling = (*ceiling).max(d.mem_resident());
    };
    let t_start = sim.clock().now();

    // Ramp: fill the table to capacity.
    for start in (0..point.concurrent).step_by(params.batch) {
        let rtt = d.open_batch(start..start + params.batch, &sim)?;
        rtts.extend(std::iter::repeat_n(rtt, params.batch));
        sample(&d, &mut mem_ceiling);
    }

    // Churn: recycle slots through close → reopen at full occupancy.
    let mut pos = 0usize;
    for _ in 0..(point.flows_total - point.concurrent) / params.batch {
        let slots = pos..pos + params.batch;
        d.close_batch(slots.clone())?;
        let rtt = d.open_batch(slots, &sim)?;
        rtts.extend(std::iter::repeat_n(rtt, params.batch));
        pos = (pos + params.batch) % point.concurrent;
        sample(&d, &mut mem_ceiling);
        assert!(
            d.server.stack.active_flows() <= point.concurrent,
            "flow table exceeded its bound"
        );
    }
    let elapsed_ns = sim.clock().now() - t_start;

    let stats = d.server.stack.stats();
    assert_eq!(
        stats.accepts, point.flows_total as u64,
        "every driven handshake completed"
    );

    // Drain: hang up everything, then let the wheel settle past the idle
    // horizon — the table and the pool must return to their baselines.
    for start in (0..point.concurrent).step_by(params.batch) {
        d.close_batch(start..start + params.batch)?;
    }
    for _ in 0..4 {
        sim.clock().advance(1_000_000_000);
        d.server.poll()?;
    }
    let reaped_to_zero = d.server.stack.active_flows() == 0
        && d.server.stack.ctx().pool.live_slots() == pool_baseline;

    rtts.sort_unstable();
    Ok(Value::obj([
        ("flows_total", int(point.flows_total as u64)),
        ("concurrent", int(point.concurrent as u64)),
        // Completed handshakes per virtual second (ramp + churn phases).
        (
            "accepts_per_sec",
            fixed(point.flows_total as f64 / (elapsed_ns as f64 / 1e9), 1),
        ),
        (
            "p99_rtt_ns",
            int(quantile(&rtts, 0.99).copied().unwrap_or(0)),
        ),
        // Max transport-side resident bytes (slab + buffers + wheel + demux
        // map + registered pool regions) observed across the run.
        ("mem_ceiling_bytes", int(mem_ceiling)),
        ("reaped_to_zero", Value::Bool(reaped_to_zero)),
    ]))
}

/// Runs the sweep, prints the table, writes `churn.json`.
pub fn run(params: &ChurnParams) -> Value {
    let tree = Value::obj([
        ("experiment", text("churn")),
        (
            "params",
            Value::obj([
                ("batch", int(params.batch as u64)),
                ("value_bytes", int(params.value_bytes as u64)),
            ]),
        ),
        (
            "points",
            list(&params.points, |&p| run_point(p, params).expect("churn")),
        ),
    ]);
    print_rows(
        "Connection churn: accept goodput, RTT tail, memory ceiling (virtual time)",
        &tree,
        "points[flows_total,concurrent]",
        &[
            "accepts_per_sec",
            "p99_rtt_ns",
            "mem_ceiling_bytes",
            "reaped_to_zero",
        ],
    );
    write_artifact("churn.json", &tree.render());
    tree
}

/// What `BENCH_churn.json` is held to (see [`crate::ratchet`]; spreads are
/// five full-preset runs, EXPERIMENTS.md "Artifacts and ratchet").
pub const RULES: &[Rule] = &[
    // Spread 0.002 %; another build's heap layout moved it 0.06 %.
    Rule(
        "points[flows_total,concurrent].accepts_per_sec",
        Gate::Higher(0.03),
    ),
    // Spread 0.002 %; another build's heap layout moved it 0.5 %.
    Rule(
        "points[flows_total,concurrent].p99_rtt_ns",
        Gate::Lower(0.03),
    ),
    // Repeats exactly for one binary; pool regions are registered at the
    // high-water mark, which moved 0.25 % with another build, and container
    // growth policies may shift a few percent across toolchains.
    Rule(
        "points[flows_total,concurrent].mem_ceiling_bytes",
        Gate::Lower(0.05),
    ),
    Rule("points[flows_total,concurrent].reaped_to_zero", Gate::Same),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_every_point_and_drains() {
        let params = ChurnParams {
            points: vec![
                ChurnPoint {
                    flows_total: 64,
                    concurrent: 32,
                },
                ChurnPoint {
                    flows_total: 128,
                    concurrent: 64,
                },
            ],
            batch: 16,
            value_bytes: 64,
        };
        let tree = run(&params);
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let points = tree.get("points").and_then(Value::as_arr).expect("points");
        assert_eq!(points.len(), 2);
        let num = |p: &Value, f: &str| p.get(f).and_then(Value::as_f64).expect("a number");
        for p in points {
            assert!(num(p, "accepts_per_sec") > 0.0);
            assert!(num(p, "p99_rtt_ns") > 0.0);
            assert!(num(p, "mem_ceiling_bytes") > 0.0);
            assert_eq!(
                p.get("reaped_to_zero"),
                Some(&Value::Bool(true)),
                "{}x{} failed to drain",
                num(p, "flows_total"),
                num(p, "concurrent")
            );
        }
        // Bounded tables: quadrupling the churned flows at double the
        // capacity must not quadruple the ceiling.
        let small = num(&points[0], "mem_ceiling_bytes");
        let large = num(&points[1], "mem_ceiling_bytes");
        assert!(
            large < small * 4.0,
            "memory ceiling scales with capacity, not churn: {small} -> {large}"
        );
    }
}
