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
//!   ramp + churn phases. Virtual time comes from the simulator's cost
//!   model, so the number is deterministic.
//! - **p99 RTT (ns)** — 99th-percentile GET round trip (request injected
//!   → reply frame drained), in virtual ns, sampled once per flow.
//! - **mem ceiling (bytes)** — max over per-batch samples of
//!   [`TcpListener::resident_bytes`] plus the pinned pool's registered
//!   bytes: the whole transport-side footprint. Deterministic, so the
//!   ratchet can hold it to a hard ceiling.
//! - **reaped_to_zero** — after the final drain, the table is empty and
//!   the pool is back to its pre-traffic occupancy (no leaked buffers).
//!
//! Emits `churn.json` (schema in EXPERIMENTS.md). The committed
//! `BENCH_churn.json` is the ratchet baseline: goodput may not fall,
//! tails and memory may not grow (`CF_CHURN_TOLERANCE` on the
//! time-derived metrics, a fixed slack on the memory ceiling).

use cf_kv::msg_type;
use cf_kv::msgs::GetMsg;
use cf_kv::tcp_server::{sub_header, TcpKvServer};
use cf_net::tcp::{FLAG_ACK, FLAG_FIN, FLAG_SYN, OFF_ACK, OFF_DST, OFF_FLAGS, OFF_SEQ, OFF_SRC};
use cf_net::{FlowConfig, TcpListener};
use cf_nic::{link, Port, PortHub};
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::obj::serialize_into;
use cornflakes_core::SerializationConfig;

use crate::artifacts::write_json_artifact;
use crate::tables::print_table;

const SERVER_PORT: u16 = 9000;
const BASE_PORT: u16 = 10_000;
const FRAME_HEADER: usize = 48;

/// One sweep point: total flows churned through a table of `concurrent`
/// slots.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPoint {
    /// Total connection lifecycles driven.
    pub flows_total: usize,
    /// Flow-table capacity; flows held open at steady state.
    pub concurrent: usize,
}

/// Harness knobs; [`ChurnParams::quick`] is the CI-sized preset.
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

    /// CI smoke preset: the first two points, same batch as the full
    /// sweep so every measurement stays directly comparable to the
    /// committed baseline (the ratchet checks the points a run covers).
    pub fn quick() -> Self {
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
            ],
            ..ChurnParams::full()
        }
    }
}

/// One sweep point's measurements.
#[derive(Clone, Copy, Debug)]
pub struct PointReport {
    /// Total connection lifecycles driven.
    pub flows_total: usize,
    /// Flow-table capacity.
    pub concurrent: usize,
    /// Completed handshakes per virtual second (ramp + churn phases).
    pub accepts_per_sec: f64,
    /// 99th-percentile GET round trip in virtual ns.
    pub p99_rtt_ns: f64,
    /// Max transport-side resident bytes (slab + buffers + wheel + demux
    /// map + registered pool regions) observed across the run.
    pub mem_ceiling_bytes: u64,
    /// Table drained to zero flows and the pool returned to its
    /// pre-traffic occupancy.
    pub reaped_to_zero: bool,
}

/// The full report, as emitted to `churn.json`.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Flows per driver step.
    pub batch: usize,
    /// Preloaded value size.
    pub value_bytes: usize,
    /// One entry per sweep point.
    pub points: Vec<PointReport>,
}

fn raw_frame(src: u16, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![0u8; FRAME_HEADER + payload.len()];
    f[OFF_SRC..OFF_SRC + 2].copy_from_slice(&src.to_be_bytes());
    f[OFF_DST..OFF_DST + 2].copy_from_slice(&SERVER_PORT.to_be_bytes());
    f[OFF_SEQ..OFF_SEQ + 4].copy_from_slice(&seq.to_le_bytes());
    f[OFF_ACK..OFF_ACK + 4].copy_from_slice(&ack.to_le_bytes());
    f[OFF_FLAGS] = flags;
    f[FRAME_HEADER..].copy_from_slice(payload);
    f
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

    fn pump_poll(&mut self) {
        self.hub.pump();
        self.server.poll().expect("server poll");
        self.hub.pump();
    }

    /// Drains a slot's endpoint, recycling every frame buffer; returns
    /// `(stream_len, req_id)` of the data frame seen, if any.
    fn drain(&self, slot: usize) -> Option<(u32, u32)> {
        let ep = &self.eps[slot];
        let mut data = None;
        while let Some(f) = ep.recv() {
            let payload = f.data.len() - FRAME_HEADER;
            if payload > 0 {
                let p = &f.data[FRAME_HEADER..];
                let req_id = u32::from_le_bytes(p[8..12].try_into().expect("4 bytes"));
                data = Some((payload as u32, req_id));
            }
            ep.recycle_rx_data(f.data);
        }
        data
    }

    /// Opens every slot in `slots`: handshake, one GET, ack the reply.
    /// Returns the batch's request RTT in virtual ns.
    fn open_batch(&mut self, slots: std::ops::Range<usize>, sim: &Sim) -> u64 {
        for s in slots.clone() {
            self.hub
                .inject(raw_frame(Self::port(s), 1, 0, FLAG_SYN, &[]));
        }
        self.pump_poll();
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
        self.pump_poll();
        let rtt = sim.clock().now() - t0;
        for &(s, req_id) in &expect {
            let (len, got_id) = self
                .drain(s)
                .unwrap_or_else(|| panic!("slot {s}: GET reply never arrived"));
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
        self.pump_poll();
        rtt
    }

    /// Orderly FIN for every slot in `slots`; the server's FIN|ACK frees
    /// each slot synchronously.
    fn close_batch(&mut self, slots: std::ops::Range<usize>) {
        for s in slots.clone() {
            self.hub.inject(raw_frame(
                Self::port(s),
                2 + self.req_stream_len,
                2 + self.reply_len[s],
                FLAG_ACK | FLAG_FIN,
                &[],
            ));
        }
        self.pump_poll();
        for s in slots {
            self.drain(s); // FIN|ACK
        }
    }

    fn mem_resident(&self) -> u64 {
        (self.server.stack.resident_bytes() + self.server.stack.ctx().pool.registered_bytes())
            as u64
    }
}

fn run_point(point: ChurnPoint, params: &ChurnParams) -> PointReport {
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
            ..FlowConfig::default()
        },
    );
    let mut server = TcpKvServer::new(listener);
    let key = b"churn-hot-key";
    let value = vec![0xC5u8; params.value_bytes];
    server
        .store
        .put(server.stack.ctx(), key, &value, 8192)
        .expect("preload");
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
        let rtt = d.open_batch(start..start + params.batch, &sim);
        rtts.extend(std::iter::repeat_n(rtt, params.batch));
        sample(&d, &mut mem_ceiling);
    }

    // Churn: recycle slots through close → reopen at full occupancy.
    let mut pos = 0usize;
    for _ in 0..(point.flows_total - point.concurrent) / params.batch {
        let slots = pos..pos + params.batch;
        d.close_batch(slots.clone());
        let rtt = d.open_batch(slots, &sim);
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
        d.close_batch(start..start + params.batch);
    }
    for _ in 0..4 {
        sim.clock().advance(1_000_000_000);
        d.server.poll().expect("server poll");
    }
    let reaped_to_zero = d.server.stack.active_flows() == 0
        && d.server.stack.ctx().pool.live_slots() == pool_baseline;

    rtts.sort_unstable();
    let p99_idx = (rtts.len() * 99).div_ceil(100).saturating_sub(1);
    PointReport {
        flows_total: point.flows_total,
        concurrent: point.concurrent,
        accepts_per_sec: point.flows_total as f64 / (elapsed_ns as f64 / 1e9),
        p99_rtt_ns: rtts[p99_idx] as f64,
        mem_ceiling_bytes: mem_ceiling,
        reaped_to_zero,
    }
}

fn report_json(r: &ChurnReport) -> String {
    let points: Vec<String> = r
        .points
        .iter()
        .map(|p| {
            format!(
                "    {{\"flows_total\": {}, \"concurrent\": {}, \"accepts_per_sec\": {:.1}, \
                 \"p99_rtt_ns\": {:.1}, \"mem_ceiling_bytes\": {}, \"reaped_to_zero\": {}}}",
                p.flows_total,
                p.concurrent,
                p.accepts_per_sec,
                p.p99_rtt_ns,
                p.mem_ceiling_bytes,
                p.reaped_to_zero
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"churn\",\n  \"batch\": {},\n  \"value_bytes\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        r.batch,
        r.value_bytes,
        points.join(",\n")
    )
}

/// Runs the sweep, prints the table, writes `churn.json`.
pub fn run(params: &ChurnParams) -> ChurnReport {
    let report = ChurnReport {
        batch: params.batch,
        value_bytes: params.value_bytes,
        points: params
            .points
            .iter()
            .map(|&p| run_point(p, params))
            .collect(),
    };

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.flows_total.to_string(),
                p.concurrent.to_string(),
                format!("{:.0}", p.accepts_per_sec),
                format!("{:.0}", p.p99_rtt_ns),
                format!("{:.1}", p.mem_ceiling_bytes as f64 / 1024.0 / 1024.0),
                p.reaped_to_zero.to_string(),
            ]
        })
        .collect();
    print_table(
        "Connection churn: accept goodput, RTT tail, memory ceiling (virtual time)",
        &[
            "flows",
            "table",
            "accepts/s",
            "p99 rtt ns",
            "mem MiB",
            "reaped",
        ],
        &rows,
    );

    match write_json_artifact("churn", &report_json(&report)) {
        Ok(path) => println!("  artifact: {}", path.display()),
        Err(e) => eprintln!("  artifact write failed: {e}"),
    }
    report
}

/// Fixed slack on the memory-ceiling ratchet: the driver is deterministic
/// in virtual time, but container-capacity growth policies may shift a
/// few percent across toolchain versions.
const MEM_SLACK: f64 = 1.05;

/// Compares a fresh report against the committed `BENCH_churn.json`
/// baseline. Returns every violation found (empty = ratchet holds).
///
/// - **accepts/sec may not fall** below baseline ÷ `tolerance`.
/// - **p99 RTT may not rise** above baseline × `tolerance`.
/// - **The memory ceiling is (almost) hard**: at most baseline ×
///   [`MEM_SLACK`] — both sides are virtual-time deterministic, so growth
///   means the flow table got fatter, not that the machine got slower.
/// - **`reaped_to_zero` must stay true** wherever the baseline holds it.
/// - Baseline points the run does not cover are skipped — the quick
///   preset ratchets the prefix of the sweep it drives; the full run (the
///   CI gate) covers every point. A run matching *no* baseline point is a
///   violation (preset/baseline drift).
pub fn ratchet(current: &ChurnReport, baseline_json: &str, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let mut matched = 0usize;
    let baseline = match cf_telemetry::json::parse(baseline_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let points = baseline
        .get("points")
        .and_then(|v| v.as_arr().map(<[_]>::to_vec))
        .unwrap_or_default();
    if points.is_empty() {
        violations.push("baseline has no points".to_string());
    }
    for bp in &points {
        let flows = bp
            .get("flows_total")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as usize;
        let conc = bp.get("concurrent").and_then(|v| v.as_f64()).unwrap_or(0.0) as usize;
        let label = format!("{flows}x{conc}");
        let Some(cp) = current
            .points
            .iter()
            .find(|p| p.flows_total == flows && p.concurrent == conc)
        else {
            continue; // not covered by this preset
        };
        matched += 1;
        let base_acc = bp
            .get("accepts_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if base_acc > 0.0 && cp.accepts_per_sec < base_acc / tolerance {
            violations.push(format!(
                "{label}: accepts/sec fell {:.0} -> {:.0} (> {tolerance:.2}x tolerance)",
                base_acc, cp.accepts_per_sec
            ));
        }
        let base_p99 = bp.get("p99_rtt_ns").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if base_p99 > 0.0 && cp.p99_rtt_ns > base_p99 * tolerance {
            violations.push(format!(
                "{label}: p99 RTT regressed {:.0} -> {:.0} ns (> {tolerance:.2}x tolerance)",
                base_p99, cp.p99_rtt_ns
            ));
        }
        let base_mem = bp
            .get("mem_ceiling_bytes")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if base_mem > 0.0 && cp.mem_ceiling_bytes as f64 > base_mem * MEM_SLACK {
            violations.push(format!(
                "{label}: memory ceiling grew {:.0} -> {} bytes (hard x{MEM_SLACK:.2} bound)",
                base_mem, cp.mem_ceiling_bytes
            ));
        }
        let base_reaped = matches!(
            bp.get("reaped_to_zero"),
            Some(cf_telemetry::json::Value::Bool(true))
        );
        if base_reaped && !cp.reaped_to_zero {
            violations.push(format!("{label}: no longer reaps/drains to zero"));
        }
    }
    if matched == 0 && !points.is_empty() {
        violations.push("no baseline point matches the run (preset/baseline drift)".to_string());
    }
    violations
}

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
        let report = run(&params);
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.accepts_per_sec > 0.0);
            assert!(p.p99_rtt_ns > 0.0);
            assert!(p.mem_ceiling_bytes > 0);
            assert!(
                p.reaped_to_zero,
                "{}x{} failed to drain",
                p.flows_total, p.concurrent
            );
        }
        // Bounded tables: quadrupling the churned flows at double the
        // capacity must not quadruple the ceiling.
        let small = report.points[0].mem_ceiling_bytes as f64;
        let large = report.points[1].mem_ceiling_bytes as f64;
        assert!(
            large < small * 4.0,
            "memory ceiling scales with capacity, not churn: {small} -> {large}"
        );
    }

    #[test]
    fn ratchet_flags_regressions_against_a_synthetic_baseline() {
        let good = PointReport {
            flows_total: 64,
            concurrent: 32,
            accepts_per_sec: 1000.0,
            p99_rtt_ns: 5000.0,
            mem_ceiling_bytes: 1_000_000,
            reaped_to_zero: true,
        };
        let baseline = report_json(&ChurnReport {
            batch: 16,
            value_bytes: 64,
            points: vec![good],
        });
        let pass = ChurnReport {
            batch: 16,
            value_bytes: 64,
            points: vec![good],
        };
        assert!(ratchet(&pass, &baseline, 2.0).is_empty());

        let bad = ChurnReport {
            batch: 16,
            value_bytes: 64,
            points: vec![PointReport {
                accepts_per_sec: 100.0,       // collapsed goodput
                p99_rtt_ns: 50_000.0,         // 10x tail
                mem_ceiling_bytes: 2_000_000, // fatter table
                reaped_to_zero: false,        // leak
                ..good
            }],
        };
        let violations = ratchet(&bad, &baseline, 2.0);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(ratchet(
            &ChurnReport {
                batch: 16,
                value_bytes: 64,
                points: vec![]
            },
            &baseline,
            2.0
        )
        .iter()
        .any(|v| v.contains("no baseline point matches")));
    }
}
