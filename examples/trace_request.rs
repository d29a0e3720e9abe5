//! Observability tour: trace a request through the whole datapath.
//!
//! Attaches one [`cornflakes::telemetry::Telemetry`] handle — carrying a
//! request-scoped [`cornflakes::telemetry::FlightRecorder`] — to a
//! simulated KV client/server pair with one `set_telemetry` call per end,
//! serves a handful of GET requests, and writes two artifacts next to the
//! current directory:
//!
//! - `trace.json` — Chrome Trace Event JSON of the one recorder: every
//!   request's server spans (`rx`, then `request` over
//!   `deserialize`/`app`/`tx`) as complete events with their self time,
//!   and every layer's lifecycle events as instants, stamped in
//!   **virtual** nanoseconds. Open it in `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//! - `metrics.json` — a snapshot of the metrics registry: NIC frame/byte
//!   counters, memory-pool occupancy, per-system KV counters, and the
//!   `mem.*` cells where the hybrid serializer's copy-vs-zero-copy choice
//!   is counted (arena copies, `recover_ptr` lookups and hits).
//!
//! It then walks the "diagnose a slow request" workflow from DESIGN.md:
//! the `kv.client.e2e_latency_ns` histogram's exemplars name the slowest
//! request id, the recorder replays that request's timeline — spans and
//! events in the order they were recorded, a span at its close — and
//! consecutive anchors decompose its latency into retry-wait / queueing /
//! sojourn / service / wire phases.
//!
//! Run with: `cargo run --example trace_request`

use cornflakes::core::SerializationConfig;
use cornflakes::kv::client::{KvClient, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::mem::PoolConfig;
use cornflakes::net::UdpStack;
use cornflakes::nic::link;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{json, FlightEvent, FlightRecord, FlightRecorder, Telemetry};

/// Folds one request's flight timeline into `(e2e, [five phase spans])`
/// with a running-maximum clamp, so a missing anchor contributes a
/// zero-length phase and the spans always telescope to the end-to-end
/// latency. (The `tail_anatomy` bench runs the same fold at 2× overload.)
fn decompose(events: &[FlightRecord]) -> Option<(u64, [(&'static str, u64); 5])> {
    let (mut send, mut attempt, mut admit) = (None, None, None);
    let (mut dispatch, mut reply, mut recv) = (None, None, None);
    let keep = |slot: &mut Option<u64>, ts: u64| *slot = Some(slot.map_or(ts, |t: u64| t.max(ts)));
    for r in events {
        match r.event {
            FlightEvent::ClientSend => {
                send.get_or_insert(r.ts_ns);
                keep(&mut attempt, r.ts_ns);
            }
            FlightEvent::ClientRetry { .. } => keep(&mut attempt, r.ts_ns),
            FlightEvent::BacklogAdmit { .. } => keep(&mut admit, r.ts_ns),
            FlightEvent::ShardDispatch { .. } => keep(&mut dispatch, r.ts_ns),
            FlightEvent::Reply { .. } => keep(&mut reply, r.ts_ns),
            FlightEvent::ClientRecv { .. } => keep(&mut recv, r.ts_ns),
            _ => {}
        }
    }
    let (send, recv) = (send?, recv?);
    let mut cursor = send;
    let mut step = |anchor: Option<u64>| {
        let next = cursor.max(anchor.unwrap_or(cursor));
        let delta = next - cursor;
        cursor = next;
        delta
    };
    Some((
        recv.saturating_sub(send),
        [
            ("retry wait", step(attempt)),
            ("queueing", step(admit)),
            ("sojourn", step(dispatch)),
            ("service", step(reply)),
            ("wire", step(Some(recv))),
        ],
    ))
}

fn main() {
    // Client and server share one Sim: every flight stamp reads the same
    // virtual clock, so the printed timeline is totally ordered.
    let sim = Sim::new(MachineProfile::cloudlab_c6525());
    let (cp, sp) = link();
    let client_stack = UdpStack::new(sim.clone(), cp, CLIENT_PORT, SerializationConfig::hybrid());
    let server_stack = UdpStack::with_pool_config(
        sim.clone(),
        sp,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        PoolConfig::default(),
    );
    let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
    let mut server = KvServer::new(server_stack, SerKind::Cornflakes);

    // One small (copied) and one large (zero-copy) value, so the `mem.*`
    // cells show both sides of the hybrid threshold.
    server
        .store
        .preload(server.stack.ctx(), b"cfg:motd", &[64])
        .expect("preload");
    server
        .store
        .preload(server.stack.ctx(), b"img:full", &[8192])
        .expect("preload");

    // Attach telemetry: `Telemetry::attach` installs the charge observer
    // on the machine, and one `set_telemetry` on the server adopts its NIC,
    // memory and per-SerKind counter cells into the registry. The handle
    // carries the flight recorder, one shared log that takes the server's
    // spans too: the client takes a flight-only handle, so client and
    // server interleave their records into a single per-request timeline.
    let flight = FlightRecorder::with_capacity(4096);
    let tele = Telemetry::attach(&sim).with_flight(&flight);
    server.set_telemetry(&tele);
    client.set_telemetry(&Telemetry::disabled().with_flight(&flight));

    let e2e_hist = tele.histogram("kv.client.e2e_latency_ns");
    for _ in 0..5 {
        for key in [&b"cfg:motd"[..], &b"img:full"[..]] {
            let id = client.send_get(&[key]);
            server.poll();
            client.recv_response().expect("response");
            // End-to-end is `client_send` to `client_recv`, the interval the
            // phases below telescope over. Recording it keeps, per magnitude
            // bucket, the worst request id — linking the histogram tail back
            // to a concrete timeline.
            let (e2e, _) = decompose(&flight.events_for(id)).expect("completed request");
            e2e_hist.record_exemplar(e2e, id);
        }
    }

    let trace = tele.chrome_trace_json();
    let metrics = tele.snapshot_json();
    json::validate(&trace).expect("trace is valid JSON");
    json::validate(&metrics).expect("metrics snapshot is valid JSON");
    std::fs::write("trace.json", &trace).expect("write trace.json");
    std::fs::write("metrics.json", &metrics).expect("write metrics.json");

    println!(
        "wrote trace.json   ({} bytes) — open in chrome://tracing",
        trace.len()
    );
    println!("wrote metrics.json ({} bytes)", metrics.len());
    println!();
    println!("snapshot counters:");
    for name in [
        "nic.tx_frames",
        "nic.tx_bytes",
        "nic.tx_sg_entries",
        "mem.pool.allocs",
        "kv.cornflakes.requests",
        "mem.arena.copies",
        "mem.arena.bytes_copied",
        "mem.registry.recover_lookups",
        "mem.registry.recover_hits",
    ] {
        println!("  {name:<32} {}", tele.counter_value(name));
    }

    // The diagnose-a-slow-request workflow: worst exemplar → timeline →
    // phase anatomy.
    let worst = e2e_hist
        .exemplars()
        .into_iter()
        .max_by_key(|e| e.value)
        .expect("exemplars recorded");
    let slow_id = worst.req_id;
    println!();
    println!(
        "slowest request: id {} at {} ns end-to-end (from histogram exemplars)",
        slow_id, worst.value
    );
    let events = flight.events_for(slow_id);
    println!("timeline ({} spans and events):", events.len());
    for r in &events {
        match r.event.detail() {
            Some((k, v)) => println!("  {:>9} ns  {} ({k}={v})", r.ts_ns, r.event.label()),
            None => println!("  {:>9} ns  {}", r.ts_ns, r.event.label()),
        }
    }
    let (e2e, phases) = decompose(&events).expect("completed request");
    println!("tail anatomy (phases sum to the {e2e} ns end-to-end latency):");
    for (label, ns) in phases {
        println!("  {label:<12} {ns:>9} ns");
    }
}
