//! End-to-end key-value tests: one client, one server, real frames on a
//! simulated wire, for every serialization kind.

use cf_mem::PoolConfig;
use cf_net::{FrameMeta, HEADER_BYTES};
use cf_sim::cost::Category;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::{json, FlightEvent, FlightRecord, FlightRecorder, Telemetry};
use cornflakes_core::SerializationConfig;

use cf_kv::client::{client_server_pair, KvClient, RetryConfig, SERVER_PORT};
use cf_kv::msg_type;
use cf_kv::server::{KvServer, SerKind};
use cf_kv::store::KvStore;

fn pair(kind: SerKind) -> (KvClient, KvServer) {
    client_server_pair(
        Sim::new(MachineProfile::tiny_for_tests()),
        kind,
        SerializationConfig::hybrid(),
        PoolConfig::small_for_tests(),
    )
}

fn run_get(kind: SerKind) {
    let (mut client, mut server) = pair(kind);
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[2048])
        .unwrap();
    server
        .store
        .preload(server.stack.ctx(), b"key-b", &[100])
        .unwrap();

    let id = client.send_get(&[b"key-a", b"key-b"]);
    assert_eq!(server.poll(), 1);
    let resp = client.recv_response().expect("response");
    assert_eq!(resp.id, Some(id), "{kind:?}");
    assert_eq!(resp.vals.len(), 2, "{kind:?}");
    assert_eq!(resp.vals[0].len(), 2048);
    assert_eq!(resp.vals[0][0], KvStore::expected_fill(b"key-a", 0));
    assert_eq!(resp.vals[1].len(), 100);
    assert_eq!(resp.vals[1][0], KvStore::expected_fill(b"key-b", 0));
}

#[test]
fn get_roundtrip_all_serializers() {
    for kind in SerKind::all() {
        run_get(kind);
    }
}

fn run_put_then_get(kind: SerKind) {
    let (mut client, mut server) = pair(kind);
    let value = vec![0x3Au8; 1500];
    client.send_put(b"newkey", &value);
    server.poll();
    let _ack = client.recv_response().expect("put ack");

    client.send_get(&[b"newkey"]);
    server.poll();
    let resp = client.recv_response().expect("get response");
    assert_eq!(resp.vals.len(), 1, "{kind:?}");
    assert_eq!(resp.vals[0], value, "{kind:?}");
}

#[test]
fn put_then_get_all_serializers() {
    for kind in SerKind::all() {
        run_put_then_get(kind);
    }
}

fn run_list_value(kind: SerKind) {
    let (mut client, mut server) = pair(kind);
    // A "linked list" value: three non-contiguous segments.
    server
        .store
        .preload(server.stack.ctx(), b"list", &[700, 700, 700])
        .unwrap();
    client.send_get(&[b"list"]);
    server.poll();
    let resp = client.recv_response().expect("response");
    assert_eq!(resp.vals.len(), 3, "{kind:?}");
    for (i, v) in resp.vals.iter().enumerate() {
        assert_eq!(v.len(), 700);
        assert_eq!(v[0], KvStore::expected_fill(b"list", i), "{kind:?}");
    }
}

#[test]
fn list_values_all_serializers() {
    for kind in SerKind::all() {
        run_list_value(kind);
    }
}

fn run_get_segment(kind: SerKind) {
    let (mut client, mut server) = pair(kind);
    server
        .store
        .preload(server.stack.ctx(), b"seg", &[4096, 4096, 1000])
        .unwrap();
    client.send_get_segment(b"seg", 2);
    server.poll();
    let resp = client.recv_response().expect("response");
    assert_eq!(resp.vals.len(), 1, "{kind:?}");
    assert_eq!(resp.vals[0].len(), 1000);
    assert_eq!(resp.vals[0][0], KvStore::expected_fill(b"seg", 2));
}

#[test]
fn get_segment_all_serializers() {
    for kind in SerKind::all() {
        run_get_segment(kind);
    }
}

#[test]
fn missing_key_returns_empty() {
    for kind in SerKind::all() {
        let (mut client, mut server) = pair(kind);
        client.send_get(&[b"absent"]);
        server.poll();
        let resp = client.recv_response().expect("response");
        assert!(resp.vals.is_empty(), "{kind:?}");
    }
}

#[test]
fn cornflakes_zero_copies_large_values_only() {
    let (mut client, mut server) = pair(SerKind::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"big", &[2048])
        .unwrap();
    server
        .store
        .preload(server.stack.ctx(), b"small", &[64])
        .unwrap();

    client.send_get(&[b"big"]);
    server.poll();
    client.recv_response().unwrap();
    let sg_after_big = server.stack.nic_stats().tx_sg_entries;
    assert_eq!(
        sg_after_big, 2,
        "large value response = first entry + one zero-copy entry"
    );

    client.send_get(&[b"small"]);
    server.poll();
    client.recv_response().unwrap();
    let sg_small = server.stack.nic_stats().tx_sg_entries - sg_after_big;
    assert_eq!(sg_small, 1, "small value is copied into the first entry");
}

/// `SerializationConfig::raw()` alone selects the measurement study's raw
/// scatter-gather (§2.4): stored segments go out with no `recover_ptr` and
/// no charged refcount, and the reply carries what a hybrid server's does.
#[test]
fn raw_config_serves_large_values_without_safety_charges() {
    let serve = |config| {
        let server_sim = Sim::new(MachineProfile::tiny_for_tests());
        let (mut client, mut server) = client_server_pair(
            server_sim.clone(),
            SerKind::Cornflakes,
            config,
            PoolConfig::small_for_tests(),
        );
        server
            .store
            .preload(server.stack.ctx(), b"big", &[2048, 512])
            .unwrap();
        client.send_get(&[b"big"]);
        server.poll();
        let resp = client.recv_response().expect("response");
        let zero_copy_ns = server_sim.attribution().get(Category::SerializeZeroCopy);
        (resp.vals, zero_copy_ns)
    };
    let (raw_vals, raw_ns) = serve(SerializationConfig::raw());
    let (hybrid_vals, hybrid_ns) = serve(SerializationConfig::hybrid());
    assert_eq!(
        raw_ns, 0.0,
        "raw scatter-gather charges no safety bookkeeping"
    );
    assert!(
        hybrid_ns > 0.0,
        "the hybrid server pays it for the same fields"
    );
    assert_eq!(raw_vals, hybrid_vals);
}

#[test]
fn put_under_memory_pressure_degrades_instead_of_panicking() {
    use cf_kv::flags;
    use cf_telemetry::Telemetry;

    for kind in SerKind::all() {
        let server_sim = Sim::new(MachineProfile::tiny_for_tests());
        let (mut client, mut server) = client_server_pair(
            server_sim.clone(),
            kind,
            SerializationConfig::hybrid(),
            PoolConfig::small_for_tests(),
        );
        let tele = Telemetry::attach(&server_sim);
        server.set_telemetry(&tele);
        // Stored segments land in the 1024 B size class; request frames use
        // the 2048 B class and replies the smallest, so only the *store*
        // side feels the pressure.
        server.put_segment_size = 600;
        server
            .store
            .preload(server.stack.ctx(), b"k", &[600])
            .unwrap();
        let mut filler = 0u32;
        while server
            .store
            .preload(
                server.stack.ctx(),
                format!("filler-{filler}").as_bytes(),
                &[600],
            )
            .is_ok()
        {
            filler += 1;
        }
        let exhausted_before = tele.counter_value("mem.pool.exhausted");

        // The put cannot allocate its segments: the server must answer with
        // a degraded reply, not crash, and the old value must survive.
        client.send_put(b"k", &vec![0x5Cu8; 1500]);
        server.poll();
        let resp = client.recv_response().expect("degraded ack");
        assert_eq!(resp.flags, flags::DEGRADED, "{kind:?}");
        assert_eq!(server.degraded_replies(), 1, "{kind:?}");
        assert_eq!(server.puts_applied(), 0, "{kind:?}");
        assert!(
            tele.counter_value("mem.pool.exhausted") > exhausted_before,
            "{kind:?}: exhaustion surfaced in metrics"
        );

        // While the class is saturated, copy-based serializers cannot even
        // allocate the GET reply — the reply is dropped, not panicked on.
        // Deleting one filler frees a slot and service resumes.
        assert!(server.store.remove(b"filler-0").is_some());
        client.send_get(&[b"k"]);
        server.poll();
        let resp = client
            .recv_response()
            .unwrap_or_else(|| panic!("get response after degraded put, {kind:?}"));
        assert_eq!(resp.vals.len(), 1, "{kind:?}");
        assert_eq!(
            resp.vals[0][0],
            KvStore::expected_fill(b"k", 0),
            "{kind:?}: old value intact after failed put"
        );
    }
}

#[test]
fn cornflakes_service_time_beats_baselines_on_large_values() {
    // The headline effect: serving a 4 KiB value should cost Cornflakes
    // materially less virtual time per request than the copy-based
    // baselines.
    let mut costs = Vec::new();
    for kind in SerKind::all() {
        let server_sim = Sim::new(MachineProfile::tiny_for_tests());
        let (mut client, mut server) = client_server_pair(
            server_sim.clone(),
            kind,
            SerializationConfig::hybrid(),
            PoolConfig::small_for_tests(),
        );
        server
            .store
            .preload(server.stack.ctx(), b"val", &[4096])
            .unwrap();
        // Warm one request, measure the second.
        client.send_get(&[b"val"]);
        server.poll();
        client.recv_response().unwrap();
        let t0 = server_sim.now();
        client.send_get(&[b"val"]);
        server.poll();
        client.recv_response().unwrap();
        costs.push((kind, server_sim.now() - t0));
    }
    let cf = costs[0].1;
    for &(kind, c) in &costs[1..] {
        assert!(
            cf * 2 < c * 3, // cf < 1.5x faster at least... i.e. cf reasonably below
            "Cornflakes ({cf} ns) should beat {kind:?} ({c} ns)"
        );
        assert!(cf < c, "Cornflakes ({cf} ns) should beat {kind:?} ({c} ns)");
    }
}

/// Sends `payload` as the body of a well-formed frame, so the bytes reach
/// the request decoder.
fn send_raw(client: &mut KvClient, mtype: u8, req_id: u32, payload: &[u8]) {
    let meta = FrameMeta {
        msg_type: mtype,
        flags: 0,
        req_id,
    };
    let hdr = client.stack.header_to(SERVER_PORT, meta);
    let mut tx = client.stack.alloc_tx(payload.len()).expect("tx buffer");
    tx.write_at(HEADER_BYTES, payload);
    client
        .stack
        .send_built(hdr, tx, payload.len())
        .expect("raw send");
}

/// No request vanishes: every frame the server handles is either answered or
/// counted in `kv.<kind>.malformed_drops`.
fn run_malformed_requests_are_counted(kind: SerKind) {
    let (mut client, mut server) = pair(kind);
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[300])
        .unwrap();

    client.send_get(&[b"key-a"]);
    client.send_put(b"key-b", &[7u8; 200]);
    // Garbage behind a valid header, on every message type.
    for (i, mtype) in [msg_type::GET, msg_type::PUT, msg_type::GET_SEGMENT]
        .into_iter()
        .enumerate()
    {
        send_raw(&mut client, mtype, 9000 + i as u32, &[0xFF; 96]);
    }
    // Decodable, but not a request the type allows.
    client.send_request(msg_type::PUT, None, &[b"key-c"], &[]);
    client.send_request(msg_type::PUT, None, &[], &[]);
    client.send_request(msg_type::GET_SEGMENT, Some(0), &[], &[]);
    let sent = 8;

    let mut handled = 0;
    while handled < sent {
        let n = server.poll();
        assert!(n > 0, "{kind:?}: server stalled after {handled} requests");
        handled += n;
    }
    let mut replies = 0;
    while client.stack.recv_packet().is_some() {
        replies += 1;
    }
    assert_eq!(server.requests_handled(), sent as u64, "{kind:?}");
    assert_eq!(replies, 2, "{kind:?}: the valid GET and PUT are answered");
    assert_eq!(
        server.malformed_drops(),
        6,
        "{kind:?}: garbage, value-less PUTs and the key-less segment fetch are dropped"
    );
    assert_eq!(
        server.requests_handled(),
        replies + server.malformed_drops(),
        "{kind:?}: requests == replies + malformed_drops"
    );
}

#[test]
fn malformed_requests_are_counted_cornflakes() {
    run_malformed_requests_are_counted(SerKind::Cornflakes);
}

#[test]
fn malformed_requests_are_counted_protobuf() {
    run_malformed_requests_are_counted(SerKind::Protobuf);
}

#[test]
fn malformed_requests_are_counted_flatbuffers() {
    run_malformed_requests_are_counted(SerKind::FlatBuffers);
}

#[test]
fn malformed_requests_are_counted_capnproto() {
    run_malformed_requests_are_counted(SerKind::CapnProto);
}

/// What one seeded client does at a `poll_timers` that finds 32 requests
/// overdue at once: which ids are retransmitted, with which backoff, and
/// which are refused by the retry budget, in order.
fn overdue_retry_sequence() -> Vec<FlightRecord> {
    let (mut client, _server) = pair(SerKind::Cornflakes);
    client.enable_retries(RetryConfig {
        timeout_ns: 100_000,
        max_retries: 3,
        jitter_seed: Some(0x5EED),
        ..RetryConfig::default()
    });
    // A full bank of 10 tokens: 10 of the 32 may retry.
    client.enable_protection();
    let flight = FlightRecorder::with_capacity(1024);
    client.set_flight_recorder(&flight);
    for i in 0..32u32 {
        client.send_get(&[format!("key-{i}").as_bytes()]);
    }
    // The server is never polled, so every request is overdue together.
    client.stack.sim().clock().advance(150_000);
    let timed_out = client.poll_timers();
    assert_eq!(timed_out.len(), 22, "the budget refused the rest");
    assert_eq!(client.pending_ids().len(), 10);
    flight
        .drain()
        .into_iter()
        .filter(|r| {
            matches!(
                r.event,
                FlightEvent::ClientRetry { .. } | FlightEvent::RetryBudgetExhausted
            )
        })
        .collect()
}

/// Seeded replay: two same-seeded clients in one process (each `HashMap`
/// gets its own `RandomState`) must spend the retry budget on the same
/// requests and draw the same jitter for each, in send order.
#[test]
fn same_seed_replays_the_same_retry_sequence() {
    let a = overdue_retry_sequence();
    let b = overdue_retry_sequence();
    assert_eq!(a.len(), 32);
    assert_eq!(a, b, "one seed, one retry sequence");
    let ids: Vec<u32> = a.iter().map(|r| r.req_id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "send order: {ids:?}");
}

/// One handle carrying metrics and a recorder on both ends: the server's
/// spans and every layer's lifecycle events for a request come back from
/// `events_for` as one timeline, and export as one Chrome trace.
#[test]
fn spans_and_flight_events_form_one_timeline() {
    let (mut client, mut server) = pair(SerKind::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"key", &[64])
        .unwrap();
    let fr = FlightRecorder::with_capacity(256);
    let tele = Telemetry::attach(server.stack.sim()).with_flight(&fr);
    server.set_telemetry(&tele);
    client.set_telemetry(&tele);
    let id = client.send_get(&[b"key"]);
    server.poll();
    client.recv_response().expect("response");

    // The server's part, from its NIC taking the frame to the request span
    // closing: spans sit where they closed, so `rx` follows the NIC's
    // enqueue, and `tx` and `request` follow the `reply` event recorded
    // before the send.
    let timeline = fr.events_for(id);
    let labels: Vec<&str> = timeline.iter().map(|r| r.event.label()).collect();
    let start = labels
        .iter()
        .position(|l| *l == "nic_rx_enqueue")
        .expect("server rx");
    let server = &timeline[start..start + 10];
    let server_labels: Vec<&str> = server.iter().map(|r| r.event.label()).collect();
    assert_eq!(
        server_labels,
        [
            "nic_rx_enqueue",
            "rx",
            "shard_dispatch",
            "deserialize",
            "app",
            "reply",
            "serialize",
            "nic_tx_enqueue",
            "tx",
            "request"
        ],
        "{labels:?}"
    );
    assert!(
        server.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "server time never goes back: {server:?}"
    );
    let FlightEvent::Span { depth, dur_ns, .. } = server[9].event else {
        panic!("request is a span");
    };
    assert_eq!(depth, 0);
    assert!(
        server[9].ts_ns - dur_ns <= server[2].ts_ns,
        "request spans the dispatch"
    );

    // One exporter: the request's spans and instants in one Chrome trace.
    let trace = json::parse(&tele.chrome_trace_json()).expect("trace parses");
    let phases: Vec<&str> = trace
        .as_arr()
        .expect("an array")
        .iter()
        .filter(|e| e.get("args").and_then(|a| a.get("req_id")?.as_u64()) == Some(u64::from(id)))
        .filter_map(|e| e.get("ph")?.as_str())
        .collect();
    assert!(phases.contains(&"X") && phases.contains(&"i"), "{phases:?}");
}
