//! End-to-end UDP datapath tests: two stacks over a simulated wire.

#![allow(clippy::field_reassign_with_default)] // builder-style test setup

mod common;

use cf_net::{FrameMeta, UdpStack};
use cf_nic::link;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::msgs::{GetM, Single};
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

fn pair() -> (UdpStack, UdpStack) {
    let (pa, pb) = link();
    let a = UdpStack::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        pa,
        1000,
        SerializationConfig::hybrid(),
    );
    let b = UdpStack::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        pb,
        2000,
        SerializationConfig::hybrid(),
    );
    (a, b)
}

fn meta(req_id: u32) -> FrameMeta {
    FrameMeta {
        msg_type: 1,
        flags: 0,
        req_id,
    }
}

#[test]
fn send_object_roundtrip_hybrid() {
    let (mut client, mut server) = pair();

    // Server-side value in pinned memory; client sends a request, server
    // replies with a mixed copy/zero-copy object.
    let mut req = GetM::new();
    req.id = Some(7);
    req.keys.append(CFBytes::new(client.ctx(), b"the-key"));
    let hdr = client.header_to(2000, meta(7));
    client.send_object(hdr, &req).unwrap();

    let pkt = server.recv_packet().expect("request arrives");
    assert_eq!(pkt.hdr.meta.req_id, 7);
    assert_eq!(pkt.hdr.src_port, 1000);
    let req_d = GetM::deserialize(server.ctx(), &pkt.payload).unwrap();
    assert_eq!(req_d.keys.get(0).unwrap().as_slice(), b"the-key");

    // Server builds the response: one large pinned value (zero-copy) and
    // the echoed key (copied).
    let mut value = server.ctx().pool.alloc(2048).unwrap();
    value.fill(0x77);
    let mut resp = GetM::new();
    resp.id = req_d.id;
    resp.keys.append(CFBytes::new(server.ctx(), b"the-key"));
    resp.init_vals(1);
    resp.get_mut_vals()
        .append(CFBytes::new(server.ctx(), value.as_slice()));
    assert_eq!(resp.zero_copy_entries(), 1);
    let reply_hdr = pkt.hdr.reply(meta(7));
    server.send_object(reply_hdr, &resp).unwrap();

    let reply = client.recv_packet().expect("reply arrives");
    assert_eq!(reply.hdr.dst_port, 1000);
    assert_eq!(reply.hdr.payload_len as usize, reply.payload.len());
    let resp_d = GetM::deserialize(client.ctx(), &reply.payload).unwrap();
    assert_eq!(resp_d.id, Some(7));
    assert_eq!(resp_d.vals.get(0).unwrap().as_slice(), &[0x77u8; 2048][..]);
}

#[test]
fn zero_copy_buffers_held_until_completion() {
    let (mut a, mut _b) = pair();
    a.set_auto_complete(false);
    let value = a.ctx().pool.alloc(4096).unwrap();
    let mut m = Single::default();
    m.val = Some(CFBytes::new(a.ctx(), value.as_slice()));
    assert_eq!(value.refcount(), 2, "CFBytes holds one reference");
    let hdr = a.header_to(2000, meta(1));
    a.send_object(hdr, &m).unwrap();
    drop(m); // application frees its object right after send
    assert_eq!(
        value.refcount(),
        2,
        "NIC still holds the in-flight reference"
    );
    a.poll_completions();
    assert_eq!(value.refcount(), 1, "completion released the reference");
}

#[test]
fn sga_path_uses_one_more_entry_and_same_bytes() {
    let (mut a, mut b) = pair();
    let build = |stack: &UdpStack| {
        let value = stack.ctx().pool.alloc(1024).unwrap();
        let mut m = GetM::new();
        m.id = Some(3);
        m.vals.append(CFBytes::new(stack.ctx(), value.as_slice()));
        (m, value)
    };

    let (m1, _v1) = build(&a);
    let hdr = a.header_to(2000, meta(3));
    a.send_object(hdr, &m1).unwrap();
    let combined_entries = a.nic_stats().tx_sg_entries;

    let (m2, _v2) = build(&a);
    a.send_object_sga(hdr, &m2).unwrap();
    let sga_entries = a.nic_stats().tx_sg_entries - combined_entries;
    assert_eq!(
        sga_entries,
        combined_entries + 1,
        "SGA path adds a separate packet-header entry"
    );

    // Both frames decode identically.
    let p1 = b.recv_packet().unwrap();
    let p2 = b.recv_packet().unwrap();
    assert_eq!(p1.payload.as_slice(), p2.payload.as_slice());
    let d = GetM::deserialize(b.ctx(), &p1.payload).unwrap();
    assert_eq!(d.id, Some(3));
    assert_eq!(d.vals.get(0).unwrap().len(), 1024);
}

#[test]
fn send_built_contiguous_payload() {
    let (mut a, mut b) = pair();
    let payload = b"hand-rolled contiguous serialization";
    let mut tx = a.alloc_tx(payload.len()).unwrap();
    tx.write_at(cf_net::HEADER_BYTES, payload);
    let hdr = a.header_to(2000, meta(9));
    a.send_built(hdr, tx, payload.len()).unwrap();

    let pkt = b.recv_packet().unwrap();
    assert_eq!(pkt.hdr.meta.req_id, 9);
    assert_eq!(&*pkt.payload, payload);
}

#[test]
fn forward_frame_echoes_and_swaps_ports() {
    let (mut a, mut b) = pair();
    let payload = b"echo me without serialization";
    let mut tx = a.alloc_tx(payload.len()).unwrap();
    tx.write_at(cf_net::HEADER_BYTES, payload);
    let hdr = a.header_to(2000, meta(11));
    a.send_built(hdr, tx, payload.len()).unwrap();

    let pkt = b.recv_packet().unwrap();
    b.forward_frame(pkt).unwrap();

    let echoed = a.recv_packet().unwrap();
    assert_eq!(&*echoed.payload, payload);
    assert_eq!(echoed.hdr.src_port, 2000);
    assert_eq!(echoed.hdr.dst_port, 1000);
}

#[test]
fn recv_packet_returns_none_when_idle() {
    let (mut a, _b) = pair();
    assert!(a.recv_packet().is_none());
    assert!(!a.has_pending_rx());
}

#[test]
fn service_time_depends_on_serialization_strategy() {
    // A send with a large copied field must cost more virtual time than the
    // same field zero-copied.
    let (pa, _pb) = link();
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let mut zc_stack = UdpStack::new(sim.clone(), pa, 1, SerializationConfig::hybrid());
    let value = zc_stack.ctx().pool.alloc(8 * 1024).unwrap();

    let t0 = sim.now();
    let mut m = Single::default();
    m.val = Some(CFBytes::new(zc_stack.ctx(), value.as_slice()));
    assert_eq!(m.zero_copy_entries(), 1);
    let hdr = zc_stack.header_to(2, meta(0));
    zc_stack.send_object(hdr, &m).unwrap();
    let zc_cost = sim.now() - t0;

    let (pc, _pd) = link();
    let sim2 = Sim::new(MachineProfile::tiny_for_tests());
    let mut cp_stack = UdpStack::new(sim2.clone(), pc, 1, SerializationConfig::always_copy());
    let value2 = cp_stack.ctx().pool.alloc(8 * 1024).unwrap();
    let t1 = sim2.now();
    let mut m2 = Single::default();
    m2.val = Some(CFBytes::new(cp_stack.ctx(), value2.as_slice()));
    assert_eq!(m2.zero_copy_entries(), 0);
    let hdr2 = cp_stack.header_to(2, meta(0));
    cp_stack.send_object(hdr2, &m2).unwrap();
    let cp_cost = sim2.now() - t1;

    assert!(
        cp_cost > zc_cost + 500,
        "8 KiB copy ({cp_cost} ns) should dwarf zero-copy bookkeeping ({zc_cost} ns)"
    );
}

#[test]
fn kv_server_counters_flow_through_udp_stack() {
    // The per-SerKind counters the KV server registers (requests served,
    // bytes in, zero-copy entries posted) must agree with what actually
    // crossed this UDP stack's wire, and cf-mem's cells with the hybrid
    // serializer's per-field choices.
    use cf_kv::client::client_server_pair;
    use cf_kv::server::SerKind;
    use cf_mem::PoolConfig;
    use cf_telemetry::Telemetry;

    let server_sim = Sim::new(MachineProfile::tiny_for_tests());
    let (mut client, mut server) = client_server_pair(
        server_sim.clone(),
        SerKind::Cornflakes,
        SerializationConfig::hybrid(),
        PoolConfig::default(),
    );
    // One value above the hybrid threshold (zero-copy) and one below.
    server
        .store
        .preload(server.stack.ctx(), b"big", &[2048])
        .unwrap();
    server
        .store
        .preload(server.stack.ctx(), b"small", &[64])
        .unwrap();

    let tele = Telemetry::attach(&server_sim);
    server.set_telemetry(&tele);

    let requests = 6u64;
    for i in 0..requests {
        let key: &[u8] = if i % 2 == 0 { b"big" } else { b"small" };
        client.send_get(&[key]);
        server.poll();
        client.recv_response().expect("response");
    }
    // The NIC's own view of the wire, for comparison.
    let rx_total = server.stack.nic_stats().rx_bytes;
    let tx_total = server.stack.nic_stats().tx_bytes;

    assert_eq!(tele.counter_value("kv.cornflakes.requests"), requests);
    assert_eq!(tele.counter_value("kv.cornflakes.bytes_in"), rx_total);
    // 3 of the 6 responses carried the 2048 B value zero-copy ...
    assert_eq!(tele.counter_value("mem.registry.recover_hits"), 3);
    // ... and 3 the 64 B value copied into the arena.
    assert_eq!(tele.counter_value("mem.arena.copies"), 3);
    assert_eq!(tele.counter_value("mem.arena.bytes_copied"), 3 * 64);
    assert!(tx_total > 3 * 2048, "responses actually carried the values");
    // The stack-level counters the server's telemetry wires in agree.
    assert_eq!(tele.counter_value("net.udp.rx_packets"), requests);
    assert_eq!(tele.counter_value("net.udp.tx_packets"), requests);
}

#[test]
fn corrupt_frames_are_dropped_and_counted() {
    use cf_nic::FaultPlan;
    use cf_telemetry::Telemetry;

    let (mut a, mut b) = pair();
    let tele = Telemetry::new(b.sim().clock());
    b.set_telemetry(&tele);
    let faults = b.install_faults(FaultPlan::none());

    // First frame arrives corrupted: the NIC's mark drops it silently.
    let payload = b"integrity matters";
    let mut tx = a.alloc_tx(payload.len()).unwrap();
    tx.write_at(cf_net::HEADER_BYTES, payload);
    let hdr = a.header_to(2000, meta(1));
    a.send_built(hdr, tx, payload.len()).unwrap();
    assert!(faults.corrupt_pending(), "frame in flight to corrupt");
    assert!(b.recv_packet().is_none(), "corrupt frame never surfaces");
    assert_eq!(tele.counter_value("net.udp.rx_corrupt_drops"), 1);

    // A clean retransmission of the same bytes gets through.
    let mut tx = a.alloc_tx(payload.len()).unwrap();
    tx.write_at(cf_net::HEADER_BYTES, payload);
    a.send_built(hdr, tx, payload.len()).unwrap();
    let pkt = b.recv_packet().expect("clean frame delivered");
    assert_eq!(&*pkt.payload, payload);
    assert_eq!(tele.counter_value("net.udp.rx_corrupt_drops"), 1);

    // A corrupted runt, too short to hold bytes 18..22, is dropped as
    // corrupt: every marked frame is, whatever its length.
    a.nic()
        .borrow()
        .port()
        .send(cf_nic::Frame::new(vec![0x5A; 10]));
    assert!(faults.corrupt_pending(), "runt in flight to corrupt");
    assert!(b.recv_packet().is_none(), "corrupt runt never surfaces");
    assert_eq!(tele.counter_value("net.udp.rx_corrupt_drops"), 2);
    assert_eq!(tele.counter_value("net.udp.rx_runt_drops"), 0);
}

#[test]
fn error_bursts_across_the_frame_are_dropped_and_counted() {
    use cf_nic::FaultPlan;
    use cf_telemetry::Telemetry;

    let (mut a, mut b) = pair();
    let tele = Telemetry::new(b.sim().clock());
    b.set_telemetry(&tele);
    let faults = b.install_faults(FaultPlan::none());
    let hdr = a.header_to(2000, meta(1));
    let send = |a: &mut UdpStack, payload: &[u8]| {
        let mut tx = a.alloc_tx(payload.len()).unwrap();
        tx.write_at(cf_net::HEADER_BYTES, payload);
        a.send_built(hdr, tx, payload.len()).unwrap();
    };

    let mut drops = 0;
    for len in common::BURST_FRAME_LENS {
        let payload: Vec<u8> = (0..len - cf_net::HEADER_BYTES)
            .map(|i| (i * 31 + len) as u8)
            .collect();
        for (first_bit, width) in common::error_bursts(len) {
            send(&mut a, &payload);
            assert!(faults.corrupt_pending_at(first_bit, width));
            assert!(
                b.recv_packet().is_none(),
                "{len} B frame, {width} bits flipped from bit {first_bit}: surfaced"
            );
            drops += 1;
            assert_eq!(
                tele.counter_value("net.udp.rx_corrupt_drops"),
                drops,
                "{len} B frame, bit {first_bit}: counted exactly once"
            );
        }
        // The same bytes, untouched, still verify.
        send(&mut a, &payload);
        let pkt = b.recv_packet().expect("clean frame delivered");
        assert_eq!(&*pkt.payload, &payload[..]);
    }
    assert_eq!(tele.counter_value("net.udp.rx_corrupt_drops"), drops);
    assert_eq!(tele.counter_value("net.udp.rx_runt_drops"), 0);
    assert_eq!(b.nic_stats().tx_frames, 0, "no reply to a corrupt frame");
    assert!(!a.has_pending_rx());
}

#[test]
fn kv_client_retries_lost_requests_and_dedups_retried_puts() {
    use cf_kv::client::{client_server_pair, RetryConfig};
    use cf_kv::server::SerKind;
    use cf_mem::PoolConfig;
    use cf_nic::FaultPlan;
    use cf_telemetry::Telemetry;

    let server_sim = Sim::new(MachineProfile::tiny_for_tests());
    let (mut client, mut server) = client_server_pair(
        server_sim.clone(),
        SerKind::Cornflakes,
        SerializationConfig::hybrid(),
        PoolConfig::default(),
    );
    let server_tele = Telemetry::attach(&server_sim);
    server.set_telemetry(&server_tele);
    let client_sim = client.stack.sim().clone();
    let client_tele = Telemetry::new(client_sim.clock());
    client.set_telemetry(&client_tele);
    client.enable_retries(RetryConfig {
        timeout_ns: 100_000,
        max_retries: 3,
        ..RetryConfig::default()
    });

    // Lose the first transmission of a put request.
    let req_faults = server.stack.install_faults(FaultPlan::none());
    let id = client.send_put(b"k", b"retried value");
    assert!(req_faults.drop_pending(), "request eaten by the wire");
    server.poll();
    assert!(client.recv_response().is_none(), "no reply yet");

    // The virtual-time deadline fires; the client retransmits the same id.
    client_sim.clock().advance(150_000);
    assert!(client.poll_timers().is_empty(), "retry, not timeout");
    assert_eq!(client_tele.counter_value("kv.client.retries"), 1);
    server.poll();
    let resp = client.recv_response().expect("retried put answered");
    assert_eq!(resp.id, Some(id));
    assert_eq!(resp.flags, 0, "applied cleanly");
    assert_eq!(server.puts_applied(), 1);

    // Lose the *response* this time: the server sees the retry as a
    // duplicate and acknowledges without re-applying.
    let resp_faults = client.stack.install_faults(FaultPlan::none());
    client.send_put(b"k", b"second value");
    server.poll();
    assert!(resp_faults.drop_pending(), "response eaten by the wire");
    assert!(client.recv_response().is_none());
    client_sim.clock().advance(300_000);
    assert!(client.poll_timers().is_empty(), "retry, not timeout");
    server.poll();
    let resp = client.recv_response().expect("dedup reply delivered");
    assert_eq!(resp.flags, 0);
    assert_eq!(server.puts_applied(), 2, "put applied exactly once");
    assert_eq!(server.dedup_hits(), 1, "the retry hit the dedup window");
    assert_eq!(
        server_tele.counter_value("kv.cornflakes.dedup_hits"),
        1,
        "dedup hit visible in metrics"
    );

    // A request the wire always eats times out with a typed signal.
    let dead_faults = server
        .stack
        .install_faults(FaultPlan::seeded(1).with_drop(1.0));
    let doomed = client.send_get(&[b"k"]);
    for _ in 0..8 {
        client_sim.clock().advance(5_000_000);
        let timed_out = client.poll_timers();
        server.poll();
        if timed_out.contains(&doomed) {
            assert_eq!(client_tele.counter_value("kv.client.timeouts"), 1);
            assert!(client.pending_ids().is_empty());
            assert!(dead_faults.stats().dropped > 0);
            return;
        }
    }
    panic!("request should have timed out");
}

#[test]
fn frame_too_large_is_an_error() {
    let (mut a, _b) = pair();
    let v1 = a.ctx().pool.alloc(8 * 1024).unwrap();
    let v2 = a.ctx().pool.alloc(8 * 1024).unwrap();
    let mut m = GetM::new();
    m.vals.append(CFBytes::new(a.ctx(), v1.as_slice()));
    m.vals.append(CFBytes::new(a.ctx(), v2.as_slice()));
    let hdr = a.header_to(2000, meta(0));
    let err = a.send_object(hdr, &m).unwrap_err();
    assert!(matches!(err, cf_net::NetError::Nic(_)), "{err}");
}

#[test]
fn bounded_rx_backlog_tail_drops_bursts_and_counts_them() {
    use cf_telemetry::Telemetry;

    let (mut a, mut b) = pair();
    let tele = Telemetry::new(b.sim().clock());
    b.set_telemetry(&tele);
    b.set_rx_backlog_limit(3);

    // A burst of 8 frames lands on the wire before the receiver drains any.
    for i in 0..8u32 {
        let payload = b"burst";
        let mut tx = a.alloc_tx(payload.len()).unwrap();
        tx.write_at(cf_net::HEADER_BYTES, payload);
        a.send_built(a.header_to(2000, meta(i)), tx, payload.len())
            .unwrap();
    }

    // Pumping the wire into the bounded staging ring keeps the 3 oldest
    // frames and tail-drops the remaining 5, free of any rx CPU charge.
    let dropped = b.pump_rx();
    assert_eq!(dropped, 5);
    assert_eq!(b.rx_backlog_len(), 3);
    assert_eq!(tele.counter_value("net.udp.backlog_drops"), 5);

    for i in 0..3u32 {
        let pkt = b.recv_packet().expect("survivor delivered in order");
        assert_eq!(pkt.hdr.meta.req_id, i);
    }
    assert!(b.recv_packet().is_none(), "dropped frames never surface");
    assert_eq!(b.rx_backlog_len(), 0);

    // Lifting the bound (limit 0) restores the unbounded default.
    b.set_rx_backlog_limit(0);
    for i in 8..16u32 {
        let payload = b"burst";
        let mut tx = a.alloc_tx(payload.len()).unwrap();
        tx.write_at(cf_net::HEADER_BYTES, payload);
        a.send_built(a.header_to(2000, meta(i)), tx, payload.len())
            .unwrap();
    }
    assert_eq!(b.pump_rx(), 0, "unbounded ring drops nothing");
    assert_eq!(b.rx_backlog_len(), 8);
    assert_eq!(tele.counter_value("net.udp.backlog_drops"), 5);
}
