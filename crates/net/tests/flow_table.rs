//! Flow-table listener end-to-end tests: accept, serve, teardown, reap,
//! bounded state under misbehaving peers, and the zero-alloc churn proof.

mod common;

use cf_net::tcp::{FLAG_ACK, FLAG_SYN, OFF_FLAGS};
use cf_net::{FlowConfig, FlowId, NetError, TcpListener, TcpStack};
use cf_nic::PortHub;
use cf_sim::{Clock, MachineProfile, Sim};
use cf_telemetry::{alloc_count, CountingAlloc, Telemetry};
use cornflakes_core::SerializationConfig;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SERVER_PORT: u16 = 9000;

/// A listener behind a [`PortHub`] (the aggregation switch), plus the hub
/// for attaching clients and injecting raw adversarial frames.
fn rig(cfg: FlowConfig) -> (TcpListener, PortHub, Sim, Clock) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let clock = sim.clock();
    let (server_wire, trunk) = cf_nic::link();
    let hub = PortHub::new(trunk);
    let listener = TcpListener::new(
        sim.clone(),
        server_wire,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        cfg,
    );
    (listener, hub, sim, clock)
}

/// Attaches a real [`TcpStack`] client on `port` and completes the
/// handshake through the hub.
fn connect_client(listener: &mut TcpListener, hub: &mut PortHub, sim: &Sim, port: u16) -> TcpStack {
    let mut client = TcpStack::new(
        sim.clone(),
        hub.attach(port),
        port,
        SerializationConfig::hybrid(),
    );
    client.connect(SERVER_PORT).unwrap();
    hub.pump();
    listener.poll().unwrap(); // SYN -> SYN|ACK
    hub.pump();
    client.poll().unwrap(); // SYN|ACK -> ACK
    hub.pump();
    listener.poll().unwrap(); // ACK -> established
    assert!(client.is_established());
    client
}

/// One request-response exchange; returns the flow the listener saw.
fn roundtrip(
    listener: &mut TcpListener,
    hub: &mut PortHub,
    client: &mut TcpStack,
    payload: &[u8],
) -> FlowId {
    client.send_bytes(payload).unwrap();
    hub.pump();
    listener.poll().unwrap();
    let (flow, msg) = listener.recv_from().unwrap().expect("request delivered");
    assert_eq!(msg.as_slice(), payload);
    assert!(listener.send_bytes_to(flow, b"reply").unwrap());
    hub.pump();
    client.poll().unwrap();
    let reply = client.recv_msg().unwrap().expect("reply delivered");
    assert_eq!(reply.as_slice(), b"reply");
    // Let the client's ACK release the listener's retransmission record.
    hub.pump();
    listener.poll().unwrap();
    flow
}

/// A raw SYN frame from `src` (adversarial drivers skip the full stack).
fn raw_syn(src: u16) -> Vec<u8> {
    common::raw_segment(src, SERVER_PORT, 1, 0, FLAG_SYN)
}

/// The matching raw handshake-completing ACK (client ISS = 1).
fn raw_handshake_ack(src: u16) -> Vec<u8> {
    common::raw_segment(src, SERVER_PORT, 2, 2, FLAG_ACK)
}

#[test]
fn accepts_and_serves_many_clients() {
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let mut clients: Vec<TcpStack> = (0..8)
        .map(|i| connect_client(&mut listener, &mut hub, &sim, 4000 + i))
        .collect();
    assert_eq!(listener.established_flows(), 8);
    for (i, c) in clients.iter_mut().enumerate() {
        roundtrip(&mut listener, &mut hub, c, format!("req {i}").as_bytes());
    }
    assert_eq!(listener.stats().msgs_received, 8);
    assert_eq!(listener.stats().msgs_sent, 8);
}

#[test]
fn fin_teardown_frees_slot_and_pool_immediately() {
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let baseline = listener.ctx().pool.live_slots();
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    roundtrip(&mut listener, &mut hub, &mut client, b"one request");
    assert_eq!(listener.active_flows(), 1);

    client.close().unwrap();
    hub.pump();
    listener.poll().unwrap(); // FIN -> FIN|ACK, slot recycled now
    assert_eq!(listener.active_flows(), 0, "FIN frees the slot immediately");
    assert_eq!(listener.stats().closes, 1);
    // The pool proof: buffer references (rx frames, retained tx records)
    // are all released at close — while the listener is still alive, not
    // merely when it drops.
    assert_eq!(
        listener.ctx().pool.live_slots(),
        baseline,
        "pool occupancy returns to baseline on close"
    );
    hub.pump();
    client.poll().unwrap(); // FIN|ACK completes the client's close
    assert!(client.is_closed());
    assert_eq!(
        client.ctx().pool.live_slots(),
        0,
        "client side fully drains"
    );
}

#[test]
fn server_initiated_close_frees_and_notifies_peer() {
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    let flow = roundtrip(&mut listener, &mut hub, &mut client, b"hello");
    assert!(listener.close_flow(flow).unwrap());
    assert_eq!(listener.active_flows(), 0);
    hub.pump();
    client.poll().unwrap(); // FIN arrives; client replies FIN|ACK and closes
    assert!(client.is_closed());
    // A stale handle refuses instead of touching the recycled slot.
    assert!(!listener.send_bytes_to(flow, b"late").unwrap());
    assert!(!listener.close_flow(flow).unwrap());
}

#[test]
fn syn_flood_overflow_answers_rst_and_table_never_exceeds_capacity() {
    let cfg = FlowConfig {
        capacity: 8,
        syn_backlog: 4,
        ..FlowConfig::default()
    };
    let (mut listener, mut hub, sim, _clock) = rig(cfg);
    let tele = Telemetry::attach(&sim);
    listener.set_telemetry(&tele);

    // 10x the backlog in raw SYNs, none completing the handshake.
    for i in 0..40u16 {
        hub.inject(raw_syn(30_000 + i));
    }
    hub.pump();
    listener.poll().unwrap();
    assert_eq!(listener.syn_backlog_len(), 4, "backlog capped");
    assert_eq!(listener.stats().syn_overflow_rsts, 36);
    assert!(listener.active_flows() <= listener.capacity());
    // The gauge agrees with the accessor — benches assert on it.
    let active = tele.gauge_value("net.tcp.flow.active");
    assert_eq!(active, listener.active_flows() as f64);

    // A well-behaved client still gets in: the flood holds backlog slots,
    // but the listener keeps serving (reaping clears them shortly).
    hub.pump(); // flush pending RSTs toward the hub (unrouted, counted)
    assert!(hub.stats().unrouted > 0, "rejects flowed back");
}

#[test]
fn rejected_syn_resets_the_initiating_client() {
    let cfg = FlowConfig {
        syn_backlog: 0, // reject everything
        ..FlowConfig::default()
    };
    let (mut listener, mut hub, sim, _clock) = rig(cfg);
    let mut client = TcpStack::new(
        sim.clone(),
        hub.attach(4000),
        4000,
        SerializationConfig::hybrid(),
    );
    client.connect(SERVER_PORT).unwrap();
    hub.pump();
    listener.poll().unwrap(); // SYN -> RST
    hub.pump();
    client.poll().unwrap();
    assert!(client.is_closed(), "RST aborts the pending connect");
    assert_eq!(listener.stats().syn_overflow_rsts, 1);
}

#[test]
fn idle_half_open_flows_are_reaped() {
    let cfg = FlowConfig {
        idle_timeout_ns: 1_000_000,
        ..FlowConfig::default()
    };
    let (mut listener, mut hub, _sim, clock) = rig(cfg);
    for i in 0..4u16 {
        hub.inject(raw_syn(31_000 + i));
    }
    hub.pump();
    listener.poll().unwrap();
    assert_eq!(listener.syn_backlog_len(), 4);
    clock.advance(2_000_000);
    listener.poll().unwrap();
    assert_eq!(listener.syn_backlog_len(), 0, "half-open flows reaped");
    assert_eq!(listener.active_flows(), 0);
    assert_eq!(listener.stats().reaps, 4);
}

#[test]
fn idle_established_flows_are_reaped_and_active_ones_survive() {
    let cfg = FlowConfig {
        idle_timeout_ns: 1_000_000,
        ..FlowConfig::default()
    };
    let (mut listener, mut hub, sim, clock) = rig(cfg);
    let mut talker = connect_client(&mut listener, &mut hub, &sim, 4000);
    let _silent = connect_client(&mut listener, &mut hub, &sim, 4001);
    assert_eq!(listener.established_flows(), 2);

    // The talker stays busy across several idle windows; the silent flow
    // never sends again.
    for _ in 0..4 {
        clock.advance(600_000);
        roundtrip(&mut listener, &mut hub, &mut talker, b"keepalive");
    }
    listener.poll().unwrap();
    assert_eq!(listener.established_flows(), 1, "silent flow reaped");
    assert_eq!(listener.stats().reaps, 1);
    roundtrip(&mut listener, &mut hub, &mut talker, b"still here");
}

#[test]
fn per_flow_reasm_cap_bounds_a_slow_drip_reader() {
    // Each flow's reassembly buffer holds 64 KiB (`FLOW_REASM_CAP`): 16
    // messages of 4,096 stream bytes (4,092 behind the length prefix).
    const MSG: usize = 4092;
    const SENT: usize = 24;
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    // The peer pushes far past the cap while the app never drains.
    for _ in 0..SENT {
        client.send_bytes(&[0xAB; MSG]).unwrap();
        hub.pump();
        listener.poll().unwrap();
    }
    assert!(
        listener.stats().reasm_overflow_drops > 0,
        "overflow counted"
    );
    // Bounded: the flow retains at most the cap, not 24 x 4 KiB.
    assert!(listener.resident_bytes() < 1024 * 1024);
    let mut delivered = 0;
    while let Some((_, msg)) = listener.recv_from().unwrap() {
        assert_eq!(msg.as_slice(), &[0xAB; MSG]);
        delivered += 1;
    }
    assert_eq!(delivered, 16, "the cap held 16 messages, no more");
    // Refused segments were dropped-as-loss: the client's RTO re-delivers
    // once the reader drains, so no message is lost.
    for _ in 0..200 {
        if delivered == SENT {
            break;
        }
        sim_step(&sim, &mut hub, &mut listener, &mut client);
        while let Some((_, msg)) = listener.recv_from().unwrap() {
            assert_eq!(msg.as_slice(), &[0xAB; MSG]);
            delivered += 1;
        }
    }
    assert_eq!(delivered, SENT, "every message eventually delivered");
}

#[test]
fn error_bursts_across_the_frame_are_dropped_counted_and_repaired() {
    let (mut listener, mut hub, sim, clock) = rig(FlowConfig::default());
    let tele = Telemetry::attach(&sim);
    listener.set_telemetry(&tele);
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    let to_listener = listener.install_faults(cf_nic::FaultPlan::none());
    let to_client = client.install_faults(cf_nic::FaultPlan::none());

    let mut drops = 0;
    for len in common::BURST_FRAME_LENS {
        // One message is one segment: TCP header, length prefix, bytes.
        let data: Vec<u8> = (0..len - cf_net::tcp::TCP_HEADER_BYTES - 4)
            .map(|i| (i * 37 + len) as u8)
            .collect();
        for (first_bit, width) in common::error_bursts(len) {
            client.send_bytes(&data).unwrap();
            hub.pump();
            assert!(to_listener.corrupt_pending_at(first_bit, width));
            listener.poll().unwrap();
            assert!(
                listener.recv_from().unwrap().is_none(),
                "{len} B segment, {width} bits flipped from bit {first_bit}: surfaced"
            );
            drops += 1;
            assert_eq!(listener.stats().rx_corrupt_drops, drops);
            assert_eq!(
                tele.counter_value("net.tcp.listen.rx_corrupt_drops"),
                drops,
                "{len} B segment, bit {first_bit}: counted exactly once"
            );
            hub.pump();
            assert_eq!(to_client.pending(), 0, "a corrupt segment is not ACKed");

            // The client's RTO repairs it with the same bytes, which verify.
            clock.advance(300_000);
            client.poll().unwrap();
            hub.pump();
            listener.poll().unwrap();
            let (_, msg) = listener.recv_from().unwrap().expect("retransmission");
            assert_eq!(msg.as_slice(), &data[..]);
            hub.pump();
            client.poll().unwrap();
            assert_eq!(client.retransmit_queue_len(), 0);
        }
    }
    assert_eq!(client.retransmissions(), drops);
    assert_eq!(listener.established_flows(), 1, "the flow survived it all");
}

#[test]
fn ack_for_bytes_never_sent_releases_nothing_and_the_rto_still_repairs() {
    let (mut listener, mut hub, sim, clock) = rig(FlowConfig::default());
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    client.send_bytes(b"request").unwrap();
    hub.pump();
    listener.poll().unwrap();
    let (flow, _) = listener.recv_from().unwrap().expect("request");
    assert!(listener.send_bytes_to(flow, b"reply").unwrap());
    hub.pump();
    let to_client = client.install_faults(cf_nic::FaultPlan::none());
    assert!(
        to_client.drop_pending(),
        "the reply's only transmission is lost"
    );
    let pinned = listener.ctx().pool.live_slots();

    // The listener's snd_nxt is 2 + 4 + 5 = 11; a forged segment from the
    // client's port acknowledges 1000 bytes past it.
    hub.inject(common::raw_segment(
        4000,
        SERVER_PORT,
        13,
        11 + 1000,
        FLAG_ACK,
    ));
    hub.pump();
    listener.poll().unwrap();
    assert_eq!(
        listener.ctx().pool.live_slots(),
        pinned,
        "the unACKed reply stays referenced for retransmission"
    );

    clock.advance(300_000);
    listener.poll().unwrap();
    assert_eq!(listener.stats().retransmissions, 1, "the RTO still fires");
    hub.pump();
    client.poll().unwrap();
    let reply = client
        .recv_msg()
        .unwrap()
        .expect("retransmission delivered");
    assert_eq!(reply.as_slice(), b"reply");
    hub.pump();
    listener.poll().unwrap(); // the genuine ACK releases the record
    assert!(listener.ctx().pool.live_slots() < pinned);
}

/// Advances the world one RTO-ish step: clock, client timers, wire, server.
fn sim_step(sim: &Sim, hub: &mut PortHub, listener: &mut TcpListener, client: &mut TcpStack) {
    sim.clock().advance(250_000);
    client.poll().unwrap();
    hub.pump();
    listener.poll().unwrap();
    hub.pump();
    client.poll().unwrap();
    hub.pump();
    listener.poll().unwrap();
}

#[test]
fn tx_record_cap_refuses_sends_to_a_dead_peer() {
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    client.send_bytes(b"request").unwrap();
    hub.pump();
    listener.poll().unwrap();
    let (flow, _) = listener.recv_from().unwrap().expect("request");
    // The peer stops ACKing (never polls); unACKed replies pile up only
    // to the cap of 64 records (`FLOW_MAX_TX_RECORDS`).
    for i in 0..64 {
        assert!(listener.send_bytes_to(flow, b"reply").unwrap(), "reply {i}");
    }
    assert!(
        !listener.send_bytes_to(flow, b"reply").unwrap(),
        "cap refuses"
    );
    assert_eq!(listener.stats().tx_cap_drops, 1);
}

#[test]
fn rx_pool_exhaustion_backpressures_recv_from() {
    let (mut listener, mut hub, sim, _clock) = rig(FlowConfig::default());
    let mut client = connect_client(&mut listener, &mut hub, &sim, 4000);
    client.send_bytes(b"queued message").unwrap();
    hub.pump();
    listener.poll().unwrap();
    // Exhaust every size class (recv_from draws a message-sized buffer
    // from the small classes), then observe typed backpressure.
    let mut hogs = Vec::new();
    let mut size = 1usize;
    while size <= 4096 {
        while let Ok(b) = listener.ctx().pool.alloc(size) {
            hogs.push(b);
        }
        size *= 2;
    }
    match listener.recv_from() {
        Err(NetError::RxPoolExhausted) => {}
        other => panic!("expected RxPoolExhausted, got {other:?}"),
    }
    drop(hogs);
    let (_, msg) = listener
        .recv_from()
        .unwrap()
        .expect("message intact after backpressure");
    assert_eq!(msg.as_slice(), b"queued message");
}

#[test]
fn accept_close_churn_is_allocation_free_after_warmup() {
    let cfg = FlowConfig {
        capacity: 32,
        ..FlowConfig::default()
    };
    let (mut listener, mut hub, _sim, clock) = rig(cfg);

    // Raw-frame churn driver: SYN, handshake ACK, FIN — the whole
    // lifecycle — so slot recycling, wheel buckets, descriptor spares, and
    // reasm capacity all reach steady state. The three frames per cycle
    // are passed in so the measured window can use pre-built ones (the
    // driver's own `vec![]`s must not count against the listener).
    fn cycle(
        hub: &mut PortHub,
        listener: &mut TcpListener,
        syn: Vec<u8>,
        ack: Vec<u8>,
        fin: Vec<u8>,
    ) {
        hub.inject(syn);
        hub.pump();
        listener.poll().unwrap();
        hub.inject(ack);
        hub.pump();
        listener.poll().unwrap();
        hub.inject(fin);
        hub.pump();
        listener.poll().unwrap();
        hub.pump(); // drain replies (unrouted at the hub)
    }
    fn frames_for(port: u16) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        // FIN at seq 2 (no data), consuming one sequence number.
        let mut fin = raw_handshake_ack(port);
        fin[OFF_FLAGS] = FLAG_ACK | cf_net::tcp::FLAG_FIN;
        (raw_syn(port), raw_handshake_ack(port), fin)
    }

    for i in 0..512u16 {
        let (syn, ack, fin) = frames_for(20_000 + (i % 96));
        cycle(&mut hub, &mut listener, syn, ack, fin);
        // Advance virtual time so the timer wheel turns and drains stale
        // entries — frozen time would pile generations into one bucket.
        clock.advance(250_000);
    }
    assert_eq!(listener.active_flows(), 0);

    // Pre-build the measured window's frames outside of it.
    let mut prebuilt: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> =
        (0..64u16).map(|i| frames_for(20_000 + (i % 96))).collect();
    prebuilt.reverse();

    let before = alloc_count();
    while let Some((syn, ack, fin)) = prebuilt.pop() {
        cycle(&mut hub, &mut listener, syn, ack, fin);
        clock.advance(250_000);
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "accept/close churn must not touch the heap after warmup ({allocs} allocs in 64 cycles)"
    );
}
