//! Attaching telemetry adopts the cells a layer already counts in; it never
//! mints, seeds or replaces one.
//!
//! Every scenario here runs traffic *first* and attaches a handle
//! afterwards, then holds the layer's own accessors and the handle's
//! registry to the same numbers — the numbers counted before the attach.
//! A layer that swapped in fresh zeroed counters on attach (as `UdpStack`,
//! `TcpStack`, `KvEngine`, `KvClient` and `ClusterNode` once did) fails
//! the first assertion of its scenario. The UDP pair is here; the TCP
//! endpoints and the cluster are `tests/stats_parity.rs`' scenarios run
//! with the handle attached after the traffic.

use std::sync::atomic::Ordering;

use cornflakes::core::SerializationConfig;
use cornflakes::kv::client::{KvClient, RetryConfig, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::net::UdpStack;
use cornflakes::nic::{link, FaultPlan};
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightRecorder, Telemetry};

/// Client and server on one `Sim`.
fn pair() -> (KvClient, KvServer, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let stack =
        |port, local| UdpStack::new(sim.clone(), port, local, SerializationConfig::hybrid());
    let client = KvClient::new(stack(cp, CLIENT_PORT), SerKind::Cornflakes);
    let server = KvServer::new(stack(sp, SERVER_PORT), SerKind::Cornflakes);
    (client, server, sim)
}

fn answered(client: &mut KvClient, server: &mut KvServer, id: u32) {
    server.poll();
    let resp = client.recv_response().expect("answered");
    assert_eq!(resp.id, Some(id));
}

const GETS: u64 = 5;
const PUTS: u64 = 3;

/// `PUTS` puts and `GETS` gets, the last get losing its first copy on the
/// wire so the client retransmits once.
fn udp_traffic(client: &mut KvClient, server: &mut KvServer, sim: &Sim) {
    client.enable_retries(RetryConfig {
        timeout_ns: 100_000,
        max_retries: 3,
        ..RetryConfig::default()
    });
    let faults = server.stack.install_faults(FaultPlan::none());
    for i in 0..PUTS {
        let id = client.send_put(format!("key-{i}").as_bytes(), &[i as u8; 96]);
        answered(client, server, id);
    }
    for _ in 1..GETS {
        let id = client.send_get(&[b"key-0"]);
        answered(client, server, id);
    }
    let id = client.send_get(&[b"key-1"]);
    assert!(faults.drop_pending(), "the first copy is lost");
    sim.clock().advance(150_000);
    assert!(client.poll_timers().is_empty(), "retried, not timed out");
    answered(client, server, id);
}

#[test]
fn attaching_to_a_running_udp_pair_resets_nothing_and_twice_doubles_nothing() {
    let (mut client, mut server, sim) = pair();
    udp_traffic(&mut client, &mut server, &sim);
    let total = GETS + PUTS;

    let tele = Telemetry::attach(&sim);
    for attach in 1..=2 {
        // The second pass attaches the same handle again: idempotent.
        server.set_telemetry(&tele);
        client.set_telemetry(&tele);
        assert_eq!(server.requests_handled(), total, "attach {attach}");
        assert_eq!(server.puts_applied(), PUTS);
        assert_eq!(client.retries_sent(), 1);
        assert_eq!(tele.counter_value("kv.cornflakes.requests"), total);
        assert_eq!(tele.counter_value("kv.cornflakes.puts_applied"), PUTS);
        assert_eq!(tele.counter_value("kv.client.retries"), 1);
        assert_eq!(tele.counter_value("kv.client.timeouts"), 0);
        // On each end every frame the NIC received was one packet the
        // stack parsed; the shared handle reads both ends' sum.
        let server_rx = server.stack.nic_stats().rx_frames;
        let client_rx = client.stack.nic_stats().rx_frames;
        assert_eq!((server_rx, client_rx), (total, total));
        assert_eq!(tele.counter_value("nic.rx_frames"), server_rx + client_rx);
        assert_eq!(
            tele.counter_value("net.udp.rx_packets"),
            server_rx + client_rx
        );
        assert_eq!(
            tele.counter_value("nic.q0.rx_frames"),
            server_rx + client_rx
        );
        // One more frame left the client than arrived at the server.
        assert_eq!(tele.counter_value("nic.tx_frames"), 2 * total + 1);
    }

    // The adopted cells are the live ones: traffic after the attach shows.
    let id = client.send_get(&[b"key-2"]);
    answered(&mut client, &mut server, id);
    assert_eq!(server.requests_handled(), total + 1);
    assert_eq!(tele.counter_value("kv.cornflakes.requests"), total + 1);
}

#[test]
fn two_machines_on_one_handle_both_show_their_memory() {
    let (mut client, mut server, sim) = pair();
    udp_traffic(&mut client, &mut server, &sim);
    let tele = Telemetry::attach(&sim);
    server.set_telemetry(&tele);
    client.set_telemetry(&tele);
    let (s, c) = (
        server.stack.ctx().registry.stats(),
        client.stack.ctx().registry.stats(),
    );
    for (name, cells) in [
        ("mem.pool.allocs", [&s.pool_allocs, &c.pool_allocs]),
        ("mem.pool.frees", [&s.pool_frees, &c.pool_frees]),
        ("mem.rcbuf.increfs", [&s.increfs, &c.increfs]),
        (
            "mem.registry.registered_bytes",
            [&s.registered_bytes, &c.registered_bytes],
        ),
    ] {
        let [server_side, client_side] = cells.map(|cell| cell.load(Ordering::Relaxed));
        assert!(
            server_side > 0 && client_side > 0,
            "{name}: both ends moved"
        );
        assert_eq!(
            tele.counter_value(name),
            server_side + client_side,
            "{name}"
        );
    }
}

/// The recorded event labels of a fixed little exchange, with the handle
/// attached as `set_telemetry` then `set_flight_recorder`, or the reverse.
fn timeline(flight_first: bool) -> Vec<&'static str> {
    let (mut client, mut server, sim) = pair();
    let tele = Telemetry::attach(&sim);
    let fr = FlightRecorder::with_capacity(256);
    if flight_first {
        server.set_flight_recorder(&fr);
        client.set_flight_recorder(&fr);
    }
    server.set_telemetry(&tele);
    client.set_telemetry(&tele);
    if !flight_first {
        server.set_flight_recorder(&fr);
        client.set_flight_recorder(&fr);
    }
    for handle in [server.stack.telemetry(), client.stack.telemetry()] {
        assert!(handle.enabled(), "metrics half installed");
        assert!(handle.flight().is_enabled(), "flight half installed");
    }
    let id = client.send_put(b"k", &[7; 64]);
    answered(&mut client, &mut server, id);
    assert_eq!(tele.counter_value("kv.cornflakes.requests"), 1);
    assert_eq!(tele.counter_value("kv.client.retries"), 0);
    fr.events_for(id).iter().map(|r| r.event.label()).collect()
}

#[test]
fn set_telemetry_and_set_flight_recorder_commute() {
    let events = timeline(false);
    assert_eq!(events, timeline(true));
    for expected in [
        "client_send",
        "nic_tx_enqueue",
        "nic_rx_enqueue",
        "shard_dispatch",
        "reply",
        "client_recv",
    ] {
        assert!(events.contains(&expected), "{expected} in {events:?}");
    }
}
