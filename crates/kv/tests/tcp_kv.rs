//! KV-over-TCP end-to-end: a [`TcpKvServer`] on a flow-table listener
//! serving [`TcpKvClient`]s through the hub — puts, multi-gets with
//! zero-copy value segments, degraded puts under store pressure,
//! interleaved clients on one listener, malformed messages, and reply
//! parity with the UDP server.

use cf_kv::client::client_server_pair;
use cf_kv::msgs::GetMsg;
use cf_kv::server::SerKind;
use cf_kv::tcp_server::{sub_header, TcpKvClient, TcpKvServer, TCP_SUBHDR_BYTES};
use cf_kv::{flags, msg_type};
use cf_mem::PoolConfig;
use cf_net::{FlowConfig, TcpListener, TcpStack};
use cf_nic::PortHub;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::Telemetry;
use cornflakes_core::obj::serialize_into;
use cornflakes_core::SerializationConfig;

const SERVER_PORT: u16 = 9000;

fn rig() -> (TcpKvServer, PortHub, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (server_wire, trunk) = cf_nic::link();
    let hub = PortHub::new(trunk);
    let listener = TcpListener::new(
        sim.clone(),
        server_wire,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        FlowConfig::default(),
    );
    (TcpKvServer::new(listener), hub, sim)
}

fn connect(server: &mut TcpKvServer, hub: &mut PortHub, sim: &Sim, port: u16) -> TcpKvClient {
    let stack = TcpStack::new(
        sim.clone(),
        hub.attach(port),
        port,
        SerializationConfig::hybrid(),
    );
    let mut client = TcpKvClient::new(stack);
    client.connect(SERVER_PORT).unwrap();
    hub.pump();
    server.poll().unwrap();
    hub.pump();
    client.poll().unwrap();
    hub.pump();
    server.poll().unwrap();
    assert!(client.is_established());
    client
}

/// One settle round: client frames reach the server, the server serves,
/// and replies reach the client.
fn settle(server: &mut TcpKvServer, hub: &mut PortHub, client: &mut TcpKvClient) {
    hub.pump();
    server.poll().unwrap();
    hub.pump();
    client.poll().unwrap();
    hub.pump();
    server.poll().unwrap(); // client ACKs release server tx records
}

#[test]
fn put_then_get_roundtrip() {
    let (mut server, mut hub, sim) = rig();
    let mut client = connect(&mut server, &mut hub, &sim, 4000);

    let put_id = client.put(b"greeting", b"hello, tcp kv").unwrap();
    settle(&mut server, &mut hub, &mut client);
    let ack = client.recv_reply().unwrap().expect("put acked");
    assert_eq!(ack.msg_type, msg_type::PUT | msg_type::RESPONSE);
    assert_eq!(ack.req_id, put_id);
    assert_eq!(ack.flags, 0);
    assert!(ack.vals.is_empty());

    let get_id = client.get(&[b"greeting"]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let got = client.recv_reply().unwrap().expect("get served");
    assert_eq!(got.msg_type, msg_type::GET | msg_type::RESPONSE);
    assert_eq!(got.req_id, get_id);
    assert_eq!(got.vals, vec![b"hello, tcp kv".to_vec()]);
}

#[test]
fn multi_get_returns_every_requested_value() {
    let (mut server, mut hub, sim) = rig();
    let mut client = connect(&mut server, &mut hub, &sim, 4000);

    for (k, v) in [(b"alpha", b"AAAAA"), (b"bravo", b"BBBBB")] {
        client.put(k, v).unwrap();
        settle(&mut server, &mut hub, &mut client);
        assert_eq!(client.recv_reply().unwrap().expect("put acked").flags, 0);
    }

    client.get(&[b"alpha", b"bravo"]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let got = client.recv_reply().unwrap().expect("multi-get served");
    assert_eq!(got.vals, vec![b"AAAAA".to_vec(), b"BBBBB".to_vec()]);
}

#[test]
fn get_of_missing_key_returns_empty_vals() {
    let (mut server, mut hub, sim) = rig();
    let mut client = connect(&mut server, &mut hub, &sim, 4000);
    client.get(&[b"nonexistent"]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let got = client.recv_reply().unwrap().expect("reply arrives");
    assert_eq!(got.msg_type, msg_type::GET | msg_type::RESPONSE);
    assert!(got.vals.is_empty());
}

#[test]
fn large_segmented_value_survives_the_stream() {
    let (mut server, mut hub, sim) = rig();
    let mut client = connect(&mut server, &mut hub, &sim, 4000);

    // Larger than the put segment size, so the store splits it and the
    // get reply gathers multiple zero-copy segments into the stream.
    // (Kept under the 9000-byte jumbo MTU minus framing: the client
    // stages the whole request contiguously in one frame.)
    let big: Vec<u8> = (0..8_500u32).map(|i| (i % 251) as u8).collect();
    client.put(b"big", &big).unwrap();
    settle(&mut server, &mut hub, &mut client);
    assert_eq!(client.recv_reply().unwrap().expect("put acked").flags, 0);

    client.get(&[b"big"]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let got = client.recv_reply().unwrap().expect("get served");
    let joined: Vec<u8> = got.vals.concat();
    assert_eq!(joined, big, "segments reassemble to the original value");
    assert!(got.vals.len() > 1, "value came back in multiple segments");
}

#[test]
fn interleaved_clients_get_their_own_replies() {
    let (mut server, mut hub, sim) = rig();
    let mut c1 = connect(&mut server, &mut hub, &sim, 4000);
    let mut c2 = connect(&mut server, &mut hub, &sim, 4001);

    c1.put(b"owner", b"client one").unwrap();
    c2.put(b"owner2", b"client two").unwrap();
    hub.pump();
    server.poll().unwrap();
    hub.pump();
    c1.poll().unwrap();
    c2.poll().unwrap();
    hub.pump();
    server.poll().unwrap();
    assert_eq!(c1.recv_reply().unwrap().expect("c1 ack").flags, 0);
    assert_eq!(c2.recv_reply().unwrap().expect("c2 ack").flags, 0);

    c1.get(&[b"owner2"]).unwrap();
    c2.get(&[b"owner"]).unwrap();
    hub.pump();
    server.poll().unwrap();
    hub.pump();
    c1.poll().unwrap();
    c2.poll().unwrap();
    let r1 = c1.recv_reply().unwrap().expect("c1 get");
    let r2 = c2.recv_reply().unwrap().expect("c2 get");
    assert_eq!(r1.vals, vec![b"client two".to_vec()]);
    assert_eq!(r2.vals, vec![b"client one".to_vec()]);
}

#[test]
fn put_under_store_pressure_is_acked_degraded() {
    let (mut server, mut hub, sim) = rig();
    let mut client = connect(&mut server, &mut hub, &sim, 4000);

    // Exhaust only the size class the value's store segment needs. The
    // value is sized just under the 4 KiB class boundary so everything
    // else stays clear of the hogged class: the request frame and the
    // extracted message both exceed 4 KiB (8 KiB class), and the
    // header-only degraded ack uses the 64 B class — only apply_put's
    // 4090-byte segment allocation fails.
    let mut hogs = Vec::new();
    while let Ok(b) = server.stack.ctx().pool.alloc(4096) {
        hogs.push(b);
    }

    client.put(b"key", &[0x55; 4090]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let ack = client
        .recv_reply()
        .unwrap()
        .expect("degraded ack, not a hang");
    assert_eq!(ack.msg_type, msg_type::PUT | msg_type::RESPONSE);
    assert_eq!(ack.flags & flags::DEGRADED, flags::DEGRADED);

    drop(hogs);
    client.put(b"key", b"now it fits").unwrap();
    settle(&mut server, &mut hub, &mut client);
    assert_eq!(client.recv_reply().unwrap().expect("clean ack").flags, 0);

    client.get(&[b"key"]).unwrap();
    settle(&mut server, &mut hub, &mut client);
    let got = client.recv_reply().unwrap().expect("get served");
    assert_eq!(got.vals, vec![b"now it fits".to_vec()]);
}

/// A stream message of `mtype` carrying `keys` (and `index` in `id`), as a
/// client that speaks more of the protocol than [`TcpKvClient`] would send.
fn raw_request(
    client: &TcpKvClient,
    mtype: u8,
    req_id: u32,
    index: Option<i32>,
    keys: &[&[u8]],
) -> Vec<u8> {
    let ctx = client.stack.ctx();
    let mut req = GetMsg::new();
    req.id = index;
    for k in keys {
        req.add_keys(ctx, k);
    }
    let mut msg = sub_header(mtype, 0, req_id).to_vec();
    serialize_into(&req, &mut msg);
    drop(req);
    ctx.end_request();
    msg
}

#[test]
fn malformed_messages_are_counted_not_lost() {
    let (mut server, mut hub, sim) = rig();
    let tele = Telemetry::attach(&sim);
    server.set_telemetry(&tele);
    let mut client = connect(&mut server, &mut hub, &sim, 4000);

    // A runt sub-header, an undecodable payload, a key-less segment fetch.
    client.stack.send_bytes(&[msg_type::GET, 0, 0]).unwrap();
    let mut garbage = sub_header(msg_type::GET, 0, 7).to_vec();
    garbage.extend_from_slice(&[0xFF; 40]);
    client.stack.send_bytes(&garbage).unwrap();
    let keyless = raw_request(&client, msg_type::GET_SEGMENT, 8, Some(0), &[]);
    client.stack.send_bytes(&keyless).unwrap();
    client.get(&[b"absent"]).unwrap();
    settle(&mut server, &mut hub, &mut client);

    assert!(
        client.recv_reply().unwrap().is_some(),
        "the GET is answered"
    );
    assert!(client.recv_reply().unwrap().is_none(), "nothing else is");
    assert_eq!(server.malformed_drops(), 3);
    assert_eq!(tele.counter_value("kv.tcp.malformed_drops"), 3);
    assert_eq!(server.requests_handled(), 4, "requests == replies + drops");
}

/// The engine behind both transports is the same: identical requests over
/// identically loaded stores draw byte-identical reply payloads.
#[test]
fn replies_match_the_udp_server_byte_for_byte() {
    let preload: [(&[u8], &[usize]); 4] = [
        (b"hit", &[64]),
        (b"big", &[2048]),
        (b"mid", &[600]),
        (b"list", &[700, 700, 700]),
    ];
    let put_value = [0x5Au8; 900];

    let (mut udp_client, mut udp_server) = client_server_pair(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerKind::Cornflakes,
        SerializationConfig::hybrid(),
        PoolConfig::small_for_tests(),
    );
    let (mut tcp_server, mut hub, sim) = rig();
    for (key, segments) in preload {
        let ctx = udp_server.stack.ctx();
        udp_server.store.preload(ctx, key, segments).unwrap();
        let ctx = tcp_server.stack.ctx();
        tcp_server.store.preload(ctx, key, segments).unwrap();
    }
    let mut tcp_client = connect(&mut tcp_server, &mut hub, &sim, 4000);

    // Both clients number requests from 1, so the echoed ids agree.
    udp_client.send_get(&[b"hit"]);
    udp_client.send_get(&[b"absent"]);
    udp_client.send_get(&[b"hit", b"big", b"mid"]);
    udp_client.send_put(b"new", &put_value);
    udp_client.send_get_segment(b"list", 2);
    assert_eq!(udp_server.poll(), 5);

    tcp_client.get(&[b"hit"]).unwrap();
    tcp_client.get(&[b"absent"]).unwrap();
    tcp_client.get(&[b"hit", b"big", b"mid"]).unwrap();
    tcp_client.put(b"new", &put_value).unwrap();
    let segment_fetch = raw_request(&tcp_client, msg_type::GET_SEGMENT, 5, Some(2), &[b"list"]);
    tcp_client.stack.send_bytes(&segment_fetch).unwrap();
    settle(&mut tcp_server, &mut hub, &mut tcp_client);

    for request in ["GET hit", "GET miss", "3-key GET", "PUT", "GET_SEGMENT"] {
        let udp = udp_client.stack.recv_packet().expect(request);
        let tcp = tcp_client.stack.recv_msg().unwrap().expect(request);
        assert_eq!(
            &tcp.as_slice()[TCP_SUBHDR_BYTES..],
            udp.payload.as_slice(),
            "{request}: reply payloads differ"
        );
        assert!(!udp.payload.is_empty(), "{request}: replies carry their id");
    }
}
