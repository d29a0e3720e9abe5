//! End-to-end tests for mini-Redis and the echo-server variants.

use cf_net::{FrameMeta, UdpStack, HEADER_BYTES};
use cf_nic::link;
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::obj::serialize_to_vec;
use cornflakes_core::{CFBytes, CornflakesObj, SerializationConfig};

use cf_kv::echo::{client as echo_client, EchoKind, EchoServer};
use cf_kv::msg_type;
use cf_kv::msgs::GetMsg;
use cf_kv::redis::{client as redis_client, RedisBackend, RedisServer};

use cf_baselines::protolite::PGetM;

const CLIENT_PORT: u16 = 700;
const SERVER_PORT: u16 = 6379;

fn stacks() -> (UdpStack, UdpStack) {
    let (cp, sp) = link();
    let client = UdpStack::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        cp,
        CLIENT_PORT,
        SerializationConfig::hybrid(),
    );
    let server = UdpStack::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        sp,
        SERVER_PORT,
        SerializationConfig::hybrid(),
    );
    (client, server)
}

fn meta(req_id: u32) -> FrameMeta {
    FrameMeta {
        msg_type: msg_type::ECHO,
        flags: 0,
        req_id,
    }
}

fn send_command(client: &mut UdpStack, parts: &[&[u8]], req_id: u32) {
    let sim = client.sim().clone();
    let payload = redis_client::encode_command(&sim, parts);
    let mut tx = client.alloc_tx(payload.len()).unwrap();
    tx.write_at(HEADER_BYTES, &payload);
    let hdr = client.header_to(SERVER_PORT, meta(req_id));
    client.send_built(hdr, tx, payload.len()).unwrap();
}

fn redis_roundtrip(backend: RedisBackend) {
    let (mut client, server_stack) = stacks();
    let mut server = RedisServer::new(server_stack, backend);
    let value = vec![0x42u8; 3000];

    // SET key value.
    send_command(&mut client, &[b"SET", b"mykey", &value], 1);
    server.poll();
    let ok = client.recv_packet().expect("ack");
    // Acks are always RESP (+OK), under both backends.
    assert_eq!(&ok.payload[..1], b"+");

    // GET key.
    send_command(&mut client, &[b"GET", b"mykey"], 2);
    server.poll();
    let pkt = client.recv_packet().expect("reply");
    let sim = client.sim().clone();
    let vals = redis_client::decode_response(&sim, client.ctx(), backend, &pkt.payload).unwrap();
    assert_eq!(vals.len(), 1, "{backend:?}");
    assert_eq!(vals[0], value, "{backend:?}");
}

#[test]
fn redis_set_get_both_backends() {
    redis_roundtrip(RedisBackend::Resp);
    redis_roundtrip(RedisBackend::Cornflakes);
}

#[test]
fn redis_mget_and_lrange() {
    for backend in [RedisBackend::Resp, RedisBackend::Cornflakes] {
        let (mut client, server_stack) = stacks();
        let mut server = RedisServer::new(server_stack, backend);
        // Two keys of 2048 bytes each (the paper's mget-2 shape).
        server
            .store
            .preload(server.stack.ctx(), b"k1", &[2048])
            .unwrap();
        server
            .store
            .preload(server.stack.ctx(), b"k2", &[2048])
            .unwrap();
        // A list value of 2 buffers (the lrange-2 shape).
        server
            .store
            .preload(server.stack.ctx(), b"mylist", &[2048, 2048])
            .unwrap();

        send_command(&mut client, &[b"MGET", b"k1", b"k2"], 1);
        server.poll();
        let pkt = client.recv_packet().unwrap();
        let sim = client.sim().clone();
        let vals =
            redis_client::decode_response(&sim, client.ctx(), backend, &pkt.payload).unwrap();
        assert_eq!(vals.len(), 2, "{backend:?} mget");
        assert!(vals.iter().all(|v| v.len() == 2048));

        send_command(&mut client, &[b"LRANGE", b"mylist", b"0", b"-1"], 2);
        server.poll();
        let pkt = client.recv_packet().unwrap();
        let vals =
            redis_client::decode_response(&sim, client.ctx(), backend, &pkt.payload).unwrap();
        assert_eq!(vals.len(), 2, "{backend:?} lrange");
    }
}

#[test]
fn redis_get_missing_is_nil() {
    let (mut client, server_stack) = stacks();
    let mut server = RedisServer::new(server_stack, RedisBackend::Resp);
    send_command(&mut client, &[b"GET", b"absent"], 1);
    server.poll();
    let pkt = client.recv_packet().unwrap();
    assert_eq!(&*pkt.payload, b"$-1\r\n");
}

#[test]
fn redis_cornflakes_zero_copies_responses() {
    let (mut client, server_stack) = stacks();
    let mut server = RedisServer::new(server_stack, RedisBackend::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"k", &[4096])
        .unwrap();
    send_command(&mut client, &[b"GET", b"k"], 1);
    server.poll();
    assert_eq!(
        server.stack.nic_stats().tx_sg_entries,
        2,
        "4 KiB value should ride a zero-copy entry"
    );
    client.recv_packet().unwrap();
}

// ---- echo variants -------------------------------------------------------

/// Decodes an echoed response's fields for comparison.
fn decode_echo(kind: EchoKind, stack: &UdpStack, payload: &cf_mem::RcBuf) -> Vec<Vec<u8>> {
    let sim = stack.sim().clone();
    match kind {
        EchoKind::Protobuf => PGetM::decode(&sim, payload).unwrap().vals,
        EchoKind::FlatBuffers => {
            let v = cf_baselines::flatlite::FlatGetMView::parse(&sim, payload).unwrap();
            (0..v.vals_len().unwrap())
                .map(|i| v.val(i).unwrap().to_vec())
                .collect()
        }
        EchoKind::CapnProto => {
            let r = cf_baselines::capnlite::CapnReader::parse(&sim, payload).unwrap();
            r.vals(&sim).unwrap().iter().map(|b| b.to_vec()).collect()
        }
        EchoKind::NoSerialization => {
            // Raw frame payload: the original Cornflakes-format message.
            let m = GetMsg::deserialize(stack.ctx(), payload).unwrap();
            m.vals.iter().map(|v| v.as_slice().to_vec()).collect()
        }
        _ => {
            let m = GetMsg::deserialize(stack.ctx(), payload).unwrap();
            m.vals.iter().map(|v| v.as_slice().to_vec()).collect()
        }
    }
}

#[test]
fn all_echo_variants_echo_correctly() {
    // The paper's echo message (two 2048-byte elements) among field lists
    // of 0, 1, 2 and 5 fields on either side of the 512 B threshold.
    let shapes: [&[usize]; 7] = [
        &[],
        &[0],
        &[2048],
        &[511, 512],
        &[2048, 2048],
        &[0, 1, 511, 512, 2048],
        &[2048, 1024, 64, 2048, 0],
    ];
    let libraries = [
        EchoKind::Protobuf,
        EchoKind::FlatBuffers,
        EchoKind::CapnProto,
    ];
    for id in [None, Some(0x5EED)] {
        for lens in shapes {
            let fields: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| vec![0x11 * (i as u8 + 1); n])
                .collect();
            for kind in [
                EchoKind::NoSerialization,
                EchoKind::ZeroCopyRaw,
                EchoKind::OneCopy,
                EchoKind::TwoCopy,
                EchoKind::Cornflakes,
                EchoKind::Protobuf,
                EchoKind::FlatBuffers,
                EchoKind::CapnProto,
            ] {
                // The library requests carry no id.
                if id.is_some() && libraries.contains(&kind) {
                    continue;
                }
                let (mut client, server_stack) = stacks();
                let mut server = EchoServer::new(server_stack, kind);
                let payload = match id {
                    None => echo_client::request(kind, &client, &fields),
                    Some(id) => {
                        let mut m = GetMsg::new();
                        m.set_id(id);
                        for f in &fields {
                            m.get_mut_vals().append(CFBytes::new(client.ctx(), f));
                        }
                        serialize_to_vec(&m)
                    }
                };
                let mut tx = client.alloc_tx(payload.len()).unwrap();
                tx.write_at(HEADER_BYTES, &payload);
                let hdr = client.header_to(SERVER_PORT, meta(9));
                client.send_built(hdr, tx, payload.len()).unwrap();

                let case = format!("{kind:?}, fields {lens:?}, id {id:?}");
                assert_eq!(server.poll(), 1, "{case}");
                let pkt = client.recv_packet().expect("echo reply");
                assert_eq!(decode_echo(kind, &client, &pkt.payload), fields, "{case}");
                if matches!(kind, EchoKind::OneCopy | EchoKind::TwoCopy) {
                    // The request is `serialize_to_vec` of `{id, vals}`, and
                    // the manual echo rewrites exactly that layout.
                    assert_eq!(pkt.payload.as_slice(), &payload[..], "{case}");
                }
            }
        }
    }
}

#[test]
fn echo_variant_cost_ordering_matches_figure_2() {
    // Per-request virtual cost must order: no-ser < raw zero-copy <
    // one-copy < two-copy < libraries.
    let fields = vec![vec![0x11u8; 2048], vec![0x22u8; 2048]];
    let mut costs = std::collections::HashMap::new();
    for kind in EchoKind::figure2() {
        let (mut client, server_stack) = stacks();
        let server_sim = server_stack.sim().clone();
        let mut server = EchoServer::new(server_stack, kind);
        // Warm up one request, then measure ten.
        for _ in 0..3 {
            let payload = echo_client::request(kind, &client, &fields);
            let mut tx = client.alloc_tx(payload.len()).unwrap();
            tx.write_at(HEADER_BYTES, &payload);
            let hdr = client.header_to(SERVER_PORT, meta(1));
            client.send_built(hdr, tx, payload.len()).unwrap();
            server.poll();
            client.recv_packet().unwrap();
        }
        let t0 = server_sim.now();
        let rounds = 10;
        for _ in 0..rounds {
            let payload = echo_client::request(kind, &client, &fields);
            let mut tx = client.alloc_tx(payload.len()).unwrap();
            tx.write_at(HEADER_BYTES, &payload);
            let hdr = client.header_to(SERVER_PORT, meta(1));
            client.send_built(hdr, tx, payload.len()).unwrap();
            server.poll();
            client.recv_packet().unwrap();
        }
        costs.insert(kind, (server_sim.now() - t0) / rounds);
    }
    let order = [
        EchoKind::NoSerialization,
        EchoKind::ZeroCopyRaw,
        EchoKind::OneCopy,
        EchoKind::TwoCopy,
    ];
    for w in order.windows(2) {
        assert!(
            costs[&w[0]] < costs[&w[1]],
            "{:?} ({}) should be cheaper than {:?} ({})",
            w[0],
            costs[&w[0]],
            w[1],
            costs[&w[1]]
        );
    }
    for lib in [
        EchoKind::Protobuf,
        EchoKind::FlatBuffers,
        EchoKind::CapnProto,
    ] {
        assert!(
            costs[&lib] > costs[&EchoKind::TwoCopy],
            "{lib:?} ({}) should cost more than two-copy ({})",
            costs[&lib],
            costs[&EchoKind::TwoCopy]
        );
    }
}
