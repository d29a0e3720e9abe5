//! Golden wire-format snapshots: byte-exact fixtures for representative
//! frames, checked into `tests/golden/*.bin`.
//!
//! Every frame the datapath puts on the wire is deterministic — same
//! requests, same bytes — so the exact frames are pinned as fixtures.
//! A wire-format change (header layout, serialization framing, TCP
//! segment fields) fails these tests with the first differing offset
//! named, instead of silently breaking cross-version compatibility.
//!
//! Regenerate the fixtures deliberately with:
//!
//! ```text
//! CF_BLESS=1 cargo test --test golden
//! ```
//!
//! and review the resulting `.bin` diffs like any other code change.
//!
//! The fixtures also lock the acceptance criterion that a single-queue
//! multi-queue configuration is wire-identical to the original
//! single-ring datapath: the sharded server's reply must match the plain
//! server's golden reply byte for byte.

use std::path::PathBuf;

use cornflakes::core::msgs::{Batch, GetM, Keyed, KvPair, Put, Single};
use cornflakes::core::obj::serialize_to_vec;
use cornflakes::core::{CFBytes, CornflakesObj, SerCtx, SerializationConfig};
use cornflakes::kv::client::{client_server_pair, KvClient, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::kv::sharded::ShardedKvServer;
use cornflakes::kv::{flags, store::KvStore};
use cornflakes::mem::{PoolConfig, RcBuf};
use cornflakes::net::{TcpStack, UdpStack};
use cornflakes::nic::{link, Frame, Port};
use cornflakes::sim::{MachineProfile, Sim};
use proptest::test_runner::TestRng;

/// Frame-header offsets pinned by the fixtures (see `cf-net`).
const OFF_VERSION: usize = 24;
const OFF_MSG_TYPE: usize = 42;
const OFF_FLAGS: usize = 43;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `bytes` against the checked-in fixture `name`, or rewrites
/// the fixture when `CF_BLESS=1`.
fn check_golden(name: &str, bytes: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("CF_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
        std::fs::write(&path, bytes).expect("bless fixture");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|_| {
        panic!("missing fixture {name}: run `CF_BLESS=1 cargo test --test golden` and commit tests/golden/{name}")
    });
    if expected != bytes {
        let first_diff = expected
            .iter()
            .zip(bytes.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.len().min(bytes.len()));
        panic!(
            "{name}: wire format drifted: fixture {} bytes, captured {} bytes, \
             first difference at offset {} (fixture {:#04x} vs captured {:#04x}); \
             if intentional, re-bless with CF_BLESS=1 and review the diff",
            expected.len(),
            bytes.len(),
            first_diff,
            expected.get(first_diff).copied().unwrap_or(0),
            bytes.get(first_diff).copied().unwrap_or(0),
        );
    }
}

/// Pulls the next frame off `tap` (a clone of the receiving end's port),
/// snapshots it, and pushes it back on the wire via `reinject` (a clone
/// of the *sending* end, whose tx is the same channel) so the datapath
/// under test still sees it.
fn capture(name: &str, tap: &Port, reinject: &Port) -> Vec<u8> {
    let frame = tap
        .recv()
        .unwrap_or_else(|| panic!("{name}: no frame on the wire"));
    let bytes = frame.data.clone();
    check_golden(name, &bytes);
    reinject.send(frame);
    bytes
}

/// A deterministic client/server pair with taps on both wire directions:
/// returns (client, server, client_port_tap, server_port_tap).
fn tapped_pair(kind: SerKind) -> (KvClient, KvServer, Port, Port) {
    let (cp, sp) = link();
    let (cp_tap, sp_tap) = (cp.clone(), sp.clone());
    let client_sim = Sim::new(MachineProfile::tiny_for_tests());
    let server_sim = Sim::new(MachineProfile::tiny_for_tests());
    let client_stack = UdpStack::new(client_sim, cp, CLIENT_PORT, SerializationConfig::hybrid());
    let server_stack = UdpStack::with_pool_config(
        server_sim,
        sp,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        PoolConfig::small_for_tests(),
    );
    (
        KvClient::new(client_stack, kind),
        KvServer::new(server_stack, kind),
        cp_tap,
        sp_tap,
    )
}

#[test]
fn udp_cornflakes_frames_match_fixtures() {
    let (mut client, mut server, cp_tap, sp_tap) = tapped_pair(SerKind::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[256])
        .unwrap();
    server
        .store
        .preload(server.stack.ctx(), b"seg", &[64, 64])
        .unwrap();

    // GET request (req_id 1) and its zero-copy reply.
    client.send_get(&[b"key-a"]);
    capture("udp_get_request.bin", &sp_tap, &cp_tap);
    assert_eq!(server.poll(), 1);
    capture("udp_get_response.bin", &cp_tap, &sp_tap);
    let resp = client.recv_response().expect("get reply");
    assert_eq!(resp.vals.len(), 1);
    assert_eq!(resp.vals[0][0], KvStore::expected_fill(b"key-a", 0));

    // PUT request (req_id 2).
    client.send_put(b"key-b", &[0x42u8; 64]);
    capture("udp_put_request.bin", &sp_tap, &cp_tap);
    server.poll();
    client.recv_response().expect("put ack");

    // GET_SEGMENT request (req_id 3) carrying the auxiliary index field.
    client.send_get_segment(b"seg", 1);
    capture("udp_get_segment_request.bin", &sp_tap, &cp_tap);
    server.poll();
    let resp = client.recv_response().expect("segment reply");
    assert_eq!(resp.vals.len(), 1);
}

#[test]
fn protolite_response_matches_fixture() {
    // A copy-serializer reply pins the baseline wire format too: the
    // differential suite proves systems agree on *fields*, this fixture
    // pins protolite's exact *bytes* inside a frame.
    let (mut client, mut server) = client_server_pair(
        Sim::new(MachineProfile::tiny_for_tests()),
        SerKind::Protobuf,
        SerializationConfig::hybrid(),
        PoolConfig::small_for_tests(),
    );
    let client_tap = client.stack.nic().borrow().port().clone();
    let server_tap = server.stack.nic().borrow().port().clone();
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[256])
        .unwrap();
    client.send_get(&[b"key-a"]);
    server.poll();
    // Receiving on the client's port pulls the reply; sending on the
    // server's port puts it back on the same channel.
    let frame = client_tap.recv().expect("protolite reply on the wire");
    check_golden("udp_get_response_protolite.bin", &frame.data);
    server_tap.send(frame);
    let resp = client.recv_response().expect("protolite reply decodes");
    assert_eq!(resp.vals.len(), 1);
}

#[test]
fn degraded_put_reply_matches_fixture() {
    let (mut client, mut server, cp_tap, sp_tap) = tapped_pair(SerKind::Cornflakes);
    // Saturate the store's size class so the put cannot allocate (same
    // trigger as the e2e degradation test): the reply must carry
    // flags::DEGRADED on the wire.
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
    client.send_put(b"k", &[0x5Cu8; 1500]);
    // Let the request through untouched; snapshot only the reply.
    let req = sp_tap.recv().expect("put request");
    cp_tap.send(req);
    server.poll();
    let bytes = capture("udp_degraded_put_reply.bin", &cp_tap, &sp_tap);
    assert_eq!(
        bytes[OFF_FLAGS] & flags::DEGRADED,
        flags::DEGRADED,
        "DEGRADED flag is on the wire"
    );
    let resp = client.recv_response().expect("degraded ack");
    assert_eq!(resp.flags, flags::DEGRADED);
}

#[test]
fn shed_fast_reject_matches_fixture() {
    let (mut client, mut server, cp_tap, sp_tap) = tapped_pair(SerKind::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[256])
        .unwrap();
    server.enable_admission(cornflakes::kv::overload::AdmissionConfig {
        target_sojourn_ns: 100_000,
        ..Default::default()
    });
    client.send_get(&[b"key-a"]);
    // Ingest only — the horizon is already reached, so nothing is served
    // and the request sits in the admission backlog.
    let now = server.stack.sim().now();
    server.poll_until(now, now);
    assert_eq!(server.backlog_len(), 1, "request admitted but unserved");
    // The shard stalls past the sojourn target; the next poll sheds the
    // aged entry with a header-only SHED fast-reject.
    server.stack.sim().clock().advance(200_000);
    server.poll();
    assert_eq!(server.shed_drops(), 1);
    let bytes = capture("udp_shed_reply.bin", &cp_tap, &sp_tap);
    assert_eq!(
        bytes[OFF_FLAGS] & flags::SHED,
        flags::SHED,
        "SHED flag is on the wire"
    );
    let resp = client.recv_response().expect("shed reply decodes");
    assert_eq!(resp.flags, flags::SHED);
    assert!(resp.vals.is_empty(), "fast reject carries no payload");
}

#[test]
fn versioned_cluster_frames_match_fixtures() {
    // The cluster layer's versioned values ride the previously-reserved
    // header bytes at OFF_VERSION. Two fixtures pin that wire contract:
    // a GET reply for a key with a cluster-assigned version, and the
    // read-repair REPL_PUT a quorum-mode client pushes at a stale
    // replica.
    let (mut client, mut server, cp_tap, sp_tap) = tapped_pair(SerKind::Cornflakes);
    let (apply_flags, applied) = server.apply_versioned_put(99, b"key-a", &[0x7A; 64], 3);
    assert_eq!(apply_flags, 0, "versioned apply succeeds");
    assert!(applied, "a fresh versioned apply writes the store");

    client.send_get(&[b"key-a"]);
    let req = sp_tap.recv().expect("get request");
    cp_tap.send(req);
    server.poll();
    let bytes = capture("udp_versioned_get_reply.bin", &cp_tap, &sp_tap);
    assert_eq!(bytes[OFF_VERSION], 3, "reply carries the key's version");
    let resp = client.recv_response().expect("versioned reply decodes");
    assert_eq!(resp.version, 3);
    assert_eq!(resp.vals, vec![vec![0x7A; 64]]);

    // The read-repair frame: an ordinary PUT payload under REPL_PUT with
    // the repairing version in the header and a fresh, untracked req id.
    client.send_repair_put(b"key-a", &[0x7A; 64], 3);
    let frame = sp_tap.recv().expect("read-repair frame on the wire");
    check_golden("udp_read_repair_repl_put.bin", &frame.data);
    assert_eq!(frame.data[OFF_MSG_TYPE], 5, "msg_type REPL_PUT");
    assert_eq!(frame.data[OFF_VERSION], 3, "repair carries the version");
}

#[test]
fn versioning_is_invisible_on_the_single_node_wire() {
    // Differential guard for the version field: a server that never went
    // through the cluster's versioned apply path (version 0 everywhere)
    // must emit frames byte-identical to the pre-versioning fixtures —
    // the same `udp_get_request.bin`/`udp_get_response.bin` pinned by
    // `udp_cornflakes_frames_match_fixtures` — with the version bytes
    // all zero. ReadMode::Any single-node traffic is exactly this path.
    let (mut client, mut server, cp_tap, sp_tap) = tapped_pair(SerKind::Cornflakes);
    server
        .store
        .preload(server.stack.ctx(), b"key-a", &[256])
        .unwrap();
    client.send_get(&[b"key-a"]);
    let req = capture("udp_get_request.bin", &sp_tap, &cp_tap);
    assert_eq!(&req[OFF_VERSION..OFF_VERSION + 8], &[0u8; 8]);
    server.poll();
    let reply = capture("udp_get_response.bin", &cp_tap, &sp_tap);
    assert_eq!(&reply[OFF_VERSION..OFF_VERSION + 8], &[0u8; 8]);
    client.recv_response().expect("reply decodes");
}

#[test]
fn tcp_segments_match_fixtures() {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (pa, pb) = link();
    let (a_tap, b_tap) = (pa.clone(), pb.clone());
    let mut a = TcpStack::new(sim.clone(), pa, 1000, SerializationConfig::hybrid());
    let mut b = TcpStack::new(sim, pb, 2000, SerializationConfig::hybrid());

    a.connect(2000).unwrap();
    capture("tcp_syn_segment.bin", &b_tap, &a_tap);
    b.poll().unwrap();
    capture("tcp_synack_segment.bin", &a_tap, &b_tap);
    a.poll().unwrap();
    b.poll().unwrap();
    assert!(a.is_established() && b.is_established());

    a.send_bytes(b"golden tcp payload").unwrap();
    capture("tcp_data_segment.bin", &b_tap, &a_tap);
    b.poll().unwrap();
    let msg = b.recv_msg().unwrap().expect("payload delivered");
    assert_eq!(msg.as_slice(), b"golden tcp payload");
}

#[test]
fn tcp_flow_control_segments_match_fixtures() {
    use cornflakes::net::{FlowConfig, TcpListener};

    // A zero-backlog listener fast-rejects the handshake with RST|ACK —
    // the flow-table overflow answer, pinned byte for byte.
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let (c_tap, s_tap) = (cp.clone(), sp.clone());
    let mut listener = TcpListener::new(
        sim.clone(),
        sp,
        9000,
        SerializationConfig::hybrid(),
        FlowConfig {
            syn_backlog: 0,
            ..FlowConfig::default()
        },
    );
    let mut client = TcpStack::new(sim, cp, 4000, SerializationConfig::hybrid());
    client.connect(9000).unwrap();
    listener.poll().unwrap();
    capture("tcp_rst_reject.bin", &c_tap, &s_tap);
    client.poll().unwrap();
    assert!(client.is_closed(), "RST closes the rejected initiator");
    assert_eq!(listener.stats().syn_overflow_rsts, 1);

    // Graceful teardown between two stacks: FIN, then the peer's
    // collapsed FIN|ACK.
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (pa, pb) = link();
    let (a_tap, b_tap) = (pa.clone(), pb.clone());
    let mut a = TcpStack::new(sim.clone(), pa, 1000, SerializationConfig::hybrid());
    let mut b = TcpStack::new(sim, pb, 2000, SerializationConfig::hybrid());
    a.connect(2000).unwrap();
    b.poll().unwrap();
    a.poll().unwrap();
    b.poll().unwrap();
    assert!(a.is_established() && b.is_established());

    a.close().unwrap();
    capture("tcp_fin_segment.bin", &b_tap, &a_tap);
    b.poll().unwrap();
    capture("tcp_finack_segment.bin", &a_tap, &b_tap);
    a.poll().unwrap();
    assert!(a.is_closed() && b.is_closed());
}

#[test]
fn single_queue_sharded_server_is_wire_identical_to_plain_server() {
    // Plain single-ring server.
    let (mut plain_client, mut plain_server, plain_cp_tap, plain_sp_tap) =
        tapped_pair(SerKind::Cornflakes);
    plain_server
        .store
        .preload(plain_server.stack.ctx(), b"key-a", &[256])
        .unwrap();
    plain_client.send_get(&[b"key-a"]);
    let req = plain_sp_tap.recv().expect("plain request");
    let plain_request = req.data.clone();
    plain_cp_tap.send(req);
    plain_server.poll();
    let plain_reply = plain_cp_tap.recv().expect("plain reply").data;

    // The same scenario through a single-queue ShardedKvServer with
    // steering enabled (one queue ⇒ the steering port is CLIENT_PORT).
    let (cp, sp) = link();
    let (cp_tap, sp_tap) = (cp.clone(), sp.clone());
    let mut server = ShardedKvServer::on_sims(
        vec![Sim::new(MachineProfile::tiny_for_tests())],
        sp,
        PoolConfig::small_for_tests(),
    );
    let client_stack = UdpStack::new(
        Sim::new(MachineProfile::tiny_for_tests()),
        cp,
        CLIENT_PORT,
        SerializationConfig::hybrid(),
    );
    let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
    client.enable_steering(&server.rss());
    assert_eq!(client.steer_ports(), &[CLIENT_PORT]);
    server.preload(b"key-a", &[256]).unwrap();
    client.send_get(&[b"key-a"]);
    let req = sp_tap.recv().expect("sharded request");
    assert_eq!(
        req.data, plain_request,
        "single-queue sharded client emits the identical request frame"
    );
    cp_tap.send(req);
    assert_eq!(server.poll(), 1);
    let sharded_reply = cp_tap.recv().expect("sharded reply").data;
    assert_eq!(
        sharded_reply, plain_reply,
        "single-queue sharded server emits the identical reply frame"
    );
    // The shared fixture: both paths must keep matching it.
    check_golden("udp_single_queue_reply.bin", &sharded_reply);
    sp_tap.send(Frame::new(sharded_reply));
    let resp = client.recv_response().expect("sharded reply decodes");
    assert_eq!(resp.vals.len(), 1);
}

// ---- `cornflakes_core::msgs`: the byte layout, recorded ------------------
//
// The first five messages of `crates/core/schema/msgs.proto` used to be
// written by hand; their `tests/golden/core_msgs/*.bin` were recorded from
// that code before it was deleted. The generated types must reproduce every
// recorded instance bit for bit, so an error the emitter and the
// `DynMessage` interpreter share still has something to fail against.
// `Keyed` came later and its corpus was recorded from the generated code:
// it holds the singular nested-message layout to what it was then.

/// Instances per message in the recorded corpus.
const CORPUS_INSTANCES: u64 = 48;

/// Field sizes on both sides of the 512-byte zero-copy threshold.
const FIELD_SIZES: [usize; 10] = [0, 1, 9, 64, 511, 512, 513, 600, 1024, 2048];

/// Seeded source of message contents. Fields drawn from pinned memory take
/// the zero-copy arm at 512 bytes and above; everything else is copied.
struct Corpus {
    ctx: SerCtx,
    rng: TestRng,
    /// Pinned source buffers of the instance being built.
    pinned: Vec<RcBuf>,
}

impl Corpus {
    /// Presence bits for instance `i`: the first `2^bits` instances
    /// enumerate every absent/present combination, the rest are drawn.
    fn shape(&mut self, i: u64, bits: u32) -> u64 {
        if i < 1 << bits {
            i
        } else {
            self.rng.next_u64()
        }
    }

    fn field(&mut self) -> CFBytes {
        let len = FIELD_SIZES[self.rng.gen_range(0, FIELD_SIZES.len() as u128) as usize];
        let data: Vec<u8> = (0..len).map(|_| self.rng.next_u64() as u8).collect();
        // (The pool has no empty buffers: an empty field is never pinned.)
        if self.rng.gen_ratio(2, 3) && len > 0 {
            let buf = self.ctx.pool.alloc_from(&data).expect("pool");
            let field = CFBytes::new(&self.ctx, buf.as_slice());
            self.pinned.push(buf);
            field
        } else {
            CFBytes::new(&self.ctx, &data)
        }
    }

    /// A list length: 0 when absent, else 1 or many.
    fn count(&mut self, present: bool) -> usize {
        match (present, self.rng.gen_ratio(1, 3)) {
            (false, _) => 0,
            (true, true) => 1,
            (true, false) => self.rng.gen_range(2, 7) as usize,
        }
    }

    fn id(&mut self, present: bool) -> Option<u32> {
        present.then(|| self.rng.next_u64() as u32)
    }

    fn opt_field(&mut self, present: bool) -> Option<CFBytes> {
        present.then(|| self.field())
    }

    fn kv_pair(&mut self, shape: u64) -> KvPair {
        KvPair {
            key: self.opt_field(shape & 1 != 0),
            val: self.opt_field(shape & 2 != 0),
        }
    }
}

/// Builds the corpus of one message type and holds it to its fixture: per
/// instance `object_len`, `header_bytes`, `zero_copy_entries` (u32 LE each)
/// and the serialized bytes.
fn check_corpus<M: CornflakesObj>(name: &str, build: impl Fn(&mut Corpus, u64) -> M) {
    let mut corpus = Corpus {
        ctx: SerCtx::new(
            Sim::new(MachineProfile::tiny_for_tests()),
            SerializationConfig::hybrid(),
        ),
        rng: TestRng::deterministic(name),
        pinned: Vec::new(),
    };
    let mut recorded = Vec::new();
    for i in 0..CORPUS_INSTANCES {
        let msg = build(&mut corpus, i);
        let wire = serialize_to_vec(&msg);
        assert_eq!(wire.len(), msg.object_len(), "{name} instance {i}");
        for n in [
            msg.object_len(),
            msg.header_bytes(),
            msg.zero_copy_entries(),
        ] {
            recorded.extend_from_slice(&(n as u32).to_le_bytes());
        }
        recorded.extend_from_slice(&wire);
        drop(msg);
        corpus.pinned.clear();
    }
    check_golden(&format!("core_msgs/{name}.bin"), &recorded);
}

#[test]
fn core_messages_reproduce_the_recorded_layout() {
    check_corpus("GetM", |c, i| {
        let shape = c.shape(i, 3);
        let mut m = GetM::new();
        m.id = c.id(shape & 1 != 0);
        for _ in 0..c.count(shape & 2 != 0) {
            m.keys.append(c.field());
        }
        for _ in 0..c.count(shape & 4 != 0) {
            m.vals.append(c.field());
        }
        m
    });
    check_corpus("Put", |c, i| {
        let shape = c.shape(i, 3);
        Put {
            id: c.id(shape & 1 != 0),
            key: c.opt_field(shape & 2 != 0),
            val: c.opt_field(shape & 4 != 0),
        }
    });
    check_corpus("Single", |c, i| {
        let shape = c.shape(i, 2);
        Single {
            id: c.id(shape & 1 != 0),
            val: c.opt_field(shape & 2 != 0),
        }
    });
    check_corpus("KvPair", |c, i| {
        let shape = c.shape(i, 2);
        c.kv_pair(shape)
    });
    check_corpus("Batch", |c, i| {
        let shape = c.shape(i, 3);
        let mut m = Batch {
            id: c.id(shape & 1 != 0),
            ..Batch::default()
        };
        for _ in 0..c.count(shape & 2 != 0) {
            let pair_shape = c.rng.next_u64();
            m.pairs.append(c.kv_pair(pair_shape));
        }
        for _ in 0..c.count(shape & 4 != 0) {
            m.versions.push(c.rng.next_u64());
        }
        m
    });
    check_corpus("Keyed", |c, i| {
        let shape = c.shape(i, 2);
        let mut m = Keyed::new();
        m.id = c.id(shape & 1 != 0);
        if shape & 2 != 0 {
            let pair_shape = c.rng.next_u64();
            m.set_pair(c.kv_pair(pair_shape));
        }
        m
    });
}
