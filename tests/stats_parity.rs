//! The `*Stats` accessors and the telemetry snapshot read the same cells.
//!
//! `Nic`, `SimSwitch`, `FaultInjector`, `TcpListener` and `ClusterClient`
//! once kept a plain `*Stats` struct *and* a mirrored struct of telemetry
//! counters and wrote every fact to both. The mirrors were equal, so now
//! that each fact has one cell the snapshots must still be: one seeded
//! scenario per layer, every field of every accessor held to the snapshot's
//! counter of the same name — with the handle attached before the traffic
//! and attached after it. Every scenario also asserts that what it compares
//! is not zero, so the attached-after run is the proof that attaching to
//! running TCP endpoints and a running cluster resets nothing
//! (`tests/telemetry_attach.rs` has the UDP pair).

use cornflakes::cluster::{Cluster, ClusterClient, ClusterConfig, ReadMode};
use cornflakes::core::SerializationConfig;
use cornflakes::kv::client::{KvClient, RetryConfig, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::SerKind;
use cornflakes::kv::sharded::ShardedKvServer;
use cornflakes::mem::PoolConfig;
use cornflakes::net::{FlowConfig, ListenerStats, TcpListener, TcpStack, UdpStack};
use cornflakes::nic::{link, FaultPlan, NicStats, PortHub};
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{json, Telemetry};
use cornflakes::workloads::key_string;

const SEED: u64 = 0x5EED_0022;

/// The `"counters"` member of `tele`'s snapshot.
struct Snapshot(json::Value);

impl Snapshot {
    fn of(tele: &Telemetry) -> Self {
        let doc = json::parse(&tele.snapshot_json()).expect("snapshot parses");
        Snapshot(doc.get("counters").expect("counters").clone())
    }

    fn counter(&self, name: &str) -> u64 {
        let value = self.0.get(name).unwrap_or_else(|| panic!("{name} absent"));
        value.as_u64().expect("counters are integers")
    }

    /// Holds every `(field, value)` of a stats accessor to `<prefix>.<field>`.
    fn assert_fields<const N: usize>(&self, prefix: &str, fields: [(&str, u64); N]) {
        for (field, value) in fields {
            let name = format!("{prefix}.{field}");
            assert_eq!(self.counter(&name), value, "{name}");
        }
    }
}

fn nic_fields(s: NicStats) -> Fields<9> {
    [
        ("tx_frames", s.tx_frames),
        ("tx_bytes", s.tx_bytes),
        ("tx_sg_entries", s.tx_sg_entries),
        ("doorbells", s.doorbells),
        ("completions", s.completions),
        ("rx_frames", s.rx_frames),
        ("rx_bytes", s.rx_bytes),
        ("rx_nobuf_drops", s.rx_nobuf_drops),
        ("rx_backlog_drops", s.rx_backlog_drops),
    ]
}

/// A 2-queue sharded server behind a lossy wire, a steered retrying client.
/// The server and the client attach to a handle each, so `nic.*` is one
/// machine's NIC.
fn sharded_server_under_faults(attach_first: bool) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let mut server =
        ShardedKvServer::on_sims(vec![sim.clone(); 2], sp, PoolConfig::small_for_tests());
    let stack = UdpStack::new(sim.clone(), cp, CLIENT_PORT, SerializationConfig::hybrid());
    let mut client = KvClient::new(stack, SerKind::Cornflakes);
    client.enable_steering(&server.rss());
    client.enable_retries(RetryConfig {
        timeout_ns: 100_000,
        max_retries: 4,
        jitter_seed: Some(SEED),
        ..RetryConfig::default()
    });
    let faults = server.install_faults(
        FaultPlan::seeded(SEED)
            .with_drop(0.15)
            .with_duplicate(0.15)
            .with_reorder(0.15),
    );
    let (server_tele, client_tele) = (Telemetry::attach(&sim), Telemetry::attach(&sim));
    let attach = |server: &mut ShardedKvServer, client: &mut KvClient| {
        server.set_telemetry(&server_tele);
        faults.set_telemetry(&server_tele, "srv_rx");
        client.set_telemetry(&client_tele);
    };
    if attach_first {
        attach(&mut server, &mut client);
    }

    let keys: Vec<Vec<u8>> = (0..16).map(|i| key_string(i).into_bytes()).collect();
    for key in &keys {
        server.preload(key, &[64]).expect("preload fits");
    }
    for (i, key) in keys.iter().cycle().take(96).enumerate() {
        // Two requests on the wire at once, so there is a pair to reorder.
        client.send_get(&[key]);
        if i % 4 == 0 {
            client.send_put(key, &[i as u8; 64]);
        } else {
            client.send_get(&[&keys[(i + 5) % keys.len()]]);
        }
        // Drive both to a reply or a timeout; either concludes a request.
        while !client.pending_ids().is_empty() {
            server.poll();
            while client.recv_response().is_some() {}
            sim.clock().advance(50_000);
            client.poll_timers();
        }
    }
    if !attach_first {
        attach(&mut server, &mut client);
    }

    let snap = Snapshot::of(&server_tele);
    let nic = server.nic();
    let nic = nic.borrow();
    let mut sum = [0u64; 9];
    for q in 0..2 {
        let fields = nic_fields(nic.queue_stats(q));
        snap.assert_fields(&format!("nic.q{q}"), fields);
        for (total, (_, v)) in sum.iter_mut().zip(fields) {
            *total += v;
        }
        let shard = &server.shards()[q];
        snap.assert_fields(
            &format!("kv.shard{q}"),
            [
                ("requests", shard.requests_handled()),
                ("puts_applied", shard.puts_applied()),
                ("dedup_hits", shard.dedup_hits()),
                ("degraded_replies", shard.degraded_replies()),
                ("malformed_drops", shard.malformed_drops()),
                ("shed_drops", shard.shed_drops()),
            ],
        );
    }
    let aggregate = nic_fields(nic.stats());
    snap.assert_fields("nic", aggregate);
    assert_eq!(aggregate.map(|(_, v)| v), sum, "nic.* = Σ nic.qN.*");
    assert!(nic.queue_stats(0).rx_frames > 0 && nic.queue_stats(1).rx_frames > 0);

    let f = faults.stats();
    assert!(
        f.dropped > 0 && f.duplicated > 0 && f.reordered > 0,
        "{f:?}"
    );
    snap.assert_fields(
        "fault.srv_rx",
        [
            ("drops", f.dropped),
            ("duplicates", f.duplicated),
            ("reorders", f.reordered),
            ("corruptions", f.corrupted),
            ("delays", f.delayed),
        ],
    );

    let snap = Snapshot::of(&client_tele);
    snap.assert_fields("nic", nic_fields(client.stack.nic_stats()));
    snap.assert_fields("nic.q0", nic_fields(client.stack.nic_queue_stats()));
    assert!(client.retries_sent() > 0, "the lossy wire forced retries");
    snap.assert_fields(
        "kv.client",
        [
            ("retries", client.retries_sent()),
            ("timeouts", client.timeouts_seen()),
            ("shed_replies", client.sheds_seen()),
            ("retry_budget_exhausted", client.budget_exhausted_count()),
            ("breaker_fast_fails", client.breaker_fast_fail_count()),
        ],
    );
}

/// A 3-node cluster behind the switch: puts, a node kill with failover,
/// quorum reads with a read repair after the revive.
fn cluster_behind_the_switch(attach_first: bool) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let mut cluster = Cluster::new(
        sim,
        ClusterConfig {
            pool: PoolConfig::small_for_tests(),
            ..ClusterConfig::default()
        },
    );
    let mut client = cluster.client();
    client.enable_retries_seeded(
        SEED,
        RetryConfig {
            timeout_ns: 120_000,
            max_retries: 6,
            max_backoff_ns: 500_000,
            jitter_seed: None,
        },
    );
    let tele = Telemetry::attach(cluster.sim());
    if attach_first {
        cluster.set_telemetry(&tele);
        client.set_telemetry(&tele);
    }

    let conclude = |cluster: &mut Cluster, client: &mut ClusterClient, id: u32| {
        for _ in 0..220 {
            cluster.poll();
            if client.recv_response().is_some() || client.poll_timers().contains(&id) {
                return;
            }
            cluster.sim().clock().advance(60_000);
        }
        panic!("request {id} neither answered nor timed out");
    };
    let keys: Vec<Vec<u8>> = (0..8).map(|i| key_string(i).into_bytes()).collect();
    for (round, victim) in [(0u8, None), (1, Some(1u8)), (2, None)] {
        if let Some(node) = victim {
            cluster.kill(node);
        }
        for key in &keys {
            let id = client.send_put(key, &[round; 64]);
            conclude(&mut cluster, &mut client, id);
        }
        if let Some(node) = victim {
            cluster.revive(node);
            client.set_read_mode(ReadMode::Quorum);
        }
        for key in &keys {
            let id = client.send_get(key);
            conclude(&mut cluster, &mut client, id);
        }
    }
    if !attach_first {
        cluster.set_telemetry(&tele);
        client.set_telemetry(&tele);
    }

    let snap = Snapshot::of(&tele);
    let s = cluster.switch().stats();
    assert!(s.forwarded > 0 && s.dropped_dead > 0, "{s:?}");
    snap.assert_fields(
        "cluster.switch",
        [
            ("forwarded", s.forwarded),
            ("dropped_dead", s.dropped_dead),
            ("dropped_partitioned", s.dropped_partitioned),
            ("dropped_unknown", s.dropped_unknown),
        ],
    );
    assert!(client.failovers() > 0 && client.quorum_reads() > 0);
    snap.assert_fields(
        "cluster.client",
        [
            ("failovers", client.failovers()),
            ("quorum_reads", client.quorum_reads()),
            ("read_repairs", client.read_repairs()),
            ("partition_suspects", client.partition_suspects()),
        ],
    );
    let mut applies = 0;
    for (n, node) in cluster.nodes.iter().enumerate() {
        snap.assert_fields(
            &format!("cluster.node{n}"),
            [
                ("repl_applies", node.repl_applies()),
                ("catchup_replays", node.catchup_replays()),
            ],
        );
        applies += node.repl_applies();
    }
    assert!(applies > 0, "backups applied the replicated puts");
    // Every node's shards share the `kv.shardN.*` names: one handle reads
    // their sum.
    let puts = snap.counter("kv.shard0.puts_applied") + snap.counter("kv.shard1.puts_applied");
    assert_eq!(puts, cluster.total_puts_applied());
}

type Fields<const N: usize> = [(&'static str, u64); N];

/// The `net.tcp.listen.*` fields, then the `net.tcp.flow.*` ones.
fn listener_fields(s: ListenerStats) -> (Fields<4>, Fields<8>) {
    (
        [
            ("syns", s.syns),
            ("accepts", s.accepts),
            ("syn_overflow_rsts", s.syn_overflow_rsts),
            ("rx_corrupt_drops", s.rx_corrupt_drops),
        ],
        [
            ("closes", s.closes),
            ("resets", s.resets),
            ("reaps", s.reaps),
            ("reasm_overflow_drops", s.reasm_overflow_drops),
            ("tx_cap_drops", s.tx_cap_drops),
            ("retransmissions", s.retransmissions),
            ("msgs_sent", s.msgs_sent),
            ("msgs_received", s.msgs_received),
        ],
    )
}

/// A 2-slot listener: two clients served, a third SYN refused, one client
/// closing, the other reaped idle.
fn listener_with_a_refused_syn(attach_first: bool) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (server_wire, trunk) = link();
    let mut hub = PortHub::new(trunk);
    let cfg = FlowConfig {
        capacity: 2,
        idle_timeout_ns: 2_000_000,
        ..FlowConfig::default()
    };
    let ser = SerializationConfig::hybrid();
    let mut listener = TcpListener::new(sim.clone(), server_wire, SERVER_PORT, ser, cfg);
    let tele = Telemetry::attach(&sim);
    if attach_first {
        listener.set_telemetry(&tele);
    }

    let mut clients: Vec<TcpStack> = (0..3u16)
        .map(|i| {
            let port = 4000 + i;
            let mut c = TcpStack::new(sim.clone(), hub.attach(port), port, ser);
            if attach_first {
                c.set_telemetry(&tele);
            }
            c.connect(SERVER_PORT).unwrap();
            for _ in 0..2 {
                hub.pump();
                listener.poll().unwrap();
                hub.pump();
                c.poll().unwrap();
            }
            c
        })
        .collect();
    assert!(clients[2].is_closed(), "the third SYN found the table full");
    for c in &mut clients[..2] {
        c.send_bytes(b"request").unwrap();
        hub.pump();
        listener.poll().unwrap();
        let (flow, _) = listener.recv_from().unwrap().expect("request delivered");
        assert!(listener.send_bytes_to(flow, b"reply").unwrap());
        hub.pump();
        c.poll().unwrap();
        assert!(c.recv_msg().unwrap().is_some());
    }
    clients[0].close().unwrap();
    hub.pump();
    listener.poll().unwrap();
    sim.clock().advance(3 * cfg.idle_timeout_ns);
    listener.poll().unwrap();
    assert_eq!(listener.active_flows(), 0, "one closed, one reaped");
    if !attach_first {
        listener.set_telemetry(&tele);
        for c in &mut clients {
            c.set_telemetry(&tele);
        }
    }

    let stats = listener.stats();
    assert_eq!(
        (stats.syn_overflow_rsts, stats.closes, stats.reaps),
        (1, 1, 1),
        "{stats:?}"
    );
    let snap = Snapshot::of(&tele);
    let (listen, flow) = listener_fields(stats);
    snap.assert_fields("net.tcp.listen", listen);
    snap.assert_fields("net.tcp.flow", flow);
    // The three client endpoints share the `net.tcp.*` names: two messages
    // each way, and the refused connect reset.
    snap.assert_fields(
        "net.tcp",
        [("msgs_sent", 2), ("msgs_received", 2), ("resets", 1)],
    );
    assert_eq!(tele.gauge_value("net.tcp.flow.active"), 0.0);
}

#[test]
fn stats_accessors_equal_the_snapshot_when_attached_before_the_traffic() {
    sharded_server_under_faults(true);
    cluster_behind_the_switch(true);
    listener_with_a_refused_syn(true);
}

#[test]
fn stats_accessors_equal_the_snapshot_when_attached_after_the_traffic() {
    sharded_server_under_faults(false);
    cluster_behind_the_switch(false);
    listener_with_a_refused_syn(false);
}
