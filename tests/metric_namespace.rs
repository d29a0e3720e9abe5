//! Metric-namespace conformance: the DESIGN.md table is the registry.
//!
//! Drives the full stack — steered client, sharded server, plain server,
//! fault layer, memory stats — with telemetry attached, then asserts that
//! every metric name actually registered (a) follows the naming
//! conventions (lowercase dotted path under a known layer prefix) and
//! (b) normalizes to a row of the "Metric namespace" table in DESIGN.md.
//! A metric added to the code without a documented row fails this test.
//!
//! The same scenario pins what the registry exports: the exact set of
//! names it registers (`tests/fixtures/metric_names.txt`), and the snapshot
//! and Chrome trace it renders, member for member and number for number,
//! against the strings the hand-formatting exporters wrote
//! (`tests/fixtures/namespace_{snapshot,trace}.json`).

use std::collections::BTreeSet;
use std::fs;

use cornflakes::cluster::{Cluster, ClusterConfig};
use cornflakes::core::SerializationConfig;
use cornflakes::kv::client::{KvClient, RetryConfig, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::kv::sharded::ShardedKvServer;
use cornflakes::mem::PoolConfig;
use cornflakes::net::UdpStack;
use cornflakes::nic::{link, FaultPlan};
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{json, Telemetry};
use cornflakes::workloads::key_string;

/// Registers as much of the stack as possible into one registry, drives a
/// little traffic, and returns the handle.
fn full_stack_handle() -> Telemetry {
    // Sharded server (kv.shardN.*, nic.*, nic.qN.*) + steered client
    // (kv.client.*, net.udp.*, mem.*).
    let queues = 2;
    let sims: Vec<Sim> = (0..queues)
        .map(|_| Sim::new(MachineProfile::tiny_for_tests()))
        .collect();
    let (cp, sp) = link();
    let mut server = ShardedKvServer::on_sims(sims, sp, PoolConfig::small_for_tests());
    let client_sim = Sim::new(MachineProfile::tiny_for_tests());
    let client_stack = UdpStack::new(
        client_sim.clone(),
        cp,
        CLIENT_PORT,
        SerializationConfig::hybrid(),
    );
    let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
    client.enable_steering(&server.rss());

    let tele = Telemetry::attach(&client_sim);
    server.set_telemetry(&tele);
    client.set_telemetry(&tele);
    client.enable_retries(RetryConfig::default());
    let faults = server.install_faults(FaultPlan::seeded(7).with_drop(0.01));
    faults.set_telemetry(&tele, "srv_rx");
    // The e2e latency histogram the tail-anatomy harness and the
    // trace_request example register.
    tele.histogram("kv.client.e2e_latency_ns").record(1);

    // A plain single-SerKind server contributes the kv.cornflakes.* scope.
    let plain_sim = Sim::new(MachineProfile::tiny_for_tests());
    let (_c2, s2) = link();
    let plain_stack = UdpStack::new(plain_sim, s2, SERVER_PORT, SerializationConfig::hybrid());
    let mut plain = KvServer::new(plain_stack, SerKind::Cornflakes);
    plain.set_telemetry(&tele);

    // Light traffic so dynamic registrations (if any) fire too.
    server
        .preload(key_string(1).as_bytes(), &[64])
        .expect("preload");
    for _ in 0..4 {
        let key = key_string(1);
        client.send_get(&[key.as_bytes()]);
        server.poll();
        while client.recv_response().is_some() {}
    }

    // TCP layer: a flow-table listener serving KV over TCP registers the
    // net.tcp.listen.* / net.tcp.flow.* / kv.tcp.* scopes, and a client
    // stack the net.tcp.* scope.
    let tcp_sim = Sim::new(MachineProfile::tiny_for_tests());
    let (tc, ts) = link();
    let tcp_listener = cornflakes::net::TcpListener::new(
        tcp_sim.clone(),
        ts,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        cornflakes::net::FlowConfig::default(),
    );
    let mut tcp_server = cornflakes::kv::tcp_server::TcpKvServer::new(tcp_listener);
    tcp_server.set_telemetry(&tele);
    let mut tcp_client =
        cornflakes::net::TcpStack::new(tcp_sim, tc, CLIENT_PORT, SerializationConfig::hybrid());
    tcp_client.set_telemetry(&tele);

    // Cluster layer: switch drop counters, per-node protocol counters,
    // and the cluster client's failover counter (cluster.*). The nodes'
    // servers and the client's stack come along: their kv.shardN.*, nic.*,
    // net.udp.* and mem.* cells join the same-named ones above.
    let cluster_sim = Sim::new(MachineProfile::tiny_for_tests());
    let mut cluster = Cluster::new(
        cluster_sim,
        ClusterConfig {
            pool: PoolConfig::small_for_tests(),
            ..ClusterConfig::default()
        },
    );
    cluster.set_telemetry(&tele);
    let mut cluster_client = cluster.client();
    cluster_client.set_telemetry(&tele);
    tele
}

/// Every metric name present in `tele`'s snapshot.
fn registered_metric_names(tele: &Telemetry) -> BTreeSet<String> {
    let snapshot = tele.snapshot_json();
    let doc = json::parse(&snapshot).expect("snapshot is valid JSON");
    let mut names = BTreeSet::new();
    for section in ["counters", "gauges", "histograms"] {
        let obj = doc
            .get(section)
            .unwrap_or_else(|| panic!("snapshot has {section}"))
            .as_obj()
            .expect("section is an object");
        for (name, _) in obj {
            names.insert(name.clone());
        }
    }
    names
}

/// The metric names documented in DESIGN.md's "Metric namespace" table:
/// every backticked token in the first column of its rows.
fn documented_names() -> BTreeSet<String> {
    let design = fs::read_to_string("DESIGN.md").expect("DESIGN.md readable");
    let section = design
        .split("### Metric namespace")
        .nth(1)
        .expect("DESIGN.md has a '### Metric namespace' section");
    let section = section.split("\n### ").next().unwrap();
    let mut names = BTreeSet::new();
    for line in section.lines() {
        if !line.starts_with("| `") {
            continue;
        }
        let first_cell = line.trim_start_matches('|').split('|').next().unwrap();
        // Backtick-delimited tokens sit at the odd positions of the split.
        for (i, token) in first_cell.split('`').enumerate() {
            if i % 2 == 1 {
                names.insert(token.to_string());
            }
        }
    }
    assert!(
        names.len() > 40,
        "table parse found only {} names — format drift?",
        names.len()
    );
    names
}

/// Maps a concrete registered name onto the table's placeholder spelling.
fn normalize(name: &str) -> String {
    let segs: Vec<&str> = name.split('.').collect();
    let mut out: Vec<String> = Vec::new();
    for (i, seg) in segs.iter().enumerate() {
        let is_queue = seg
            .strip_prefix('q')
            .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()));
        let is_shard = seg
            .strip_prefix("shard")
            .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()));
        if segs[0] == "nic" && i == 1 && is_queue {
            continue; // nic.qN.x rows are documented via their nic.x form
        }
        if segs[0] == "kv"
            && i == 1
            && (is_shard
                || matches!(
                    *seg,
                    "cornflakes" | "protobuf" | "flatbuffers" | "capnproto" | "tcp"
                ))
        {
            out.push("<server>".to_string());
            continue;
        }
        if segs[0] == "fault" && i == 1 {
            out.push("<dir>".to_string());
            continue;
        }
        let is_node = seg
            .strip_prefix("node")
            .is_some_and(|r| !r.is_empty() && r.bytes().all(|b| b.is_ascii_digit()));
        if segs[0] == "cluster" && i == 1 && is_node {
            out.push("<node>".to_string());
            continue;
        }
        out.push((*seg).to_string());
    }
    out.join(".")
}

#[test]
fn every_registered_metric_is_documented_and_well_formed() {
    let registered = registered_metric_names(&full_stack_handle());
    assert!(
        registered.len() > 30,
        "expected a full-stack registry, got {} metrics",
        registered.len()
    );
    let documented = documented_names();

    let layers = ["nic", "net", "kv", "mem", "fault", "cluster"];
    let mut missing = Vec::new();
    for name in &registered {
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_'),
            "{name}: metric names are lowercase [a-z0-9_.]"
        );
        assert!(
            !name.starts_with('.') && !name.ends_with('.') && !name.contains(".."),
            "{name}: malformed dotted path"
        );
        let layer = name.split('.').next().unwrap();
        assert!(
            layers.contains(&layer),
            "{name}: unknown layer prefix {layer} (expected one of {layers:?})"
        );
        let norm = normalize(name);
        if !documented.contains(&norm) {
            missing.push(format!("{name} (normalized: {norm})"));
        }
    }
    assert!(
        missing.is_empty(),
        "metrics registered but absent from DESIGN.md's metric-namespace table:\n  {}",
        missing.join("\n  ")
    );

    // The quorum-read path's counters are part of the registry contract:
    // attaching a cluster client must surface all of them.
    for required in [
        "cluster.client.failovers",
        "cluster.client.quorum_reads",
        "cluster.client.read_repairs",
        "cluster.client.partition_suspects",
    ] {
        assert!(
            registered.contains(required),
            "{required} not registered by ClusterClient::set_telemetry"
        );
    }
}

/// No metric is dropped, renamed or added without this fixture saying so.
#[test]
fn the_registered_name_set_is_exactly_the_recorded_one() {
    let recorded: BTreeSet<String> = include_str!("fixtures/metric_names.txt")
        .lines()
        .map(str::to_string)
        .collect();
    let registered = registered_metric_names(&full_stack_handle());
    let missing: Vec<_> = recorded.difference(&registered).collect();
    let added: Vec<_> = registered.difference(&recorded).collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "no longer registered: {missing:?}; newly registered: {added:?}"
    );
}

/// `new` against `old`, member for member and number for number. Two kinds
/// of number are not held exactly. `mem.*` is exempt: the recorded snapshot
/// shows only the last attached machine's memory cells (a name held one
/// cell), this one the sum over every machine on the handle. And virtual
/// times (`*_ns`, `ts`, `dur`) follow real heap addresses through the
/// modelled cache, so they repeat to a few ns, not to the bit (DESIGN.md §6,
/// "What still varies"): those are held to 2 %.
fn assert_same_json(path: &str, old: &json::Value, new: &json::Value) {
    let virtual_time = path.ends_with("_ns") || path.ends_with(".ts") || path.ends_with(".dur");
    match (old, new) {
        (json::Value::Num(old), json::Value::Num(new)) if virtual_time => {
            assert!(
                (old - new).abs() <= 0.02 * old.abs(),
                "{path}: {old} vs {new}"
            );
        }
        (json::Value::Obj(old), json::Value::Obj(new)) => {
            let keys = |o: &[(String, json::Value)]| -> Vec<String> {
                o.iter().map(|(k, _)| k.clone()).collect()
            };
            assert_eq!(keys(old), keys(new), "{path}: members, in order");
            for ((k, o), (_, n)) in old.iter().zip(new) {
                if !k.starts_with("mem.") {
                    assert_same_json(&format!("{path}.{k}"), o, n);
                }
            }
        }
        (json::Value::Arr(old), json::Value::Arr(new)) => {
            assert_eq!(old.len(), new.len(), "{path}: length");
            for (i, (o, n)) in old.iter().zip(new).enumerate() {
                assert_same_json(&format!("{path}[{i}]"), o, n);
            }
        }
        _ => assert_eq!(old, new, "{path}"),
    }
}

/// The exporters render a `json::Value` now; what they say has not moved.
#[test]
fn snapshot_and_trace_parse_to_what_the_hand_formatters_wrote() {
    let tele = full_stack_handle();
    for (name, recorded, rendered) in [
        (
            "snapshot",
            include_str!("fixtures/namespace_snapshot.json"),
            tele.snapshot_json(),
        ),
        (
            "trace",
            include_str!("fixtures/namespace_trace.json"),
            tele.chrome_trace_json(),
        ),
    ] {
        let old = json::parse(recorded).expect("fixture parses");
        let new = json::parse(&rendered).expect("export parses");
        assert_same_json(name, &old, &new);
    }
}

#[test]
fn normalization_maps_scopes_onto_table_placeholders() {
    assert_eq!(normalize("nic.q3.tx_frames"), "nic.tx_frames");
    assert_eq!(normalize("nic.tx_frames"), "nic.tx_frames");
    assert_eq!(normalize("kv.shard0.requests"), "kv.<server>.requests");
    assert_eq!(normalize("kv.cornflakes.backlog"), "kv.<server>.backlog");
    assert_eq!(normalize("kv.client.retries"), "kv.client.retries");
    assert_eq!(normalize("fault.b_rx.drops"), "fault.<dir>.drops");
    assert_eq!(normalize("mem.pool.occupancy"), "mem.pool.occupancy");
    assert_eq!(
        normalize("cluster.node2.repl_puts"),
        "cluster.<node>.repl_puts"
    );
    assert_eq!(
        normalize("cluster.switch.forwarded"),
        "cluster.switch.forwarded"
    );
    assert_eq!(
        normalize("cluster.client.failovers"),
        "cluster.client.failovers"
    );
    assert_eq!(
        normalize("cluster.client.quorum_reads"),
        "cluster.client.quorum_reads"
    );
    assert_eq!(
        normalize("cluster.client.partition_suspects"),
        "cluster.client.partition_suspects"
    );
}
