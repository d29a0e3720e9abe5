//! Replicated-cluster failover, step by step.
//!
//! Builds a 3-node cluster (R=3) behind the simulated switch, runs a
//! little traffic, kills a node mid-workload, and narrates what the
//! failover machinery does: probe-timeout detection on the survivors,
//! client breaker tripping and re-routing, and catch-up replay when the
//! node rejoins. A flight recorder — carried to the cluster and the client
//! by one flight-only `Telemetry` handle — captures the per-request
//! timeline of the first request that fails over.
//!
//! Run with: `cargo run --example cluster_failover`

use cornflakes::cluster::{Cluster, ClusterClient, ClusterConfig};
use cornflakes::kv::client::RetryConfig;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightRecorder, Telemetry};
use cornflakes::workloads::key_string;

/// Drives one request to a response or a terminal timeout.
fn drive(cluster: &mut Cluster, client: &mut ClusterClient, id: u32) -> bool {
    for _ in 0..300 {
        cluster.poll();
        if let Some(resp) = client.recv_response() {
            assert_eq!(resp.id, Some(id));
            return true;
        }
        cluster.sim().clock().advance(60_000);
        if client.poll_timers().contains(&id) {
            return false;
        }
    }
    panic!("request {id} never concluded");
}

fn main() {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let mut cluster = Cluster::new(
        sim,
        ClusterConfig {
            nodes: 3,
            replication: 3,
            ..ClusterConfig::default()
        },
    );
    let flight = FlightRecorder::with_capacity(4096);
    let tele = Telemetry::disabled().with_flight(&flight);
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.enable_retries_seeded(
        7,
        RetryConfig {
            timeout_ns: 120_000,
            max_retries: 6,
            max_backoff_ns: 500_000,
            jitter_seed: None,
        },
    );

    let keys: Vec<Vec<u8>> = (0..8).map(|i| key_string(i).into_bytes()).collect();
    for key in &keys {
        cluster.preload(key, &[128]);
    }
    // Probe chatter establishes the membership view.
    for _ in 0..6 {
        cluster.poll();
        cluster.sim().clock().advance(60_000);
    }

    println!("== phase 1: steady state (3 nodes, R=3) ==");
    for (i, key) in keys.iter().enumerate().take(4) {
        let id = client.send_put(key, &[i as u8; 128]);
        let ok = drive(&mut cluster, &mut client, id);
        println!(
            "  put {:?} -> node {} : {}",
            String::from_utf8_lossy(key),
            cluster.map().primary_for(key),
            if ok {
                "acked by all 3 replicas"
            } else {
                "timed out"
            }
        );
    }
    let applied: Vec<u64> = cluster
        .nodes
        .iter()
        .map(|n| n.server.puts_applied())
        .collect();
    println!("  puts applied per node: {applied:?} (R=3: every node holds every put)");

    println!("\n== phase 2: kill node 1 mid-workload ==");
    cluster.kill(1);
    let before = cluster.sim().now();
    let mut served = 0;
    for (i, key) in keys.iter().enumerate() {
        let id = if i % 2 == 0 {
            client.send_get(key)
        } else {
            client.send_put(key, &[0xB0 | i as u8; 128])
        };
        if drive(&mut cluster, &mut client, id) {
            served += 1;
        }
    }
    println!(
        "  {served}/{} requests served while node 1 is down",
        keys.len()
    );
    println!(
        "  client failovers: {} (retransmit fired -> breaker failure -> route rotated)",
        client.failovers()
    );
    println!(
        "  node 1 breaker at the client: {:?}",
        client.breaker_state(1)
    );
    for node in &cluster.nodes {
        if node.id != 1 {
            println!(
                "  node {} sees node 1 alive: {} (probe timeouts)",
                node.id,
                node.peer_alive(1)
            );
        }
    }
    println!(
        "  detection + failover all inside {} virtual us",
        (cluster.sim().now() - before) / 1_000
    );

    println!("\n== phase 3: node 1 rejoins ==");
    cluster.revive(1);
    for _ in 0..40 {
        cluster.poll();
        while client.kv.recv_response().is_some() {}
        cluster.sim().clock().advance(500_000);
        client.poll_timers();
    }
    let replays: u64 = cluster.nodes.iter().map(|n| n.catchup_replays()).sum();
    println!("  catch-up replay re-sent {replays} log entries to the rejoined node");
    let applied: Vec<u64> = cluster
        .nodes
        .iter()
        .map(|n| n.server.puts_applied())
        .collect();
    println!("  puts applied per node: {applied:?} (dedup absorbed the duplicates)");

    println!("\n== flight timeline of a failed-over request ==");
    let records = flight.snapshot();
    if let Some(f) = records.iter().find(|r| r.event.label() == "failover") {
        for r in records.iter().filter(|r| r.req_id == f.req_id) {
            let detail = r
                .event
                .detail()
                .map(|(k, v)| format!(" {k}={v}"))
                .unwrap_or_default();
            println!(
                "  [{:>9} ns] req {} {}{detail}",
                r.ts_ns,
                r.req_id,
                r.event.label()
            );
        }
    }
}
