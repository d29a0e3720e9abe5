//! Cluster chaos property test: replicated KV serving (R=3) while a node
//! is killed mid-workload and seeded fault plans mangle the wire.
//!
//! Invariants, for every generated plan:
//! - every request ends in exactly one of: a decoded response or a typed
//!   timeout — killing a node never strands a request;
//! - puts are exactly-once *cluster-wide*: each node applies a given put
//!   at most once no matter how many paths (client retry after failover,
//!   coordinator resend, catch-up replay) delivered a copy;
//! - reads are never torn: every value read back is bytes some write (or
//!   the preload) actually produced, on any replica;
//! - after the dust settles, the client pool returns to baseline and
//!   every shard's pool occupancy equals its store contents.
//!
//! On any failed case, `cornflakes::chaos_repro::guard` dumps the fault
//! seed, case parameters, and the full flight-recorder timeline to
//! `target/chaos_repro.json` for deterministic replay.
//!
//! Case count is gated by `CF_CHAOS_CASES` like `tests/chaos.rs`.

use proptest::prelude::*;

use cornflakes::chaos_repro;
use cornflakes::cluster::{Cluster, ClusterClient, ClusterConfig, ReadMode};
use cornflakes::kv::client::RetryConfig;
use cornflakes::mem::PoolConfig;
use cornflakes::nic::FaultPlan;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightRecorder, Telemetry};
use cornflakes::workloads::{key_string, Ycsb, YcsbConfig};

const NUM_KEYS: u64 = 12;
const VALUE_BYTES: usize = 128;
const NODES: usize = 3;
const R: usize = 3;

fn chaos_cases() -> u32 {
    std::env::var("CF_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn build_cluster() -> Cluster {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    Cluster::new(
        sim,
        ClusterConfig {
            nodes: NODES,
            replication: R,
            pool: PoolConfig::small_for_tests(),
        },
    )
}

fn retry_cfg() -> RetryConfig {
    RetryConfig {
        timeout_ns: 120_000,
        max_retries: 6,
        max_backoff_ns: 500_000,
        jitter_seed: None, // seeded per-client via enable_retries_seeded
    }
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Answered { flags: u8, vals: Vec<Vec<u8>> },
    TimedOut,
}

/// Drives one request to its mandatory conclusion.
fn drive(cluster: &mut Cluster, client: &mut ClusterClient, id: u32) -> Outcome {
    for _round in 0..220 {
        cluster.poll();
        if let Some(resp) = client.recv_response() {
            assert_eq!(resp.id, Some(id), "tracking filters foreign responses");
            return Outcome::Answered {
                flags: resp.flags,
                vals: resp.vals,
            };
        }
        cluster.sim().clock().advance(60_000);
        if client.poll_timers().contains(&id) {
            return Outcome::TimedOut;
        }
    }
    panic!("request {id} neither answered nor timed out");
}

/// Runs the cluster with no client traffic (probe/replication chatter,
/// straggling retransmits, catch-up) for `rounds`.
fn settle(cluster: &mut Cluster, client: &mut ClusterClient, rounds: usize) {
    for _ in 0..rounds {
        cluster.poll();
        while client.kv.recv_response().is_some() {}
        cluster.sim().clock().advance(500_000);
        client.poll_timers();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn replicated_cluster_survives_node_kill_mid_workload(
        seed in any::<u64>(),
        drop_bp in 0u32..600,
        dup_bp in 0u32..600,
        delay_bp in 0u32..600,
        victim in 0u8..NODES as u8,
        kill_after in 4usize..8,
        revive in any::<bool>(),
        ops in proptest::collection::vec(any::<bool>(), 14..24),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("drop_bp", drop_bp.to_string()),
            ("dup_bp", dup_bp.to_string()),
            ("delay_bp", delay_bp.to_string()),
            ("victim", victim.to_string()),
            ("kill_after", kill_after.to_string()),
            ("revive", revive.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        let flight_for_guard = flight.clone();
        // Same seeds, both read modes: every invariant below is
        // consistency-policy-agnostic and must hold for each.
        chaos_repro::guard(
            "cluster_chaos::replicated_cluster_survives_node_kill_mid_workload",
            seed,
            &params,
            &flight_for_guard,
            move || {
                for mode in [ReadMode::Any, ReadMode::Quorum] {
                    run_case(
                        seed, mode, drop_bp, dup_bp, delay_bp, victim, kill_after, revive, &ops,
                        flight.clone(),
                    );
                }
            },
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    seed: u64,
    mode: ReadMode,
    drop_bp: u32,
    dup_bp: u32,
    delay_bp: u32,
    victim: u8,
    kill_after: usize,
    revive: bool,
    ops: &[bool],
    flight: FlightRecorder,
) {
    let mut cluster = build_cluster();
    let tele = Telemetry::disabled().with_flight(&flight);
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.enable_retries_seeded(seed, retry_cfg());
    client.set_read_mode(mode);

    // Preload every key on all its replicas; track every byte pattern a
    // key could legitimately hold (the candidate set only grows — a
    // rejoined replica may legally serve any earlier value).
    let keys: Vec<Vec<u8>> = (0..NUM_KEYS).map(|i| key_string(i).into_bytes()).collect();
    let mut candidates: Vec<Vec<Vec<u8>>> = Vec::new();
    for key in &keys {
        cluster.preload(key, &[VALUE_BYTES]);
        let fill = cornflakes::kv::store::KvStore::expected_fill(key, 0);
        candidates.push(vec![vec![fill; VALUE_BYTES]]);
    }
    let client_baseline = client.kv.stack.ctx().pool.live_slots();

    // Seeded wire chaos: on the client's receive direction and on every
    // node's NIC receive direction (hitting client puts, REPL traffic,
    // and probes alike).
    let p = |bp: u32| f64::from(bp) / 10_000.0;
    let _client_rx = client.kv.stack.install_faults(
        FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15)
            .with_drop(p(drop_bp))
            .with_duplicate(p(dup_bp))
            .with_delay(p(delay_bp), (10_000, 120_000)),
    );
    let mut node_rx = Vec::new();
    for n in 0..NODES as u8 {
        node_rx.push(
            cluster.install_faults_at(
                n,
                FaultPlan::seeded(seed.wrapping_add(u64::from(n) + 1))
                    .with_drop(p(drop_bp))
                    .with_duplicate(p(dup_bp))
                    .with_delay(p(delay_bp), (10_000, 120_000)),
            ),
        );
    }

    // Let probes establish a steady state before traffic.
    for _ in 0..6 {
        cluster.poll();
        cluster.sim().clock().advance(60_000);
    }

    let mut ycsb = Ycsb::new(
        YcsbConfig {
            num_keys: NUM_KEYS,
            theta: 0.9,
        },
        seed,
    );
    let mut answered = 0u64;
    let mut timeouts = 0u64;
    let mut clean_put_acks = 0u64;
    let mut puts_sent = 0u64;
    let mut killed = false;
    let revive_after = kill_after + 5;
    for (op_idx, &is_put) in ops.iter().enumerate() {
        if op_idx == kill_after {
            cluster.kill(victim);
            killed = true;
        }
        if revive && op_idx == revive_after {
            cluster.revive(victim);
        }
        let key_id = (ycsb.next_key() % NUM_KEYS) as usize;
        let key = keys[key_id].clone();
        if is_put {
            let val = vec![op_idx as u8 ^ 0x5A; VALUE_BYTES];
            puts_sent += 1;
            let id = client.send_put(&key, &val);
            match drive(&mut cluster, &mut client, id) {
                Outcome::Answered { flags: f, .. } => {
                    answered += 1;
                    // SHED = a minority-islanded coordinator refused the
                    // put before applying; DEGRADED = applied somewhere
                    // but not everywhere. Neither is a clean ack.
                    if f == 0 {
                        clean_put_acks += 1;
                    }
                    // Even a refused/degraded put may have applied on some
                    // replica along a rotated path.
                    candidates[key_id].push(val);
                }
                Outcome::TimedOut => {
                    timeouts += 1;
                    // Unknown outcome: the put may have landed anywhere.
                    candidates[key_id].push(val);
                }
            }
        } else {
            let id = client.send_get(&key);
            match drive(&mut cluster, &mut client, id) {
                Outcome::Answered { flags: f, vals } => {
                    answered += 1;
                    if f == 0 {
                        prop_assert_eq!(vals.len(), 1, "one value per get");
                        prop_assert!(
                            candidates[key_id].contains(&vals[0]),
                            "torn read: bytes match no legitimate write"
                        );
                    }
                }
                Outcome::TimedOut => timeouts += 1,
            }
        }
    }
    prop_assert!(killed, "the kill point fires inside the workload");

    // Every request concluded exactly once.
    prop_assert_eq!(answered + timeouts, ops.len() as u64);
    prop_assert!(client.kv.pending_ids().is_empty());

    // Exactly-once cluster-wide: each node's dedup window admits a put at
    // most once, so total applies are bounded by puts × replicas; and the
    // coordinator applied every cleanly-acked put at least once.
    let applied = cluster.total_puts_applied();
    prop_assert!(
        applied <= puts_sent * R as u64,
        "applied {applied} > {puts_sent} puts x {R} replicas: some replica re-applied a retry"
    );
    prop_assert!(
        applied >= clean_put_acks,
        "applied {applied} < clean acks {clean_put_acks}"
    );
    for node in &cluster.nodes {
        prop_assert!(
            node.server.puts_applied() <= puts_sent,
            "node {} applied more puts than were ever sent",
            node.id
        );
    }

    // Quiescence: revive the victim (if still dead) so in-flight resends
    // can conclude, let pending replications complete or abandon, then
    // check pools. The abandon window is 5 ms; settle for ~10 ms.
    cluster.revive(victim);
    settle(&mut cluster, &mut client, 20);
    for node in &mut cluster.nodes {
        prop_assert_eq!(node.pending_repl(), 0, "pending replication drained");
        for shard in node.server.shards_mut() {
            shard.stack.poll_completions();
        }
    }
    client.kv.stack.poll_completions();
    prop_assert_eq!(
        client.kv.stack.ctx().pool.live_slots(),
        client_baseline,
        "client side leaked buffers"
    );
    for node in &mut cluster.nodes {
        let id = node.id;
        for q in 0..node.server.num_shards() {
            let shard = &node.server.shards()[q];
            let mut store_slots = 0usize;
            for key in &keys {
                if let Some(value) = shard.store.get(key) {
                    store_slots += value.segments.len();
                    for seg in &value.segments {
                        prop_assert_eq!(
                            seg.refcount(),
                            1,
                            "store holds the only reference at rest"
                        );
                    }
                }
            }
            prop_assert_eq!(
                shard.stack.ctx().pool.live_slots(),
                store_slots,
                "node {id} shard {q}: pool occupancy != store contents (leak or early free)"
            );
        }
    }
}

/// The soak's case seed 1857165374003680485 in quorum mode: after node 1
/// dies, the client retries a put, under its one request id, through a
/// second coordinator. Both coordinators mint a version for it, and each
/// one's `REPL_PUT` to the other is a dedup hit. Unless a dedup hit adopts
/// the higher version, the replicas keep the same bytes at two versions, a
/// quorum read sees them disagree, and its read-repair re-applies the put
/// under a fresh request id on node 0.
#[test]
fn put_retried_through_a_second_coordinator_keeps_one_version() {
    let ops: Vec<bool> = "GPPPPPPPPPPGPGPPPGGPGGP"
        .chars()
        .map(|c| c == 'P')
        .collect();
    let flight = FlightRecorder::with_capacity(4096);
    run_case(
        1857165374003680485,
        ReadMode::Quorum,
        390,
        412,
        396,
        1,
        6,
        false,
        &ops,
        flight,
    );
}

/// The soak's case seed 11476602160499290812 in quorum mode: put 10's
/// coordinator, node 2, loses its `REPL_PUT` to node 0, and the client's
/// first retransmit fails over to node 0, which mints its own version for
/// the same bytes. Quorum GET 13 sees the two versions before node 2's
/// re-forward makes them agree, and read-repairs node 0. Unless a repair of
/// bytes a replica already holds only adopts the higher version, node 0
/// applies the put a second time under the repair's request id.
#[test]
fn read_repair_of_bytes_a_replica_holds_applies_nothing() {
    let ops: Vec<bool> = "GGGGGPPGGPGGGGGGGGGPP".chars().map(|c| c == 'P').collect();
    let flight = FlightRecorder::with_capacity(4096);
    run_case(
        11476602160499290812,
        ReadMode::Quorum,
        330,
        216,
        408,
        1,
        4,
        false,
        &ops,
        flight,
    );
}

/// Deterministic availability check (no random faults): kill a node
/// mid-workload and require the cluster to keep answering — every
/// post-kill request resolves as a response, not a timeout, once the
/// client's failover machinery has rotated off the dead node.
#[test]
fn cluster_keeps_serving_while_a_node_is_down() {
    keeps_serving_while_a_node_is_down(ReadMode::Any);
}

/// Quorum reads survive the same kill: two of three replicas are a
/// majority, so availability is unchanged under the stronger mode.
#[test]
fn cluster_keeps_serving_at_quorum_while_a_node_is_down() {
    keeps_serving_while_a_node_is_down(ReadMode::Quorum);
}

fn keeps_serving_while_a_node_is_down(mode: ReadMode) {
    let mut cluster = build_cluster();
    let mut client = cluster.client();
    client.enable_retries_seeded(23, retry_cfg());
    client.set_read_mode(mode);

    let keys: Vec<Vec<u8>> = (0..NUM_KEYS).map(|i| key_string(i).into_bytes()).collect();
    for key in &keys {
        cluster.preload(key, &[VALUE_BYTES]);
    }
    for _ in 0..6 {
        cluster.poll();
        cluster.sim().clock().advance(60_000);
    }

    // Warm traffic, then kill node 1.
    for (i, key) in keys.iter().enumerate().take(4) {
        let id = client.send_put(key, &[i as u8; VALUE_BYTES]);
        assert!(
            matches!(
                drive(&mut cluster, &mut client, id),
                Outcome::Answered { .. }
            ),
            "pre-kill puts answer"
        );
    }
    cluster.kill(1);

    let mut post_kill_answered = 0u64;
    for (i, key) in keys.iter().enumerate() {
        let id = if i % 2 == 0 {
            client.send_get(key)
        } else {
            client.send_put(key, &[0xB0 | i as u8; VALUE_BYTES])
        };
        if matches!(
            drive(&mut cluster, &mut client, id),
            Outcome::Answered { .. }
        ) {
            post_kill_answered += 1;
        }
    }
    assert_eq!(
        post_kill_answered,
        keys.len() as u64,
        "every post-kill request is served by the surviving replicas"
    );
    assert!(
        client.failovers() >= 1,
        "requests routed to the dead node failed over"
    );
}
