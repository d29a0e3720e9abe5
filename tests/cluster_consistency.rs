//! Split-brain consistency tests: versioned values, quorum reads, and
//! read-repair under switch partitions.
//!
//! The layer under test is the client-observed consistency contract:
//!
//! - Under [`ReadMode::Any`] a GET is served by whichever replica the
//!   failover machinery reaches first — after a split-brain partition
//!   that can be a replica that missed writes, so the *witness* test
//!   below pins a scenario (committed seed, deterministic schedule)
//!   where an Any-mode client provably reads stale data and the
//!   [`history::check`] checker, run over the client's flight recorder,
//!   flags it.
//! - Under [`ReadMode::Quorum`] the same scenario stays consistent: the
//!   read majority overlaps the write set, the highest-versioned reply
//!   wins, stale replicas get read-repaired, and when no majority is
//!   reachable the read times out rather than return stale data
//!   (consistent-but-unavailable).
//! - The property test drives randomized split-brain schedules
//!   (partition a victim from its peers mid-workload, keep writing,
//!   heal, let catch-up replay run) and requires every quorum-mode
//!   history to pass the read-your-writes / monotonic-reads checker. A
//!   violation prints, from the same recorder, the timelines of the
//!   violating read and of the operation that set its floor.
//!
//! Case count for the property test is gated by `CF_CHAOS_CASES` like
//! the other chaos suites.

use proptest::prelude::*;

use cornflakes::chaos_repro;
use cornflakes::cluster::map::key_point;
use cornflakes::cluster::{history, version};
use cornflakes::cluster::{Cluster, ClusterClient, ClusterConfig, OpKind, ReadMode, Violation};
use cornflakes::kv::client::RetryConfig;
use cornflakes::kv::flags;
use cornflakes::kv::sharded::shard_of_key;
use cornflakes::mem::PoolConfig;
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightEvent, FlightRecorder, Telemetry};
use cornflakes::workloads::key_string;

const NODES: usize = 3;
const R: usize = 3;
const VALUE_BYTES: usize = 64;

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
        jitter_seed: None,
    }
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Answered {
        flags: u8,
        version: u64,
        vals: Vec<Vec<u8>>,
    },
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
                version: resp.version,
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

/// Runs the cluster with no client traffic (probes, replication chatter,
/// read-repair deliveries, catch-up) for `rounds`.
fn idle(cluster: &mut Cluster, client: &mut ClusterClient, rounds: usize) {
    for _ in 0..rounds {
        cluster.poll();
        while client.kv.recv_response().is_some() {}
        cluster.sim().clock().advance(60_000);
        client.poll_timers();
    }
}

/// Splits `victim` from every other node (the clients stay connected to
/// both sides — that asymmetry is what makes stale reads reachable).
fn split_brain(cluster: &mut Cluster, victim: u8) {
    for n in 0..NODES as u8 {
        if n != victim {
            cluster.partition(victim, n);
        }
    }
}

fn heal_brain(cluster: &mut Cluster, victim: u8) {
    for n in 0..NODES as u8 {
        if n != victim {
            cluster.heal(victim, n);
        }
    }
}

/// Each violation followed by the timelines, from `flight`, of the
/// violating read and of the operation that set its floor, one record a
/// line.
fn explain(flight: &FlightRecorder, violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out += &format!("{v:?}\n");
        for id in [v.req_id, v.floor_req_id] {
            out += &format!("request {id}:\n");
            for r in flight.events_for(id) {
                out += &r.to_value().render();
            }
        }
    }
    out
}

/// Sets up the committed witness scenario and runs it up to the moment
/// of truth: key `K` written at version 1 everywhere, then a backup
/// (`replicas[1]`) split from its peers, then version 2 written on the
/// majority side. Returns `(cluster, client, key, replicas)` with
/// `flight` attached to the cluster and the client and the split still
/// in force.
fn witness_scenario(
    mode: ReadMode,
    flight: &FlightRecorder,
) -> (Cluster, ClusterClient, Vec<u8>, Vec<u8>) {
    let mut cluster = build_cluster();
    let tele = Telemetry::disabled().with_flight(flight);
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.enable_retries_seeded(42, retry_cfg());
    client.set_read_mode(mode);

    let key = b"witness-key".to_vec();
    let replicas = cluster.map().replicas_for(&key, R);
    assert_eq!(replicas.len(), 3);

    // Probes establish, then version 1 lands on all three replicas.
    idle(&mut cluster, &mut client, 6);
    let id = client.send_put(&key, &[0xA1; VALUE_BYTES]);
    match drive(&mut cluster, &mut client, id) {
        Outcome::Answered { flags: 0, .. } => {}
        other => panic!("v1 put should ack cleanly, got {other:?}"),
    }

    // Split a backup from its peers; survivors detect it, the victim
    // detects the survivors (both sides need the probe misses).
    let victim = replicas[1];
    split_brain(&mut cluster, victim);
    idle(&mut cluster, &mut client, 40);
    let observer = replicas[0];
    assert!(
        !cluster.nodes[observer as usize].peer_alive(victim),
        "survivors see the victim down"
    );

    // Version 2: acked by the majority side, invisible to the victim.
    let id = client.send_put(&key, &[0xB2; VALUE_BYTES]);
    match drive(&mut cluster, &mut client, id) {
        Outcome::Answered {
            flags: 0, version, ..
        } if version::counter(version) == 2 => {}
        other => panic!("v2 put should ack cleanly at counter 2, got {other:?}"),
    }
    (cluster, client, key, replicas)
}

#[test]
fn any_mode_witness_serves_a_stale_read_after_split_brain() {
    let flight = FlightRecorder::with_capacity(4096);
    let (mut cluster, mut client, key, replicas) = witness_scenario(ReadMode::Any, &flight);
    let (primary, _victim, other) = (replicas[0], replicas[1], replicas[2]);

    // The client observes version 2 from the majority side first...
    let fresh = client.send_get(&key);
    match drive(&mut cluster, &mut client, fresh) {
        Outcome::Answered {
            flags: 0, version, ..
        } if version::counter(version) == 2 => {}
        other => panic!("fresh get sees counter 2, got {other:?}"),
    }

    // ...then loses its links to both fresh replicas. Only the stale
    // victim is reachable; Any-mode failover dutifully rotates to it.
    let client_host = client.host;
    cluster.partition(client_host, primary);
    cluster.partition(client_host, other);
    let stale = client.send_get(&key);
    match drive(&mut cluster, &mut client, stale) {
        Outcome::Answered {
            flags: 0,
            version,
            vals,
        } => {
            assert_eq!(
                version::counter(version),
                1,
                "the victim serves its pre-split version"
            );
            assert_eq!(vals, vec![vec![0xA1; VALUE_BYTES]], "stale bytes");
        }
        other => panic!("the victim answers the rotated get, got {other:?}"),
    }
    assert!(
        client.failovers() >= 1,
        "the stale read arrived via failover"
    );

    // The history checker catches exactly this: a read that went
    // backwards past an already-observed version, and the recorder
    // holds the failover that took it there.
    assert_eq!(flight.dropped(), 0, "recorder sized for the scenario");
    let violations = history::check(&flight.snapshot());
    assert!(
        !violations.is_empty(),
        "Any-mode split-brain read must violate monotonicity"
    );
    let v = &violations[0];
    assert_eq!(v.key, key_point(&key));
    assert_eq!(version::counter(v.saw), 1);
    assert_eq!(version::counter(v.floor), 2);
    assert_eq!(v.req_id, stale, "the stale get is named");
    assert_eq!(
        (v.floor_op, v.floor_req_id),
        (OpKind::Get, fresh),
        "the floor is the fresh get's observation"
    );
    assert!(
        flight
            .events_for(stale)
            .iter()
            .any(|r| matches!(r.event, FlightEvent::Failover { .. })),
        "the stale get's timeline holds its failover:\n{}",
        explain(&flight, &violations)
    );
}

#[test]
fn quorum_mode_witness_stays_consistent_and_read_repairs() {
    let flight = FlightRecorder::with_capacity(4096);
    let (mut cluster, mut client, key, replicas) = witness_scenario(ReadMode::Quorum, &flight);
    let tele = Telemetry::attach(cluster.sim()).with_flight(&flight);
    client.set_telemetry(&tele);
    let (primary, victim, other) = (replicas[0], replicas[1], replicas[2]);

    // Quorum read during the split: the majority fan-out includes the
    // stale victim (replicas[1]) and the fresh primary. The read returns
    // version 2 and pushes a read-repair at the victim.
    let id = client.send_get(&key);
    match drive(&mut cluster, &mut client, id) {
        Outcome::Answered {
            flags: 0,
            version,
            vals,
        } if version::counter(version) == 2 => {
            assert_eq!(vals, vec![vec![0xB2; VALUE_BYTES]]);
        }
        o => panic!("quorum read returns the newest version, got {o:?}"),
    }
    assert_eq!(client.quorum_reads(), 1);
    assert!(client.read_repairs() >= 1, "the stale victim got repaired");
    assert_eq!(
        tele.counter_value("cluster.client.read_repairs"),
        client.read_repairs(),
        "counter mirrors the getter"
    );

    // The repair is a plain versioned REPL_PUT: the victim applies it
    // even though it still can't see its peers.
    idle(&mut cluster, &mut client, 6);
    let q = shard_of_key(&key, cluster.nodes[victim as usize].server.num_shards());
    assert_eq!(
        version::counter(cluster.nodes[victim as usize].server.shards()[q].version_of(&key)),
        2,
        "read-repair brought the victim to version 2"
    );

    // Cut the client off from the majority: a quorum is no longer
    // reachable, so the read times out instead of returning anything —
    // consistent-but-unavailable, never stale.
    let client_host = client.host;
    cluster.partition(client_host, primary);
    cluster.partition(client_host, other);
    let id = client.send_get(&key);
    assert_eq!(
        drive(&mut cluster, &mut client, id),
        Outcome::TimedOut,
        "no majority reachable: quorum reads fail rather than lie"
    );

    // Heal everything; catch-up replay and the repaired store agree.
    cluster.heal(client_host, primary);
    cluster.heal(client_host, other);
    heal_brain(&mut cluster, victim);
    idle(&mut cluster, &mut client, 60);
    let id = client.send_get(&key);
    match drive(&mut cluster, &mut client, id) {
        Outcome::Answered {
            flags: 0, version, ..
        } if version::counter(version) == 2 => {}
        o => panic!("post-heal quorum read sees version 2, got {o:?}"),
    }

    assert_eq!(flight.dropped(), 0, "recorder sized for the scenario");
    let violations = history::check(&flight.snapshot());
    assert!(
        violations.is_empty(),
        "quorum history must be consistent, got\n{}",
        explain(&flight, &violations)
    );
    assert_eq!(
        tele.counter_value("cluster.client.quorum_reads"),
        client.quorum_reads()
    );
}

/// Satellite fix regression: a node that is *partitioned from the
/// client* (but alive) is treated like a dead one at routing time —
/// its breaker opens and routes skip it — and once its frames flow
/// again while the breaker is still open, the client surfaces the
/// contradiction as `cluster.client.partition_suspects` instead of
/// counting it as yet another failover.
#[test]
fn partitioned_but_alive_node_is_reported_as_partition_suspect() {
    use cornflakes::kv::overload::BreakerState;

    let mut cluster = build_cluster();
    let mut client = cluster.client();
    client.enable_retries_seeded(7, retry_cfg());
    let tele = Telemetry::attach(cluster.sim());
    client.set_telemetry(&tele);

    let key = b"suspect-key".to_vec();
    let replicas = cluster.map().replicas_for(&key, R);
    let (primary, b1, b2) = (replicas[0], replicas[1], replicas[2]);

    idle(&mut cluster, &mut client, 6);
    let id = client.send_put(&key, &[0x11; VALUE_BYTES]);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));

    // The client loses its link to the primary (which stays alive and
    // replicated). The first get fails over off it, and that failure,
    // beside the put's success, opens the primary's breaker; the second
    // get is routed around it from the start: partitioned-but-alive is
    // treated exactly like dead for routing.
    let client_host = client.host;
    cluster.partition(client_host, primary);
    for _ in 0..2 {
        let id = client.send_get(&key);
        assert!(matches!(
            drive(&mut cluster, &mut client, id),
            Outcome::Answered { flags: 0, .. }
        ));
    }
    assert!(
        client.failovers() >= 1,
        "the first get rotated off the primary"
    );
    assert_eq!(
        client.breaker_state(primary),
        BreakerState::Open,
        "unreachable primary is routed around, like a dead node"
    );
    assert_eq!(client.partition_suspects(), 0, "no contradiction yet");

    // Link restored — and both backups killed, so the route has nowhere
    // to go but the breaker-open primary. Its answer is the proof of
    // partition: requests kept failing while the switch delivers fine.
    cluster.heal(client_host, primary);
    cluster.kill(b1);
    cluster.kill(b2);
    let id = client.send_get(&key);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));
    assert!(
        client.partition_suspects() >= 1,
        "a reply from a breaker-open node is a partition suspect"
    );
    assert_eq!(
        tele.counter_value("cluster.client.partition_suspects"),
        client.partition_suspects()
    );
}

/// A GET to a dead primary fails over on its first retransmit: that one
/// frame goes to the next replica, not to the dead node a second time, so
/// the read is answered one retransmit timeout after its send.
#[test]
fn any_read_fails_over_on_its_first_retransmit() {
    let mut cluster = build_cluster();
    let mut client = cluster.client();
    client.enable_retries_seeded(11, retry_cfg());
    let key = b"failover-key".to_vec();
    cluster.preload(&key, &[VALUE_BYTES]);
    idle(&mut cluster, &mut client, 6);

    cluster.kill(cluster.map().replicas_for(&key, R)[0]);
    let sent_ns = cluster.sim().now();
    let id = client.send_get(&key);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));
    let took_ns = cluster.sim().now() - sent_ns;
    assert!(
        took_ns <= 2 * retry_cfg().timeout_ns,
        "answered {took_ns} ns after its send"
    );
    assert_eq!(client.failovers(), 1, "one retransmit, one failover");
}

/// A quorum read asks a breaker to admit it only if it will send to that
/// replica: an open breaker past its open window that the read does not
/// need stays open, rather than half-opening for a probe never sent — and
/// the next request that does target the node probes it and closes it.
#[test]
fn quorum_read_leaves_a_breaker_it_does_not_target_alone() {
    use cornflakes::kv::overload::BreakerState;

    let mut cluster = build_cluster();
    let mut client = cluster.client();
    client.enable_retries_seeded(13, retry_cfg());
    let keys: Vec<Vec<u8>> = (0..64).map(|i| key_string(i).into_bytes()).collect();
    let z_first = keys[0].clone();
    let z = cluster.map().replicas_for(&z_first, R)[0];
    let z_last = (keys.iter())
        .find(|k| cluster.map().replicas_for(k, R)[2] == z)
        .expect("some key has z as its last replica")
        .clone();
    for key in [&z_first, &z_last] {
        cluster.preload(key, &[VALUE_BYTES]);
    }
    idle(&mut cluster, &mut client, 6);

    // Two GETs whose primary is cut off from the client open its breaker.
    let client_host = client.host;
    cluster.partition(client_host, z);
    for _ in 0..2 {
        let id = client.send_get(&z_first);
        assert!(matches!(
            drive(&mut cluster, &mut client, id),
            Outcome::Answered { flags: 0, .. }
        ));
    }
    assert_eq!(client.breaker_state(z), BreakerState::Open);

    // Healed, and idle past the breaker's 3 ms open window.
    cluster.heal(client_host, z);
    idle(&mut cluster, &mut client, 60);
    client.set_read_mode(ReadMode::Quorum);
    let id = client.send_get(&z_last);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));
    assert_eq!(
        client.breaker_state(z),
        BreakerState::Open,
        "a quorum read that does not need z leaves its breaker alone"
    );

    client.set_read_mode(ReadMode::Any);
    let id = client.send_get(&z_first);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));
    assert_eq!(
        client.breaker_state(z),
        BreakerState::Closed,
        "the next GET to z is its probe, and z answers it"
    );
}

/// Review-pinned regression: a put retransmit that dedup-hits AFTER its
/// pending entry is gone (acked and forgotten) must re-forward under
/// the version originally minted for that request id — never a
/// re-derived `version_of(key)`, which can belong to a newer put — and
/// must not append a duplicate replay-log entry. Otherwise a replica
/// that missed both writes can end up holding the OLD payload at the
/// NEWEST version, and the strictly-newer apply guard then rejects the
/// real newest value forever.
#[test]
fn late_put_retransmit_reforwards_under_its_original_version() {
    let mut cluster = build_cluster();
    let mut client = cluster.client();
    client.enable_retries_seeded(23, retry_cfg());

    let key = b"witness-key".to_vec();
    let replicas = cluster.map().replicas_for(&key, R);
    let (coordinator, victim) = (replicas[0], replicas[1]);

    // v1 lands everywhere (req id 1 — the client's first request)...
    idle(&mut cluster, &mut client, 6);
    let id = client.send_put(&key, &[0xA1; VALUE_BYTES]);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));

    // ...then the victim is split off and v2 lands on the majority only.
    split_brain(&mut cluster, victim);
    idle(&mut cluster, &mut client, 40);
    let id = client.send_put(&key, &[0xB2; VALUE_BYTES]);
    assert!(matches!(
        drive(&mut cluster, &mut client, id),
        Outcome::Answered { flags: 0, .. }
    ));
    let log_before = cluster.nodes[coordinator as usize].log_len();

    // A second client replays the FIRST put byte-for-byte: fresh clients
    // allocate request ids from 1, so this is exactly a late client
    // retransmit arriving after the coordinator acked and dropped the
    // pending entry (dedup hit, pending gone).
    let mut late = cluster.client();
    late.enable_retries_seeded(29, retry_cfg());
    let id = late.send_put(&key, &[0xA1; VALUE_BYTES]);
    assert!(matches!(
        drive(&mut cluster, &mut late, id),
        Outcome::Answered { flags: 0, .. }
    ));
    assert_eq!(
        cluster.nodes[coordinator as usize].log_len(),
        log_before,
        "a dedup-hit retransmit must not re-log the old payload"
    );

    // Heal; catch-up replay runs. The victim — which missed v2 and the
    // retransmit — must converge to v2's bytes at v2's version: the old
    // payload was never re-stamped with a newer version anywhere.
    heal_brain(&mut cluster, victim);
    idle(&mut cluster, &mut client, 80);
    let q = shard_of_key(&key, cluster.nodes[victim as usize].server.num_shards());
    let victim_version = cluster.nodes[victim as usize].server.shards()[q].version_of(&key);
    assert_eq!(
        version::counter(victim_version),
        2,
        "catch-up brought the victim to the v2 counter"
    );
    let id = client.send_get(&key);
    match drive(&mut cluster, &mut client, id) {
        Outcome::Answered {
            flags: 0,
            version,
            vals,
        } => {
            assert_eq!(version::counter(version), 2);
            assert_eq!(
                vals,
                vec![vec![0xB2; VALUE_BYTES]],
                "the newest bytes survive the late retransmit"
            );
        }
        other => panic!("post-heal get, got {other:?}"),
    }
}

/// A client request's timeline (`events_for`) holds its own frames only:
/// the nodes' liveness probes, which run from before the first request,
/// carry ids no client request uses, so no record in a request's timeline
/// is stamped before the client sent the request.
#[test]
fn client_timelines_hold_no_probe_frames() {
    let flight = FlightRecorder::with_capacity(4096);
    let tele = Telemetry::disabled().with_flight(&flight);
    let mut cluster = build_cluster();
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.enable_retries_seeded(31, retry_cfg());
    idle(&mut cluster, &mut client, 6);
    for i in 0..8u64 {
        let key = key_string(i % 4).into_bytes();
        let sent_ns = cluster.sim().now();
        let id = if i % 2 == 0 {
            client.send_put(&key, &[i as u8; VALUE_BYTES])
        } else {
            client.send_get(&key)
        };
        assert!(matches!(
            drive(&mut cluster, &mut client, id),
            Outcome::Answered { flags: 0, .. }
        ));
        idle(&mut cluster, &mut client, 2);
        let timeline = flight.events_for(id);
        assert!(
            timeline.iter().all(|r| r.ts_ns >= sent_ns),
            "request {id}'s timeline holds a record from before it was sent:\n{}",
            timeline
                .iter()
                .map(|r| r.to_value().render())
                .collect::<String>()
        );
    }
    assert_eq!(flight.dropped(), 0, "the recorder kept every record");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Randomized split-brain schedules: partition a victim mid-workload,
    /// keep writing, heal, let catch-up run — every quorum-mode history
    /// must satisfy read-your-writes and monotonic reads.
    #[test]
    fn quorum_histories_stay_consistent_through_split_brain(
        seed in any::<u64>(),
        victim in 0u8..NODES as u8,
        partition_at in 2usize..5,
        heal_offset in 4usize..9,
        ops in proptest::collection::vec(any::<bool>(), 12..20),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("victim", victim.to_string()),
            ("partition_at", partition_at.to_string()),
            ("heal_offset", heal_offset.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        let flight_for_guard = flight.clone();
        chaos_repro::guard(
            "cluster_consistency::quorum_histories_stay_consistent_through_split_brain",
            seed,
            &params,
            &flight_for_guard,
            move || run_quorum_case(seed, victim, partition_at, heal_offset, &ops, flight),
        );
    }
}

/// The soak's case seed 17486660695782344001: node 2, split from its peers
/// before op 4, coordinates put 6 before its probes have marked them down.
/// Its replication to them never lands, and the put must not be acked on
/// that minority alone: read 11 on the majority side would then miss the
/// acked version.
#[test]
fn minority_coordinator_does_not_ack_a_put_no_backup_holds() {
    let ops: Vec<bool> = "GPGPPPGPPGGPG".chars().map(|c| c == 'P').collect();
    let flight = FlightRecorder::with_capacity(4096);
    run_quorum_case(17486660695782344001, 2, 4, 8, &ops, flight);
}

fn run_quorum_case(
    seed: u64,
    victim: u8,
    partition_at: usize,
    heal_offset: usize,
    ops: &[bool],
    flight: FlightRecorder,
) {
    const NUM_KEYS: u64 = 6;
    let mut cluster = build_cluster();
    let tele = Telemetry::disabled().with_flight(&flight);
    cluster.set_telemetry(&tele);
    let mut client = cluster.client();
    client.set_telemetry(&tele);
    client.enable_retries_seeded(seed, retry_cfg());
    client.set_read_mode(ReadMode::Quorum);

    let keys: Vec<Vec<u8>> = (0..NUM_KEYS).map(|i| key_string(i).into_bytes()).collect();
    for key in &keys {
        cluster.preload(key, &[VALUE_BYTES]);
    }
    idle(&mut cluster, &mut client, 6);

    let heal_at = partition_at + heal_offset;
    let mut answered = 0u64;
    let mut timeouts = 0u64;
    let mut rng = seed;
    let mut next = move || {
        // splitmix64: deterministic per-case op placement.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for (op_idx, &is_put) in ops.iter().enumerate() {
        if op_idx == partition_at {
            split_brain(&mut cluster, victim);
        }
        if op_idx == heal_at {
            heal_brain(&mut cluster, victim);
        }
        let key = keys[(next() % NUM_KEYS) as usize].clone();
        let id = if is_put {
            client.send_put(&key, &[op_idx as u8 ^ 0xC3; VALUE_BYTES])
        } else {
            client.send_get(&key)
        };
        match drive(&mut cluster, &mut client, id) {
            Outcome::Answered { .. } => answered += 1,
            Outcome::TimedOut => timeouts += 1,
        }
    }
    prop_assert_eq!(answered + timeouts, ops.len() as u64);
    prop_assert!(client.kv.pending_ids().is_empty());

    // Heal (idempotent if the schedule already healed), let catch-up
    // replay finish, then read every key once more at quorum.
    heal_brain(&mut cluster, victim);
    idle(&mut cluster, &mut client, 60);
    for key in &keys {
        let id = client.send_get(key);
        match drive(&mut cluster, &mut client, id) {
            Outcome::Answered { flags: f, .. } => {
                prop_assert_eq!(f & flags::SHED, 0, "post-heal reads are served");
            }
            Outcome::TimedOut => prop_assert!(false, "post-heal quorum read timed out"),
        }
    }

    prop_assert_eq!(
        flight.dropped(),
        0,
        "flight recorder sized for the workload"
    );
    let violations = history::check(&flight.snapshot());
    prop_assert!(
        violations.is_empty(),
        "quorum history violated session guarantees:\n{}",
        explain(&flight, &violations)
    );
}
