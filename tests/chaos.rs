//! Chaos property test (robustness capstone): YCSB-style key-value traffic
//! over UDP while seeded fault plans drop, duplicate, reorder, corrupt, and
//! delay frames in both directions.
//!
//! Invariants checked for every generated fault plan:
//! - every request ends in exactly one of: a decoded response or a typed
//!   timeout from the client's retry machinery;
//! - retried puts are exactly-once: a put acknowledged clean was applied
//!   precisely once, no matter how many times the wire replayed it;
//! - values read back are always bytes some client write (or the preload)
//!   actually produced — never torn or corrupted data;
//! - when the dust settles, buffer refcounts and pool occupancy return to
//!   baseline: the store owns the only reference to every stored segment
//!   and nothing leaks on either side of the wire.
//!
//! Case count is environment-gated: `CF_CHAOS_CASES=256 cargo test --test
//! chaos` for a soak run; the default stays CI-fast.

use proptest::prelude::*;

use cornflakes::chaos_repro;
use cornflakes::kv::client::{KvClient, RetryConfig, CLIENT_PORT, SERVER_PORT};
use cornflakes::kv::flags;
use cornflakes::kv::overload::{AdmissionConfig, RETRY_BUDGET_CAPACITY, RETRY_BUDGET_PER_REQUEST};
use cornflakes::kv::server::{KvServer, SerKind};
use cornflakes::kv::sharded::ShardedKvServer;
use cornflakes::mem::PoolConfig;
use cornflakes::net::UdpStack;
use cornflakes::nic::{link, FaultPlan};
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightRecorder, Telemetry};
use cornflakes::workloads::{key_string, Ycsb, YcsbConfig};

const NUM_KEYS: u64 = 16;
const VALUE_BYTES: usize = 256;

fn chaos_cases() -> u32 {
    std::env::var("CF_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Client and server share one Sim so retry deadlines, fault delays, and
/// RTOs all read the same virtual clock.
fn chaos_pair() -> (KvClient, KvServer, Sim) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let client_stack = UdpStack::new(
        sim.clone(),
        cp,
        CLIENT_PORT,
        cornflakes::core::SerializationConfig::hybrid(),
    );
    // A deliberately small server pool: heavy in-flight traffic can brush
    // against exhaustion, exercising the degraded paths under fault load.
    let server_stack = UdpStack::with_pool_config(
        sim.clone(),
        sp,
        SERVER_PORT,
        cornflakes::core::SerializationConfig::hybrid(),
        PoolConfig {
            slots_per_region: 4,
            max_regions_per_class: 8,
            ..PoolConfig::small_for_tests()
        },
    );
    (
        KvClient::new(client_stack, SerKind::Cornflakes),
        KvServer::new(server_stack, SerKind::Cornflakes),
        sim,
    )
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Answered { flags: u8, vals: Vec<Vec<u8>> },
    TimedOut,
}

/// Drives one request to its mandatory conclusion: response or timeout.
/// `poll_server` is the server's poll entry point (plain or sharded).
fn drive_with(client: &mut KvClient, poll_server: &mut dyn FnMut(), sim: &Sim, id: u32) -> Outcome {
    for _round in 0..80 {
        poll_server();
        if let Some(resp) = client.recv_response() {
            assert_eq!(resp.id, Some(id), "tracking filters foreign responses");
            return Outcome::Answered {
                flags: resp.flags,
                vals: resp.vals,
            };
        }
        sim.clock().advance(60_000);
        if client.poll_timers().contains(&id) {
            return Outcome::TimedOut;
        }
    }
    panic!("request {id} neither answered nor timed out");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn kv_traffic_survives_arbitrary_fault_plans(
        seed in any::<u64>(),
        drop_bp in 0u32..2000,
        dup_bp in 0u32..2000,
        reorder_bp in 0u32..2000,
        corrupt_bp in 0u32..1500,
        delay_bp in 0u32..2000,
        // One bool per operation: true = put, false = get.
        ops in proptest::collection::vec(any::<bool>(), 12..28),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("drop_bp", drop_bp.to_string()),
            ("dup_bp", dup_bp.to_string()),
            ("reorder_bp", reorder_bp.to_string()),
            ("corrupt_bp", corrupt_bp.to_string()),
            ("delay_bp", delay_bp.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        chaos_repro::guard(
            "chaos::kv_traffic_survives_arbitrary_fault_plans",
            seed,
            &params,
            &flight,
            || {
        let (mut client, mut server, sim) = chaos_pair();
        let tele = Telemetry::attach(&sim);
        server.set_telemetry(&tele);
        client.set_telemetry(&tele);
        server.set_flight_recorder(&flight);
        client.set_flight_recorder(&flight);
        client.enable_retries(RetryConfig { timeout_ns: 100_000, max_retries: 3, ..RetryConfig::default() });

        let mut ycsb = Ycsb::new(
            YcsbConfig {
                num_keys: NUM_KEYS,
                theta: 0.9,
            },
            seed,
        );

        // Preload every key so gets always have a well-known answer, and
        // remember every byte pattern each key could legitimately hold.
        let keys: Vec<Vec<u8>> = (0..NUM_KEYS)
            .map(|i| key_string(i).into_bytes())
            .collect();
        let mut candidates: Vec<Vec<Vec<u8>>> = Vec::new();
        for key in &keys {
            server
                .store
                .preload(server.stack.ctx(), key, &[VALUE_BYTES])
                .expect("preload fits the pool");
            let fill = cornflakes::kv::store::KvStore::expected_fill(key, 0);
            candidates.push(vec![vec![fill; VALUE_BYTES]]);
        }
        let client_baseline = client.stack.ctx().pool.live_slots();

        let p = |bp: u32| f64::from(bp) / 10_000.0;
        let requests = server.stack.install_faults(
            FaultPlan::seeded(seed)
                .with_drop(p(drop_bp))
                .with_duplicate(p(dup_bp))
                .with_reorder(p(reorder_bp))
                .with_corrupt(p(corrupt_bp))
                .with_delay(p(delay_bp), (10_000, 150_000)),
        );
        let responses = client.stack.install_faults(
            FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15)
                .with_drop(p(drop_bp))
                .with_duplicate(p(dup_bp))
                .with_reorder(p(reorder_bp))
                .with_corrupt(p(corrupt_bp))
                .with_delay(p(delay_bp), (10_000, 150_000)),
        );

        let mut answered = 0u64;
        let mut timeouts = 0u64;
        let mut clean_put_acks = 0u64;
        let mut puts_sent = 0u64;
        for (op_idx, &is_put) in ops.iter().enumerate() {
            let key_id = ycsb.next_key() % NUM_KEYS;
            let key = keys[key_id as usize].clone();
            if is_put {
                // A unique, recognizable value per write.
                let val = vec![op_idx as u8 ^ 0xA5; VALUE_BYTES];
                puts_sent += 1;
                let id = client.send_put(&key, &val);
                match drive_with(
                    &mut client,
                    &mut || {
                        server.poll();
                    },
                    &sim,
                    id,
                ) {
                    Outcome::Answered { flags: f, .. } => {
                        answered += 1;
                        if f & flags::DEGRADED == 0 {
                            clean_put_acks += 1;
                            // Only a clean ack promises the write landed.
                            candidates[key_id as usize].push(val);
                        }
                    }
                    Outcome::TimedOut => {
                        timeouts += 1;
                        // Unknown outcome: the put may still have applied.
                        candidates[key_id as usize].push(val);
                    }
                }
            } else {
                let id = client.send_get(&[&key]);
                match drive_with(
                    &mut client,
                    &mut || {
                        server.poll();
                    },
                    &sim,
                    id,
                ) {
                    Outcome::Answered { vals, .. } => {
                        answered += 1;
                        prop_assert_eq!(vals.len(), 1, "one value per get");
                        prop_assert!(
                            candidates[key_id as usize].contains(&vals[0]),
                            "read bytes must match some legitimate write"
                        );
                    }
                    Outcome::TimedOut => timeouts += 1,
                }
            }
        }

        // Every request concluded exactly once.
        prop_assert_eq!(answered + timeouts, ops.len() as u64);
        prop_assert!(client.pending_ids().is_empty());

        // Exactly-once puts: every clean ack corresponds to one apply; the
        // only applies beyond that are puts whose acks were all lost.
        let applied = server.puts_applied();
        prop_assert!(
            applied >= clean_put_acks,
            "applied {applied} < clean acks {clean_put_acks}"
        );
        prop_assert!(
            applied <= puts_sent,
            "applied {applied} > puts sent {puts_sent}: a retry was re-applied"
        );

        // Let straggling delayed frames land and drain stale responses.
        for _ in 0..6 {
            sim.clock().advance(500_000);
            server.poll();
            prop_assert!(client.recv_response().is_none(), "no untracked responses");
        }
        let _ = (requests.stats(), responses.stats());

        // Quiescence: refcounts and pool occupancy back to baseline.
        client.stack.poll_completions();
        server.stack.poll_completions();
        prop_assert_eq!(
            client.stack.ctx().pool.live_slots(),
            client_baseline,
            "client side leaked buffers"
        );
        let mut store_slots = 0usize;
        for key in &keys {
            let value = server.store.get(key).expect("keys never disappear");
            store_slots += value.segments.len();
            for seg in &value.segments {
                prop_assert_eq!(
                    seg.refcount(),
                    1,
                    "store must hold the only reference at rest"
                );
            }
        }
        prop_assert_eq!(
            server.stack.ctx().pool.live_slots(),
            store_slots,
            "server pool occupancy != store contents: leak or early free"
        );
        });
    }

    /// The same chaos invariants with the multi-queue datapath: a sharded
    /// server behind RSS steering, faults hitting the shared wire before
    /// the steering stage. Requests must still conclude exactly once,
    /// puts stay exactly-once *per owning shard*, and no shard ever sees
    /// a request for a key it does not own.
    #[test]
    fn sharded_kv_traffic_survives_arbitrary_fault_plans(
        seed in any::<u64>(),
        queues in 2usize..=4,
        drop_bp in 0u32..2000,
        dup_bp in 0u32..2000,
        reorder_bp in 0u32..2000,
        corrupt_bp in 0u32..1500,
        delay_bp in 0u32..2000,
        ops in proptest::collection::vec(any::<bool>(), 10..20),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("queues", queues.to_string()),
            ("drop_bp", drop_bp.to_string()),
            ("dup_bp", dup_bp.to_string()),
            ("reorder_bp", reorder_bp.to_string()),
            ("corrupt_bp", corrupt_bp.to_string()),
            ("delay_bp", delay_bp.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        chaos_repro::guard(
            "chaos::sharded_kv_traffic_survives_arbitrary_fault_plans",
            seed,
            &params,
            &flight,
            || {
        // Shards share one Sim (one clock) so retry deadlines and fault
        // delays stay coherent with the client's view of time.
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (cp, sp) = link();
        let mut server = ShardedKvServer::on_sims(
            vec![sim.clone(); queues],
            sp,
            PoolConfig::small_for_tests(),
        );
        let client_stack = UdpStack::new(
            sim.clone(),
            cp,
            CLIENT_PORT,
            cornflakes::core::SerializationConfig::hybrid(),
        );
        let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
        client.enable_steering(&server.rss());
        client.enable_retries(RetryConfig { timeout_ns: 100_000, max_retries: 3, ..RetryConfig::default() });
        server.set_telemetry(&Telemetry::disabled().with_flight(&flight));
        client.set_flight_recorder(&flight);

        let keys: Vec<Vec<u8>> = (0..NUM_KEYS)
            .map(|i| key_string(i).into_bytes())
            .collect();
        let mut candidates: Vec<Vec<Vec<u8>>> = Vec::new();
        for key in &keys {
            server.preload(key, &[VALUE_BYTES]).expect("preload fits");
            let fill = cornflakes::kv::store::KvStore::expected_fill(key, 0);
            candidates.push(vec![vec![fill; VALUE_BYTES]]);
        }

        let p = |bp: u32| f64::from(bp) / 10_000.0;
        let _requests = server.install_faults(
            FaultPlan::seeded(seed)
                .with_drop(p(drop_bp))
                .with_duplicate(p(dup_bp))
                .with_reorder(p(reorder_bp))
                .with_corrupt(p(corrupt_bp))
                .with_delay(p(delay_bp), (10_000, 150_000)),
        );
        let _responses = client.stack.install_faults(
            FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15)
                .with_drop(p(drop_bp))
                .with_duplicate(p(dup_bp))
                .with_reorder(p(reorder_bp))
                .with_corrupt(p(corrupt_bp))
                .with_delay(p(delay_bp), (10_000, 150_000)),
        );

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
        for (op_idx, &is_put) in ops.iter().enumerate() {
            let key_id = ycsb.next_key() % NUM_KEYS;
            let key = keys[key_id as usize].clone();
            if is_put {
                let val = vec![op_idx as u8 ^ 0xA5; VALUE_BYTES];
                puts_sent += 1;
                let id = client.send_put(&key, &val);
                match drive_with(
                    &mut client,
                    &mut || {
                        server.poll();
                    },
                    &sim,
                    id,
                ) {
                    Outcome::Answered { flags: f, .. } => {
                        answered += 1;
                        if f & flags::DEGRADED == 0 {
                            clean_put_acks += 1;
                            candidates[key_id as usize].push(val);
                        }
                    }
                    Outcome::TimedOut => {
                        timeouts += 1;
                        candidates[key_id as usize].push(val);
                    }
                }
            } else {
                let id = client.send_get(&[&key]);
                match drive_with(
                    &mut client,
                    &mut || {
                        server.poll();
                    },
                    &sim,
                    id,
                ) {
                    Outcome::Answered { vals, .. } => {
                        answered += 1;
                        prop_assert_eq!(vals.len(), 1, "one value per get");
                        prop_assert!(
                            candidates[key_id as usize].contains(&vals[0]),
                            "read bytes must match some legitimate write"
                        );
                    }
                    Outcome::TimedOut => timeouts += 1,
                }
            }
        }

        prop_assert_eq!(answered + timeouts, ops.len() as u64);
        prop_assert!(client.pending_ids().is_empty());
        let applied = server.puts_applied();
        prop_assert!(applied >= clean_put_acks);
        prop_assert!(
            applied <= puts_sent,
            "applied {applied} > puts sent {puts_sent}: a retry was re-applied"
        );

        // Let stragglers land, then check shard isolation: each shard
        // stored only keys it owns, and pool occupancy matches its store.
        for _ in 0..6 {
            sim.clock().advance(500_000);
            server.poll();
            prop_assert!(client.recv_response().is_none(), "no untracked responses");
        }
        for (q, shard) in server.shards().iter().enumerate() {
            let mut store_slots = 0usize;
            for key in &keys {
                let owner = server.shard_of(key);
                match shard.store.get(key) {
                    Some(value) => {
                        prop_assert_eq!(
                            owner, q,
                            "shard {} holds a key owned by shard {}", q, owner
                        );
                        store_slots += value.segments.len();
                        for seg in &value.segments {
                            prop_assert_eq!(seg.refcount(), 1);
                        }
                    }
                    None => prop_assert!(
                        owner != q,
                        "shard {} lost a key it owns", q
                    ),
                }
            }
            prop_assert_eq!(
                shard.stack.ctx().pool.live_slots(),
                store_slots,
                "shard pool occupancy != its store contents"
            );
        }
        });
    }

    /// Overload phase: a burst of requests far beyond the admission
    /// backlog is offered at once, the server is throttled to serve less
    /// virtual time than passes between rounds (sustained load above
    /// capacity), and fault plans drop/reorder frames on top. With
    /// admission control and client protection on, every request must
    /// still conclude exactly once — served, shed, or typed timeout —
    /// puts stay exactly-once, and both pools drain to baseline.
    #[test]
    fn overload_burst_with_faults_concludes_every_request(
        seed in any::<u64>(),
        drop_bp in 0u32..1500,
        reorder_bp in 0u32..1500,
        // One bool per burst entry: true = put, false = get. The burst is
        // several times the backlog + rx-ring budget below.
        ops in proptest::collection::vec(any::<bool>(), 24..48),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("drop_bp", drop_bp.to_string()),
            ("reorder_bp", reorder_bp.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        chaos_repro::guard(
            "chaos::overload_burst_with_faults_concludes_every_request",
            seed,
            &params,
            &flight,
            || {
        let (mut client, mut server, sim) = chaos_pair();
        server.set_flight_recorder(&flight);
        client.set_flight_recorder(&flight);
        server.enable_admission(AdmissionConfig {
            backlog_capacity: 8,
            rx_backlog_limit: 16,
            target_sojourn_ns: 150_000,
        });
        client.enable_retries(RetryConfig {
            timeout_ns: 100_000,
            max_retries: 3,
            jitter_seed: Some(seed),
            ..RetryConfig::default()
        });
        client.enable_protection();

        let keys: Vec<Vec<u8>> = (0..NUM_KEYS)
            .map(|i| key_string(i).into_bytes())
            .collect();
        let mut candidates: Vec<Vec<Vec<u8>>> = Vec::new();
        for key in &keys {
            server
                .store
                .preload(server.stack.ctx(), key, &[VALUE_BYTES])
                .expect("preload fits the pool");
            let fill = cornflakes::kv::store::KvStore::expected_fill(key, 0);
            candidates.push(vec![vec![fill; VALUE_BYTES]]);
        }
        let client_baseline = client.stack.ctx().pool.live_slots();

        let p = |bp: u32| f64::from(bp) / 10_000.0;
        let _requests = server.stack.install_faults(
            FaultPlan::seeded(seed)
                .with_drop(p(drop_bp))
                .with_reorder(p(reorder_bp)),
        );
        let _responses = client.stack.install_faults(
            FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15)
                .with_drop(p(drop_bp))
                .with_reorder(p(reorder_bp)),
        );

        // Offer the whole burst before the server runs at all.
        let mut ycsb = Ycsb::new(
            YcsbConfig {
                num_keys: NUM_KEYS,
                theta: 0.9,
            },
            seed,
        );
        let mut puts_sent = 0u64;
        let mut ids = std::collections::HashSet::new();
        for (op_idx, &is_put) in ops.iter().enumerate() {
            let key_id = (ycsb.next_key() % NUM_KEYS) as usize;
            let id = if is_put {
                let val = vec![op_idx as u8 ^ 0xA5; VALUE_BYTES];
                puts_sent += 1;
                // Any offered put may land no matter how it concludes.
                candidates[key_id].push(val.clone());
                client.send_put(&keys[key_id], &val)
            } else {
                client.send_get(&[&keys[key_id]])
            };
            prop_assert!(ids.insert((id, key_id)), "request ids are unique");
        }

        // Drive everything to conclusion: each round the server may serve
        // only ~half the virtual time that passes, so the backlog ages and
        // the sojourn shedder gets real work.
        let mut served = 0u64;
        let mut shed = 0u64;
        let mut timeouts = 0u64;
        let mut concluded = std::collections::HashSet::new();
        for _round in 0..400 {
            let now = sim.now();
            server.poll_until(now, now + 30_000);
            while let Some(resp) = client.recv_response() {
                let id = resp.id.expect("replies echo the request id");
                prop_assert!(concluded.insert(id), "double conclusion for {}", id);
                if resp.flags & flags::SHED != 0 {
                    shed += 1;
                } else {
                    served += 1;
                    if let Some(&(_, key_id)) =
                        ids.iter().find(|&&(rid, _)| rid == id)
                    {
                        if !resp.vals.is_empty() {
                            prop_assert!(
                                candidates[key_id].contains(&resp.vals[0]),
                                "read bytes must match some legitimate write"
                            );
                        }
                    }
                }
            }
            sim.clock().advance(60_000);
            for id in client.poll_timers() {
                prop_assert!(concluded.insert(id), "double conclusion for {}", id);
                timeouts += 1;
            }
            if concluded.len() == ops.len() {
                break;
            }
        }

        // Every request concluded exactly once, one way or another.
        prop_assert_eq!(
            served + shed + timeouts,
            ops.len() as u64,
            "served {} + shed {} + timeouts {} != offered {}",
            served, shed, timeouts, ops.len()
        );
        prop_assert!(client.pending_ids().is_empty());
        // Exactly-once puts: never more applies than puts offered.
        prop_assert!(
            server.puts_applied() <= puts_sent,
            "applied {} > puts sent {}: a retry was re-applied",
            server.puts_applied(), puts_sent
        );
        // Retries stayed within the budget's hard bound.
        let bound = RETRY_BUDGET_CAPACITY + RETRY_BUDGET_PER_REQUEST * ops.len() as f64;
        prop_assert!(
            client.retries_sent() as f64 <= bound,
            "retries {} exceed budget bound {}",
            client.retries_sent(), bound
        );

        // Quiescence: stragglers land, pools drain to baseline.
        for _ in 0..6 {
            sim.clock().advance(500_000);
            server.poll();
            prop_assert!(client.recv_response().is_none(), "no untracked responses");
        }
        client.stack.poll_completions();
        server.stack.poll_completions();
        prop_assert_eq!(
            client.stack.ctx().pool.live_slots(),
            client_baseline,
            "client side leaked buffers"
        );
        let mut store_slots = 0usize;
        for key in &keys {
            let value = server.store.get(key).expect("keys never disappear");
            store_slots += value.segments.len();
            for seg in &value.segments {
                prop_assert_eq!(seg.refcount(), 1, "store holds the only reference");
            }
        }
        prop_assert_eq!(
            server.stack.ctx().pool.live_slots(),
            store_slots,
            "server pool occupancy != store contents: leak or early free"
        );
        });
    }
}

/// A server that answers nothing (100% request drop) must not provoke a
/// retry storm: the client's retry budget bounds total retransmissions to
/// `capacity + per_request × fresh`, every request concludes as a typed
/// timeout, and the breaker ends up open.
#[test]
fn retry_storm_is_bounded_by_the_budget() {
    let (mut client, mut server, sim) = chaos_pair();
    client.enable_retries(RetryConfig {
        timeout_ns: 100_000,
        max_retries: 10,
        jitter_seed: Some(7),
        ..RetryConfig::default()
    });
    client.enable_protection();
    let _requests = server
        .stack
        .install_faults(FaultPlan::seeded(1).with_drop(1.0));

    const FRESH: u64 = 40;
    for i in 0..FRESH {
        let key = key_string(i % NUM_KEYS).into_bytes();
        client.send_get(&[&key]);
    }
    let mut timeouts = 0u64;
    for _round in 0..4_000 {
        server.poll();
        assert!(client.recv_response().is_none(), "nothing can be answered");
        sim.clock().advance(60_000);
        timeouts += client.poll_timers().len() as u64;
        if timeouts == FRESH {
            break;
        }
    }
    assert_eq!(
        timeouts, FRESH,
        "every request concludes as a typed timeout"
    );
    assert!(client.pending_ids().is_empty());

    // The hard bound: the initial bank plus per-request earnings. Without
    // the budget this run would have sent FRESH × max_retries = 400.
    let bound = RETRY_BUDGET_CAPACITY + RETRY_BUDGET_PER_REQUEST * FRESH as f64;
    assert!(
        client.retries_sent() as f64 <= bound,
        "retry storm: {} retransmissions exceed budget bound {}",
        client.retries_sent(),
        bound
    );
    assert!(
        client.budget_exhausted_count() > 0,
        "the budget actually intervened"
    );
    assert_eq!(
        client.breaker_state(),
        Some(cornflakes::kv::overload::BreakerState::Open),
        "a fully dead server trips the breaker"
    );
}
