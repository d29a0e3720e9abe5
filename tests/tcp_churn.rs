//! Connection-churn survival (robustness tentpole): a TCP-served KV server
//! behind a bounded flow table, attacked by a SYN flood at 10× table
//! capacity, slow-drip readers that park half-finished messages in
//! reassembly, and a connect/close stampede — all while well-behaved
//! clients keep issuing requests.
//!
//! Invariants:
//! - the flow table NEVER exceeds its configured capacity (gauge-asserted
//!   every round);
//! - overflow SYNs are answered with RST and counted, not silently eaten;
//! - well-behaved goodput under attack stays within 80% of the unattacked
//!   baseline;
//! - when the attack stops, the idle reaper returns occupancy to exactly
//!   the well-behaved population, and to zero once they close;
//! - a seeded-fault churn proptest: every request a live connection issued
//!   is answered, occupancy returns to zero after the reap, and the
//!   server pool returns to its baseline occupancy (no leaked buffers).

use proptest::prelude::*;

use cornflakes::chaos_repro;
use cornflakes::core::SerializationConfig;
use cornflakes::kv::tcp_server::{TcpKvClient, TcpKvServer};
use cornflakes::net::tcp::{build_header, FLAG_ACK, FLAG_FIN, FLAG_SYN};
use cornflakes::net::{FlowConfig, TcpListener, TcpStack};
use cornflakes::nic::{FaultPlan, PortHub};
use cornflakes::sim::{MachineProfile, Sim};
use cornflakes::telemetry::{FlightRecorder, Telemetry};

const SERVER_PORT: u16 = 9000;
const CAPACITY: usize = 256;
const WELL_BEHAVED: usize = 8;
const ROUNDS: usize = 400;
const TICK_NS: u64 = 250_000;

fn raw_frame(src: u16, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Vec<u8> {
    let header = build_header(src, SERVER_PORT, seq, ack, flags);
    [&header[..], payload].concat()
}

fn churn_rig(cfg: FlowConfig) -> (TcpKvServer, PortHub, Sim, Telemetry) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (server_wire, trunk) = cornflakes::nic::link();
    let hub = PortHub::new(trunk);
    let listener = TcpListener::new(
        sim.clone(),
        server_wire,
        SERVER_PORT,
        SerializationConfig::hybrid(),
        cfg,
    );
    let mut server = TcpKvServer::new(listener);
    let tele = Telemetry::attach(&sim);
    server.set_telemetry(&tele);
    (server, hub, sim, tele)
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

/// Drives `ROUNDS` scheduling quanta of well-behaved KV traffic, with the
/// adversarial trio layered on when `attack` is set. Returns completed
/// request count.
fn run_scenario(attack: bool) -> u64 {
    let cfg = FlowConfig {
        capacity: CAPACITY,
        syn_backlog: 32,
        idle_timeout_ns: 2_000_000,
        ..FlowConfig::default()
    };
    let (mut server, mut hub, sim, tele) = churn_rig(cfg);
    let clock = sim.clock();

    let mut clients: Vec<TcpKvClient> = (0..WELL_BEHAVED as u16)
        .map(|i| connect(&mut server, &mut hub, &sim, 4000 + i))
        .collect();
    // Replies ride an ordered stream but may lag the issue phase by a
    // round, so track outstanding ids as a FIFO per client — including
    // the preload put.
    let mut outstanding: Vec<std::collections::VecDeque<u32>> =
        vec![std::collections::VecDeque::new(); WELL_BEHAVED];
    for (i, c) in clients.iter_mut().enumerate() {
        let id = c
            .put(format!("key-{i}").as_bytes(), &[i as u8; 200])
            .unwrap();
        outstanding[i].push_back(id);
    }

    // Slow-drip readers: raw half-connections that declare a large message
    // and then drip one byte every few rounds, parking bytes in reassembly
    // and keeping the flow just active enough to dodge the idle reaper.
    let drip_ports: Vec<u16> = (0..16u16).map(|i| 5000 + i).collect();
    let mut drip_seq = vec![2u32; drip_ports.len()];
    if attack {
        for (i, &p) in drip_ports.iter().enumerate() {
            hub.inject(raw_frame(p, 1, 0, FLAG_SYN, &[]));
            hub.pump();
            server.poll().unwrap();
            // Handshake ACK carrying a length prefix that promises 60 000
            // bytes the flow will never deliver.
            hub.inject(raw_frame(p, 2, 2, FLAG_ACK, &60_000u32.to_le_bytes()));
            drip_seq[i] = 6;
            hub.pump();
            server.poll().unwrap();
        }
    }

    let mut completed = 0u64;
    let mut flood_port = 30_000u16;
    let mut stampede_port = 20_000u16;

    for round in 0..ROUNDS {
        if attack {
            match round % 3 {
                0 => {
                    // SYN flood: 20 fresh source ports per flood round, for
                    // >2 560 distinct SYNs (10× the 256-slot table) total.
                    for _ in 0..20 {
                        hub.inject(raw_frame(flood_port, 1, 0, FLAG_SYN, &[]));
                        flood_port = flood_port.wrapping_add(1).max(30_000);
                    }
                }
                1 => {
                    // Stampede: full connect + immediate FIN lifecycles.
                    for _ in 0..4 {
                        let p = stampede_port;
                        stampede_port = 20_000 + ((stampede_port - 20_000 + 1) % 96);
                        hub.inject(raw_frame(p, 1, 0, FLAG_SYN, &[]));
                        hub.pump();
                        server.poll().unwrap();
                        hub.inject(raw_frame(p, 2, 2, FLAG_ACK | FLAG_FIN, &[]));
                    }
                }
                _ => {
                    // Drip one more byte on every slow reader.
                    for (i, &p) in drip_ports.iter().enumerate() {
                        hub.inject(raw_frame(p, drip_seq[i], 2, FLAG_ACK, &[0xDD]));
                        drip_seq[i] += 1;
                    }
                }
            }
        }

        for (i, c) in clients.iter_mut().enumerate() {
            if outstanding[i].is_empty() {
                let id = if round % 2 == 0 {
                    c.get(&[format!("key-{i}").as_bytes()]).unwrap()
                } else {
                    c.put(format!("key-{i}").as_bytes(), &[round as u8; 200])
                        .unwrap()
                };
                outstanding[i].push_back(id);
            }
        }
        hub.pump();
        server.poll().unwrap();
        hub.pump();
        for (i, c) in clients.iter_mut().enumerate() {
            c.poll().unwrap();
            while let Some(reply) = c.recv_reply().unwrap() {
                let expected = outstanding[i].pop_front();
                assert_eq!(Some(reply.req_id), expected, "replies arrive in order");
                completed += 1;
            }
        }
        hub.pump();
        server.poll().unwrap();
        clock.advance(TICK_NS);

        // The hard bound, asserted every quantum: the slab never grows.
        let active = tele.gauge_value("net.tcp.flow.active");
        assert!(
            active <= CAPACITY as f64,
            "flow table exceeded capacity: {active} > {CAPACITY}"
        );
        assert!(server.stack.active_flows() <= CAPACITY);
    }

    if attack {
        let stats = server.stack.stats();
        assert!(
            stats.syn_overflow_rsts > 0,
            "the flood must have overflowed the SYN backlog"
        );
        assert!(stats.reaps > 0, "idle flood flows must get reaped");

        // Attack over: keep the well-behaved population chatting while
        // idle timeouts pass — the reaper must evict the flood and drip
        // flows and ONLY those.
        for settle in 0..40 {
            if settle % 4 == 0 {
                for (i, c) in clients.iter_mut().enumerate() {
                    if outstanding[i].is_empty() {
                        let id = c.get(&[format!("key-{i}").as_bytes()]).unwrap();
                        outstanding[i].push_back(id);
                    }
                }
            }
            hub.pump();
            server.poll().unwrap();
            hub.pump();
            for (i, c) in clients.iter_mut().enumerate() {
                c.poll().unwrap();
                while let Some(reply) = c.recv_reply().unwrap() {
                    let expected = outstanding[i].pop_front();
                    assert_eq!(Some(reply.req_id), expected, "replies arrive in order");
                }
            }
            hub.pump();
            server.poll().unwrap();
            clock.advance(TICK_NS);
        }
        assert_eq!(
            server.stack.established_flows(),
            WELL_BEHAVED,
            "only recently-active well-behaved flows survive the reaper"
        );
    }

    // Well-behaved clients hang up; occupancy returns to zero without
    // waiting for any timeout.
    for c in clients.iter_mut() {
        c.stack.close().unwrap();
    }
    hub.pump();
    server.poll().unwrap();
    for _ in 0..40 {
        clock.advance(TICK_NS);
        server.poll().unwrap();
    }
    assert_eq!(server.stack.active_flows(), 0, "all slots returned");
    completed
}

#[test]
fn well_behaved_goodput_survives_the_adversarial_trio() {
    let baseline = run_scenario(false);
    let attacked = run_scenario(true);
    assert!(
        baseline >= ROUNDS as u64, // sanity: the rig actually makes progress
        "baseline goodput implausibly low: {baseline}"
    );
    assert!(
        attacked as f64 >= 0.8 * baseline as f64,
        "well-behaved goodput collapsed under attack: {attacked} vs baseline {baseline}"
    );
}

fn churn_cases() -> u32 {
    std::env::var("CF_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(churn_cases()))]

    /// Seeded-fault churn: connections established cleanly, then faults
    /// drop/duplicate/reorder/delay both directions while clients issue
    /// requests. TCP retransmission must resolve EVERY issued request,
    /// and teardown + reap must return the table and the pool to
    /// baseline.
    #[test]
    fn churned_flows_resolve_and_reap_to_zero_under_faults(
        seed in any::<u64>(),
        drop_bp in 0u32..1500,
        dup_bp in 0u32..1500,
        reorder_bp in 0u32..1500,
        delay_bp in 0u32..1500,
        ops in proptest::collection::vec(any::<bool>(), 6..16),
    ) {
        let flight = FlightRecorder::with_capacity(4096);
        let params = [
            ("drop_bp", drop_bp.to_string()),
            ("dup_bp", dup_bp.to_string()),
            ("reorder_bp", reorder_bp.to_string()),
            ("delay_bp", delay_bp.to_string()),
            ("ops", ops.iter().map(|&p| if p { 'P' } else { 'G' }).collect()),
        ];
        chaos_repro::guard(
            "tcp_churn::churned_flows_resolve_and_reap_to_zero_under_faults",
            seed,
            &params,
            &flight,
            || {
        let cfg = FlowConfig {
            capacity: 16,
            idle_timeout_ns: 50_000_000, // reap only at the very end
            ..FlowConfig::default()
        };
        let (mut server, mut hub, sim, _tele) = churn_rig(cfg);
        server.set_telemetry(&Telemetry::disabled().with_flight(&flight));
        let clock = sim.clock();
        let pool_baseline = server.stack.ctx().pool.live_slots();

        let mut clients: Vec<TcpKvClient> = (0..3u16)
            .map(|i| connect(&mut server, &mut hub, &sim, 4000 + i))
            .collect();

        // Faults on the server's rx direction only come into effect now —
        // handshakes above ran clean, so every client below is a live,
        // accepted connection whose requests MUST resolve.
        let p = |bp: u32| f64::from(bp) / 10_000.0;
        let _requests = server.stack.install_faults(
            FaultPlan::seeded(seed)
                .with_drop(p(drop_bp))
                .with_duplicate(p(dup_bp))
                .with_reorder(p(reorder_bp))
                .with_delay(p(delay_bp), (10_000, 120_000)),
        );
        let injectors: Vec<_> = clients
            .iter()
            .map(|c| {
                c.stack.install_faults(
                    FaultPlan::seeded(seed ^ 0x9E37_79B9_7F4A_7C15)
                        .with_drop(p(drop_bp))
                        .with_duplicate(p(dup_bp))
                        .with_reorder(p(reorder_bp))
                        .with_delay(p(delay_bp), (10_000, 120_000)),
                )
            })
            .collect();

        for (op_idx, &is_put) in ops.iter().enumerate() {
            let ci = op_idx % clients.len();
            let key = format!("key-{ci}");
            let id = if is_put {
                clients[ci].put(key.as_bytes(), &[op_idx as u8; 64]).unwrap()
            } else {
                clients[ci].get(&[key.as_bytes()]).unwrap()
            };
            // Drive to mandatory resolution: the RTOs on both sides must
            // push the request and its reply through any fault pattern.
            let mut resolved = false;
            for _ in 0..200 {
                hub.pump();
                server.poll().unwrap();
                hub.pump();
                clients[ci].poll().unwrap();
                if let Some(reply) = clients[ci].recv_reply().unwrap() {
                    assert_eq!(reply.req_id, id, "reply matches the request");
                    resolved = true;
                    break;
                }
                clock.advance(60_000);
            }
            assert!(resolved, "request {id} on client {ci} never resolved");
        }

        // Lift the faults so teardown is observable, then close and reap.
        drop(injectors);
        for c in clients.iter() {
            c.stack.install_faults(FaultPlan::none());
        }
        server.stack.install_faults(FaultPlan::none());
        for c in clients.iter_mut() {
            c.stack.close().unwrap();
        }
        for _ in 0..400 {
            hub.pump();
            server.poll().unwrap();
            clock.advance(250_000);
        }
        assert_eq!(server.stack.active_flows(), 0, "occupancy reaps to zero");
        // The store legitimately owns the segments of values the puts
        // created; everything else must be back.
        let stored_segments: usize = (0..clients.len())
            .filter_map(|ci| server.store.get(format!("key-{ci}").as_bytes()))
            .map(|v| v.segments.len())
            .sum();
        assert_eq!(
            server.stack.ctx().pool.live_slots(),
            pool_baseline + stored_segments,
            "no leaked pool buffers after churn (beyond store-owned segments)"
        );
            },
        );
    }
}
