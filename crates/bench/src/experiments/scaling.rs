//! Multi-queue scaling: aggregate throughput vs queue count (paper §6.1.1's
//! multi-core serving story on the simulated hardware).
//!
//! A [`cf_kv::sharded::ShardedKvServer`] runs one shard per NIC queue, each
//! shard on its own [`Sim`] (its own core). The client steers every request
//! to the queue owning its key, so shards proceed independently; the run's
//! makespan is the furthest-ahead shard clock, and aggregate throughput is
//! `total requests / makespan`. Zipf-skewed workloads scale sublinearly —
//! the hot shard is the bottleneck — but adding queues must always help:
//! the bottleneck shard's share of the traffic strictly shrinks.
//!
//! The sweep covers YCSB-C (read-only, Zipf 0.99) and the Twitter cache
//! trace (mixed get/put), 1→8 queues, and emits a `scaling.json` artifact
//! with one `{queues, krps, elapsed_ns, requests, per_shard_requests}`
//! point per configuration; the committed `BENCH_scaling.json` is the full
//! preset's, gated by [`RULES`]. Request counts repeat exactly run to run;
//! `elapsed_ns` (and so `krps`) to within 0.03 % (virtual time follows real
//! heap addresses — see `churn`).

use cf_net::UdpStack;
use cf_nic::link;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::json::Value;
use cf_telemetry::Telemetry;
use cornflakes_core::SerializationConfig;

use cf_kv::client::{KvClient, CLIENT_PORT};
use cf_kv::server::SerKind;
use cf_kv::sharded::ShardedKvServer;
use cf_workloads::{key_string, TwitterConfig, TwitterOp, TwitterTrace, Ycsb, YcsbConfig};

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::harness::large_pool;
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// Requests batched per client burst (one server poll per burst): the
/// shape that lets transmit batching coalesce doorbells.
const BURST: u64 = 16;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Queue (= shard) count.
    pub queues: usize,
    /// Requests completed.
    pub requests: u64,
    /// Makespan: the furthest-ahead shard clock at the end of the run.
    pub elapsed_ns: u64,
    /// Aggregate throughput in kilo-requests/s of virtual time.
    pub krps: f64,
    /// Requests handled by each shard (sums to `requests`).
    pub per_shard_requests: Vec<u64>,
}

/// A full sweep for one workload.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// Workload name (`ycsb-c` or `twitter`).
    pub workload: &'static str,
    /// One point per queue count, ascending.
    pub points: Vec<ScalePoint>,
}

/// The two swept workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleWorkload {
    /// YCSB-C: read-only gets, Zipf(0.99) keys, 1 KiB values.
    YcsbC,
    /// Twitter cache trace: size-skewed values, ~8 % puts.
    Twitter,
}

impl ScaleWorkload {
    /// Artifact/table name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleWorkload::YcsbC => "ycsb-c",
            ScaleWorkload::Twitter => "twitter",
        }
    }
}

/// Builds a steered client + sharded server pair with `queues` shards,
/// each a core of its own on `shard_profile`, and the workload's keys
/// preloaded onto their owning shards.
pub fn scaling_fixture(
    shard_profile: &MachineProfile,
    workload: ScaleWorkload,
    queues: usize,
    num_keys: u64,
) -> (KvClient, ShardedKvServer) {
    let sims: Vec<Sim> = (0..queues)
        .map(|_| Sim::new(shard_profile.clone()))
        .collect();
    let (cp, sp) = link();
    let mut server = ShardedKvServer::on_sims(
        sims,
        sp,
        SerKind::Cornflakes,
        SerializationConfig::hybrid(),
        // Each shard holds ~its share of the keys, but the Zipf head
        // concentrates the RX-buffer working set: size every shard's pool
        // for the full keyspace.
        large_pool(),
    );
    server.enable_tx_batch(BURST as usize);
    let client_sim = Sim::new(MachineProfile::cloudlab_c6525());
    let client_stack = UdpStack::with_pool_config(
        client_sim,
        cp,
        CLIENT_PORT,
        SerializationConfig::hybrid(),
        large_pool(),
    );
    let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
    client.enable_steering(&server.rss());
    for id in 0..num_keys {
        let size = match workload {
            ScaleWorkload::YcsbC => 1024,
            ScaleWorkload::Twitter => TwitterTrace::value_size(id),
        };
        server
            .preload(key_string(id).as_bytes(), &[size])
            .expect("pool sized for scaling workload");
    }
    (client, server)
}

/// Runs one (workload, queue count) configuration for `requests` requests;
/// `tele` (if given) is wired through the server for counter crosschecks.
pub fn run_point(
    workload: ScaleWorkload,
    queues: usize,
    num_keys: u64,
    requests: u64,
    tele: Option<&Telemetry>,
) -> ScalePoint {
    let (mut client, mut server) =
        scaling_fixture(&MachineProfile::microbench(), workload, queues, num_keys);
    if let Some(tele) = tele {
        server.set_telemetry(tele);
    }
    let mut ycsb = Ycsb::new(
        YcsbConfig {
            num_keys,
            value_segments: 1,
            segment_size: 1024,
            ..YcsbConfig::default()
        },
        0x5CA1E,
    );
    let mut twitter = TwitterTrace::new(
        TwitterConfig {
            num_keys,
            ..TwitterConfig::default()
        },
        0x5CA1E,
    );
    let put_scratch = vec![0xB0u8; 8192];
    let mut sent = 0u64;
    while sent < requests {
        let burst = BURST.min(requests - sent);
        for _ in 0..burst {
            match workload {
                ScaleWorkload::YcsbC => {
                    let key = key_string(ycsb.next_key());
                    client.send_get(&[key.as_bytes()]);
                }
                ScaleWorkload::Twitter => match twitter.next() {
                    TwitterOp::Get { key } => {
                        let k = key_string(key);
                        client.send_get(&[k.as_bytes()]);
                    }
                    TwitterOp::Put { key, size } => {
                        let k = key_string(key);
                        client.send_put(k.as_bytes(), &put_scratch[..size]);
                    }
                },
            }
            sent += 1;
        }
        server.poll();
        while client.recv_response().is_some() {}
    }
    let elapsed_ns = server.max_clock_ns().max(1);
    let per_shard_requests: Vec<u64> = server
        .shards()
        .iter()
        .map(|s| s.requests_handled())
        .collect();
    ScalePoint {
        queues,
        requests: server.total_requests(),
        elapsed_ns,
        krps: server.total_requests() as f64 / elapsed_ns as f64 * 1e6,
        per_shard_requests,
    }
}

/// Sweeps `queue_counts` for one workload.
pub fn sweep(
    workload: ScaleWorkload,
    queue_counts: &[usize],
    num_keys: u64,
    requests: u64,
) -> ScalingResult {
    ScalingResult {
        workload: workload.name(),
        points: queue_counts
            .iter()
            .map(|&q| run_point(workload, q, num_keys, requests, None))
            .collect(),
    }
}

/// Runs the full scaling sweep (1→8 queues, both workloads), prints the
/// table, and writes the `scaling.json` artifact.
pub fn run(num_keys: u64, requests: u64) -> Value {
    let queue_counts = [1usize, 2, 4, 8];
    let point = |p: &ScalePoint| {
        Value::obj([
            ("queues", int(p.queues as u64)),
            ("krps", fixed(p.krps, 3)),
            ("elapsed_ns", int(p.elapsed_ns)),
            ("requests", int(p.requests)),
            (
                "per_shard_requests",
                list(&p.per_shard_requests, |&n| int(n)),
            ),
        ])
    };
    let workloads = [ScaleWorkload::YcsbC, ScaleWorkload::Twitter].map(|w| {
        let r = sweep(w, &queue_counts, num_keys, requests);
        Value::obj([
            ("workload", text(r.workload)),
            ("points", list(&r.points, point)),
        ])
    });
    let tree = Value::obj([
        ("experiment", text("scaling")),
        (
            "params",
            Value::obj([("num_keys", int(num_keys)), ("requests", int(requests))]),
        ),
        ("workloads", Value::Arr(workloads.into())),
    ]);
    print_rows(
        "Scaling: aggregate throughput vs queue count (sharded KV)",
        &tree,
        "workloads[workload].points[queues]",
        &["krps", "elapsed_ns", "per_shard_requests"],
    );
    write_artifact("scaling.json", &tree.render());
    tree
}

/// What `BENCH_scaling.json` is held to (see [`crate::ratchet`]; spreads are
/// five full-preset runs, EXPERIMENTS.md "Artifacts and ratchet").
pub const RULES: &[Rule] = &[
    // Spread at most 0.03 %.
    Rule(
        "workloads[workload].points[queues].krps",
        Gate::Higher(0.03),
    ),
    // Fixed by the driver and the key-to-shard hash: exact.
    Rule("workloads[workload].points[queues].requests", Gate::Same),
    Rule(
        "workloads[workload].points[queues].per_shard_requests",
        Gate::Same,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::select;

    #[test]
    fn throughput_scales_monotonically_on_ycsb() {
        let r = sweep(ScaleWorkload::YcsbC, &[1, 2, 4], 2048, 3_000);
        let krps: Vec<f64> = r.points.iter().map(|p| p.krps).collect();
        assert!(
            krps[0] < krps[1] && krps[1] < krps[2],
            "aggregate throughput must grow 1→2→4 queues: {krps:?}"
        );
        // Per-shard counters sum to the aggregate (within 1%; exact here).
        for p in &r.points {
            let sum: u64 = p.per_shard_requests.iter().sum();
            assert_eq!(sum, p.requests, "{} queues", p.queues);
        }
    }

    #[test]
    fn per_queue_telemetry_sums_to_aggregate() {
        let probe = Sim::new(MachineProfile::microbench());
        let tele = Telemetry::attach(&probe);
        let p = run_point(ScaleWorkload::YcsbC, 4, 1024, 1_500, Some(&tele));
        assert_eq!(p.requests, 1_500);
        let shard_total: u64 = (0..4)
            .map(|q| tele.counter_value(&format!("kv.shard{q}.requests")))
            .sum();
        assert_eq!(shard_total, tele_total(&tele, "kv.shard", ".requests", 4));
        assert_eq!(shard_total, p.requests);
        let qframes: u64 = (0..4)
            .map(|q| tele.counter_value(&format!("nic.q{q}.tx_frames")))
            .sum();
        let aggregate = tele.counter_value("nic.tx_frames");
        assert_eq!(qframes, aggregate, "per-queue NIC counters sum to nic.*");
        assert!(aggregate >= p.requests, "every request got a reply frame");
    }

    fn tele_total(tele: &Telemetry, prefix: &str, suffix: &str, n: usize) -> u64 {
        (0..n)
            .map(|q| tele.counter_value(&format!("{prefix}{q}{suffix}")))
            .sum()
    }

    #[test]
    fn shard_clocks_attribute_only_their_own_queue() {
        let (mut client, mut server) =
            scaling_fixture(&MachineProfile::microbench(), ScaleWorkload::YcsbC, 3, 512);
        let mut ycsb = Ycsb::new(
            YcsbConfig {
                num_keys: 512,
                value_segments: 1,
                segment_size: 1024,
                ..YcsbConfig::default()
            },
            7,
        );
        let mut sent = 0;
        while sent < 128 {
            let key = key_string(ycsb.next_key());
            if server.shard_of(key.as_bytes()) == 0 {
                client.send_get(&[key.as_bytes()]);
                sent += 1;
            }
        }
        // Preloading charged every shard's core; count the poll alone.
        for sim in server.sims() {
            sim.with_core(|c| c.attribution.reset());
        }
        assert_eq!(server.poll(), 128);
        for (q, sim) in server.sims().iter().enumerate() {
            let ns = sim.attribution().total();
            if q == 0 {
                assert!(ns > 0.0, "shard 0 did the work on its own core");
            } else {
                assert_eq!(ns, 0.0, "shard {q} was charged for shard 0's queue");
            }
        }
    }

    #[test]
    fn artifact_records_its_parameters_and_gates_itself() {
        let tree = run(256, 400);
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let params = tree.get("params").expect("params");
        assert_eq!(params.get("requests"), Some(&int(400)));
        let twitter_at_2 = select(
            &tree,
            "workloads[workload].points[queues].per_shard_requests",
        )
        .into_iter()
        .find(|(row, _)| row == "workloads[twitter].points[2].")
        .and_then(|(_, v)| v.and_then(Value::as_arr));
        let per_shard: Vec<u64> = twitter_at_2
            .expect("the row exists")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard.iter().sum::<u64>(), 400);
    }
}
