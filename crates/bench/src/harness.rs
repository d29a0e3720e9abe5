//! The one rig every experiment is measured with (§6.1): a fixture per
//! machine shape, a closed-loop capacity probe per shape, and a [`curve`] of
//! Poisson open-loop points laid out on a ladder below that capacity.
//!
//! A single-machine fixture contributes only its one-request function —
//! send a request, let the server poll, return the reply's payload size —
//! and [`capacity`] drives it; [`KvBench::request`] is the KV store's,
//! `fig02::EchoBench` and `fig08::RedisBench` bring their own. The sharded
//! fixture ([`sharded`]: a steered client, one shard per NIC queue) is
//! driven in bursts by [`saturate`]. Every wire floor is the machine
//! profile's (`CostModel::one_way_wire_ns`, through [`OpenLoopSim::new`]).

use cf_mem::PoolConfig;
use cf_net::UdpStack;
use cf_nic::link;
use cf_sim::queueing::{load_ladder, LoadPoint, OpenLoopSim};
use cf_sim::{MachineProfile, Sim};
use cornflakes_core::{SerCtx, SerializationConfig};

use cf_kv::client::{client_server_pair, KvClient, CLIENT_PORT};
use cf_kv::server::{KvServer, SerKind};
use cf_kv::sharded::ShardedKvServer;
use cf_kv::store::KvStore;
use cf_workloads::key_string;

/// A benchmark fixture: one simulated server machine plus a client on its
/// own machine, connected by a wire.
pub struct KvBench {
    /// The server machine's simulation (clock = service time source).
    pub server_sim: Sim,
    /// The load-generating client.
    pub client: KvClient,
    /// The server under test.
    pub server: KvServer,
}

/// A pool sized for the large-working-set experiments.
pub fn large_pool() -> PoolConfig {
    PoolConfig {
        min_class: 64,
        max_class: 16 * 1024,
        slots_per_region: 4096,
        max_regions_per_class: 1024,
    }
}

impl KvBench {
    /// A `kind` server with `config` on a machine of `profile`.
    pub fn new(profile: MachineProfile, kind: SerKind, config: SerializationConfig) -> Self {
        let server_sim = Sim::new(profile);
        let (client, server) = client_server_pair(server_sim.clone(), kind, config, large_pool());
        KvBench {
            server_sim,
            client,
            server,
        }
    }

    /// Stores keys `0..n` (see [`preload`]).
    pub fn preload(&mut self, n: u64, sizes_of: impl Fn(u64) -> Vec<usize>) {
        preload(&mut self.server.store, self.server.stack.ctx(), n, sizes_of);
    }

    /// One round trip: `send` puts a request on the wire (returning its
    /// id), the server polls once, and the reply's payload size comes back
    /// (0 without a reply).
    pub fn request(&mut self, send: impl FnOnce(&mut KvClient) -> u32) -> u64 {
        send(&mut self.client);
        self.server.poll();
        self.client
            .recv_response()
            .map_or(0, |r| r.payload_bytes as u64)
    }
}

/// Stores keys `0..n` in `store`, key `id` holding `sizes_of(id)` segments
/// (uncharged, so a fixture starts at virtual time 0 with a cold cache).
pub fn preload(store: &mut KvStore, ctx: &SerCtx, n: u64, sizes_of: impl Fn(u64) -> Vec<usize>) {
    for id in 0..n {
        store
            .preload(ctx, key_string(id).as_bytes(), &sizes_of(id))
            .expect("grow large_pool for this experiment");
    }
}

/// The server's capacity (requests/s and payload Gbps) at closed-loop
/// saturation — the paper's "highest achieved throughput across all offered
/// loads". Resets `sim`, runs `warmup` requests unmeasured, then `requests`
/// back to back; `request(seq)` is one round trip returning the reply's
/// payload bytes, and `seq` counts from 0 through the warmup.
pub fn capacity(
    sim: &Sim,
    requests: u64,
    warmup: u64,
    request: impl FnMut(u64) -> u64,
) -> LoadPoint {
    sim.reset();
    OpenLoopSim::new(sim, warmup).run_saturated(requests, request)
}

/// Requests per client burst on the sharded fixture (one server poll per
/// burst): the shape that lets transmit batching coalesce doorbells.
pub const BURST: u64 = 16;

/// The sharded fixture: a client steering every request to the queue that
/// owns its key, and a Cornflakes server with `queues` shards, each a core
/// of its own on `shard_profile`, holding keys `0..n` (key `id` one value
/// of `size_of(id)` bytes) on their owning shards.
pub fn sharded(
    shard_profile: &MachineProfile,
    queues: usize,
    n: u64,
    size_of: impl Fn(u64) -> usize,
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
        // Each shard holds ~its share of the keys, but a Zipf head
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
    for id in 0..n {
        server
            .preload(key_string(id).as_bytes(), &[size_of(id)])
            .expect("grow large_pool for this experiment");
    }
    (client, server)
}

/// The sharded fixture's closed loop: `requests` requests, each put on the
/// wire by `send`, in bursts of [`BURST`] with one server poll per burst and
/// every reply drained. Returns the makespan, the furthest-ahead shard
/// clock (at least 1 ns): throughput is served requests over it.
pub fn saturate(
    client: &mut KvClient,
    server: &mut ShardedKvServer,
    requests: u64,
    mut send: impl FnMut(&mut KvClient),
) -> u64 {
    let mut sent = 0u64;
    while sent < requests {
        let burst = BURST.min(requests - sent);
        for _ in 0..burst {
            send(client);
        }
        sent += burst;
        server.poll();
        while client.recv_response().is_some() {}
    }
    server.max_clock_ns().max(1)
}

/// The element at quantile `q` of `sorted`, the one at index
/// `round((n − 1)·q)`; `None` when it is empty. Every quantile an
/// extension bench reports from its own samples is picked here.
pub fn quantile<T>(sorted: &[T], q: f64) -> Option<&T> {
    let last = sorted.len().checked_sub(1)?;
    sorted.get((last as f64 * q).round() as usize)
}

/// How a figure offers load: probe [`capacity`], then `steps` Poisson
/// loads geometric from `lo` to `hi` times it.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Seed of the arrival process.
    pub seed: u64,
    /// Requests run unmeasured before the probe and before every point.
    pub warmup: u64,
    /// Closed-loop requests in the capacity probe.
    pub probe: u64,
    /// Lowest offered load, as a fraction of capacity.
    pub lo: f64,
    /// Highest offered load, as a fraction of capacity.
    pub hi: f64,
    /// Number of offered loads.
    pub steps: usize,
    /// Measurement window of each point, in virtual ns.
    pub duration_ns: u64,
}

/// A throughput-latency curve: the capacity it was laid out from and one
/// open-loop point per offered load.
#[derive(Clone, Debug)]
pub struct Curve {
    /// The closed-loop probe.
    pub capacity: LoadPoint,
    /// One point per offered load, lowest first.
    pub points: Vec<LoadPoint>,
}

impl Curve {
    /// Highest achieved request rate across the offered loads.
    pub fn max_achieved_rps(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.achieved_rps)
            .fold(0.0, f64::max)
    }

    /// Highest achieved rate among stable points whose p99 round-trip
    /// latency meets `slo_ns` (the paper's "throughput at a p99 SLO").
    pub fn rps_at_p99_slo(&self, slo_ns: u64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.is_stable() && p.p99_ns() <= slo_ns)
            .map(|p| p.achieved_rps)
            .fold(0.0, f64::max)
    }
}

/// Measures `load`'s curve: the capacity probe, then each offered load on a
/// reset machine (clock, cache, attribution; the store persists and the
/// warmup re-warms the cache). `request` is one round trip, as for
/// [`capacity`]; whatever request stream it draws from continues across
/// the probe and the points, so one seed replays one stream.
pub fn curve(sim: &Sim, load: &Load, mut request: impl FnMut(u64) -> u64) -> Curve {
    let capacity = capacity(sim, load.probe, load.warmup, &mut request);
    let cap = capacity.achieved_rps;
    let open_loop = OpenLoopSim::new(sim, load.warmup);
    let points = load_ladder(cap * load.lo, cap * load.hi, load.steps)
        .into_iter()
        .map(|rps| {
            sim.reset();
            open_loop.run(load.seed, rps, load.duration_ns, &mut request)
        })
        .collect();
    Curve { capacity, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(kind: SerKind, keys: u64, size: usize) -> KvBench {
        let mut b = KvBench::new(
            MachineProfile::cloudlab_c6525(),
            kind,
            SerializationConfig::hybrid(),
        );
        b.preload(keys, |_| vec![size]);
        b
    }

    #[test]
    fn fixture_serves_constant_workload() {
        let mut b = bench(SerKind::Cornflakes, 16, 1024);
        let sim = b.server_sim.clone();
        let point = capacity(&sim, 200, 20, |seq| {
            let key = key_string(seq % 16);
            b.request(|client| client.send_get(&[key.as_bytes()]))
        });
        assert_eq!(point.completed, 200);
        assert!(point.achieved_rps > 0.0);
        assert!(point.payload_bytes > 200 * 1024);
    }

    #[test]
    fn sweep_respects_capacity() {
        let mut b = bench(SerKind::Protobuf, 8, 512);
        let sim = b.server_sim.clone();
        let load = Load {
            seed: 0xBEEF,
            warmup: 30,
            probe: 300,
            lo: 0.5,
            hi: 3.0,
            steps: 2,
            duration_ns: 2_000_000,
        };
        let result = curve(&sim, &load, |seq| {
            let key = key_string(seq % 8);
            b.request(|client| client.send_get(&[key.as_bytes()]))
        });
        assert!(result.points[0].is_stable());
        assert!(!result.points[1].is_stable());
    }

    #[test]
    fn quantile_picks_the_rounded_rank() {
        assert_eq!(quantile::<u64>(&[], 0.5), None);
        let ranks: Vec<u64> = (0..101).collect();
        assert_eq!(quantile(&ranks, 0.5), Some(&50));
        assert_eq!(quantile(&ranks, 0.999), Some(&100));
        // Churn records one RTT per 256-flow batch, so its sorted samples
        // come in runs of 256: at each of its sweep sizes the rounded rank
        // and the nearest rank ⌈0.99·n⌉ − 1 it once used land in one run.
        for n in [1_024, 4_096, 16_384, 65_536] {
            let batches: Vec<usize> = (0..n).map(|i| i / 256).collect();
            let nearest = batches[(n * 99).div_ceil(100) - 1];
            assert_eq!(quantile(&batches, 0.99), Some(&nearest), "{n} flows");
        }
    }

    #[test]
    fn curve_selects_throughput_at_the_slo() {
        // 1 µs fixed service: capacity 1 Mrps.
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let clock = sim.clock();
        let load = Load {
            seed: 7,
            warmup: 10,
            probe: 1_000,
            lo: 0.1,
            hi: 0.95,
            steps: 5,
            duration_ns: 20_000_000,
        };
        let result = curve(&sim, &load, |_| {
            clock.advance(1_000);
            100
        });
        assert_eq!(result.points.len(), 5);
        let max = result.max_achieved_rps();
        assert!(max > 900_000.0, "{max}");
        // A generous SLO admits the highest stable load; a tight one only
        // admits light loads.
        let at_loose = result.rps_at_p99_slo(1_000_000);
        let at_tight = result.rps_at_p99_slo(12_500);
        assert!(at_loose >= at_tight);
        assert!(at_tight > 0.0);
    }
}
