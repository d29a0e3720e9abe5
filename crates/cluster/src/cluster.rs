//! The assembled cluster: N nodes and their clients on one simulated
//! switch, with kill/partition primitives for fault-driven tests.
//!
//! Everything in one cluster — every node's shards and every client —
//! runs on clones of a single [`Sim`], chaos-test style: one virtual
//! clock, so probe timeouts, retransmit deadlines, and fault-plan
//! windows are all measured on the same axis. Hosts attach to a
//! [`SimSwitch`] in id order (nodes first, so node ids equal host ids),
//! and [`Cluster::poll`] pumps the switch between node polls enough
//! times for the longest protocol chain (client put → replicate → ack →
//! client ack: four hops) to make progress every call.

use cf_kv::client::{KvClient, CLIENT_PORT};
use cf_kv::server::SerKind;
use cf_mem::PoolConfig;
use cf_net::UdpStack;
use cf_nic::{FaultInjector, FaultPlan, SimSwitch};
use cf_sim::Sim;
use cf_telemetry::Telemetry;
use cornflakes_core::SerializationConfig;

use crate::client::ClusterClient;
use crate::map::ClusterMap;
use crate::node::ClusterNode;

/// Shards (NIC queues) per node.
const SHARDS_PER_NODE: usize = 2;

/// Cluster shape and tuning. Every node runs two shards and every stack the
/// hybrid serializer ([`SerKind::Cornflakes`] with
/// [`SerializationConfig::hybrid`]).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (hosts `0..nodes` on the switch).
    pub nodes: usize,
    /// Replication factor R: a put goes to the key's R replicas and is
    /// acked once a majority of them, ⌈(R+1)/2⌉, holds it.
    pub replication: usize,
    /// Pinned-pool sizing per stack.
    pub pool: PoolConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            replication: 3,
            pool: PoolConfig::default(),
        }
    }
}

/// A running cluster. See the module docs for the execution model.
pub struct Cluster {
    sim: Sim,
    switch: SimSwitch,
    /// The nodes, indexed by node id (= switch host id).
    pub nodes: Vec<ClusterNode>,
    map: ClusterMap,
    cfg: ClusterConfig,
}

impl Cluster {
    /// Builds `cfg.nodes` nodes on a fresh switch, all clocked by `sim`.
    pub fn new(sim: Sim, cfg: ClusterConfig) -> Self {
        let map = ClusterMap::new(cfg.nodes);
        let mut switch = SimSwitch::new();
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for id in 0..cfg.nodes {
            let (host, port) = switch.attach();
            assert_eq!(host as usize, id, "nodes attach first, in id order");
            let sims = vec![sim.clone(); SHARDS_PER_NODE];
            let server = cf_kv::sharded::ShardedKvServer::on_sims(sims, port, cfg.pool.clone());
            nodes.push(ClusterNode::new(host, server, map.clone(), cfg.replication));
        }
        Cluster {
            sim,
            switch,
            nodes,
            map,
            cfg,
        }
    }

    /// Attaches a new client host to the switch, steered by the nodes'
    /// (identical) RSS profile. Retries are not enabled — callers pick a
    /// policy via [`ClusterClient::enable_retries_seeded`].
    pub fn client(&mut self) -> ClusterClient {
        let (host, port) = self.switch.attach();
        let mut stack = UdpStack::with_pool_config(
            self.sim.clone(),
            port,
            CLIENT_PORT,
            SerializationConfig::hybrid(),
            self.cfg.pool.clone(),
        );
        stack.set_local_host(host);
        let mut kv = KvClient::new(stack, SerKind::Cornflakes);
        kv.enable_steering(&self.nodes[0].server.rss());
        ClusterClient::new(
            kv,
            host,
            self.sim.clone(),
            self.map.clone(),
            self.cfg.replication,
        )
    }

    /// The shared placement map.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.cfg.replication
    }

    /// The wire switch (for fault plans on uplinks and drop stats).
    pub fn switch(&mut self) -> &mut SimSwitch {
        &mut self.switch
    }

    /// Drives the cluster one round: four switch-pump + node-poll passes,
    /// enough for a full put → replicate → ack → client-ack chain queued
    /// at the start of the round to complete by its end. Returns packets
    /// processed by nodes.
    pub fn poll(&mut self) -> usize {
        let mut n = 0;
        for _ in 0..4 {
            self.switch.pump();
            for node in &mut self.nodes {
                n += node.poll();
            }
        }
        // Final pump so node output emitted in the last pass reaches
        // client uplinks before the caller's recv.
        self.switch.pump();
        n
    }

    /// Kills a node: the switch drops everything from or to it. The node
    /// object survives (stores intact) for later [`Cluster::revive`].
    pub fn kill(&mut self, node: u8) {
        self.switch.kill(node);
    }

    /// Revives a killed node. Peers mark it back up when its probes (or
    /// probe acks) start flowing again, which triggers catch-up replay.
    pub fn revive(&mut self, node: u8) {
        self.switch.revive(node);
    }

    /// Whether the switch still forwards for `node`.
    pub fn is_alive(&self, node: u8) -> bool {
        self.switch.is_alive(node)
    }

    /// Partitions two hosts from each other (both directions).
    pub fn partition(&mut self, a: u8, b: u8) {
        self.switch.partition(a, b);
    }

    /// Heals one partition.
    pub fn heal(&mut self, a: u8, b: u8) {
        self.switch.heal(a, b);
    }

    /// Preloads `key` on every one of its replicas.
    #[allow(
        clippy::expect_used,
        reason = "a test and bench helper: the caller sizes the pool for what it preloads"
    )]
    pub fn preload(&mut self, key: &[u8], segment_sizes: &[usize]) {
        for node in self.map.replicas_for(key, self.cfg.replication) {
            self.nodes[node as usize]
                .server
                .preload(key, segment_sizes)
                .expect("preload fits the pool");
        }
    }

    /// Installs a fault plan on the wire into `node` (frames arriving at
    /// its NIC), as the single-node chaos tests do.
    pub fn install_faults_at(&mut self, node: u8, plan: FaultPlan) -> FaultInjector {
        self.nodes[node as usize].server.install_faults(plan)
    }

    /// Attaches `tele` to everything the cluster owns: the switch
    /// (`cluster.switch.*`), every node's protocol cells
    /// (`cluster.node<N>.*`) and every node's whole server — protocol
    /// events and the full per-shard pipeline join `tele`'s flight
    /// recorder. All nodes share the `kv.shardN.*` / `nic.*` names, so
    /// under this one handle those read the sum over nodes; to tell nodes
    /// apart, attach `nodes[n].server` to a handle of its own.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.switch.set_telemetry(tele);
        for node in &mut self.nodes {
            node.attach_telemetry(tele);
        }
    }

    /// Puts applied across the whole cluster (sum of per-node counts;
    /// with replication factor R, one client put applies R times).
    pub fn total_puts_applied(&self) -> u64 {
        self.nodes.iter().map(|n| n.server.puts_applied()).sum()
    }

    /// The shared virtual clock.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("replication", &self.cfg.replication)
            .finish()
    }
}
