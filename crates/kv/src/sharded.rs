//! The sharded key-value server: one shard per NIC queue.
//!
//! The paper's servers scale by running one datapath thread per core, each
//! owning one NIC queue pair, with RSS steering requests to the core that
//! owns the flow. This module reproduces that shape on the simulated
//! hardware: a [`ShardedKvServer`] owns one multi-queue [`Nic`] on one wire
//! port and runs an independent [`KvServer`] — store, serializer context,
//! UDP stack, telemetry scope — per queue, each charging its costs to its
//! own [`Sim`] (its own core).
//!
//! Every shard runs the paper's one sharded configuration (§6, Fig. 13):
//! Cornflakes with the default 512 B hybrid threshold
//! ([`SerializationConfig::hybrid`]). Transmit batching, when on, flushes
//! at [`cf_net::udp::TX_BATCH`] replies.
//!
//! **Sharding invariant**: a key lives on exactly one shard,
//! [`shard_of_key`], and the client steers each request's flow (via its
//! source port and the published RSS hash — see
//! [`crate::client::KvClient::enable_steering`]) to the queue of the shard
//! that owns its first key. A request never crosses shards, so shards never
//! synchronize.

use std::cell::RefCell;
use std::rc::Rc;

use cf_mem::PoolConfig;
use cf_net::UdpStack;
use cf_nic::{FaultInjector, FaultPlan, Nic, Port, RssConfig};
use cf_sim::Sim;
use cf_telemetry::Telemetry;
use cornflakes_core::SerializationConfig;

use crate::client::{CLIENT_PORT, SERVER_PORT};
use crate::overload::AdmissionConfig;
use crate::server::{KvServer, SerKind};
use crate::store;

/// The shard owning `key` among `shards` shards: the store's key hash mod
/// the shard count. Deterministic across processes and queue counts, so
/// clients, servers, and tests all agree on placement.
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    (store::fnv1a(key) % shards as u64) as usize
}

/// One client source port per queue of `rss`: entry `q` is the first port
/// from [`CLIENT_PORT`] up whose flow to [`SERVER_PORT`] RSS-steers to
/// queue `q`. Clients send each request from the port of the shard owning
/// its first key; cluster nodes forward to peers the same way (one RSS
/// configuration cluster-wide, so one table serves every peer).
pub fn steering_ports(rss: &RssConfig) -> Vec<u16> {
    (0..rss.num_queues())
        .map(|q| {
            (CLIENT_PORT..u16::MAX)
                .find(|&p| rss.queue_for_flow(p, SERVER_PORT) == q)
                .expect("a steering source port exists for every queue")
        })
        .collect()
}

/// A multi-queue KV server: one [`KvServer`] shard per NIC queue, sharing
/// one wire port through one RSS-steering [`Nic`].
pub struct ShardedKvServer {
    nic: Rc<RefCell<Nic>>,
    shards: Vec<KvServer>,
    sims: Vec<Sim>,
}

impl ShardedKvServer {
    /// Creates a Cornflakes server (hybrid threshold) with one shard per
    /// entry of `sims`, shard `q` serving NIC queue `q` and charging its
    /// costs to `sims[q]`.
    ///
    /// Scaling experiments pass one independent `Sim` per shard (one
    /// virtual core each); chaos tests pass clones of a single `Sim` to
    /// serialize every shard onto one clock.
    pub fn on_sims(sims: Vec<Sim>, wire_port: Port, pool_cfg: PoolConfig) -> Self {
        assert!(!sims.is_empty(), "at least one shard");
        let nic = Rc::new(RefCell::new(Nic::with_queues(
            sims[0].clone(),
            wire_port,
            sims.len(),
        )));
        let shards = sims
            .iter()
            .enumerate()
            .map(|(q, sim)| {
                let stack = UdpStack::on_queue(
                    sim.clone(),
                    Rc::clone(&nic),
                    q,
                    SERVER_PORT,
                    SerializationConfig::hybrid(),
                    pool_cfg.clone(),
                );
                let mut shard = KvServer::new(stack, SerKind::Cornflakes);
                shard.scope = format!("shard{q}");
                shard
            })
            .collect();
        ShardedKvServer { nic, shards, sims }
    }

    /// Number of shards (= NIC queues).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The NIC's RSS steering profile — hand this to
    /// [`crate::client::KvClient::enable_steering`].
    pub fn rss(&self) -> RssConfig {
        self.nic.borrow().rss().clone()
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// The shards, indexed by queue.
    pub fn shards(&self) -> &[KvServer] {
        &self.shards
    }

    /// Mutable access to the shards.
    pub fn shards_mut(&mut self) -> &mut [KvServer] {
        &mut self.shards
    }

    /// The per-shard simulation handles.
    pub fn sims(&self) -> &[Sim] {
        &self.sims
    }

    /// The shared multi-queue NIC.
    pub fn nic(&self) -> Rc<RefCell<Nic>> {
        Rc::clone(&self.nic)
    }

    /// Attaches `tele` to every shard — each counts as `kv.shardN.*` and
    /// stamps its flight events with its own clocks — and through them to
    /// the shared NIC, whose `nic.*` / `nic.qN.*` cells are adopted once
    /// (the queues are shared hardware, not per-shard state).
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        for shard in &mut self.shards {
            shard.set_telemetry(tele);
        }
    }

    /// Enables transmit batching on every shard: replies accumulate up to
    /// [`cf_net::udp::TX_BATCH`] descriptors and post as one doorbell per
    /// poll (see [`UdpStack::enable_tx_batch`]).
    pub fn enable_tx_batch(&mut self) {
        for shard in &mut self.shards {
            shard.stack.enable_tx_batch();
        }
    }

    /// Preloads a deterministic value (see
    /// [`crate::store::KvStore::preload`]) on the shard owning `key`.
    pub fn preload(
        &mut self,
        key: &[u8],
        segment_sizes: &[usize],
    ) -> Result<(), cf_mem::AllocError> {
        let q = self.shard_of(key);
        let s = &mut self.shards[q];
        s.store.preload(s.stack.ctx(), key, segment_sizes)
    }

    /// Polls every shard (each drains only its own queue), flushing any
    /// batched replies. Returns the total requests handled this round.
    pub fn poll(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.poll()).sum()
    }

    /// Enables admission control on every shard (see
    /// [`KvServer::enable_admission`]): each shard gets its own bounded
    /// backlog, CoDel shedder, and bounded NIC rx staging ring.
    pub fn enable_admission(&mut self, cfg: AdmissionConfig) {
        for shard in &mut self.shards {
            shard.enable_admission(cfg);
        }
    }

    /// Horizon-bounded poll across shards: each shard takes arrivals at the
    /// arrival clock `now_ns` and serves while its own service clock is
    /// before `horizon_ns`, through its admission layer when enabled (see
    /// [`KvServer::poll_until`]). Returns the total requests served.
    pub fn poll_until(&mut self, now_ns: u64, horizon_ns: u64) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.poll_until(now_ns, horizon_ns))
            .sum()
    }

    /// Arms deterministic fault injection on the server's receive
    /// direction. Faults hit the shared wire before RSS steering, so every
    /// shard sees its proportional share of the chaos.
    pub fn install_faults(&self, plan: FaultPlan) -> FaultInjector {
        let port = self.nic.borrow().port().clone();
        port.install_faults(self.sims[0].clock(), plan)
    }

    /// Total requests handled across shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests_handled()).sum()
    }

    /// Total puts applied exactly once across shards.
    pub fn puts_applied(&self) -> u64 {
        self.shards.iter().map(|s| s.puts_applied()).sum()
    }

    /// Total retried puts absorbed by dedup windows across shards.
    pub fn dedup_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.dedup_hits()).sum()
    }

    /// Total degraded replies across shards.
    pub fn degraded_replies(&self) -> u64 {
        self.shards.iter().map(|s| s.degraded_replies()).sum()
    }

    /// Total requests shed by admission control across shards.
    pub fn shed_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.shed_drops()).sum()
    }

    /// Total pending requests queued by admission layers across shards.
    pub fn backlog_len(&self) -> usize {
        self.shards.iter().map(|s| s.backlog_len()).sum()
    }

    /// Total frames tail-dropped by the bounded NIC rx staging rings.
    pub fn rx_backlog_drops(&self) -> u64 {
        self.nic.borrow().stats().rx_backlog_drops
    }

    /// The furthest-ahead shard clock, in virtual nanoseconds: with one
    /// `Sim` per shard (parallel cores), the makespan of the run.
    pub fn max_clock_ns(&self) -> u64 {
        self.sims.iter().map(Sim::now).max().unwrap_or(0)
    }
}

impl std::fmt::Debug for ShardedKvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvServer")
            .field("shards", &self.shards.len())
            .field("nic", &self.nic.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{KvClient, CLIENT_PORT};
    use crate::msg_type;
    use cf_nic::link;
    use cf_sim::MachineProfile;

    fn sharded_pair(queues: usize) -> (KvClient, ShardedKvServer) {
        let (cp, sp) = link();
        let sims: Vec<Sim> = (0..queues)
            .map(|_| Sim::new(MachineProfile::cloudlab_c6525()))
            .collect();
        let mut server = ShardedKvServer::on_sims(sims, sp, PoolConfig::default());
        let client_sim = Sim::new(MachineProfile::cloudlab_c6525());
        let client_stack =
            UdpStack::new(client_sim, cp, CLIENT_PORT, SerializationConfig::hybrid());
        let mut client = KvClient::new(client_stack, SerKind::Cornflakes);
        client.enable_steering(&server.rss());
        for k in 0..32u32 {
            let key = format!("key{k:04}");
            server.preload(key.as_bytes(), &[256]).unwrap();
        }
        (client, server)
    }

    #[test]
    fn steered_gets_land_on_owning_shard_and_round_trip() {
        let (mut client, mut server) = sharded_pair(4);
        for k in 0..32u32 {
            let key = format!("key{k:04}");
            client.send_get(&[key.as_bytes()]);
        }
        assert_eq!(server.poll(), 32);
        // Every shard that owns keys handled exactly its keys.
        let mut expected = [0u64; 4];
        for k in 0..32u32 {
            let key = format!("key{k:04}");
            expected[server.shard_of(key.as_bytes())] += 1;
        }
        for (q, shard) in server.shards().iter().enumerate() {
            assert_eq!(
                shard.requests_handled(),
                expected[q],
                "shard {q} handled exactly the keys it owns"
            );
        }
        // All replies decode with the preloaded fill.
        let mut got = 0;
        while let Some(resp) = client.recv_response() {
            assert_eq!(resp.vals.len(), 1);
            got += 1;
        }
        assert_eq!(got, 32);
    }

    #[test]
    fn puts_route_to_owner_and_are_readable() {
        let (mut client, mut server) = sharded_pair(3);
        client.send_put(b"fresh-key", b"fresh-value");
        server.poll();
        client.recv_response().expect("put ack");
        let q = server.shard_of(b"fresh-key");
        for (i, shard) in server.shards().iter().enumerate() {
            let expect = u64::from(i == q);
            assert_eq!(shard.puts_applied(), expect, "shard {i}");
        }
        client.send_get(&[b"fresh-key".as_slice()]);
        server.poll();
        let resp = client.recv_response().expect("get reply");
        assert_eq!(resp.vals, vec![b"fresh-value".to_vec()]);
    }

    #[test]
    fn single_shard_server_behaves_like_plain_server() {
        let (mut client, mut server) = sharded_pair(1);
        client.send_get(&[b"key0000".as_slice()]);
        assert_eq!(server.poll(), 1);
        let resp = client.recv_response().expect("reply");
        assert_eq!(resp.vals.len(), 1);
        assert_eq!(server.total_requests(), 1);
    }

    #[test]
    fn tx_batching_coalesces_doorbells() {
        let (mut client, mut server) = sharded_pair(2);
        server.enable_tx_batch();
        for k in 0..8u32 {
            let key = format!("key{k:04}");
            client.send_get(&[key.as_bytes()]);
        }
        assert_eq!(server.poll(), 8);
        let stats = server.nic().borrow().stats();
        // 8 replies across 2 shards: one doorbell per shard's flush, not
        // one per frame.
        assert_eq!(stats.tx_frames, 8);
        assert_eq!(stats.doorbells, 2, "one ring per shard flush");
        let mut got = 0;
        while client.recv_response().is_some() {
            got += 1;
        }
        assert_eq!(got, 8);
        // 17 replies on one shard: a flush at the 16-reply limit, then one
        // for the last reply when the poll ends.
        for _ in 0..17 {
            client.send_get(&[b"key0000".as_slice()]);
        }
        assert_eq!(server.poll(), 17);
        let stats = server.nic().borrow().stats();
        assert_eq!(stats.tx_frames, 8 + 17);
        assert_eq!(
            stats.doorbells,
            2 + 2,
            "one ring at the limit, one at the end"
        );
        while client.recv_response().is_some() {
            got += 1;
        }
        assert_eq!(got, 8 + 17);
    }

    #[test]
    fn shard_hash_is_stable() {
        // Placement must agree across components and runs; pin a few.
        assert_eq!(shard_of_key(b"key0000", 1), 0);
        for shards in 1..=8 {
            let q = shard_of_key(b"anchor", shards);
            assert!(q < shards);
            assert_eq!(q, shard_of_key(b"anchor", shards));
        }
    }

    #[test]
    fn get_segment_routes_by_key() {
        let (mut client, mut server) = sharded_pair(4);
        server.preload(b"segmented", &[64, 64, 64]).unwrap();
        client.send_request(msg_type::GET_SEGMENT, Some(1), &[b"segmented"], &[]);
        server.poll();
        let resp = client.recv_response().expect("segment reply");
        assert_eq!(resp.vals.len(), 1);
        assert_eq!(resp.vals[0].len(), 64);
    }
}
