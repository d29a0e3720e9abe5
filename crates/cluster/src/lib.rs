//! Multi-node replicated KV cluster with fault-driven failover.
//!
//! Cornflakes itself (SOSP '23) is a single-host serialization story;
//! this crate closes the loop on the *serving system* around it: many
//! simulated hosts — each a full multi-queue NIC + sharded KV server
//! from the existing stack — wired through a store-and-forward
//! [`cf_nic::SimSwitch`], with consistent-hash placement, R-way
//! primary-backup replication, liveness probing, and client failover.
//! Every layer below the cluster is unchanged: the same wire format
//! (host addressing rides in previously-zero MAC bytes), the same
//! zero-copy datapath, the same fault injectors.
//!
//! The pieces:
//!
//! - [`ClusterMap`] — pure-arithmetic consistent-hash placement: every
//!   host computes identical replica sets with no membership protocol.
//! - [`ClusterNode`] — one member: replicated-put coordination
//!   (client-acked only after every live replica acks), probe-based
//!   failure detection, and replay-log catch-up for rejoining peers.
//! - [`ClusterClient`] — replica routing with per-node circuit
//!   breakers; the inner client's retransmits double as the failover
//!   trigger, and stable request ids make retried puts exactly-once
//!   cluster-wide via each replica's dedup window. Reads run under a
//!   selectable [`ReadMode`]: any-replica (fast, no staleness bound) or
//!   majority quorum with version-ordered read-repair.
//! - [`ConsistencyHistory`] — a bounded recorder of client-observed
//!   operations plus a checker for per-key read-your-writes and
//!   monotonic reads, the oracle the split-brain tests assert against.
//! - [`Cluster`] — the assembled harness: shared virtual clock, switch
//!   fault primitives (`kill`, `partition`), and telemetry wiring.
//!
//! The cluster-wide safety argument is the single-node one, composed:
//! *every* apply path (coordinator, backup, client retry, catch-up
//! replay) funnels through the same per-shard dedup window keyed by the
//! client's request id, so any delivery pattern the switch and fault
//! injectors produce applies each put at most once per replica.

pub mod client;
pub mod cluster;
pub mod history;
pub mod map;
pub mod node;
pub mod version;

pub use client::{ClusterClient, ReadMode};
pub use cluster::{Cluster, ClusterConfig};
pub use history::{ConsistencyHistory, OpKind, OpRecord, Violation};
pub use map::ClusterMap;
pub use node::ClusterNode;

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kv::client::{Response, RetryConfig};
    use cf_mem::PoolConfig;
    use cf_sim::{MachineProfile, Sim};

    fn test_cluster(nodes: usize, r: usize) -> Cluster {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        Cluster::new(
            sim,
            ClusterConfig {
                nodes,
                replication: r,
                pool: PoolConfig::small_for_tests(),
            },
        )
    }

    fn retry_cfg() -> RetryConfig {
        RetryConfig {
            timeout_ns: 120_000,
            max_retries: 6,
            max_backoff_ns: 400_000,
            jitter_seed: None,
        }
    }

    /// Drives the cluster until the client's outstanding request
    /// resolves (answer or final timeout), or `rounds` run out.
    fn drive(cluster: &mut Cluster, client: &mut ClusterClient, rounds: usize) -> Option<Response> {
        for _ in 0..rounds {
            cluster.poll();
            if let Some(r) = client.recv_response() {
                return Some(r);
            }
            cluster.sim().clock().advance(60_000);
            let timed_out = client.poll_timers();
            if !timed_out.is_empty() {
                return None;
            }
        }
        None
    }

    /// Runs the cluster idle for `rounds` (probe traffic only).
    fn idle(cluster: &mut Cluster, rounds: usize) {
        for _ in 0..rounds {
            cluster.poll();
            cluster.sim().clock().advance(60_000);
        }
    }

    #[test]
    fn put_replicates_to_all_r_replicas_before_ack() {
        let mut cluster = test_cluster(3, 3);
        let mut client = cluster.client();
        client.enable_retries_seeded(7, retry_cfg());

        let id = client.send_put(b"alpha", b"value-1");
        let resp = drive(&mut cluster, &mut client, 100).expect("put acked");
        assert_eq!(resp.id, Some(id));
        assert_eq!(resp.flags, 0, "clean ack");
        // R=3 on 3 nodes: every node holds the put by ack time.
        for node in &cluster.nodes {
            assert_eq!(
                node.server.puts_applied(),
                1,
                "node {} applied the put exactly once",
                node.id
            );
        }

        // And the value is readable from the cluster.
        let gid = client.send_get(b"alpha");
        let resp = drive(&mut cluster, &mut client, 100).expect("get answered");
        assert_eq!(resp.id, Some(gid));
        assert_eq!(resp.vals, vec![b"value-1".to_vec()]);
    }

    #[test]
    fn duplicate_client_put_applies_once_per_replica() {
        let mut cluster = test_cluster(3, 3);
        let mut client = cluster.client();
        // Tight timeout forces client retransmits mid-replication.
        client.enable_retries_seeded(
            11,
            RetryConfig {
                timeout_ns: 30_000,
                ..retry_cfg()
            },
        );

        client.send_put(b"beta", b"value-2");
        drive(&mut cluster, &mut client, 200).expect("put acked");
        idle(&mut cluster, 30); // let stray resends drain
        assert_eq!(
            cluster.total_puts_applied(),
            3,
            "replication factor applies, retransmits dedup"
        );
    }

    #[test]
    fn get_fails_over_when_primary_dies() {
        let mut cluster = test_cluster(3, 3);
        cluster.preload(b"gamma", &[64]);
        let mut client = cluster.client();
        client.enable_retries_seeded(13, retry_cfg());

        let primary = cluster.map().primary_for(b"gamma");
        cluster.kill(primary);

        let id = client.send_get(b"gamma");
        let resp = drive(&mut cluster, &mut client, 200).expect("a backup serves the get");
        assert_eq!(resp.id, Some(id));
        assert_eq!(resp.vals.len(), 1);
        assert!(
            client.failovers() >= 1,
            "route rotated off the dead primary"
        );
    }

    #[test]
    fn killed_node_catches_up_after_rejoin() {
        let mut cluster = test_cluster(3, 3);
        let mut client = cluster.client();
        client.enable_retries_seeded(17, retry_cfg());

        // Let probes establish, then kill a node and let peers notice.
        idle(&mut cluster, 10);
        let victim = cluster.map().primary_for(b"delta");
        cluster.kill(victim);
        idle(&mut cluster, 40);
        let observer = (0..3u8).find(|&n| n != victim).unwrap();
        assert!(
            !cluster.nodes[observer as usize].peer_alive(victim),
            "survivors detect the dead node via probe misses"
        );

        // A put while the victim is down: acked by the survivors.
        client.send_put(b"delta", b"value-3");
        drive(&mut cluster, &mut client, 300).expect("put acked by surviving replicas");
        assert_eq!(cluster.nodes[victim as usize].server.puts_applied(), 0);

        // Rejoin: probes flow again, survivors replay their logs.
        cluster.revive(victim);
        idle(&mut cluster, 60);
        assert_eq!(
            cluster.nodes[victim as usize].server.puts_applied(),
            1,
            "catch-up replay delivered the missed put exactly once"
        );
        let replays: u64 = cluster.nodes.iter().map(|n| n.catchup_replays()).sum();
        assert!(replays >= 1, "at least one survivor replayed");
    }

    #[test]
    fn partition_heals_without_duplicate_applies() {
        let mut cluster = test_cluster(3, 3);
        let mut client = cluster.client();
        client.enable_retries_seeded(19, retry_cfg());

        idle(&mut cluster, 10);
        cluster.partition(0, 1);
        client.send_put(b"epsilon", b"value-4");
        drive(&mut cluster, &mut client, 300).expect("put resolves despite partition");
        cluster.heal(0, 1);
        idle(&mut cluster, 80); // rejoin detection + catch-up
        assert_eq!(
            cluster.total_puts_applied(),
            3,
            "after heal every replica holds the put exactly once"
        );
    }
}
