//! Consistent-hash key placement across cluster nodes.
//!
//! Each node contributes a fixed number of virtual points on a 64-bit
//! ring; a key's replica set is the first R *distinct* nodes clockwise
//! from the key's hash, primary first. Virtual points keep placement
//! balanced with few nodes, and consistent hashing keeps most keys in
//! place when membership changes — only the rejoining node's arcs move.
//!
//! Placement is pure arithmetic over (node count, key bytes): every
//! client and node computes the same map independently, with no
//! membership protocol on the wire.

use cf_kv::store::fnv1a;
use cf_sim::rng::SplitMix64;

/// Virtual ring points contributed per node.
const VNODES: usize = 32;

/// A key's position on the ring: the store's FNV-1a folded through a
/// SplitMix64 finalizer so short keys still spread over the ring. Also
/// the key a `ClusterOp` flight event carries.
pub fn key_point(key: &[u8]) -> u64 {
    SplitMix64::new(fnv1a(key)).next_u64()
}

/// The cluster's consistent-hash placement map.
#[derive(Clone, Debug)]
pub struct ClusterMap {
    nodes: usize,
    /// `(ring position, node id)`, sorted by position.
    ring: Vec<(u64, u8)>,
}

impl ClusterMap {
    /// A map over `nodes` nodes (ids `0..nodes`).
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0 && nodes <= 256, "1..=256 nodes");
        let mut ring = Vec::with_capacity(nodes * VNODES);
        for node in 0..nodes as u64 {
            // Each (node, vnode) pair seeds its own point; SplitMix64's
            // increment is a bijective mixer, so points spread uniformly.
            let mut rng = SplitMix64::new((node << 32) ^ 0xC1A5_7E12);
            for _ in 0..VNODES {
                ring.push((rng.next_u64(), node as u8));
            }
        }
        ring.sort_unstable();
        ClusterMap { nodes, ring }
    }

    /// Number of nodes in the map.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The first `r` distinct nodes clockwise from `key`'s ring position,
    /// primary first. `r` is clamped to the node count.
    pub fn replicas_for(&self, key: &[u8], r: usize) -> Vec<u8> {
        let r = r.clamp(1, self.nodes);
        let point = key_point(key);
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let mut out: Vec<u8> = Vec::with_capacity(r);
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }

    /// The primary (first replica) for `key`.
    pub fn primary_for(&self, key: &[u8]) -> u8 {
        self.replicas_for(key, 1)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn replica_sets_are_distinct_and_sized() {
        let map = ClusterMap::new(5);
        for k in 0..200u32 {
            let key = format!("key{k:06}");
            let reps = map.replicas_for(key.as_bytes(), 3);
            assert_eq!(reps.len(), 3);
            let mut d = reps.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas are distinct nodes");
            assert_eq!(reps[0], map.primary_for(key.as_bytes()));
        }
    }

    #[test]
    fn r_clamps_to_node_count() {
        let map = ClusterMap::new(2);
        let reps = map.replicas_for(b"anything", 3);
        assert_eq!(reps.len(), 2, "R clamps to cluster size");
        assert_eq!(map.replicas_for(b"anything", 0).len(), 1);
    }

    #[test]
    fn placement_is_deterministic_and_reasonably_balanced() {
        let a = ClusterMap::new(4);
        let b = ClusterMap::new(4);
        let mut primaries: HashMap<u8, usize> = HashMap::new();
        for k in 0..2000u32 {
            let key = format!("key{k:06}");
            assert_eq!(
                a.replicas_for(key.as_bytes(), 3),
                b.replicas_for(key.as_bytes(), 3),
                "identical maps place identically"
            );
            *primaries.entry(a.primary_for(key.as_bytes())).or_default() += 1;
        }
        for node in 0..4u8 {
            let share = primaries.get(&node).copied().unwrap_or(0);
            assert!(
                share > 200,
                "node {node} owns {share}/2000 primaries — ring is pathologically unbalanced"
            );
        }
    }

    #[test]
    fn placement_is_pinned() {
        // Recorded placements: a change to `fnv1a`, `key_point` or the
        // ring's seeds moves keys between nodes.
        let map = ClusterMap::new(3);
        let got: Vec<Vec<u8>> = (0..8)
            .map(|i| map.replicas_for(cf_workloads::key_string(i).as_bytes(), 3))
            .collect();
        let want = [
            [0, 2, 1],
            [0, 1, 2],
            [2, 1, 0],
            [2, 0, 1],
            [2, 0, 1],
            [0, 1, 2],
            [2, 1, 0],
            [1, 2, 0],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn membership_growth_moves_few_keys() {
        // Consistent hashing's point: adding a node remaps only the arcs
        // it claims, not the whole keyspace.
        let four = ClusterMap::new(4);
        let five = ClusterMap::new(5);
        let mut moved = 0;
        let total = 2000;
        for k in 0..total {
            let key = format!("key{k:06}");
            if four.primary_for(key.as_bytes()) != five.primary_for(key.as_bytes()) {
                moved += 1;
            }
        }
        assert!(
            moved < total / 2,
            "only the new node's share should move, moved {moved}/{total}"
        );
    }
}
