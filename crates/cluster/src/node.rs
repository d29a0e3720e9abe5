//! One cluster member: a sharded KV server plus the replication and
//! failure-detection state machines.
//!
//! A node owns a [`ShardedKvServer`] attached to one switch uplink and
//! layers three cluster protocols over the ordinary request path, all
//! dispatched by `msg_type` before a packet reaches the KV handlers:
//!
//! - **Replicated puts.** A client `PUT` arriving at this node makes it
//!   the put's *coordinator*: it applies locally (through the shard's
//!   dedup window), forwards the put payload byte-for-byte as
//!   [`msg_type::REPL_PUT`] — same request id — to every other live
//!   replica of the key, and once each of those has acked
//!   ([`msg_type::REPL_ACK`]) or been marked down, acknowledges the
//!   client only if a majority of the key's replicas, itself included,
//!   holds the put. A retransmit of a put already applied here takes the
//!   same path under the version it was first given. Because the
//!   request id travels unchanged, every replica's dedup window enforces
//!   at-most-once apply no matter which path (client retry, coordinator
//!   resend, catch-up replay) delivered the copy.
//! - **Failure detection.** The node probes each peer every
//!   200 µs with a header-only [`msg_type::PROBE`]; two consecutive
//!   unanswered probes mark the peer down. Any message from a peer
//!   (probe ack, replication traffic) counts as life.
//! - **Catch-up.** Every applied put is also appended to a bounded
//!   replay log. When a down peer comes back, each surviving node
//!   replays the logged puts whose replica set includes the rejoined
//!   node as `REPL_PUT`s; dedup makes the replay idempotent, so
//!   overlapping replays from several nodes are harmless.

use std::collections::{HashMap, VecDeque};

use cf_kv::client::SERVER_PORT;
use cf_kv::sharded::{shard_of_key, steering_ports, ShardedKvServer};
use cf_kv::{flags, msg_type};
use cf_net::{FrameMeta, Packet, PacketHeader, HEADER_BYTES};
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Telemetry};

use crate::map::ClusterMap;
use crate::{majority, version};

/// Probe acknowledgement message type.
const PROBE_ACK: u8 = msg_type::PROBE | msg_type::RESPONSE;

/// Gap between liveness probes to each peer (virtual ns).
const PROBE_INTERVAL_NS: u64 = 200_000;
/// Set in every probe's request id. Probes number themselves within the
/// top half of the id space and client request ids count up from 1, so a
/// request's flight timeline (keyed by that id) holds no probe frames.
const PROBE_ID_BIT: u32 = 1 << 31;
/// A probe unanswered for this long counts as a miss.
const PROBE_TIMEOUT_NS: u64 = 150_000;
/// Consecutive misses before a peer is marked down.
const PROBE_MISSES: u32 = 2;
/// Re-forward a pending put's outstanding `REPL_PUT`s after this long
/// without an ack (covers dropped frames without waiting for the client's
/// retransmit).
const REPL_RESEND_NS: u64 = 300_000;
/// Abandon a pending put entirely after this long; the client has long
/// since timed out and retried through another coordinator.
const REPL_ABANDON_NS: u64 = 5_000_000;
/// Replay-log capacity (entries); catch-up can only heal what the log
/// still holds.
const LOG_CAPACITY: usize = 1024;

/// Health view of one peer.
#[derive(Debug)]
struct PeerHealth {
    alive: bool,
    next_probe_at: u64,
    /// `(probe seq, sent at)` of the unanswered probe, if any.
    outstanding: Option<(u32, u64)>,
    misses: u32,
}

impl PeerHealth {
    fn new() -> Self {
        PeerHealth {
            alive: true,
            next_probe_at: 0,
            outstanding: None,
            misses: 0,
        }
    }
}

/// A client put awaiting replication acks before the client is answered.
#[derive(Debug)]
struct PendingRepl {
    /// The client request (the first copy, or a retransmit of a put
    /// already applied here), replayed through the KV handler to build the
    /// acknowledgement once a majority holds the put.
    pkt: Packet,
    /// Shard (queue) the put arrived on — owns the key on this node.
    shard: usize,
    key: Vec<u8>,
    /// The put payload, byte-for-byte, for re-forwarding.
    payload: Vec<u8>,
    /// Coordinator-assigned version of this put, carried on every
    /// forwarded `REPL_PUT` header.
    version: u64,
    /// Backup nodes that have not acked yet.
    awaiting: Vec<u8>,
    /// Backup nodes that have acked.
    acked: usize,
    created_ns: u64,
    last_send_ns: u64,
}

/// The node's protocol counter cells, owned from construction and adopted
/// as `cluster.nodeN.*` when the cluster is attached.
#[derive(Debug, Default)]
struct NodeCounters {
    repl_puts: Counter,
    repl_acks: Counter,
    repl_applies: Counter,
    repl_abandoned: Counter,
    probes_sent: Counter,
    probe_timeouts: Counter,
    peer_down: Counter,
    peer_up: Counter,
    catchup_replays: Counter,
    repl_pending: Gauge,
}

/// One cluster member. See the module docs for the protocol.
pub struct ClusterNode {
    /// This node's host id on the switch.
    pub id: u8,
    /// The node's KV server (shards, NIC, stores).
    pub server: ShardedKvServer,
    map: ClusterMap,
    r: usize,
    /// Per-queue source ports whose flow to [`SERVER_PORT`] RSS-steers to
    /// that queue on the *destination* node (identical RSS config
    /// cluster-wide, so one table serves every peer).
    steer_ports: Vec<u16>,
    /// Health view, indexed by node id (`None` for self).
    peers: Vec<Option<PeerHealth>>,
    pending: HashMap<u32, PendingRepl>,
    /// Replay log of applied puts: `(req_id, key, payload, version)`.
    log: VecDeque<(u32, Vec<u8>, Vec<u8>, u64)>,
    probe_seq: u32,
    counters: NodeCounters,
}

impl ClusterNode {
    /// Wraps `server` as cluster member `id`, stamping every shard stack
    /// with the node's host id so replies route back through the switch.
    pub fn new(id: u8, mut server: ShardedKvServer, map: ClusterMap, r: usize) -> Self {
        let steer_ports = steering_ports(&server.rss());
        for shard in server.shards_mut() {
            shard.stack.set_local_host(id);
        }
        let peers = (0..map.nodes())
            .map(|n| (n != id as usize).then(PeerHealth::new))
            .collect();
        ClusterNode {
            id,
            server,
            map,
            r,
            steer_ports,
            peers,
            pending: HashMap::new(),
            log: VecDeque::new(),
            probe_seq: 0,
            counters: NodeCounters::default(),
        }
    }

    /// [`crate::Cluster::set_telemetry`]'s per-node half: attaches `tele`
    /// to the node's whole server and adopts its protocol cells as
    /// `cluster.node<id>.*`.
    pub(crate) fn attach_telemetry(&mut self, tele: &Telemetry) {
        self.server.set_telemetry(tele);
        let (c, n) = (&self.counters, self.id);
        tele.adopt_counter(&format!("cluster.node{n}.repl_puts"), &c.repl_puts);
        tele.adopt_counter(&format!("cluster.node{n}.repl_acks"), &c.repl_acks);
        tele.adopt_counter(&format!("cluster.node{n}.repl_applies"), &c.repl_applies);
        tele.adopt_counter(
            &format!("cluster.node{n}.repl_abandoned"),
            &c.repl_abandoned,
        );
        tele.adopt_counter(&format!("cluster.node{n}.probes_sent"), &c.probes_sent);
        tele.adopt_counter(
            &format!("cluster.node{n}.probe_timeouts"),
            &c.probe_timeouts,
        );
        tele.adopt_counter(&format!("cluster.node{n}.peer_down"), &c.peer_down);
        tele.adopt_counter(&format!("cluster.node{n}.peer_up"), &c.peer_up);
        tele.adopt_counter(
            &format!("cluster.node{n}.catchup_replays"),
            &c.catchup_replays,
        );
        tele.adopt_gauge(&format!("cluster.node{n}.repl_pending"), &c.repl_pending);
    }

    /// The flight recorder of the handle the node's server carries (every
    /// shard carries the same one).
    fn flight(&self) -> &FlightRecorder {
        self.server.shards()[0].stack.telemetry().flight()
    }

    /// Whether this node currently believes `node` is alive.
    pub fn peer_alive(&self, node: u8) -> bool {
        node == self.id || alive(&self.peers, node)
    }

    /// The replicas of `key` other than this node that it believes alive.
    fn live_backups(&self, key: &[u8]) -> Vec<u8> {
        self.map
            .replicas_for(key, self.r)
            .into_iter()
            .filter(|&n| n != self.id && alive(&self.peers, n))
            .collect()
    }

    /// Puts whose replication acks are still outstanding.
    pub fn pending_repl(&self) -> usize {
        self.pending.len()
    }

    /// Replay-log occupancy.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// `REPL_PUT`s this node applied on behalf of a coordinator.
    pub fn repl_applies(&self) -> u64 {
        self.counters.repl_applies.get()
    }

    /// Catch-up replays this node has sent to rejoined peers.
    pub fn catchup_replays(&self) -> u64 {
        self.counters.catchup_replays.get()
    }

    /// Drives the node once: probe timers, then every shard's receive
    /// queue (cluster dispatch first, ordinary KV handling for the rest),
    /// then pending-replication maintenance. Returns packets processed.
    pub fn poll(&mut self) -> usize {
        let now = self.now();
        self.tick_probes(now);
        let mut n = 0;
        for q in 0..self.server.num_shards() {
            loop {
                let pkt = self.server.shards_mut()[q].stack.recv_packet();
                let Some(pkt) = pkt else { break };
                self.dispatch(q, pkt);
                n += 1;
            }
        }
        self.maintain_pending(self.now());
        self.counters.repl_pending.set(self.pending.len() as f64);
        n
    }

    fn now(&self) -> u64 {
        self.server.sims()[0].now()
    }

    fn dispatch(&mut self, q: usize, pkt: Packet) {
        match pkt.hdr.meta.msg_type {
            msg_type::PUT => self.handle_client_put(q, pkt),
            msg_type::REPL_PUT => self.handle_repl_put(q, pkt),
            msg_type::REPL_ACK => self.handle_repl_ack(pkt),
            msg_type::PROBE => {
                self.peer_seen(pkt.hdr.src_host);
                let hdr = pkt.hdr.reply(FrameMeta {
                    msg_type: PROBE_ACK,
                    flags: 0,
                    req_id: pkt.hdr.meta.req_id,
                });
                let _ = self.server.shards_mut()[q].stack.send_fast_reject(hdr);
            }
            PROBE_ACK => self.peer_seen(pkt.hdr.src_host),
            _ => self.server.shards_mut()[q].handle(pkt),
        }
    }

    /// Coordinator path, one for a fresh put and a retransmit alike:
    /// refuse it unless a majority of the key's replicas is alive, apply
    /// it (a fresh put) or look it up in the replay log (a put already
    /// applied here), forward it to the live backups, and answer the
    /// client through [`Self::complete_pending`].
    fn handle_client_put(&mut self, q: usize, pkt: Packet) {
        let req_id = pkt.hdr.meta.req_id;
        if self.pending.contains_key(&req_id) {
            // A client retransmit of a put still replicating: re-forward
            // to the stragglers instead of starting over.
            self.reforward(req_id, self.now());
            return;
        }
        let (key, payload, version) = if self.server.shards_mut()[q].dedup_contains(req_id) {
            // A retransmit of a put this node already applied, whose
            // pending entry is gone. It is forwarded only under the version
            // ORIGINALLY minted for this request id — the replay log keeps
            // it — never a re-derived `version_of(key)`: that may belong to
            // a newer put to the same key, and stamping the old payload
            // with the newer version would wedge any backup that missed
            // both writes on the old value forever. If the log has evicted
            // the entry, catch-up owns redelivery and the client is
            // re-acked through the dedup window.
            let Some((_, key, payload, version)) =
                self.log.iter().find(|(id, ..)| *id == req_id).cloned()
            else {
                self.server.shards_mut()[q].handle(pkt);
                return;
            };
            if self.refuse_minority(q, &pkt, &key) {
                return;
            }
            (key, payload, version)
        } else {
            let Some((key, val)) = self.server.shards_mut()[q].decode_put(&pkt.payload) else {
                return; // malformed put: drop, as the plain server would
            };
            if self.refuse_minority(q, &pkt, &key) {
                return;
            }
            let payload = pkt.payload.as_slice().to_vec();
            // Coordinator-assigned version: the key's newest counter plus
            // one, tagged with this node's id ([`crate::version`]) so two
            // coordinators minting concurrently for the same key can never
            // stamp different values with the same version.
            let shard = &mut self.server.shards_mut()[q];
            let version = version::next(shard.version_of(&key), self.id);
            let (_, applied) = shard.apply_versioned_put(req_id, &key, &val, version);
            if applied {
                self.log_apply(req_id, &key, &payload, version);
            }
            (key, payload, version)
        };
        let now = self.now();
        let awaiting = self.live_backups(&key);
        self.pending.insert(
            req_id,
            PendingRepl {
                pkt,
                shard: q,
                key,
                payload,
                version,
                awaiting,
                acked: 0,
                created_ns: now,
                last_send_ns: now,
            },
        );
        // With no backup to wait on (R = 1), `maintain_pending` answers
        // the client at the end of this poll.
        self.reforward(req_id, now);
    }

    /// Refuses `pkt` with a header-only `SHED` when fewer than a majority
    /// of `key`'s replicas, this node included, are alive: quorum reads
    /// rely on every acked write overlapping every read majority, and an
    /// ack minted on a minority island is invisible to the other side's
    /// majorities. Nothing has been applied for the request yet, and the
    /// client's failover machinery carries the same request id to the
    /// majority side. Returns whether it refused.
    fn refuse_minority(&mut self, q: usize, pkt: &Packet, key: &[u8]) -> bool {
        if self.live_backups(key).len() + 1 >= majority(self.r) {
            return false;
        }
        let hdr = pkt.hdr.reply(FrameMeta {
            msg_type: msg_type::PUT | msg_type::RESPONSE,
            flags: flags::SHED,
            req_id: pkt.hdr.meta.req_id,
        });
        let _ = self.server.shards_mut()[q].stack.send_fast_reject(hdr);
        true
    }

    /// Re-sends pending put `req_id` as `REPL_PUT` to the backups it still
    /// awaits, and stamps the send.
    fn reforward(&mut self, req_id: u32, now: u64) {
        let Some(mut p) = self.pending.remove(&req_id) else {
            return;
        };
        for &node in &p.awaiting {
            self.send_repl_put(node, req_id, &p.key, &p.payload, p.version);
        }
        p.last_send_ns = now;
        self.pending.insert(req_id, p);
    }

    /// Backup path: apply the forwarded copy under the same request id
    /// and ack the coordinator with a header-only `REPL_ACK`.
    fn handle_repl_put(&mut self, q: usize, pkt: Packet) {
        self.peer_seen(pkt.hdr.src_host);
        let req_id = pkt.hdr.meta.req_id;
        let Some((key, val)) = self.server.shards_mut()[q].decode_put(&pkt.payload) else {
            return;
        };
        // The coordinator's version rides the REPL_PUT header; the
        // versioned apply rejects anything at or below the stored version,
        // so catch-up replays and read-repairs can never roll a key back.
        // Only frames the store genuinely applied enter the replay log —
        // a stale rejection logged here would churn the bounded log on
        // every heal cycle and could evict entries catch-up still needs.
        // A read-repair (sent by a client host) of bytes this replica
        // already holds — the same put minted at two versions by two
        // coordinators — only adopts the higher version: applied under the
        // repair's fresh request id, it would count as a second put.
        let version = pkt.hdr.version;
        let shard = &mut self.server.shards_mut()[q];
        let repair = usize::from(pkt.hdr.src_host) >= self.map.nodes();
        let (flags, applied) = if repair && shard.adopt_repair(&key, &val, version) {
            (0, false)
        } else {
            shard.apply_versioned_put(req_id, &key, &val, version)
        };
        self.counters.repl_applies.inc();
        if applied {
            let payload = pkt.payload.as_slice().to_vec();
            self.log_apply(req_id, &key, &payload, version);
        }
        let hdr = pkt.hdr.reply(FrameMeta {
            msg_type: msg_type::REPL_ACK,
            flags,
            req_id,
        });
        let _ = self.server.shards_mut()[q].stack.send_fast_reject(hdr);
    }

    fn handle_repl_ack(&mut self, pkt: Packet) {
        let from = pkt.hdr.src_host;
        self.peer_seen(from);
        let req_id = pkt.hdr.meta.req_id;
        self.counters.repl_acks.inc();
        self.flight()
            .record(req_id, self.now(), FlightEvent::ReplicaAck { node: from });
        let done = match self.pending.get_mut(&req_id) {
            Some(p) => {
                if let Some(i) = p.awaiting.iter().position(|&n| n == from) {
                    p.awaiting.remove(i);
                    p.acked += 1;
                }
                p.awaiting.is_empty()
            }
            None => false, // late ack for a completed/abandoned put
        };
        if done {
            self.complete_pending(req_id);
        }
    }

    /// Replication finished: every backup the put awaited has acked or
    /// been marked down. If a majority holds the put, answer the client by
    /// replaying its request through the KV handler — the dedup window
    /// turns the replay into a pure acknowledgement (and re-attempts the
    /// store write if the first apply was degraded). Otherwise the put is
    /// abandoned unanswered, and the client's retransmit fails over.
    fn complete_pending(&mut self, req_id: u32) {
        let Some(p) = self.pending.remove(&req_id) else {
            return;
        };
        if p.acked + 1 >= majority(self.r) {
            self.server.shards_mut()[p.shard].handle(p.pkt);
        } else {
            self.counters.repl_abandoned.inc();
        }
    }

    fn send_repl_put(&mut self, node: u8, req_id: u32, key: &[u8], payload: &[u8], version: u64) {
        let q = shard_of_key(key, self.steer_ports.len());
        let hdr = PacketHeader {
            src_host: self.id,
            dst_host: node,
            // Steer onto the owning shard's queue on the destination:
            // RSS configs are identical cluster-wide.
            src_port: self.steer_ports[q],
            dst_port: SERVER_PORT,
            meta: FrameMeta {
                msg_type: msg_type::REPL_PUT,
                flags: 0,
                req_id,
            },
            version,
            payload_len: 0,
        };
        let stack = &mut self.server.shards_mut()[q].stack;
        let Ok(mut tx) = stack.alloc_tx(payload.len()) else {
            return; // transient pool pressure; the resend timer covers it
        };
        tx.write_at(HEADER_BYTES, payload);
        if stack.send_built(hdr, tx, payload.len()).is_ok() {
            self.counters.repl_puts.inc();
            self.flight()
                .record(req_id, self.now(), FlightEvent::ReplicaPut { node });
        }
    }

    fn log_apply(&mut self, req_id: u32, key: &[u8], payload: &[u8], version: u64) {
        self.log
            .push_back((req_id, key.to_vec(), payload.to_vec(), version));
        while self.log.len() > LOG_CAPACITY {
            self.log.pop_front();
        }
    }

    /// Probe timers: detect overdue probes, mark peers down after
    /// consecutive misses, and emit the next round of probes.
    fn tick_probes(&mut self, now: u64) {
        for node in 0..self.peers.len() {
            let Some(peer) = self.peers[node].as_mut() else {
                continue;
            };
            if let Some((_, sent_at)) = peer.outstanding {
                if now.saturating_sub(sent_at) > PROBE_TIMEOUT_NS {
                    peer.outstanding = None;
                    peer.misses += 1;
                    self.counters.probe_timeouts.inc();
                    if peer.alive && peer.misses >= PROBE_MISSES {
                        peer.alive = false;
                        self.counters.peer_down.inc();
                    }
                }
            }
            if now < peer.next_probe_at || peer.outstanding.is_some() {
                continue;
            }
            self.probe_seq = self.probe_seq.wrapping_add(1) | PROBE_ID_BIT;
            let seq = self.probe_seq;
            let hdr = PacketHeader {
                src_host: self.id,
                dst_host: node as u8,
                src_port: SERVER_PORT,
                dst_port: SERVER_PORT,
                meta: FrameMeta {
                    msg_type: msg_type::PROBE,
                    flags: 0,
                    req_id: seq,
                },
                version: 0,
                payload_len: 0,
            };
            peer.next_probe_at = now + PROBE_INTERVAL_NS;
            if self.server.shards_mut()[0]
                .stack
                .send_fast_reject(hdr)
                .is_ok()
            {
                peer.outstanding = Some((seq, now));
                self.counters.probes_sent.inc();
            }
        }
    }

    /// Any message from `node` proves it is alive; a down→up transition
    /// triggers catch-up replay toward it.
    fn peer_seen(&mut self, node: u8) {
        let Some(Some(peer)) = self.peers.get_mut(node as usize) else {
            return;
        };
        peer.misses = 0;
        peer.outstanding = None;
        if !peer.alive {
            peer.alive = true;
            self.counters.peer_up.inc();
            self.catch_up(node);
        }
    }

    /// Replays every logged put whose replica set includes the rejoined
    /// `node` as a `REPL_PUT`. Dedup on the receiver makes overlapping
    /// replays from several surviving nodes idempotent.
    fn catch_up(&mut self, node: u8) {
        let entries: Vec<(u32, Vec<u8>, Vec<u8>, u64)> = self
            .log
            .iter()
            .filter(|(_, key, _, _)| self.map.replicas_for(key, self.r).contains(&node))
            .cloned()
            .collect();
        for (req_id, key, payload, version) in entries {
            self.send_repl_put(node, req_id, &key, &payload, version);
            self.counters.catchup_replays.inc();
            self.flight()
                .record(req_id, self.now(), FlightEvent::CatchupReplay { node });
        }
    }

    /// Pending-put maintenance: drop newly-dead backups from ack waits
    /// (completing puts that were only waiting on them), re-forward to
    /// stragglers, and abandon entries the client gave up on long ago.
    fn maintain_pending(&mut self, now: u64) {
        // In request-id order, so re-forwards leave in the same order on
        // every run of one seed (the map's own order does not repeat).
        let mut ids: Vec<u32> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for req_id in ids {
            let Some(p) = self.pending.get_mut(&req_id) else {
                continue;
            };
            p.awaiting.retain(|&n| alive(&self.peers, n));
            if p.awaiting.is_empty() {
                self.complete_pending(req_id);
            } else if now.saturating_sub(p.created_ns) > REPL_ABANDON_NS {
                self.pending.remove(&req_id);
                self.counters.repl_abandoned.inc();
            } else if now.saturating_sub(p.last_send_ns) > REPL_RESEND_NS {
                self.reforward(req_id, now);
            }
        }
    }
}

/// Whether the health view `peers` holds `node` alive (a node's own slot
/// is `None`, so this is false for itself).
fn alive(peers: &[Option<PeerHealth>], node: u8) -> bool {
    peers
        .get(node as usize)
        .and_then(Option::as_ref)
        .is_some_and(|p| p.alive)
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("id", &self.id)
            .field("pending_repl", &self.pending.len())
            .field("log_len", &self.log.len())
            .finish()
    }
}
