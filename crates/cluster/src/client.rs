//! Cluster-aware KV client: replica routing, per-node circuit breakers,
//! fault-driven failover, and selectable read consistency.
//!
//! A [`ClusterClient`] wraps one ordinary [`KvClient`] attached to its
//! own switch host and layers cluster routing on top. Every request — a
//! put, an [`ReadMode::Any`] read, a [`ReadMode::Quorum`] read — is one
//! ABD-style operation on the key's replica set under one request id,
//! and differs from the others only in `need`, the clean replies that
//! conclude it: one for a put or an Any read, a majority ⌈(R+1)/2⌉ for a
//! quorum read.
//!
//! - **Targets.** The key's replicas are walked primary first, and each
//!   breaker is asked to admit the request only until `need` have; the
//!   rest pad the list in ring order. The first target gets the send,
//!   the others an immediate copy under the same id (the inner client's
//!   fan-out mode delivers every copy's reply and keeps the retransmit
//!   timer running until the request concludes).
//! - **Failover.** The inner client's retransmit timer is the failure
//!   signal, and the retransmit itself — same id — is the failover: the
//!   replica last aimed at takes a breaker failure, and the one frame of
//!   the retransmit goes to the next replica in ring order not yet heard
//!   from, where cluster-wide dedup keeps a put exactly-once.
//! - **Breakers.** One [`CircuitBreaker`] per node, and one outcome per
//!   replica per request: the replier is credited a clean reply, charged
//!   a `SHED`, and a replica that never answered is charged at the
//!   failover off it or at the timeout. A dead or melting node is
//!   skipped at routing time rather than rediscovered by every request.
//! - **Replies.** Clean replies are collected per host; at `need` of
//!   them the highest-versioned one wins (the first heard on ties), and
//!   every stale replica heard from gets a fire-and-forget read-repair
//!   `REPL_PUT`. Because a put is acked only once a majority of its
//!   replicas holds it, any read majority overlaps the write set and a
//!   quorum read observes the newest version; an Any read can be served
//!   an old value by a stale rejoined replica. A `SHED` concludes the
//!   request once every targeted replica has been judged.
//! - **Partition suspects.** A node whose breaker is open (requests to
//!   it kept failing) but whose frames still reach this client is not
//!   dead — it is partitioned from part of the cluster while the
//!   switch still delivers. Those arrivals are surfaced as
//!   `cluster.client.partition_suspects` rather than folded into the
//!   failover count.
//!
//! Each completed operation — a clean put ack or concluded read — is one
//! [`FlightEvent::ClusterOp`] in the flight recorder the client's
//! telemetry carries, beside the request's failovers; the split-brain
//! tests replay those records through [`crate::history::check`].
//!
//! The client is deliberately closed-loop: one outstanding request at a
//! time, matching the chaos-test driving pattern.

use cf_kv::client::{KvClient, Response, RetryConfig};
use cf_kv::flags;
use cf_kv::overload::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Telemetry};

use crate::majority;
use crate::map::{key_point, ClusterMap};

/// Read-consistency policy for [`ClusterClient::send_get`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Any single replica answers (first breaker-admissible,
    /// primary-preferred). No staleness bound: a rejoined replica that
    /// missed writes can serve an old value.
    #[default]
    Any,
    /// Fan the GET to ⌈(R+1)/2⌉ replicas under one request id, return
    /// the highest-versioned reply, read-repair stale replicas heard
    /// from. Read majorities overlap every acked write's majority, so
    /// the result is never older than the last acked write.
    Quorum,
}

/// The one in-flight request. See the module docs for its rules.
#[derive(Debug)]
struct Request {
    id: u32,
    key: Vec<u8>,
    put: bool,
    invoke_ns: u64,
    /// Clean replies, from distinct replicas, that conclude the request.
    need: usize,
    /// The key's replica set, primary first.
    replicas: Vec<u8>,
    /// Replicas a copy of the request was sent to.
    targeted: Vec<u8>,
    /// The replica the latest copy went to.
    aimed: u8,
    /// Replicas whose breaker has taken this request's one outcome.
    judged: Vec<u8>,
    /// Clean replies, one per replica, in arrival order.
    heard: Vec<(u8, Response)>,
}

impl Request {
    /// Feeds `host`'s breaker this request's one outcome for it; any later
    /// outcome (a duplicate reply, the timeout sweep) is ignored.
    fn judge(&mut self, breakers: &mut [CircuitBreaker], host: u8, ok: bool, now: u64) {
        if self.judged.contains(&host) {
            return;
        }
        self.judged.push(host);
        if let Some(b) = breakers.get_mut(host as usize) {
            if ok {
                b.on_success(now, self.id);
            } else {
                b.on_failure(now, self.id);
            }
        }
    }
}

/// One closed-loop client with cluster routing and failover. See the
/// module docs.
pub struct ClusterClient {
    /// The wrapped single-node client (stack, retries, decoding).
    pub kv: KvClient,
    /// This client's host id on the switch.
    pub host: u8,
    sim: Sim,
    map: ClusterMap,
    r: usize,
    mode: ReadMode,
    breakers: Vec<CircuitBreaker>,
    request: Option<Request>,
    failovers: Counter,
    quorum_reads: Counter,
    read_repairs: Counter,
    partition_suspects: Counter,
}

impl ClusterClient {
    /// Breaker tuning for *failover* rather than overload. The default
    /// [`BreakerConfig`] waits for 16 samples at a 90 % failure rate —
    /// right for a server that sheds under load while still answering,
    /// but far too patient for a dead node: this breaker sees at most one
    /// outcome per request, so a dead node would stay in every route for
    /// milliseconds. Two consecutive failed requests to the same node
    /// trip it; a long open window keeps half-open probes (each of which
    /// costs a full retransmit timeout) rare.
    fn failover_breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            sample_window_ns: 1_500_000,
            min_samples: 2,
            failure_threshold: 0.5,
            open_ns: 3_000_000,
        })
    }

    /// Wraps `kv` (already attached to the switch as `host`) with
    /// cluster routing over `map` at replication factor `r`.
    pub fn new(kv: KvClient, host: u8, sim: Sim, map: ClusterMap, r: usize) -> Self {
        let breakers = (0..map.nodes()).map(|_| Self::failover_breaker()).collect();
        ClusterClient {
            kv,
            host,
            sim,
            map,
            r,
            mode: ReadMode::Any,
            breakers,
            request: None,
            failovers: Counter::default(),
            quorum_reads: Counter::default(),
            read_repairs: Counter::default(),
            partition_suspects: Counter::default(),
        }
    }

    /// Selects the read-consistency mode for subsequent
    /// [`ClusterClient::send_get`]s. Must not be switched while a read
    /// is outstanding (closed-loop clients never are mid-request).
    pub fn set_read_mode(&mut self, mode: ReadMode) {
        debug_assert!(
            self.request.is_none(),
            "switch read modes between requests, not during one"
        );
        self.mode = mode;
    }

    /// Enables retransmits with decorrelated jitter seeded per-client
    /// from `(base_seed, host id)`, so a fleet of clients sharing one
    /// scenario seed still jitters independently.
    pub fn enable_retries_seeded(&mut self, base_seed: u64, cfg: RetryConfig) {
        self.kv
            .enable_retries(cfg.for_client(base_seed, u64::from(self.host)));
    }

    /// Attaches `tele` to the wrapped [`KvClient`] (its `kv.client.*`,
    /// stack and NIC) and adopts `cluster.client.failovers`,
    /// `cluster.client.quorum_reads`, `cluster.client.read_repairs` and
    /// `cluster.client.partition_suspects`, holding whatever they have
    /// counted so far; failover events and completed operations
    /// ([`FlightEvent::ClusterOp`]) join `tele`'s flight recorder.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.kv.set_telemetry(tele);
        tele.adopt_counter("cluster.client.failovers", &self.failovers);
        tele.adopt_counter("cluster.client.quorum_reads", &self.quorum_reads);
        tele.adopt_counter("cluster.client.read_repairs", &self.read_repairs);
        tele.adopt_counter(
            "cluster.client.partition_suspects",
            &self.partition_suspects,
        );
    }

    /// The flight recorder of the handle the wrapped client carries.
    fn flight(&self) -> &FlightRecorder {
        self.kv.stack.telemetry().flight()
    }

    /// Replica rotations performed due to suspected node failure.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Quorum-mode GETs issued.
    pub fn quorum_reads(&self) -> u64 {
        self.quorum_reads.get()
    }

    /// Read-repair `REPL_PUT`s pushed to stale replicas.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.get()
    }

    /// Frames that arrived from a node whose breaker is open: the node
    /// is alive and the switch delivers, yet requests routed to it kept
    /// failing — a partition, not a crash.
    pub fn partition_suspects(&self) -> u64 {
        self.partition_suspects.get()
    }

    /// This client's breaker view of `node`.
    pub fn breaker_state(&self, node: u8) -> cf_kv::overload::BreakerState {
        self.breakers[node as usize].state()
    }

    /// Sends a replicated put for `key`; the returned id is stable across
    /// failovers.
    pub fn send_put(&mut self, key: &[u8], val: &[u8]) -> u32 {
        self.send(key, Some(val))
    }

    /// Sends a get for `key` under the current [`ReadMode`].
    pub fn send_get(&mut self, key: &[u8]) -> u32 {
        self.send(key, None)
    }

    /// Sends a put (`val` given) or a get to the request's targets under
    /// one request id and records it as the request in flight.
    fn send(&mut self, key: &[u8], val: Option<&[u8]>) -> u32 {
        debug_assert!(
            self.request.is_none(),
            "closed-loop: one outstanding request"
        );
        let need = match (val, self.mode) {
            (None, ReadMode::Quorum) => {
                self.quorum_reads.inc();
                majority(self.r)
            }
            _ => 1,
        };
        let (replicas, now) = (self.map.replicas_for(key, self.r), self.sim.now());
        let targets = self.targets(&replicas, need, now);
        self.kv.stack.set_peer_host(targets[0]);
        let id = match val {
            Some(val) => self.kv.send_put(key, val),
            None => self.kv.send_get(&[key]),
        };
        self.kv.begin_fanout(id);
        for &t in &targets[1..] {
            self.kv.stack.set_peer_host(t);
            self.kv.resend_now(id);
        }
        self.request = Some(Request {
            id,
            key: key.to_vec(),
            put: val.is_some(),
            invoke_ns: now,
            need,
            aimed: targets[targets.len() - 1],
            targeted: targets,
            replicas,
            judged: Vec::with_capacity(need),
            heard: Vec::with_capacity(need),
        });
        id
    }

    /// The `need` replicas a fresh request goes to: breaker-admitted ones
    /// first, primary first, asking each breaker only until `need` have
    /// admitted (an admit can be a half-open probe, so it is never asked
    /// for a replica the request will not reach); then the rest, in ring
    /// order, so a request still goes out — and resolves, if only by
    /// timeout — when fewer admit.
    fn targets(&mut self, replicas: &[u8], need: usize, now: u64) -> Vec<u8> {
        let id = self.kv.next_req_id();
        let mut admitted = Vec::with_capacity(need);
        for &n in replicas {
            if admitted.len() < need
                && self.breakers[n as usize].admit(now, id) != BreakerDecision::Reject
            {
                admitted.push(n);
            }
        }
        let mut targets = replicas.to_vec();
        targets.sort_by_key(|n| !admitted.contains(n));
        targets.truncate(need);
        targets
    }

    /// Counts stale-reply source hosts whose breaker is open as
    /// partition suspects: the switch demonstrably still delivers their
    /// frames, so the failed requests that opened the breaker were a
    /// reachability problem, not a dead node.
    fn note_partition_suspects(&mut self) {
        for h in self.kv.drain_stale_sources() {
            self.note_suspect_host(h);
        }
    }

    fn note_suspect_host(&mut self, host: u8) {
        let open = self
            .breakers
            .get(host as usize)
            .is_some_and(|b| b.state() == BreakerState::Open);
        if open {
            self.partition_suspects.inc();
        }
    }

    /// Drives the inner retransmit timers and aims what they fire: a
    /// retransmit of the request in flight charges the replica last aimed
    /// at and goes, as its one frame, to the next replica in ring order
    /// not yet heard from (failover); a timeout charges every targeted
    /// replica not yet judged and ends the request. Returns the ids the
    /// inner client reported as timed out.
    pub fn poll_timers(&mut self) -> Vec<u32> {
        let before = self.kv.retries_sent();
        let timed_out = self.kv.poll_timers();
        self.note_partition_suspects();
        let now = self.sim.now();
        let Some(mut req) = self.request.take() else {
            return timed_out;
        };
        if timed_out.contains(&req.id) {
            self.kv.finish_request(req.id);
            for i in 0..req.targeted.len() {
                req.judge(&mut self.breakers, req.targeted[i], false, now);
            }
            return timed_out;
        }
        if self.kv.retries_sent() > before {
            req.judge(&mut self.breakers, req.aimed, false, now);
            let n = req.replicas.len();
            let at = req
                .replicas
                .iter()
                .position(|&h| h == req.aimed)
                .unwrap_or(0);
            let next = (1..=n)
                .map(|k| req.replicas[(at + k) % n])
                .find(|&h| req.heard.iter().all(|(x, _)| *x != h));
            if let Some(next) = next {
                if !req.targeted.contains(&next) {
                    req.targeted.push(next);
                }
                req.aimed = next;
                self.kv.stack.set_peer_host(next);
                self.kv.resend_now(req.id);
                self.failovers.inc();
                self.flight()
                    .record(req.id, now, FlightEvent::Failover { node: next });
            }
        }
        self.request = Some(req);
        timed_out
    }

    /// Receives the next response. A reply to the request in flight
    /// feeds its replier's breaker and is collected; the request's
    /// response is returned once `need` replicas answered cleanly (the
    /// highest-versioned reply), or once a `SHED` leaves no targeted
    /// replica unjudged (the `SHED`). Replies to any other id are
    /// returned as-is.
    pub fn recv_response(&mut self) -> Option<Response> {
        loop {
            let resp = self.kv.recv_response()?;
            self.note_partition_suspects();
            let Some(mut req) = self.request.take() else {
                return Some(resp);
            };
            if resp.id != Some(req.id) {
                self.request = Some(req);
                return Some(resp);
            }
            let (host, now) = (resp.from_host, self.sim.now());
            self.note_suspect_host(host);
            let shed = resp.flags & flags::SHED != 0;
            req.judge(&mut self.breakers, host, !shed, now);
            if shed {
                if req.targeted.iter().all(|t| req.judged.contains(t)) {
                    self.kv.finish_request(req.id);
                    return Some(resp);
                }
            } else if req.heard.iter().all(|(x, _)| *x != host) {
                req.heard.push((host, resp));
                if req.heard.len() >= req.need {
                    return Some(self.conclude(req, now));
                }
            }
            self.request = Some(req);
        }
    }

    /// `need` replicas answered: end the request, pick the
    /// highest-versioned reply (first heard wins ties), push read-repairs
    /// to every stale replica heard from, and record the observation
    /// unless the reply is `DEGRADED`.
    fn conclude(&mut self, mut req: Request, now: u64) -> Response {
        self.kv.finish_request(req.id);
        let mut best = 0;
        for (i, (_, r)) in req.heard.iter().enumerate() {
            if r.version > req.heard[best].1.version {
                best = i;
            }
        }
        let version = req.heard[best].1.version;
        if let Some(val) = req.heard[best].1.vals.first() {
            for (h, r) in &req.heard {
                if r.version < version {
                    self.kv.stack.set_peer_host(*h);
                    self.kv.send_repair_put(&req.key, val, version);
                    self.read_repairs.inc();
                    self.flight()
                        .record(req.id, now, FlightEvent::ReplicaPut { node: *h });
                }
            }
        }
        let resp = req.heard.swap_remove(best).1;
        if resp.flags & flags::DEGRADED == 0 {
            self.flight().record(
                req.id,
                now,
                FlightEvent::ClusterOp {
                    put: req.put,
                    key: key_point(&req.key),
                    version,
                    invoke_ns: req.invoke_ns,
                },
            );
        }
        resp
    }
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("host", &self.host)
            .field("mode", &self.mode)
            .field("failovers", &self.failovers())
            .field("quorum_reads", &self.quorum_reads())
            .finish()
    }
}
