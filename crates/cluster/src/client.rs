//! Cluster-aware KV client: replica routing, per-node circuit breakers,
//! fault-driven failover, and selectable read consistency.
//!
//! A [`ClusterClient`] wraps one ordinary [`KvClient`] attached to its
//! own switch host and layers cluster routing on top:
//!
//! - **Routing.** Each request computes the key's replica set from the
//!   shared [`ClusterMap`] and targets the first replica whose breaker
//!   admits traffic (primary-first), by pointing the stack's
//!   `peer_host` at that node before the send.
//! - **Failover.** The inner client's retransmit machinery is the
//!   failure signal: when a retransmit fires for the outstanding
//!   request, the current node's breaker records a failure and the
//!   route rotates to the next replica — the retransmit (same request
//!   id) then travels to the new node, where cluster-wide dedup keeps
//!   the put exactly-once.
//! - **Breakers.** One [`CircuitBreaker`] per node, driven from
//!   response outcomes (`SHED` and timeouts count as failures), so a
//!   dead or melting node is skipped at routing time rather than
//!   rediscovered by every request.
//! - **Read modes.** [`ReadMode::Any`] serves a GET from the first
//!   admissible replica — fastest, but a stale rejoined replica can
//!   legally answer with an old value. [`ReadMode::Quorum`] fans the
//!   GET to a majority ⌈(R+1)/2⌉ of replicas *under one request id*
//!   (the inner client's fan-out mode keeps the retransmit timer
//!   running until the read settles), returns the highest-versioned
//!   reply, and pushes a fire-and-forget read-repair `REPL_PUT` to
//!   every stale replica it heard from. Because writes are acked only
//!   after every live replica applies, any majority overlaps the
//!   write set and the quorum read observes the newest version.
//! - **Partition suspects.** A node whose breaker is open (requests to
//!   it kept failing) but whose frames still reach this client is not
//!   dead — it is partitioned from part of the cluster while the
//!   switch still delivers. Those arrivals are surfaced as
//!   `cluster.client.partition_suspects` rather than folded into the
//!   failover count.
//!
//! Completed operations are optionally recorded into a
//! [`ConsistencyHistory`] — `(key, op, version, invoke, complete)` —
//! which the split-brain tests replay through its read-your-writes /
//! monotonic-reads checker.
//!
//! The client is deliberately closed-loop: one outstanding request at a
//! time, matching the chaos-test driving pattern.

use cf_kv::client::{KvClient, Response, RetryConfig};
use cf_kv::flags;
use cf_kv::overload::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, Telemetry};

use crate::history::{ConsistencyHistory, OpKind, OpRecord};
use crate::map::ClusterMap;

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
    /// from. Majorities overlap the (all-live-replica) write set, so
    /// the result is never older than the last acked write.
    Quorum,
}

/// The in-flight request's routing state ([`ReadMode::Any`] reads and
/// all puts).
#[derive(Debug)]
struct Route {
    id: u32,
    /// Replica set for the request's key, primary first.
    replicas: Vec<u8>,
    /// Index into `replicas` of the node currently targeted.
    idx: usize,
    key: Vec<u8>,
    is_put: bool,
    invoke_ns: u64,
}

/// The in-flight quorum read's state.
#[derive(Debug)]
struct QuorumRead {
    id: u32,
    key: Vec<u8>,
    invoke_ns: u64,
    /// Distinct replica replies required (majority of R).
    need: usize,
    /// Full replica set for the key, primary first.
    replicas: Vec<u8>,
    /// Replica hosts a copy of the request was sent to.
    targeted: Vec<u8>,
    /// Hosts whose reply already fed their breaker (clean or SHED):
    /// each replica takes at most one breaker outcome per read, so the
    /// timeout sweep skips these instead of double-counting a SHED
    /// replier as a second failure.
    responded: Vec<u8>,
    /// Distinct clean replies collected so far.
    heard: Vec<(u8, Response)>,
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
    route: Option<Route>,
    quorum: Option<QuorumRead>,
    failovers: Counter,
    quorum_reads: Counter,
    read_repairs: Counter,
    partition_suspects: Counter,
    history: ConsistencyHistory,
}

impl ClusterClient {
    /// Breaker tuning for *failover* rather than overload. The default
    /// [`BreakerConfig`] waits for 16 samples at a 90 % failure rate —
    /// right for a server that sheds under load while still answering,
    /// but far too patient for a dead node: this breaker only ever sees
    /// one failure per request that had to rotate away (successes credit
    /// the replica that actually served), so a dead node would stay in
    /// every route for milliseconds. Two consecutive failed requests to
    /// the same node trip it; a long open window keeps half-open probes
    /// (each of which costs a full retransmit timeout) rare.
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
            route: None,
            quorum: None,
            failovers: Counter::default(),
            quorum_reads: Counter::default(),
            read_repairs: Counter::default(),
            partition_suspects: Counter::default(),
            history: ConsistencyHistory::disabled(),
        }
    }

    /// Selects the read-consistency mode for subsequent
    /// [`ClusterClient::send_get`]s. Must not be switched while a read
    /// is outstanding (closed-loop clients never are mid-request).
    pub fn set_read_mode(&mut self, mode: ReadMode) {
        debug_assert!(
            self.quorum.is_none() && self.route.is_none(),
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

    /// Records every completed operation into `history` (see
    /// [`ConsistencyHistory`]): puts on clean acks, gets on clean
    /// responses, quorum reads at their concluded version.
    pub fn set_history(&mut self, history: &ConsistencyHistory) {
        self.history = history.clone();
    }

    /// Attaches `tele` to the wrapped [`KvClient`] (its `kv.client.*`,
    /// stack and NIC) and adopts `cluster.client.failovers`,
    /// `cluster.client.quorum_reads`, `cluster.client.read_repairs` and
    /// `cluster.client.partition_suspects`, holding whatever they have
    /// counted so far; failover events join `tele`'s flight recorder.
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

    /// Sends a replicated put for `key`. Routed to the first
    /// breaker-admissible replica; the returned id is stable across
    /// failover rotations.
    pub fn send_put(&mut self, key: &[u8], val: &[u8]) -> u32 {
        let replicas = self.map.replicas_for(key, self.r);
        let node = self.admit_route(&replicas);
        self.kv.stack.set_peer_host(node);
        let id = self.kv.send_put(key, val);
        self.note_sent(id, replicas, node, key, true);
        id
    }

    /// Sends a get for `key` under the current [`ReadMode`].
    pub fn send_get(&mut self, key: &[u8]) -> u32 {
        match self.mode {
            ReadMode::Any => {
                let replicas = self.map.replicas_for(key, self.r);
                let node = self.admit_route(&replicas);
                self.kv.stack.set_peer_host(node);
                let id = self.kv.send_get(&[key]);
                self.note_sent(id, replicas, node, key, false);
                id
            }
            ReadMode::Quorum => self.send_quorum_get(key),
        }
    }

    /// Fans one GET to a majority of the key's replicas under a single
    /// request id. The inner client's fan-out mode delivers every copy's
    /// reply and keeps the retransmit timer alive until the read settles
    /// (quorum collected → [`KvClient::finish_request`]; timeout →
    /// [`KvClient::cancel_fanout`]).
    fn send_quorum_get(&mut self, key: &[u8]) -> u32 {
        debug_assert!(self.quorum.is_none(), "closed-loop: one outstanding read");
        let replicas = self.map.replicas_for(key, self.r);
        let need = self.r / 2 + 1; // ⌈(R+1)/2⌉: a majority
        let now = self.sim.now();
        let upcoming = self.kv.next_req_id();
        // Breaker-admissible replicas first (primary-first within each
        // class); a read still fans to `need` targets when fewer admit.
        let mut targets: Vec<u8> = Vec::with_capacity(replicas.len());
        for &n in &replicas {
            if self.breakers[n as usize].admit(now, upcoming) != BreakerDecision::Reject {
                targets.push(n);
            }
        }
        for &n in &replicas {
            if !targets.contains(&n) {
                targets.push(n);
            }
        }
        targets.truncate(need);

        self.kv.stack.set_peer_host(targets[0]);
        let id = self.kv.send_get(&[key]);
        self.kv.begin_fanout(id);
        for &t in &targets[1..] {
            self.kv.stack.set_peer_host(t);
            self.kv.resend_now(id);
        }
        self.quorum_reads.inc();
        self.quorum = Some(QuorumRead {
            id,
            key: key.to_vec(),
            invoke_ns: now,
            need,
            replicas,
            targeted: targets,
            responded: Vec::with_capacity(need),
            heard: Vec::with_capacity(need),
        });
        id
    }

    fn note_sent(&mut self, id: u32, replicas: Vec<u8>, node: u8, key: &[u8], is_put: bool) {
        debug_assert!(self.route.is_none(), "closed-loop: one outstanding request");
        let idx = replicas.iter().position(|&n| n == node).unwrap_or(0);
        self.route = Some(Route {
            id,
            replicas,
            idx,
            key: key.to_vec(),
            is_put,
            invoke_ns: self.sim.now(),
        });
    }

    /// First replica whose breaker admits the upcoming request id;
    /// falls back to the primary when every breaker rejects (so the
    /// request still resolves — possibly by timeout — rather than
    /// silently dying).
    fn admit_route(&mut self, replicas: &[u8]) -> u8 {
        let now = self.sim.now();
        let id = self.kv.next_req_id();
        for &n in replicas {
            match self.breakers[n as usize].admit(now, id) {
                BreakerDecision::Send | BreakerDecision::SendProbe => return n,
                BreakerDecision::Reject => {}
            }
        }
        replicas[0]
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

    /// Drives the inner retransmit timers and translates their signals
    /// into cluster actions: a retransmit for the outstanding request
    /// rotates it to the next replica (failover; quorum reads rotate to
    /// a replica not yet heard from and chase it immediately); a final
    /// timeout records breaker failures and clears the request state.
    /// Returns the ids the inner client reported as timed out.
    pub fn poll_timers(&mut self) -> Vec<u32> {
        let before = self.kv.retries_sent();
        let timed_out = self.kv.poll_timers();
        self.note_partition_suspects();
        let now = self.sim.now();
        if let Some(mut q) = self.quorum.take() {
            if timed_out.contains(&q.id) {
                // The read is concluding as a timeout: every targeted
                // replica that never answered takes a breaker failure.
                // A replica that answered — even with SHED — already fed
                // its breaker at reply time and is skipped here.
                self.kv.cancel_fanout(q.id);
                for &t in &q.targeted {
                    if !q.responded.contains(&t) {
                        self.breakers[t as usize].on_failure(now, q.id);
                    }
                }
            } else {
                if self.kv.retries_sent() > before {
                    self.rotate_quorum(&mut q, now);
                }
                self.quorum = Some(q);
            }
            return timed_out;
        }
        let Some(mut route) = self.route.take() else {
            return timed_out;
        };
        let cur = route.replicas[route.idx % route.replicas.len()];
        if timed_out.contains(&route.id) {
            self.breakers[cur as usize].on_failure(now, route.id);
        } else {
            if self.kv.retries_sent() > before {
                self.breakers[cur as usize].on_failure(now, route.id);
                route.idx += 1;
                let next = route.replicas[route.idx % route.replicas.len()];
                self.kv.stack.set_peer_host(next);
                self.failovers.inc();
                self.kv.stack.telemetry().flight().record(
                    route.id,
                    now,
                    FlightEvent::Failover { node: next },
                );
            }
            self.route = Some(route);
        }
        timed_out
    }

    /// A quorum read's retransmit fired: the slowest target is suspect.
    /// Re-aim at a replica not yet heard from — preferring one never
    /// targeted — and chase it immediately, so a partitioned quorum
    /// member costs one backoff interval, not the whole read.
    fn rotate_quorum(&mut self, q: &mut QuorumRead, now: u64) {
        let heard = |n: u8| q.heard.iter().any(|(h, _)| *h == n);
        let next = q
            .replicas
            .iter()
            .copied()
            .find(|&n| !heard(n) && !q.targeted.contains(&n))
            .or_else(|| q.replicas.iter().copied().find(|&n| !heard(n)));
        let Some(next) = next else { return };
        if !q.targeted.contains(&next) {
            q.targeted.push(next);
        }
        self.kv.stack.set_peer_host(next);
        self.kv.resend_now(q.id);
        self.failovers.inc();
        self.kv
            .stack
            .telemetry()
            .flight()
            .record(q.id, now, FlightEvent::Failover { node: next });
    }

    /// Receives the next response, feeding outcomes to the serving
    /// node's breaker. [`ReadMode::Any`] reads and puts return the
    /// response as-is; quorum replies are collected until a majority of
    /// distinct replicas answered, then the highest-versioned response
    /// is returned and stale replicas are read-repaired.
    pub fn recv_response(&mut self) -> Option<Response> {
        loop {
            let resp = self.kv.recv_response()?;
            self.note_partition_suspects();
            let now = self.sim.now();
            if let Some(mut q) = self.quorum.take() {
                if resp.id == Some(q.id) {
                    let h = resp.from_host;
                    self.note_suspect_host(h);
                    // One breaker outcome per replica per read: duplicate
                    // frames and the timeout sweep must not stack onto it.
                    let first_outcome = !q.responded.contains(&h);
                    if resp.flags & flags::SHED != 0 {
                        if first_outcome {
                            q.responded.push(h);
                            if let Some(b) = self.breakers.get_mut(h as usize) {
                                b.on_failure(now, q.id);
                            }
                        }
                        self.quorum = Some(q);
                        continue;
                    }
                    if first_outcome {
                        q.responded.push(h);
                        if let Some(b) = self.breakers.get_mut(h as usize) {
                            b.on_success(now, q.id);
                        }
                    }
                    if !q.heard.iter().any(|(x, _)| *x == h) {
                        q.heard.push((h, resp));
                    }
                    if q.heard.len() >= q.need {
                        return Some(self.conclude_quorum(q, now));
                    }
                    self.quorum = Some(q);
                    continue;
                }
                self.quorum = Some(q);
            }
            if let Some(route) = self.route.take() {
                if resp.id == Some(route.id) {
                    let cur = route.replicas[route.idx % route.replicas.len()];
                    self.note_suspect_host(resp.from_host);
                    if resp.flags & flags::SHED != 0 {
                        self.breakers[cur as usize].on_failure(now, route.id);
                    } else {
                        self.breakers[cur as usize].on_success(now, route.id);
                        if resp.flags & flags::DEGRADED == 0 {
                            self.history.record(OpRecord {
                                key: route.key.clone(),
                                op: if route.is_put {
                                    OpKind::Put
                                } else {
                                    OpKind::Get
                                },
                                version: resp.version,
                                invoke_ns: route.invoke_ns,
                                complete_ns: now,
                            });
                        }
                    }
                } else {
                    // Response for some other (already-resolved) id; keep
                    // the outstanding route untouched.
                    self.route = Some(route);
                }
            }
            return Some(resp);
        }
    }

    /// A majority answered: settle the request, pick the
    /// highest-versioned reply (first heard wins ties), push
    /// read-repairs to every stale replica heard from, and record the
    /// observation.
    fn conclude_quorum(&mut self, q: QuorumRead, now: u64) -> Response {
        self.kv.finish_request(q.id);
        let mut best = 0;
        for (i, (_, r)) in q.heard.iter().enumerate() {
            if r.version > q.heard[best].1.version {
                best = i;
            }
        }
        let best_version = q.heard[best].1.version;
        if best_version > 0 {
            if let Some(val) = q.heard[best].1.vals.first().cloned() {
                for (h, r) in &q.heard {
                    if r.version < best_version {
                        self.kv.stack.set_peer_host(*h);
                        self.kv.send_repair_put(&q.key, &val, best_version);
                        self.read_repairs.inc();
                        self.kv.stack.telemetry().flight().record(
                            q.id,
                            now,
                            FlightEvent::ReplicaPut { node: *h },
                        );
                    }
                }
            }
        }
        self.history.record(OpRecord {
            key: q.key,
            op: OpKind::Get,
            version: best_version,
            invoke_ns: q.invoke_ns,
            complete_ns: now,
        });
        q.heard.into_iter().nth(best).expect("best reply exists").1
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
