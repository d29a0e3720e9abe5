//! The load-generating client, matching the server's serialization kind.
//!
//! The client runs on its own [`cf_sim::Sim`] (its own machine), so nothing
//! it does counts toward server service time. Helper constructors wire a
//! client/server pair over a simulated link.
//!
//! With [`KvClient::enable_retries`] the client tracks in-flight requests
//! against virtual-time deadlines: [`KvClient::poll_timers`] retransmits
//! overdue requests with the *same* request id (so the server's dedup
//! window keeps retried puts exactly-once) under exponential backoff, and
//! gives up after a bounded number of retries, reporting the id as a typed
//! timeout. Duplicate or late responses are filtered out and counted.

use std::collections::{HashMap, HashSet};

use cf_mem::PoolConfig;
use cf_net::{FrameMeta, NetError, UdpStack};
use cf_nic::link;
use cf_sim::rng::SplitMix64;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Telemetry};
use cornflakes_core::SerializationConfig;

use crate::codec::{with_codec, Codecs, KvCodec};
use crate::flags;
use crate::msg_type;
use crate::overload::{
    decorrelated_jitter, jitter_seed_for, BreakerConfig, BreakerDecision, BreakerState,
    CircuitBreaker, RetryBudget, RetryBudgetConfig,
};
use crate::server::{KvServer, SerKind};
use crate::sharded::{shard_of_key, steering_ports};

/// Client-side ports.
pub const CLIENT_PORT: u16 = 4000;
/// Server-side port.
pub const SERVER_PORT: u16 = 9000;

/// A decoded response, with values copied out for validation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub id: Option<u32>,
    /// Application flags from the frame header (e.g.
    /// [`crate::flags::DEGRADED`]).
    pub flags: u8,
    /// Value buffers, in order.
    pub vals: Vec<Vec<u8>>,
    /// Per-key value version from the frame header (0 = unversioned;
    /// cluster replies carry the coordinator-assigned version). Only
    /// single-key requests stamp it — a batched multi-get reply leaves
    /// it 0, since the one header slot is attributable to no particular
    /// key of the batch.
    pub version: u64,
    /// Source host id of the reply (0 on point-to-point links).
    pub from_host: u8,
    /// Total payload bytes on the wire (for Gbps accounting).
    pub payload_bytes: usize,
}

/// Retransmission policy for [`KvClient::enable_retries`].
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Virtual-time deadline for the first attempt, in nanoseconds.
    /// Subsequent attempts back off exponentially (doubling per retry).
    pub timeout_ns: u64,
    /// Retransmissions after the original send before the request is
    /// reported as timed out.
    pub max_retries: u32,
    /// Ceiling on any single backoff interval (0 = uncapped). Bounds the
    /// exponential growth so deep retry counts cannot overflow or stall.
    pub max_backoff_ns: u64,
    /// When set, backoffs use AWS-style decorrelated jitter
    /// (`min(cap, uniform(base, 3 × previous))`) from a [`SplitMix64`]
    /// seeded here, de-synchronizing retry storms across clients while
    /// keeping runs reproducible. `None` keeps plain doubling.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            timeout_ns: 500_000,
            max_retries: 3,
            max_backoff_ns: 8_000_000,
            jitter_seed: None,
        }
    }
}

impl RetryConfig {
    /// The same policy with the jitter seed derived from
    /// `(base_seed, client_id)` via
    /// [`crate::overload::jitter_seed_for`]. Multi-client harnesses MUST
    /// seed through this (not a shared literal) or every client replays
    /// the same "decorrelated" backoff sequence and their retries
    /// re-collide as one synchronized storm.
    pub fn for_client(mut self, base_seed: u64, client_id: u64) -> Self {
        self.jitter_seed = Some(jitter_seed_for(base_seed, client_id));
        self
    }
}

/// Client-side overload protection for [`KvClient::enable_protection`]:
/// a retry budget plus a per-server circuit breaker.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtectionConfig {
    /// Token-bucket retry budget (see [`RetryBudget`]).
    pub budget: RetryBudgetConfig,
    /// Circuit-breaker tuning (see [`CircuitBreaker`]).
    pub breaker: BreakerConfig,
}

/// Live protection state: the budget, the breaker for the (single)
/// server this client talks to, and ids the breaker fast-failed locally,
/// drained by [`KvClient::poll_timers`].
#[derive(Debug)]
struct Protection {
    budget: RetryBudget,
    breaker: CircuitBreaker,
    fast_failed: Vec<u32>,
}

/// An in-flight request retained for retransmission.
#[derive(Debug)]
struct PendingReq {
    mtype: u8,
    index: Option<u32>,
    keys: Vec<Vec<u8>>,
    vals: Vec<Vec<u8>>,
    deadline: u64,
    retries: u32,
    /// Previous backoff interval (feeds decorrelated jitter).
    last_backoff: u64,
}

/// The client's reliability counter cells, owned from construction and
/// adopted as `kv.client.*` by [`KvClient::set_telemetry`].
#[derive(Debug, Default)]
struct ClientCounters {
    retries: Counter,
    timeouts: Counter,
    stale_responses: Counter,
    shed_replies: Counter,
    retry_budget_exhausted: Counter,
    breaker_fast_fails: Counter,
    breaker_open: Counter,
    breaker_half_open: Counter,
    breaker_close: Counter,
}

impl ClientCounters {
    /// Counts a breaker state transition.
    fn note_breaker(&self, prev: BreakerState, cur: BreakerState) {
        if prev == cur {
            return;
        }
        match cur {
            BreakerState::Open => self.breaker_open.inc(),
            BreakerState::HalfOpen => self.breaker_half_open.inc(),
            BreakerState::Closed => self.breaker_close.inc(),
        }
    }
}

/// The key-value client.
#[derive(Debug)]
pub struct KvClient {
    /// The client's datapath (own simulation).
    pub stack: UdpStack,
    kind: SerKind,
    next_id: u32,
    retry: Option<RetryConfig>,
    jitter_rng: Option<SplitMix64>,
    protection: Option<Protection>,
    pending: HashMap<u32, PendingReq>,
    /// Request ids fanned out to several hosts under one id (quorum
    /// reads). While marked, every reply is delivered (never counted
    /// stale) and the pending entry survives each reply so the retransmit
    /// timer keeps running until the caller settles the read.
    fanout: HashSet<u32>,
    /// Source hosts of stale (no-longer-pending) responses since the last
    /// [`KvClient::drain_stale_sources`] — the raw signal a routing layer
    /// uses to tell a partitioned-but-alive peer from a dead one.
    stale_sources: Vec<u8>,
    /// Per-shard source ports: entry `q` is a source port whose flow to
    /// [`SERVER_PORT`] RSS-steers to queue `q`. Empty = steering disabled.
    steer_ports: Vec<u16>,
    counters: ClientCounters,
    codecs: Codecs,
    /// Value buffers a short reply left over, for the next long one.
    reply_spare: Vec<Vec<u8>>,
}

/// Creates a connected (client, server) pair: the client on its own
/// throwaway simulation, the server on `server_sim` with the given config.
pub fn client_server_pair(
    server_sim: Sim,
    kind: SerKind,
    config: SerializationConfig,
    server_pool: PoolConfig,
) -> (KvClient, KvServer) {
    let (cp, sp) = link();
    let client_sim = Sim::new(MachineProfile::cloudlab_c6525());
    let client_stack = UdpStack::new(client_sim, cp, CLIENT_PORT, SerializationConfig::hybrid());
    let server_stack = UdpStack::with_pool_config(server_sim, sp, SERVER_PORT, config, server_pool);
    (
        KvClient::new(client_stack, kind),
        KvServer::new(server_stack, kind),
    )
}

impl KvClient {
    /// Creates a client over an existing stack.
    pub fn new(stack: UdpStack, kind: SerKind) -> Self {
        KvClient {
            stack,
            kind,
            next_id: 1,
            retry: None,
            jitter_rng: None,
            protection: None,
            pending: HashMap::new(),
            fanout: HashSet::new(),
            stale_sources: Vec::new(),
            steer_ports: Vec::new(),
            counters: ClientCounters::default(),
            codecs: Codecs::default(),
            reply_spare: Vec::new(),
        }
    }

    /// Turns on shard steering against a multi-queue server with the given
    /// RSS profile: for each server queue the client picks a source port
    /// whose flow hash lands on that queue, and every request is sent from
    /// the port owned by the shard of its first key — so a key's request
    /// always arrives on the queue whose [`crate::store::KvStore`] holds
    /// the key. This mirrors what real kernel-bypass clients do: the NIC's
    /// hash function and key are documented precisely so software can
    /// predict placements.
    pub fn enable_steering(&mut self, rss: &cf_nic::RssConfig) {
        self.steer_ports = steering_ports(rss);
    }

    /// The per-shard source ports steering is using (empty when disabled).
    pub fn steer_ports(&self) -> &[u16] {
        &self.steer_ports
    }

    /// Turns on request tracking and retransmission with the given policy.
    /// From here on every request is held until its response arrives or it
    /// times out; [`KvClient::poll_timers`] drives the retransmissions.
    pub fn enable_retries(&mut self, config: RetryConfig) {
        self.jitter_rng = config.jitter_seed.map(SplitMix64::new);
        self.retry = Some(config);
    }

    /// Turns on client-side overload protection: a [`RetryBudget`] capping
    /// retries as a fraction of fresh traffic, and a [`CircuitBreaker`]
    /// that fast-fails sends locally once the server stops answering
    /// (driven by `SHED` replies and timeouts), half-opening with a probe
    /// request after [`BreakerConfig::open_ns`]. Fast-failed ids surface
    /// through [`KvClient::poll_timers`] like timeouts.
    pub fn enable_protection(&mut self, config: ProtectionConfig) {
        self.protection = Some(Protection {
            budget: RetryBudget::new(config.budget),
            breaker: CircuitBreaker::new(config.breaker),
            fast_failed: Vec::new(),
        });
    }

    /// Current breaker state (`None` when protection is disabled).
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.protection.as_ref().map(|p| p.breaker.state())
    }

    /// Attaches `tele` to the client and its stack (and so the client-side
    /// NIC): the `kv.client.*` cells are adopted holding whatever they have
    /// counted so far, and client lifecycle events — sends, retries,
    /// breaker fast-fails, timeouts, stale/shed replies, receives — join
    /// `tele`'s flight recorder, stamped with the *client's* virtual clock
    /// and keyed by the same request id the server sees on the wire.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.stack.set_telemetry(tele);
        let c = &self.counters;
        tele.adopt_counter("kv.client.retries", &c.retries);
        tele.adopt_counter("kv.client.timeouts", &c.timeouts);
        tele.adopt_counter("kv.client.stale_responses", &c.stale_responses);
        tele.adopt_counter("kv.client.shed_replies", &c.shed_replies);
        tele.adopt_counter(
            "kv.client.retry_budget_exhausted",
            &c.retry_budget_exhausted,
        );
        tele.adopt_counter("kv.client.breaker_fast_fails", &c.breaker_fast_fails);
        tele.adopt_counter("kv.client.breaker_open", &c.breaker_open);
        tele.adopt_counter("kv.client.breaker_half_open", &c.breaker_half_open);
        tele.adopt_counter("kv.client.breaker_close", &c.breaker_close);
    }

    /// [`KvClient::set_telemetry`] with the handle already attached,
    /// carrying `fr` as its flight recorder.
    pub fn set_flight_recorder(&mut self, fr: &FlightRecorder) {
        self.set_telemetry(&self.stack.telemetry().with_flight(fr));
    }

    /// Request ids still awaiting a response, in send order (empty unless
    /// retries are enabled).
    pub fn pending_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The request id the next send will use. Lets routing layers make
    /// per-request admission decisions (e.g. breaker probes) before the
    /// id is actually allocated by the send.
    pub fn next_req_id(&self) -> u32 {
        self.next_id
    }

    /// Marks `id` as fanned out to several hosts under one request id (a
    /// quorum read): while marked, replies for `id` are always delivered
    /// — never counted stale — and the pending entry survives each reply,
    /// so the retransmit timer keeps running until the caller settles the
    /// read. The caller MUST end the fan-out with
    /// [`KvClient::finish_request`] on conclusion or
    /// [`KvClient::cancel_fanout`] after a timeout.
    pub fn begin_fanout(&mut self, id: u32) {
        self.fanout.insert(id);
    }

    /// Ends a fan-out without touching the pending entry (the timeout
    /// path of [`KvClient::poll_timers`] already removed it). Late
    /// replies go back to being counted stale.
    pub fn cancel_fanout(&mut self, id: u32) {
        self.fanout.remove(&id);
    }

    /// Concludes a fanned-out request: drops its pending entry and
    /// fan-out mark. Replies still in flight are absorbed as stale.
    pub fn finish_request(&mut self, id: u32) {
        self.pending.remove(&id);
        self.fanout.remove(&id);
    }

    /// Re-transmits a pending request immediately toward the stack's
    /// current peer host, without waiting for its backoff deadline — how
    /// a quorum read chases an unheard replica the moment a partition is
    /// suspected. The deadline and retry count are untouched.
    pub fn resend_now(&mut self, id: u32) {
        let Some(p) = self.pending.get(&id) else {
            return;
        };
        let meta = FrameMeta {
            msg_type: p.mtype,
            flags: 0,
            req_id: id,
        };
        let index = p.index;
        let keys: Vec<Vec<u8>> = p.keys.clone();
        let vals: Vec<Vec<u8>> = p.vals.clone();
        let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let val_refs: Vec<&[u8]> = vals.iter().map(Vec::as_slice).collect();
        let _ = self.transmit(meta, index, &key_refs, &val_refs, 0);
    }

    /// Fire-and-forget read-repair: pushes `(key, val)` at `version` to
    /// the stack's current peer host as a [`msg_type::REPL_PUT`] under a
    /// fresh, untracked request id — no pending entry, no retries; the
    /// receiving replica's versioned apply ignores it if it lost the race
    /// to a newer write, and its `REPL_ACK` is absorbed silently by
    /// [`KvClient::recv_response`]. Returns the request id used.
    pub fn send_repair_put(&mut self, key: &[u8], val: &[u8], version: u64) -> u32 {
        let meta = self.meta(msg_type::REPL_PUT);
        let _ = self.transmit(meta, None, &[key], &[val], version);
        meta.req_id
    }

    /// Source hosts of stale responses observed since the last call — the
    /// raw signal for telling a partitioned-but-alive peer (still
    /// emitting late replies) from a dead one (silent).
    pub fn drain_stale_sources(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stale_sources)
    }

    /// Retransmissions so far (counts even without telemetry attached).
    pub fn retries_sent(&self) -> u64 {
        self.counters.retries.get()
    }

    /// Requests concluded as timed out so far.
    pub fn timeouts_seen(&self) -> u64 {
        self.counters.timeouts.get()
    }

    /// `SHED` fast-rejects observed so far.
    pub fn sheds_seen(&self) -> u64 {
        self.counters.shed_replies.get()
    }

    /// Retries suppressed because the retry budget was exhausted.
    pub fn budget_exhausted_count(&self) -> u64 {
        self.counters.retry_budget_exhausted.get()
    }

    /// Sends the breaker rejected locally without touching the wire.
    pub fn breaker_fast_fail_count(&self) -> u64 {
        self.counters.breaker_fast_fails.get()
    }

    fn meta(&mut self, msg_type: u8) -> FrameMeta {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        FrameMeta {
            msg_type,
            flags: 0,
            req_id: id,
        }
    }

    /// Sends a GetM-shaped request: `keys` (+ optional `vals` for puts,
    /// and an auxiliary index in `id` for segment gets). Returns the
    /// request id.
    pub fn send_request(
        &mut self,
        mtype: u8,
        index: Option<u32>,
        keys: &[&[u8]],
        vals: &[&[u8]],
    ) -> u32 {
        let meta = self.meta(mtype);
        if let Some(prot) = &mut self.protection {
            prot.budget.on_fresh_request();
            let prev = prot.breaker.state();
            let now = self.stack.sim().now();
            let decision = prot.breaker.admit(now, meta.req_id);
            self.counters.note_breaker(prev, prot.breaker.state());
            if decision == BreakerDecision::Reject {
                // Fast-fail locally: never touches the wire. The id is
                // surfaced through poll_timers like a timeout.
                self.counters.breaker_fast_fails.inc();
                let flight = self.stack.telemetry().flight();
                flight.record(meta.req_id, now, FlightEvent::BreakerFastFail);
                prot.fast_failed.push(meta.req_id);
                return meta.req_id;
            }
        }
        if let Some(retry) = self.retry {
            self.pending.insert(
                meta.req_id,
                PendingReq {
                    mtype,
                    index,
                    keys: keys.iter().map(|k| k.to_vec()).collect(),
                    vals: vals.iter().map(|v| v.to_vec()).collect(),
                    deadline: self.stack.sim().now() + retry.timeout_ns,
                    retries: 0,
                    last_backoff: retry.timeout_ns,
                },
            );
        }
        let flight = self.stack.telemetry().flight();
        flight.record(meta.req_id, self.stack.sim().now(), FlightEvent::ClientSend);
        self.transmit(meta, index, keys, vals, 0)
            .expect("request send");
        meta.req_id
    }

    /// Checks in-flight requests against the virtual clock. Overdue
    /// requests are retransmitted with the same id under exponential
    /// backoff; requests out of retries are dropped and their ids returned
    /// (the typed timeout signal). No-op unless retries are enabled.
    pub fn poll_timers(&mut self) -> Vec<u32> {
        let mut timed_out = Vec::new();
        if let Some(prot) = &mut self.protection {
            // Ids the breaker fast-failed at send time conclude here, so
            // callers see them through the same channel as timeouts.
            timed_out.append(&mut prot.fast_failed);
        }
        let Some(retry) = self.retry else {
            return timed_out;
        };
        let now = self.stack.sim().now();
        let mut due: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        // Request-id order is send order. The map's own order changes with
        // every `RandomState`, and this loop hands out the last retry-budget
        // token and the jitter draws: unsorted, one seed replays differently.
        due.sort_unstable();
        for id in due {
            let p = self.pending.get_mut(&id).expect("due id is pending");
            if p.retries >= retry.max_retries {
                self.pending.remove(&id);
                self.counters.timeouts.inc();
                self.stack
                    .telemetry()
                    .flight()
                    .record(id, now, FlightEvent::ClientTimeout);
                if let Some(prot) = &mut self.protection {
                    let prev = prot.breaker.state();
                    prot.breaker.on_failure(now, id);
                    self.counters.note_breaker(prev, prot.breaker.state());
                }
                timed_out.push(id);
                continue;
            }
            if let Some(prot) = &mut self.protection {
                if !prot.budget.try_spend() {
                    // Budget exhausted: fail now rather than amplify the
                    // overload with another retransmission.
                    self.pending.remove(&id);
                    self.counters.timeouts.inc();
                    self.counters.retry_budget_exhausted.inc();
                    let flight = self.stack.telemetry().flight();
                    flight.record(id, now, FlightEvent::RetryBudgetExhausted);
                    let prev = prot.breaker.state();
                    prot.breaker.on_failure(now, id);
                    self.counters.note_breaker(prev, prot.breaker.state());
                    timed_out.push(id);
                    continue;
                }
            }
            let p = self.pending.get_mut(&id).expect("due id is pending");
            p.retries += 1;
            let cap = if retry.max_backoff_ns == 0 {
                u64::MAX
            } else {
                retry.max_backoff_ns
            };
            let backoff = match &mut self.jitter_rng {
                Some(rng) => {
                    decorrelated_jitter(rng, retry.timeout_ns, p.last_backoff, retry.max_backoff_ns)
                }
                // Exponential backoff: double per attempt, saturating so
                // deep retry counts can't overflow, bounded by the cap.
                None => retry
                    .timeout_ns
                    .saturating_mul(1u64 << p.retries.min(16))
                    .min(cap),
            };
            p.last_backoff = backoff;
            p.deadline = now.saturating_add(backoff);
            let retries_now = p.retries;
            self.counters.retries.inc();
            self.stack.telemetry().flight().record(
                id,
                now,
                FlightEvent::ClientRetry {
                    attempt: retries_now.min(u8::MAX as u32) as u8,
                    backoff_ns: backoff,
                },
            );
            // A failed retransmission (e.g. transient tx-pool pressure) is
            // not fatal: the deadline fires again and we try once more.
            self.resend_now(id);
        }
        timed_out
    }

    fn transmit(
        &mut self,
        meta: FrameMeta,
        index: Option<u32>,
        keys: &[&[u8]],
        vals: &[&[u8]],
        version: u64,
    ) -> Result<(), NetError> {
        let mut hdr = self.stack.header_to(SERVER_PORT, meta);
        hdr.version = version;
        if !self.steer_ports.is_empty() {
            if let Some(key) = keys.first() {
                let shard = shard_of_key(key, self.steer_ports.len());
                hdr.src_port = self.steer_ports[shard];
            }
        }
        let stack = &mut self.stack;
        let (keys, vals) = (keys.iter().copied(), vals.iter().copied());
        with_codec!(self.kind, self.codecs, |codec| codec
            .send_fields(stack, hdr, index, keys, vals))
    }

    /// Sends a get for one or more keys.
    pub fn send_get(&mut self, keys: &[&[u8]]) -> u32 {
        self.send_request(msg_type::GET, None, keys, &[])
    }

    /// Sends a put.
    pub fn send_put(&mut self, key: &[u8], val: &[u8]) -> u32 {
        self.send_request(msg_type::PUT, None, &[key], &[val])
    }

    /// Sends a get for one segment of a segmented value.
    pub fn send_get_segment(&mut self, key: &[u8], segment: u32) -> u32 {
        self.send_request(msg_type::GET_SEGMENT, Some(segment), &[key], &[])
    }

    /// Receives and decodes the next response, if any. With retries
    /// enabled, responses whose id is no longer pending — late duplicates
    /// of an already-answered or timed-out request — are dropped and
    /// counted as `kv.client.stale_responses`.
    pub fn recv_response(&mut self) -> Option<Response> {
        let mut out = Response::default();
        self.recv_response_into(&mut out).then_some(out)
    }

    /// Like [`KvClient::recv_response`], but decodes into a caller-owned
    /// [`Response`], reusing its `vals` buffers instead of allocating
    /// fresh ones — the zero-alloc receive path for steady-state drivers.
    /// Returns `false` when no (decodable) response is available; `out` is
    /// unspecified in that case.
    pub fn recv_response_into(&mut self, out: &mut Response) -> bool {
        loop {
            let Some(pkt) = self.stack.recv_packet() else {
                return false;
            };
            if pkt.hdr.meta.msg_type == msg_type::REPL_ACK {
                // Ack for a fire-and-forget read-repair REPL_PUT; nothing
                // pends on it and there is no payload to decode.
                continue;
            }
            let fanned = self.fanout.contains(&pkt.hdr.meta.req_id);
            if self.retry.is_some()
                && !fanned
                && self.pending.remove(&pkt.hdr.meta.req_id).is_none()
            {
                self.counters.stale_responses.inc();
                self.stale_sources.push(pkt.hdr.src_host);
                self.stack.telemetry().flight().record(
                    pkt.hdr.meta.req_id,
                    self.stack.sim().now(),
                    FlightEvent::StaleReply,
                );
                continue;
            }
            let flags = pkt.hdr.meta.flags;
            out.flags = flags;
            out.version = pkt.hdr.version;
            out.from_host = pkt.hdr.src_host;
            out.payload_bytes = pkt.payload.len();
            if flags & flags::SHED != 0 {
                // Header-only fast reject: there is no payload to decode.
                // The request was never served; a shed counts as a failure
                // for the breaker (the server is telling us to back off).
                self.counters.shed_replies.inc();
                self.stack.telemetry().flight().record(
                    pkt.hdr.meta.req_id,
                    self.stack.sim().now(),
                    FlightEvent::ShedReply,
                );
                if let Some(prot) = &mut self.protection {
                    let now = self.stack.sim().now();
                    let prev = prot.breaker.state();
                    prot.breaker.on_failure(now, pkt.hdr.meta.req_id);
                    self.counters.note_breaker(prev, prot.breaker.state());
                }
                out.id = Some(pkt.hdr.meta.req_id);
                out.vals.clear();
                return true;
            }
            if let Some(prot) = &mut self.protection {
                let now = self.stack.sim().now();
                let prev = prot.breaker.state();
                prot.breaker.on_success(now, pkt.hdr.meta.req_id);
                self.counters.note_breaker(prev, prot.breaker.state());
            }
            self.stack.telemetry().flight().record(
                pkt.hdr.meta.req_id,
                self.stack.sim().now(),
                FlightEvent::ClientRecv { flags },
            );
            let ctx = self.stack.ctx();
            let Ok(id) = with_codec!(self.kind, self.codecs, |codec| codec.read_reply(
                ctx,
                &pkt.payload,
                &mut out.vals,
                &mut self.reply_spare
            )) else {
                return false;
            };
            out.id = id;
            return true;
        }
    }
}
