//! The UDP key-value server, generic over the serialization approach
//! (paper §6.1.3: each baseline gets the network API that minimizes its
//! copies).

use std::collections::{HashMap, HashSet, VecDeque};

use cf_net::{FrameMeta, Packet, UdpStack, HEADER_BYTES};
use cf_sim::cost::Category;
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Telemetry};
use cornflakes_core::{CFBytes, CornflakesObj};

use cf_baselines::capnlite::{CapnGetM, CapnReader};
use cf_baselines::flatlite::{FlatGetM, FlatGetMView};
use cf_baselines::protolite::PGetM;

use crate::msgs::GetMsg;
use crate::overload::AdmissionConfig;
use crate::store::KvStore;
use crate::{flags, msg_type};

/// Which serialization library the server (and its clients) use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SerKind {
    /// Cornflakes (hybrid zero-copy; the threshold comes from the stack's
    /// [`cornflakes_core::SerializationConfig`]).
    Cornflakes,
    /// Protobuf-style baseline.
    Protobuf,
    /// FlatBuffers-style baseline.
    FlatBuffers,
    /// Cap'n Proto-style baseline.
    CapnProto,
}

impl SerKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SerKind::Cornflakes => "Cornflakes",
            SerKind::Protobuf => "Protobuf",
            SerKind::FlatBuffers => "FlatBuffers",
            SerKind::CapnProto => "Cap'n Proto",
        }
    }

    /// All kinds, Cornflakes first.
    pub fn all() -> [SerKind; 4] {
        [
            SerKind::Cornflakes,
            SerKind::Protobuf,
            SerKind::FlatBuffers,
            SerKind::CapnProto,
        ]
    }

    /// Lowercase key used in metric names (`kv.<key>.requests` etc.).
    pub fn metric_key(self) -> &'static str {
        match self {
            SerKind::Cornflakes => "cornflakes",
            SerKind::Protobuf => "protobuf",
            SerKind::FlatBuffers => "flatbuffers",
            SerKind::CapnProto => "capnproto",
        }
    }
}

/// Per-[`SerKind`] server counters; default handles are unregistered no-ops.
#[derive(Debug, Default)]
struct KvCounters {
    requests: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    zero_copy_entries: Counter,
    puts_applied: Counter,
    dedup_hits: Counter,
    degraded_replies: Counter,
    reply_drops: Counter,
    malformed_drops: Counter,
    shed_drops: Counter,
    backlog: Gauge,
}

/// Why a `handle_*` function dropped a request without replying: the payload
/// did not decode, a segment fetch named no key, or a put lacked its key or
/// value. Counted once, in [`KvServer::handle`], as `malformed_drops`.
#[derive(Debug)]
struct Malformed;

/// Default [`DedupWindow`] capacity: far exceeds any plausible retry
/// window. Configurable per server via [`KvServer::set_dedup_capacity`].
pub const DEFAULT_DEDUP_CAPACITY: usize = 4096;

/// A bounded window of recently applied put request-ids, giving retried
/// puts exactly-once semantics under client retransmission. Eviction is
/// FIFO; the default capacity far exceeds any plausible retry window.
#[derive(Debug)]
struct DedupWindow {
    seen: HashSet<u32>,
    order: VecDeque<u32>,
    capacity: usize,
}

impl DedupWindow {
    fn new(capacity: usize) -> Self {
        DedupWindow {
            seen: HashSet::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.seen.contains(&id)
    }

    fn record(&mut self, id: u32) {
        if !self.seen.insert(id) {
            return;
        }
        self.order.push_back(id);
        self.trim();
    }

    /// Resizes the window, evicting oldest-first if shrinking below the
    /// current occupancy.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }

    fn trim(&mut self) {
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
    }
}

/// One request admitted into the pending backlog, stamped with its
/// arrival time on the *arrival* clock (the caller's `now_ns`, which may
/// run ahead of this shard's lagging service clock under overload).
#[derive(Debug)]
struct Admitted {
    arrival_ns: u64,
    pkt: Packet,
}

/// Admission-control state: the bounded pending-request backlog.
#[derive(Debug)]
struct AdmissionState {
    cfg: AdmissionConfig,
    backlog: VecDeque<Admitted>,
}

/// The key-value server: store + datapath + serialization strategy.
#[derive(Debug)]
pub struct KvServer {
    /// The server's datapath.
    pub stack: UdpStack,
    /// The store engine.
    pub store: KvStore,
    /// Serialization strategy.
    pub kind: SerKind,
    /// Segment size used when storing put values.
    pub put_segment_size: usize,
    /// Raw scatter-gather mode (measurement study, §2.4/Figure 3): skip the
    /// memory-safety bookkeeping entirely and post value buffers directly.
    /// Only meaningful with [`SerKind::Cornflakes`].
    pub raw_zero_copy: bool,
    counters: KvCounters,
    dedup: DedupWindow,
    /// Per-key value versions. Populated only by the cluster layer's
    /// versioned apply path; single-node servers leave it empty, so every
    /// reply carries version 0 and the wire stays byte-identical to the
    /// pre-versioning format.
    versions: HashMap<Vec<u8>, u64>,
    admission: Option<AdmissionState>,
    flight: FlightRecorder,
    /// Scratch request/response messages for the Cornflakes datapath:
    /// requests decode in place into `req_scratch` and replies are rebuilt
    /// in `resp_scratch`, so list capacities persist across requests and a
    /// warm server handles GETs and PUTs without heap allocation.
    req_scratch: GetMsg,
    resp_scratch: GetMsg,
    /// Recycled slice-scratch for the FlatBuffers batched-GET handler (the
    /// per-request `Vec<&[u8]>` of value segments). Stored with a `'static`
    /// tag but always empty between requests — see [`recycle_slices`].
    flat_vals_spare: Vec<&'static [u8]>,
}

/// Recycles a slice-scratch vector for storage between requests: emptied,
/// then retagged `'static` so it can live in the server struct. Taking it
/// back out needs no unsafety — `Vec` is covariant, so the `'static` tag
/// shortens to the next request's lifetime implicitly.
fn recycle_slices(mut v: Vec<&[u8]>) -> Vec<&'static [u8]> {
    v.clear();
    let ptr = v.as_mut_ptr();
    let cap = v.capacity();
    std::mem::forget(v);
    // SAFETY: the vector was emptied above, so no borrowed slice survives
    // into the returned vector; `len == 0` means no `&'static [u8]` value
    // is ever fabricated. Only the allocation is reused, and the element
    // layout is identical on both sides of the cast.
    unsafe { Vec::from_raw_parts(ptr.cast::<&'static [u8]>(), 0, cap) }
}

impl KvServer {
    /// Creates a server over `stack` with the given strategy.
    pub fn new(stack: UdpStack, kind: SerKind) -> Self {
        let store = KvStore::new(stack.sim().clone());
        KvServer {
            stack,
            store,
            kind,
            put_segment_size: 8192,
            raw_zero_copy: false,
            counters: KvCounters::default(),
            dedup: DedupWindow::new(DEFAULT_DEDUP_CAPACITY),
            versions: HashMap::new(),
            admission: None,
            flight: FlightRecorder::disabled(),
            req_scratch: GetMsg::new(),
            resp_scratch: GetMsg::new(),
            flat_vals_spare: Vec::new(),
        }
    }

    /// Resizes the put-dedup window (default
    /// [`DEFAULT_DEDUP_CAPACITY`]). A smaller window uses less memory but
    /// forgets old request ids sooner: a put retried after more than
    /// `capacity` intervening successful puts would be re-applied.
    /// Shrinking evicts oldest-first immediately.
    pub fn set_dedup_capacity(&mut self, capacity: usize) {
        self.dedup.set_capacity(capacity);
    }

    /// Wires the server into a telemetry handle: the datapath/NIC/memory
    /// metrics via [`UdpStack::set_telemetry`], plus per-[`SerKind`]
    /// `kv.<kind>.*` counters and a span tree per handled request.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.set_telemetry_scoped(tele, self.kind.metric_key());
    }

    /// Like [`KvServer::set_telemetry`] with an explicit metric scope:
    /// counters register as `kv.<scope>.*`. Sharded servers scope each
    /// shard as `shardN` so cross-queue accounting stays separable.
    pub fn set_telemetry_scoped(&mut self, tele: &Telemetry, scope: &str) {
        self.stack.set_telemetry(tele);
        let k = scope;
        self.counters = KvCounters {
            requests: tele.counter(&format!("kv.{k}.requests")),
            bytes_in: tele.counter(&format!("kv.{k}.bytes_in")),
            bytes_out: tele.counter(&format!("kv.{k}.bytes_out")),
            zero_copy_entries: tele.counter(&format!("kv.{k}.zero_copy_entries")),
            puts_applied: tele.counter(&format!("kv.{k}.puts_applied")),
            dedup_hits: tele.counter(&format!("kv.{k}.dedup_hits")),
            degraded_replies: tele.counter(&format!("kv.{k}.degraded_replies")),
            reply_drops: tele.counter(&format!("kv.{k}.reply_drops")),
            malformed_drops: tele.counter(&format!("kv.{k}.malformed_drops")),
            shed_drops: tele.counter(&format!("kv.{k}.shed_drops")),
            backlog: tele.gauge(&format!("kv.{k}.backlog")),
        };
    }

    /// Installs a request-scoped flight recorder on the server and its
    /// stack (and, when this server owns its NIC, the NIC's per-queue
    /// events). Server events — admission, shedding (with sojourn), shard
    /// dispatch, dedup hits, replies — are keyed by the wire request id
    /// and stamped with this server's clocks (arrival clock for admission
    /// and shedding, service clock for dispatch and reply).
    pub fn set_flight_recorder(&mut self, fr: &FlightRecorder) {
        self.flight = fr.clone();
        self.stack.set_flight_recorder(fr);
    }

    /// Puts applied exactly once (excludes dedup hits and degraded
    /// failures) — the ground truth the chaos tests compare against.
    pub fn puts_applied(&self) -> u64 {
        self.counters.puts_applied.get()
    }

    /// Retried puts absorbed by the dedup window.
    pub fn dedup_hits(&self) -> u64 {
        self.counters.dedup_hits.get()
    }

    /// Requests answered with [`flags::DEGRADED`] under memory pressure.
    pub fn degraded_replies(&self) -> u64 {
        self.counters.degraded_replies.get()
    }

    /// Requests handled (any message type).
    pub fn requests_handled(&self) -> u64 {
        self.counters.requests.get()
    }

    /// Requests dropped without a reply because they were malformed:
    /// undecodable payload, key-less segment fetch, put without key or value.
    pub fn malformed_drops(&self) -> u64 {
        self.counters.malformed_drops.get()
    }

    /// Requests rejected by the admission layer with a `SHED` fast-reject.
    pub fn shed_drops(&self) -> u64 {
        self.counters.shed_drops.get()
    }

    /// Whether admission control is enabled.
    pub fn admission_enabled(&self) -> bool {
        self.admission.is_some()
    }

    /// Pending requests currently queued by the admission layer.
    pub fn backlog_len(&self) -> usize {
        self.admission.as_ref().map_or(0, |a| a.backlog.len())
    }

    /// Enables server-side admission control: a bounded pending-request
    /// backlog with CoDel-style shedding (oldest-first drop once sojourn
    /// exceeds the target, answered by a header-only `SHED` fast-reject)
    /// and GET-over-PUT priority under pressure. Also bounds the socket's
    /// NIC rx staging ring, so load beyond what the backlog absorbs is
    /// tail-dropped for free before the host touches it.
    ///
    /// With admission on, [`KvServer::poll`] routes through
    /// [`KvServer::poll_admitted`]; overload harnesses drive
    /// [`KvServer::poll_admitted_until`] directly with an explicit arrival
    /// clock and service horizon.
    pub fn enable_admission(&mut self, cfg: AdmissionConfig) {
        self.stack.set_rx_backlog_limit(cfg.rx_backlog_limit);
        self.admission = Some(AdmissionState {
            cfg,
            backlog: VecDeque::with_capacity(cfg.backlog_capacity),
        });
    }

    /// Processes all pending requests; returns how many were handled. Any
    /// replies staged by transmit batching are flushed (one doorbell) at
    /// the end of the poll. With admission control enabled this routes
    /// through the admission layer at the current service clock.
    pub fn poll(&mut self) -> usize {
        if self.admission.is_some() {
            let now = self.stack.sim().now();
            return self.poll_admitted(now);
        }
        let mut n = 0;
        loop {
            let pkt = {
                // Receive-path charges (header parse, RX base) land in their
                // own root span; request processing gets a span per packet.
                let _rx = self.stack.telemetry().span("rx");
                self.stack.recv_packet()
            };
            let Some(pkt) = pkt else { break };
            self.handle(pkt);
            n += 1;
        }
        self.flush_batched_replies();
        n
    }

    /// Uncontrolled horizon-bounded poll: serves FIFO from an unbounded
    /// queue until the service clock reaches `horizon_ns`. This is the
    /// overload experiment's control-off arm — the behavior every system
    /// has before it grows an admission layer. `now_ns` is the arrival
    /// clock; an idle server's service clock is advanced to it first
    /// (spare capacity cannot be banked across idle periods).
    pub fn poll_until(&mut self, now_ns: u64, horizon_ns: u64) -> usize {
        self.catch_up_if_idle(now_ns);
        let mut n = 0;
        while self.stack.sim().now() < horizon_ns {
            let pkt = {
                let _rx = self.stack.telemetry().span("rx");
                self.stack.recv_packet()
            };
            let Some(pkt) = pkt else { break };
            self.handle(pkt);
            n += 1;
        }
        self.flush_batched_replies();
        n
    }

    /// Drains the NIC into the bounded backlog, stamping arrivals with
    /// `now_ns` (the arrival clock). Stops pulling once the backlog is
    /// full — excess frames stay in the bounded NIC staging ring, whose
    /// overflow tail-drops for free. Returns how many were admitted.
    pub fn ingest(&mut self, now_ns: u64) -> usize {
        let Some(adm) = &self.admission else { return 0 };
        let capacity = adm.cfg.backlog_capacity;
        // Enforce the NIC-side bound first: everything past the staging
        // ring is shed NIC-side with zero CPU cost.
        self.stack.pump_rx();
        let mut admitted = 0;
        while self.backlog_len() < capacity {
            let pkt = {
                let _rx = self.stack.telemetry().span("rx");
                self.stack.recv_packet()
            };
            let Some(pkt) = pkt else { break };
            let req_id = pkt.hdr.meta.req_id;
            self.admission
                .as_mut()
                .expect("admission enabled")
                .backlog
                .push_back(Admitted {
                    arrival_ns: now_ns,
                    pkt,
                });
            self.flight.record(
                req_id,
                now_ns,
                FlightEvent::BacklogAdmit {
                    backlog: self.backlog_len().min(u16::MAX as usize) as u16,
                },
            );
            admitted += 1;
        }
        self.counters.backlog.set(self.backlog_len() as f64);
        admitted
    }

    /// Admission-controlled poll with no service horizon: ingests at
    /// `now_ns`, sheds expired entries, and serves the whole admitted
    /// backlog.
    pub fn poll_admitted(&mut self, now_ns: u64) -> usize {
        self.poll_admitted_until(now_ns, u64::MAX)
    }

    /// Admission-controlled poll: ingests arrivals (stamped `now_ns` on
    /// the arrival clock), sheds entries whose sojourn exceeded the
    /// CoDel target (oldest first, `SHED` fast-rejects), and serves
    /// admitted requests while this server's *service* clock is before
    /// `horizon_ns`. Overload harnesses pass `horizon_ns = now_ns` so a
    /// shard can fall behind the arrival clock — that lag is what makes
    /// offered load above capacity mean something in virtual time.
    /// Returns how many requests were served.
    pub fn poll_admitted_until(&mut self, now_ns: u64, horizon_ns: u64) -> usize {
        assert!(
            self.admission.is_some(),
            "poll_admitted_until requires enable_admission"
        );
        if self.backlog_len() == 0 {
            self.catch_up_if_idle(now_ns);
        }
        self.ingest(now_ns);
        let mut n = 0;
        loop {
            self.shed_expired(now_ns);
            if self.stack.sim().now() >= horizon_ns {
                break;
            }
            let Some(pkt) = self.next_admitted() else {
                // Backlog empty: anything still staged NIC-side was held
                // back by a full backlog earlier in this poll.
                if self.ingest(now_ns) == 0 {
                    break;
                }
                continue;
            };
            self.handle(pkt);
            n += 1;
            // Refill as we drain so the NIC ring sheds only true excess.
            self.ingest(now_ns);
        }
        self.flush_batched_replies();
        self.counters.backlog.set(self.backlog_len() as f64);
        n
    }

    /// Advances an idle server's service clock to the arrival clock:
    /// virtual time spent idle is gone, not banked as burst capacity.
    fn catch_up_if_idle(&mut self, now_ns: u64) {
        if !self.stack.has_pending_rx() {
            let now = self.stack.sim().now();
            if now < now_ns {
                self.stack.sim().clock().advance(now_ns - now);
            }
        }
    }

    /// Sheds backlog entries (oldest first) whose sojourn on the arrival
    /// clock exceeded the CoDel target, answering each with a `SHED`
    /// fast-reject. Returns how many were shed.
    fn shed_expired(&mut self, now_ns: u64) -> usize {
        let mut shed = 0;
        while let Some(adm) = &self.admission {
            let target = adm.cfg.target_sojourn_ns;
            let expired = adm
                .backlog
                .front()
                .is_some_and(|a| now_ns.saturating_sub(a.arrival_ns) > target);
            if !expired {
                break;
            }
            let victim = self
                .admission
                .as_mut()
                .expect("admission enabled")
                .backlog
                .pop_front()
                .expect("checked nonempty");
            self.flight.record(
                victim.pkt.hdr.meta.req_id,
                now_ns,
                FlightEvent::BacklogShed {
                    sojourn_ns: now_ns.saturating_sub(victim.arrival_ns),
                },
            );
            self.shed_one(victim.pkt);
            shed += 1;
        }
        shed
    }

    /// Answers one request with a header-only `SHED` fast-reject: no
    /// deserialization, no store access, a fraction of a reply's cost —
    /// the cheap "go away" that keeps shedding from consuming the
    /// capacity it is trying to protect.
    fn shed_one(&mut self, pkt: Packet) {
        let meta = FrameMeta {
            msg_type: pkt.hdr.meta.msg_type | msg_type::RESPONSE,
            flags: flags::SHED,
            req_id: pkt.hdr.meta.req_id,
        };
        let hdr = pkt.hdr.reply(meta);
        self.counters.shed_drops.inc();
        if self.stack.send_fast_reject(hdr).is_err() {
            self.counters.reply_drops.inc();
        }
    }

    /// Picks the next admitted request to serve. Under pressure (backlog
    /// above the watermark) GETs are served before PUTs: reads are cheap
    /// and latency-sensitive; writes retry safely through the dedup
    /// window. Relative order within each class is preserved, so arrival
    /// stamps at the front stay oldest-first for the shedder.
    fn next_admitted(&mut self) -> Option<Packet> {
        let adm = self.admission.as_mut()?;
        let pressure = adm.cfg.get_priority
            && adm.backlog.len() as f64
                >= adm.cfg.pressure_watermark * adm.cfg.backlog_capacity as f64;
        if pressure {
            if let Some(idx) = adm
                .backlog
                .iter()
                .position(|a| a.pkt.hdr.meta.msg_type != msg_type::PUT)
            {
                return adm.backlog.remove(idx).map(|a| a.pkt);
            }
        }
        adm.backlog.pop_front().map(|a| a.pkt)
    }

    /// Flushes replies staged by transmit batching; their bytes were not
    /// visible to the per-request delta in `handle`, so account them
    /// here.
    fn flush_batched_replies(&mut self) {
        let tx_before = self.stack.nic_queue_stats().tx_bytes;
        if self.stack.flush_tx().unwrap_or(0) > 0 {
            self.counters
                .bytes_out
                .add(self.stack.nic_queue_stats().tx_bytes - tx_before);
        }
    }

    /// Handles one request packet.
    pub fn handle(&mut self, pkt: Packet) {
        let tele = self.stack.telemetry().clone();
        let _req = tele.request_span("request", u64::from(pkt.hdr.meta.req_id));
        self.counters.requests.inc();
        self.counters.bytes_in.add(pkt.frame.len() as u64);
        self.flight.record(
            pkt.hdr.meta.req_id,
            self.stack.sim().now(),
            FlightEvent::ShardDispatch {
                shard: self.stack.queue().min(u8::MAX as usize) as u8,
            },
        );
        // Per-queue stats, not aggregate: on a shared multi-queue NIC the
        // other shards' traffic must never leak into this server's
        // accounting.
        let tx_before = self.stack.nic_queue_stats().tx_bytes;
        let handled = match self.kind {
            SerKind::Cornflakes => self.handle_cornflakes(pkt),
            SerKind::Protobuf => self.handle_protobuf(pkt),
            SerKind::FlatBuffers => self.handle_flatbuffers(pkt),
            SerKind::CapnProto => self.handle_capnproto(pkt),
        };
        if handled.is_err() {
            // Dropped without a reply, as the paper's server would.
            self.counters.malformed_drops.inc();
        }
        self.counters
            .bytes_out
            .add(self.stack.nic_queue_stats().tx_bytes - tx_before);
    }

    /// Records the reply lifecycle event (service clock) with the flags
    /// the reply header carries (e.g. [`flags::DEGRADED`]).
    fn record_reply(&self, hdr: &cf_net::PacketHeader) {
        self.flight.record(
            hdr.meta.req_id,
            self.stack.sim().now(),
            FlightEvent::Reply {
                flags: hdr.meta.flags,
            },
        );
    }

    fn reply_meta(pkt: &Packet) -> FrameMeta {
        FrameMeta {
            msg_type: pkt.hdr.meta.msg_type | msg_type::RESPONSE,
            flags: 0,
            req_id: pkt.hdr.meta.req_id,
        }
    }

    /// Applies a put at most once per request id: a replayed id (a client
    /// retry whose original reply was lost) is acknowledged without
    /// re-applying. Returns the reply flags — [`flags::DEGRADED`] when the
    /// store could not apply the put under memory pressure. Only a
    /// *successful* apply enters the dedup window, so a later retry of a
    /// degraded put can still succeed once pressure subsides.
    fn apply_put(&mut self, req_id: u32, key: &[u8], val: &[u8]) -> u8 {
        if self.dedup.contains(req_id) {
            self.counters.dedup_hits.inc();
            self.flight
                .record(req_id, self.stack.sim().now(), FlightEvent::DedupHit);
            return 0;
        }
        match self
            .store
            .put(self.stack.ctx(), key, val, self.put_segment_size)
        {
            Ok(()) => {
                self.dedup.record(req_id);
                self.counters.puts_applied.inc();
                0
            }
            Err(_) => {
                self.counters.degraded_replies.inc();
                flags::DEGRADED
            }
        }
    }

    // ---- Cluster replication hooks --------------------------------------

    /// Decodes the key and value of a put-style payload according to this
    /// server's serialization kind, without touching the store. The cluster
    /// layer uses this to route a client put to its replica set and to
    /// apply forwarded `REPL_PUT`s (whose payload is the client's put
    /// payload, byte-for-byte). Returns `None` on malformed payloads.
    pub fn decode_put(&mut self, payload: &cf_mem::RcBuf) -> Option<(Vec<u8>, Vec<u8>)> {
        match self.kind {
            SerKind::Cornflakes => {
                let req = GetMsg::deserialize(self.stack.ctx(), payload).ok()?;
                let key = req.keys.get(0)?.as_slice().to_vec();
                let val = req.vals.get(0)?.as_slice().to_vec();
                Some((key, val))
            }
            SerKind::Protobuf => {
                let sim = self.stack.sim().clone();
                let req = PGetM::decode(&sim, payload).ok()?;
                Some((req.keys.first()?.to_vec(), req.vals.first()?.to_vec()))
            }
            SerKind::FlatBuffers => {
                let sim = self.stack.sim().clone();
                let req = FlatGetMView::parse(&sim, payload).ok()?;
                let key = req.key(0).ok()?.to_vec();
                let val = req.val(0).ok()?.to_vec();
                Some((key, val))
            }
            SerKind::CapnProto => {
                let sim = self.stack.sim().clone();
                let req = CapnReader::parse(&sim, payload).ok()?;
                let key = req.keys(&sim).ok()?.first()?.to_vec();
                let val = req.vals(&sim).ok()?.first()?.to_vec();
                Some((key, val))
            }
        }
    }

    /// Applies a put on behalf of the replication layer, under the same
    /// request-id dedup window as client puts — the forwarded `REPL_PUT`
    /// keeps the client's request id, so a retried or replayed put applies
    /// at most once per replica no matter which path delivered it. Returns
    /// the apply flags ([`flags::DEGRADED`] on memory pressure, else 0).
    pub fn apply_replicated_put(&mut self, req_id: u32, key: &[u8], val: &[u8]) -> u8 {
        self.apply_put(req_id, key, val)
    }

    /// Whether `req_id` is in the put-dedup window (already applied).
    pub fn dedup_contains(&self, req_id: u32) -> bool {
        self.dedup.contains(req_id)
    }

    /// The version the cluster layer last applied for `key` (0 = never
    /// versioned). Stamped onto GET replies and PUT acks so clients can
    /// order values observed across replicas.
    pub fn version_of(&self, key: &[u8]) -> u64 {
        self.versions.get(key).copied().unwrap_or(0)
    }

    /// Applies a versioned put on behalf of the replication layer. The
    /// dedup window is consulted first (a replayed request id never
    /// re-applies, same as [`KvServer::apply_replicated_put`]); then
    /// versions are compared — an incoming version at or below the stored
    /// one is stale (a catch-up replay or read-repair racing a newer
    /// write) and is acknowledged without clobbering the newer value.
    /// Returns the reply flags plus whether the store actually applied
    /// the bytes (and the version table advanced). Dedup hits, stale
    /// rejections, and degraded applies all report `false`, so callers
    /// maintaining replay logs record only genuine applies.
    pub fn apply_versioned_put(
        &mut self,
        req_id: u32,
        key: &[u8],
        val: &[u8],
        version: u64,
    ) -> (u8, bool) {
        if self.dedup.contains(req_id) {
            return (self.apply_put(req_id, key, val), false); // counts the dedup hit
        }
        if version != 0 && version <= self.version_of(key) {
            return (0, false); // stale: an equal-or-newer version already applied
        }
        let f = self.apply_put(req_id, key, val);
        let applied = f & flags::DEGRADED == 0;
        if applied && version != 0 {
            self.versions.insert(key.to_vec(), version);
        }
        (f, applied)
    }

    // ---- Cornflakes ----------------------------------------------------

    /// Returns the Cornflakes message scratch to the server: the request
    /// and response drop their buffer references (releasing the rx frame
    /// and any store segments they pin) but keep their list capacities for
    /// the next request.
    fn stash_cornflakes_scratch(&mut self, mut req: GetMsg, mut resp: GetMsg) {
        req.id = None;
        req.keys.clear();
        req.vals.clear();
        resp.id = None;
        resp.keys.clear();
        resp.vals.clear();
        self.req_scratch = req;
        self.resp_scratch = resp;
    }

    fn handle_cornflakes(&mut self, pkt: Packet) -> Result<(), Malformed> {
        let tele = self.stack.telemetry().clone();
        let mut hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let mut req = std::mem::take(&mut self.req_scratch);
        let mut resp = std::mem::take(&mut self.resp_scratch);
        {
            let _de = tele.span("deserialize");
            if req
                .deserialize_into(self.stack.ctx(), &pkt.payload)
                .is_err()
            {
                self.stash_cornflakes_scratch(req, resp);
                return Err(Malformed);
            }
        }
        resp.id = pkt.hdr.meta.req_id.checked_into_i32();
        if pkt.hdr.meta.msg_type == msg_type::GET_SEGMENT && req.keys.get(0).is_none() {
            // A segment fetch names its key.
            self.stash_cornflakes_scratch(req, resp);
            return Err(Malformed);
        }
        {
            let ctx = self.stack.ctx();
            let _app = tele.span("app");
            match pkt.hdr.meta.msg_type {
                msg_type::PUT => {
                    // Applied below, outside the app span, borrowing the
                    // decoded key/value views directly — no intermediate
                    // copies.
                }
                msg_type::GET_SEGMENT => {
                    // Key presence was checked before this block.
                    if let Some(key) = req.keys.get(0) {
                        hdr.version = self.version_of(key.as_slice());
                        let seg = req.id.unwrap_or(0) as usize;
                        if let Some(value) = self.store.get(key.as_slice()) {
                            if let Some(buf) = value.segments.get(seg) {
                                resp.get_mut_vals()
                                    .append(CFBytes::new(ctx, buf.as_slice()));
                            }
                        }
                    }
                }
                _ => {
                    // GET / multi-get / list query: all segments of every
                    // requested key, in order (paper Listing 4). The header
                    // has one version slot, so only a single-key get can
                    // attribute it; batches leave it 0.
                    if req.keys.len() == 1 {
                        if let Some(key) = req.keys.get(0) {
                            hdr.version = self.version_of(key.as_slice());
                        }
                    }
                    for key in req.keys.iter() {
                        if let Some(value) = self.store.get(key.as_slice()) {
                            for buf in &value.segments {
                                let field = if self.raw_zero_copy {
                                    // No recover_ptr, no charged refcounts:
                                    // the idealized upper bound.
                                    CFBytes::from_rcbuf(buf.clone())
                                } else {
                                    CFBytes::new(ctx, buf.as_slice())
                                };
                                resp.get_mut_vals().append(field);
                            }
                        }
                    }
                }
            }
        }
        if pkt.hdr.meta.msg_type == msg_type::PUT {
            let (Some(key), Some(val)) = (req.keys.get(0), req.vals.get(0)) else {
                self.stash_cornflakes_scratch(req, resp);
                return Err(Malformed);
            };
            hdr.meta.flags = self.apply_put(pkt.hdr.meta.req_id, key.as_slice(), val.as_slice());
            hdr.version = self.version_of(key.as_slice());
        }
        self.counters
            .zero_copy_entries
            .add(resp.zero_copy_entries() as u64);
        self.record_reply(&hdr);
        {
            let _tx = tele.span("tx");
            let sent = if self.stack.ctx().config.serialize_and_send {
                self.stack.send_object(hdr, &resp)
            } else {
                self.stack.send_object_sga(hdr, &resp)
            };
            if sent.is_err() {
                self.counters.reply_drops.inc();
            }
        }
        self.stash_cornflakes_scratch(req, resp);
        Ok(())
    }

    // ---- Protobuf baseline ----------------------------------------------

    fn handle_protobuf(&mut self, pkt: Packet) -> Result<(), Malformed> {
        let mut hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let sim = self.stack.sim().clone();
        let req = PGetM::decode(&sim, &pkt.payload).map_err(|_| Malformed)?;
        let mut resp = PGetM::new();
        resp.id = Some(pkt.hdr.meta.req_id);
        match pkt.hdr.meta.msg_type {
            msg_type::PUT => {
                let (Some(key), Some(val)) = (req.keys.first(), req.vals.first()) else {
                    return Err(Malformed);
                };
                hdr.meta.flags = self.apply_put(pkt.hdr.meta.req_id, key, val);
                hdr.version = self.version_of(key);
            }
            msg_type::GET_SEGMENT => {
                if let Some(key) = req.keys.first() {
                    hdr.version = self.version_of(key);
                    let seg = req.id.unwrap_or(0) as usize;
                    if let Some(value) = self.store.get(key) {
                        if let Some(buf) = value.segments.get(seg) {
                            resp.add_val(&sim, buf.as_slice());
                        }
                    }
                }
            }
            _ => {
                // One version slot in the header: single-key gets only.
                if let [key] = req.keys.as_slice() {
                    hdr.version = self.version_of(key);
                }
                for key in &req.keys {
                    if let Some(value) = self.store.get(key) {
                        for buf in &value.segments {
                            resp.add_val(&sim, buf.as_slice());
                        }
                    }
                }
            }
        }
        // Protobuf encodes from its structs directly into DMA-safe memory.
        self.record_reply(&hdr);
        let Ok(mut tx) = self.stack.alloc_tx(resp.encoded_len()) else {
            self.counters.reply_drops.inc();
            return Ok(());
        };
        let payload = resp.encode(&sim, tx.addr() + HEADER_BYTES as u64);
        tx.write_at(HEADER_BYTES, &payload);
        if self.stack.send_built(hdr, tx, payload.len()).is_err() {
            self.counters.reply_drops.inc();
        }
        Ok(())
    }

    // ---- FlatBuffers baseline --------------------------------------------

    fn handle_flatbuffers(&mut self, pkt: Packet) -> Result<(), Malformed> {
        let mut hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let sim = self.stack.sim().clone();
        let req = FlatGetMView::parse(&sim, &pkt.payload).map_err(|_| Malformed)?;
        let nkeys = req.keys_len().unwrap_or(0);
        // Recycled segment-slice scratch (`Vec` covariance shortens the
        // stored `'static` tag to this request's lifetime).
        let mut vals: Vec<&[u8]> = std::mem::take(&mut self.flat_vals_spare);
        match pkt.hdr.meta.msg_type {
            msg_type::PUT => {
                let (Ok(key), Ok(val)) = (req.key(0), req.val(0)) else {
                    self.flat_vals_spare = recycle_slices(vals);
                    return Err(Malformed);
                };
                hdr.meta.flags = self.apply_put(pkt.hdr.meta.req_id, key, val);
                hdr.version = self.version_of(key);
            }
            msg_type::GET_SEGMENT => {
                if let Ok(key) = req.key(0) {
                    hdr.version = self.version_of(key);
                    let seg = req.id().ok().flatten().unwrap_or(0) as usize;
                    if let Some(value) = self.store.get(key) {
                        if let Some(buf) = value.segments.get(seg) {
                            vals.push(buf.as_slice());
                        }
                    }
                }
            }
            _ => {
                // One version slot in the header: single-key gets only.
                if nkeys == 1 {
                    if let Ok(key) = req.key(0) {
                        hdr.version = self.version_of(key);
                    }
                }
                for i in 0..nkeys {
                    let Ok(key) = req.key(i) else { continue };
                    if let Some(value) = self.store.get(key) {
                        for buf in &value.segments {
                            vals.push(buf.as_slice());
                        }
                    }
                }
            }
        }
        // Builder copies fields into its heap buffer (cold), then the
        // contiguous buffer is staged into DMA memory (warm).
        self.record_reply(&hdr);
        let built = FlatGetM::encode(&sim, Some(pkt.hdr.meta.req_id), &[], &vals);
        self.flat_vals_spare = recycle_slices(vals);
        let Ok(mut tx) = self.stack.alloc_tx(built.len()) else {
            self.counters.reply_drops.inc();
            return Ok(());
        };
        sim.charge_memcpy(
            Category::SerializeCopy,
            built.as_ptr() as u64,
            tx.addr() + HEADER_BYTES as u64,
            built.len(),
        );
        tx.write_at(HEADER_BYTES, &built);
        if self.stack.send_built(hdr, tx, built.len()).is_err() {
            self.counters.reply_drops.inc();
        }
        Ok(())
    }

    // ---- Cap'n Proto baseline ---------------------------------------------

    fn handle_capnproto(&mut self, pkt: Packet) -> Result<(), Malformed> {
        let mut hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let sim = self.stack.sim().clone();
        let req = CapnReader::parse(&sim, &pkt.payload).map_err(|_| Malformed)?;
        let keys = req.keys(&sim).map_err(|_| Malformed)?;
        let mut resp = CapnGetM::new();
        resp.set_id(pkt.hdr.meta.req_id);
        match pkt.hdr.meta.msg_type {
            msg_type::PUT => {
                let vals = req.vals(&sim).map_err(|_| Malformed)?;
                let (Some(key), Some(val)) = (keys.first(), vals.first()) else {
                    return Err(Malformed);
                };
                hdr.meta.flags = self.apply_put(pkt.hdr.meta.req_id, key, val);
                hdr.version = self.version_of(key);
            }
            msg_type::GET_SEGMENT => {
                if let Some(key) = keys.first() {
                    hdr.version = self.version_of(key);
                    let seg = req.id().ok().flatten().unwrap_or(0) as usize;
                    if let Some(value) = self.store.get(key) {
                        if let Some(buf) = value.segments.get(seg) {
                            resp.add_val(&sim, buf.as_slice());
                        }
                    }
                }
            }
            _ => {
                // One version slot in the header: single-key gets only.
                if let [key] = keys.as_slice() {
                    hdr.version = self.version_of(key);
                }
                for key in &keys {
                    if let Some(value) = self.store.get(key) {
                        for buf in &value.segments {
                            resp.add_val(&sim, buf.as_slice());
                        }
                    }
                }
            }
        }
        // The library yields a non-contiguous segment list; the stack
        // stages each heap segment into the DMA buffer (warm copies).
        self.record_reply(&hdr);
        let segments = resp.finish(&sim);
        let framed = CapnGetM::frame(&segments);
        let Ok(mut tx) = self.stack.alloc_tx(framed.len()) else {
            self.counters.reply_drops.inc();
            return Ok(());
        };
        let mut off = HEADER_BYTES;
        // Frame table first (small), then per-segment staging.
        let table_len = framed.len() - segments.iter().map(Vec::len).sum::<usize>();
        tx.write_at(off, &framed[..table_len]);
        off += table_len;
        for seg in &segments {
            sim.charge_memcpy(
                Category::SerializeCopy,
                seg.as_ptr() as u64,
                tx.addr() + off as u64,
                seg.len(),
            );
            tx.write_at(off, seg);
            off += seg.len();
        }
        if self.stack.send_built(hdr, tx, framed.len()).is_err() {
            self.counters.reply_drops.inc();
        }
        Ok(())
    }
}

/// Extension: `u32` request ids fit the schema's `int32 id` field.
trait CheckedIntoI32 {
    fn checked_into_i32(self) -> Option<i32>;
}

impl CheckedIntoI32 for u32 {
    fn checked_into_i32(self) -> Option<i32> {
        Some(self as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_window_evicts_oldest_first() {
        let mut w = DedupWindow::new(3);
        for id in 1..=5 {
            w.record(id);
        }
        // The newest `capacity` ids are retained — a retry of any of them
        // is deduped — and eviction is strictly insertion-order (FIFO):
        // the oldest ids fell out first.
        for id in 3..=5 {
            assert!(w.contains(id), "id {id} inside the window");
        }
        for id in 1..=2 {
            assert!(!w.contains(id), "id {id} evicted oldest-first");
        }
        // Re-recording an id already in the window does not double-insert
        // (and thus cannot double-evict later).
        w.record(4);
        w.record(6);
        assert!(w.contains(4) && w.contains(5) && w.contains(6));
        assert!(!w.contains(3), "3 was the oldest remaining");
    }

    #[test]
    fn dedup_window_shrink_evicts_oldest_first() {
        let mut w = DedupWindow::new(8);
        for id in 1..=8 {
            w.record(id);
        }
        w.set_capacity(2);
        assert!(w.contains(7) && w.contains(8), "newest survive a shrink");
        for id in 1..=6 {
            assert!(!w.contains(id));
        }
        // Growing again changes only future retention.
        w.set_capacity(3);
        w.record(9);
        assert!(w.contains(7) && w.contains(8) && w.contains(9));
    }

    #[test]
    fn dedup_window_survives_req_id_wraparound() {
        // A long-lived client's u32 request counter wraps; the window must
        // treat post-wrap ids as ordinary values — FIFO on insertion order,
        // no arithmetic assumptions about id magnitude.
        let mut w = DedupWindow::new(4);
        for id in [u32::MAX - 2, u32::MAX - 1, u32::MAX, 0, 1] {
            w.record(id);
        }
        assert!(
            !w.contains(u32::MAX - 2),
            "oldest evicted despite being numerically largest-era"
        );
        for id in [u32::MAX - 1, u32::MAX, 0, 1] {
            assert!(w.contains(id), "id {id} retained across the wrap");
        }
        // A retry of a pre-wrap id still inside the window dedups.
        w.record(u32::MAX);
        assert!(w.contains(u32::MAX));
        assert!(
            w.contains(u32::MAX - 1),
            "re-record of a present id evicts nothing"
        );
    }

    #[test]
    fn dedup_window_wraparound_collision_is_exact_match_only() {
        // After 2^32 requests the same id value legitimately returns. The
        // window's guarantee is bounded: only an id *currently inside the
        // window* dedups; once evicted, the reused id applies fresh.
        let mut w = DedupWindow::new(2);
        w.record(7);
        w.record(8);
        w.record(9); // evicts 7
        assert!(
            !w.contains(7),
            "evicted id no longer dedups — a wrapped reuse applies"
        );
        w.record(7); // the wrapped generation re-enters cleanly
        assert!(w.contains(7) && w.contains(9));
        assert!(!w.contains(8), "FIFO continued across the reuse");
    }
}
