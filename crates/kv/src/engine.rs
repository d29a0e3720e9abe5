//! The request engine shared by every front-end: the store, the put-dedup
//! window, per-key versions and the one PUT / GET_SEGMENT / GET handler,
//! generic over the serializer (the crate-private `codec` module) and over
//! the transport replies leave on. The UDP server, each shard of the
//! sharded server and every cluster node run it behind a [`UdpStack`]
//! ([`crate::server::KvServer`]); the TCP server runs it behind a
//! [`TcpListener`] ([`crate::tcp_server::TcpKvServer`]). Those two aliases
//! are how an engine is named and built; this module is public so that
//! their methods are documented in one place.

use std::collections::{HashMap, HashSet, VecDeque};

use cf_mem::RcBuf;
use cf_net::{TcpListener, UdpStack};
use cf_telemetry::{Counter, FlightEvent, Gauge, Telemetry};
use cornflakes_core::SerCtx;

use crate::codec::{Codecs, GetM, KvCodec, Malformed};
use crate::server::{AdmissionState, SerKind};
use crate::store::KvStore;
use crate::{flags, msg_type};

/// What the engine needs of the transport under it: implemented for the
/// two transports an engine can be built over.
pub trait Transport {
    /// The serialization context replies are built in — and where the
    /// engine finds its telemetry handle.
    fn ctx(&self) -> &SerCtx;
    /// Attaches `tele` to the transport (its `set_telemetry`).
    fn attach_telemetry(&mut self, tele: &Telemetry);
}

impl Transport for UdpStack {
    fn ctx(&self) -> &SerCtx {
        UdpStack::ctx(self)
    }
    fn attach_telemetry(&mut self, tele: &Telemetry) {
        self.set_telemetry(tele);
    }
}

impl Transport for TcpListener {
    fn ctx(&self) -> &SerCtx {
        TcpListener::ctx(self)
    }
    fn attach_telemetry(&mut self, tele: &Telemetry) {
        self.set_telemetry(tele);
    }
}

/// The server's counter cells, owned from construction and adopted as
/// `kv.<scope>.*` by [`KvEngine::set_telemetry`].
#[derive(Debug, Default)]
pub(crate) struct KvCounters {
    pub requests: Counter,
    pub bytes_in: Counter,
    pub puts_applied: Counter,
    pub dedup_hits: Counter,
    pub degraded_replies: Counter,
    pub reply_drops: Counter,
    pub malformed_drops: Counter,
    pub shed_drops: Counter,
    pub backlog: Gauge,
}

/// Default put-dedup window capacity: far exceeds any plausible retry
/// window. Configurable per server via [`KvEngine::set_dedup_capacity`].
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

/// The request engine: store + serialization strategy + put dedup + versions
/// behind a transport `T`. [`crate::server::KvServer`] is the engine over a
/// [`UdpStack`], [`crate::tcp_server::TcpKvServer`] over a [`TcpListener`].
#[derive(Debug)]
pub struct KvEngine<T> {
    /// The server's datapath.
    pub stack: T,
    /// The store engine.
    pub store: KvStore,
    /// Serialization strategy.
    pub kind: SerKind,
    /// Segment size used when storing put values.
    pub put_segment_size: usize,
    /// The `<scope>` of this server's `kv.<scope>.*` metric names: the
    /// serializer's [`SerKind::metric_key`], `tcp`, or the `shardN` a
    /// sharded server gives each shard so cross-queue accounting stays
    /// separable.
    pub(crate) scope: String,
    pub(crate) counters: KvCounters,
    dedup: DedupWindow,
    /// Per-key value versions. Populated only by the cluster layer's
    /// versioned apply path; single-node servers leave it empty, so every
    /// reply carries version 0 and the wire stays byte-identical to the
    /// pre-versioning format.
    versions: HashMap<Vec<u8>, u64>,
    /// UDP front-end state: the admission backlog, when enabled.
    pub(crate) admission: Option<AdmissionState>,
    pub(crate) codecs: Codecs,
}

impl<T> KvEngine<T> {
    /// Resizes the put-dedup window (default
    /// [`DEFAULT_DEDUP_CAPACITY`]). A smaller window uses less memory but
    /// forgets old request ids sooner: a put retried after more than
    /// `capacity` intervening successful puts would be re-applied.
    /// Shrinking evicts oldest-first immediately.
    pub fn set_dedup_capacity(&mut self, capacity: usize) {
        self.dedup.set_capacity(capacity);
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
}

impl<T: Transport> KvEngine<T> {
    /// A server over `stack` with the default settings, counting as
    /// `kv.<scope>.*`, with a put-dedup window of `dedup_capacity` request
    /// ids.
    pub(crate) fn over(stack: T, kind: SerKind, scope: &str, dedup_capacity: usize) -> Self {
        let store = KvStore::new(stack.ctx().sim.clone());
        KvEngine {
            stack,
            store,
            kind,
            put_segment_size: 8192,
            scope: scope.to_string(),
            counters: KvCounters::default(),
            dedup: DedupWindow::new(dedup_capacity),
            versions: HashMap::new(),
            admission: None,
            codecs: Codecs::default(),
        }
    }

    /// Attaches `tele` to the server and the transport under it: the
    /// `kv.<scope>.*` cells are adopted holding whatever they have counted
    /// so far, every handled request opens a span tree, and — keyed by the
    /// wire request id — admission and shedding (stamped on the arrival
    /// clock), shard dispatch, dedup hits and replies (on the service
    /// clock) join `tele`'s flight recorder.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.stack.attach_telemetry(tele);
        let (c, k) = (&self.counters, &self.scope);
        tele.adopt_counter(&format!("kv.{k}.requests"), &c.requests);
        tele.adopt_counter(&format!("kv.{k}.bytes_in"), &c.bytes_in);
        tele.adopt_counter(&format!("kv.{k}.puts_applied"), &c.puts_applied);
        tele.adopt_counter(&format!("kv.{k}.dedup_hits"), &c.dedup_hits);
        tele.adopt_counter(&format!("kv.{k}.degraded_replies"), &c.degraded_replies);
        tele.adopt_counter(&format!("kv.{k}.reply_drops"), &c.reply_drops);
        tele.adopt_counter(&format!("kv.{k}.malformed_drops"), &c.malformed_drops);
        tele.adopt_counter(&format!("kv.{k}.shed_drops"), &c.shed_drops);
        tele.adopt_gauge(&format!("kv.{k}.backlog"), &c.backlog);
    }

    /// Applies a put at most once per request id: a replayed id (a client
    /// retry whose original reply was lost) is acknowledged without
    /// re-applying. Returns the reply flags — [`flags::DEGRADED`] when the
    /// store could not apply the put under memory pressure. Only a
    /// *successful* apply enters the dedup window, so a later retry of a
    /// degraded put can still succeed once pressure subsides.
    fn apply_put(&mut self, req_id: u32, key: &[u8], val: &[u8]) -> u8 {
        let ctx = self.stack.ctx();
        if self.dedup.contains(req_id) {
            self.counters.dedup_hits.inc();
            let flight = ctx.telemetry.flight();
            flight.record(req_id, ctx.sim.now(), FlightEvent::DedupHit);
            return 0;
        }
        match self.store.put(ctx, key, val, self.put_segment_size) {
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

    /// Serves one request — the only PUT / GET_SEGMENT / GET handler, for
    /// every serializer and transport. Decodes `payload` with `codec`,
    /// applies or looks up, builds the reply and passes it to `send` with
    /// the reply flags and the key's version; `send` transmits it and
    /// returns whether it went out. `Err` means the request was dropped
    /// without a reply, as the paper's server would.
    pub(crate) fn serve<C: KvCodec>(
        &mut self,
        codec: &mut C,
        mtype: u8,
        req_id: u32,
        payload: &RcBuf,
        send: impl for<'s> FnOnce(&mut T, &mut C, u8, u64, C::Builder<'s>) -> bool,
    ) -> Result<(), Malformed> {
        let req = {
            let _de = self.stack.ctx().telemetry.span("deserialize");
            codec.decode(self.stack.ctx(), payload)?
        };
        let served = 'served: {
            let mut reply_flags = 0;
            let version;
            let mut reply;
            let app = self.stack.ctx().telemetry.span("app");
            match mtype {
                msg_type::PUT => {
                    let (Some(key), Some(val)) = (req.keys().next(), req.vals().next()) else {
                        break 'served Err(Malformed);
                    };
                    reply_flags = self.apply_put(req_id, key, val);
                    version = self.version_of(key);
                    reply = codec.begin(Some(req_id));
                }
                msg_type::GET_SEGMENT => {
                    // A segment fetch names its key.
                    let Some(key) = req.keys().next() else {
                        break 'served Err(Malformed);
                    };
                    version = self.version_of(key);
                    reply = codec.begin(Some(req_id));
                    let seg = req.id().unwrap_or(0) as usize;
                    let value = self.store.get(key);
                    if let Some(buf) = value.and_then(|v| v.segments.get(seg)) {
                        C::add_segment(self.stack.ctx(), &mut reply, buf);
                    }
                }
                _ => {
                    // GET / multi-get / list query: all segments of every
                    // requested key, in order (paper Listing 4). The header
                    // has one version slot, so only a single-key get can
                    // attribute it; batches leave it 0.
                    let mut keys = req.keys();
                    version = match (keys.next(), keys.next()) {
                        (Some(key), None) => self.version_of(key),
                        _ => 0,
                    };
                    reply = codec.begin(Some(req_id));
                    let ctx = self.stack.ctx();
                    self.store.get_each(req.keys(), |value| {
                        for buf in &value.segments {
                            C::add_segment(ctx, &mut reply, buf);
                        }
                    });
                }
            }
            drop(app);
            self.stack.ctx().telemetry.flight().record(
                req_id,
                self.stack.ctx().sim.now(),
                FlightEvent::Reply { flags: reply_flags },
            );
            let _tx = self.stack.ctx().telemetry.span("tx");
            if !send(&mut self.stack, codec, reply_flags, version, reply) {
                self.counters.reply_drops.inc();
            }
            Ok(())
        };
        codec.recycle(req);
        served
    }

    /// Applies a versioned put on behalf of the replication layer, under
    /// the same request-id dedup window as client puts — the forwarded
    /// `REPL_PUT` keeps the client's request id, so a retried or replayed
    /// put applies at most once per replica no matter which path delivered
    /// it. The window is consulted first: a hit applies no bytes but adopts
    /// an incoming version above the stored one, because the same put
    /// retried through a second coordinator arrives under that
    /// coordinator's version and every replica must keep one version of
    /// it. Then versions are compared — an incoming version at or below the
    /// stored one is stale (a catch-up replay or read-repair racing a newer
    /// write) and is acknowledged without clobbering the newer value.
    /// Returns the reply flags plus whether the store actually applied the
    /// bytes (and the version table advanced). Dedup hits, stale
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
            if version > self.version_of(key) {
                self.set_version(key, version);
            }
            return (self.apply_put(req_id, key, val), false); // counts the dedup hit
        }
        if version != 0 && version <= self.version_of(key) {
            return (0, false); // stale: an equal-or-newer version already applied
        }
        let f = self.apply_put(req_id, key, val);
        let applied = f & flags::DEGRADED == 0;
        if applied && version != 0 {
            self.set_version(key, version);
        }
        (f, applied)
    }

    /// A read-repair of bytes this replica already holds, found through one
    /// charged store lookup: adopts `version` if it is above the stored
    /// one and applies nothing — no store write, no `puts_applied`, no
    /// dedup entry. Returns whether the bytes were held; if not, the caller
    /// applies the repair with [`KvEngine::apply_versioned_put`].
    pub fn adopt_repair(&mut self, key: &[u8], val: &[u8], version: u64) -> bool {
        let stored = self.store.get(key);
        let held = stored.is_some_and(|v| v.segments.iter().flat_map(|s| s.iter()).eq(val));
        if held && version > self.version_of(key) {
            self.set_version(key, version);
        }
        held
    }

    fn set_version(&mut self, key: &[u8], version: u64) {
        // The map owns a key it has seen: only a first write copies it.
        match self.versions.get_mut(key) {
            Some(stored) => *stored = version,
            None => drop(self.versions.insert(key.to_vec(), version)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KvServer;
    use cf_mem::PoolConfig;
    use cf_nic::link;
    use cf_sim::{MachineProfile, Sim};
    use cornflakes_core::SerializationConfig;

    fn replica() -> KvServer {
        let (_, end) = link();
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let config = SerializationConfig::hybrid();
        let stack =
            UdpStack::with_pool_config(sim, end, 9000, config, PoolConfig::small_for_tests());
        KvServer::new(stack, SerKind::Cornflakes)
    }

    #[test]
    fn retried_versioned_put_adopts_the_higher_version_once() {
        let mut server = replica();
        // The same request id through two coordinators: first at 0x100, then
        // retried at 0x102.
        assert_eq!(server.apply_versioned_put(7, b"k", b"v", 0x100), (0, true));
        assert_eq!(server.apply_versioned_put(7, b"k", b"v", 0x102), (0, false));
        assert_eq!(
            server.version_of(b"k"),
            0x102,
            "the retry's version is adopted"
        );
        assert_eq!(server.puts_applied(), 1, "the bytes are applied once");
        assert_eq!(server.dedup_hits(), 1, "the retry is a counted dedup hit");
        // A lower version on a further hit leaves the stored one.
        server.apply_versioned_put(7, b"k", b"v", 0x101);
        assert_eq!(server.version_of(b"k"), 0x102);
    }

    #[test]
    fn repair_of_held_bytes_adopts_the_version_and_applies_nothing() {
        let mut server = replica();
        assert_eq!(server.apply_versioned_put(7, b"k", b"v", 0x200), (0, true));
        // The same bytes under another coordinator's higher version.
        assert!(server.adopt_repair(b"k", b"v", 0x202));
        assert_eq!(
            server.version_of(b"k"),
            0x202,
            "the higher version is adopted"
        );
        assert!(server.adopt_repair(b"k", b"v", 0x201));
        assert_eq!(server.version_of(b"k"), 0x202, "a lower one is not");
        assert_eq!(server.puts_applied(), 1, "no repair applied the bytes");
        assert_eq!(server.dedup_hits(), 0);
        // Other bytes, or a key the replica lacks, are not held: the caller
        // applies those.
        assert!(!server.adopt_repair(b"k", b"w", 0x300));
        assert!(!server.adopt_repair(b"x", b"v", 0x300));
        assert_eq!(server.version_of(b"k"), 0x202);
        assert_eq!(server.version_of(b"x"), 0);
    }

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
