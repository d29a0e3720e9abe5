//! Request-scoped flight recorder: a fixed-capacity log of typed
//! records, correlated by the existing KV request id.
//!
//! Aggregate counters answer "how many requests were shed?"; the flight
//! recorder answers "what happened to *this* request?". Every layer of the
//! datapath — client retry logic, UDP/TCP stacks, per-queue NIC, backlog
//! admission, shard dispatch, the serializer — records a [`FlightEvent`]
//! stamped with its *own* machine's virtual clock, keyed by the request id
//! that is already on the wire. Nothing is added to the wire format: the
//! NIC reads the id straight out of the frame header, so golden fixtures
//! stay byte-exact whether or not a recorder is installed. A completed
//! span ([`crate::Telemetry::span`]) is one more record,
//! [`FlightEvent::Span`], stamped at its close, so a request's spans and
//! lifecycle events read as one timeline and export as one Chrome trace
//! ([`FlightRecorder::chrome_trace_json`]).
//!
//! The handle follows the same discipline as [`crate::Telemetry`]:
//!
//! - **Disabled** (the default): `record()` is a single `Option` branch —
//!   no allocation, no formatting, no clock read. The zero-alloc hot-path
//!   test (`tests/flight_zero_alloc.rs`) asserts this literally, with a
//!   counting global allocator.
//! - **Enabled**: records land in a log preallocated at construction.
//!   Recording is a copy into a fixed slot; when the log is full the
//!   oldest record is overwritten (and counted in
//!   [`FlightRecorder::dropped`]). Still no allocation.
//!
//! Cloning a `FlightRecorder` clones the handle, not the log: install the
//! same recorder on a client and a server and their records interleave
//! into one timeline, in the order they were recorded. Extraction
//! ([`drain`](FlightRecorder::drain),
//! [`events_for`](FlightRecorder::events_for)) allocates, but only on the
//! reporting path.

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Value;

/// One typed lifecycle event or completed span. `Copy`, fixed-size, and
/// allocation-free by construction — variants carry only small scalars
/// and static names.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightEvent {
    /// Client transmitted the first attempt of a request.
    ClientSend,
    /// Client retransmitted after a timeout; `attempt` counts from 1,
    /// `backoff_ns` is the backoff that preceded this attempt.
    ClientRetry { attempt: u8, backoff_ns: u64 },
    /// Circuit breaker rejected the request without touching the wire.
    BreakerFastFail,
    /// Retry budget refused a retransmission; the request will time out.
    RetryBudgetExhausted,
    /// Client gave up on the request (retries exhausted or budget-denied).
    ClientTimeout,
    /// A response arrived for an id the client had already abandoned.
    StaleReply,
    /// Client received a `SHED` fast-reject from the server.
    ShedReply,
    /// Client received a response; `flags` are the reply's header flags.
    ClientRecv { flags: u8 },
    /// NIC accepted a frame for transmission on `queue`.
    NicTxEnqueue { queue: u8 },
    /// NIC steered a received frame into `queue`'s rx staging ring.
    NicRxEnqueue { queue: u8 },
    /// NIC dropped a received frame because `queue`'s staging ring was full.
    NicTailDrop { queue: u8 },
    /// Server admitted the request into the backlog (`backlog` = new depth).
    BacklogAdmit { backlog: u16 },
    /// CoDel shed the request after sitting `sojourn_ns` in the backlog.
    BacklogShed { sojourn_ns: u64 },
    /// A shard's service loop picked the request up for processing.
    ShardDispatch { shard: u8 },
    /// Serializer built the reply with `entries` scatter-gather entries.
    Serialize { entries: u8 },
    /// Scatter-gather reply fell back to the copy path (SG limit).
    CopyFallback,
    /// Dedup window suppressed a retried put (exactly-once replay).
    DedupHit,
    /// Server finished the request and posted the reply; `flags` as sent.
    Reply { flags: u8 },
    /// TCP stack sent a message (`req_id` is the message's start seq).
    TcpMsgSend { bytes: u32 },
    /// TCP stack delivered a reassembled message to the application.
    TcpMsgDeliver { bytes: u32 },
    /// Flow-table listener completed a handshake; `flows` is the table's
    /// occupancy after the accept. Keyed by the flow's remote port.
    TcpAccept { flows: u16 },
    /// Listener answered a SYN with an RST because the flow slab or SYN
    /// backlog was full. Keyed by the rejected remote port.
    TcpSynReject,
    /// A flow slot was returned to the slab; `reason` is a
    /// `FLOW_CLOSE_*` constant (FIN, peer RST, idle reap, local close).
    TcpFlowClose { reason: u8 },
    /// Coordinator forwarded a client put to backup replica `node`.
    ReplicaPut { node: u8 },
    /// Coordinator received backup `node`'s replication acknowledgement.
    ReplicaAck { node: u8 },
    /// Cluster client re-routed the request to replica `node` after its
    /// current route stopped answering.
    Failover { node: u8 },
    /// A rejoined replica received this put via catch-up log replay from
    /// `node`.
    CatchupReplay { node: u8 },
    /// Cluster client completed an operation at this record's stamp: a put
    /// acked (`put`) or a get answered at `version`, for the key at ring
    /// point `key`, sent at `invoke_ns`. The consistency checker's input.
    ClusterOp {
        put: bool,
        key: u64,
        version: u64,
        invoke_ns: u64,
    },
    /// A span closed: phase `name`, opened `depth` spans deep, ran
    /// `dur_ns` (the record is stamped at its close), and `self_ns` was
    /// charged while it was the innermost open span.
    Span {
        name: &'static str,
        depth: u16,
        dur_ns: u64,
        self_ns: f64,
    },
}

impl FlightEvent {
    /// Stable short label, used by the JSON export and reports; a span's
    /// label is its name.
    pub fn label(&self) -> &'static str {
        match *self {
            FlightEvent::ClientSend => "client_send",
            FlightEvent::ClientRetry { .. } => "client_retry",
            FlightEvent::BreakerFastFail => "breaker_fast_fail",
            FlightEvent::RetryBudgetExhausted => "retry_budget_exhausted",
            FlightEvent::ClientTimeout => "client_timeout",
            FlightEvent::StaleReply => "stale_reply",
            FlightEvent::ShedReply => "shed_reply",
            FlightEvent::ClientRecv { .. } => "client_recv",
            FlightEvent::NicTxEnqueue { .. } => "nic_tx_enqueue",
            FlightEvent::NicRxEnqueue { .. } => "nic_rx_enqueue",
            FlightEvent::NicTailDrop { .. } => "nic_tail_drop",
            FlightEvent::BacklogAdmit { .. } => "backlog_admit",
            FlightEvent::BacklogShed { .. } => "backlog_shed",
            FlightEvent::ShardDispatch { .. } => "shard_dispatch",
            FlightEvent::Serialize { .. } => "serialize",
            FlightEvent::CopyFallback => "copy_fallback",
            FlightEvent::DedupHit => "dedup_hit",
            FlightEvent::Reply { .. } => "reply",
            FlightEvent::TcpMsgSend { .. } => "tcp_msg_send",
            FlightEvent::TcpMsgDeliver { .. } => "tcp_msg_deliver",
            FlightEvent::TcpAccept { .. } => "tcp_accept",
            FlightEvent::TcpSynReject => "tcp_syn_reject",
            FlightEvent::TcpFlowClose { .. } => "tcp_flow_close",
            FlightEvent::ReplicaPut { .. } => "replica_put",
            FlightEvent::ReplicaAck { .. } => "replica_ack",
            FlightEvent::Failover { .. } => "failover",
            FlightEvent::CatchupReplay { .. } => "catchup_replay",
            FlightEvent::ClusterOp { .. } => "cluster_op",
            FlightEvent::Span { name, .. } => name,
        }
    }

    /// The event's scalar detail (queue, shard, sojourn…), if it has one,
    /// as a `(key, value)` pair for exports.
    pub fn detail(&self) -> Option<(&'static str, u64)> {
        match *self {
            FlightEvent::ClientRetry { attempt, .. } => Some(("attempt", u64::from(attempt))),
            FlightEvent::ClientRecv { flags } | FlightEvent::Reply { flags } => {
                Some(("flags", u64::from(flags)))
            }
            FlightEvent::NicTxEnqueue { queue }
            | FlightEvent::NicRxEnqueue { queue }
            | FlightEvent::NicTailDrop { queue } => Some(("queue", u64::from(queue))),
            FlightEvent::BacklogAdmit { backlog } => Some(("backlog", u64::from(backlog))),
            FlightEvent::BacklogShed { sojourn_ns } => Some(("sojourn_ns", sojourn_ns)),
            FlightEvent::ShardDispatch { shard } => Some(("shard", u64::from(shard))),
            FlightEvent::Serialize { entries } => Some(("entries", u64::from(entries))),
            FlightEvent::TcpMsgSend { bytes } | FlightEvent::TcpMsgDeliver { bytes } => {
                Some(("bytes", u64::from(bytes)))
            }
            FlightEvent::TcpAccept { flows } => Some(("flows", u64::from(flows))),
            FlightEvent::TcpFlowClose { reason } => Some(("reason", u64::from(reason))),
            FlightEvent::ReplicaPut { node }
            | FlightEvent::ReplicaAck { node }
            | FlightEvent::Failover { node }
            | FlightEvent::CatchupReplay { node } => Some(("node", u64::from(node))),
            FlightEvent::ClusterOp { version, .. } => Some(("version", version)),
            FlightEvent::Span { dur_ns, .. } => Some(("dur_ns", dur_ns)),
            _ => None,
        }
    }
}

/// One recorded event: which request, when (virtual ns on the recording
/// machine's clock), and what happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightRecord {
    /// Correlation id — the KV request id already carried in the wire
    /// header (TCP events use the message's start sequence number).
    pub req_id: u32,
    /// Virtual-time stamp from the clock of the machine that recorded it.
    pub ts_ns: u64,
    /// What happened.
    pub event: FlightEvent,
}

impl FlightRecord {
    /// The record as a JSON object: `{"req_id": …, "ts_ns": …, "event":
    /// "<label>"}` plus the event's detail member, if it has one. The one
    /// rendering of a flight event; a timeline is an array of these.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("req_id", Value::Num(f64::from(self.req_id))),
            ("ts_ns", Value::Num(self.ts_ns as f64)),
            ("event", Value::Str(self.event.label().into())),
        ];
        members.extend(self.event.detail().map(|(k, d)| (k, Value::Num(d as f64))));
        Value::obj(members)
    }

    /// The record as one Chrome Trace Event; a span starts `dur` before
    /// its stamp (see [`FlightRecorder::chrome_trace_json`]).
    fn chrome_event(&self) -> Value {
        let us = |ns: u64| Value::Num(ns as f64 / 1_000.0);
        let mut args = vec![("req_id", Value::Num(f64::from(self.req_id)))];
        let (cat, ph, ts, dur, tid) = match self.event {
            FlightEvent::Span {
                depth,
                dur_ns,
                self_ns,
                ..
            } => {
                args.extend((self_ns != 0.0).then_some(("self_ns", Value::Num(self_ns))));
                let start = self.ts_ns.saturating_sub(dur_ns);
                ("vt", "X", start, Some(("dur", us(dur_ns))), depth)
            }
            event => {
                args.extend(event.detail().map(|(k, d)| (k, Value::Num(d as f64))));
                ("flight", "i", self.ts_ns, None, 0)
            }
        };
        let mut members = vec![
            ("name", Value::Str(self.event.label().into())),
            ("cat", Value::Str(cat.into())),
            ("ph", Value::Str(ph.into())),
            ("ts", us(ts)),
        ];
        members.extend(dur);
        members.extend([
            ("pid", Value::Num(0.0)),
            ("tid", Value::Num(f64::from(tid))),
            ("args", Value::obj(args)),
        ]);
        Value::obj(members)
    }
}

/// What every clone of an enabled [`FlightRecorder`] shares: a log
/// preallocated at construction. Until it is full a record fills the next
/// reserved slot; after that it overwrites the oldest in place.
#[derive(Default)]
struct Log {
    records: Vec<FlightRecord>,
    capacity: usize,
    /// The oldest record once the log is full (and the slot the next
    /// record overwrites); 0 until then.
    head: usize,
    recorded: u64,
    dropped: u64,
}

impl Log {
    #[inline]
    fn push(&mut self, record: FlightRecord) {
        self.recorded += 1;
        if self.records.len() < self.capacity {
            self.records.push(record);
            return;
        }
        self.records[self.head] = record;
        self.head = (self.head + 1) % self.capacity;
        self.dropped += 1;
    }

    /// Held records, oldest first.
    fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer)
    }
}

/// Cheaply clonable handle to a shared flight-recorder log.
///
/// `FlightRecorder::default()` is disabled; see the module docs for the
/// enabled/disabled contract.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<Log>>>,
}

impl FlightRecorder {
    /// A disabled recorder: every `record` is one branch and nothing else.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder with room for `capacity` records (≥ 1). The
    /// log is preallocated here; recording never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(Log {
                records: Vec::with_capacity(capacity),
                capacity,
                ..Log::default()
            }))),
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. The hot-path entry point: a no-op branch when
    /// disabled, a fixed-slot copy when enabled.
    #[inline]
    pub fn record(&self, req_id: u32, ts_ns: u64, event: FlightEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().push(FlightRecord {
                req_id,
                ts_ns,
                event,
            });
        }
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().records.len())
    }

    /// True when no records are held (or the recorder is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Log capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().capacity)
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().recorded)
    }

    /// Records lost to overwrite since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// Removes and returns all held records in recording order.
    /// Harnesses call this once per time slice to keep the log from
    /// overwriting; allocation happens here, on the reporting path.
    pub fn drain(&self) -> Vec<FlightRecord> {
        let out = self.snapshot();
        self.clear();
        out
    }

    /// All currently held records for `req_id` — its spans and its
    /// lifecycle events — in the one order they were recorded (a span at
    /// its close).
    pub fn events_for(&self, req_id: u32) -> Vec<FlightRecord> {
        let mut out = self.snapshot();
        out.retain(|r| r.req_id == req_id);
        out
    }

    /// All currently held records, oldest first, without clearing.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.borrow().iter().copied().collect(),
        }
    }

    /// Drops all held records (capacity and drop counters are kept).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut log = inner.borrow_mut();
            log.records.clear();
            log.head = 0;
        }
    }

    /// The held records as Chrome Trace Event JSON, oldest first: a bare
    /// array of one event per record, `ts` (and a span's `dur`) in
    /// microseconds of virtual time. A span is a complete (`ph:"X"`) event
    /// on the thread of its depth, with `self_ns` in its args when
    /// non-zero; any other record is an instant (`ph:"i"`) on thread 0
    /// with its detail in its args. Loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let events = self
            .snapshot()
            .iter()
            .map(FlightRecord::chrome_event)
            .collect();
        Value::Arr(events).render()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        fr.record(1, 10, FlightEvent::ClientSend);
        assert!(!fr.is_enabled());
        assert!(fr.is_empty());
        assert_eq!(fr.capacity(), 0);
        assert_eq!(fr.recorded(), 0);
        assert!(fr.drain().is_empty());
        assert!(fr.events_for(1).is_empty());
    }

    #[test]
    fn records_and_correlates_by_request_id() {
        let fr = FlightRecorder::with_capacity(16);
        fr.record(7, 100, FlightEvent::ClientSend);
        fr.record(8, 110, FlightEvent::ClientSend);
        fr.record(7, 150, FlightEvent::BacklogAdmit { backlog: 3 });
        fr.record(7, 200, FlightEvent::Reply { flags: 0 });
        let seven = fr.events_for(7);
        assert_eq!(seven.len(), 3);
        assert_eq!(seven[0].event, FlightEvent::ClientSend);
        assert_eq!(seven[1].event, FlightEvent::BacklogAdmit { backlog: 3 });
        assert_eq!(seven[2].ts_ns, 200);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.recorded(), 4);
    }

    #[test]
    fn shared_handle_interleaves_machines() {
        let server_side = FlightRecorder::with_capacity(8);
        let client_side = server_side.clone();
        client_side.record(1, 50, FlightEvent::ClientSend);
        server_side.record(1, 80, FlightEvent::ShardDispatch { shard: 2 });
        client_side.record(1, 120, FlightEvent::ClientRecv { flags: 0 });
        let tl = server_side.events_for(1);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[1].event, FlightEvent::ShardDispatch { shard: 2 });
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fr = FlightRecorder::with_capacity(4);
        for i in 0..6u32 {
            fr.record(i, u64::from(i) * 10, FlightEvent::ClientSend);
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.recorded(), 6);
        let snap = fr.snapshot();
        let ids: Vec<u32> = snap.iter().map(|r| r.req_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest two were overwritten");
        assert!(snap.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn drain_empties_and_preserves_order() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u32 {
            fr.record(i, u64::from(i), FlightEvent::ClientSend);
        }
        let drained = fr.drain();
        assert_eq!(drained.len(), 3);
        let ids: Vec<u32> = drained.iter().map(|r| r.req_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert!(fr.is_empty());
        // The ring is reusable after a drain.
        fr.record(9, 99, FlightEvent::DedupHit);
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.snapshot()[0].req_id, 9);
    }

    #[test]
    fn records_render_with_their_details() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record(3, 10, FlightEvent::ClientSend);
        fr.record(
            3,
            20,
            FlightEvent::ClientRetry {
                attempt: 1,
                backoff_ns: 500,
            },
        );
        fr.record(3, 30, FlightEvent::BacklogShed { sojourn_ns: 1234 });
        let tl: Vec<String> = fr
            .events_for(3)
            .iter()
            .map(|r| r.to_value().render())
            .collect();
        assert_eq!(
            tl[0],
            "{\"req_id\": 3, \"ts_ns\": 10, \"event\": \"client_send\"}\n"
        );
        assert_eq!(
            tl[1],
            "{\"req_id\": 3, \"ts_ns\": 20, \"event\": \"client_retry\", \"attempt\": 1}\n"
        );
        assert!(tl[2].contains("\"sojourn_ns\": 1234"));
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let events = [
            FlightEvent::ClientSend,
            FlightEvent::ClientRetry {
                attempt: 1,
                backoff_ns: 0,
            },
            FlightEvent::BreakerFastFail,
            FlightEvent::RetryBudgetExhausted,
            FlightEvent::ClientTimeout,
            FlightEvent::StaleReply,
            FlightEvent::ShedReply,
            FlightEvent::ClientRecv { flags: 0 },
            FlightEvent::NicTxEnqueue { queue: 0 },
            FlightEvent::NicRxEnqueue { queue: 0 },
            FlightEvent::NicTailDrop { queue: 0 },
            FlightEvent::BacklogAdmit { backlog: 0 },
            FlightEvent::BacklogShed { sojourn_ns: 0 },
            FlightEvent::ShardDispatch { shard: 0 },
            FlightEvent::Serialize { entries: 0 },
            FlightEvent::CopyFallback,
            FlightEvent::DedupHit,
            FlightEvent::Reply { flags: 0 },
            FlightEvent::TcpMsgSend { bytes: 0 },
            FlightEvent::TcpMsgDeliver { bytes: 0 },
            FlightEvent::TcpAccept { flows: 0 },
            FlightEvent::TcpSynReject,
            FlightEvent::TcpFlowClose { reason: 0 },
            FlightEvent::ReplicaPut { node: 0 },
            FlightEvent::ReplicaAck { node: 0 },
            FlightEvent::Failover { node: 0 },
            FlightEvent::CatchupReplay { node: 0 },
            FlightEvent::ClusterOp {
                put: false,
                key: 0,
                version: 0,
                invoke_ns: 0,
            },
        ];
        let mut labels: Vec<&str> = events.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate event label");
    }
}
