//! Bounded flow tables: one listener multiplexing thousands of TCP
//! connections from a preallocated slab.
//!
//! The paper's serving experiments (§6) run against thousands of client
//! connections; a server that heap-allocates per accept or lets any single
//! peer grow unbounded state falls over exactly when it matters — under a
//! SYN flood or a slow-drip reader. This module holds the line:
//!
//! - **Preallocated slab** ([`TcpListener`]): per-connection state lives in
//!   `FlowConfig::capacity` preallocated slots recycled through a free
//!   list. Accepting and closing a connection allocates nothing on the
//!   heap in steady state (after warmup growth of per-slot buffers), the
//!   same discipline the UDP hot path proves with allocator counters.
//! - **Bounded SYN backlog**: half-open connections are capped; excess
//!   SYNs are answered with RST at fast-reject cost (0.15× the per-packet
//!   base — cheaper than serving, so floods cannot starve paying flows)
//!   and counted in `net.tcp.listen.syn_overflow_rsts`.
//! - **Per-flow memory caps**: each flow's reassembly buffer is bounded
//!   (`reasm_cap`; overflow dropped-as-loss for the peer's RTO to retry)
//!   and its retransmission queue is bounded (`max_tx_records`; sends
//!   return `Ok(false)` instead of queueing unboundedly to a dead peer).
//! - **Provable teardown**: FIN and RST free the slot immediately —
//!   retransmission `RcBuf` references drop back to the pinned pool on
//!   close, not when the listener drops.
//! - **Idle reaping**: a virtual-time timer wheel sweeps flows (half-open
//!   ones included — the SYN-flood backstop) that go quiet for
//!   `idle_timeout_ns`, sending a courtesy RST and recycling the slot.
//!
//! Generation counters make [`FlowId`] handles ABA-safe: a handle to a
//! recycled slot goes stale instead of addressing the next occupant.
//!
//! Each slot's protocol is a `conn::Flow`, the state machine
//! [`crate::tcp::TcpStack`] runs too; this module is what a table of them
//! needs around it — demux, admission, timers, the ready queue, statistics.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::mem::size_of;

use cf_mem::RcBuf;
use cf_nic::Port;
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, Gauge, Telemetry};
use cornflakes_core::{CornflakesObj, SerCtx, SerializationConfig};

use crate::conn::{Corrupt, Flow, FlowIo, Segment, State};
use crate::tcp::{DEFAULT_RTO_NS, FLAG_ACK, FLAG_RST, FLAG_SYN};
use crate::udp::NetError;

/// Flow closed by the peer's FIN (orderly).
pub const FLOW_CLOSE_FIN: u8 = 0;
/// Flow closed by the peer's RST (abortive).
pub const FLOW_CLOSE_RST: u8 = 1;
/// Flow reaped by the idle timer.
pub const FLOW_CLOSE_REAP: u8 = 2;
/// Flow closed locally (`close_flow`).
pub const FLOW_CLOSE_LOCAL: u8 = 3;

/// Sizing and policy knobs for a [`TcpListener`]'s flow table.
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Maximum concurrent flows (slab size; preallocated).
    pub capacity: usize,
    /// Maximum half-open (SYN-received) flows; excess SYNs get RST.
    pub syn_backlog: usize,
    /// Per-flow reassembly-buffer cap in bytes (0 = unbounded).
    pub reasm_cap: usize,
    /// Per-flow retransmission-queue cap in records; sends past it are
    /// refused with `Ok(false)` rather than queueing unboundedly.
    pub max_tx_records: usize,
    /// A flow quiet for this long (virtual ns) is reaped.
    pub idle_timeout_ns: u64,
    /// Timer-wheel bucket count.
    pub wheel_slots: usize,
    /// Timer-wheel tick width in virtual ns.
    pub wheel_tick_ns: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            capacity: 1024,
            syn_backlog: 128,
            reasm_cap: 64 * 1024,
            max_tx_records: 64,
            idle_timeout_ns: 2_000_000,
            wheel_slots: 64,
            wheel_tick_ns: 250_000,
        }
    }
}

/// A generation-checked handle to a flow-table slot. Stale after the flow
/// closes and the slot is recycled — operations on a stale handle return
/// `Ok(false)`, never touch the next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId {
    /// Slot index in the slab.
    pub idx: u32,
    /// Slot generation at handle creation.
    pub gen: u32,
}

struct FlowSlot {
    gen: u32,
    flow: Flow,
    last_activity: u64,
    in_ready: bool,
    idle_armed: bool,
    rto_armed: bool,
}

impl FlowSlot {
    fn fresh() -> Self {
        FlowSlot {
            gen: 0,
            flow: Flow::new(),
            last_activity: 0,
            in_ready: false,
            idle_armed: false,
            rto_armed: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    Idle,
    Rto,
}

#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    idx: u32,
    gen: u32,
    kind: TimerKind,
}

/// A single-level timer wheel over virtual time. Entries may fire early
/// (tick granularity, or a jump of more than one lap); handlers re-check
/// their condition and re-arm, so early fire costs a check, never
/// correctness.
struct TimerWheel {
    buckets: Vec<Vec<WheelEntry>>,
    cur: usize,
    tick_ns: u64,
    last_tick: u64,
}

impl TimerWheel {
    fn new(slots: usize, tick_ns: u64, now: u64) -> Self {
        assert!(slots >= 2, "wheel needs at least two buckets");
        assert!(tick_ns > 0, "wheel tick must be positive");
        TimerWheel {
            buckets: (0..slots).map(|_| Vec::new()).collect(),
            cur: 0,
            tick_ns,
            last_tick: now / tick_ns,
        }
    }

    /// Schedules `e` to fire no earlier than `at` (clamped to within one
    /// lap, and at least one tick ahead so the current bucket never
    /// self-inserts while draining).
    fn schedule(&mut self, at: u64, e: WheelEntry) {
        let target = at / self.tick_ns;
        let ahead = target
            .saturating_sub(self.last_tick)
            .clamp(1, (self.buckets.len() - 1) as u64);
        let slot = (self.cur + ahead as usize) % self.buckets.len();
        self.buckets[slot].push(e);
    }

    /// Advances to `now`, draining fired entries into `fired`. A jump of
    /// more than one lap drains every bucket once (entries fire early;
    /// handlers re-check).
    fn advance(&mut self, now: u64, fired: &mut Vec<WheelEntry>) {
        let target = now / self.tick_ns;
        let steps = (target - self.last_tick).min(self.buckets.len() as u64);
        for _ in 0..steps {
            self.cur = (self.cur + 1) % self.buckets.len();
            fired.append(&mut self.buckets[self.cur]);
        }
        self.last_tick = target;
    }
}

/// Aggregate listener statistics: a snapshot of the listener's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// SYNs for new flows seen (accepted or rejected).
    pub syns: u64,
    /// Handshakes completed.
    pub accepts: u64,
    /// SYNs refused with RST (table full or backlog full).
    pub syn_overflow_rsts: u64,
    /// Frames dropped for failing the frame check sequence.
    pub rx_corrupt_drops: u64,
    /// Orderly closes (peer FIN or local `close_flow`).
    pub closes: u64,
    /// Peer RSTs received on known flows.
    pub resets: u64,
    /// Flows reaped by the idle timer.
    pub reaps: u64,
    /// In-order payload bytes refused at the per-flow reassembly cap.
    pub reasm_overflow_drops: u64,
    /// Sends refused at the per-flow retransmission-queue cap.
    pub tx_cap_drops: u64,
    /// Segments retransmitted.
    pub retransmissions: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Complete messages delivered to the application.
    pub msgs_received: u64,
}

/// The listener's counter cells, owned from construction — the only place
/// its facts are counted — and adopted as `net.tcp.listen.*` /
/// `net.tcp.flow.*` by [`TcpListener::set_telemetry`].
#[derive(Debug, Default)]
struct ListenCounters {
    syns: Counter,
    accepts: Counter,
    syn_overflow_rsts: Counter,
    rx_corrupt_drops: Counter,
    syn_backlog: Gauge,
    active: Gauge,
    closes: Counter,
    resets: Counter,
    reaps: Counter,
    reasm_overflow_drops: Counter,
    tx_cap_drops: Counter,
    retransmissions: Counter,
    msgs_sent: Counter,
    msgs_received: Counter,
}

/// A TCP listener multiplexing many flows over one NIC queue, with all
/// per-connection state drawn from a bounded preallocated slab.
pub struct TcpListener {
    io: FlowIo,
    cfg: FlowConfig,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    by_port: HashMap<u16, u32>,
    ready: VecDeque<u32>,
    syn_count: usize,
    established: usize,
    wheel: TimerWheel,
    fired: Vec<WheelEntry>,
    counters: ListenCounters,
}

impl TcpListener {
    /// Creates a listener on `wire_port` bound to `local_port`.
    pub fn new(
        sim: Sim,
        wire_port: Port,
        local_port: u16,
        config: SerializationConfig,
        flow_cfg: FlowConfig,
    ) -> Self {
        assert!(flow_cfg.capacity > 0, "flow table needs at least one slot");
        let now = sim.now();
        let capacity = flow_cfg.capacity;
        TcpListener {
            io: FlowIo::new(sim, wire_port, local_port, config, flow_cfg.reasm_cap),
            cfg: flow_cfg,
            slots: (0..capacity).map(|_| FlowSlot::fresh()).collect(),
            free: (0..capacity as u32).rev().collect(),
            by_port: HashMap::with_capacity(capacity * 2),
            ready: VecDeque::with_capacity(capacity),
            syn_count: 0,
            established: 0,
            wheel: TimerWheel::new(flow_cfg.wheel_slots, flow_cfg.wheel_tick_ns, now),
            fired: Vec::new(),
            counters: ListenCounters::default(),
        }
    }

    /// Attaches `tele` to the listener, its serialization context and its
    /// NIC: the `net.tcp.listen.*`, `net.tcp.flow.*`, `nic.*` and `mem.*`
    /// cells are adopted holding whatever they have counted so far, and
    /// flow lifecycle events join `tele`'s flight recorder, keyed by the
    /// peer's port (the flow key both ends know without wire changes).
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.io.ctx.set_telemetry(tele);
        self.io.nic.set_telemetry(tele);
        let c = &self.counters;
        tele.adopt_counter("net.tcp.listen.syns", &c.syns);
        tele.adopt_counter("net.tcp.listen.accepts", &c.accepts);
        tele.adopt_counter("net.tcp.listen.syn_overflow_rsts", &c.syn_overflow_rsts);
        tele.adopt_counter("net.tcp.listen.rx_corrupt_drops", &c.rx_corrupt_drops);
        tele.adopt_gauge("net.tcp.listen.syn_backlog", &c.syn_backlog);
        tele.adopt_gauge("net.tcp.flow.active", &c.active);
        tele.adopt_counter("net.tcp.flow.closes", &c.closes);
        tele.adopt_counter("net.tcp.flow.resets", &c.resets);
        tele.adopt_counter("net.tcp.flow.reaps", &c.reaps);
        tele.adopt_counter("net.tcp.flow.reasm_overflow_drops", &c.reasm_overflow_drops);
        tele.adopt_counter("net.tcp.flow.tx_cap_drops", &c.tx_cap_drops);
        tele.adopt_counter("net.tcp.flow.retransmissions", &c.retransmissions);
        tele.adopt_counter("net.tcp.flow.msgs_sent", &c.msgs_sent);
        tele.adopt_counter("net.tcp.flow.msgs_received", &c.msgs_received);
    }

    /// The serialization context (pool, sim, config).
    pub fn ctx(&self) -> &SerCtx {
        &self.io.ctx
    }

    /// Slab capacity (maximum concurrent flows).
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Occupied slots (half-open + established). Never exceeds
    /// [`TcpListener::capacity`] — the slab is the allocation.
    pub fn active_flows(&self) -> usize {
        self.cfg.capacity - self.free.len()
    }

    /// Fully established flows.
    pub fn established_flows(&self) -> usize {
        self.established
    }

    /// Half-open (SYN-received) flows.
    pub fn syn_backlog_len(&self) -> usize {
        self.syn_count
    }

    /// Installs a fault plan on the listener's receive direction (see
    /// [`cf_nic::Port::install_faults`]); returns the injector handle.
    pub fn install_faults(&self, plan: cf_nic::FaultPlan) -> cf_nic::FaultInjector {
        self.io.install_faults(plan)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ListenerStats {
        let c = &self.counters;
        ListenerStats {
            syns: c.syns.get(),
            accepts: c.accepts.get(),
            syn_overflow_rsts: c.syn_overflow_rsts.get(),
            rx_corrupt_drops: c.rx_corrupt_drops.get(),
            closes: c.closes.get(),
            resets: c.resets.get(),
            reaps: c.reaps.get(),
            reasm_overflow_drops: c.reasm_overflow_drops.get(),
            tx_cap_drops: c.tx_cap_drops.get(),
            retransmissions: c.retransmissions.get(),
            msgs_sent: c.msgs_sent.get(),
            msgs_received: c.msgs_received.get(),
        }
    }

    /// Estimated resident bytes of the flow-table subsystem: the slab, the
    /// per-flow buffers' retained capacity, the timer wheel, and the demux
    /// map. Deterministic, so the churn bench can ratchet a memory ceiling.
    pub fn resident_bytes(&self) -> usize {
        let mut total = self.slots.capacity() * size_of::<FlowSlot>();
        total += self
            .slots
            .iter()
            .map(|s| s.flow.resident_bytes())
            .sum::<usize>();
        total += self.free.capacity() * size_of::<u32>();
        total += self.ready.capacity() * size_of::<u32>();
        // HashMap node estimate: key + value + control byte + padding.
        total += self.by_port.capacity() * (size_of::<u16>() + size_of::<u32>() + 2);
        for b in &self.wheel.buckets {
            total += b.capacity() * size_of::<WheelEntry>();
        }
        total += self
            .io
            .spares
            .iter()
            .map(|d| d.capacity() * size_of::<RcBuf>())
            .sum::<usize>()
            + self.io.spares.capacity() * size_of::<Vec<RcBuf>>();
        total
    }

    fn lookup(&self, flow: FlowId) -> Option<usize> {
        let i = flow.idx as usize;
        let slot = self.slots.get(i)?;
        (slot.gen == flow.gen && slot.flow.state() == State::Established).then_some(i)
    }

    fn arm(&mut self, idx: u32, kind: TimerKind, at: u64) {
        let slot = &mut self.slots[idx as usize];
        let armed = match kind {
            TimerKind::Idle => &mut slot.idle_armed,
            TimerKind::Rto => &mut slot.rto_armed,
        };
        if !*armed {
            *armed = true;
            let gen = slot.gen;
            self.wheel.schedule(at, WheelEntry { idx, gen, kind });
        }
    }

    /// Recycles slot `idx`: buffers are released to the pool *now*, the
    /// slot's retained capacity stays for the next occupant, and the
    /// generation bumps so outstanding [`FlowId`]s go stale.
    fn free_slot(&mut self, idx: u32, reason: u8) {
        let slot = &mut self.slots[idx as usize];
        match slot.flow.state() {
            State::Closed => debug_assert!(false, "double free of flow slot"),
            State::SynRcvd => {
                self.syn_count -= 1;
                self.counters.syn_backlog.set(self.syn_count as f64);
            }
            _ => self.established -= 1,
        }
        let remote = slot.flow.remote();
        slot.flow.release(&mut self.io);
        slot.flow.discard_unread();
        slot.gen = slot.gen.wrapping_add(1);
        slot.in_ready = false;
        // Any wheel entries still pending for the old generation are now
        // stale (skipped by the gen check), so the next occupant must be
        // free to arm its own — a leaked armed flag would leave it
        // timer-less and unreapable.
        slot.idle_armed = false;
        slot.rto_armed = false;
        self.by_port.remove(&remote);
        self.free.push(idx);
        self.counters.active.set(self.active_flows() as f64);
        self.io.ctx.telemetry.flight().record(
            u32::from(remote),
            self.io.ctx.sim.now(),
            FlightEvent::TcpFlowClose { reason },
        );
    }

    /// Processes received segments and fires due timers. Call each
    /// scheduling quantum.
    pub fn poll(&mut self) -> Result<(), NetError> {
        while let Some(rx) = self.io.recv_segment() {
            match rx {
                Ok(seg) => match self.by_port.get(&seg.src).copied() {
                    Some(idx) => self.handle_known(idx, &seg)?,
                    None => self.handle_unknown(&seg)?,
                },
                Err(Corrupt) => {
                    self.counters.rx_corrupt_drops.inc();
                }
            }
        }
        self.advance_timers()
    }

    /// A segment from a port with no flow: SYN opens (or is refused), and
    /// anything else is ignored — replying RST to strays would let our own
    /// teardown collapse (we free on FIN before the peer's last ACK
    /// arrives) turn into an RST storm.
    fn handle_unknown(&mut self, seg: &Segment) -> Result<(), NetError> {
        if !seg.has(FLAG_SYN) || seg.has(FLAG_RST) {
            return Ok(());
        }
        self.counters.syns.inc();
        let now = self.io.ctx.sim.now();
        let admitted = if self.syn_count < self.cfg.syn_backlog {
            self.free.pop()
        } else {
            None
        };
        let Some(idx) = admitted else {
            self.counters.syn_overflow_rsts.inc();
            let flight = self.io.ctx.telemetry.flight();
            flight.record(u32::from(seg.src), now, FlightEvent::TcpSynReject);
            // Fast reject: cheaper than accepting, so a flood can't starve
            // established flows of CPU.
            let ack = seg.seq.wrapping_add(1);
            return self
                .io
                .send_control(seg.src, 0, ack, FLAG_RST | FLAG_ACK, 0.15);
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.flow.reasm_len() == 0 && slot.flow.rtx_len() == 0);
        slot.last_activity = now;
        slot.in_ready = false;
        self.by_port.insert(seg.src, idx);
        self.syn_count += 1;
        self.counters.syn_backlog.set(self.syn_count as f64);
        self.counters.active.set(self.active_flows() as f64);
        self.arm(idx, TimerKind::Idle, now + self.cfg.idle_timeout_ns);
        // The fresh flow's passive open answers SYN|ACK.
        self.slots[idx as usize]
            .flow
            .on_segment(&mut self.io, seg)
            .map(drop)
    }

    fn handle_known(&mut self, idx: u32, seg: &Segment) -> Result<(), NetError> {
        let now = self.io.ctx.sim.now();
        let slot = &mut self.slots[idx as usize];
        slot.last_activity = now;
        let ev = slot.flow.on_segment(&mut self.io, seg)?;
        if ev.established {
            self.syn_count -= 1;
            self.counters.syn_backlog.set(self.syn_count as f64);
            self.established += 1;
            self.counters.accepts.inc();
            self.io.ctx.telemetry.flight().record(
                u32::from(seg.src),
                now,
                FlightEvent::TcpAccept {
                    flows: self.established.min(u16::MAX as usize) as u16,
                },
            );
        }
        if ev.reasm_overflow {
            self.counters.reasm_overflow_drops.inc();
        }
        if ev.delivered && !slot.in_ready && slot.flow.has_complete_msg() {
            slot.in_ready = true;
            self.ready.push_back(idx);
        }
        // The peer ended the flow: recycle the slot at once. Undelivered
        // messages die with it — the peer closed without reading replies.
        match ev.closed_by {
            Some(FLOW_CLOSE_RST) => {
                self.counters.resets.inc();
                self.free_slot(idx, FLOW_CLOSE_RST);
            }
            Some(reason) => {
                self.counters.closes.inc();
                self.free_slot(idx, reason);
            }
            None => {}
        }
        Ok(())
    }

    fn advance_timers(&mut self) -> Result<(), NetError> {
        let now = self.io.ctx.sim.now();
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.advance(now, &mut fired);
        for e in fired.drain(..) {
            let slot = &self.slots[e.idx as usize];
            if slot.gen != e.gen || slot.flow.state() == State::Closed {
                continue; // stale: the flow this entry watched is gone
            }
            match e.kind {
                TimerKind::Idle => self.fire_idle(e.idx)?,
                TimerKind::Rto => self.fire_rto(e.idx)?,
            }
        }
        self.fired = fired;
        Ok(())
    }

    fn fire_idle(&mut self, idx: u32) -> Result<(), NetError> {
        let slot = &mut self.slots[idx as usize];
        slot.idle_armed = false;
        let now = self.io.ctx.sim.now();
        let deadline = slot.last_activity + self.cfg.idle_timeout_ns;
        if now >= deadline {
            // Quiet too long (half-open ones included — the SYN-flood
            // backstop): courtesy RST, then recycle.
            slot.flow.send_rst(&mut self.io)?;
            self.counters.reaps.inc();
            self.free_slot(idx, FLOW_CLOSE_REAP);
        } else {
            self.arm(idx, TimerKind::Idle, deadline);
        }
        Ok(())
    }

    fn fire_rto(&mut self, idx: u32) -> Result<(), NetError> {
        let slot = &mut self.slots[idx as usize];
        slot.rto_armed = false;
        let now = self.io.ctx.sim.now();
        if slot.flow.on_rto(&mut self.io)? {
            self.counters.retransmissions.inc();
        }
        if slot.flow.rtx_len() > 0 {
            self.arm(idx, TimerKind::Rto, now + DEFAULT_RTO_NS);
        }
        Ok(())
    }

    /// Pops the next complete length-prefixed message from any flow,
    /// copied into a pinned buffer. `Ok(None)` when no flow has a complete
    /// message. [`NetError::RxPoolExhausted`] leaves the message queued
    /// (backpressure — retry after freeing buffers).
    pub fn recv_from(&mut self) -> Result<Option<(FlowId, RcBuf)>, NetError> {
        while let Some(idx) = self.ready.pop_front() {
            let slot = &mut self.slots[idx as usize];
            if !slot.in_ready {
                continue; // flow closed after queueing
            }
            let msg = slot.flow.recv_msg(&self.io).inspect_err(|_| {
                self.ready.push_front(idx);
            })?;
            if slot.flow.has_complete_msg() {
                self.ready.push_back(idx);
            } else {
                slot.in_ready = false;
            }
            if let Some(buf) = msg {
                self.counters.msgs_received.inc();
                return Ok(Some((FlowId { idx, gen: slot.gen }, buf)));
            }
        }
        Ok(None)
    }

    /// The slot `flow` can send on: `None` when the flow is gone (stale
    /// handle) or its retransmission queue is at `max_tx_records` —
    /// refusal, not unbounded queueing to a peer that stopped ACKing.
    fn sendable(&mut self, flow: FlowId) -> Option<usize> {
        let i = self.lookup(flow)?;
        if self.slots[i].flow.rtx_len() >= self.cfg.max_tx_records {
            self.counters.tx_cap_drops.inc();
            return None;
        }
        Some(i)
    }

    fn on_sent(&mut self, i: usize) {
        self.counters.msgs_sent.inc();
        let at = self.io.ctx.sim.now() + DEFAULT_RTO_NS;
        self.arm(i as u32, TimerKind::Rto, at);
    }

    /// Sends pre-serialized bytes to `flow` as one length-prefixed stream
    /// message. `Ok(false)` when the flow is gone (stale handle) or its
    /// retransmission queue is at `max_tx_records` — refusal, not
    /// unbounded queueing to a peer that stopped ACKing.
    pub fn send_bytes_to(&mut self, flow: FlowId, data: &[u8]) -> Result<bool, NetError> {
        let Some(i) = self.sendable(flow) else {
            return Ok(false);
        };
        self.slots[i].flow.send_bytes(&mut self.io, data)?;
        self.on_sent(i);
        Ok(true)
    }

    /// Serializes `obj` and sends it to `flow` as one length-prefixed
    /// stream message, `prefix` bytes first (the application sub-header),
    /// using the combined serialize-and-send gather. Zero-copy entries are
    /// retained in the flow's retransmission queue until cumulatively
    /// ACKed. `Ok(false)` as for [`TcpListener::send_bytes_to`].
    pub fn send_object_to(
        &mut self,
        flow: FlowId,
        prefix: &[u8],
        obj: &impl CornflakesObj,
    ) -> Result<bool, NetError> {
        let Some(i) = self.sendable(flow) else {
            return Ok(false);
        };
        self.slots[i].flow.send_object(&mut self.io, prefix, obj)?;
        self.on_sent(i);
        Ok(true)
    }

    /// Orderly local close: FIN to the peer, slot recycled immediately
    /// (the peer's final ACK lands on an unknown port and is ignored).
    pub fn close_flow(&mut self, flow: FlowId) -> Result<bool, NetError> {
        let Some(i) = self.lookup(flow) else {
            return Ok(false);
        };
        self.slots[i].flow.close(&mut self.io)?;
        self.counters.closes.inc();
        self.free_slot(flow.idx, FLOW_CLOSE_LOCAL);
        Ok(true)
    }
}

impl fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpListener")
            .field("local_port", &self.io.local_port)
            .field("capacity", &self.cfg.capacity)
            .field("active", &self.active_flows())
            .field("established", &self.established)
            .field("syn_backlog", &self.syn_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_after_the_scheduled_tick() {
        let mut w = TimerWheel::new(8, 100, 0);
        w.schedule(
            250,
            WheelEntry {
                idx: 1,
                gen: 0,
                kind: TimerKind::Idle,
            },
        );
        let mut fired = Vec::new();
        w.advance(199, &mut fired);
        assert!(fired.is_empty(), "not due yet");
        w.advance(300, &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].idx, 1);
    }

    #[test]
    fn wheel_near_schedules_land_at_least_one_tick_out() {
        let mut w = TimerWheel::new(8, 100, 0);
        // Already-due deadline still lands one tick ahead, never in the
        // currently-draining bucket.
        w.schedule(
            0,
            WheelEntry {
                idx: 7,
                gen: 3,
                kind: TimerKind::Rto,
            },
        );
        let mut fired = Vec::new();
        w.advance(100, &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].gen, 3);
    }

    #[test]
    fn wheel_long_jump_fires_everything_once() {
        let mut w = TimerWheel::new(8, 100, 0);
        for i in 0..5u32 {
            w.schedule(
                (i as u64 + 1) * 100,
                WheelEntry {
                    idx: i,
                    gen: 0,
                    kind: TimerKind::Idle,
                },
            );
        }
        let mut fired = Vec::new();
        w.advance(1_000_000, &mut fired);
        assert_eq!(fired.len(), 5, "a lap drains every bucket");
    }
}
