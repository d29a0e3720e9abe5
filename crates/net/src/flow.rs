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

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::mem::size_of;
use std::rc::Rc;

use cf_mem::{PoolConfig, RcBuf};
use cf_nic::{Nic, Port};
use cf_sim::cost::Category;
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Telemetry};
use cornflakes_core::obj::write_full_header;
use cornflakes_core::{CornflakesObj, SerCtx, SerializationConfig};

use crate::tcp::{
    build_header, seq_lt, FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, OFF_ACK, OFF_FLAGS, OFF_SEQ,
    OFF_SRC, TCP_HEADER_BYTES,
};
use crate::udp::NetError;

/// Flow closed by the peer's FIN (orderly).
pub const FLOW_CLOSE_FIN: u8 = 0;
/// Flow closed by the peer's RST (abortive).
pub const FLOW_CLOSE_RST: u8 = 1;
/// Flow reaped by the idle timer.
pub const FLOW_CLOSE_REAP: u8 = 2;
/// Flow closed locally (`close_flow` / `abort_flow`).
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
    /// Retransmission timeout in virtual ns.
    pub rto_ns: u64,
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
            rto_ns: crate::tcp::DEFAULT_RTO_NS,
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

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlowState {
    Free,
    SynRcvd,
    Established,
}

struct FlowTxRecord {
    seq: u32,
    len: u32,
    entries: Vec<RcBuf>,
    sent_at: u64,
}

struct FlowSlot {
    gen: u32,
    state: FlowState,
    remote: u16,
    snd_nxt: u32,
    snd_una: u32,
    rcv_nxt: u32,
    reasm: Vec<u8>,
    rtx: VecDeque<FlowTxRecord>,
    last_activity: u64,
    in_ready: bool,
    idle_armed: bool,
    rto_armed: bool,
}

impl FlowSlot {
    fn fresh() -> Self {
        FlowSlot {
            gen: 0,
            state: FlowState::Free,
            remote: 0,
            snd_nxt: 1,
            snd_una: 1,
            rcv_nxt: 1,
            reasm: Vec::new(),
            rtx: VecDeque::new(),
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

/// Aggregate listener statistics (also mirrored to telemetry counters).
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

/// Cached telemetry handles; defaults are unregistered no-ops.
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
    ctx: SerCtx,
    nic: Rc<RefCell<Nic>>,
    queue: usize,
    local_port: u16,
    cfg: FlowConfig,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    by_port: HashMap<u16, u32>,
    ready: VecDeque<u32>,
    syn_count: usize,
    established: usize,
    wheel: TimerWheel,
    fired: Vec<WheelEntry>,
    desc_spares: Vec<Vec<RcBuf>>,
    scratch: Vec<u8>,
    stats: ListenerStats,
    counters: ListenCounters,
    flight: FlightRecorder,
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
        Self::with_pool_config(
            sim,
            wire_port,
            local_port,
            config,
            PoolConfig::default(),
            flow_cfg,
        )
    }

    /// Like [`TcpListener::new`] with explicit pinned-pool sizing (large
    /// flow counts need more receive buffers in flight).
    pub fn with_pool_config(
        sim: Sim,
        wire_port: Port,
        local_port: u16,
        config: SerializationConfig,
        pool_cfg: PoolConfig,
        flow_cfg: FlowConfig,
    ) -> Self {
        assert!(flow_cfg.capacity > 0, "flow table needs at least one slot");
        let nic = Rc::new(RefCell::new(Nic::new(sim.clone(), wire_port)));
        let ctx = SerCtx::with_pool_config(sim, config, pool_cfg);
        let now = ctx.sim.now();
        let capacity = flow_cfg.capacity;
        TcpListener {
            ctx,
            nic,
            queue: 0,
            local_port,
            cfg: flow_cfg,
            slots: (0..capacity).map(|_| FlowSlot::fresh()).collect(),
            free: (0..capacity as u32).rev().collect(),
            by_port: HashMap::with_capacity(capacity * 2),
            ready: VecDeque::with_capacity(capacity),
            syn_count: 0,
            established: 0,
            wheel: TimerWheel::new(flow_cfg.wheel_slots, flow_cfg.wheel_tick_ns, now),
            fired: Vec::new(),
            desc_spares: Vec::new(),
            scratch: Vec::with_capacity(4096),
            stats: ListenerStats::default(),
            counters: ListenCounters::default(),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Wires the listener into a telemetry handle: `net.tcp.listen.*` and
    /// `net.tcp.flow.*` metrics plus NIC/memory/serializer metrics.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.ctx.install_telemetry(tele);
        self.nic.borrow_mut().set_telemetry(tele);
        self.counters = ListenCounters {
            syns: tele.counter("net.tcp.listen.syns"),
            accepts: tele.counter("net.tcp.listen.accepts"),
            syn_overflow_rsts: tele.counter("net.tcp.listen.syn_overflow_rsts"),
            rx_corrupt_drops: tele.counter("net.tcp.listen.rx_corrupt_drops"),
            syn_backlog: tele.gauge("net.tcp.listen.syn_backlog"),
            active: tele.gauge("net.tcp.flow.active"),
            closes: tele.counter("net.tcp.flow.closes"),
            resets: tele.counter("net.tcp.flow.resets"),
            reaps: tele.counter("net.tcp.flow.reaps"),
            reasm_overflow_drops: tele.counter("net.tcp.flow.reasm_overflow_drops"),
            tx_cap_drops: tele.counter("net.tcp.flow.tx_cap_drops"),
            retransmissions: tele.counter("net.tcp.flow.retransmissions"),
            msgs_sent: tele.counter("net.tcp.flow.msgs_sent"),
            msgs_received: tele.counter("net.tcp.flow.msgs_received"),
        };
    }

    /// Installs a flight recorder; flow lifecycle events are keyed by the
    /// peer's port (the flow key both ends know without wire changes).
    pub fn set_flight_recorder(&mut self, fr: &FlightRecorder) {
        self.flight = fr.clone();
        self.nic.borrow_mut().set_flight_recorder(fr);
    }

    /// The serialization context (pool, sim, config).
    pub fn ctx(&self) -> &SerCtx {
        &self.ctx
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
        let port = self.nic.borrow().port().clone();
        port.install_faults(self.ctx.sim.clock(), plan)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ListenerStats {
        self.stats
    }

    /// Estimated resident bytes of the flow-table subsystem: the slab, the
    /// per-flow buffers' retained capacity, the timer wheel, and the demux
    /// map. Deterministic, so the churn bench can ratchet a memory ceiling.
    pub fn resident_bytes(&self) -> usize {
        let mut total = self.slots.capacity() * size_of::<FlowSlot>();
        for s in &self.slots {
            total += s.reasm.capacity();
            total += s.rtx.capacity() * size_of::<FlowTxRecord>();
            total += s
                .rtx
                .iter()
                .map(|r| r.entries.capacity() * size_of::<RcBuf>())
                .sum::<usize>();
        }
        total += self.free.capacity() * size_of::<u32>();
        total += self.ready.capacity() * size_of::<u32>();
        // HashMap node estimate: key + value + control byte + padding.
        total += self.by_port.capacity() * (size_of::<u16>() + size_of::<u32>() + 2);
        for b in &self.wheel.buckets {
            total += b.capacity() * size_of::<WheelEntry>();
        }
        total += self
            .desc_spares
            .iter()
            .map(|d| d.capacity() * size_of::<RcBuf>())
            .sum::<usize>()
            + self.desc_spares.capacity() * size_of::<Vec<RcBuf>>();
        total
    }

    /// Whether `flow` still addresses a live established flow.
    pub fn is_live(&self, flow: FlowId) -> bool {
        self.lookup(flow).is_some()
    }

    fn lookup(&self, flow: FlowId) -> Option<usize> {
        let i = flow.idx as usize;
        let slot = self.slots.get(i)?;
        (slot.gen == flow.gen && slot.state == FlowState::Established).then_some(i)
    }

    fn post_and_reap(&mut self, entries: Vec<RcBuf>) -> Result<(), NetError> {
        let mut nic = self.nic.borrow_mut();
        nic.post_tx_on(self.queue, entries)?;
        nic.poll_completions_on(self.queue);
        Ok(())
    }

    /// Sends a header-only control segment to `remote`, charged at `frac`
    /// of the per-packet base (0.15 fast-reject, 0.25 control).
    fn send_raw(
        &mut self,
        remote: u16,
        seq: u32,
        ack: u32,
        flags: u8,
        frac: f64,
    ) -> Result<(), NetError> {
        let costs = self.ctx.sim.costs();
        self.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * frac);
        let hdr = build_header(self.local_port, remote, seq, ack, flags);
        let mut buf = self.ctx.pool.alloc(TCP_HEADER_BYTES)?;
        buf.write_at(0, &hdr);
        let mut desc = self.nic.borrow_mut().take_desc(self.queue);
        desc.push(buf);
        self.post_and_reap(desc)
    }

    fn arm_idle(&mut self, idx: u32, at: u64) {
        let i = idx as usize;
        if !self.slots[i].idle_armed {
            self.slots[i].idle_armed = true;
            let gen = self.slots[i].gen;
            self.wheel.schedule(
                at,
                WheelEntry {
                    idx,
                    gen,
                    kind: TimerKind::Idle,
                },
            );
        }
    }

    fn arm_rto(&mut self, idx: u32, at: u64) {
        let i = idx as usize;
        if !self.slots[i].rto_armed {
            self.slots[i].rto_armed = true;
            let gen = self.slots[i].gen;
            self.wheel.schedule(
                at,
                WheelEntry {
                    idx,
                    gen,
                    kind: TimerKind::Rto,
                },
            );
        }
    }

    /// Recycles slot `idx`: buffers are released to the pool *now*, the
    /// slot's retained capacity stays for the next occupant, and the
    /// generation bumps so outstanding [`FlowId`]s go stale.
    fn free_slot(&mut self, idx: u32, reason: u8) {
        let i = idx as usize;
        let slot = &mut self.slots[i];
        debug_assert!(slot.state != FlowState::Free, "double free of flow slot");
        match slot.state {
            FlowState::SynRcvd => {
                self.syn_count -= 1;
                self.counters.syn_backlog.set(self.syn_count as f64);
            }
            FlowState::Established => self.established -= 1,
            FlowState::Free => {}
        }
        let remote = slot.remote;
        slot.state = FlowState::Free;
        slot.gen = slot.gen.wrapping_add(1);
        slot.in_ready = false;
        // Any wheel entries still pending for the old generation are now
        // stale (skipped by the gen check), so the next occupant must be
        // free to arm its own — a leaked armed flag would leave it
        // timer-less and unreapable.
        slot.idle_armed = false;
        slot.rto_armed = false;
        slot.reasm.clear();
        while let Some(mut rec) = slot.rtx.pop_front() {
            rec.entries.clear();
            self.desc_spares.push(rec.entries);
        }
        self.by_port.remove(&remote);
        self.free.push(idx);
        self.counters.active.set(self.active_flows() as f64);
        self.flight.record(
            u32::from(remote),
            self.ctx.sim.now(),
            FlightEvent::TcpFlowClose { reason },
        );
    }

    /// Processes received segments and fires due timers. Call each
    /// scheduling quantum.
    pub fn poll(&mut self) -> Result<(), NetError> {
        loop {
            let frame = self
                .nic
                .borrow_mut()
                .recv_into_on(self.queue, &self.ctx.pool);
            match frame {
                Some(frame) => self.handle_frame(frame)?,
                None => break,
            }
        }
        self.advance_timers()
    }

    fn handle_frame(&mut self, frame: RcBuf) -> Result<(), NetError> {
        if frame.len() < TCP_HEADER_BYTES {
            return Ok(()); // runt
        }
        // Corruption is dropped and counted; the peer's RTO recovers
        // (checksum offload — not charged).
        if !cf_nic::fcs_ok(frame.as_slice()) {
            self.stats.rx_corrupt_drops += 1;
            self.counters.rx_corrupt_drops.inc();
            return Ok(());
        }
        let costs = self.ctx.sim.costs();
        self.ctx
            .sim
            .charge(Category::Rx, costs.per_packet_base * 0.25);
        let b = frame.as_slice();
        let src = u16::from_be_bytes([b[OFF_SRC], b[OFF_SRC + 1]]);
        let seq = u32::from_le_bytes(b[OFF_SEQ..OFF_SEQ + 4].try_into().expect("4 bytes"));
        let ack = u32::from_le_bytes(b[OFF_ACK..OFF_ACK + 4].try_into().expect("4 bytes"));
        let flags = b[OFF_FLAGS];
        match self.by_port.get(&src).copied() {
            Some(idx) => self.handle_known(idx, seq, ack, flags, frame),
            None => self.handle_unknown(src, seq, flags),
        }
    }

    /// A segment from a port with no flow: SYN opens (or is refused), and
    /// anything else is ignored — replying RST to strays would let our own
    /// teardown collapse (we free on FIN before the peer's last ACK
    /// arrives) turn into an RST storm.
    fn handle_unknown(&mut self, src: u16, seq: u32, flags: u8) -> Result<(), NetError> {
        if flags & FLAG_SYN == 0 || flags & FLAG_RST != 0 {
            return Ok(());
        }
        self.stats.syns += 1;
        self.counters.syns.inc();
        if self.free.is_empty() || self.syn_count >= self.cfg.syn_backlog {
            self.stats.syn_overflow_rsts += 1;
            self.counters.syn_overflow_rsts.inc();
            self.flight.record(
                u32::from(src),
                self.ctx.sim.now(),
                FlightEvent::TcpSynReject,
            );
            // Fast reject: cheaper than accepting, so a flood can't starve
            // established flows of CPU.
            return self.send_raw(src, 0, seq.wrapping_add(1), FLAG_RST | FLAG_ACK, 0.15);
        }
        let idx = self.free.pop().expect("checked non-empty");
        let i = idx as usize;
        let now = self.ctx.sim.now();
        let slot = &mut self.slots[i];
        debug_assert!(slot.reasm.is_empty() && slot.rtx.is_empty());
        slot.state = FlowState::SynRcvd;
        slot.remote = src;
        slot.snd_nxt = 1;
        slot.snd_una = 1;
        slot.rcv_nxt = seq.wrapping_add(1);
        slot.last_activity = now;
        slot.in_ready = false;
        let rcv_nxt = slot.rcv_nxt;
        self.by_port.insert(src, idx);
        self.syn_count += 1;
        self.counters.syn_backlog.set(self.syn_count as f64);
        self.counters.active.set(self.active_flows() as f64);
        self.arm_idle(idx, now + self.cfg.idle_timeout_ns);
        self.send_raw(src, 1, rcv_nxt, FLAG_SYN | FLAG_ACK, 0.25)
    }

    fn handle_known(
        &mut self,
        idx: u32,
        seq: u32,
        ack: u32,
        flags: u8,
        frame: RcBuf,
    ) -> Result<(), NetError> {
        let i = idx as usize;
        let now = self.ctx.sim.now();
        self.slots[i].last_activity = now;
        if flags & FLAG_RST != 0 {
            self.stats.resets += 1;
            self.counters.resets.inc();
            self.free_slot(idx, FLOW_CLOSE_RST);
            return Ok(());
        }
        if self.slots[i].state == FlowState::SynRcvd {
            if flags & FLAG_SYN != 0 {
                // Duplicate SYN (our SYN/ACK was lost): resend it.
                let (remote, rcv_nxt) = (self.slots[i].remote, self.slots[i].rcv_nxt);
                return self.send_raw(remote, 1, rcv_nxt, FLAG_SYN | FLAG_ACK, 0.25);
            }
            if flags & FLAG_ACK != 0 && ack == self.slots[i].snd_nxt.wrapping_add(1) {
                let slot = &mut self.slots[i];
                slot.snd_nxt = slot.snd_nxt.wrapping_add(1);
                slot.snd_una = slot.snd_nxt;
                slot.state = FlowState::Established;
                self.syn_count -= 1;
                self.counters.syn_backlog.set(self.syn_count as f64);
                self.established += 1;
                self.stats.accepts += 1;
                self.counters.accepts.inc();
                self.flight.record(
                    u32::from(self.slots[i].remote),
                    now,
                    FlightEvent::TcpAccept {
                        flows: self.established.min(u16::MAX as usize) as u16,
                    },
                );
                // Fall through: the accept ACK may carry data.
            } else {
                return Ok(());
            }
        }
        self.handle_established(idx, seq, ack, flags, frame)
    }

    fn handle_established(
        &mut self,
        idx: u32,
        seq: u32,
        ack: u32,
        flags: u8,
        frame: RcBuf,
    ) -> Result<(), NetError> {
        let i = idx as usize;
        // Cumulative ACK: release fully-acknowledged retransmission
        // records; their buffer references return to the pool now.
        if flags & FLAG_ACK != 0 && seq_lt(self.slots[i].snd_una, ack.wrapping_add(1)) {
            self.slots[i].snd_una = ack;
            loop {
                let released = {
                    let slot = &self.slots[i];
                    slot.rtx.front().is_some_and(|rec| {
                        seq_lt(rec.seq.wrapping_add(rec.len), slot.snd_una.wrapping_add(1))
                    })
                };
                if !released {
                    break;
                }
                let mut rec = self.slots[i].rtx.pop_front().expect("checked non-empty");
                rec.entries.clear();
                self.desc_spares.push(rec.entries);
            }
        }
        let payload_len = frame.len() - TCP_HEADER_BYTES;
        if payload_len > 0 {
            if seq == self.slots[i].rcv_nxt {
                let slot = &mut self.slots[i];
                if self.cfg.reasm_cap > 0 && slot.reasm.len() + payload_len > self.cfg.reasm_cap {
                    // Per-flow memory cap: treat as loss; rcv_nxt stays, so
                    // our ACK duplicates and the peer's RTO re-delivers
                    // once the reader drains.
                    self.stats.reasm_overflow_drops += 1;
                    self.counters.reasm_overflow_drops.inc();
                } else {
                    let payload = &frame.as_slice()[TCP_HEADER_BYTES..];
                    self.ctx.sim.charge_memcpy(
                        Category::Rx,
                        frame.addr() + TCP_HEADER_BYTES as u64,
                        slot.reasm.as_ptr() as u64 + slot.reasm.len() as u64,
                        payload_len,
                    );
                    slot.reasm.extend_from_slice(payload);
                    slot.rcv_nxt = slot.rcv_nxt.wrapping_add(payload_len as u32);
                    if !slot.in_ready && has_complete_msg(&slot.reasm) {
                        slot.in_ready = true;
                        self.ready.push_back(idx);
                    }
                }
            }
            let (remote, snd_nxt, rcv_nxt) = {
                let slot = &self.slots[i];
                (slot.remote, slot.snd_nxt, slot.rcv_nxt)
            };
            // ACK rcv_nxt (re-ACKs out-of-order and duplicate data too).
            self.send_raw(remote, snd_nxt, rcv_nxt, FLAG_ACK, 0.25)?;
        }
        if flags & FLAG_FIN != 0 && seq.wrapping_add(payload_len as u32) == self.slots[i].rcv_nxt {
            // Peer's orderly close with all data in hand: confirm with
            // FIN/ACK and recycle the slot immediately. Undelivered
            // messages die with the flow — the peer closed without
            // reading them.
            let slot = &mut self.slots[i];
            slot.rcv_nxt = slot.rcv_nxt.wrapping_add(1);
            let (remote, snd_nxt, rcv_nxt) = (slot.remote, slot.snd_nxt, slot.rcv_nxt);
            self.send_raw(remote, snd_nxt, rcv_nxt, FLAG_FIN | FLAG_ACK, 0.25)?;
            self.stats.closes += 1;
            self.counters.closes.inc();
            self.free_slot(idx, FLOW_CLOSE_FIN);
        }
        Ok(())
    }

    fn advance_timers(&mut self) -> Result<(), NetError> {
        let now = self.ctx.sim.now();
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.advance(now, &mut fired);
        for e in fired.drain(..) {
            let i = e.idx as usize;
            if self.slots[i].gen != e.gen || self.slots[i].state == FlowState::Free {
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
        let i = idx as usize;
        self.slots[i].idle_armed = false;
        let now = self.ctx.sim.now();
        let deadline = self.slots[i].last_activity + self.cfg.idle_timeout_ns;
        if now >= deadline {
            // Quiet too long (half-open ones included — the SYN-flood
            // backstop): courtesy RST, then recycle.
            let (remote, snd_nxt, rcv_nxt) = {
                let slot = &self.slots[i];
                (slot.remote, slot.snd_nxt, slot.rcv_nxt)
            };
            self.send_raw(remote, snd_nxt, rcv_nxt, FLAG_RST | FLAG_ACK, 0.15)?;
            self.stats.reaps += 1;
            self.counters.reaps.inc();
            self.free_slot(idx, FLOW_CLOSE_REAP);
        } else {
            self.arm_idle(idx, deadline);
        }
        Ok(())
    }

    fn fire_rto(&mut self, idx: u32) -> Result<(), NetError> {
        let i = idx as usize;
        self.slots[i].rto_armed = false;
        let now = self.ctx.sim.now();
        let overdue = self.slots[i]
            .rtx
            .front()
            .is_some_and(|r| now.saturating_sub(r.sent_at) >= self.cfg.rto_ns);
        if overdue {
            let costs = self.ctx.sim.costs();
            self.ctx
                .sim
                .charge(Category::Tx, costs.per_packet_base * 0.55);
            let mut desc = self.nic.borrow_mut().take_desc(self.queue);
            {
                let rec = self.slots[i].rtx.front_mut().expect("checked non-empty");
                rec.sent_at = now;
                desc.extend(rec.entries.iter().cloned());
            }
            self.stats.retransmissions += 1;
            self.counters.retransmissions.inc();
            self.post_and_reap(desc)?;
        }
        if !self.slots[i].rtx.is_empty() {
            self.arm_rto(idx, now + self.cfg.rto_ns);
        }
        Ok(())
    }

    /// Pops the next complete length-prefixed message from any flow,
    /// copied into a pinned buffer. `Ok(None)` when no flow has a complete
    /// message. [`NetError::RxPoolExhausted`] leaves the message queued
    /// (backpressure — retry after freeing buffers).
    pub fn recv_from(&mut self) -> Result<Option<(FlowId, RcBuf)>, NetError> {
        loop {
            let Some(idx) = self.ready.pop_front() else {
                return Ok(None);
            };
            let i = idx as usize;
            if !self.slots[i].in_ready {
                continue; // flow closed after queueing
            }
            let len = {
                let reasm = &self.slots[i].reasm;
                debug_assert!(has_complete_msg(reasm), "ready flow lacks a message");
                u32::from_le_bytes(reasm[..4].try_into().expect("4 bytes")) as usize
            };
            let mut buf = match self.ctx.pool.alloc(len.max(1)) {
                Ok(b) => b,
                Err(cf_mem::AllocError::Exhausted { .. }) => {
                    self.ready.push_front(idx);
                    return Err(NetError::RxPoolExhausted);
                }
                Err(e) => return Err(e.into()),
            };
            let slot = &mut self.slots[i];
            self.ctx.sim.charge_memcpy(
                Category::Rx,
                slot.reasm.as_ptr() as u64 + 4,
                buf.addr(),
                len,
            );
            if len > 0 {
                buf.write_at(0, &slot.reasm[4..4 + len]);
            }
            buf.truncate(len);
            slot.reasm.drain(..4 + len);
            if has_complete_msg(&slot.reasm) {
                self.ready.push_back(idx);
            } else {
                slot.in_ready = false;
            }
            let flow = FlowId { idx, gen: slot.gen };
            self.stats.msgs_received += 1;
            self.counters.msgs_received.inc();
            return Ok(Some((flow, buf)));
        }
    }

    /// Sends pre-serialized bytes to `flow` as one length-prefixed stream
    /// message. `Ok(false)` when the flow is gone (stale handle) or its
    /// retransmission queue is at `max_tx_records` — refusal, not
    /// unbounded queueing to a peer that stopped ACKing.
    pub fn send_bytes_to(&mut self, flow: FlowId, data: &[u8]) -> Result<bool, NetError> {
        let Some(i) = self.lookup(flow) else {
            return Ok(false);
        };
        if self.slots[i].rtx.len() >= self.cfg.max_tx_records {
            self.stats.tx_cap_drops += 1;
            self.counters.tx_cap_drops.inc();
            return Ok(false);
        }
        let costs = self.ctx.sim.costs();
        self.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * 0.55);
        let (remote, snd_nxt, rcv_nxt) = {
            let slot = &self.slots[i];
            (slot.remote, slot.snd_nxt, slot.rcv_nxt)
        };
        let stream_len = 4 + data.len() as u32;
        let mut buf = self.ctx.pool.alloc(TCP_HEADER_BYTES + 4 + data.len())?;
        let hdr = build_header(self.local_port, remote, snd_nxt, rcv_nxt, FLAG_ACK);
        buf.write_at(0, &hdr);
        buf.write_at(TCP_HEADER_BYTES, &(data.len() as u32).to_le_bytes());
        self.ctx.sim.charge_memcpy(
            Category::SerializeCopy,
            data.as_ptr() as u64,
            buf.addr() + (TCP_HEADER_BYTES + 4) as u64,
            data.len(),
        );
        buf.write_at(TCP_HEADER_BYTES + 4, data);
        let mut retained = self.desc_spares.pop().unwrap_or_default();
        retained.push(buf.clone());
        let mut desc = self.nic.borrow_mut().take_desc(self.queue);
        desc.push(buf);
        self.post_and_reap(desc)?;
        self.finish_send(i, snd_nxt, stream_len, retained);
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
        let Some(i) = self.lookup(flow) else {
            return Ok(false);
        };
        if self.slots[i].rtx.len() >= self.cfg.max_tx_records {
            self.stats.tx_cap_drops += 1;
            self.counters.tx_cap_drops.inc();
            return Ok(false);
        }
        let costs = self.ctx.sim.costs();
        self.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * 0.55);
        let (remote, snd_nxt, rcv_nxt) = {
            let slot = &self.slots[i];
            (slot.remote, slot.snd_nxt, slot.rcv_nxt)
        };

        let hb = obj.header_bytes();
        let cb = obj.copy_bytes();
        let msg_len = prefix.len() as u32 + obj.object_len() as u32;
        let stream_len = 4 + msg_len;

        let mut first = self
            .ctx
            .pool
            .alloc(TCP_HEADER_BYTES + 4 + prefix.len() + hb + cb)?;
        let hdr = build_header(self.local_port, remote, snd_nxt, rcv_nxt, FLAG_ACK);
        first.write_at(0, &hdr);
        first.write_at(TCP_HEADER_BYTES, &msg_len.to_le_bytes());
        first.write_at(TCP_HEADER_BYTES + 4, prefix);

        self.scratch.clear();
        self.scratch.resize(hb, 0);
        let mut hdr_scratch = std::mem::take(&mut self.scratch);
        let entries_written = write_full_header(obj, &mut hdr_scratch);
        self.ctx.sim.charge(
            Category::HeaderWrite,
            costs.header_fixed + entries_written as f64 * costs.per_field,
        );
        let obj_off = TCP_HEADER_BYTES + 4 + prefix.len();
        self.ctx
            .sim
            .charge_write(Category::HeaderWrite, first.addr() + obj_off as u64, hb);
        first.write_at(obj_off, &hdr_scratch);
        self.scratch = hdr_scratch;

        let mut cursor = obj_off + hb;
        let sim = &self.ctx.sim;
        let first_addr = first.addr();
        obj.for_each_copy_entry(&mut |bytes: &[u8]| {
            sim.charge_memcpy(
                Category::SerializeCopy,
                bytes.as_ptr() as u64,
                first_addr + cursor as u64,
                bytes.len(),
            );
            first.write_at(cursor, bytes);
            cursor += bytes.len();
        });

        let mut retained = self.desc_spares.pop().unwrap_or_default();
        retained.push(first);
        obj.for_each_zero_copy_entry(&mut |rc: &RcBuf| {
            self.ctx
                .sim
                .charge_meta_access(Category::SerializeZeroCopy, rc.refcount_addr());
            self.ctx
                .sim
                .charge(Category::SerializeZeroCopy, costs.refcount_update);
            retained.push(rc.clone());
        });
        let mut desc = self.nic.borrow_mut().take_desc(self.queue);
        desc.extend(retained.iter().cloned());
        self.post_and_reap(desc)?;
        self.finish_send(i, snd_nxt, stream_len, retained);
        self.ctx.end_request();
        Ok(true)
    }

    fn finish_send(&mut self, i: usize, seq: u32, stream_len: u32, retained: Vec<RcBuf>) {
        let now = self.ctx.sim.now();
        let slot = &mut self.slots[i];
        slot.rtx.push_back(FlowTxRecord {
            seq,
            len: stream_len,
            entries: retained,
            sent_at: now,
        });
        slot.snd_nxt = slot.snd_nxt.wrapping_add(stream_len);
        self.stats.msgs_sent += 1;
        self.counters.msgs_sent.inc();
        self.arm_rto(i as u32, now + self.cfg.rto_ns);
    }

    /// Orderly local close: FIN to the peer, slot recycled immediately
    /// (the peer's final ACK lands on an unknown port and is ignored).
    pub fn close_flow(&mut self, flow: FlowId) -> Result<bool, NetError> {
        let Some(i) = self.lookup(flow) else {
            return Ok(false);
        };
        let (remote, snd_nxt, rcv_nxt) = {
            let slot = &self.slots[i];
            (slot.remote, slot.snd_nxt, slot.rcv_nxt)
        };
        self.send_raw(remote, snd_nxt, rcv_nxt, FLAG_FIN | FLAG_ACK, 0.25)?;
        self.stats.closes += 1;
        self.counters.closes.inc();
        self.free_slot(flow.idx, FLOW_CLOSE_LOCAL);
        Ok(true)
    }

    /// Abortive local close: best-effort RST, slot recycled immediately.
    pub fn abort_flow(&mut self, flow: FlowId) -> Result<bool, NetError> {
        let Some(i) = self.lookup(flow) else {
            return Ok(false);
        };
        let (remote, snd_nxt, rcv_nxt) = {
            let slot = &self.slots[i];
            (slot.remote, slot.snd_nxt, slot.rcv_nxt)
        };
        self.send_raw(remote, snd_nxt, rcv_nxt, FLAG_RST | FLAG_ACK, 0.15)?;
        self.stats.closes += 1;
        self.counters.closes.inc();
        self.free_slot(flow.idx, FLOW_CLOSE_LOCAL);
        Ok(true)
    }
}

fn has_complete_msg(reasm: &[u8]) -> bool {
    reasm.len() >= 4 && {
        let len = u32::from_le_bytes(reasm[..4].try_into().expect("4 bytes")) as usize;
        reasm.len() >= 4 + len
    }
}

impl fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpListener")
            .field("local_port", &self.local_port)
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

    #[test]
    fn complete_msg_detection_handles_prefix_splits() {
        assert!(!has_complete_msg(&[]));
        assert!(!has_complete_msg(&[3, 0]));
        assert!(!has_complete_msg(&[3, 0, 0, 0, 1, 2]));
        assert!(has_complete_msg(&[3, 0, 0, 0, 1, 2, 3]));
        assert!(has_complete_msg(&[0, 0, 0, 0]));
    }
}
