//! A small TCP stack over the simulated NIC ("Demikernel-style", §6.2.3).
//!
//! Cornflakes's TCP integration must extend the zero-copy memory-safety
//! guarantee: a transmitted buffer may be *retransmitted*, so its references
//! are held in the retransmission queue until cumulatively ACKed — not
//! merely until the first DMA completes. This module implements enough TCP
//! to exercise that property end to end: a three-way handshake, sequence
//! numbers and cumulative ACKs, in-order delivery with re-ACK of
//! out-of-order segments, and timeout-based retransmission.
//!
//! Messages are length-prefixed on the byte stream; `send_object` gathers
//! `[TCP header | length prefix | object header | copied fields]` in the
//! first scatter-gather entry and zero-copy fields in further entries —
//! the same combined serialize-and-send structure as UDP.
//!
//! The protocol itself is `conn::Flow`, shared with the flow-table
//! listener; [`TcpStack`] is one flow, the endpoint context it runs on, and
//! a `poll` that drives its retransmission timer.

use std::fmt;

use cf_mem::RcBuf;
use cf_nic::{FaultInjector, FaultPlan, Port};
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, Telemetry};
use cornflakes_core::{CornflakesObj, SerCtx, SerializationConfig};

use crate::conn::{Corrupt, Flow, FlowIo, Segment, State, QUEUE};
use crate::flow::FLOW_CLOSE_RST;
use crate::udp::NetError;

/// TCP frame header size (L2/L3 stub + ports + seq/ack + flags).
pub const TCP_HEADER_BYTES: usize = 48;

/// Byte offset of the big-endian source port (shared with the UDP layout).
pub const OFF_SRC: usize = 34;
/// Byte offset of the big-endian destination port.
pub const OFF_DST: usize = 36;
/// Byte offset of the little-endian 32-bit sequence number.
pub const OFF_SEQ: usize = 38;
/// Byte offset of the little-endian 32-bit acknowledgment number.
pub const OFF_ACK: usize = 42;
/// Byte offset of the flags byte.
pub const OFF_FLAGS: usize = 46;

/// SYN flag: connection setup.
pub const FLAG_SYN: u8 = 1;
/// ACK flag: the segment's ack field is meaningful.
pub const FLAG_ACK: u8 = 2;
/// FIN flag: orderly close; consumes one sequence number.
pub const FLAG_FIN: u8 = 4;
/// RST flag: abortive teardown / connection refusal.
pub const FLAG_RST: u8 = 8;

/// Retransmission timeout in virtual nanoseconds, for every flow (200 µs:
/// generous against the ~10 µs simulated RTT).
pub const DEFAULT_RTO_NS: u64 = 200_000;

/// Default cap on a connection's reassembly buffer (bytes). An unread
/// stream stops accepting new in-order data past this point — the excess
/// is dropped-as-loss for the peer's RTO to retry — so a slow-drip reader
/// pins a bounded amount of memory, never an unbounded queue.
pub const DEFAULT_REASM_CAP: usize = 256 * 1024;

/// `a < b` in sequence-number space (RFC 1982 style).
pub(crate) fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < u32::MAX / 2
}

/// Builds a TCP segment header (the shared layout both the single-flow
/// [`TcpStack`] and the flow-table listener emit).
pub(crate) fn build_header(
    local: u16,
    remote: u16,
    seq: u32,
    ack: u32,
    flags: u8,
) -> [u8; TCP_HEADER_BYTES] {
    let mut h = [0u8; TCP_HEADER_BYTES];
    h[OFF_SRC..OFF_SRC + 2].copy_from_slice(&local.to_be_bytes());
    h[OFF_DST..OFF_DST + 2].copy_from_slice(&remote.to_be_bytes());
    h[OFF_SEQ..OFF_SEQ + 4].copy_from_slice(&seq.to_le_bytes());
    h[OFF_ACK..OFF_ACK + 4].copy_from_slice(&ack.to_le_bytes());
    h[OFF_FLAGS] = flags;
    h
}

/// The endpoint's counter cells, owned from construction and adopted as
/// `net.tcp.*` by [`TcpStack::set_telemetry`].
#[derive(Debug, Default)]
struct TcpCounters {
    msgs_sent: Counter,
    msgs_received: Counter,
    retransmissions: Counter,
    rx_corrupt_drops: Counter,
    rx_pool_exhausted: Counter,
    backlog_drops: Counter,
    reasm_overflow_drops: Counter,
    resets: Counter,
}

/// A TCP connection endpoint.
pub struct TcpStack {
    io: FlowIo,
    flow: Flow,
    /// Bound on this endpoint's NIC rx staging ring (0 = unbounded).
    rx_backlog_limit: usize,
    counters: TcpCounters,
}

impl TcpStack {
    /// Creates an endpoint on `wire_port` with the given local port.
    pub fn new(sim: Sim, wire_port: Port, local_port: u16, config: SerializationConfig) -> Self {
        TcpStack {
            io: FlowIo::new(sim, wire_port, local_port, config, DEFAULT_REASM_CAP),
            flow: Flow::new(),
            rx_backlog_limit: 0,
            counters: TcpCounters::default(),
        }
    }

    /// Attaches `tele` to this endpoint, its serialization context and its
    /// NIC: the `net.tcp.*`, `nic.*` and `mem.*` cells are adopted holding
    /// whatever they have counted so far, and stream events join `tele`'s
    /// flight recorder. TCP has no per-request wire ids, so those are keyed
    /// by the message's starting sequence number (the sender's `snd_nxt` at
    /// send time), which both ends can compute without touching the wire
    /// format.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.io.ctx.set_telemetry(tele);
        self.io.nic.set_telemetry(tele);
        let c = &self.counters;
        tele.adopt_counter("net.tcp.msgs_sent", &c.msgs_sent);
        tele.adopt_counter("net.tcp.msgs_received", &c.msgs_received);
        tele.adopt_counter("net.tcp.retransmissions", &c.retransmissions);
        tele.adopt_counter("net.tcp.rx_corrupt_drops", &c.rx_corrupt_drops);
        tele.adopt_counter("net.tcp.rx_pool_exhausted", &c.rx_pool_exhausted);
        tele.adopt_counter("net.tcp.backlog_drops", &c.backlog_drops);
        tele.adopt_counter("net.tcp.reasm_overflow_drops", &c.reasm_overflow_drops);
        tele.adopt_counter("net.tcp.resets", &c.resets);
    }

    /// The serialization context.
    pub fn ctx(&self) -> &SerCtx {
        &self.io.ctx
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.flow.state() == State::Established
    }

    /// Whether the connection is fully torn down (never opened, or closed
    /// by FIN exchange or RST).
    pub fn is_closed(&self) -> bool {
        self.flow.state() == State::Closed
    }

    /// Bytes currently buffered in the reassembly buffer.
    pub fn reasm_len(&self) -> usize {
        self.flow.reasm_len()
    }

    /// In-order payload bytes dropped because the reassembly buffer was at
    /// its cap (the peer's RTO re-delivers them once the reader drains).
    pub fn reasm_overflow_drops(&self) -> u64 {
        self.counters.reasm_overflow_drops.get()
    }

    /// Caps the reassembly buffer at `limit` bytes (0 = unbounded;
    /// default [`DEFAULT_REASM_CAP`]). In-order data that would grow the
    /// buffer past the cap is dropped-as-loss and counted in
    /// `net.tcp.reasm_overflow_drops`; the ACK does not advance, so the
    /// peer retransmits after its RTO — a slow reader costs latency, not
    /// unbounded memory.
    pub fn set_reasm_limit(&mut self, limit: usize) {
        self.io.reasm_cap = limit;
    }

    /// Bytes sent but not yet cumulatively ACKed.
    pub fn unacked_bytes(&self) -> u32 {
        self.flow.unacked_bytes()
    }

    /// Segments currently held for possible retransmission.
    pub fn retransmit_queue_len(&self) -> usize {
        self.flow.rtx_len()
    }

    /// Total retransmissions performed (diagnostic).
    pub fn retransmissions(&self) -> u64 {
        self.counters.retransmissions.get()
    }

    /// Bounds this endpoint's rx backlog (its NIC staging ring) to `limit`
    /// segments; 0 restores the unbounded default. Segments past the bound
    /// are tail-dropped NIC-side (no CPU charge) and counted in
    /// `net.tcp.backlog_drops`; the peer's retransmission timer recovers
    /// them, so a bounded backlog trades latency for bounded memory — it
    /// never loses stream data.
    pub fn set_rx_backlog_limit(&mut self, limit: usize) {
        self.rx_backlog_limit = limit;
        self.io.nic.set_rx_backlog_limit(QUEUE, limit);
    }

    /// Arms deterministic fault injection on this endpoint's receive
    /// direction (see [`cf_nic::Port::install_faults`]); returns the
    /// injector handle for surgical faults (drop/duplicate/corrupt/delay/
    /// reorder of in-flight frames) and statistics.
    pub fn install_faults(&self, plan: FaultPlan) -> FaultInjector {
        self.io.install_faults(plan)
    }

    /// Initiates a connection to `remote_port` (sends SYN).
    pub fn connect(&mut self, remote_port: u16) -> Result<(), NetError> {
        self.flow.connect(&mut self.io, remote_port)
    }

    /// Initiates an orderly close: sends FIN and waits (via [`TcpStack::poll`])
    /// for the peer's FIN/ACK. Retransmission buffers are released as soon
    /// as the close completes — pool occupancy returns to baseline on
    /// close, not only when the stack is dropped.
    pub fn close(&mut self) -> Result<(), NetError> {
        if self.flow.state() != State::Established {
            self.teardown();
            return Ok(());
        }
        self.flow.close(&mut self.io)
    }

    /// Releases every buffer the connection pins: retransmission records
    /// (their `RcBuf` references return to the pool) and the reassembly
    /// buffer's heap allocation.
    fn teardown(&mut self) {
        self.flow = Flow::new();
    }

    /// Sends a serialization object as one length-prefixed message on the
    /// stream, using the combined serialize-and-send gather.
    ///
    /// The posted buffers are retained in the retransmission queue until
    /// cumulatively ACKed — Cornflakes's use-after-free guarantee over TCP.
    pub fn send_object(&mut self, obj: &impl CornflakesObj) -> Result<(), NetError> {
        let sent = self.flow.send_object(&mut self.io, &[], obj)?;
        self.on_sent(sent);
        Ok(())
    }

    /// Sends pre-serialized bytes as one length-prefixed message: the
    /// contiguous-buffer transports (FlatBuffers and friends) over TCP. The
    /// bytes are staged into a DMA buffer (charged copy) behind the TCP
    /// header.
    pub fn send_bytes(&mut self, data: &[u8]) -> Result<(), NetError> {
        let sent = self.flow.send_bytes(&mut self.io, data)?;
        self.on_sent(sent);
        Ok(())
    }

    /// Accounts for the message of `stream_len` bytes just sent.
    fn on_sent(&mut self, stream_len: u32) {
        self.io.ctx.telemetry.flight().record(
            self.flow.snd_nxt().wrapping_sub(stream_len),
            self.io.ctx.sim.now(),
            FlightEvent::TcpMsgSend { bytes: stream_len },
        );
        self.counters.msgs_sent.inc();
    }

    /// Processes incoming segments, ACKs, and retransmission timers. Call
    /// regularly (each scheduling quantum).
    pub fn poll(&mut self) -> Result<(), NetError> {
        if self.rx_backlog_limit > 0 {
            // Enforce the bounded staging ring before processing: excess
            // segments are tail-dropped NIC-side and counted; the peer's
            // RTO retransmits them later.
            let before = self.io.nic.queue_stats(QUEUE).rx_backlog_drops;
            self.io.nic.pump();
            let after = self.io.nic.queue_stats(QUEUE).rx_backlog_drops;
            self.counters.backlog_drops.add(after - before);
        }
        while let Some(rx) = self.io.recv_segment() {
            match rx {
                Ok(seg) => self.handle_segment(&seg)?,
                Err(Corrupt) => self.counters.rx_corrupt_drops.inc(),
            }
        }
        if self.flow.on_rto(&mut self.io)? {
            self.counters.retransmissions.inc();
        }
        Ok(())
    }

    fn handle_segment(&mut self, seg: &Segment) -> Result<(), NetError> {
        let ev = self.flow.on_segment(&mut self.io, seg)?;
        if ev.reasm_overflow {
            self.counters.reasm_overflow_drops.inc();
        }
        if let Some(reason) = ev.closed_by {
            self.io.ctx.telemetry.flight().record(
                self.flow.rcv_nxt(),
                self.io.ctx.sim.now(),
                FlightEvent::TcpFlowClose { reason },
            );
            if reason == FLOW_CLOSE_RST {
                self.counters.resets.inc();
                self.teardown();
            } else {
                // Orderly close: retransmission references drop now, the
                // stream data already delivered stays for the application
                // to drain.
                self.flow.release(&mut self.io);
            }
        }
        Ok(())
    }

    /// Extracts the next complete length-prefixed message from the stream,
    /// copied into a pinned buffer (TCP receive is not zero-copy; the paper
    /// integrates with a TCP stack the same way).
    ///
    /// Returns `Ok(None)` when no complete message is buffered. Under
    /// memory pressure — the pinned pool exhausted — returns
    /// [`NetError::RxPoolExhausted`] and leaves the message intact in the
    /// reassembly buffer: backpressure, so the caller can free buffers and
    /// retry, never a panic and never data loss.
    pub fn recv_msg(&mut self) -> Result<Option<RcBuf>, NetError> {
        // The seq of the front of the reassembly buffer is `rcv_nxt` minus
        // what is buffered — i.e. the sender's `snd_nxt` when it sent this
        // message, so deliver correlates with the peer's send event.
        let msg_seq = self
            .flow
            .rcv_nxt()
            .wrapping_sub(self.flow.reasm_len() as u32);
        let msg = self.flow.recv_msg(&self.io).inspect_err(|e| {
            if matches!(e, NetError::RxPoolExhausted) {
                self.counters.rx_pool_exhausted.inc();
            }
        })?;
        if let Some(buf) = &msg {
            self.counters.msgs_received.inc();
            self.io.ctx.telemetry.flight().record(
                msg_seq,
                self.io.ctx.sim.now(),
                FlightEvent::TcpMsgDeliver {
                    bytes: 4 + buf.len() as u32,
                },
            );
        }
        Ok(msg)
    }
}

impl fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpStack")
            .field("state", &self.flow.state())
            .field("snd_nxt", &self.flow.snd_nxt())
            .field("unacked_bytes", &self.flow.unacked_bytes())
            .field("rcv_nxt", &self.flow.rcv_nxt())
            .field("rtx_queue", &self.flow.rtx_len())
            .finish()
    }
}
