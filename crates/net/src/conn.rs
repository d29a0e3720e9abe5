//! One TCP connection.
//!
//! [`Flow`] is the whole per-connection protocol: the handshake, cumulative
//! ACKs over a retransmission queue that keeps every transmitted buffer
//! referenced until it is acknowledged (§6.2.3), reassembly under a cap,
//! FIN/RST, the head-of-line retransmission timeout and the length-prefixed
//! message framing. It does its I/O through a [`FlowIo`], the per-endpoint
//! context its owner lends it for the call.
//!
//! [`crate::tcp::TcpStack`] owns one flow and [`crate::flow::TcpListener`] a
//! slab of them. Where the two differ, they differ in what they do with the
//! [`SegmentEvents`] a flow returns and in when they call
//! [`Flow::on_rto`] / [`Flow::release`]; a flow never knows its owner.

use std::collections::VecDeque;
use std::mem::size_of;

use cf_mem::{AllocError, RcBuf};
use cf_nic::{FaultInjector, FaultPlan, Nic, Port};
use cf_sim::cost::Category;
use cf_sim::Sim;
use cornflakes_core::{CornflakesObj, SerCtx, SerializationConfig};

use crate::flow::{FLOW_CLOSE_FIN, FLOW_CLOSE_RST};
use crate::gather;
use crate::tcp::{
    build_header, seq_lt, DEFAULT_RTO_NS, FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, OFF_ACK,
    OFF_FLAGS, OFF_SEQ, OFF_SRC, TCP_HEADER_BYTES,
};
use crate::udp::NetError;

/// Every TCP endpoint owns a single-queue NIC.
pub(crate) const QUEUE: usize = 0;

/// Initial send sequence number of every connection.
const ISS: u32 = 1;

/// A received TCP segment: the parsed header fields over the frame.
pub(crate) struct Segment {
    pub src: u16,
    pub seq: u32,
    pub ack: u32,
    flags: u8,
    frame: RcBuf,
}

impl Segment {
    /// Parses `frame`; `None` for a runt.
    fn parse(frame: RcBuf) -> Option<Segment> {
        let hdr: &[u8; TCP_HEADER_BYTES] = frame.as_slice().first_chunk()?;
        let src = u16::from_be_bytes(*hdr[OFF_SRC..].first_chunk()?);
        let seq = u32::from_le_bytes(*hdr[OFF_SEQ..].first_chunk()?);
        let ack = u32::from_le_bytes(*hdr[OFF_ACK..].first_chunk()?);
        let flags = hdr[OFF_FLAGS];
        Some(Segment {
            src,
            seq,
            ack,
            flags,
            frame,
        })
    }

    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn payload(&self) -> &[u8] {
        &self.frame.as_slice()[TCP_HEADER_BYTES..]
    }
}

/// A received frame that failed its frame check sequence.
pub(crate) struct Corrupt;

/// What a TCP endpoint lends its flows: the serialization context, the NIC,
/// the local port, the per-flow limits, and the buffers sends recycle.
pub(crate) struct FlowIo {
    pub ctx: SerCtx,
    pub nic: Nic,
    pub local_port: u16,
    /// Cap on a flow's reassembly buffer in bytes.
    reasm_cap: usize,
    scratch: Vec<u8>,
    /// Emptied entry vectors of released retransmission records, reissued
    /// to the next sends.
    pub spares: Vec<Vec<RcBuf>>,
}

impl FlowIo {
    pub fn new(
        sim: Sim,
        wire_port: Port,
        local_port: u16,
        config: SerializationConfig,
        reasm_cap: usize,
    ) -> Self {
        FlowIo {
            nic: Nic::new(sim.clone(), wire_port),
            ctx: SerCtx::new(sim, config),
            local_port,
            reasm_cap,
            scratch: Vec::with_capacity(4096),
            spares: Vec::new(),
        }
    }

    pub fn install_faults(&self, plan: FaultPlan) -> FaultInjector {
        self.nic.port().install_faults(self.ctx.sim.clock(), plan)
    }

    /// The next segment off the NIC, charged the receive share of the
    /// per-packet base. Runts are skipped. A frame failing its FCS comes
    /// back as `Err(Corrupt)` for the owner to count: it is dropped
    /// uncharged (checksum offload) and the sender's RTO recovers it.
    pub fn recv_segment(&mut self) -> Option<Result<Segment, Corrupt>> {
        loop {
            let frame = self.nic.recv_into_on(QUEUE, &self.ctx.pool)?;
            let Some(seg) = Segment::parse(frame) else {
                continue;
            };
            if !cf_nic::fcs_ok(seg.frame.as_slice()) {
                return Some(Err(Corrupt));
            }
            let costs = self.ctx.sim.costs();
            self.ctx
                .sim
                .charge(Category::Rx, costs.per_packet_base * 0.25);
            return Some(Ok(seg));
        }
    }

    /// Posts one descriptor and reaps its completion.
    fn post(&mut self, entries: Vec<RcBuf>) -> Result<(), NetError> {
        self.nic.post_tx_on(QUEUE, entries)?;
        self.nic.poll_completions_on(QUEUE);
        Ok(())
    }

    /// Sends a header-only control segment to `remote`, charged at `frac`
    /// of the per-packet base (0.15 fast-reject, 0.25 control).
    pub fn send_control(
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
        let mut buf = self.ctx.pool.alloc(TCP_HEADER_BYTES)?;
        buf.write_at(0, &build_header(self.local_port, remote, seq, ack, flags));
        let mut desc = self.nic.take_desc(QUEUE);
        desc.push(buf);
        self.post(desc)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum State {
    Closed,
    SynSent,
    SynRcvd,
    Established,
    /// We sent a FIN and are waiting for the peer's.
    FinSent,
}

struct TxRecord {
    seq: u32,
    len: u32,
    entries: Vec<RcBuf>,
    sent_at: u64,
}

/// What one segment did to a flow, for the owner to act on. Several can be
/// set at once: the ACK completing a handshake may carry data and a FIN.
#[derive(Default)]
pub(crate) struct SegmentEvents {
    /// The segment completed the handshake.
    pub established: bool,
    /// In-order payload was appended to the reassembly buffer.
    pub delivered: bool,
    /// In-order payload was refused at the reassembly cap: dropped as
    /// loss, the ACK does not advance, and the peer's RTO re-delivers it.
    pub reasm_overflow: bool,
    /// The peer ended the connection (`FLOW_CLOSE_FIN`, answered, or
    /// `FLOW_CLOSE_RST`). The flow is untouched: the owner releases it.
    pub closed_by: Option<u8>,
}

/// One TCP connection's state machine and buffers.
pub(crate) struct Flow {
    state: State,
    remote: u16,
    snd_nxt: u32,
    snd_una: u32,
    rcv_nxt: u32,
    rtx: VecDeque<TxRecord>,
    reasm: Vec<u8>,
}

impl Flow {
    pub fn new() -> Self {
        Flow {
            state: State::Closed,
            remote: 0,
            snd_nxt: ISS,
            snd_una: ISS,
            rcv_nxt: ISS,
            rtx: VecDeque::new(),
            reasm: Vec::new(),
        }
    }

    pub fn state(&self) -> State {
        self.state
    }

    /// The peer's port.
    pub fn remote(&self) -> u16 {
        self.remote
    }

    /// The sequence number the next message sent will start at.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// The next sequence number expected from the peer.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// Bytes sent but not yet cumulatively ACKed.
    pub fn unacked_bytes(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Records held for possible retransmission.
    pub fn rtx_len(&self) -> usize {
        self.rtx.len()
    }

    /// Bytes buffered for the application.
    pub fn reasm_len(&self) -> usize {
        self.reasm.len()
    }

    /// Heap bytes this flow retains (buffer capacities, deterministic).
    pub fn resident_bytes(&self) -> usize {
        self.reasm.capacity()
            + self.rtx.capacity() * size_of::<TxRecord>()
            + self
                .rtx
                .iter()
                .map(|r| r.entries.capacity() * size_of::<RcBuf>())
                .sum::<usize>()
    }

    fn send_control(&self, io: &mut FlowIo, flags: u8, frac: f64) -> Result<(), NetError> {
        io.send_control(self.remote, self.snd_nxt, self.rcv_nxt, flags, frac)
    }

    /// Active open: sends SYN to `remote`.
    pub fn connect(&mut self, io: &mut FlowIo, remote: u16) -> Result<(), NetError> {
        self.remote = remote;
        self.state = State::SynSent;
        self.send_control(io, FLAG_SYN, 0.25)
    }

    /// Orderly local close of an established flow: sends FIN, which
    /// consumes one sequence number.
    pub fn close(&mut self, io: &mut FlowIo) -> Result<(), NetError> {
        self.send_control(io, FLAG_FIN | FLAG_ACK, 0.25)?;
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.state = State::FinSent;
        Ok(())
    }

    /// Courtesy RST to the peer at fast-reject cost.
    pub fn send_rst(&self, io: &mut FlowIo) -> Result<(), NetError> {
        self.send_control(io, FLAG_RST | FLAG_ACK, 0.15)
    }

    /// Ends the connection locally: every retransmission record's buffer
    /// references return to the pool now. Unread stream data stays for the
    /// application to drain (or [`Flow::discard_unread`]).
    pub fn release(&mut self, io: &mut FlowIo) {
        self.state = State::Closed;
        while let Some(rec) = self.rtx.pop_front() {
            recycle(io, rec);
        }
        self.snd_una = self.snd_nxt;
    }

    /// Drops buffered stream data, keeping the buffer's capacity.
    pub fn discard_unread(&mut self) {
        self.reasm.clear();
    }

    /// Cumulative ACK: releases fully acknowledged records. An ACK for
    /// bytes never sent is ignored — it must not release the references
    /// that a retransmission still needs.
    fn on_ack(&mut self, io: &mut FlowIo, ack: u32) {
        let past_una = ack.wrapping_add(1);
        if !seq_lt(self.snd_una, past_una) || seq_lt(self.snd_nxt, ack) {
            return;
        }
        self.snd_una = ack;
        while let Some(rec) = self
            .rtx
            .pop_front_if(|rec| seq_lt(rec.seq.wrapping_add(rec.len), past_una))
        {
            recycle(io, rec);
        }
    }

    /// Applies one received segment.
    pub fn on_segment(
        &mut self,
        io: &mut FlowIo,
        seg: &Segment,
    ) -> Result<SegmentEvents, NetError> {
        let mut ev = SegmentEvents::default();
        // RST aborts whatever state the flow is in; the owner releases all
        // pinned buffers at once (the teardown guarantee a misbehaving
        // peer cannot deny).
        if seg.has(FLAG_RST) {
            if self.state != State::Closed {
                ev.closed_by = Some(FLOW_CLOSE_RST);
            }
            return Ok(ev);
        }
        match self.state {
            State::Closed => {
                if seg.has(FLAG_SYN) {
                    // Passive open.
                    self.remote = seg.src;
                    self.snd_nxt = ISS;
                    self.snd_una = ISS;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.state = State::SynRcvd;
                    self.send_control(io, FLAG_SYN | FLAG_ACK, 0.25)?;
                }
                return Ok(ev);
            }
            State::SynSent => {
                let acks_our_syn = seg.has(FLAG_ACK) && seg.ack == self.snd_nxt.wrapping_add(1);
                if seg.has(FLAG_SYN) && acks_our_syn {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.snd_una = self.snd_nxt;
                    self.state = State::Established;
                    ev.established = true;
                    self.send_control(io, FLAG_ACK, 0.25)?;
                }
                return Ok(ev);
            }
            State::SynRcvd => {
                if seg.has(FLAG_SYN) {
                    // Duplicate SYN (our SYN|ACK was lost): resend it.
                    self.send_control(io, FLAG_SYN | FLAG_ACK, 0.25)?;
                    return Ok(ev);
                }
                if !seg.has(FLAG_ACK) || seg.ack != self.snd_nxt.wrapping_add(1) {
                    return Ok(ev);
                }
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.snd_una = self.snd_nxt;
                self.state = State::Established;
                ev.established = true;
                // Fall through: the handshake ACK may carry data.
            }
            State::Established | State::FinSent => {}
        }

        if seg.has(FLAG_ACK) {
            self.on_ack(io, seg.ack);
        }
        let payload = seg.payload();
        if self.state == State::Established && !payload.is_empty() {
            if seg.seq == self.rcv_nxt {
                if self.reasm.len() + payload.len() > io.reasm_cap {
                    // rcv_nxt stays put, so the ACK below is a duplicate.
                    ev.reasm_overflow = true;
                } else {
                    io.ctx.sim.charge_memcpy(
                        Category::Rx,
                        seg.frame.addr() + TCP_HEADER_BYTES as u64,
                        self.reasm.as_ptr() as u64 + self.reasm.len() as u64,
                        payload.len(),
                    );
                    self.reasm.extend_from_slice(payload);
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                    ev.delivered = true;
                }
            }
            // ACK rcv_nxt (re-ACKs out-of-order and duplicate data too).
            self.send_control(io, FLAG_ACK, 0.25)?;
        }
        if seg.has(FLAG_FIN) {
            let reply = match self.state {
                // The peer's orderly close with all preceding data in
                // hand: CLOSE-WAIT and LAST-ACK collapse into one FIN|ACK.
                State::Established
                    if seg.seq.wrapping_add(payload.len() as u32) == self.rcv_nxt =>
                {
                    FLAG_FIN | FLAG_ACK
                }
                // The peer's FIN (usually the FIN|ACK of ours):
                // simultaneous close and LAST-ACK end the same way.
                State::FinSent => {
                    self.rcv_nxt = seg.seq;
                    FLAG_ACK
                }
                _ => return Ok(ev),
            };
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            self.send_control(io, reply, 0.25)?;
            ev.closed_by = Some(FLOW_CLOSE_FIN);
        }
        Ok(ev)
    }

    /// Retransmits the head-of-line record if it has waited [`DEFAULT_RTO_NS`]
    /// (go-back-N would resend the rest once the head is repaired; the
    /// in-order receiver re-ACKs). Returns whether it did.
    pub fn on_rto(&mut self, io: &mut FlowIo) -> Result<bool, NetError> {
        let now = io.ctx.sim.now();
        let Some(rec) = self
            .rtx
            .front_mut()
            .filter(|r| now.saturating_sub(r.sent_at) >= DEFAULT_RTO_NS)
        else {
            return Ok(false);
        };
        let costs = io.ctx.sim.costs();
        io.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * 0.55);
        rec.sent_at = now;
        let mut desc = io.nic.take_desc(QUEUE);
        desc.extend(rec.entries.iter().cloned());
        io.post(desc)?;
        Ok(true)
    }

    /// Starts one length-prefixed stream message of `prefix` then
    /// `body_len` bytes: the first scatter-gather entry with the TCP
    /// header, the length prefix and `prefix` written, room for `in_first`
    /// body bytes, and the offset they go at.
    fn start_msg(
        &self,
        io: &mut FlowIo,
        prefix: &[u8],
        in_first: usize,
        body_len: usize,
    ) -> Result<(RcBuf, usize), NetError> {
        assert!(
            self.state == State::Established,
            "send on an unestablished connection"
        );
        let costs = io.ctx.sim.costs();
        io.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * 0.55);
        let off = TCP_HEADER_BYTES + 4 + prefix.len();
        let mut first = io.ctx.pool.alloc(off + in_first)?;
        let hdr = build_header(
            io.local_port,
            self.remote,
            self.snd_nxt,
            self.rcv_nxt,
            FLAG_ACK,
        );
        first.write_at(0, &hdr);
        let msg_len = (prefix.len() + body_len) as u32;
        first.write_at(TCP_HEADER_BYTES, &msg_len.to_le_bytes());
        first.write_at(TCP_HEADER_BYTES + 4, prefix);
        Ok((first, off))
    }

    /// Posts the message gathered in `entries` and keeps the entries in
    /// the retransmission queue until cumulatively ACKed — Cornflakes's
    /// use-after-free guarantee over TCP. Returns the stream bytes sent.
    fn finish_msg(&mut self, io: &mut FlowIo, entries: Vec<RcBuf>) -> Result<u32, NetError> {
        let frame_len: usize = entries.iter().map(RcBuf::len).sum();
        let stream_len = (frame_len - TCP_HEADER_BYTES) as u32;
        let mut desc = io.nic.take_desc(QUEUE);
        desc.extend(entries.iter().cloned());
        io.post(desc)?;
        self.rtx.push_back(TxRecord {
            seq: self.snd_nxt,
            len: stream_len,
            entries,
            sent_at: io.ctx.sim.now(),
        });
        self.snd_nxt = self.snd_nxt.wrapping_add(stream_len);
        Ok(stream_len)
    }

    /// Sends pre-serialized bytes as one length-prefixed message (the
    /// contiguous-buffer serializers over TCP): staged into a DMA buffer
    /// behind the TCP header, a charged copy.
    pub fn send_bytes(&mut self, io: &mut FlowIo, data: &[u8]) -> Result<u32, NetError> {
        let (mut first, off) = self.start_msg(io, &[], data.len(), data.len())?;
        io.ctx.sim.charge_memcpy(
            Category::SerializeCopy,
            data.as_ptr() as u64,
            first.addr() + off as u64,
            data.len(),
        );
        first.write_at(off, data);
        let mut entries = io.spares.pop().unwrap_or_default();
        entries.push(first);
        self.finish_msg(io, entries)
    }

    /// Serializes `obj` behind `prefix` (an application sub-header) as one
    /// length-prefixed message with the combined serialize-and-send
    /// gather: `[TCP header | length | prefix | object header | copied
    /// fields]` in the first entry, one further entry per zero-copy field.
    pub fn send_object(
        &mut self,
        io: &mut FlowIo,
        prefix: &[u8],
        obj: &impl CornflakesObj,
    ) -> Result<u32, NetError> {
        let fp = obj.footprint();
        let (mut first, off) = self.start_msg(io, prefix, fp.header() + fp.copy, fp.len())?;
        gather::write_head(&io.ctx, &mut io.scratch, obj, fp, &mut first, off);
        let mut entries = io.spares.pop().unwrap_or_default();
        entries.push(first);
        gather::collect_zero_copy(&io.ctx, obj, &mut entries);
        let sent = self.finish_msg(io, entries)?;
        io.ctx.end_request();
        Ok(sent)
    }

    /// Whether a complete length-prefixed message is buffered.
    pub fn has_complete_msg(&self) -> bool {
        complete_msg_len(&self.reasm).is_some()
    }

    /// Extracts the next complete message from the stream, copied into a
    /// pinned buffer (TCP receive is not zero-copy; the paper integrates
    /// with a TCP stack the same way). `Ok(None)` when none is buffered.
    /// When the pinned pool is exhausted, [`NetError::RxPoolExhausted`]
    /// leaves the message in place: backpressure, never data loss.
    pub fn recv_msg(&mut self, io: &FlowIo) -> Result<Option<RcBuf>, NetError> {
        let Some(len) = complete_msg_len(&self.reasm) else {
            return Ok(None);
        };
        let mut buf = match io.ctx.pool.alloc(len.max(1)) {
            Ok(b) => b,
            Err(AllocError::Exhausted { .. }) => return Err(NetError::RxPoolExhausted),
            Err(e) => return Err(e.into()),
        };
        io.ctx.sim.charge_memcpy(
            Category::Rx,
            self.reasm.as_ptr() as u64 + 4,
            buf.addr(),
            len,
        );
        if len > 0 {
            buf.write_at(0, &self.reasm[4..4 + len]);
        }
        buf.truncate(len);
        self.reasm.drain(..4 + len);
        Ok(Some(buf))
    }
}

/// Returns a released record's buffer references to the pool and keeps its
/// emptied entry vector for the next send.
fn recycle(io: &mut FlowIo, mut rec: TxRecord) {
    rec.entries.clear();
    io.spares.push(rec.entries);
}

/// Length of the message at the front of `reasm`, if all of it arrived.
fn complete_msg_len(reasm: &[u8]) -> Option<usize> {
    let (prefix, body) = reasm.split_first_chunk()?;
    let len = u32::from_le_bytes(*prefix) as usize;
    (body.len() >= len).then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_msg_detection_handles_prefix_splits() {
        assert!(complete_msg_len(&[]).is_none());
        assert!(complete_msg_len(&[3, 0]).is_none());
        assert!(complete_msg_len(&[3, 0, 0, 0, 1, 2]).is_none());
        assert!(complete_msg_len(&[3, 0, 0, 0, 1, 2, 3]).is_some());
        assert!(complete_msg_len(&[0, 0, 0, 0]).is_some());
    }
}
