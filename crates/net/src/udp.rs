//! The main Cornflakes UDP datapath (paper Listing 2).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use cf_mem::{AllocError, PoolConfig, RcBuf};
use cf_nic::{Nic, NicError, Port};
use cf_sim::cost::Category;
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, Gauge, Telemetry};
use cornflakes_core::{CornflakesObj, Footprint, SerCtx, SerializationConfig};

use crate::gather;
use crate::header::{FrameMeta, PacketHeader, HEADER_BYTES};

/// Datapath errors.
#[derive(Debug)]
pub enum NetError {
    /// A frame shorter than the packet header arrived.
    RuntFrame {
        /// Frame length.
        len: usize,
    },
    /// The NIC rejected a descriptor.
    Nic(NicError),
    /// Pinned memory allocation failed.
    Alloc(AllocError),
    /// The pinned receive pool is exhausted: the caller should retry after
    /// freeing buffers (backpressure), or rely on peer retransmission. A
    /// typed, recoverable condition — never a panic.
    RxPoolExhausted,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::RuntFrame { len } => write!(f, "runt frame of {len} bytes"),
            NetError::Nic(e) => write!(f, "nic error: {e}"),
            NetError::Alloc(e) => write!(f, "allocation error: {e}"),
            NetError::RxPoolExhausted => write!(f, "pinned receive pool exhausted"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<NicError> for NetError {
    fn from(e: NicError) -> Self {
        NetError::Nic(e)
    }
}

impl From<AllocError> for NetError {
    fn from(e: AllocError) -> Self {
        NetError::Alloc(e)
    }
}

/// Transmit-batch limit: with batching on ([`UdpStack::enable_tx_batch`]),
/// staged replies post as one doorbell when this many accumulate, or at
/// [`UdpStack::flush_tx`].
pub const TX_BATCH: usize = 16;

/// A received packet: parsed header plus zero-copy payload view.
#[derive(Debug)]
pub struct Packet {
    /// Parsed frame header.
    pub hdr: PacketHeader,
    /// The whole frame in its pinned receive buffer.
    pub frame: RcBuf,
    /// The payload portion of `frame` (a sub-view sharing the refcount).
    pub payload: RcBuf,
}

/// The datapath's counter cells, owned from construction and adopted as
/// `net.udp.*` by [`UdpStack::set_telemetry`].
#[derive(Debug, Default)]
struct UdpCounters {
    rx_packets: Counter,
    rx_runt_drops: Counter,
    rx_corrupt_drops: Counter,
    tx_packets: Counter,
    tx_copy_fallbacks: Counter,
    backlog_drops: Counter,
    rx_backlog: Gauge,
}

/// The Cornflakes UDP networking stack: a kernel-bypass datapath co-designed
/// with the serialization library.
///
/// Owns the machine's [`SerCtx`] (registry, pools, arena, hybrid config) and
/// the simulated NIC. All virtual-time costs of the datapath are charged
/// here or in the NIC; application/serialization costs are charged by
/// [`cornflakes_core`].
pub struct UdpStack {
    ctx: SerCtx,
    nic: Rc<RefCell<Nic>>,
    /// The NIC queue pair this stack posts to and polls from.
    queue: usize,
    local_port: u16,
    /// This stack's host id in a multi-host topology (0 on point-to-point
    /// links; see [`crate::header`] for the addressing scheme).
    local_host: u8,
    /// Default destination host id for outbound headers.
    peer_host: u8,
    scratch: Vec<u8>,
    auto_complete: bool,
    /// Staged descriptors awaiting a batched doorbell; empty unless
    /// [`UdpStack::enable_tx_batch`] enabled batching.
    tx_batch: Vec<Vec<RcBuf>>,
    /// Whether sends stage into `tx_batch` (flushed at [`TX_BATCH`]).
    tx_batching: bool,
    counters: UdpCounters,
}

impl UdpStack {
    /// Creates a stack on `wire_port`, charging costs to `sim`.
    pub fn new(sim: Sim, wire_port: Port, local_port: u16, config: SerializationConfig) -> Self {
        Self::with_pool_config(sim, wire_port, local_port, config, PoolConfig::default())
    }

    /// Creates a stack with an explicit pinned-pool configuration (large
    /// experiments size the pool to their working set).
    pub fn with_pool_config(
        sim: Sim,
        wire_port: Port,
        local_port: u16,
        config: SerializationConfig,
        pool_cfg: PoolConfig,
    ) -> Self {
        let ctx = SerCtx::with_pool_config(sim.clone(), config, pool_cfg);
        let nic = Rc::new(RefCell::new(Nic::new(sim, wire_port)));
        Self::over(ctx, nic, 0, local_port)
    }

    /// Creates a stack bound to queue `queue` of a shared multi-queue NIC
    /// (the sharded-server datapath). The stack polls and posts only its
    /// own queue, and the queue's NIC-side descriptor costs are charged to
    /// this stack's `sim`.
    pub fn on_queue(
        sim: Sim,
        nic: Rc<RefCell<Nic>>,
        queue: usize,
        local_port: u16,
        config: SerializationConfig,
        pool_cfg: PoolConfig,
    ) -> Self {
        let ctx = SerCtx::with_pool_config(sim.clone(), config, pool_cfg);
        nic.borrow_mut().bind_queue_sim(queue, sim);
        Self::over(ctx, nic, queue, local_port)
    }

    /// A stack of `ctx` on queue `queue` of `nic`, with the defaults.
    fn over(ctx: SerCtx, nic: Rc<RefCell<Nic>>, queue: usize, local_port: u16) -> Self {
        UdpStack {
            ctx,
            nic,
            queue,
            local_port,
            local_host: 0,
            peer_host: 0,
            scratch: Vec::with_capacity(4096),
            auto_complete: true,
            tx_batch: Vec::new(),
            tx_batching: false,
            counters: UdpCounters::default(),
        }
    }

    /// Attaches `tele` to this stack, its serialization context and its
    /// NIC: the `net.udp.*`, `nic.*` and `mem.*` cells are adopted holding
    /// whatever they have counted so far, and serializer and per-queue NIC
    /// events join `tele`'s flight recorder. Every stack sharing a NIC
    /// attaches it; the NIC's cells are adopted once.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        self.ctx.set_telemetry(tele);
        self.nic.borrow_mut().set_telemetry(tele);
        let c = &self.counters;
        tele.adopt_counter("net.udp.rx_packets", &c.rx_packets);
        tele.adopt_counter("net.udp.rx_runt_drops", &c.rx_runt_drops);
        tele.adopt_counter("net.udp.rx_corrupt_drops", &c.rx_corrupt_drops);
        tele.adopt_counter("net.udp.tx_packets", &c.tx_packets);
        tele.adopt_counter("net.udp.tx_copy_fallbacks", &c.tx_copy_fallbacks);
        tele.adopt_counter("net.udp.backlog_drops", &c.backlog_drops);
        tele.adopt_gauge("net.udp.rx_backlog", &c.rx_backlog);
    }

    /// The telemetry handle installed via [`UdpStack::set_telemetry`]
    /// (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.ctx.telemetry
    }

    /// The serialization context (registry, arena, pool, config).
    pub fn ctx(&self) -> &SerCtx {
        &self.ctx
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.ctx.sim
    }

    /// This stack's UDP port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// This stack's host id (0 unless set for a multi-host topology).
    pub fn local_host(&self) -> u8 {
        self.local_host
    }

    /// Sets this stack's host id; [`UdpStack::header_to`] stamps it as the
    /// source host on every outbound header.
    pub fn set_local_host(&mut self, host: u8) {
        self.local_host = host;
    }

    /// Sets the default destination host for outbound headers. A cluster
    /// client re-points this when it fails over to another replica.
    pub fn set_peer_host(&mut self, host: u8) {
        self.peer_host = host;
    }

    /// The current default destination host.
    pub fn peer_host(&self) -> u8 {
        self.peer_host
    }

    /// Allocates a pinned, DMA-safe buffer (paper Listing 2's `alloc`).
    pub fn alloc(&self, size: usize) -> Result<RcBuf, NetError> {
        self.ctx
            .sim
            .charge(Category::Alloc, self.ctx.sim.costs().arena_alloc);
        Ok(self.ctx.pool.alloc(size)?)
    }

    /// Recovers the pinned buffer containing `data`, if any (paper Listing
    /// 2's `recover_ptr`). Cost accounting happens in
    /// [`cornflakes_core::CFBytes::new`], which is the hot caller.
    pub fn recover_ptr(&self, data: &[u8]) -> Option<RcBuf> {
        self.ctx.registry.recover(data)
    }

    /// When disabled, transmit completions (and thus buffer-reference
    /// releases) only happen on explicit [`UdpStack::poll_completions`] —
    /// used by memory-safety tests to observe in-flight references.
    pub fn set_auto_complete(&mut self, on: bool) {
        self.auto_complete = on;
    }

    /// Drains this stack's queue of transmit completions, releasing
    /// in-flight buffer references.
    pub fn poll_completions(&mut self) -> usize {
        self.nic.borrow_mut().poll_completions_on(self.queue)
    }

    /// Enables transmit batching: sends are staged (validated eagerly, so
    /// errors still surface at the call site) and posted as one
    /// [`Nic::post_tx_burst`] when [`TX_BATCH`] descriptors accumulate or
    /// on [`UdpStack::flush_tx`]. Batched frames are charged
    /// `per_packet_base − doorbell_write`; the burst charges one doorbell,
    /// so a B-frame batch saves `(B−1) × doorbell_write` of CPU.
    pub fn enable_tx_batch(&mut self) {
        self.tx_batching = true;
    }

    /// Posts all staged transmit descriptors as one burst (one doorbell).
    /// Returns the number of frames posted.
    pub fn flush_tx(&mut self) -> Result<usize, NetError> {
        if self.tx_batch.is_empty() {
            return Ok(0);
        }
        let batch = std::mem::take(&mut self.tx_batch);
        let n = self.nic.borrow_mut().post_tx_burst(self.queue, batch)?;
        if self.auto_complete {
            self.nic.borrow_mut().poll_completions_on(self.queue);
        }
        Ok(n)
    }

    /// An empty scatter-gather entry vector for the next send, reusing one
    /// the NIC recovered from a completed transmit when available (see
    /// [`Nic::take_desc`]) — warm send paths build descriptors without
    /// allocating.
    fn take_desc(&self) -> Vec<RcBuf> {
        self.nic.borrow_mut().take_desc(self.queue)
    }

    /// Hands a fully built descriptor to the NIC — or stages it when
    /// batching is on.
    fn post(&mut self, entries: Vec<RcBuf>) -> Result<(), NetError> {
        if self.tx_batching {
            self.nic.borrow().validate_descriptor(&entries)?;
            self.tx_batch.push(entries);
            if self.tx_batch.len() >= TX_BATCH {
                self.flush_tx()?;
            }
            return Ok(());
        }
        self.nic.borrow_mut().post_tx_on(self.queue, entries)?;
        Ok(())
    }

    /// Bounds this socket's rx backlog (the NIC staging ring for the queue
    /// this stack polls) to `limit` frames; 0 restores the unbounded
    /// default. Frames beyond the bound are tail-dropped NIC-side — free of
    /// CPU charge, counted in `net.udp.backlog_drops` when the drop is
    /// observed by [`UdpStack::pump_rx`].
    pub fn set_rx_backlog_limit(&mut self, limit: usize) {
        self.nic
            .borrow_mut()
            .set_rx_backlog_limit(self.queue, limit);
    }

    /// Current rx-backlog occupancy for this socket (frames staged on its
    /// NIC queue, not yet received). Admission control reads this to gauge
    /// pressure before paying any per-packet CPU cost.
    pub fn rx_backlog_len(&self) -> usize {
        self.nic.borrow().rx_staged_on(self.queue)
    }

    /// Drains the wire into NIC staging, enforcing the rx backlog bound.
    /// Returns the number of frames tail-dropped from *this* socket's queue
    /// during the pump, counted in `net.udp.backlog_drops`; also updates
    /// the `net.udp.rx_backlog` occupancy gauge.
    pub fn pump_rx(&mut self) -> u64 {
        let before = self.nic.borrow().queue_stats(self.queue).rx_backlog_drops;
        self.nic.borrow_mut().pump();
        let nic = self.nic.borrow();
        let dropped = nic.queue_stats(self.queue).rx_backlog_drops - before;
        self.counters.backlog_drops.add(dropped);
        self.counters
            .rx_backlog
            .set(nic.rx_staged_on(self.queue) as f64);
        dropped
    }

    /// Sends a header-only fast-reject frame (the `SHED` reply of the
    /// admission layer). Deliberately cheap: no serialization, no payload,
    /// just a header encode into a small pinned buffer — charged a fraction
    /// of the per-packet base so shedding costs far less than serving (the
    /// whole point of a fast reject).
    pub fn send_fast_reject(&mut self, hdr: PacketHeader) -> Result<(), NetError> {
        let costs = self.ctx.sim.costs();
        self.ctx
            .sim
            .charge(Category::Tx, costs.per_packet_base * 0.15);
        self.counters.tx_packets.inc();
        let mut tx = self.ctx.pool.alloc(HEADER_BYTES)?;
        self.put_packet_header(hdr, 0, &mut tx);
        let mut entries = self.take_desc();
        entries.push(tx);
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// Receives the next packet, if any (paper Listing 2's `recv_packet`).
    /// The payload is a zero-copy view into the pinned receive buffer.
    /// Frames failing the CRC32 frame check sequence, and runt frames, are
    /// dropped (counted) and the next frame is tried. Shared-NIC stacks
    /// poll only their own queue.
    pub fn recv_packet(&mut self) -> Option<Packet> {
        loop {
            let frame = self
                .nic
                .borrow_mut()
                .recv_into_on(self.queue, &self.ctx.pool)?;
            let costs = self.ctx.sim.costs();
            self.ctx
                .sim
                .charge(Category::Rx, costs.per_packet_base * 0.45);
            // FCS verification is NIC/checksum-offload work: not charged.
            if !cf_nic::fcs_ok(frame.as_slice()) {
                self.counters.rx_corrupt_drops.inc();
                continue;
            }
            let hdr = match PacketHeader::decode(frame.as_slice()) {
                Ok(h) => h,
                Err(_) => {
                    // Runt frames are dropped, as hardware would drop them.
                    self.counters.rx_runt_drops.inc();
                    continue;
                }
            };
            self.counters.rx_packets.inc();
            let payload = frame.slice(HEADER_BYTES, frame.len() - HEADER_BYTES);
            return Some(Packet {
                hdr,
                frame,
                payload,
            });
        }
    }

    fn charge_tx_base(&self) {
        let costs = self.ctx.sim.costs();
        // When batching, the doorbell is rung once per burst (charged by
        // the NIC at flush) instead of once per frame inside the base.
        let base = if self.tx_batching {
            costs.per_packet_base * 0.55 - costs.doorbell_write
        } else {
            costs.per_packet_base * 0.55
        };
        self.ctx.sim.charge(Category::Tx, base);
        self.counters.tx_packets.inc();
    }

    fn finish_tx(&mut self) {
        if self.auto_complete && self.tx_batch.is_empty() {
            self.nic.borrow_mut().poll_completions_on(self.queue);
        }
        self.ctx.end_request();
    }

    /// Writes `hdr`, carrying `payload_len`, at the front of `tx`.
    fn put_packet_header(&mut self, mut hdr: PacketHeader, payload_len: usize, tx: &mut RcBuf) {
        hdr.payload_len = payload_len as u32;
        self.scratch.resize(HEADER_BYTES, 0);
        hdr.encode(&mut self.scratch);
        tx.write_at(0, &self.scratch);
    }

    /// Builds the first scatter-gather entry for `obj` (whose footprint is
    /// `fp`): packet header + object header + copied field data, in one
    /// pinned buffer (sized with `extra_capacity` spare bytes for the
    /// copy-fallback path). Returns the buffer. Charges header-write and
    /// copy costs.
    fn build_first_entry(
        &mut self,
        hdr: &PacketHeader,
        obj: &impl CornflakesObj,
        fp: Footprint,
        include_packet_header: bool,
        extra_capacity: usize,
    ) -> Result<RcBuf, NetError> {
        let base = if include_packet_header {
            HEADER_BYTES
        } else {
            0
        };
        let in_first = base + fp.header() + fp.copy;
        let mut tx = self.ctx.pool.alloc(in_first + extra_capacity)?;

        if include_packet_header {
            self.put_packet_header(*hdr, fp.len(), &mut tx);
        }

        gather::write_head(&self.ctx, &mut self.scratch, obj, fp, &mut tx, base);
        Ok(tx)
    }

    /// The combined serialize-and-send API (paper Listing 2's
    /// `send_object`, §3.2.3): the packet header, object header, and copied
    /// fields share the first scatter-gather entry; each zero-copy field is
    /// one further entry.
    pub fn send_object(
        &mut self,
        hdr: PacketHeader,
        obj: &impl CornflakesObj,
    ) -> Result<(), NetError> {
        self.charge_tx_base();
        // Degradation ladder: an object wanting more scatter-gather entries
        // than the NIC supports is gathered through the copy path instead
        // of failing the send — identical wire bytes, more CPU (the paper's
        // §4 memory-transparency fallback extended to descriptor pressure).
        let fp = obj.footprint();
        if 1 + fp.zc_entries > self.nic.borrow().max_sg_entries() {
            return self.send_object_copied(hdr, obj, fp);
        }
        let first = self.build_first_entry(&hdr, obj, fp, true, 0)?;
        let mut entries = self.take_desc();
        entries.reserve(1 + fp.zc_entries);
        entries.push(first);
        gather::collect_zero_copy(&self.ctx, obj, &mut entries);
        self.ctx.telemetry.flight().record(
            hdr.meta.req_id,
            self.ctx.sim.now(),
            FlightEvent::Serialize {
                entries: entries.len().min(u8::MAX as usize) as u8,
            },
        );
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// Copy-path fallback for [`UdpStack::send_object`]: gathers every
    /// would-be zero-copy field into the first entry by memcpy, producing a
    /// single-descriptor frame with byte-identical wire contents. Each
    /// demoted field is charged as a copy (it was counted as a zero-copy
    /// field when its `CFBytes` was built; no second lookup runs here).
    fn send_object_copied(
        &mut self,
        hdr: PacketHeader,
        obj: &impl CornflakesObj,
        fp: Footprint,
    ) -> Result<(), NetError> {
        self.counters.tx_copy_fallbacks.inc();
        self.ctx.telemetry.flight().record(
            hdr.meta.req_id,
            self.ctx.sim.now(),
            FlightEvent::CopyFallback,
        );
        let mut tx = self.build_first_entry(&hdr, obj, fp, true, fp.zc_bytes)?;
        let mut cursor = HEADER_BYTES + fp.header() + fp.copy;
        let sim = self.ctx.sim.clone();
        let tx_addr = tx.addr();
        obj.for_each_zero_copy_entry(&mut |rc: &RcBuf| {
            sim.charge_memcpy(
                Category::SerializeCopy,
                rc.addr(),
                tx_addr + cursor as u64,
                rc.len(),
            );
            tx.write_at(cursor, rc.as_slice());
            cursor += rc.len();
        });
        let mut entries = self.take_desc();
        entries.push(tx);
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// The ablation path *without* serialize-and-send (Table 5): the
    /// serialization layer materializes an intermediate scatter-gather
    /// array (object header + copied data in its own buffer, one slot per
    /// zero-copy field), and the networking stack prepends a separate
    /// packet-header entry.
    pub fn send_object_sga(
        &mut self,
        hdr: PacketHeader,
        obj: &impl CornflakesObj,
    ) -> Result<(), NetError> {
        self.charge_tx_base();
        let costs = self.ctx.sim.costs();
        let fp = obj.footprint();
        // The intermediate array allocation plus per-slot materialization.
        self.ctx.sim.charge(Category::Alloc, costs.heap_alloc);
        self.ctx.sim.charge(
            Category::SerializeCopy,
            (1 + fp.zc_entries) as f64 * costs.sga_entry_materialize,
        );
        let obj_buf = self.build_first_entry(&hdr, obj, fp, false, 0)?;
        // Separate packet-header entry.
        let mut hdr_buf = self.ctx.pool.alloc(HEADER_BYTES)?;
        self.put_packet_header(hdr, fp.len(), &mut hdr_buf);

        let mut entries = self.take_desc();
        entries.reserve(2 + fp.zc_entries);
        entries.push(hdr_buf);
        entries.push(obj_buf);
        gather::collect_zero_copy(&self.ctx, obj, &mut entries);
        self.ctx.telemetry.flight().record(
            hdr.meta.req_id,
            self.ctx.sim.now(),
            FlightEvent::Serialize {
                entries: entries.len().min(u8::MAX as usize) as u8,
            },
        );
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// Allocates a transmit buffer whose payload region starts at
    /// [`HEADER_BYTES`]; baselines build contiguous payloads (FlatBuffers
    /// tables, RESP strings, Protobuf encodings) directly into it.
    pub fn alloc_tx(&self, payload_capacity: usize) -> Result<RcBuf, NetError> {
        Ok(self.ctx.pool.alloc(HEADER_BYTES + payload_capacity)?)
    }

    /// Sends a buffer from [`UdpStack::alloc_tx`] after the caller wrote
    /// `payload_len` payload bytes at offset [`HEADER_BYTES`]. Single
    /// scatter-gather entry.
    pub fn send_built(
        &mut self,
        hdr: PacketHeader,
        mut tx: RcBuf,
        payload_len: usize,
    ) -> Result<(), NetError> {
        self.charge_tx_base();
        self.put_packet_header(hdr, payload_len, &mut tx);
        tx.truncate(HEADER_BYTES + payload_len);
        let mut entries = self.take_desc();
        entries.push(tx);
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// L3-forwards a received frame back to its sender after swapping the
    /// UDP ports in place — the paper's "no serialization" echo baseline.
    pub fn forward_frame(&mut self, packet: Packet) -> Result<(), NetError> {
        self.charge_tx_base();
        let mut frame = packet.frame;
        drop(packet.payload); // release the payload view of the same slot
        let src = packet.hdr.src_port;
        let dst = packet.hdr.dst_port;
        frame.write_at(34, &dst.to_be_bytes());
        frame.write_at(36, &src.to_be_bytes());
        let mut entries = self.take_desc();
        entries.push(frame);
        self.post(entries)?;
        self.finish_tx();
        Ok(())
    }

    /// Aggregate NIC statistics (all queues).
    pub fn nic_stats(&self) -> cf_nic::NicStats {
        self.nic.borrow().stats()
    }

    /// Statistics for the NIC queue this stack owns — what a sharded
    /// server reads so one shard's accounting never includes another
    /// shard's traffic.
    #[inline]
    pub fn nic_queue_stats(&self) -> cf_nic::NicStats {
        self.nic.borrow().queue_stats(self.queue)
    }

    /// The NIC queue index this stack is bound to.
    pub fn queue(&self) -> usize {
        self.queue
    }

    /// The shared NIC handle.
    pub fn nic(&self) -> Rc<RefCell<Nic>> {
        Rc::clone(&self.nic)
    }

    /// Arms deterministic fault injection on this stack's receive direction
    /// (see [`cf_nic::Port::install_faults`]); returns the injector handle
    /// for surgical faults and statistics.
    pub fn install_faults(&self, plan: cf_nic::FaultPlan) -> cf_nic::FaultInjector {
        let port = self.nic.borrow().port().clone();
        port.install_faults(self.ctx.sim.clock(), plan)
    }

    /// Whether frames are waiting to be received.
    pub fn has_pending_rx(&self) -> bool {
        self.nic.borrow().has_pending_rx()
    }

    /// A default packet header originating from this stack.
    pub fn header_to(&self, dst_port: u16, meta: FrameMeta) -> PacketHeader {
        PacketHeader {
            src_host: self.local_host,
            dst_host: self.peer_host,
            src_port: self.local_port,
            dst_port,
            meta,
            version: 0,
            payload_len: 0,
        }
    }
}

impl fmt::Debug for UdpStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpStack")
            .field("local_port", &self.local_port)
            .field("nic", &self.nic)
            .finish()
    }
}
