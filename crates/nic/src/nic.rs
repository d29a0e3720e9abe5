//! The simulated NIC: multi-queue scatter-gather TX with batched doorbells,
//! RSS-steered RX into pinned buffers, per-queue completion queues.
//!
//! A [`Nic`] owns N queue pairs (default 1). Transmit descriptors are
//! posted to an explicit queue ([`Nic::post_tx_on`], or [`Nic::post_tx`]
//! for queue 0); received frames are steered to a queue by the
//! [`RssConfig`] hash over the frame's flow key and drained per queue
//! ([`Nic::recv_into_on`]) or round-robin across queues
//! ([`Nic::recv_into`]). Each queue keeps its own completion queue and its
//! own counters (read as a [`NicStats`], adopted by telemetry as
//! `nic.qN.*`), and can be bound to its own
//! [`Sim`] ([`Nic::bind_queue_sim`]) so a sharded server charges each
//! queue's descriptor costs to the core that owns the queue.

use std::collections::VecDeque;
use std::fmt;

use cf_mem::{PinnedPool, RcBuf};
use cf_sim::cost::Category;
use cf_sim::Sim;
use cf_telemetry::{Counter, FlightEvent, FlightRecorder, Telemetry};

use crate::frame::{Frame, Port};
use crate::rss::RssConfig;
use crate::MAX_FRAME;

/// Fixed byte range of the request id in the net-layer packet header.
/// Like the RSS unit's flow-key parse (ports at bytes 34/36), this is the
/// NIC reading a fixed header offset — cf-net's `PacketHeader` layout is
/// the source of truth, and a cross-layer test there pins these offsets.
const REQ_ID_RANGE: std::ops::Range<usize> = 44..48;

/// Minimum frame length that can carry a full packet header.
const MIN_HEADER_FRAME: usize = 48;

/// Bound on a queue's recovered descriptor-vector stash (one per posted
/// descriptor between completion polls; deeper bursts fall back to the
/// allocator).
const MAX_DESC_SPARES: usize = 64;

/// Extracts the request id a well-formed KV frame carries, or `None` for
/// frames too short to hold a packet header (runts, control traffic).
/// This is how flight-recorder events stay wire-invisible: the id is
/// already in every frame, so the NIC can attribute tx/rx enqueues to a
/// request without the stack telling it anything.
pub fn frame_req_id(data: &[u8]) -> Option<u32> {
    if data.len() < MIN_HEADER_FRAME {
        return None;
    }
    let bytes = data[REQ_ID_RANGE].first_chunk::<4>()?;
    Some(u32::from_le_bytes(*bytes))
}

/// Errors surfaced by the transmit path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicError {
    /// The descriptor requested more scatter-gather entries than the NIC
    /// supports.
    TooManySgEntries {
        /// Entries requested.
        requested: usize,
        /// The NIC's limit.
        max: usize,
    },
    /// The gathered frame would exceed the jumbo-frame MTU.
    FrameTooLarge {
        /// Gathered size in bytes.
        size: usize,
    },
    /// A descriptor with zero entries was posted.
    EmptyDescriptor,
    /// A queue index past the configured queue count.
    NoSuchQueue {
        /// Queue requested.
        queue: usize,
        /// Queues configured.
        queues: usize,
    },
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::TooManySgEntries { requested, max } => {
                write!(
                    f,
                    "descriptor has {requested} SG entries, NIC supports {max}"
                )
            }
            NicError::FrameTooLarge { size } => {
                write!(
                    f,
                    "gathered frame of {size} bytes exceeds {MAX_FRAME}-byte MTU"
                )
            }
            NicError::EmptyDescriptor => write!(f, "empty transmit descriptor"),
            NicError::NoSuchQueue { queue, queues } => {
                write!(f, "queue {queue} out of range ({queues} configured)")
            }
        }
    }
}

impl std::error::Error for NicError {}

/// Transmit/receive counters (per queue; [`Nic::stats`] sums them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Payload-inclusive bytes transmitted.
    pub tx_bytes: u64,
    /// Scatter-gather entries posted across all transmits.
    pub tx_sg_entries: u64,
    /// Doorbell rings (one per [`Nic::post_tx`], one per
    /// [`Nic::post_tx_burst`] regardless of burst size).
    pub doorbells: u64,
    /// Completed transmit descriptors reaped by completion polling.
    pub completions: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped on receive because no pool buffer was available
    /// (receive-descriptor starvation).
    pub rx_nobuf_drops: u64,
    /// Frames dropped because the queue's bounded rx staging ring was full
    /// (hardware-style tail drop under overload; see
    /// [`Nic::set_rx_backlog_limit`]).
    pub rx_backlog_drops: u64,
}

/// One queue's counter cells, the only place its facts are counted.
/// [`NicStats`] is a snapshot of them; [`Nic::set_telemetry`] files each
/// cell under its `nic.qN.*` name and under the aggregate `nic.*` name.
#[derive(Debug, Default)]
struct NicCounters {
    tx_frames: Counter,
    tx_bytes: Counter,
    tx_sg_entries: Counter,
    doorbells: Counter,
    rx_frames: Counter,
    rx_bytes: Counter,
    rx_nobuf_drops: Counter,
    rx_backlog_drops: Counter,
    completions: Counter,
}

impl NicCounters {
    fn adopt_into(&self, tele: &Telemetry, prefix: &str) {
        for (name, cell) in [
            ("tx_frames", &self.tx_frames),
            ("tx_bytes", &self.tx_bytes),
            ("tx_sg_entries", &self.tx_sg_entries),
            ("doorbells", &self.doorbells),
            ("rx_frames", &self.rx_frames),
            ("rx_bytes", &self.rx_bytes),
            ("rx_nobuf_drops", &self.rx_nobuf_drops),
            ("rx_backlog_drops", &self.rx_backlog_drops),
            ("completions", &self.completions),
        ] {
            tele.adopt_counter(&format!("{prefix}.{name}"), cell);
        }
    }

    /// Adds this queue's counts to `total`.
    #[inline]
    fn add_to(&self, total: &mut NicStats) {
        total.tx_frames += self.tx_frames.get();
        total.tx_bytes += self.tx_bytes.get();
        total.tx_sg_entries += self.tx_sg_entries.get();
        total.doorbells += self.doorbells.get();
        total.completions += self.completions.get();
        total.rx_frames += self.rx_frames.get();
        total.rx_bytes += self.rx_bytes.get();
        total.rx_nobuf_drops += self.rx_nobuf_drops.get();
        total.rx_backlog_drops += self.rx_backlog_drops.get();
    }
}

/// One TX/RX queue pair: its completion queue, RSS-staged receive frames,
/// counters, and (optionally) its own charging context.
#[derive(Default)]
struct Queue {
    /// Buffers held by "in-flight DMA": released when completions are
    /// polled. Each inner vec is one descriptor's entries.
    completion_queue: VecDeque<Vec<RcBuf>>,
    /// Empty descriptor vecs recovered by [`Nic::poll_completions`], handed
    /// back out through [`Nic::take_desc`] so steady-state transmit posts
    /// no fresh entry vectors.
    desc_spares: Vec<Vec<RcBuf>>,
    /// Received frames steered here by RSS, awaiting `recv_into*`.
    rx_staging: VecDeque<Frame>,
    /// Bound on `rx_staging` (0 = unbounded). When full, newly steered
    /// frames are tail-dropped — the rx-ring overflow every real NIC has.
    rx_limit: usize,
    counters: NicCounters,
    /// Charging context override for this queue (sharded servers bind the
    /// owning core's `Sim`); `None` falls back to the NIC's base `Sim`.
    sim: Option<Sim>,
}

/// A simulated multi-queue scatter-gather NIC attached to one wire port.
pub struct Nic {
    sim: Sim,
    port: Port,
    rss: RssConfig,
    queues: Vec<Queue>,
    /// Round-robin start for aggregate receive draining.
    rx_rotor: usize,
    /// Request-scoped lifecycle events (disabled by default): the recorder
    /// of the handle last attached. The NIC sits below `cornflakes-core`, so
    /// it cannot reach a `SerCtx` and keeps its own clone.
    flight: FlightRecorder,
}

impl Nic {
    /// Creates a single-queue NIC on `port`, charging costs to `sim` (whose
    /// profile also determines the NIC model).
    pub fn new(sim: Sim, port: Port) -> Self {
        Self::with_queues(sim, port, 1)
    }

    /// Creates a NIC with `num_queues` TX/RX queue pairs and the default
    /// RSS steering profile for that queue count.
    pub fn with_queues(sim: Sim, port: Port, num_queues: usize) -> Self {
        assert!(num_queues > 0, "at least one queue");
        Nic {
            sim,
            port,
            rss: RssConfig::new(num_queues),
            queues: (0..num_queues).map(|_| Queue::default()).collect(),
            rx_rotor: 0,
            flight: FlightRecorder::disabled(),
        }
    }

    /// Number of configured queue pairs.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// The active RSS steering configuration.
    pub fn rss(&self) -> &RssConfig {
        &self.rss
    }

    /// Binds queue `q`'s cost charging to `sim` (the core that owns the
    /// queue in a sharded server). Unbound queues charge the NIC's base
    /// `Sim`.
    pub fn bind_queue_sim(&mut self, q: usize, sim: Sim) {
        self.queues[q].sim = Some(sim);
    }

    fn queue_sim(&self, q: usize) -> &Sim {
        self.queues[q].sim.as_ref().unwrap_or(&self.sim)
    }

    /// Attaches `tele`: every queue's counter cells are adopted under their
    /// `nic.qN.*` names and under the aggregate `nic.*` names (which so read
    /// Σ queues), holding whatever they have counted so far; and per-queue
    /// tx/rx enqueues and tail drops are recorded in `tele`'s flight
    /// recorder against the request id each frame already carries, on the
    /// clock of the core that owns the queue. A handle without a recorder
    /// leaves the installed one in place.
    pub fn set_telemetry(&mut self, tele: &Telemetry) {
        for (i, q) in self.queues.iter().enumerate() {
            q.counters.adopt_into(tele, "nic");
            q.counters.adopt_into(tele, &format!("nic.q{i}"));
        }
        if tele.flight().is_enabled() {
            self.flight = tele.flight().clone();
        }
    }

    /// Maximum scatter-gather entries per descriptor for this NIC (a
    /// per-queue limit: every queue of an mlx5 or e810 has the same one).
    pub fn max_sg_entries(&self) -> usize {
        self.sim.nic().max_sg_entries()
    }

    /// Checks a descriptor against the NIC's limits without posting it.
    /// Batching stacks use this to surface errors at enqueue time, so a
    /// later burst flush cannot fail.
    pub fn validate_descriptor(&self, entries: &[RcBuf]) -> Result<(), NicError> {
        if entries.is_empty() {
            return Err(NicError::EmptyDescriptor);
        }
        let max = self.max_sg_entries();
        if entries.len() > max {
            return Err(NicError::TooManySgEntries {
                requested: entries.len(),
                max,
            });
        }
        let size: usize = entries.iter().map(|e| e.len()).sum();
        if size > MAX_FRAME {
            return Err(NicError::FrameTooLarge { size });
        }
        Ok(())
    }

    fn check_queue(&self, q: usize) -> Result<(), NicError> {
        if q >= self.queues.len() {
            return Err(NicError::NoSuchQueue {
                queue: q,
                queues: self.queues.len(),
            });
        }
        Ok(())
    }

    /// Posts one validated descriptor on queue `q`: charges the per-entry
    /// descriptor cost for entries after the first, gathers, sends,
    /// and parks the entries in the queue's completion queue.
    fn post_validated(&mut self, q: usize, entries: Vec<RcBuf>) {
        // Descriptor-write cost for the additional entries, charged to the
        // core that owns the queue.
        for _ in 1..entries.len() {
            self.queue_sim(q).charge_sg_entry(Category::Tx);
        }
        let size: usize = entries.iter().map(|e| e.len()).sum();
        // NIC-side gather (PCIe reads): real data movement, no CPU charge.
        // The gather buffer comes from the wire's recycled spares (the
        // receiver returns consumed frame data), so a warm wire gathers
        // without touching the allocator.
        let mut data = self.port.take_tx_data();
        data.reserve(size);
        for e in &entries {
            data.extend_from_slice(e.as_slice());
        }
        if self.flight.is_enabled() {
            if let Some(id) = frame_req_id(&data) {
                let now = self.queue_sim(q).now();
                self.flight
                    .record(id, now, FlightEvent::NicTxEnqueue { queue: q as u8 });
            }
        }
        let counters = &self.queues[q].counters;
        counters.tx_frames.inc();
        counters.tx_bytes.add(size as u64);
        counters.tx_sg_entries.add(entries.len() as u64);
        self.port.send(Frame::new(data));
        self.queues[q].completion_queue.push_back(entries);
    }

    fn ring_doorbell(&mut self, q: usize) {
        self.queues[q].counters.doorbells.inc();
    }

    /// Posts a transmit descriptor on queue 0 (the single-queue API), then
    /// rings the doorbell.
    ///
    /// The simulated DMA engine gathers the entry bytes into one frame and
    /// puts it on the wire immediately, but the entry buffers remain
    /// referenced in the completion queue until [`Nic::poll_completions`] —
    /// that is the asynchrony that makes memory safety matter.
    ///
    /// Cost accounting: each entry after the first is charged the NIC's
    /// per-entry descriptor cost ([`Category::Tx`]); the first entry and the
    /// doorbell are part of the calibrated per-packet base charged by the
    /// networking stack.
    pub fn post_tx(&mut self, entries: Vec<RcBuf>) -> Result<(), NicError> {
        self.post_tx_on(0, entries)
    }

    /// Posts a transmit descriptor on queue `q` and rings that queue's
    /// doorbell. See [`Nic::post_tx`] for cost accounting.
    pub fn post_tx_on(&mut self, q: usize, entries: Vec<RcBuf>) -> Result<(), NicError> {
        self.check_queue(q)?;
        self.validate_descriptor(&entries)?;
        self.post_validated(q, entries);
        self.ring_doorbell(q);
        Ok(())
    }

    /// Posts a burst of descriptors on queue `q` with **one** doorbell ring
    /// for the whole burst — the batched-doorbell optimization every
    /// kernel-bypass TX path uses.
    ///
    /// Cost accounting: per-descriptor SG-entry costs are charged exactly as
    /// in [`Nic::post_tx`], plus one `doorbell_write` (the MMIO register
    /// write) for the burst. Callers that batch charge
    /// `per_packet_base − doorbell_write` per frame instead of the full
    /// base, so a B-frame burst saves `(B−1) × doorbell_write` of CPU time
    /// over B single posts.
    ///
    /// All descriptors are validated before any is posted: on error nothing
    /// was sent. Returns the number of frames posted.
    pub fn post_tx_burst(&mut self, q: usize, descs: Vec<Vec<RcBuf>>) -> Result<usize, NicError> {
        self.check_queue(q)?;
        if descs.is_empty() {
            return Ok(0);
        }
        for d in &descs {
            self.validate_descriptor(d)?;
        }
        let costs = self.queue_sim(q).costs();
        self.queue_sim(q).charge(Category::Tx, costs.doorbell_write);
        let n = descs.len();
        for d in descs {
            self.post_validated(q, d);
        }
        self.ring_doorbell(q);
        Ok(n)
    }

    /// Drains every queue's completion queue, releasing all buffer
    /// references held by completed transmits and attributing each
    /// completion to the queue that posted it. Returns the total number of
    /// completed descriptors.
    ///
    /// The cost of completion processing is part of the per-packet base.
    pub fn poll_completions(&mut self) -> usize {
        (0..self.queues.len()).map(|q| self.reap_queue(q)).sum()
    }

    /// Drains queue `q`'s completion queue only.
    pub fn poll_completions_on(&mut self, q: usize) -> usize {
        self.reap_queue(q)
    }

    fn reap_queue(&mut self, q: usize) -> usize {
        let queue = &mut self.queues[q];
        let n = queue.completion_queue.len();
        // Release the buffer references (the completion semantics) but keep
        // the descriptor vectors themselves for `take_desc` to re-issue.
        for mut desc in queue.completion_queue.drain(..) {
            desc.clear();
            if queue.desc_spares.len() < MAX_DESC_SPARES {
                queue.desc_spares.push(desc);
            }
        }
        queue.counters.completions.add(n as u64);
        n
    }

    /// An empty descriptor vector for building the next transmit post on
    /// queue `q`, reusing one recovered by completion polling when
    /// available. Senders that take, fill, and `post_tx_on` in a loop
    /// allocate no descriptor vectors in steady state.
    pub fn take_desc(&mut self, q: usize) -> Vec<RcBuf> {
        self.queues
            .get_mut(q)
            .and_then(|queue| queue.desc_spares.pop())
            .unwrap_or_default()
    }

    /// Number of descriptors whose buffers are still held by the NIC,
    /// across all queues.
    pub fn pending_completions(&self) -> usize {
        self.queues.iter().map(|q| q.completion_queue.len()).sum()
    }

    /// Number of descriptors still held by queue `q`.
    pub fn pending_completions_on(&self, q: usize) -> usize {
        self.queues[q].completion_queue.len()
    }

    /// Bounds queue `q`'s rx staging ring to `limit` frames (0 restores the
    /// unbounded default). Frames steered to a full queue are tail-dropped
    /// and counted in [`NicStats::rx_backlog_drops`] — NIC-side work, no CPU
    /// charge, exactly like an overflowing hardware rx ring. This is the
    /// outermost layer of overload protection: excess load is shed before
    /// the host ever touches it.
    pub fn set_rx_backlog_limit(&mut self, q: usize, limit: usize) {
        self.queues[q].rx_limit = limit;
    }

    /// Number of frames currently staged on queue `q` (rx-backlog
    /// occupancy, surfaced to admission control).
    pub fn rx_staged_on(&self, q: usize) -> usize {
        self.queues[q].rx_staging.len()
    }

    /// Drains the wire into per-queue staging, honoring each queue's rx
    /// backlog limit. Returns the number of frames tail-dropped during this
    /// pump. Calling this is optional — `recv_into*` pull lazily — but an
    /// explicit pump makes the bounded rings actually bound memory when the
    /// receiver is slower than the wire.
    pub fn pump(&mut self) -> u64 {
        let drops = |queues: &[Queue]| -> u64 {
            let per_queue = queues.iter().map(|q| q.counters.rx_backlog_drops.get());
            per_queue.sum()
        };
        let before = drops(&self.queues);
        while self.pull_one().is_some() {}
        drops(&self.queues) - before
    }

    /// Pulls one frame off the wire and stages it on the queue RSS steers
    /// it to. Returns the queue index, or `None` when the wire is idle.
    /// A frame steered to a queue whose bounded staging ring is full is
    /// tail-dropped (counted, no CPU charge); the queue index is still
    /// returned so pull loops keep draining the wire.
    fn pull_one(&mut self) -> Option<usize> {
        let frame = self.port.recv()?;
        let q = if self.queues.len() == 1 {
            0
        } else {
            self.rss
                .queue_for_frame(&frame.data)
                .min(self.queues.len() - 1)
        };
        let full = {
            let queue = &self.queues[q];
            queue.rx_limit > 0 && queue.rx_staging.len() >= queue.rx_limit
        };
        if self.flight.is_enabled() {
            if let Some(id) = frame_req_id(&frame.data) {
                let now = self.queue_sim(q).now();
                let event = if full {
                    FlightEvent::NicTailDrop { queue: q as u8 }
                } else {
                    FlightEvent::NicRxEnqueue { queue: q as u8 }
                };
                self.flight.record(id, now, event);
            }
        }
        let queue = &mut self.queues[q];
        if full {
            queue.counters.rx_backlog_drops.inc();
            return Some(q);
        }
        queue.rx_staging.push_back(frame);
        Some(q)
    }

    /// DMAs a staged frame into a buffer from `rx_pool`, attributing to
    /// queue `q`, and returns it with the frame's corruption mark. `None`
    /// means the frame was dropped (pool exhausted).
    fn dma_rx(&mut self, q: usize, frame: Frame, rx_pool: &PinnedPool) -> Option<(RcBuf, bool)> {
        let Ok(mut buf) = rx_pool.alloc(frame.len().max(1)) else {
            self.queues[q].counters.rx_nobuf_drops.inc();
            self.port.recycle_rx_data(frame.data);
            return None;
        };
        let counters = &self.queues[q].counters;
        counters.rx_frames.inc();
        counters.rx_bytes.add(frame.len() as u64);
        if !frame.is_empty() {
            buf.write_at(0, &frame.data);
        }
        buf.truncate(frame.len());
        // The DMA write invalidates any cached copies of the receive
        // buffer (no DDIO on the modeled AMD platform): the CPU's first
        // touch of received data misses to memory.
        self.queue_sim(q).dma_write(buf.addr(), frame.len());
        // The frame is consumed; hand its data buffer back to the wire's
        // sender for the next gather.
        self.port.recycle_rx_data(frame.data);
        Some((buf, frame.corrupted))
    }

    /// Receives the next frame from any queue (round-robin across queues
    /// with staged frames), DMA-ing it into a pinned buffer from `rx_pool`
    /// (pre-posted receive descriptor). The DMA write is NIC-side work and
    /// is not charged to the CPU; parsing costs are charged by the
    /// networking stack.
    ///
    /// Returns the buffer and whether the frame was corrupted on the wire:
    /// the NIC's CRC verdict, which the stack acts on by dropping the
    /// frame. A corrupted frame is still DMA'd, as hardware writes it
    /// before its CRC fails. Returns `None` when no frame is pending. If the RX pool is exhausted
    /// — receive-descriptor starvation — the frame is dropped on the floor
    /// exactly as hardware drops frames with no posted descriptor, counted
    /// in [`NicStats::rx_nobuf_drops`]; upper layers recover by retransmit
    /// or retry, never by panicking.
    pub fn recv_into(&mut self, rx_pool: &PinnedPool) -> Option<(RcBuf, bool)> {
        loop {
            let nq = self.queues.len();
            let staged = (0..nq)
                .map(|i| (self.rx_rotor + i) % nq)
                .find(|&q| !self.queues[q].rx_staging.is_empty());
            let Some(q) = staged else {
                self.pull_one()?;
                continue;
            };
            self.rx_rotor = (q + 1) % nq;
            let Some(frame) = self.queues[q].rx_staging.pop_front() else {
                continue;
            };
            if let Some(rx) = self.dma_rx(q, frame, rx_pool) {
                return Some(rx);
            }
        }
    }

    /// Receives the next frame steered to queue `q` (per-queue polling, the
    /// sharded-server path). Frames for other queues encountered while
    /// searching stay staged on their queues for their owners to drain.
    /// Returns what [`Nic::recv_into`] does.
    pub fn recv_into_on(&mut self, q: usize, rx_pool: &PinnedPool) -> Option<(RcBuf, bool)> {
        loop {
            let Some(frame) = self.queues[q].rx_staging.pop_front() else {
                self.pull_one()?;
                continue;
            };
            if let Some(rx) = self.dma_rx(q, frame, rx_pool) {
                return Some(rx);
            }
        }
    }

    /// Whether frames are waiting to be received (on the wire or staged on
    /// any queue).
    pub fn has_pending_rx(&self) -> bool {
        self.port.pending_rx() > 0 || self.queues.iter().any(|q| !q.rx_staging.is_empty())
    }

    /// Aggregate transmit/receive counters across all queues.
    pub fn stats(&self) -> NicStats {
        let mut total = NicStats::default();
        for q in &self.queues {
            q.counters.add_to(&mut total);
        }
        total
    }

    /// Queue `q`'s transmit/receive counters. Inlined, so a caller that
    /// reads one field (a server reads `tx_bytes` around every request)
    /// loads one cell, not nine.
    #[inline]
    pub fn queue_stats(&self, q: usize) -> NicStats {
        let mut stats = NicStats::default();
        self.queues[q].counters.add_to(&mut stats);
        stats
    }

    /// The attached wire port (test hook).
    pub fn port(&self) -> &Port {
        &self.port
    }
}

impl fmt::Debug for Nic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nic")
            .field("model", &self.sim.nic())
            .field("queues", &self.queues.len())
            .field("stats", &self.stats())
            .field("pending_completions", &self.pending_completions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::link;
    use cf_mem::{PoolConfig, Registry};
    use cf_sim::{MachineProfile, Sim};

    fn setup() -> (Nic, Nic, PinnedPool, Sim) {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let a = Nic::new(sim.clone(), pa);
        let b = Nic::new(sim.clone(), pb);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        (a, b, pool, sim)
    }

    fn buf(pool: &PinnedPool, bytes: &[u8]) -> RcBuf {
        pool.alloc_from(bytes).unwrap()
    }

    /// A 64-byte frame whose port fields steer it through RSS.
    fn flow_frame(pool: &PinnedPool, src_port: u16, dst_port: u16) -> RcBuf {
        let mut data = [0u8; 64];
        data[34..36].copy_from_slice(&src_port.to_be_bytes());
        data[36..38].copy_from_slice(&dst_port.to_be_bytes());
        buf(pool, &data)
    }

    #[test]
    fn gather_concatenates_entries() {
        let (mut a, mut b, pool, _sim) = setup();
        let e1 = buf(&pool, b"hello ");
        let e2 = buf(&pool, b"scatter ");
        let e3 = buf(&pool, b"gather");
        a.post_tx(vec![e1, e2, e3]).unwrap();
        let (rx, corrupted) = b.recv_into(&pool).unwrap();
        assert_eq!(&*rx, b"hello scatter gather");
        assert!(!corrupted);
    }

    #[test]
    fn completion_holds_references() {
        let (mut a, _b, pool, _sim) = setup();
        let e = buf(&pool, b"pinned until completion");
        let watcher = e.clone();
        a.post_tx(vec![e]).unwrap();
        // The application dropped its handle (moved into post_tx), but the
        // NIC still holds one.
        assert_eq!(watcher.refcount(), 2);
        assert_eq!(a.poll_completions(), 1);
        assert_eq!(watcher.refcount(), 1);
    }

    #[test]
    fn completion_polling_recycles_descriptor_vecs() {
        let (mut a, _b, pool, _sim) = setup();
        let mut desc = a.take_desc(0);
        assert!(desc.is_empty(), "fresh descriptor vec");
        desc.push(buf(&pool, b"first"));
        a.post_tx(desc).unwrap();
        assert_eq!(a.poll_completions(), 1);
        // The reaped vec comes back empty with its capacity intact.
        let reused = a.take_desc(0);
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 1, "capacity recovered from completion");
        // Out-of-range queue degrades to a fresh vec rather than panicking.
        assert!(a.take_desc(99).is_empty());
    }

    #[test]
    fn sg_limit_enforced() {
        let sim = Sim::new(MachineProfile::milan_intel_e810());
        let (pa, _pb) = link();
        let mut nic = Nic::new(sim, pa);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        let entries: Vec<RcBuf> = (0..9).map(|_| buf(&pool, b"x")).collect();
        let err = nic.post_tx(entries).unwrap_err();
        assert_eq!(
            err,
            NicError::TooManySgEntries {
                requested: 9,
                max: 8
            }
        );
        // 8 entries is fine on the e810.
        let entries: Vec<RcBuf> = (0..8).map(|_| buf(&pool, b"x")).collect();
        nic.post_tx(entries).unwrap();
    }

    #[test]
    fn frame_size_limit_enforced() {
        let (mut a, _b, pool, _sim) = setup();
        let entries: Vec<RcBuf> = (0..2).map(|_| pool.alloc(8000).unwrap()).collect();
        let err = a.post_tx(entries).unwrap_err();
        assert!(matches!(err, NicError::FrameTooLarge { size: 16000 }));
    }

    #[test]
    fn empty_descriptor_rejected() {
        let (mut a, _b, _pool, _sim) = setup();
        assert_eq!(a.post_tx(vec![]).unwrap_err(), NicError::EmptyDescriptor);
    }

    #[test]
    fn per_entry_cost_charged_after_first() {
        let (mut a, _b, pool, sim) = setup();
        let t0 = sim.now();
        a.post_tx(vec![buf(&pool, b"one")]).unwrap();
        assert_eq!(sim.now(), t0, "single-entry post rides the base cost");
        a.post_tx(vec![
            buf(&pool, b"one"),
            buf(&pool, b"two"),
            buf(&pool, b"three"),
        ])
        .unwrap();
        let per_entry = sim.nic().sg_entry_cost_ns();
        assert_eq!(sim.now() - t0, (2.0 * per_entry).round() as u64);
    }

    #[test]
    fn stats_accumulate() {
        let (mut a, mut b, pool, _sim) = setup();
        a.post_tx(vec![buf(&pool, b"12345")]).unwrap();
        a.post_tx(vec![buf(&pool, b"123"), buf(&pool, b"45")])
            .unwrap();
        let s = a.stats();
        assert_eq!(s.tx_frames, 2);
        assert_eq!(s.tx_bytes, 10);
        assert_eq!(s.tx_sg_entries, 3);
        assert_eq!(s.doorbells, 2, "each single post rings once");
        b.recv_into(&pool).unwrap();
        assert_eq!(b.stats().rx_frames, 1);
        assert_eq!(b.stats().rx_bytes, 5);
    }

    #[test]
    fn rx_returns_none_when_idle() {
        let (mut a, _b, pool, _sim) = setup();
        assert!(a.recv_into(&pool).is_none());
        assert!(!a.has_pending_rx());
    }

    #[test]
    fn rx_pool_exhaustion_drops_frame_gracefully() {
        let (mut a, mut b, tx_pool, _sim) = setup();
        // An RX pool with exactly one 64 B slot, and that slot held.
        let cfg = PoolConfig {
            slots_per_region: 1,
            max_regions_per_class: 1,
            ..PoolConfig::small_for_tests()
        };
        let rx_pool = PinnedPool::new(Registry::new(), cfg);
        let held = rx_pool.alloc(16).unwrap();
        a.post_tx(vec![buf(&tx_pool, b"dropped on the floor")])
            .unwrap();
        assert!(
            b.recv_into(&rx_pool).is_none(),
            "starved RX drops the frame"
        );
        assert_eq!(b.stats().rx_nobuf_drops, 1);
        assert_eq!(b.stats().rx_frames, 0, "a dropped frame is not received");
        // Once a descriptor is available again, traffic flows.
        drop(held);
        a.post_tx(vec![buf(&tx_pool, b"arrives")]).unwrap();
        assert_eq!(&*b.recv_into(&rx_pool).unwrap().0, b"arrives");
        assert_eq!(b.stats().rx_nobuf_drops, 1);
    }

    #[test]
    fn rx_buffer_is_recoverable_pinned_memory() {
        let (mut a, mut b, _pool, _sim) = setup();
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        a.post_tx(vec![buf(&pool, b"payload in pinned rx")])
            .unwrap();
        let (rx, _) = b.recv_into(&pool).unwrap();
        // Data received into pinned memory can be zero-copied back out.
        let inner = &rx.as_slice()[8..14];
        let rec = reg.recover(inner).expect("rx data recovers");
        assert_eq!(&*rec, b"in pin");
    }

    // ---- Multi-queue behavior -------------------------------------------

    /// A source port whose flow to `dst` steers to queue `q` under `rss`.
    fn port_for_queue(rss: &RssConfig, dst: u16, q: usize) -> u16 {
        (4000..u16::MAX)
            .find(|&p| rss.queue_for_flow(p, dst) == q)
            .expect("steering port exists")
    }

    #[test]
    fn rss_steers_frames_to_owning_queues() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let mut tx = Nic::new(sim.clone(), pa);
        let mut rx = Nic::with_queues(sim, pb, 4);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        let rss = rx.rss().clone();
        // One frame aimed at each queue, interleaved.
        let ports: Vec<u16> = (0..4).map(|q| port_for_queue(&rss, 9000, q)).collect();
        for &p in &ports {
            tx.post_tx(vec![flow_frame(&pool, p, 9000)]).unwrap();
        }
        // Per-queue polling yields exactly the frame for that queue.
        for (q, &p) in ports.iter().enumerate() {
            let (frame, _) = rx.recv_into_on(q, &pool).expect("frame for queue");
            let got = u16::from_be_bytes([frame.as_slice()[34], frame.as_slice()[35]]);
            assert_eq!(got, p, "queue {q} got the frame RSS steered to it");
            assert_eq!(rx.queue_stats(q).rx_frames, 1);
        }
        assert!(!rx.has_pending_rx());
    }

    #[test]
    fn aggregate_recv_drains_all_queues() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let mut tx = Nic::new(sim.clone(), pa);
        let mut rx = Nic::with_queues(sim, pb, 4);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        for src in 4000..4016u16 {
            tx.post_tx(vec![flow_frame(&pool, src, 9000)]).unwrap();
        }
        let mut got = 0;
        while rx.recv_into(&pool).is_some() {
            got += 1;
        }
        assert_eq!(got, 16);
        assert_eq!(rx.stats().rx_frames, 16);
        let per_queue: u64 = (0..4).map(|q| rx.queue_stats(q).rx_frames).sum();
        assert_eq!(per_queue, 16, "per-queue stats sum to the aggregate");
    }

    #[test]
    fn completions_attributed_to_owning_queue() {
        // Regression: poll_completions used to report one aggregate count
        // with no per-queue attribution. Completions must be reaped from —
        // and counted against — exactly the queue that posted them.
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, _pb) = link();
        let mut nic = Nic::with_queues(sim, pa, 3);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        nic.post_tx_on(0, vec![buf(&pool, b"q0-a")]).unwrap();
        nic.post_tx_on(0, vec![buf(&pool, b"q0-b")]).unwrap();
        nic.post_tx_on(2, vec![buf(&pool, b"q2")]).unwrap();
        assert_eq!(nic.pending_completions(), 3);
        assert_eq!(nic.pending_completions_on(0), 2);
        assert_eq!(nic.pending_completions_on(1), 0);
        assert_eq!(nic.pending_completions_on(2), 1);
        // Reaping queue 2 must not touch queue 0's descriptors.
        assert_eq!(nic.poll_completions_on(2), 1);
        assert_eq!(nic.queue_stats(2).completions, 1);
        assert_eq!(nic.queue_stats(0).completions, 0);
        assert_eq!(nic.pending_completions_on(0), 2);
        // The aggregate poll reaps the rest, attributed per queue.
        assert_eq!(nic.poll_completions(), 2);
        assert_eq!(nic.queue_stats(0).completions, 2);
        assert_eq!(nic.queue_stats(1).completions, 0);
        assert_eq!(nic.stats().completions, 3);
    }

    #[test]
    fn burst_rings_one_doorbell_and_charges_it() {
        let (mut a, _b, pool, sim) = setup();
        let t0 = sim.now();
        let n = a
            .post_tx_burst(
                0,
                vec![
                    vec![buf(&pool, b"frame one")],
                    vec![buf(&pool, b"frame two")],
                    vec![buf(&pool, b"frame three")],
                ],
            )
            .unwrap();
        assert_eq!(n, 3);
        // One doorbell_write charge for the burst, no per-frame SG charges
        // (single-entry descriptors).
        let db = sim.costs().doorbell_write;
        assert_eq!(sim.now() - t0, db.round() as u64);
        let s = a.stats();
        assert_eq!(s.tx_frames, 3);
        assert_eq!(s.doorbells, 1, "one ring per burst");
        assert_eq!(a.pending_completions(), 3);
    }

    #[test]
    fn empty_burst_is_free() {
        let (mut a, _b, _pool, sim) = setup();
        let t0 = sim.now();
        assert_eq!(a.post_tx_burst(0, vec![]).unwrap(), 0);
        assert_eq!(sim.now(), t0);
        assert_eq!(a.stats().doorbells, 0);
    }

    #[test]
    fn burst_validates_before_posting_anything() {
        let (mut a, _b, pool, _sim) = setup();
        let err = a
            .post_tx_burst(0, vec![vec![buf(&pool, b"fine")], vec![]])
            .unwrap_err();
        assert_eq!(err, NicError::EmptyDescriptor);
        assert_eq!(a.stats().tx_frames, 0, "nothing posted on a bad burst");
        assert_eq!(a.pending_completions(), 0);
    }

    #[test]
    fn queue_bound_sim_is_charged() {
        let base = Sim::new(MachineProfile::tiny_for_tests());
        let shard = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, _pb) = link();
        let mut nic = Nic::with_queues(base.clone(), pa, 2);
        nic.bind_queue_sim(1, shard.clone());
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        // A two-entry descriptor charges one SG entry — to the bound Sim.
        nic.post_tx_on(1, vec![buf(&pool, b"a"), buf(&pool, b"b")])
            .unwrap();
        assert_eq!(base.now(), 0, "base core untouched");
        let per_entry = shard.nic().sg_entry_cost_ns();
        assert_eq!(shard.now(), per_entry.round() as u64);
    }

    #[test]
    fn posting_to_missing_queue_fails() {
        let (mut a, _b, pool, _sim) = setup();
        let err = a.post_tx_on(3, vec![buf(&pool, b"x")]).unwrap_err();
        assert_eq!(
            err,
            NicError::NoSuchQueue {
                queue: 3,
                queues: 1
            }
        );
    }

    #[test]
    fn bounded_rx_staging_tail_drops_and_counts() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let mut tx = Nic::new(sim.clone(), pa);
        let mut rx = Nic::new(sim.clone(), pb);
        rx.set_rx_backlog_limit(0, 3);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        for i in 0..8u8 {
            tx.post_tx(vec![buf(&pool, &[i; 64])]).unwrap();
        }
        let t0 = sim.now();
        let dropped = rx.pump();
        assert_eq!(dropped, 5, "everything past the bound is tail-dropped");
        assert_eq!(rx.rx_staged_on(0), 3);
        assert_eq!(rx.queue_stats(0).rx_backlog_drops, 5);
        assert_eq!(sim.now(), t0, "tail drops are NIC-side work: no CPU charge");
        // The staged frames are the three oldest — tail drop, not head drop.
        let mut got = vec![];
        while let Some((b, _)) = rx.recv_into(&pool) {
            got.push(b.as_slice()[0]);
        }
        assert_eq!(got, vec![0, 1, 2]);
        // Lifting the limit restores the unbounded default.
        rx.set_rx_backlog_limit(0, 0);
        for i in 0..8u8 {
            tx.post_tx(vec![buf(&pool, &[i; 64])]).unwrap();
        }
        assert_eq!(rx.pump(), 0);
        assert_eq!(rx.rx_staged_on(0), 8);
    }

    #[test]
    fn per_queue_rx_limits_are_independent() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let mut tx = Nic::new(sim.clone(), pa);
        let mut rx = Nic::with_queues(sim, pb, 2);
        rx.set_rx_backlog_limit(0, 1);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        let rss = rx.rss().clone();
        let p0 = port_for_queue(&rss, 9000, 0);
        let p1 = port_for_queue(&rss, 9000, 1);
        for _ in 0..4 {
            tx.post_tx(vec![flow_frame(&pool, p0, 9000)]).unwrap();
            tx.post_tx(vec![flow_frame(&pool, p1, 9000)]).unwrap();
        }
        assert_eq!(rx.pump(), 3, "only the bounded queue drops");
        assert_eq!(rx.rx_staged_on(0), 1);
        assert_eq!(rx.rx_staged_on(1), 4);
        assert_eq!(rx.queue_stats(0).rx_backlog_drops, 3);
        assert_eq!(rx.queue_stats(1).rx_backlog_drops, 0);
        assert_eq!(rx.stats().rx_backlog_drops, 3);
    }

    #[test]
    fn short_control_frames_land_on_queue_zero() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let (pa, pb) = link();
        let tx = Nic::new(sim.clone(), pa);
        let mut rx = Nic::with_queues(sim, pb, 4);
        let pool = PinnedPool::new(Registry::new(), PoolConfig::small_for_tests());
        tx.port().send(Frame::new(vec![0xAB; 8]));
        let (got, _) = rx.recv_into_on(0, &pool).expect("runt on default queue");
        assert_eq!(got.len(), 8);
    }
}
