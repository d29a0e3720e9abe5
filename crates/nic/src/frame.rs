//! Frames and the simulated wire.
//!
//! A [`Frame`] is the fully gathered on-wire representation of one packet.
//! Two [`Port`]s created by [`link`] form a bidirectional wire: frames
//! pushed into one port pop out of the other, in order. Loss, duplication,
//! reordering, bit corruption, and delay are injected deterministically
//! through the [`crate::fault`] layer — arm a port with
//! [`Port::install_faults`] and drive it from a seeded
//! [`crate::fault::FaultPlan`] or the returned
//! [`crate::fault::FaultInjector`]'s surgical per-frame operations. The
//! queues themselves are no longer poked directly.
//!
//! Wire corruption is decided by the fault layer that causes it: a frame
//! whose bits it flips carries a mark to the receiving NIC, which hands it
//! up with the received buffer for the stack to drop and count. The paper's
//! NICs verify the frame CRC in hardware, so that check is NIC work and
//! never host or virtual-clock time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cf_sim::Clock;

use crate::fault::{FaultInjector, FaultPlan, FaultState};

/// Byte offset of the 4-byte field that [`frame_fcs`] reads as zero.
const FCS_OFFSET: usize = 18;

/// CRC-32/IEEE 802.3 (reflected polynomial `0xEDB88320`) of `data` with
/// bytes 18..22, where a stored FCS would sit, read as zero.
///
/// Kept only for the repo benchmark's traced `nic.fcs_*` rows; the
/// datapath checks no CRC (corrupted frames arrive marked, see
/// [`crate::fault`]).
pub fn frame_fcs(data: &[u8]) -> u32 {
    let field = FCS_OFFSET..FCS_OFFSET + 4;
    let crc = data.iter().enumerate().fold(!0u32, |crc, (i, &b)| {
        let b = if field.contains(&i) { 0 } else { b };
        CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
    });
    !crc
}

/// Whether bytes 18..22 of `data` hold its [`frame_fcs`]; frames too
/// short to hold them pass. Kept, like [`frame_fcs`], only for the repo
/// benchmark.
pub fn fcs_ok(data: &[u8]) -> bool {
    match data.get(FCS_OFFSET..).and_then(<[u8]>::first_chunk::<4>) {
        Some(stored) => u32::from_le_bytes(*stored) == frame_fcs(data),
        None => true,
    }
}

/// The bytewise CRC32 table: entry `i` is byte `i` shifted through the
/// polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// A gathered on-wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame bytes, headers included.
    pub data: Vec<u8>,
    /// Set on copies created by wire duplication, so a copy is never
    /// duplicated again (a duplicate probability of 1.0 must terminate).
    pub(crate) wire_copy: bool,
    /// Set by the fault layer on a frame whose bits it flipped; the
    /// receiving NIC reports it with the received buffer.
    pub(crate) corrupted: bool,
}

impl Frame {
    /// Creates a frame from bytes.
    pub fn new(data: Vec<u8>) -> Self {
        Frame {
            data,
            wire_copy: false,
            corrupted: false,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Bound on a channel's recycled frame-data buffers. Covers the deepest
/// steady-state burst (one spare per in-flight frame); anything beyond
/// that is transient and may fall back to the allocator.
const MAX_DATA_SPARES: usize = 64;

/// One direction of a wire: an ordered frame queue plus, once
/// [`Port::install_faults`] has armed it, the fault state that filters
/// deliveries.
#[derive(Debug, Default)]
pub(crate) struct Channel {
    pub(crate) queue: VecDeque<Frame>,
    pub(crate) faults: Option<FaultState>,
    /// Frame-data buffers returned by the receiver after consumption, for
    /// this channel's *sender* to reuse on its next gather — the wire's
    /// frame allocations amortize to zero in steady state.
    spares: Vec<Vec<u8>>,
}

impl Channel {
    fn deliver(&mut self) -> Option<Frame> {
        match &mut self.faults {
            None => self.queue.pop_front(),
            Some(f) => f.deliver(&mut self.queue),
        }
    }

    fn pending(&self) -> usize {
        let due_delayed = self.faults.as_ref().map_or(0, |f| f.due_count());
        self.queue.len() + due_delayed
    }
}

/// One end of a simulated wire.
#[derive(Clone, Debug)]
pub struct Port {
    tx: Rc<RefCell<Channel>>,
    rx: Rc<RefCell<Channel>>,
}

/// Creates a connected pair of ports: what one transmits, the other
/// receives.
pub fn link() -> (Port, Port) {
    let a_to_b = Rc::new(RefCell::new(Channel::default()));
    let b_to_a = Rc::new(RefCell::new(Channel::default()));
    (
        Port {
            tx: Rc::clone(&a_to_b),
            rx: Rc::clone(&b_to_a),
        },
        Port {
            tx: b_to_a,
            rx: a_to_b,
        },
    )
}

impl Port {
    /// Creates a port looped back to itself (transmitted frames are
    /// received by the same port). Useful for single-machine tests.
    pub fn loopback() -> Port {
        let q = Rc::new(RefCell::new(Channel::default()));
        Port {
            tx: Rc::clone(&q),
            rx: q,
        }
    }

    /// Transmits a frame.
    pub fn send(&self, frame: Frame) {
        self.tx.borrow_mut().queue.push_back(frame);
    }

    /// An empty frame-data buffer for the next transmit, reusing capacity
    /// the peer recycled via [`Port::recycle_rx_data`] when one is
    /// available.
    pub fn take_tx_data(&self) -> Vec<u8> {
        self.tx.borrow_mut().spares.pop().unwrap_or_default()
    }

    /// Returns a consumed frame's data buffer to the sender of this port's
    /// receive direction, so its next gather reuses the capacity instead
    /// of allocating. Buffers beyond the channel's bounded spare stash are
    /// simply freed.
    pub fn recycle_rx_data(&self, mut data: Vec<u8>) {
        let mut ch = self.rx.borrow_mut();
        if ch.spares.len() < MAX_DATA_SPARES {
            data.clear();
            ch.spares.push(data);
        }
    }

    /// Receives the next frame, if any. With faults installed, the frame is
    /// first filtered through the active [`FaultPlan`] (delivery-time
    /// application preserves determinism regardless of when senders ran).
    pub fn recv(&self) -> Option<Frame> {
        self.rx.borrow_mut().deliver()
    }

    /// Number of frames currently deliverable (held-back delayed frames not
    /// yet due are excluded; frames that the plan may still drop are
    /// included).
    pub fn pending_rx(&self) -> usize {
        self.rx.borrow().pending()
    }

    /// Arms deterministic fault injection on this port's **receive**
    /// direction: every frame subsequently delivered through [`Port::recv`]
    /// is filtered through `plan`, seeded from the plan's own RNG stream.
    /// `clock` provides virtual time for delayed-frame release.
    ///
    /// Returns the [`FaultInjector`] handle for surgical per-frame
    /// operations and fault statistics. Installing a new plan replaces the
    /// previous one; frames the old plan still held back are re-queued for
    /// delivery.
    pub fn install_faults(&self, clock: Clock, plan: FaultPlan) -> FaultInjector {
        {
            let mut ch = self.rx.borrow_mut();
            let old = ch.faults.replace(FaultState::new(clock, plan));
            if let Some(old) = old {
                old.requeue_delayed(&mut ch.queue);
            }
        }
        FaultInjector::new(Rc::clone(&self.rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_ports_exchange_frames() {
        let (a, b) = link();
        a.send(Frame::new(vec![1, 2, 3]));
        assert_eq!(b.pending_rx(), 1);
        assert_eq!(b.recv().unwrap().data, vec![1, 2, 3]);
        assert!(b.recv().is_none());

        b.send(Frame::new(vec![4]));
        assert_eq!(a.recv().unwrap().data, vec![4]);
    }

    #[test]
    fn frames_stay_ordered() {
        let (a, b) = link();
        for i in 0..10u8 {
            a.send(Frame::new(vec![i]));
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap().data, vec![i]);
        }
    }

    #[test]
    fn loopback_receives_own_frames() {
        let p = Port::loopback();
        p.send(Frame::new(vec![9]));
        assert_eq!(p.recv().unwrap().data, vec![9]);
    }

    #[test]
    fn loss_injection_via_fault_injector() {
        let (a, b) = link();
        let faults = b.install_faults(Clock::new(), FaultPlan::none());
        a.send(Frame::new(vec![1]));
        a.send(Frame::new(vec![2]));
        assert!(faults.drop_pending(), "a frame was pending to drop");
        assert_eq!(b.recv().unwrap().data, vec![2]);
        assert_eq!(faults.stats().dropped, 1);
    }

    #[test]
    fn frame_len() {
        let f = Frame::new(vec![0; 42]);
        assert_eq!(f.len(), 42);
        assert!(!f.is_empty());
        assert!(Frame::new(vec![]).is_empty());
    }

    #[test]
    fn recycled_data_flows_back_to_the_sender() {
        let (a, b) = link();
        let mut buf = a.take_tx_data();
        assert!(buf.is_empty(), "fresh take is empty");
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        a.send(Frame::new(buf));
        let frame = b.recv().unwrap();
        assert_eq!(frame.data, vec![1, 2, 3]);
        // Receiver hands the capacity back; the sender's next take gets it.
        b.recycle_rx_data(frame.data);
        let reused = a.take_tx_data();
        assert!(reused.is_empty(), "recycled buffer is cleared");
        assert_eq!(reused.capacity(), cap, "capacity survived the round trip");
    }

    #[test]
    fn reinstalling_faults_requeues_delayed_frames() {
        let clock = Clock::new();
        let (a, b) = link();
        let faults = b.install_faults(clock.clone(), FaultPlan::none());
        a.send(Frame::new(vec![7]));
        assert!(faults.delay_pending(1_000_000));
        assert_eq!(b.pending_rx(), 0, "held back until due");
        // Replacing the plan releases the held frame back into the queue.
        b.install_faults(clock, FaultPlan::none());
        assert_eq!(b.pending_rx(), 1);
        assert_eq!(b.recv().unwrap().data, vec![7]);
    }
}
