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
//! Every gathered frame carries a CRC32 frame check sequence at
//! [`FCS_OFFSET`], written by the NIC at transmit time ([`Frame::seal`],
//! modeling checksum offload — no CPU charge) and verified by the receiving
//! stack ([`fcs_ok`]), so wire corruption is detected and counted rather
//! than silently consumed. [`frame_fcs`] is one pass over the frame with the
//! field masked out of its first 64-byte block: on AVX-512 machines a
//! single call into the widest of the private `fcs` module's CRC kernels
//! for any frame of 64 bytes or more; elsewhere, and for shorter frames,
//! three calls (the head, four zero bytes, the body).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cf_sim::Clock;

use crate::fault::{FaultInjector, FaultPlan, FaultState};
use crate::fcs;

/// Byte offset of the CRC32 frame check sequence within a frame.
///
/// Both the UDP and TCP header layouts (48-byte L2/L3/L4 stubs) leave bytes
/// 18..22 zero, so the FCS lives there without disturbing any port, length,
/// sequence, or application-metadata offset.
pub const FCS_OFFSET: usize = 18;

/// CRC32 (IEEE 802.3, reflected) of `data` with the FCS field — bytes
/// [`FCS_OFFSET`]`..+4` — read as zero, so sealing does not change the
/// value it stores.
///
/// Defined for every length: input that ends inside the field has the field
/// bytes it does contain masked, and input that ends before it is a plain
/// CRC32 of the whole slice.
pub fn frame_fcs(data: &[u8]) -> u32 {
    !fcs::update_masked(!0, data, FCS_FIELD)
}

/// The FCS field as a mask over a frame's first 64 bytes (bit `i`: byte `i`).
const FCS_FIELD: u64 = 0xF << FCS_OFFSET;

/// Verifies the FCS written by [`Frame::seal`]. Frames too short to carry
/// one (control stubs, runts) trivially pass — the stacks' length checks
/// handle those.
pub fn fcs_ok(data: &[u8]) -> bool {
    match data.get(FCS_OFFSET..).and_then(<[u8]>::first_chunk::<4>) {
        Some(stored) => u32::from_le_bytes(*stored) == frame_fcs(data),
        None => true,
    }
}

/// A gathered on-wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame bytes, headers included.
    pub data: Vec<u8>,
    /// Set on copies created by wire duplication, so a copy is never
    /// duplicated again (a duplicate probability of 1.0 must terminate).
    pub(crate) wire_copy: bool,
}

impl Frame {
    /// Creates a frame from bytes.
    pub fn new(data: Vec<u8>) -> Self {
        Frame {
            data,
            wire_copy: false,
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

    /// Writes the CRC32 frame check sequence into the FCS field — done by
    /// the NIC when the frame is gathered (checksum offload: NIC-side work,
    /// never charged to the virtual clock). No-op on frames too short to
    /// carry an FCS.
    pub fn seal(&mut self) {
        if self.data.len() < FCS_OFFSET + 4 {
            return;
        }
        let fcs = frame_fcs(&self.data);
        self.data[FCS_OFFSET..FCS_OFFSET + 4].copy_from_slice(&fcs.to_le_bytes());
    }

    /// Whether the stored FCS matches the frame contents.
    pub fn fcs_ok(&self) -> bool {
        fcs_ok(&self.data)
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
    fn seal_and_verify_fcs() {
        let mut f = Frame::new(vec![0xAB; 64]);
        f.seal();
        assert!(f.fcs_ok());
        // A single flipped bit anywhere must be detected.
        f.data[40] ^= 0x10;
        assert!(!f.fcs_ok());
        f.data[40] ^= 0x10;
        assert!(f.fcs_ok());
        // Corruption inside the FCS field itself is also detected.
        f.data[FCS_OFFSET] ^= 1;
        assert!(!f.fcs_ok());
    }

    #[test]
    fn frame_fcs_matches_masked_bytewise_at_every_length() {
        use crate::fcs::tests::update_bytewise;
        let bytes: Vec<u8> = (0..crate::MAX_FRAME + 128)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect();
        // The definition: a bytewise walk over the input with whatever it
        // holds of bytes 18..22 read as zero — including inputs that end
        // before or inside the field. The field is masked inside the first
        // 64-byte block, so the frame starts at every offset into a block.
        for start in 0..64 {
            let frame = &bytes[start..start + crate::MAX_FRAME + 64];
            let mut reference = !0u32;
            for len in 0..=frame.len() {
                assert_eq!(
                    frame_fcs(&frame[..len]),
                    !reference,
                    "len {len} at offset {start}"
                );
                if let Some(&b) = frame.get(len) {
                    let in_field = (FCS_OFFSET..FCS_OFFSET + 4).contains(&len);
                    reference = update_bytewise(reference, &[if in_field { 0 } else { b }]);
                }
            }
        }
        assert_eq!(frame_fcs(&[]), 0);
        assert_eq!(frame_fcs(b"123456789"), 0xCBF4_3926);
        // Present field bytes are masked, so their contents never matter.
        for len in FCS_OFFSET..=FCS_OFFSET + 5 {
            let mut data = vec![0xFF; len];
            let before = frame_fcs(&data);
            data.iter_mut()
                .skip(FCS_OFFSET)
                .take(4)
                .for_each(|b| *b = 0x5A);
            assert_eq!(frame_fcs(&data), before, "len {len}");
        }
    }

    #[test]
    fn short_frames_trivially_pass_fcs() {
        let f = Frame::new(vec![1, 2, 3]);
        assert!(f.fcs_ok());
        let mut f = Frame::new(vec![0; FCS_OFFSET + 3]);
        f.seal(); // no-op
        assert!(f.fcs_ok());
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
