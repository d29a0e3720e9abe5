//! Deterministic fault injection for the simulated wire.
//!
//! A real microsecond-scale datapath must keep refcounts, retransmission
//! queues, and arena lifetimes correct under loss, duplication, reordering,
//! corruption, and delay — not just on the happy path. This module replaces
//! the old ad-hoc queue poking (`Port::pop_rx` / `Port::push_rx`) with a
//! first-class, **deterministic** fault layer:
//!
//! - A [`FaultPlan`] describes per-direction probabilities for each fault
//!   class plus a delay range, and carries the seed of its private
//!   [`SplitMix64`] stream, so a whole chaotic run replays bit-for-bit from
//!   one `u64`.
//! - [`crate::Port::install_faults`] arms a port's receive direction with a
//!   plan; faults are applied at **delivery time** (when the receiver polls)
//!   so the outcome depends only on the frame sequence and the seed, never
//!   on scheduling.
//! - The returned [`FaultInjector`] offers surgical single-frame operations
//!   ([`FaultInjector::drop_pending`] and friends) for tests that need one
//!   precisely placed fault rather than a probabilistic storm, plus
//!   [`FaultStats`] and optional `fault.*` telemetry counters.
//!
//! Fault application charges **no virtual time**: the wire misbehaving is
//! not CPU work, and an all-zero plan leaves delivery byte-identical to an
//! unarmed port (zero overhead when disabled).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cf_sim::rng::SplitMix64;
use cf_sim::Clock;
use cf_telemetry::{Counter, Telemetry};

use crate::frame::{Channel, Frame};

/// A deterministic per-direction fault schedule.
///
/// Probabilities are independent per frame, evaluated in the order drop →
/// reorder → duplicate → corrupt → delay. All-zero probabilities
/// ([`FaultPlan::is_quiet`]) short-circuit to plain FIFO delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's private RNG stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is swapped behind its successor.
    pub reorder: f64,
    /// Probability a frame is delivered twice (copy appended to the queue;
    /// copies are never duplicated again, so 1.0 still terminates).
    pub duplicate: f64,
    /// Probability one random bit of the frame is flipped (the frame then
    /// arrives marked corrupted).
    pub corrupt: f64,
    /// Probability a frame is held back for a random delay.
    pub delay: f64,
    /// Inclusive range of virtual-ns delays drawn for delayed frames.
    pub delay_ns: (u64, u64),
}

impl FaultPlan {
    /// The lossless plan: every probability zero.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            reorder: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_ns: (0, 0),
        }
    }

    /// A lossless plan carrying `seed` — the base for builder-style setup.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Whether every fault probability is zero.
    pub fn is_quiet(&self) -> bool {
        self.drop <= 0.0
            && self.reorder <= 0.0
            && self.duplicate <= 0.0
            && self.corrupt <= 0.0
            && self.delay <= 0.0
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the bit-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Sets the delay probability and the delay range in virtual ns.
    pub fn with_delay(mut self, p: f64, delay_ns: (u64, u64)) -> Self {
        self.delay = p;
        self.delay_ns = delay_ns;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counts of fault events applied on one channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames delivered intact (or corrupted-then-delivered).
    pub delivered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames swapped behind their successor.
    pub reordered: u64,
    /// Frames duplicated onto the queue.
    pub duplicated: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Frames held back by a delay.
    pub delayed: u64,
}

/// The channel's counter cells, the only place fault events are counted;
/// [`FaultStats`] is a snapshot of them.
#[derive(Debug, Default)]
struct FaultCounters {
    delivered: Counter,
    dropped: Counter,
    reordered: Counter,
    duplicated: Counter,
    corrupted: Counter,
    delayed: Counter,
}

/// Fault state attached to one wire channel (one direction).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    clock: Clock,
    /// Held-back frames: (release-at virtual ns, frame). Released ahead of
    /// the queue once due, without facing the plan a second time.
    delayed: Vec<(u64, Frame)>,
    counters: FaultCounters,
}

impl FaultState {
    pub(crate) fn new(clock: Clock, plan: FaultPlan) -> Self {
        FaultState {
            rng: SplitMix64::new(plan.seed),
            plan,
            clock,
            delayed: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Delayed frames already due at the current virtual time.
    pub(crate) fn due_count(&self) -> usize {
        let now = self.clock.now();
        self.delayed.iter().filter(|(t, _)| *t <= now).count()
    }

    /// Returns all held-back frames to `queue` (used when a plan is
    /// replaced, so no frame is stranded).
    pub(crate) fn requeue_delayed(self, queue: &mut VecDeque<Frame>) {
        for (_, frame) in self.delayed {
            queue.push_back(frame);
        }
    }

    /// Flips bits `first_bit..first_bit + burst` of `frame` (which must
    /// contain them), marks it corrupted and counts one corrupted frame.
    /// The mark is the receiving NIC's CRC verdict: the injector is the one
    /// party that knows a frame was damaged, so no CRC is computed to find
    /// out again.
    fn corrupt(&mut self, frame: &mut Frame, first_bit: usize, burst: usize) {
        for bit in first_bit..first_bit + burst {
            frame.data[bit / 8] ^= 1 << (bit % 8);
        }
        frame.corrupted = true;
        self.counters.corrupted.inc();
    }

    /// Delivers the next frame through the plan, or `None` if every pending
    /// frame was dropped/held back.
    pub(crate) fn deliver(&mut self, queue: &mut VecDeque<Frame>) -> Option<Frame> {
        // Due delayed frames deliver first (they entered the wire earlier)
        // and are not re-rolled: each frame faces the plan once.
        let now = self.clock.now();
        if let Some(i) = self.delayed.iter().position(|(t, _)| *t <= now) {
            self.counters.delivered.inc();
            return Some(self.delayed.remove(i).1);
        }
        if self.plan.is_quiet() {
            let f = queue.pop_front();
            if f.is_some() {
                self.counters.delivered.inc();
            }
            return f;
        }
        // At most one reorder per delivery, so a reorder probability near
        // 1.0 cannot shuffle forever.
        let mut reordered = false;
        loop {
            let mut frame = queue.pop_front()?;
            if self.rng.next_bool(self.plan.drop) {
                self.counters.dropped.inc();
                continue;
            }
            if !reordered && !queue.is_empty() && self.rng.next_bool(self.plan.reorder) {
                self.counters.reordered.inc();
                queue.insert(1, frame);
                reordered = true;
                continue;
            }
            if !frame.wire_copy && self.rng.next_bool(self.plan.duplicate) {
                self.counters.duplicated.inc();
                let mut copy = frame.clone();
                copy.wire_copy = true;
                queue.push_back(copy);
            }
            if self.rng.next_bool(self.plan.corrupt) && !frame.is_empty() {
                let bit = self.rng.next_bounded(frame.data.len() as u64 * 8);
                self.corrupt(&mut frame, bit as usize, 1);
            }
            if self.rng.next_bool(self.plan.delay) {
                let (lo, hi) = self.plan.delay_ns;
                let d = if hi > lo {
                    self.rng.next_range(lo, hi)
                } else {
                    lo
                };
                self.delayed.push((now + d, frame));
                self.counters.delayed.inc();
                continue;
            }
            self.counters.delivered.inc();
            return Some(frame);
        }
    }
}

/// Handle to a fault-armed receive channel.
///
/// Cloneable; all clones observe the same channel. Offers the surgical
/// per-frame operations that replace the old manual queue poking, the
/// accumulated [`FaultStats`], and optional telemetry registration.
#[derive(Clone)]
pub struct FaultInjector {
    channel: Rc<RefCell<Channel>>,
}

impl FaultInjector {
    pub(crate) fn new(channel: Rc<RefCell<Channel>>) -> Self {
        FaultInjector { channel }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut FaultState, &mut VecDeque<Frame>) -> R) -> R {
        let mut ch = self.channel.borrow_mut();
        let ch = &mut *ch;
        let state = ch
            .faults
            .as_mut()
            .expect("FaultInjector outlived its fault state");
        f(state, &mut ch.queue)
    }

    /// Counts of fault events applied so far on this channel.
    pub fn stats(&self) -> FaultStats {
        self.with_state(|s, _| FaultStats {
            delivered: s.counters.delivered.get(),
            dropped: s.counters.dropped.get(),
            reordered: s.counters.reordered.get(),
            duplicated: s.counters.duplicated.get(),
            corrupted: s.counters.corrupted.get(),
            delayed: s.counters.delayed.get(),
        })
    }

    /// Replaces the probabilistic plan (restarting its RNG from the new
    /// plan's seed); held-back frames and statistics are kept.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.with_state(move |s, _| {
            s.rng = SplitMix64::new(plan.seed);
            s.plan = plan;
        });
    }

    /// Frames currently queued for delivery (due delayed frames included).
    pub fn pending(&self) -> usize {
        let ch = self.channel.borrow();
        let due = ch.faults.as_ref().map_or(0, |f| f.due_count());
        ch.queue.len() + due
    }

    /// Silently drops the next pending frame; returns whether one was
    /// dropped. The deterministic replacement for the old `pop_rx` hook.
    pub fn drop_pending(&self) -> bool {
        self.with_state(|s, q| {
            let hit = q.pop_front().is_some();
            if hit {
                s.counters.dropped.inc();
            }
            hit
        })
    }

    /// Appends a copy of the next pending frame to the back of the queue
    /// (wire duplication); returns whether a frame was duplicated.
    pub fn duplicate_pending(&self) -> bool {
        self.with_state(|s, q| {
            let Some(mut copy) = q.front().cloned() else {
                return false;
            };
            copy.wire_copy = true;
            q.push_back(copy);
            s.counters.duplicated.inc();
            true
        })
    }

    /// Flips one RNG-chosen bit in the next pending frame; returns whether
    /// a frame was corrupted.
    pub fn corrupt_pending(&self) -> bool {
        self.with_state(|s, q| {
            let Some(front) = q.front_mut() else {
                return false;
            };
            if front.is_empty() {
                return false;
            }
            let bit = s.rng.next_bounded(front.data.len() as u64 * 8);
            s.corrupt(front, bit as usize, 1);
            true
        })
    }

    /// Flips `burst` consecutive bits of the next pending frame, starting
    /// at bit `first_bit` (bit `8 * i + k` is bit `k`, least significant
    /// first, of byte `i`) — a wire error burst placed exactly. Returns
    /// whether a frame was corrupted; a burst that is empty or does not fit
    /// inside the frame flips nothing.
    pub fn corrupt_pending_at(&self, first_bit: usize, burst: usize) -> bool {
        self.with_state(|s, q| {
            let Some(front) = q.front_mut() else {
                return false;
            };
            let fits = first_bit
                .checked_add(burst)
                .is_some_and(|end| end <= front.len() * 8);
            if burst == 0 || !fits {
                return false;
            }
            s.corrupt(front, first_bit, burst);
            true
        })
    }

    /// Holds the next pending frame back for `delay_ns` virtual ns; returns
    /// whether a frame was delayed.
    pub fn delay_pending(&self, delay_ns: u64) -> bool {
        self.with_state(|s, q| {
            let Some(frame) = q.pop_front() else {
                return false;
            };
            let release = s.clock.now() + delay_ns;
            s.delayed.push((release, frame));
            s.counters.delayed.inc();
            true
        })
    }

    /// Swaps the two frames at the head of the queue; returns whether a
    /// swap happened.
    pub fn reorder_pending(&self) -> bool {
        self.with_state(|s, q| {
            if q.len() < 2 {
                return false;
            }
            q.swap(0, 1);
            s.counters.reordered.inc();
            true
        })
    }

    /// Attaches `tele`: this channel's fault counter cells are adopted as
    /// `fault.<prefix>.*`, holding whatever they have counted so far.
    pub fn set_telemetry(&self, tele: &Telemetry, prefix: &str) {
        self.with_state(|s, _| {
            for (name, cell) in [
                ("drops", &s.counters.dropped),
                ("reorders", &s.counters.reordered),
                ("duplicates", &s.counters.duplicated),
                ("corruptions", &s.counters.corrupted),
                ("delays", &s.counters.delayed),
            ] {
                tele.adopt_counter(&format!("fault.{prefix}.{name}"), cell);
            }
        });
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("stats", &self.stats())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::link;

    fn flood(n: usize) -> (crate::Port, FaultInjector, Clock) {
        let clock = Clock::new();
        let (a, b) = link();
        for i in 0..n {
            a.send(Frame::new(vec![i as u8; 32]));
        }
        let inj = b.install_faults(clock.clone(), FaultPlan::none());
        (b, inj, clock)
    }

    fn drain(port: &crate::Port) -> Vec<Frame> {
        std::iter::from_fn(|| port.recv()).collect()
    }

    #[test]
    fn quiet_plan_is_transparent_fifo() {
        let (b, inj, _clock) = flood(5);
        let got = drain(&b);
        assert_eq!(got.len(), 5);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.data[0], i as u8);
        }
        assert_eq!(inj.stats().delivered, 5);
        assert_eq!(inj.stats().dropped, 0);
    }

    #[test]
    fn drop_all_plan_loses_everything() {
        let (b, inj, _clock) = flood(8);
        inj.set_plan(FaultPlan::seeded(1).with_drop(1.0));
        assert!(drain(&b).is_empty());
        assert_eq!(inj.stats().dropped, 8);
    }

    #[test]
    fn duplicate_plan_delivers_copies() {
        let (b, inj, _clock) = flood(1);
        inj.set_plan(FaultPlan::seeded(2).with_duplicate(1.0));
        let got = drain(&b);
        assert!(got.len() >= 2, "the frame and at least one copy");
        assert!(got.iter().all(|f| f.data == got[0].data));
        assert!(inj.stats().duplicated >= 1);
    }

    #[test]
    fn corrupt_plan_flips_exactly_one_bit() {
        let (b, inj, _clock) = flood(1);
        inj.set_plan(FaultPlan::seeded(3).with_corrupt(1.0));
        let got = drain(&b);
        assert_eq!(got.len(), 1);
        let diff: u32 = got[0]
            .data
            .iter()
            .zip([0u8; 32].iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(inj.stats().corrupted, 1);
    }

    #[test]
    fn placed_burst_flips_exactly_the_named_bits() {
        let (b, inj, _clock) = flood(1);
        // Bits 6..19: the top two of byte 0, all of byte 1, the low three
        // of byte 2.
        assert!(inj.corrupt_pending_at(6, 13));
        // Bursts that are empty or run off the end flip nothing.
        assert!(!inj.corrupt_pending_at(0, 0));
        assert!(!inj.corrupt_pending_at(32 * 8 - 1, 2));
        assert!(!inj.corrupt_pending_at(usize::MAX, 2));
        let got = drain(&b);
        assert_eq!(got[0].data[..4], [0xC0, 0xFF, 0x07, 0x00]);
        assert!(got[0].data[4..].iter().all(|&b| b == 0));
        assert_eq!(inj.stats().corrupted, 1);
        assert!(!inj.corrupt_pending_at(0, 1), "nothing pending");
    }

    #[test]
    fn delayed_frames_release_when_due() {
        let (b, inj, clock) = flood(1);
        inj.set_plan(FaultPlan::seeded(4).with_delay(1.0, (500, 500)));
        assert!(b.recv().is_none(), "held back");
        assert_eq!(inj.stats().delayed, 1);
        clock.advance(499);
        assert!(b.recv().is_none(), "not yet due");
        clock.advance(1);
        assert!(b.recv().is_some(), "released at deadline");
    }

    #[test]
    fn reorder_plan_swaps_neighbors() {
        let clock = Clock::new();
        let (a, b) = link();
        let inj = b.install_faults(clock, FaultPlan::seeded(5).with_reorder(1.0));
        a.send(Frame::new(vec![1]));
        a.send(Frame::new(vec![2]));
        let first = b.recv().unwrap();
        assert_eq!(first.data, vec![2], "second frame overtook the first");
        assert_eq!(b.recv().unwrap().data, vec![1]);
        assert!(inj.stats().reordered >= 1);
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let clock = Clock::new();
            let (a, b) = link();
            let plan = FaultPlan::seeded(seed)
                .with_drop(0.3)
                .with_duplicate(0.2)
                .with_corrupt(0.2)
                .with_reorder(0.2);
            b.install_faults(clock, plan);
            for i in 0..50u8 {
                a.send(Frame::new(vec![i; 16]));
            }
            drain(&b).into_iter().map(|f| f.data).collect()
        };
        assert_eq!(run(77), run(77), "same seed, same chaos");
        assert_ne!(run(77), run(78), "different seed, different chaos");
    }

    #[test]
    fn surgical_ops_cover_all_fault_classes() {
        let (b, inj, clock) = flood(3);
        assert!(inj.reorder_pending());
        assert!(inj.duplicate_pending());
        assert!(inj.corrupt_pending());
        assert!(inj.delay_pending(100));
        assert!(inj.drop_pending());
        clock.advance(100);
        let s = inj.stats();
        assert_eq!(
            (s.reordered, s.duplicated, s.corrupted, s.delayed, s.dropped),
            (1, 1, 1, 1, 1)
        );
        // 3 original + 1 duplicate - 1 dropped = 3 still deliverable.
        assert_eq!(drain(&b).len(), 3);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        use cf_telemetry::Telemetry;
        let (b, inj, _clock) = flood(2);
        let tele = Telemetry::new(Clock::new());
        inj.set_telemetry(&tele, "b_rx");
        assert!(inj.drop_pending());
        assert_eq!(tele.counter_value("fault.b_rx.drops"), 1);
        assert_eq!(drain(&b).len(), 1);
    }
}
