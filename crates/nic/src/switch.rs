//! A simulated top-of-rack switch connecting N hosts.
//!
//! [`SimSwitch::attach`] hands out one end of a [`link`]ed wire per host and
//! keeps the other; [`SimSwitch::pump`] store-and-forwards every pending
//! frame to the uplink named by the frame's destination host id — the last
//! byte of the stand-in destination MAC (byte 5, mirroring cf-net's header
//! layout; this crate reads the raw byte so it needs no dependency on the
//! header types above it).
//!
//! The switch is also where whole-node failure lives. [`SimSwitch::kill`]
//! makes a host fall off the network — frames to or from it are dropped and
//! counted — and [`SimSwitch::revive`] plugs it back in.
//! [`SimSwitch::partition`] blacks out one host pair while both stay
//! reachable from everyone else, the classic asymmetric-view scenario.
//! Per-link loss/delay/reorder remains the job of [`Port::install_faults`]
//! on either side of an uplink; the switch composes with it rather than
//! replacing it.

use cf_telemetry::{Counter, Telemetry};

use crate::frame::{link, Frame, Port};

/// Byte offset of the destination host id within a frame — the last byte of
/// the stand-in destination MAC. Must match cf-net's header layout.
const OFF_DST_HOST: usize = 5;

/// Per-switch forwarding statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames forwarded to a live destination uplink.
    pub forwarded: u64,
    /// Frames dropped because the source or destination host was killed.
    pub dropped_dead: u64,
    /// Frames dropped because the (source, destination) pair is partitioned.
    pub dropped_partitioned: u64,
    /// Frames addressed to a host id never attached.
    pub dropped_unknown: u64,
}

/// The switch's counter cells, the only place forwarding is counted;
/// [`SwitchStats`] is a snapshot of them.
#[derive(Debug, Default)]
struct SwitchCounters {
    forwarded: Counter,
    dropped_dead: Counter,
    dropped_partitioned: Counter,
    dropped_unknown: Counter,
}

struct Uplink {
    port: Port,
    alive: bool,
}

/// A store-and-forward switch over [`link`]ed ports, one per attached host.
pub struct SimSwitch {
    uplinks: Vec<Uplink>,
    /// Partitioned host pairs, stored with the smaller id first.
    partitions: Vec<(u8, u8)>,
    counters: SwitchCounters,
}

impl Default for SimSwitch {
    fn default() -> Self {
        Self::new()
    }
}

impl SimSwitch {
    /// An empty switch with no hosts attached.
    pub fn new() -> Self {
        SimSwitch {
            uplinks: Vec::new(),
            partitions: Vec::new(),
            counters: SwitchCounters::default(),
        }
    }

    /// Attaches a new host and returns `(host id, host-side port)`. Host ids
    /// are assigned densely from 0 in attach order; a frame whose
    /// destination-host byte equals the id is forwarded to this port.
    pub fn attach(&mut self) -> (u8, Port) {
        assert!(self.uplinks.len() < 256, "host ids are one byte");
        let id = self.uplinks.len() as u8;
        let (host_side, switch_side) = link();
        self.uplinks.push(Uplink {
            port: switch_side,
            alive: true,
        });
        (id, host_side)
    }

    /// Number of attached hosts.
    pub fn hosts(&self) -> usize {
        self.uplinks.len()
    }

    /// The switch-side port of `host`'s uplink — where to install wire
    /// fault plans for frames the switch receives *from* the host
    /// (host-side `install_faults` covers the other direction).
    pub fn uplink(&self, host: u8) -> &Port {
        &self.uplinks[host as usize].port
    }

    /// Unplugs `host`: frames to or from it are dropped until
    /// [`SimSwitch::revive`].
    pub fn kill(&mut self, host: u8) {
        self.uplinks[host as usize].alive = false;
    }

    /// Plugs `host` back in. Frames it enqueued while dead were already
    /// dropped by intervening [`SimSwitch::pump`]s; anything still queued
    /// on its uplink flows again.
    pub fn revive(&mut self, host: u8) {
        self.uplinks[host as usize].alive = true;
    }

    /// Whether `host` is currently plugged in.
    pub fn is_alive(&self, host: u8) -> bool {
        self.uplinks.get(host as usize).is_some_and(|u| u.alive)
    }

    /// Blacks out the `(a, b)` pair in both directions. Idempotent.
    pub fn partition(&mut self, a: u8, b: u8) {
        let pair = (a.min(b), a.max(b));
        if !self.partitions.contains(&pair) {
            self.partitions.push(pair);
        }
    }

    /// Heals the `(a, b)` partition if present.
    pub fn heal(&mut self, a: u8, b: u8) {
        let pair = (a.min(b), a.max(b));
        self.partitions.retain(|p| *p != pair);
    }

    /// Heals every partition.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    fn partitioned(&self, a: u8, b: u8) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Forwards every frame currently pending on any uplink. One pass is
    /// exhaustive for frames already enqueued; frames a host sends *in
    /// response* to a delivery need the caller's next pump, exactly like
    /// real store-and-forward latency.
    pub fn pump(&mut self) {
        for src in 0..self.uplinks.len() {
            while let Some(frame) = self.uplinks[src].port.recv() {
                self.route(src as u8, frame);
            }
        }
    }

    fn route(&mut self, src: u8, frame: Frame) {
        if !self.uplinks[src as usize].alive {
            self.counters.dropped_dead.inc();
            return;
        }
        let dst = frame.data.get(OFF_DST_HOST).copied().unwrap_or(0) as usize;
        let Some(uplink) = self.uplinks.get(dst) else {
            self.counters.dropped_unknown.inc();
            return;
        };
        if !uplink.alive {
            self.counters.dropped_dead.inc();
            return;
        }
        if self.partitioned(src, dst as u8) {
            self.counters.dropped_partitioned.inc();
            return;
        }
        uplink.port.send(frame);
        self.counters.forwarded.inc();
    }

    /// Forwarding statistics so far.
    pub fn stats(&self) -> SwitchStats {
        SwitchStats {
            forwarded: self.counters.forwarded.get(),
            dropped_dead: self.counters.dropped_dead.get(),
            dropped_partitioned: self.counters.dropped_partitioned.get(),
            dropped_unknown: self.counters.dropped_unknown.get(),
        }
    }

    /// Attaches `tele`: the switch's counter cells are adopted as
    /// `cluster.switch.*`, holding whatever they have counted so far.
    pub fn set_telemetry(&self, tele: &Telemetry) {
        let c = &self.counters;
        tele.adopt_counter("cluster.switch.forwarded", &c.forwarded);
        tele.adopt_counter("cluster.switch.dropped_dead", &c.dropped_dead);
        tele.adopt_counter("cluster.switch.dropped_partitioned", &c.dropped_partitioned);
        tele.adopt_counter("cluster.switch.dropped_unknown", &c.dropped_unknown);
    }
}

impl std::fmt::Debug for SimSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSwitch")
            .field("hosts", &self.uplinks.len())
            .field("partitions", &self.partitions)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_to(dst: u8, tag: u8) -> Frame {
        let mut data = vec![0u8; 48];
        data[OFF_DST_HOST] = dst;
        data[47] = tag;
        Frame::new(data)
    }

    #[test]
    fn forwards_on_dst_host_byte() {
        let mut sw = SimSwitch::new();
        let (a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        assert_eq!((a, b), (0, 1));

        pa.send(frame_to(1, 0xAA));
        pb.send(frame_to(0, 0xBB));
        sw.pump();
        assert_eq!(pb.recv().unwrap().data[47], 0xAA);
        assert_eq!(pa.recv().unwrap().data[47], 0xBB);
        assert_eq!(sw.stats().forwarded, 2);
    }

    #[test]
    fn killed_host_drops_both_directions() {
        let mut sw = SimSwitch::new();
        let (_a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        sw.kill(b);
        assert!(!sw.is_alive(b));

        pa.send(frame_to(1, 1)); // into the dead host
        pb.send(frame_to(0, 2)); // out of the dead host
        sw.pump();
        assert!(pa.recv().is_none());
        assert!(pb.recv().is_none());
        assert_eq!(sw.stats().dropped_dead, 2);

        sw.revive(b);
        pa.send(frame_to(1, 3));
        sw.pump();
        assert_eq!(pb.recv().unwrap().data[47], 3);
    }

    #[test]
    fn partition_blacks_out_one_pair_only() {
        let mut sw = SimSwitch::new();
        let (a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        let (_c, pc) = sw.attach();
        sw.partition(a, b);

        pa.send(frame_to(1, 1)); // a→b: partitioned
        pa.send(frame_to(2, 2)); // a→c: fine
        pb.send(frame_to(0, 3)); // b→a: partitioned (both directions)
        sw.pump();
        assert!(pb.recv().is_none());
        assert_eq!(pc.recv().unwrap().data[47], 2);
        assert!(pa.recv().is_none());
        assert_eq!(sw.stats().dropped_partitioned, 2);

        sw.heal(b, a); // order-insensitive
        pa.send(frame_to(1, 4));
        sw.pump();
        assert_eq!(pb.recv().unwrap().data[47], 4);
    }

    #[test]
    fn unknown_destination_is_counted_not_panicked() {
        let mut sw = SimSwitch::new();
        let (_a, pa) = sw.attach();
        pa.send(frame_to(9, 1));
        sw.pump();
        assert_eq!(sw.stats().dropped_unknown, 1);
    }

    #[test]
    fn double_partition_is_idempotent() {
        let mut sw = SimSwitch::new();
        let (a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        sw.partition(a, b);
        sw.partition(b, a); // same pair, either order: no second entry
        assert!(sw.partitioned(a, b));

        // One heal fully restores the pair — a duplicate entry would
        // leave the link black-holed after the first heal.
        sw.heal(a, b);
        assert!(!sw.partitioned(a, b));
        pa.send(frame_to(1, 7));
        sw.pump();
        assert_eq!(pb.recv().unwrap().data[47], 7);
    }

    #[test]
    fn heal_of_absent_pair_is_a_no_op() {
        let mut sw = SimSwitch::new();
        let (a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        let (_c, _pc) = sw.attach();
        sw.partition(a, b);
        sw.heal(0, 2); // never partitioned: nothing to remove
        sw.heal(5, 6); // hosts that don't even exist
        assert!(sw.partitioned(a, b), "unrelated heals leave the cut alone");

        pa.send(frame_to(1, 1));
        sw.pump();
        assert!(pb.recv().is_none());
        assert_eq!(sw.stats().dropped_partitioned, 1);
    }

    #[test]
    fn dropped_partitioned_counts_each_blocked_frame_exactly_once() {
        let mut sw = SimSwitch::new();
        let (a, pa) = sw.attach();
        let (b, pb) = sw.attach();
        let (_c, pc) = sw.attach();
        sw.partition(a, b);
        sw.partition(a, b); // idempotent: must not double-count drops

        pa.send(frame_to(1, 1)); // blocked
        pa.send(frame_to(1, 2)); // blocked
        pb.send(frame_to(0, 3)); // blocked (reverse direction)
        pa.send(frame_to(2, 4)); // delivered: c is not in the cut
        sw.pump();
        assert_eq!(sw.stats().dropped_partitioned, 3);
        assert_eq!(sw.stats().forwarded, 1);
        assert_eq!(pc.recv().unwrap().data[47], 4);

        sw.heal(a, b);
        pa.send(frame_to(1, 5));
        sw.pump();
        assert_eq!(
            sw.stats().dropped_partitioned,
            3,
            "healed traffic no longer counts as partitioned"
        );
        assert_eq!(pb.recv().unwrap().data[47], 5);
    }

    #[test]
    fn runt_frames_route_to_host_zero() {
        let mut sw = SimSwitch::new();
        let (_a, pa) = sw.attach();
        let (_b, _pb) = sw.attach();
        pa.send(Frame::new(vec![1, 2, 3]));
        sw.pump();
        assert_eq!(pa.recv().unwrap().data, vec![1, 2, 3]);
    }
}
