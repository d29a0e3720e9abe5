//! A port-demultiplexing wire hub: many client endpoints on one server
//! wire.
//!
//! The [`link`] primitive models a point-to-point wire, which is exactly
//! right for one client talking to one server — but a flow-table listener
//! serves *thousands* of clients, and a shared point-to-point channel
//! would let one client's NIC consume frames addressed to another. The
//! [`PortHub`] stands in for the aggregation switch in front of the
//! server: it owns the far end of the server's wire (the *trunk*) and a
//! private [`link`] per attached client, and forwards frames between them
//! by the destination-port field both the UDP and TCP header layouts
//! carry ([`crate::rss::frame_ports`] — the same flow key RSS hashes).
//!
//! Frames arriving on the trunk for a port nobody attached (replies to a
//! raw-frame attack driver, stragglers after a detach) are dropped and
//! counted, mirroring a switch whose CAM has no entry. Raw frames can be
//! injected straight into the trunk with [`PortHub::inject`] — the hook
//! adversarial drivers use to synthesize SYN floods and hand-rolled
//! segments without paying for a full per-client stack.
//!
//! Routing state lives in a `BTreeMap`, so pump order is deterministic —
//! the same property every fault plan and golden fixture in this repo
//! relies on.

use std::collections::BTreeMap;

use crate::frame::{link, Frame, Port};
use crate::rss::frame_ports;

/// Counters for hub forwarding decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Frames forwarded trunk → endpoint.
    pub delivered: u64,
    /// Frames forwarded endpoint → trunk.
    pub uplinked: u64,
    /// Trunk frames dropped for lack of an attached endpoint.
    pub unrouted: u64,
}

/// A deterministic dst-port-routed hub between one trunk wire and many
/// client endpoints.
#[derive(Debug)]
pub struct PortHub {
    trunk: Port,
    endpoints: BTreeMap<u16, Port>,
    stats: HubStats,
}

impl PortHub {
    /// Creates a hub over `trunk` — the far end of the server's wire (the
    /// peer of the port its NIC was built on).
    pub fn new(trunk: Port) -> Self {
        PortHub {
            trunk,
            endpoints: BTreeMap::new(),
            stats: HubStats::default(),
        }
    }

    /// Attaches a client endpoint claiming `port`: frames whose destination
    /// port matches are forwarded to the returned [`Port`], and frames the
    /// client transmits on it are forwarded up the trunk. Re-attaching a
    /// port replaces the previous endpoint.
    pub fn attach(&mut self, port: u16) -> Port {
        let (client_side, hub_side) = link();
        self.endpoints.insert(port, hub_side);
        client_side
    }

    /// Detaches `port`; subsequent trunk frames for it count as unrouted.
    pub fn detach(&mut self, port: u16) {
        self.endpoints.remove(&port);
    }

    /// Number of attached endpoints.
    pub fn attached(&self) -> usize {
        self.endpoints.len()
    }

    /// Injects a raw frame, byte for byte, into the trunk toward the
    /// server. This is the attack-driver hook: hand-rolled SYNs and
    /// segments enter the wire here without a per-client stack behind them.
    pub fn inject(&self, bytes: Vec<u8>) {
        self.trunk.send(Frame::new(bytes));
    }

    /// Forwards pending frames in both directions (clients in ascending
    /// port order, then the trunk) and returns the updated stats. Call once
    /// per scheduling quantum, like a NIC pump.
    pub fn pump(&mut self) -> HubStats {
        for ep in self.endpoints.values() {
            while let Some(frame) = ep.recv() {
                self.trunk.send(frame);
                self.stats.uplinked += 1;
            }
        }
        while let Some(frame) = self.trunk.recv() {
            match frame_ports(&frame.data).and_then(|(_, dst)| self.endpoints.get(&dst)) {
                Some(ep) => {
                    ep.send(frame);
                    self.stats.delivered += 1;
                }
                None => {
                    self.stats.unrouted += 1;
                    // The hub is the consumer of a dropped frame: return
                    // its data buffer to the trunk sender's spare stash so
                    // unrouted traffic doesn't defeat the wire's zero-alloc
                    // gather recycling.
                    self.trunk.recycle_rx_data(frame.data);
                }
            }
        }
        self.stats
    }

    /// Forwarding counters so far.
    pub fn stats(&self) -> HubStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_to(src: u16, dst: u16, tag: u8) -> Vec<u8> {
        let mut f = vec![0u8; 48];
        f[34..36].copy_from_slice(&src.to_be_bytes());
        f[36..38].copy_from_slice(&dst.to_be_bytes());
        f[47] = tag;
        f
    }

    #[test]
    fn routes_trunk_frames_by_destination_port() {
        let (server_side, trunk) = link();
        let mut hub = PortHub::new(trunk);
        let a = hub.attach(1000);
        let b = hub.attach(2000);
        server_side.send(Frame::new(frame_to(9000, 2000, 2)));
        server_side.send(Frame::new(frame_to(9000, 1000, 1)));
        let stats = hub.pump();
        assert_eq!(stats.delivered, 2);
        assert_eq!(a.recv().unwrap().data[47], 1);
        assert_eq!(b.recv().unwrap().data[47], 2);
        assert!(a.recv().is_none());
    }

    #[test]
    fn uplinks_client_frames_to_the_trunk() {
        let (server_side, trunk) = link();
        let mut hub = PortHub::new(trunk);
        let a = hub.attach(1000);
        a.send(Frame::new(frame_to(1000, 9000, 7)));
        let stats = hub.pump();
        assert_eq!(stats.uplinked, 1);
        assert_eq!(server_side.recv().unwrap().data[47], 7);
    }

    #[test]
    fn unattached_ports_drop_and_count() {
        let (server_side, trunk) = link();
        let mut hub = PortHub::new(trunk);
        let a = hub.attach(1000);
        hub.detach(1000);
        server_side.send(Frame::new(frame_to(9000, 1000, 1)));
        // Runts without ports are unroutable too.
        server_side.send(Frame::new(vec![0u8; 8]));
        let stats = hub.pump();
        assert_eq!(stats.unrouted, 2);
        assert_eq!(stats.delivered, 0);
        assert!(a.recv().is_none());
    }

    #[test]
    fn injected_frames_reach_the_server_intact() {
        let (server_side, trunk) = link();
        let hub = PortHub::new(trunk);
        hub.inject(frame_to(5000, 9000, 3));
        let frame = server_side.recv().expect("injected frame forwarded");
        assert_eq!(frame.data, frame_to(5000, 9000, 3), "byte-identical");
        assert!(!frame.corrupted, "unmarked");
    }
}
