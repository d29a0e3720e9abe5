//! Shared by the UDP, `TcpStack` and flow-listener tests.

#![allow(dead_code)] // each test binary uses its own subset

/// Frame lengths on either side of the FCS kernels' hand-overs (the body
/// starts at byte 22): too short to fold, exactly one 64-byte fold group,
/// two groups, four groups plus a one-byte tail, a standard-MTU frame, the
/// `get_large` reply, and the largest frame the NIC takes.
pub const FCS_FRAME_LENS: [usize; 7] = [60, 86, 150, 279, 1500, 4274, cf_nic::MAX_FRAME];

/// Error bursts `(first_bit, width)` placed where the FCS computation
/// changes hands in a frame of `len` bytes: the first byte, either side of
/// and inside the masked field (bytes 18..22), the 64-byte groups of the
/// fold kernel (measured from byte 22, where the body starts, and from
/// byte 0), and the tail the portable kernel finishes. CRC32 detects every
/// burst of at most 32 bits, so a receiver must drop each one.
pub fn fcs_boundary_bursts(len: usize) -> Vec<(usize, usize)> {
    let offsets = [
        0,
        17,
        18,
        19,
        20,
        21,
        22,
        63,
        64,
        22 + 63,
        22 + 64,
        127,
        128,
        len - 17,
        len - 1,
    ];
    offsets
        .iter()
        .flat_map(|&byte| {
            [
                (8 * byte, 1),
                (8 * byte + 7, 2),
                (8 * byte + 3, 13),
                (8 * byte, 32),
            ]
        })
        .filter(|(first_bit, width)| first_bit + width <= 8 * len)
        .collect()
}

/// A header-only TCP segment as raw bytes, for drivers that play a peer
/// without a stack behind it (unsealed: seal it with `Frame::seal` or send
/// it through `PortHub::inject`).
pub fn raw_segment(src: u16, dst: u16, seq: u32, ack: u32, flags: u8) -> Vec<u8> {
    cf_net::tcp::build_header(src, dst, seq, ack, flags).to_vec()
}

/// Seals `bytes` the way a transmitting NIC would and puts them on `wire`.
pub fn send_raw(wire: &cf_nic::Port, bytes: Vec<u8>) {
    let mut frame = cf_nic::Frame::new(bytes);
    frame.seal();
    wire.send(frame);
}

/// A `TcpStack` on port 2000 facing a raw wire end the test plays the peer
/// on.
pub fn stack_and_raw_peer() -> (cf_net::TcpStack, cf_nic::Port, cf_sim::Sim) {
    let sim = cf_sim::Sim::new(cf_sim::MachineProfile::tiny_for_tests());
    let (raw, wire) = cf_nic::link();
    let stack = cf_net::TcpStack::new(
        sim.clone(),
        wire,
        2000,
        cornflakes_core::SerializationConfig::hybrid(),
    );
    (stack, raw, sim)
}
