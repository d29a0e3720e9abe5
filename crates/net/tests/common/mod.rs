//! Shared by the UDP, `TcpStack` and flow-listener tests.

#![allow(dead_code)] // each test binary uses its own subset

/// Frame lengths the burst tests corrupt: the 60-byte minimum, three short
/// frames on and off 64-byte multiples of the payload (which starts at byte
/// 22), a standard-MTU frame, the `get_large` reply, and the largest frame
/// the NIC takes.
pub const BURST_FRAME_LENS: [usize; 7] = [60, 86, 150, 279, 1500, 4274, cf_nic::MAX_FRAME];

/// Error bursts `(first_bit, width)`, 1 to 32 bits wide, spread over a
/// frame of `len` bytes: the first byte, the header either side of and
/// inside the old CRC field (bytes 18..22, zero on the wire), the payload's
/// first byte (22) and offsets 63 to 128 across it, and the frame's last
/// bytes. The fault injector marks every frame it corrupts, so a receiver
/// must drop each one.
pub fn error_bursts(len: usize) -> Vec<(usize, usize)> {
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
/// without a stack behind it.
pub fn raw_segment(src: u16, dst: u16, seq: u32, ack: u32, flags: u8) -> Vec<u8> {
    cf_net::tcp::build_header(src, dst, seq, ack, flags).to_vec()
}

/// Puts `bytes` on `wire` as one frame.
pub fn send_raw(wire: &cf_nic::Port, bytes: Vec<u8>) {
    let frame = cf_nic::Frame::new(bytes);
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
