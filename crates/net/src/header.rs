//! Packet headers for the simulated datapath.
//!
//! Frames carry a fixed 48-byte header: 42 bytes standing in for
//! Ethernet + IPv4 + UDP (ports and length are filled in at their real UDP
//! offsets; other L2/L3 bytes are zero in the simulation), followed by a
//! 6-byte application header (message type, flags, request id) like the one
//! the paper's key-value applications prepend.
//!
//! Multi-host topologies (the `cf-cluster` switch) address hosts through
//! the last byte of each stand-in MAC: byte 5 is the destination host id,
//! byte 11 the source host id. Both default to zero, so single-host
//! traffic — and every golden fixture — is byte-identical to before the
//! cluster layer existed.
//!
//! No frame check sequence is written: the CRC check is NIC hardware work,
//! so a frame corrupted on the wire arrives marked by the NIC
//! ([`cf_nic::Nic::recv_into_on`]) and the receive paths drop it, counted
//! in the `net.*.rx_corrupt_drops` metrics.

use crate::udp::NetError;

/// Total frame header size in bytes (L2 + L3 + L4 + app).
pub const HEADER_BYTES: usize = 48;

/// Byte offset of the destination host id (last byte of the stand-in
/// destination MAC). Zero addresses "the peer" on a point-to-point link.
const OFF_DST_HOST: usize = 5;
/// Byte offset of the source host id (last byte of the stand-in source
/// MAC).
const OFF_SRC_HOST: usize = 11;
/// Byte offset of the per-key value version (8 bytes, little-endian),
/// carved out of the otherwise-zero L3 stub. Version 0 means "unversioned"
/// and encodes as all zeros, so single-host traffic — and every golden
/// fixture predating versioning — stays byte-identical.
const OFF_VERSION: usize = 24;
/// Byte offset of the UDP source port within the header.
const OFF_SRC_PORT: usize = 34;
/// Byte offset of the UDP destination port.
const OFF_DST_PORT: usize = 36;
/// Byte offset of the UDP length field.
const OFF_UDP_LEN: usize = 38;
/// Byte offset of the application message type.
const OFF_MSG_TYPE: usize = 42;
/// Byte offset of the application flags.
const OFF_FLAGS: usize = 43;
/// Byte offset of the application request id.
const OFF_REQ_ID: usize = 44;

/// Application-level framing metadata supplied on every send.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Application message type (request/response kind).
    pub msg_type: u8,
    /// Application flags.
    pub flags: u8,
    /// Request identifier, echoed in responses.
    pub req_id: u32,
}

/// A parsed frame header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketHeader {
    /// Source host id (0 on point-to-point links).
    pub src_host: u8,
    /// Destination host id; a [`cf_nic`]-style switch forwards on this.
    pub dst_host: u8,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Application metadata.
    pub meta: FrameMeta,
    /// Per-key value version carried on cluster GET replies, PUT acks, and
    /// `REPL_PUT` frames. 0 (the default) means unversioned and encodes as
    /// zero bytes, leaving pre-versioning wire traffic unchanged.
    pub version: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

impl PacketHeader {
    /// Encodes the header into `out[..HEADER_BYTES]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`HEADER_BYTES`].
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= HEADER_BYTES);
        out[..HEADER_BYTES].fill(0);
        out[OFF_DST_HOST] = self.dst_host;
        out[OFF_SRC_HOST] = self.src_host;
        out[OFF_VERSION..OFF_VERSION + 8].copy_from_slice(&self.version.to_le_bytes());
        out[OFF_SRC_PORT..OFF_SRC_PORT + 2].copy_from_slice(&self.src_port.to_be_bytes());
        out[OFF_DST_PORT..OFF_DST_PORT + 2].copy_from_slice(&self.dst_port.to_be_bytes());
        let udp_len = (self.payload_len + 8 + 6) as u16;
        out[OFF_UDP_LEN..OFF_UDP_LEN + 2].copy_from_slice(&udp_len.to_be_bytes());
        out[OFF_MSG_TYPE] = self.meta.msg_type;
        out[OFF_FLAGS] = self.meta.flags;
        out[OFF_REQ_ID..OFF_REQ_ID + 4].copy_from_slice(&self.meta.req_id.to_le_bytes());
    }

    /// Decodes a header from the start of `frame`.
    pub fn decode(frame: &[u8]) -> Result<PacketHeader, NetError> {
        if frame.len() < HEADER_BYTES {
            return Err(NetError::RuntFrame { len: frame.len() });
        }
        let src_port = u16::from_be_bytes([frame[OFF_SRC_PORT], frame[OFF_SRC_PORT + 1]]);
        let dst_port = u16::from_be_bytes([frame[OFF_DST_PORT], frame[OFF_DST_PORT + 1]]);
        let meta = FrameMeta {
            msg_type: frame[OFF_MSG_TYPE],
            flags: frame[OFF_FLAGS],
            req_id: u32::from_le_bytes(std::array::from_fn(|i| frame[OFF_REQ_ID + i])),
        };
        Ok(PacketHeader {
            src_host: frame[OFF_SRC_HOST],
            dst_host: frame[OFF_DST_HOST],
            src_port,
            dst_port,
            meta,
            version: u64::from_le_bytes(std::array::from_fn(|i| frame[OFF_VERSION + i])),
            payload_len: (frame.len() - HEADER_BYTES) as u32,
        })
    }

    /// A header with source and destination (hosts and ports) swapped, for
    /// replies.
    pub fn reply(&self, meta: FrameMeta) -> PacketHeader {
        PacketHeader {
            src_host: self.dst_host,
            dst_host: self.src_host,
            src_port: self.dst_port,
            dst_port: self.src_port,
            meta,
            version: 0,
            payload_len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let h = PacketHeader {
            src_host: 3,
            dst_host: 7,
            src_port: 4791,
            dst_port: 53,
            meta: FrameMeta {
                msg_type: 3,
                flags: 0x80,
                req_id: 0xDEADBEEF,
            },
            version: 0x0123_4567_89AB_CDEF,
            payload_len: 0,
        };
        let mut frame = vec![0u8; HEADER_BYTES + 100];
        h.encode(&mut frame);
        let d = PacketHeader::decode(&frame).unwrap();
        assert_eq!(d.src_port, 4791);
        assert_eq!(d.dst_port, 53);
        assert_eq!((d.src_host, d.dst_host), (3, 7));
        assert_eq!(d.meta, h.meta);
        assert_eq!(d.version, 0x0123_4567_89AB_CDEF);
        assert_eq!(d.payload_len, 100);
    }

    #[test]
    fn zero_hosts_leave_header_bytes_untouched() {
        // Host ids default to zero, so a host-less header encodes exactly
        // the bytes it always did — the golden fixtures' guarantee.
        let h = PacketHeader {
            src_port: 4000,
            dst_port: 9000,
            meta: FrameMeta {
                msg_type: 1,
                flags: 0,
                req_id: 42,
            },
            payload_len: 0,
            ..PacketHeader::default()
        };
        let mut frame = vec![0u8; HEADER_BYTES];
        h.encode(&mut frame);
        assert!(frame[..34].iter().all(|&b| b == 0), "L2/L3 stub stays zero");
        assert_eq!(PacketHeader::decode(&frame).unwrap().dst_host, 0);
    }

    #[test]
    fn runt_frame_rejected() {
        let r = PacketHeader::decode(&[0u8; 10]);
        assert!(matches!(r, Err(NetError::RuntFrame { len: 10 })));
    }

    #[test]
    fn reply_swaps_ports_and_hosts() {
        let h = PacketHeader {
            src_host: 4,
            dst_host: 9,
            src_port: 1111,
            dst_port: 2222,
            meta: FrameMeta::default(),
            version: 17,
            payload_len: 5,
        };
        let r = h.reply(FrameMeta {
            msg_type: 9,
            flags: 0,
            req_id: 42,
        });
        assert_eq!(r.src_port, 2222);
        assert_eq!(r.dst_port, 1111);
        assert_eq!((r.src_host, r.dst_host), (9, 4));
        assert_eq!(r.meta.req_id, 42);
        assert_eq!(r.version, 0, "replies start unversioned");
    }

    #[test]
    fn zero_version_keeps_l3_stub_all_zero() {
        // The version field lives in the L2/L3 stub; the golden fixtures'
        // byte-identity guarantee requires version 0 to encode as silence.
        let h = PacketHeader {
            src_port: 4000,
            dst_port: 9000,
            meta: FrameMeta {
                msg_type: 1,
                flags: 0,
                req_id: 42,
            },
            ..PacketHeader::default()
        };
        let mut frame = vec![0u8; HEADER_BYTES];
        h.encode(&mut frame);
        assert!(frame[..34].iter().all(|&b| b == 0));
        let versioned = PacketHeader { version: 3, ..h };
        versioned.encode(&mut frame);
        assert_eq!(frame[OFF_VERSION], 3);
        assert_eq!(PacketHeader::decode(&frame).unwrap().version, 3);
    }
}
