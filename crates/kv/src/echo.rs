//! The echo server (paper §2.2, Figure 2; §6.2.3, Figure 9).
//!
//! Clients send a serialized message (a list of byte fields); the server
//! deserializes, reserializes, and sends it back. Variants cover the
//! paper's Figure 1/2 spectrum:
//!
//! - [`EchoKind::NoSerialization`] — L3 forwarding of the raw frame.
//! - [`EchoKind::ZeroCopyRaw`] — parse the object header, then post
//!   scatter-gather entries pointing into the receive buffer with **no**
//!   memory-safety bookkeeping (the unattainable upper bound for
//!   scatter-gather serialization).
//! - [`EchoKind::OneCopy`] — copy each field directly into the DMA buffer.
//! - [`EchoKind::TwoCopy`] — copy fields into a staging buffer, then into
//!   the DMA buffer.
//! - [`EchoKind::Cornflakes`] — full hybrid Cornflakes (deserialize →
//!   `CFBytes::new` per field → combined serialize-and-send).
//! - [`EchoKind::Protobuf`] / [`EchoKind::FlatBuffers`] /
//!   [`EchoKind::CapnProto`] — the baseline libraries.
//!
//! All variants exchange the *Cornflakes* wire format for the manual paths
//! and each library's own format for the library paths, so every variant
//! parses and regenerates a real message; [`client::request`] builds the
//! request each variant parses.

use cf_net::{FrameMeta, Packet, UdpStack, HEADER_BYTES};
use cf_sim::cost::Category;
use cornflakes_core::obj::write_full_header;
use cornflakes_core::CornflakesObj;

use crate::codec::{Codecs, KvCodec};
use crate::msg_type;
use crate::msgs::GetMsg;

/// Echo-server serialization variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EchoKind {
    /// Forward the frame (no serialization).
    NoSerialization,
    /// Scatter-gather without safety bookkeeping.
    ZeroCopyRaw,
    /// One copy into the DMA buffer.
    OneCopy,
    /// Copy to staging, then to the DMA buffer.
    TwoCopy,
    /// Hybrid Cornflakes.
    Cornflakes,
    /// Protobuf-style baseline.
    Protobuf,
    /// FlatBuffers-style baseline.
    FlatBuffers,
    /// Cap'n Proto-style baseline.
    CapnProto,
}

impl EchoKind {
    /// Display name matching Figure 2's legend.
    pub fn name(self) -> &'static str {
        match self {
            EchoKind::NoSerialization => "No serialization",
            EchoKind::ZeroCopyRaw => "Zero-copy (raw)",
            EchoKind::OneCopy => "One-copy",
            EchoKind::TwoCopy => "Two-copy",
            EchoKind::Cornflakes => "Cornflakes",
            EchoKind::Protobuf => "Protobuf",
            EchoKind::FlatBuffers => "FlatBuffers",
            EchoKind::CapnProto => "Cap'n Proto",
        }
    }

    /// The variants of Figure 2, in its legend order.
    pub fn figure2() -> [EchoKind; 7] {
        [
            EchoKind::NoSerialization,
            EchoKind::ZeroCopyRaw,
            EchoKind::OneCopy,
            EchoKind::TwoCopy,
            EchoKind::Protobuf,
            EchoKind::FlatBuffers,
            EchoKind::CapnProto,
        ]
    }
}

/// The echo server.
#[derive(Debug)]
pub struct EchoServer {
    /// The server datapath.
    pub stack: UdpStack,
    /// Serialization variant.
    pub kind: EchoKind,
    codecs: Codecs,
}

impl EchoServer {
    /// Creates an echo server.
    pub fn new(stack: UdpStack, kind: EchoKind) -> Self {
        EchoServer {
            stack,
            kind,
            codecs: Codecs::default(),
        }
    }

    /// Processes all pending requests; returns how many were handled.
    pub fn poll(&mut self) -> usize {
        let mut n = 0;
        while let Some(pkt) = self.stack.recv_packet() {
            self.handle(pkt);
            n += 1;
        }
        n
    }

    fn reply_meta(pkt: &Packet) -> FrameMeta {
        FrameMeta {
            msg_type: msg_type::ECHO | msg_type::RESPONSE,
            flags: 0,
            req_id: pkt.hdr.meta.req_id,
        }
    }

    /// Handles one echo request.
    pub fn handle(&mut self, pkt: Packet) {
        let (stack, codecs) = (&mut self.stack, &mut self.codecs);
        match self.kind {
            EchoKind::NoSerialization => {
                let _ = self.stack.forward_frame(pkt);
            }
            EchoKind::ZeroCopyRaw => self.echo_zero_copy_raw(pkt),
            EchoKind::OneCopy => self.echo_n_copy(pkt, 1),
            EchoKind::TwoCopy => self.echo_n_copy(pkt, 2),
            EchoKind::Cornflakes => Self::echo_with(stack, &mut codecs.cornflakes, pkt),
            EchoKind::Protobuf => Self::echo_with(stack, &mut codecs.protobuf, pkt),
            EchoKind::FlatBuffers => Self::echo_with(stack, &mut codecs.flatbuffers, pkt),
            EchoKind::CapnProto => Self::echo_with(stack, &mut codecs.capnproto, pkt),
        }
    }

    /// Raw scatter-gather: deserialize the Cornflakes message, then post
    /// the field views directly as scatter entries — *without* the
    /// recover_ptr/refcount bookkeeping Cornflakes itself performs. The
    /// field views are `RcBuf` slices of the receive buffer, so the post is
    /// functionally safe; what is omitted is the *charged* safety cost.
    fn echo_zero_copy_raw(&mut self, pkt: Packet) {
        let hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let codec = &mut self.codecs.cornflakes;
        // Send the deserialized views verbatim (they are already zero-copy
        // references into the rx buffer).
        if let Ok(req) = codec.decode(self.stack.ctx(), &pkt.payload) {
            let _ = codec.send(&mut self.stack, hdr, req);
        }
    }

    /// Manual 1- or 2-copy echo of the Cornflakes message fields.
    fn echo_n_copy(&mut self, pkt: Packet, copies: usize) {
        let hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        let Ok(req) = GetMsg::deserialize(self.stack.ctx(), &pkt.payload) else {
            return;
        };
        let sim = self.stack.sim().clone();
        // Staging pass (the "first copy" of the two-copy variant).
        let mut staged: Vec<Vec<u8>> = Vec::with_capacity(req.vals.len());
        if copies >= 2 {
            for v in req.vals.iter() {
                let s = v.as_slice();
                let mut buf = vec![0u8; s.len()];
                sim.charge_memcpy(
                    Category::SerializeCopy,
                    s.as_ptr() as u64,
                    buf.as_ptr() as u64,
                    s.len(),
                );
                buf.copy_from_slice(s);
                staged.push(buf);
            }
        }
        // Final copy into the DMA buffer, behind a regenerated header
        // (Cornflakes wire layout with every field in the data region right
        // after the header, in order).
        let reply = GetMsg {
            id: req.id,
            vals: req.vals,
            ..GetMsg::default()
        };
        let fp = reply.footprint();
        let Ok(mut tx) = self.stack.alloc_tx(fp.len()) else {
            return;
        };
        let mut header = vec![0u8; fp.header()];
        write_full_header(&reply, &mut header);
        sim.charge(
            Category::HeaderWrite,
            sim.costs().header_fixed + reply.vals.len() as f64 * sim.costs().per_field,
        );
        tx.write_at(HEADER_BYTES, &header);
        let mut cursor = HEADER_BYTES + header.len();
        for (i, v) in reply.vals.iter().enumerate() {
            let src: &[u8] = if copies >= 2 {
                &staged[i]
            } else {
                v.as_slice()
            };
            sim.charge_memcpy(
                Category::SerializeCopy,
                src.as_ptr() as u64,
                tx.addr() + cursor as u64,
                src.len(),
            );
            tx.write_at(cursor, src);
            cursor += src.len();
        }
        let payload_len = cursor - HEADER_BYTES;
        let _ = self.stack.send_built(hdr, tx, payload_len);
    }

    /// Serializer echo: deserialize, then reserialize every field the way
    /// the library does it (for Cornflakes, re-running the hybrid heuristic
    /// per field) and send. The server keeps one codec per library between
    /// messages, as the KV server does.
    fn echo_with<C: KvCodec>(stack: &mut UdpStack, codec: &mut C, pkt: Packet) {
        let hdr = pkt.hdr.reply(Self::reply_meta(&pkt));
        if let Ok(req) = codec.decode(stack.ctx(), &pkt.payload) {
            let _ = codec.echo(stack, hdr, req);
        }
    }
}

/// The echo client's side of the wire.
pub mod client {
    use cf_baselines::capnlite::CapnGetM;
    use cf_baselines::flatlite::FlatGetM;
    use cf_baselines::protolite::PGetM;
    use cf_net::UdpStack;
    use cornflakes_core::obj::serialize_to_vec;
    use cornflakes_core::CFBytes;

    use super::EchoKind;
    use crate::msgs::GetMsg;

    /// The request payload a `kind` server echoes: `fields` as a list of
    /// byte fields, in the library's own wire format for the library
    /// variants and in Cornflakes's for the rest.
    pub fn request(kind: EchoKind, stack: &UdpStack, fields: &[Vec<u8>]) -> Vec<u8> {
        let sim = stack.sim().clone();
        match kind {
            EchoKind::Protobuf => {
                let mut m = PGetM::new();
                for f in fields {
                    m.add_val(&sim, f);
                }
                m.encode(&sim, 0x10_0000)
            }
            EchoKind::FlatBuffers => {
                let refs: Vec<&[u8]> = fields.iter().map(|f| f.as_slice()).collect();
                FlatGetM::encode(&sim, None, &[], &refs)
            }
            EchoKind::CapnProto => {
                let mut m = CapnGetM::new();
                for f in fields {
                    m.add_val(&sim, f);
                }
                CapnGetM::frame(&m.finish(&sim))
            }
            _ => {
                let mut m = GetMsg::new();
                let ctx = stack.ctx();
                for f in fields {
                    m.get_mut_vals().append(CFBytes::new(ctx, f));
                }
                serialize_to_vec(&m)
            }
        }
    }
}
