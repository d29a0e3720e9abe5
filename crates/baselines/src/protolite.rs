//! A Protobuf-style serializer (tag/wire-type + varint TLV encoding).
//!
//! Mirrors the Rust `protobuf` crate's data-movement profile as the paper
//! uses it (§6.1.3): message structs own their field data, so
//!
//! - *setting* a bytes field copies the application bytes into the struct
//!   (cold copy + heap allocation),
//! - *encoding* writes tags/lengths and copies each field into the output —
//!   the paper's setup encodes directly into DMA-safe memory (warm copy),
//! - *decoding* parses TLV and copies every field out into an owned vector
//!   (protobuf deserialization is not zero-copy).

use std::fmt;

use cf_sim::cost::Category;
use cf_sim::Sim;

use crate::varint::{decode_varint, encode_varint, varint_len, MAX_VARINT};

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// A varint was truncated or overlong.
    BadVarint,
    /// A length-delimited field ran past the end of the buffer.
    Truncated,
    /// An unsupported wire type was encountered.
    BadWireType(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadVarint => write!(f, "bad varint"),
            ProtoError::Truncated => write!(f, "truncated field"),
            ProtoError::BadWireType(t) => write!(f, "unsupported wire type {t}"),
        }
    }
}

impl std::error::Error for ProtoError {}

const WT_VARINT: u8 = 0;
const WT_LEN: u8 = 2;

fn tag(field: u64, wt: u8) -> u64 {
    (field << 3) | wt as u64
}

/// A field's header: its tag, then a varint (the value or the length).
fn tag_and_varint(tag: u64, v: u64) -> ([u8; 2 * MAX_VARINT], usize) {
    let mut buf = [0u8; 2 * MAX_VARINT];
    let n = encode_varint(tag, &mut buf);
    let n = n + encode_varint(v, &mut buf[n..]);
    (buf, n)
}

/// Appends `data` to `list` in a spare buffer if there is one.
fn push_field(list: &mut Vec<Vec<u8>>, spare: &mut Vec<Vec<u8>>, data: &[u8]) {
    let mut buf = spare.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(data);
    list.push(buf);
}

/// The Protobuf-encoded multi-get message (`GetM` in the paper's schema):
/// `int32 id = 1; repeated bytes keys = 2; repeated bytes vals = 3;`.
///
/// A message is reusable: [`PGetM::clear`] keeps its emptied field buffers,
/// and [`PGetM::decode_into`] / the `add_*` setters refill them, so a warm
/// message sets, encodes and decodes without touching the host allocator.
/// The modelled costs are those of the allocating library all the same.
#[derive(Clone, Debug, Default)]
pub struct PGetM {
    /// Request identifier.
    pub id: Option<u32>,
    /// Queried keys (owned, as protobuf structs own their data).
    pub keys: Vec<Vec<u8>>,
    /// Returned values (owned).
    pub vals: Vec<Vec<u8>>,
    /// Emptied field buffers, refilled before any new one is allocated.
    spare: Vec<Vec<u8>>,
}

impl PartialEq for PGetM {
    fn eq(&self, other: &Self) -> bool {
        (self.id, &self.keys, &self.vals) == (other.id, &other.keys, &other.vals)
    }
}

impl Eq for PGetM {}

impl PGetM {
    /// Creates an empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the message, keeping its field buffers for reuse.
    pub fn clear(&mut self) {
        self.id = None;
        self.spare.append(&mut self.keys);
        self.spare.append(&mut self.vals);
    }

    /// Sets a key, copying the bytes into the struct (charged cold copy +
    /// allocation, like `protobuf`'s owned `Vec<u8>` fields).
    pub fn add_key(&mut self, sim: &Sim, data: &[u8]) {
        Self::charge_field_copy(sim, data);
        push_field(&mut self.keys, &mut self.spare, data);
    }

    /// Sets a value, copying the bytes into the struct.
    pub fn add_val(&mut self, sim: &Sim, data: &[u8]) {
        Self::charge_field_copy(sim, data);
        push_field(&mut self.vals, &mut self.spare, data);
    }

    fn charge_field_copy(sim: &Sim, data: &[u8]) {
        let costs = sim.costs();
        sim.charge(Category::Alloc, costs.heap_alloc);
        // The destination is a fresh heap vector; model it with a synthetic
        // post-heap address so the copy source's residency dominates.
        sim.charge_memcpy(
            Category::SerializeCopy,
            data.as_ptr() as u64,
            data.as_ptr() as u64 ^ 0x5000_0000_0000,
            data.len(),
        );
    }

    /// Exact encoded size.
    pub fn encoded_len(&self) -> usize {
        let mut n = 0;
        if let Some(id) = self.id {
            n += varint_len(tag(1, WT_VARINT)) + varint_len(id as u64);
        }
        for k in &self.keys {
            n += varint_len(tag(2, WT_LEN)) + varint_len(k.len() as u64) + k.len();
        }
        for v in &self.vals {
            n += varint_len(tag(3, WT_LEN)) + varint_len(v.len() as u64) + v.len();
        }
        n
    }

    /// Encodes into a fresh vector; see [`PGetM::encode_into`].
    pub fn encode(&self, sim: &Sim, dma_addr: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(sim, dma_addr, |bytes| out.extend_from_slice(bytes));
        out
    }

    /// Encodes the message as consecutive calls of `put`, which together
    /// write [`PGetM::encoded_len`] bytes, charging the library's output
    /// allocation, varint compute and one (warm: the struct's copies are
    /// cache-resident) copy per field toward the DMA buffer at `dma_addr`.
    pub fn encode_into(&self, sim: &Sim, dma_addr: u64, mut put: impl FnMut(&[u8])) {
        let costs = sim.costs();
        sim.charge(Category::Alloc, costs.heap_alloc);
        let mut written = 0usize;
        if let Some(id) = self.id {
            let (buf, n) = tag_and_varint(tag(1, WT_VARINT), id as u64);
            put(&buf[..n]);
            written += n;
            sim.charge(Category::HeaderWrite, costs.per_field);
        }
        let mut header_bytes = written;
        for (field, list) in [(2u64, &self.keys), (3u64, &self.vals)] {
            for item in list {
                let (buf, n) = tag_and_varint(tag(field, WT_LEN), item.len() as u64);
                put(&buf[..n]);
                written += n;
                header_bytes += n;
                sim.charge(Category::HeaderWrite, costs.lib_field_overhead(item.len()));
                sim.charge_memcpy(
                    Category::SerializeCopy,
                    item.as_ptr() as u64,
                    dma_addr + written as u64,
                    item.len(),
                );
                put(item);
                written += item.len();
            }
        }
        sim.charge(
            Category::HeaderWrite,
            header_bytes as f64 * costs.varint_per_byte,
        );
    }

    /// Decodes from `buf` into a new message; see [`PGetM::decode_into`].
    pub fn decode(sim: &Sim, buf: &[u8]) -> Result<PGetM, ProtoError> {
        let mut m = PGetM::new();
        m.decode_into(sim, buf).map(|()| m)
    }

    /// Replaces this message's contents with those decoded from `buf`,
    /// copying every field out into owned vectors (charged cold copies and
    /// allocations — the receive buffer was just DMA'd). On error the
    /// message is left empty.
    pub fn decode_into(&mut self, sim: &Sim, buf: &[u8]) -> Result<(), ProtoError> {
        self.clear();
        self.parse(sim, buf).inspect_err(|_| self.clear())
    }

    fn parse(&mut self, sim: &Sim, buf: &[u8]) -> Result<(), ProtoError> {
        let costs = sim.costs();
        let mut off = 0usize;
        let mut header_bytes = 0usize;
        while off < buf.len() {
            let (t, n) = decode_varint(&buf[off..]).ok_or(ProtoError::BadVarint)?;
            off += n;
            header_bytes += n;
            let field = t >> 3;
            let wt = (t & 7) as u8;
            match wt {
                WT_VARINT => {
                    let (v, n) = decode_varint(&buf[off..]).ok_or(ProtoError::BadVarint)?;
                    off += n;
                    header_bytes += n;
                    if field == 1 {
                        self.id = Some(v as u32);
                    }
                }
                WT_LEN => {
                    let (len, n) = decode_varint(&buf[off..]).ok_or(ProtoError::BadVarint)?;
                    off += n;
                    header_bytes += n;
                    let len = len as usize;
                    let end = off.checked_add(len).ok_or(ProtoError::Truncated)?;
                    if end > buf.len() {
                        return Err(ProtoError::Truncated);
                    }
                    let data = &buf[off..end];
                    sim.charge(Category::Deserialize, costs.lib_field_overhead(len));
                    sim.charge(Category::Alloc, costs.heap_alloc);
                    sim.charge_memcpy(
                        Category::Deserialize,
                        buf.as_ptr() as u64 + off as u64,
                        data.as_ptr() as u64 ^ 0x6000_0000_0000,
                        len,
                    );
                    match field {
                        2 => {
                            // Keys are strings: protobuf validates UTF-8
                            // eagerly at parse time.
                            sim.charge(Category::Deserialize, len as f64 * costs.utf8_per_byte);
                            push_field(&mut self.keys, &mut self.spare, data);
                        }
                        3 => push_field(&mut self.vals, &mut self.spare, data),
                        _ => {}
                    }
                    off = end;
                }
                other => return Err(ProtoError::BadWireType(other)),
            }
        }
        sim.charge(
            Category::Deserialize,
            header_bytes as f64 * costs.varint_per_byte,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::MachineProfile;

    fn sim() -> Sim {
        Sim::new(MachineProfile::tiny_for_tests())
    }

    #[test]
    fn roundtrip() {
        let s = sim();
        let mut m = PGetM::new();
        m.id = Some(42);
        m.add_key(&s, b"key-a");
        m.add_key(&s, b"key-b");
        m.add_val(&s, &[7u8; 2000]);
        let wire = m.encode(&s, 0x1000);
        assert_eq!(wire.len(), m.encoded_len());
        let d = PGetM::decode(&s, &wire).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn empty_roundtrip() {
        let s = sim();
        let m = PGetM::new();
        let wire = m.encode(&s, 0);
        assert!(wire.is_empty());
        assert_eq!(PGetM::decode(&s, &wire).unwrap(), m);
    }

    #[test]
    fn unknown_fields_skipped() {
        let s = sim();
        // Field 9, wire type 2, length 3.
        let mut wire = Vec::new();
        let (header, n) = tag_and_varint(tag(9, WT_LEN), 3);
        wire.extend_from_slice(&header[..n]);
        wire.extend_from_slice(b"xyz");
        let d = PGetM::decode(&s, &wire).unwrap();
        assert_eq!(d, PGetM::new());
    }

    #[test]
    fn truncated_field_rejected() {
        let s = sim();
        let mut m = PGetM::new();
        m.add_val(&s, b"0123456789");
        let wire = m.encode(&s, 0);
        for cut in 1..wire.len() {
            let r = PGetM::decode(&s, &wire[..cut]);
            assert!(r.is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_wire_type_rejected() {
        let s = sim();
        let wire = [tag(1, 5) as u8]; // wire type 5 unsupported
        assert_eq!(PGetM::decode(&s, &wire), Err(ProtoError::BadWireType(5)));
    }

    #[test]
    fn hostile_length_rejected() {
        let s = sim();
        let mut wire = Vec::new();
        let (header, n) = tag_and_varint(tag(3, WT_LEN), u64::MAX);
        wire.extend_from_slice(&header[..n]);
        assert!(PGetM::decode(&s, &wire).is_err());
    }

    #[test]
    fn costs_charged_on_set_and_encode() {
        let s = sim();
        let t0 = s.now();
        let mut m = PGetM::new();
        m.add_val(&s, &[0u8; 4096]);
        let after_set = s.now();
        assert!(after_set > t0, "set charges the struct copy");
        m.encode(&s, 0x8_0000);
        assert!(s.now() > after_set, "encode charges the DMA copy");
    }
}
