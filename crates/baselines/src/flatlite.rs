//! A FlatBuffers-style serializer: vtable-indexed tables in one contiguous
//! buffer, zero-copy reads.
//!
//! Data-movement profile (as the paper uses the `flatbuffers` crate,
//! §6.1.3): the builder copies every field into a contiguous heap buffer
//! (cold copy); the finished buffer is later copied once into DMA-safe
//! memory by the send path (warm copy, charged by the application when it
//! stages the buffer). Reads are zero-copy accessors over the buffer with
//! bounds checks; string fields are UTF-8-validated at deserialization time.
//!
//! The encoding is a simplification of FlatBuffers that keeps the pieces
//! that matter for cost: a root offset, a vtable indicating present fields,
//! a table of u32 offsets, length-prefixed byte vectors, and vectors of
//! offsets for repeated fields. (Real FlatBuffers builds back-to-front;
//! building forward changes no data-movement costs.)

use std::fmt;

use cf_sim::cost::Category;
use cf_sim::Sim;

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatError {
    /// Buffer too short for a structural read.
    Truncated,
    /// An offset pointed outside the buffer.
    BadOffset,
    /// The vtable was malformed.
    BadVtable,
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::Truncated => write!(f, "truncated flatbuffer"),
            FlatError::BadOffset => write!(f, "offset out of bounds"),
            FlatError::BadVtable => write!(f, "malformed vtable"),
        }
    }
}

impl std::error::Error for FlatError {}

fn get_u32(buf: &[u8], off: usize) -> Result<u32, FlatError> {
    buf.get(off..off + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
        .ok_or(FlatError::Truncated)
}

fn get_u16(buf: &[u8], off: usize) -> Result<u16, FlatError> {
    buf.get(off..off + 2)
        .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
        .ok_or(FlatError::Truncated)
}

/// Builder/encoder for the FlatBuffers multi-get message. A builder keeps
/// its buffer and offset scratch between messages, so a warm one encodes
/// without touching the host allocator; the modelled costs are the
/// library's fresh-builder ones all the same.
#[derive(Clone, Debug, Default)]
pub struct FlatGetM {
    buf: Vec<u8>,
    offs: Vec<u32>,
}

/// vtable slot indices for the GetM table.
const SLOT_ID: usize = 0;
const SLOT_KEYS: usize = 1;
const SLOT_VALS: usize = 2;
const NUM_SLOTS: usize = 3;

impl FlatGetM {
    /// Encodes a GetM message with a fresh builder; see [`FlatGetM::build`].
    pub fn encode(sim: &Sim, id: Option<u32>, keys: &[&[u8]], vals: &[&[u8]]) -> Vec<u8> {
        let mut builder = FlatGetM::default();
        builder.build(sim, id, keys, vals);
        builder.buf
    }

    /// Encodes a GetM message into this builder's buffer, replacing what
    /// it held, charging builder copies (cold) and table/vtable writes.
    pub fn build(&mut self, sim: &Sim, id: Option<u32>, keys: &[&[u8]], vals: &[&[u8]]) -> &[u8] {
        let costs = sim.costs();
        sim.charge(Category::Alloc, costs.heap_alloc);
        let buf = &mut self.buf;
        buf.clear();
        // Room for the whole message before any copy is charged at its
        // destination: per field its length, padding and offset entry;
        // then the root offset, two vector lengths, vtable and table.
        buf.reserve(keys.iter().chain(vals).map(|f| f.len() + 11).sum::<usize>() + 38);
        buf.extend_from_slice(&[0; 4]); // root offset placeholder

        let write_byte_vec = |buf: &mut Vec<u8>, data: &[u8]| -> u32 {
            let off = buf.len() as u32;
            sim.charge(Category::HeaderWrite, costs.lib_field_overhead(data.len()));
            buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
            sim.charge_memcpy(
                Category::SerializeCopy,
                data.as_ptr() as u64,
                buf.as_ptr() as u64 + buf.len() as u64,
                data.len(),
            );
            buf.extend_from_slice(data);
            buf.resize(buf.len().next_multiple_of(4), 0);
            off
        };

        let write_offset_vec = |buf: &mut Vec<u8>, offs: &[u32]| -> u32 {
            if offs.is_empty() {
                return 0;
            }
            let off = buf.len() as u32;
            buf.extend_from_slice(&(offs.len() as u32).to_le_bytes());
            for &o in offs {
                buf.extend_from_slice(&o.to_le_bytes());
            }
            sim.charge(
                Category::HeaderWrite,
                (4 + 4 * offs.len()) as f64 * costs.header_write_per_byte,
            );
            off
        };

        self.offs.clear();
        for field in keys.iter().chain(vals) {
            self.offs.push(write_byte_vec(buf, field));
        }
        let (key_offs, val_offs) = self.offs.split_at(keys.len());
        let keys_vec = write_offset_vec(buf, key_offs);
        let vals_vec = write_offset_vec(buf, val_offs);

        // vtable: [u16 vtable_len][u16 table_len][u16 slot offsets...].
        // Table: [u32 vtable_off][u32 per present field...].
        let mut slots = [0u16; NUM_SLOTS];
        let mut table_len = 4u16; // vtable_off
        if id.is_some() {
            slots[SLOT_ID] = table_len;
            table_len += 4;
        }
        if keys_vec != 0 {
            slots[SLOT_KEYS] = table_len;
            table_len += 4;
        }
        if vals_vec != 0 {
            slots[SLOT_VALS] = table_len;
            table_len += 4;
        }
        let vtable_off = buf.len() as u32;
        let vtable_len = (4 + 2 * NUM_SLOTS) as u16;
        buf.extend_from_slice(&vtable_len.to_le_bytes());
        buf.extend_from_slice(&table_len.to_le_bytes());
        for s in slots {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let table_off = buf.len() as u32;
        buf.extend_from_slice(&vtable_off.to_le_bytes());
        if let Some(id) = id {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        if keys_vec != 0 {
            buf.extend_from_slice(&keys_vec.to_le_bytes());
        }
        if vals_vec != 0 {
            buf.extend_from_slice(&vals_vec.to_le_bytes());
        }
        sim.charge(
            Category::HeaderWrite,
            costs.header_fixed
                + NUM_SLOTS as f64 * costs.per_field
                + (vtable_len as usize + table_len as usize) as f64 * costs.header_write_per_byte,
        );
        buf[0..4].copy_from_slice(&table_off.to_le_bytes());
        buf
    }
}

/// Zero-copy read view over an encoded [`FlatGetM`].
pub struct FlatGetMView<'a> {
    buf: &'a [u8],
    table: usize,
    vtable: usize,
}

impl<'a> FlatGetMView<'a> {
    /// Parses the root table, charging deserialization costs. Keys (string
    /// fields) are UTF-8 validated eagerly, as the baseline libraries do.
    pub fn parse(sim: &Sim, buf: &'a [u8]) -> Result<Self, FlatError> {
        let costs = sim.costs();
        sim.charge(Category::Deserialize, costs.header_fixed * 0.5);
        let table = get_u32(buf, 0)? as usize;
        let vtable = get_u32(buf, table)? as usize;
        let vtable_len = get_u16(buf, vtable)? as usize;
        if vtable_len < 4 || vtable + vtable_len > buf.len() {
            return Err(FlatError::BadVtable);
        }
        sim.charge_read(
            Category::Deserialize,
            buf.as_ptr() as u64 + table as u64,
            16,
        );
        let view = FlatGetMView { buf, table, vtable };
        // Per-element access overhead for the values (vector navigation).
        for i in 0..view.vals_len()? {
            let v = view.val(i)?;
            sim.charge(Category::Deserialize, costs.lib_field_overhead(v.len()));
        }
        // Eager UTF-8 validation of the string fields (keys).
        for i in 0..view.keys_len()? {
            let k = view.key(i)?;
            sim.charge(Category::Deserialize, costs.lib_field_overhead(k.len()));
            sim.charge(Category::Deserialize, k.len() as f64 * costs.utf8_per_byte);
            if std::str::from_utf8(k).is_err() {
                // Invalid UTF-8 keys are tolerated in the simulation: real
                // FlatBuffers verifiers reject them, but the cost profile is
                // identical and the KV workloads only use UTF-8 keys.
            }
        }
        Ok(view)
    }

    fn slot(&self, idx: usize) -> Result<Option<usize>, FlatError> {
        let off = get_u16(self.buf, self.vtable + 4 + 2 * idx)? as usize;
        if off == 0 {
            return Ok(None);
        }
        Ok(Some(self.table + off))
    }

    /// The `id` field, if present.
    pub fn id(&self) -> Result<Option<u32>, FlatError> {
        match self.slot(SLOT_ID)? {
            None => Ok(None),
            Some(pos) => Ok(Some(get_u32(self.buf, pos)?)),
        }
    }

    fn vec_field(&self, slot: usize) -> Result<Option<usize>, FlatError> {
        match self.slot(slot)? {
            None => Ok(None),
            Some(pos) => {
                let off = get_u32(self.buf, pos)? as usize;
                if off >= self.buf.len() {
                    return Err(FlatError::BadOffset);
                }
                Ok(Some(off))
            }
        }
    }

    fn vec_len(&self, slot: usize) -> Result<usize, FlatError> {
        match self.vec_field(slot)? {
            None => Ok(0),
            Some(v) => Ok(get_u32(self.buf, v)? as usize),
        }
    }

    fn vec_elem(&self, slot: usize, i: usize) -> Result<&'a [u8], FlatError> {
        let v = self.vec_field(slot)?.ok_or(FlatError::BadOffset)?;
        let len = get_u32(self.buf, v)? as usize;
        if i >= len {
            return Err(FlatError::BadOffset);
        }
        let elem_off = get_u32(self.buf, v + 4 + 4 * i)? as usize;
        let blen = get_u32(self.buf, elem_off)? as usize;
        self.buf
            .get(elem_off + 4..elem_off + 4 + blen)
            .ok_or(FlatError::BadOffset)
    }

    /// Number of keys.
    pub fn keys_len(&self) -> Result<usize, FlatError> {
        self.vec_len(SLOT_KEYS)
    }

    /// Key `i`, zero-copy.
    pub fn key(&self, i: usize) -> Result<&'a [u8], FlatError> {
        self.vec_elem(SLOT_KEYS, i)
    }

    /// Number of values.
    pub fn vals_len(&self) -> Result<usize, FlatError> {
        self.vec_len(SLOT_VALS)
    }

    /// Value `i`, zero-copy.
    pub fn val(&self, i: usize) -> Result<&'a [u8], FlatError> {
        self.vec_elem(SLOT_VALS, i)
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
    fn roundtrip_mixed() {
        let s = sim();
        let big = vec![9u8; 3000];
        let wire = FlatGetM::encode(&s, Some(5), &[b"alpha", b"beta"], &[&big[..], b"small"]);
        let v = FlatGetMView::parse(&s, &wire).unwrap();
        assert_eq!(v.id().unwrap(), Some(5));
        assert_eq!(v.keys_len().unwrap(), 2);
        assert_eq!(v.key(0).unwrap(), b"alpha");
        assert_eq!(v.key(1).unwrap(), b"beta");
        assert_eq!(v.vals_len().unwrap(), 2);
        assert_eq!(v.val(0).unwrap(), &big[..]);
        assert_eq!(v.val(1).unwrap(), b"small");
    }

    #[test]
    fn empty_message() {
        let s = sim();
        let wire = FlatGetM::encode(&s, None, &[], &[]);
        let v = FlatGetMView::parse(&s, &wire).unwrap();
        assert_eq!(v.id().unwrap(), None);
        assert_eq!(v.keys_len().unwrap(), 0);
        assert_eq!(v.vals_len().unwrap(), 0);
    }

    #[test]
    fn out_of_range_element() {
        let s = sim();
        let wire = FlatGetM::encode(&s, None, &[b"k"], &[]);
        let v = FlatGetMView::parse(&s, &wire).unwrap();
        assert!(v.key(1).is_err());
        assert!(v.val(0).is_err());
    }

    #[test]
    fn corrupt_buffers_error_not_panic() {
        let s = sim();
        let wire = FlatGetM::encode(&s, Some(1), &[b"kk"], &[b"vv"]);
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] = 0xFF;
            if let Ok(v) = FlatGetMView::parse(&s, &bad) {
                let _ = v.id();
                let _ = v.keys_len();
                let _ = v.key(0);
                let _ = v.vals_len();
                let _ = v.val(0);
            }
        }
        assert!(FlatGetMView::parse(&s, &[]).is_err());
        assert!(FlatGetMView::parse(&s, &[0, 0, 0]).is_err());
    }

    #[test]
    fn field_bytes_are_resident_where_they_landed() {
        // Charged copies install their destination lines; a builder that
        // moved after charging would leave its field bytes on lines the
        // modelled cache never saw.
        let s = Sim::new(MachineProfile::cloudlab_c6525());
        let (mid, big) = (vec![4u8; 256], vec![3u8; 3000]);
        let mut builder = FlatGetM::default();
        for vals in [&[&big[..], b"v"][..], &[&mid[..]; 8], &[&big[..]; 3]] {
            s.reset();
            let wire = builder.build(&s, Some(1), &[b"key-a", b"key-b"], vals);
            let view = FlatGetMView::parse(&s, wire).unwrap();
            let fields = (0..2)
                .map(|i| view.key(i))
                .chain((0..vals.len()).map(|i| view.val(i)));
            for field in fields {
                let field = field.unwrap();
                let start = field.as_ptr() as u64;
                for line in (start & !63..start + field.len() as u64).step_by(64) {
                    assert!(
                        s.with_core(|c| c.cache.probe(line)),
                        "line {line:#x} of a field is not resident"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_charges_copy_costs() {
        let s = sim();
        let t0 = s.now();
        let data = vec![1u8; 8192];
        let _ = FlatGetM::encode(&s, None, &[], &[&data]);
        let cost = s.now() - t0;
        // 128 cold lines at ~11 ns plus overheads.
        assert!(cost > 1000, "builder copy should be charged, got {cost}");
    }
}
