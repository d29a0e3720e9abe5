//! A Cap'n Proto-style serializer: word-aligned segments with struct and
//! list pointers, zero-copy reads.
//!
//! Data-movement profile (as the paper uses the `capnp` crate, §6.1.3): the
//! builder copies field data into heap-allocated *segments*; the library
//! hands the networking stack a non-contiguous list of segment buffers,
//! which the stack copies into DMA memory (the segments themselves are not
//! DMA-safe). Reads are zero-copy pointer traversal over the received
//! contiguous payload.
//!
//! Wire layout (a simplification of Cap'n Proto's segment framing):
//!
//! ```text
//! [u32 nsegs][u32 seg_len; nsegs][pad to 8][seg 0][seg 1]...
//! ```
//!
//! Pointers are 8 bytes: `[u16 segment][u16 length/count][u32 byte offset]`.
//! The root struct lives at the start of segment 0:
//! `[u32 id][u32 presence][u64 keys list ptr][u64 vals list ptr]`.

use std::fmt;

use cf_sim::cost::Category;
use cf_sim::Sim;

/// Segment capacity. Small enough that multi-kilobyte messages span
/// segments (exercising the non-contiguous path), large enough to amortize.
pub const SEGMENT_SIZE: usize = 4096;

/// Presence bit for `id`.
const PRESENT_ID: u32 = 1;

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapnError {
    /// Structural truncation.
    Truncated,
    /// A pointer referenced a missing segment or out-of-range bytes.
    BadPointer,
    /// The segment table is malformed.
    BadSegmentTable,
}

impl fmt::Display for CapnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapnError::Truncated => write!(f, "truncated message"),
            CapnError::BadPointer => write!(f, "pointer out of bounds"),
            CapnError::BadSegmentTable => write!(f, "malformed segment table"),
        }
    }
}

impl std::error::Error for CapnError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ptr {
    seg: u16,
    len: u16,
    off: u32,
}

impl Ptr {
    fn pack(self) -> u64 {
        (self.seg as u64) | ((self.len as u64) << 16) | ((self.off as u64) << 32)
    }

    fn unpack(v: u64) -> Ptr {
        Ptr {
            seg: v as u16,
            len: (v >> 16) as u16,
            off: (v >> 32) as u32,
        }
    }

    const NULL: Ptr = Ptr {
        seg: 0,
        len: 0,
        off: 0,
    };

    fn is_null(self) -> bool {
        self == Ptr::NULL
    }

    /// The pointer as the wire has it: builder segment indices count data
    /// segments only, and the root segment goes in front of them.
    fn shifted(self) -> Ptr {
        let seg = self.seg + !self.is_null() as u16;
        Ptr { seg, ..self }
    }
}

/// Builder for the Cap'n Proto-style multi-get message. A builder is
/// reusable: [`CapnGetM::reset`] empties its segments without freeing
/// them, so a warm builder encodes without touching the host allocator;
/// the modelled costs are the library's fresh-segment ones all the same.
#[derive(Debug)]
pub struct CapnGetM {
    /// The root struct, then the data segments; entries from `used` on are
    /// emptied spares.
    segments: Vec<Vec<u8>>,
    used: usize,
    id: Option<u32>,
    keys: Vec<Ptr>,
    vals: Vec<Ptr>,
    /// A pointer table's bytes, staged before their copy into a segment.
    table: Vec<u8>,
}

impl Default for CapnGetM {
    fn default() -> Self {
        Self::new()
    }
}

impl CapnGetM {
    /// Creates a builder with one fresh segment.
    pub fn new() -> Self {
        CapnGetM {
            segments: vec![Vec::new(), Vec::with_capacity(SEGMENT_SIZE)],
            used: 2,
            id: None,
            keys: Vec::new(),
            vals: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Empties the builder for the next message, keeping its segments.
    pub fn reset(&mut self) {
        self.segments[..self.used].iter_mut().for_each(Vec::clear);
        self.used = 2;
        self.id = None;
        self.keys.clear();
        self.vals.clear();
    }

    /// Sets the id field.
    pub fn set_id(&mut self, id: u32) {
        self.id = Some(id);
    }

    /// Opens a data segment of at least `capacity` bytes, a spare if any.
    fn open_segment(&mut self, capacity: usize) {
        if self.used == self.segments.len() {
            self.segments.push(Vec::new());
        }
        self.segments[self.used].reserve(capacity);
        self.used += 1;
    }

    fn alloc_blob(&mut self, sim: &Sim, data: &[u8]) -> Ptr {
        let costs = sim.costs();
        // Place in the last segment if it fits; otherwise open a new one.
        let fits = self.segments[self.used - 1].len() + data.len() <= SEGMENT_SIZE;
        if !fits {
            sim.charge(Category::Alloc, costs.heap_alloc);
            // Oversized blobs get a dedicated segment.
            self.open_segment(SEGMENT_SIZE.max(data.len().next_multiple_of(8)));
        }
        let seg_idx = self.used - 1;
        let seg = &mut self.segments[seg_idx];
        let off = seg.len() as u32;
        sim.charge_memcpy(
            Category::SerializeCopy,
            data.as_ptr() as u64,
            seg.as_ptr() as u64 + off as u64,
            data.len(),
        );
        seg.extend_from_slice(data);
        seg.resize(seg.len().next_multiple_of(8), 0);
        Ptr {
            seg: seg_idx as u16 - 1,
            len: data.len() as u16,
            off,
        }
    }

    /// Appends a key, copying it into segment storage.
    pub fn add_key(&mut self, sim: &Sim, data: &[u8]) {
        sim.charge(
            Category::HeaderWrite,
            sim.costs().lib_field_overhead(data.len()),
        );
        let p = self.alloc_blob(sim, data);
        self.keys.push(p);
    }

    /// Appends a value, copying it into segment storage.
    pub fn add_val(&mut self, sim: &Sim, data: &[u8]) {
        sim.charge(
            Category::HeaderWrite,
            sim.costs().lib_field_overhead(data.len()),
        );
        let p = self.alloc_blob(sim, data);
        self.vals.push(p);
    }

    fn write_ptr_table(&mut self, sim: &Sim, ptrs: &[Ptr]) -> Ptr {
        if ptrs.is_empty() {
            return Ptr::NULL;
        }
        let mut bytes = std::mem::take(&mut self.table);
        bytes.clear();
        bytes.extend(ptrs.iter().flat_map(|p| p.shifted().pack().to_le_bytes()));
        sim.charge(
            Category::HeaderWrite,
            bytes.len() as f64 * sim.costs().header_write_per_byte,
        );
        let mut p = self.alloc_blob(sim, &bytes);
        self.table = bytes;
        p.len = ptrs.len() as u16;
        p
    }

    /// Finishes the message: writes the root struct and pointer tables,
    /// returning the segment list (the "non-contiguous list of buffers" the
    /// networking layer consumes). See [`CapnGetM::finish_in_place`].
    pub fn finish(mut self, sim: &Sim) -> Vec<Vec<u8>> {
        self.finish_in_place(sim);
        self.segments.truncate(self.used);
        self.segments
    }

    /// Finishes the message in the builder's own segments and returns
    /// them, the root struct first; [`CapnGetM::reset`] starts the next.
    pub fn finish_in_place(&mut self, sim: &Sim) -> &[Vec<u8>] {
        let costs = sim.costs();
        let keys = std::mem::take(&mut self.keys);
        let vals = std::mem::take(&mut self.vals);
        let keys_ptr = self.write_ptr_table(sim, &keys);
        let vals_ptr = self.write_ptr_table(sim, &vals);
        (self.keys, self.vals) = (keys, vals);
        // The root struct leads, at a fixed location (segment 0, offset 0).
        let root = &mut self.segments[0];
        root.clear();
        root.extend_from_slice(&self.id.unwrap_or(0).to_le_bytes());
        root.extend_from_slice(&(if self.id.is_some() { PRESENT_ID } else { 0 }).to_le_bytes());
        root.extend_from_slice(&keys_ptr.shifted().pack().to_le_bytes());
        root.extend_from_slice(&vals_ptr.shifted().pack().to_le_bytes());
        // Segment-table framing and far-pointer bookkeeping: Cap'n Proto
        // pays a per-message segment-management cost the flat formats do
        // not (visible in the paper's Table 1, where it trails on small
        // lists).
        sim.charge(
            Category::HeaderWrite,
            costs.header_fixed + 80.0 + 24.0 * costs.header_write_per_byte,
        );
        &self.segments[..self.used]
    }

    /// Writes the segment table that frames `segments` (the prefix of the
    /// wire format, padded to a word) into `out`, replacing its contents.
    pub fn segment_table(segments: &[Vec<u8>], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for s in segments {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        }
        out.resize(out.len().next_multiple_of(8), 0);
    }

    /// Frames segments into the contiguous wire format (what the receiver
    /// sees after the stack gathers everything).
    pub fn frame(segments: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        Self::segment_table(segments, &mut out);
        for s in segments {
            out.extend_from_slice(s);
        }
        out
    }
}

/// Zero-copy reader over a framed Cap'n Proto-style message.
pub struct CapnReader<'a> {
    buf: &'a [u8],
    /// (start, len) of each segment within `buf`.
    segs: Vec<(usize, usize)>,
}

impl<'a> CapnReader<'a> {
    /// Parses the segment table, charging deserialization costs. See
    /// [`CapnReader::parse_with`].
    pub fn parse(sim: &Sim, buf: &'a [u8]) -> Result<Self, CapnError> {
        Self::parse_with(sim, buf, &mut Vec::new())
    }

    /// Parses the segment table into `scratch`'s storage, which the reader
    /// keeps until [`CapnReader::into_scratch`] (on error, `scratch` keeps
    /// it).
    pub fn parse_with(
        sim: &Sim,
        buf: &'a [u8],
        scratch: &mut Vec<(usize, usize)>,
    ) -> Result<Self, CapnError> {
        let costs = sim.costs();
        sim.charge(Category::Deserialize, costs.header_fixed * 0.5 + 40.0);
        if buf.len() < 4 {
            return Err(CapnError::Truncated);
        }
        let nsegs = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        if nsegs == 0 || nsegs > 1024 {
            return Err(CapnError::BadSegmentTable);
        }
        let table_end = 4 + 4 * nsegs;
        if buf.len() < table_end {
            return Err(CapnError::Truncated);
        }
        let mut start = table_end.div_ceil(8) * 8;
        scratch.clear();
        for i in 0..nsegs {
            let len =
                u32::from_le_bytes(buf[4 + 4 * i..8 + 4 * i].try_into().expect("4 bytes")) as usize;
            if start + len > buf.len() {
                return Err(CapnError::BadSegmentTable);
            }
            scratch.push((start, len));
            start += len;
        }
        sim.charge_read(Category::Deserialize, buf.as_ptr() as u64, table_end);
        Ok(CapnReader {
            buf,
            segs: std::mem::take(scratch),
        })
    }

    /// Gives back the segment-table storage [`CapnReader::parse_with`]
    /// took.
    pub fn into_scratch(self) -> Vec<(usize, usize)> {
        self.segs
    }

    fn seg_bytes(&self, seg: u16, off: usize, len: usize) -> Result<&'a [u8], CapnError> {
        let &(start, seg_len) = self.segs.get(seg as usize).ok_or(CapnError::BadPointer)?;
        if off + len > seg_len {
            return Err(CapnError::BadPointer);
        }
        Ok(&self.buf[start + off..start + off + len])
    }

    fn root_word(&self, at: usize) -> Result<u64, CapnError> {
        let b = self.seg_bytes(0, at, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// The id field, if present.
    pub fn id(&self) -> Result<Option<u32>, CapnError> {
        let b = self.seg_bytes(0, 0, 8)?;
        let id = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
        let presence = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
        Ok((presence & PRESENT_ID != 0).then_some(id))
    }

    /// Resolves the list the root word at `root_off` points to into `out`,
    /// which is left empty on error.
    fn list_into(
        &self,
        sim: &Sim,
        root_off: usize,
        out: &mut Vec<&'a [u8]>,
    ) -> Result<(), CapnError> {
        out.clear();
        let p = Ptr::unpack(self.root_word(root_off)?);
        if p.is_null() {
            return Ok(());
        }
        let costs = sim.costs();
        let table = self.seg_bytes(p.seg, p.off as usize, p.len as usize * 8)?;
        for entry in table.chunks_exact(8) {
            let e = Ptr::unpack(u64::from_le_bytes(entry.try_into().expect("8 bytes")));
            sim.charge(
                Category::Deserialize,
                costs.lib_field_overhead(e.len as usize),
            );
            let field = self.seg_bytes(e.seg, e.off as usize, e.len as usize);
            let field = field.inspect_err(|_| out.clear())?;
            out.push(field);
        }
        Ok(())
    }

    /// The keys, zero-copy; see [`CapnReader::keys_into`].
    pub fn keys(&self, sim: &Sim) -> Result<Vec<&'a [u8]>, CapnError> {
        let mut keys = Vec::new();
        self.keys_into(sim, &mut keys).map(|()| keys)
    }

    /// Resolves the keys into `out`, zero-copy. Charged with eager UTF-8
    /// validation (string fields), like the real library's `text` readers.
    pub fn keys_into(&self, sim: &Sim, out: &mut Vec<&'a [u8]>) -> Result<(), CapnError> {
        self.list_into(sim, 8, out)?;
        let costs = sim.costs();
        for k in out.iter() {
            sim.charge(Category::Deserialize, k.len() as f64 * costs.utf8_per_byte);
        }
        Ok(())
    }

    /// The values, zero-copy; see [`CapnReader::vals_into`].
    pub fn vals(&self, sim: &Sim) -> Result<Vec<&'a [u8]>, CapnError> {
        let mut vals = Vec::new();
        self.vals_into(sim, &mut vals).map(|()| vals)
    }

    /// Resolves the values into `out`, zero-copy.
    pub fn vals_into(&self, sim: &Sim, out: &mut Vec<&'a [u8]>) -> Result<(), CapnError> {
        self.list_into(sim, 16, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::MachineProfile;

    fn sim() -> Sim {
        Sim::new(MachineProfile::tiny_for_tests())
    }

    fn build(sim: &Sim, id: Option<u32>, keys: &[&[u8]], vals: &[&[u8]]) -> Vec<u8> {
        let mut b = CapnGetM::new();
        if let Some(id) = id {
            b.set_id(id);
        }
        for k in keys {
            b.add_key(sim, k);
        }
        for v in vals {
            b.add_val(sim, v);
        }
        let segs = b.finish(sim);
        CapnGetM::frame(&segs)
    }

    #[test]
    fn roundtrip_small() {
        let s = sim();
        let wire = build(&s, Some(11), &[b"k1", b"k2"], &[b"value-bytes"]);
        let r = CapnReader::parse(&s, &wire).unwrap();
        assert_eq!(r.id().unwrap(), Some(11));
        let keys = r.keys(&s).unwrap();
        assert_eq!(keys, vec![&b"k1"[..], &b"k2"[..]]);
        let vals = r.vals(&s).unwrap();
        assert_eq!(vals, vec![&b"value-bytes"[..]]);
    }

    #[test]
    fn multi_segment_message() {
        let s = sim();
        // Three 3000-byte values exceed one 4096-byte segment.
        let v = vec![0x3Cu8; 3000];
        let wire = build(&s, None, &[], &[&v, &v, &v]);
        let r = CapnReader::parse(&s, &wire).unwrap();
        assert!(
            r.segs.len() > 2,
            "expected multiple segments, got {}",
            r.segs.len()
        );
        let vals = r.vals(&s).unwrap();
        assert_eq!(vals.len(), 3);
        for got in vals {
            assert_eq!(got, &v[..]);
        }
    }

    #[test]
    fn empty_message() {
        let s = sim();
        let wire = build(&s, None, &[], &[]);
        let r = CapnReader::parse(&s, &wire).unwrap();
        assert_eq!(r.id().unwrap(), None);
        assert!(r.keys(&s).unwrap().is_empty());
        assert!(r.vals(&s).unwrap().is_empty());
    }

    #[test]
    fn segment_list_shape() {
        let s = sim();
        let mut b = CapnGetM::new();
        b.add_val(&s, &[1u8; 100]);
        let segs = b.finish(&s);
        assert!(segs.len() >= 2, "root segment + data segment");
        assert_eq!(segs[0].len(), 24, "root struct is 3 words");
    }

    #[test]
    fn corrupt_input_errors_not_panics() {
        let s = sim();
        let wire = build(&s, Some(1), &[b"abc"], &[b"defgh"]);
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0xFF;
            if let Ok(r) = CapnReader::parse(&s, &bad) {
                let _ = r.id();
                let _ = r.keys(&s);
                let _ = r.vals(&s);
            }
        }
        assert!(CapnReader::parse(&s, &[]).is_err());
        assert!(CapnReader::parse(&s, &[9, 0, 0, 0]).is_err());
    }

    #[test]
    fn oversized_blob_gets_own_segment() {
        let s = sim();
        let huge = vec![7u8; SEGMENT_SIZE + 1000];
        let wire = build(&s, None, &[], &[&huge]);
        let r = CapnReader::parse(&s, &wire).unwrap();
        let vals = r.vals(&s).unwrap();
        assert_eq!(vals[0], &huge[..]);
    }
}
