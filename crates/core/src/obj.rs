//! The `CornflakesObj` trait: serialization objects the networking stack
//! consumes directly (paper Listing 1, §3.2.3).
//!
//! Rather than exposing an explicit `serialize()` that materializes a
//! scatter-gather array, a Cornflakes object describes itself to the stack
//! once: its [`Footprint`] (header size, copied bytes, zero-copy entries
//! and bytes) and one visitor over its data [`Entry`]s, copied or zero-copy.
//! The stack uses these to write the header and copied data into one DMA
//! buffer and to post the zero-copy references as additional scatter-gather
//! entries — the *combined serialize-and-send* API.

use std::ops::AddAssign;

use cf_mem::RcBuf;
use cf_sim::cost::Category;

use crate::ctx::SerCtx;
use crate::wire::WireError;

/// Cursor state for writing an object tree's header region.
///
/// The header region is written with three cursors: an *aux* cursor
/// allocating header-region blocks (the root fixed block, list tables,
/// nested object blocks), a *copy* cursor assigning absolute offsets in the
/// copied-data region, and a *zero-copy* cursor assigning absolute offsets
/// in the NIC-gathered region. Offsets handed out by `assign_*` are
/// absolute from the object start, which is what forward pointers encode.
#[derive(Debug)]
pub struct HeaderWriter<'a> {
    buf: &'a mut [u8],
    aux_cursor: usize,
    copy_cursor: usize,
    zc_cursor: usize,
    entries: usize,
}

impl<'a> HeaderWriter<'a> {
    /// Creates a writer over the header region `buf`, with the copied-data
    /// region starting at absolute offset `copy_start` and the zero-copy
    /// region at `zc_start`.
    pub fn new(buf: &'a mut [u8], copy_start: usize, zc_start: usize) -> Self {
        HeaderWriter {
            buf,
            aux_cursor: 0,
            copy_cursor: copy_start,
            zc_cursor: zc_start,

            entries: 0,
        }
    }

    /// Allocates a `size`-byte block in the header region, returning its
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if the region overflows — a layout-computation bug, not a
    /// runtime condition.
    pub fn alloc_block(&mut self, size: usize) -> usize {
        let off = self.aux_cursor;
        assert!(
            off + size <= self.buf.len(),
            "header region overflow: object layout inconsistent"
        );
        self.aux_cursor += size;
        off
    }

    /// The header-region bytes.
    pub fn buf(&mut self) -> &mut [u8] {
        self.buf
    }

    /// Assigns `len` bytes in the copied-data region; returns the absolute
    /// offset.
    pub fn assign_copy(&mut self, len: usize) -> u32 {
        let off = self.copy_cursor;
        self.copy_cursor += len;
        off as u32
    }

    /// Assigns `len` bytes in the zero-copy region; returns the absolute
    /// offset.
    pub fn assign_zc(&mut self, len: usize) -> u32 {
        let off = self.zc_cursor;
        self.zc_cursor += len;
        off as u32
    }

    /// Records one written field entry (for per-field cost accounting).
    pub fn count_entry(&mut self) {
        self.entries += 1;
    }

    /// Number of field entries written so far.
    pub fn entries_written(&self) -> usize {
        self.entries
    }
}

/// The wire layout of an object, or of one field's contribution to the
/// object that holds it: the size of each region and the zero-copy entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The object's fixed header block (bitmap prefix + bitmap +
    /// per-present-field entries); 0 in a field's contribution.
    pub fixed: usize,
    /// Further header-region blocks: list tables and nested objects'
    /// blocks, recursively.
    pub aux: usize,
    /// Bytes of copied field data.
    pub copy: usize,
    /// Zero-copy scatter-gather entries.
    pub zc_entries: usize,
    /// Bytes across the zero-copy entries.
    pub zc_bytes: usize,
}

impl Footprint {
    /// Header-region size.
    pub fn header(&self) -> usize {
        self.fixed + self.aux
    }

    /// Total serialized size (paper Listing 1's `object_len`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.header() + self.copy + self.zc_bytes
    }

    /// This object's contribution as a nested field: its whole header is an
    /// aux block of the parent.
    pub fn nested(self) -> Footprint {
        Footprint {
            fixed: 0,
            aux: self.header(),
            ..self
        }
    }
}

impl AddAssign for Footprint {
    fn add_assign(&mut self, o: Footprint) {
        self.fixed += o.fixed;
        self.aux += o.aux;
        self.copy += o.copy;
        self.zc_entries += o.zc_entries;
        self.zc_bytes += o.zc_bytes;
    }
}

/// One piece of an object's field data, as
/// [`CornflakesObj::for_each_entry`] yields it.
#[derive(Clone, Copy, Debug)]
pub enum Entry<'a> {
    /// Bytes the stack copies behind the header.
    Copy(&'a [u8]),
    /// Pinned memory the NIC gathers as its own scatter-gather entry.
    ZeroCopy(&'a RcBuf),
}

/// A serializable Cornflakes object: generated from a schema by
/// `cf-codegen`, or interpreted from one ([`crate::dynamic::DynMessage`]).
///
/// Layout invariants every implementation must uphold, with
/// `fp = footprint()`:
///
/// - `write_header` fills an `fp.fixed`-byte block and allocates `fp.aux`
///   further header bytes.
/// - `write_header` assigns copied-data offsets in exactly the order
///   `for_each_entry` yields [`Entry::Copy`]s, and zero-copy offsets in
///   exactly the order it yields [`Entry::ZeroCopy`]s.
/// - The `Entry::Copy` lengths sum to `fp.copy`; the `Entry::ZeroCopy`s
///   number `fp.zc_entries` and their lengths sum to `fp.zc_bytes`.
/// - The serialized object is `[header | copied data | zero-copy data]`,
///   `fp.len()` bytes.
pub trait CornflakesObj: Sized {
    /// The object's layout, computed in one walk.
    fn footprint(&self) -> Footprint;

    /// Writes this object's header block at `block` (already allocated in
    /// `w`), allocating aux blocks and assigning data offsets as it goes.
    fn write_header(&self, w: &mut HeaderWriter<'_>, block: usize);

    /// Visits each field data entry, copied or zero-copy, in field order.
    fn for_each_entry(&self, f: &mut dyn FnMut(Entry<'_>));

    // Shorthands over `footprint` and `for_each_entry`. Each is a whole walk
    // of the object: a caller that needs two sizes reads `footprint()` once.

    /// Total header-region size.
    fn header_bytes(&self) -> usize {
        self.footprint().header()
    }

    /// Bytes of copied field data.
    fn copy_bytes(&self) -> usize {
        self.footprint().copy
    }

    /// Number of zero-copy scatter-gather entries this object contributes.
    fn zero_copy_entries(&self) -> usize {
        self.footprint().zc_entries
    }

    /// Total bytes across zero-copy entries.
    fn zero_copy_bytes(&self) -> usize {
        self.footprint().zc_bytes
    }

    /// Total serialized size (paper Listing 1's `object_len`).
    fn object_len(&self) -> usize {
        self.footprint().len()
    }

    /// Visits each copied-data entry, in offset-assignment order.
    fn for_each_copy_entry(&self, f: &mut dyn FnMut(&[u8])) {
        self.for_each_entry(&mut |e| {
            if let Entry::Copy(bytes) = e {
                f(bytes);
            }
        });
    }

    /// Visits each zero-copy entry, in offset-assignment order.
    fn for_each_zero_copy_entry(&self, f: &mut dyn FnMut(&RcBuf)) {
        self.for_each_entry(&mut |e| {
            if let Entry::ZeroCopy(rc) = e {
                f(rc);
            }
        });
    }

    /// Deserializes an object whose header block starts at `block` within
    /// `payload`. Variable-length fields become zero-copy views into
    /// `payload` (which stays alive via reference counting).
    fn deserialize_at(ctx: &SerCtx, payload: &RcBuf, block: usize) -> Result<Self, WireError>;

    /// Deserializes a root object (paper Listing 1's `deserialize`).
    fn deserialize(ctx: &SerCtx, payload: &RcBuf) -> Result<Self, WireError> {
        Self::deserialize_at(ctx, payload, 0)
    }

    /// Deserializes the header block at `block` *into* `self`, replacing
    /// its contents. The default falls back to [`Self::deserialize_at`];
    /// generated messages override this to decode in place, reusing their
    /// list-vector capacity so the steady-state decode path performs no
    /// heap allocations.
    ///
    /// On error `self` is left in an unspecified-but-valid state; callers
    /// must not interpret its fields.
    fn deserialize_at_into(
        &mut self,
        ctx: &SerCtx,
        payload: &RcBuf,
        block: usize,
    ) -> Result<(), WireError> {
        *self = Self::deserialize_at(ctx, payload, block)?;
        Ok(())
    }

    /// In-place root-object decode (see [`Self::deserialize_at_into`]).
    fn deserialize_into(&mut self, ctx: &SerCtx, payload: &RcBuf) -> Result<(), WireError> {
        self.deserialize_at_into(ctx, payload, 0)
    }
}

/// Writes the complete header region of `obj` into `out`
/// (`out.len() == obj.footprint().header()`), with data offsets laid out as
/// `[header | copied data | zero-copy data]`.
///
/// Returns the number of field entries written (for per-field cost
/// accounting).
///
/// # Panics
///
/// Panics if `out` is not exactly the header region size.
pub fn write_full_header(obj: &impl CornflakesObj, out: &mut [u8]) -> usize {
    let fp = obj.footprint();
    let hb = fp.header();
    assert_eq!(out.len(), hb, "header buffer must be footprint().header()");
    let mut w = HeaderWriter::new(out, hb, hb + fp.copy);
    let root = w.alloc_block(fp.fixed);
    obj.write_header(&mut w, root);
    w.entries_written()
}

/// Appends the serialization of `obj` to `out` as one contiguous byte
/// string — what a receiver observes after the NIC gathers all scatter
/// entries. For tests and single-buffer transports; the zero-copy datapath
/// never materializes this.
pub fn serialize_into(obj: &impl CornflakesObj, out: &mut Vec<u8>) {
    let start = out.len();
    let fp = obj.footprint();
    out.resize(start + fp.header(), 0);
    write_full_header(obj, &mut out[start..]);
    obj.for_each_copy_entry(&mut |bytes| out.extend_from_slice(bytes));
    obj.for_each_zero_copy_entry(&mut |rc| out.extend_from_slice(rc.as_slice()));
    debug_assert_eq!(out.len() - start, fp.len());
}

/// [`serialize_into`] a fresh buffer.
pub fn serialize_to_vec(obj: &impl CornflakesObj) -> Vec<u8> {
    let mut out = Vec::with_capacity(obj.object_len());
    serialize_into(obj, &mut out);
    out
}

/// Charges the virtual-time cost of deserializing a header block: a read of
/// the block plus per-field pointer decoding. Implementations call this once
/// per block.
pub fn charge_deserialize(
    ctx: &SerCtx,
    block_addr: u64,
    block_bytes: usize,
    present_fields: usize,
) {
    let costs = ctx.sim.costs();
    ctx.sim
        .charge(Category::Deserialize, costs.header_fixed * 0.5);
    ctx.sim
        .charge_read(Category::Deserialize, block_addr, block_bytes);
    ctx.sim.charge(
        Category::Deserialize,
        present_fields as f64 * costs.per_field_deser,
    );
}
