//! Bump arena for copied serialization data.
//!
//! When the hybrid heuristic decides to *copy* a field, Cornflakes stores
//! the copied bytes "using efficient arena allocation ... that offers fast
//! allocation and mass deallocation in order to avoid more expensive heap
//! allocations" (paper §3.2.2). [`Arena`] is a bump allocator over chunks;
//! [`ArenaBytes`] handles pin their chunk, so [`Arena::reset`] is safe at
//! any time: a chunk's memory is recycled only once no handles reference it.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::stats::{update, ArenaStats};
use crate::zeroed::ZeroedBlock;

/// Default arena chunk size: large enough for a jumbo frame of copied
/// fields plus headers.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// Retired-chunk pool bound. A reset that finds its current chunk pinned
/// by live handles parks it here instead of dropping it; once the handles
/// release (typically when the in-flight request that held them completes),
/// the chunk is recycled by a later reset. Two chunks ping-ponging covers
/// the steady-state request pipeline; the bound caps worst-case retention
/// at a few chunk sizes.
const MAX_SPARE_CHUNKS: usize = 4;

struct Chunk {
    /// Raw backing storage. Access goes through raw pointers only (never a
    /// `&mut` to the whole buffer), so shared `ArenaBytes` readers and the
    /// arena's writes to *disjoint, not-yet-handed-out* tail bytes can
    /// coexist.
    block: ZeroedBlock,
    capacity: usize,
    used: Cell<usize>,
}

impl Chunk {
    fn new(capacity: usize) -> Rc<Self> {
        // Cache-line aligned, so copies start where a modelled line does.
        Rc::new(Chunk {
            block: ZeroedBlock::new(capacity, 64),
            capacity,
            used: Cell::new(0),
        })
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chunk")
            .field("capacity", &self.capacity)
            .field("used", &self.used.get())
            .finish()
    }
}

/// A bump allocator for copied field data.
///
/// # Examples
///
/// ```
/// let arena = cf_mem::Arena::new();
/// let a = arena.copy_in(b"copied field");
/// assert_eq!(a.as_slice(), b"copied field");
/// arena.reset(); // mass deallocation; `a` stays valid (it pins its chunk)
/// assert_eq!(a.as_slice(), b"copied field");
/// ```
#[derive(Debug)]
pub struct Arena {
    current: RefCell<Rc<Chunk>>,
    /// Retired chunks awaiting their last handle; recycled by `reset`.
    spares: RefCell<Vec<Rc<Chunk>>>,
    chunk_size: usize,
    stats: ArenaStats,
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl Arena {
    /// Creates an arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK)
    }

    /// Creates an arena with a custom chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let stats = ArenaStats::default();
        update(&stats.chunks_allocated, |v| v + 1);
        Arena {
            current: RefCell::new(Chunk::new(chunk_size)),
            spares: RefCell::new(Vec::with_capacity(MAX_SPARE_CHUNKS)),
            chunk_size,
            stats,
        }
    }

    /// Shared statistics cells for this arena (copies, bytes, chunk churn).
    pub fn stats(&self) -> &ArenaStats {
        &self.stats
    }

    /// Copies `src` into the arena, returning a handle to the copy.
    ///
    /// Allocations larger than the chunk size get a dedicated chunk.
    pub fn copy_in(&self, src: &[u8]) -> ArenaBytes {
        let len = src.len();
        update(&self.stats.copies, |v| v + 1);
        update(&self.stats.bytes_copied, |v| v + len as u64);
        if len > self.chunk_size {
            // Oversized: dedicated chunk, not installed as current.
            update(&self.stats.chunks_allocated, |v| v + 1);
            let chunk = Chunk::new(len.max(1));
            // SAFETY: the fresh chunk's [0, len) range is exclusively ours.
            unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), chunk.block.base(), len) };
            chunk.used.set(len);
            return ArenaBytes {
                chunk,
                offset: 0,
                len,
            };
        }
        let mut current = self.current.borrow_mut();
        if current.used.get() + len > current.capacity {
            update(&self.stats.chunks_allocated, |v| v + 1);
            *current = Chunk::new(self.chunk_size);
        }
        let offset = current.used.get();
        // SAFETY: `[offset, offset + len)` is in bounds (checked above) and
        // has never been handed out from this chunk, so no `ArenaBytes`
        // aliases it; `src` is a distinct live allocation.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), current.block.base().add(offset), len);
        }
        current.used.set(offset + len);
        ArenaBytes {
            chunk: Rc::clone(&current),
            offset,
            len,
        }
    }

    /// Mass deallocation (paper §3.2.2): recycles the current chunk if no
    /// handles reference it. A chunk still pinned by live handles — e.g.
    /// the in-flight request that was just serialized — is parked in a
    /// bounded spare pool and replaced by a previously parked chunk whose
    /// handles have since released, so a steady-state pipeline ping-pongs
    /// between two chunks without ever touching the heap allocator. Only
    /// when every spare is still pinned does a fresh chunk get allocated.
    pub fn reset(&self) {
        update(&self.stats.resets, |v| v + 1);
        let mut current = self.current.borrow_mut();
        if Rc::strong_count(&current) == 1 {
            current.used.set(0);
            return;
        }
        let mut spares = self.spares.borrow_mut();
        let fresh = match spares.iter().position(|c| Rc::strong_count(c) == 1) {
            Some(pos) => {
                let chunk = spares.swap_remove(pos);
                chunk.used.set(0);
                chunk
            }
            None => {
                update(&self.stats.chunks_allocated, |v| v + 1);
                Chunk::new(self.chunk_size)
            }
        };
        let retired = std::mem::replace(&mut *current, fresh);
        if spares.len() < MAX_SPARE_CHUNKS {
            spares.push(retired);
        }
    }
}

/// An owned handle to bytes copied into an [`Arena`].
///
/// Cloning is cheap (bumps the chunk's `Rc`). The handle keeps its chunk
/// alive independently of the arena, so arena resets never dangle.
#[derive(Clone)]
pub struct ArenaBytes {
    chunk: Rc<Chunk>,
    offset: usize,
    len: usize,
}

impl ArenaBytes {
    /// The copied bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `[offset, offset+len)` was initialized by `copy_in`, is in
        // bounds of the chunk, and is never written again (the bump pointer
        // only moves forward and reset recycles only unreferenced chunks).
        unsafe { std::slice::from_raw_parts(self.chunk.block.base().add(self.offset), self.len) }
    }

    /// Length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the copy is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the first byte (for cache-cost accounting).
    pub fn addr(&self) -> u64 {
        self.chunk.block.base() as u64 + self.offset as u64
    }
}

impl std::ops::Deref for ArenaBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ArenaBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for ArenaBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaBytes({} bytes @ {:#x})", self.len, self.addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_roundtrip() {
        let a = Arena::new();
        let h = a.copy_in(b"hello arena");
        assert_eq!(&*h, b"hello arena");
        assert_eq!(h.len(), 11);
        assert!(!h.is_empty());
    }

    #[test]
    fn allocations_are_disjoint() {
        let a = Arena::new();
        let x = a.copy_in(b"xxxx");
        let y = a.copy_in(b"yyyy");
        assert_eq!(&*x, b"xxxx");
        assert_eq!(&*y, b"yyyy");
        assert!(y.addr() >= x.addr() + 4);
    }

    #[test]
    fn empty_copy() {
        let a = Arena::new();
        let h = a.copy_in(b"");
        assert!(h.is_empty());
        assert_eq!(h.as_slice(), b"");
    }

    #[test]
    fn reset_recycles_when_unreferenced() {
        let a = Arena::with_chunk_size(1024);
        let addr1 = a.copy_in(&[1u8; 100]).addr();
        // handle dropped immediately
        a.reset();
        let addr2 = a.copy_in(&[2u8; 100]).addr();
        assert_eq!(addr1, addr2, "chunk memory reused after reset");
    }

    #[test]
    fn reset_preserves_live_handles() {
        let a = Arena::with_chunk_size(1024);
        let h = a.copy_in(b"still alive");
        a.reset();
        let j = a.copy_in(b"new data after reset");
        assert_eq!(&*h, b"still alive", "old handle survives reset");
        assert_eq!(&*j, b"new data after reset");
        assert_ne!(h.addr() & !63, j.addr() & !63, "different chunks");
    }

    #[test]
    fn reset_recycles_retired_chunk_once_handles_release() {
        let a = Arena::with_chunk_size(1024);
        let h = a.copy_in(b"first");
        let addr_a = h.addr();
        a.reset(); // chunk A pinned by `h`: parked, fresh B installed
        let j = a.copy_in(b"second");
        drop(h); // A's last handle releases; it waits in the spare pool
        a.reset(); // B pinned by `j`: A recycled as the current chunk
        let k = a.copy_in(b"third");
        assert_eq!(
            k.addr(),
            addr_a,
            "a retired chunk is reused once its handles release"
        );
        assert_eq!(&*j, b"second", "parked-chunk handles stay valid");
    }

    #[test]
    fn chunk_rollover() {
        let a = Arena::with_chunk_size(128);
        let x = a.copy_in(&[7u8; 100]);
        let y = a.copy_in(&[8u8; 100]); // doesn't fit: new chunk
        assert_eq!(x.as_slice(), &[7u8; 100][..]);
        assert_eq!(y.as_slice(), &[8u8; 100][..]);
    }

    #[test]
    fn oversized_allocation_gets_dedicated_chunk() {
        let a = Arena::with_chunk_size(64);
        let big = vec![9u8; 10_000];
        let h = a.copy_in(&big);
        assert_eq!(&*h, &big[..]);
        // Current chunk untouched by the oversized allocation.
        assert_eq!(a.current.borrow().used.get(), 0);
    }

    #[test]
    fn clone_shares_bytes() {
        let a = Arena::new();
        let h = a.copy_in(b"shared");
        let c = h.clone();
        drop(h);
        assert_eq!(&*c, b"shared");
    }
}
