//! Registered pinned memory regions.
//!
//! A [`Region`] models one contiguous range of pinned, NIC-registered memory
//! carved into fixed power-of-two slots. Each slot has its own reference
//! count, exactly as in the paper's `RcBuf` (Listing 2): the count lives in a
//! side table so that recovering it from a raw data pointer is a range
//! lookup plus index arithmetic. The counts and the free list are plain
//! `Cell`/`RefCell` state: a region belongs to the one datapath core that
//! registered it (crate docs, "Who owns pinned memory") and is `!Sync`.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use crate::stats::{update, MemStats};
use crate::zeroed::ZeroedBlock;

/// Alignment of region backing memory. 4 KiB matches page-pinned DMA memory:
/// every slot keeps its offset within a page whatever the allocator returns.
/// The region is aligned by offset inside a kernel-zeroed allocation, so only
/// the pages its slots are written through become host-resident; its
/// registered size is the whole region from the start.
pub const REGION_ALIGN: usize = 4096;

/// One registered pinned region: `num_slots` slots of `slot_size` bytes each.
///
/// The backing storage is a raw `ZeroedBlock` rather than a `Box<[u8]>` so that
/// reads and writes through derived raw pointers never alias a Rust
/// reference to the buffer: all access to slot bytes goes through
/// [`Region::slot_ptr`] and the accessors on [`crate::RcBuf`].
#[derive(Debug)]
pub struct Region {
    memory: ZeroedBlock,
    slot_size: usize,
    num_slots: usize,
    /// Per-slot reference counts. Index = slot number.
    refcounts: Box<[Cell<u32>]>,
    /// Stack of free slot indices.
    free: RefCell<Vec<u32>>,
    /// Stable identifier assigned by the registry.
    id: u32,
    /// Shared statistics cells (slot lifecycle, refcount traffic).
    stats: MemStats,
    /// Set by the pool that owns this region: its index in its size class
    /// and that class's allocation hint (see [`Region::join_class`]).
    class: OnceCell<(usize, Rc<Cell<usize>>)>,
}

impl Region {
    /// Allocates a region with `num_slots` slots of `slot_size` bytes,
    /// reporting slot/refcount traffic into shared `stats` cells (the
    /// registry passes its own).
    ///
    /// # Panics
    ///
    /// Panics if `slot_size` is not a power of two, either dimension is
    /// zero, or the allocation fails.
    pub fn with_stats(id: u32, slot_size: usize, num_slots: usize, stats: MemStats) -> Self {
        assert!(
            slot_size.is_power_of_two(),
            "slot size must be a power of two"
        );
        assert!(num_slots > 0, "region must have at least one slot");
        let bytes = slot_size
            .checked_mul(num_slots)
            .expect("region size overflows usize");
        Region {
            memory: ZeroedBlock::new(bytes, REGION_ALIGN),
            slot_size,
            num_slots,
            refcounts: (0..num_slots).map(|_| Cell::new(0)).collect(),
            // Hand slots out low-to-high for address locality.
            free: RefCell::new((0..num_slots as u32).rev().collect()),
            id,
            stats,
            class: OnceCell::new(),
        }
    }

    /// Makes this region number `index` of a pool size class. `hint` is the
    /// class's allocation hint — no region below that index has a free slot
    /// — which the region lowers to `index` whenever a slot frees here.
    pub(crate) fn join_class(&self, index: usize, hint: Rc<Cell<usize>>) {
        let joined = self.class.set((index, hint));
        assert!(joined.is_ok(), "a region joins one size class, once");
    }

    /// The registry-assigned region id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Base address of the region.
    pub fn base_addr(&self) -> u64 {
        self.memory.base() as u64
    }

    /// Total size of the region in bytes.
    pub fn len(&self) -> usize {
        self.slot_size * self.num_slots
    }

    /// True only for a zero-sized region (cannot be constructed; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of each slot in bytes.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of currently free slots.
    pub fn free_slots(&self) -> usize {
        self.free.borrow().len()
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base_addr() && addr < self.base_addr() + self.len() as u64
    }

    /// Slot index containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is outside the region.
    pub fn slot_of(&self, addr: u64) -> u32 {
        debug_assert!(self.contains(addr));
        ((addr - self.base_addr()) as usize / self.slot_size) as u32
    }

    /// Raw pointer to the start of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_ptr(&self, slot: u32) -> *mut u8 {
        assert!((slot as usize) < self.num_slots, "slot out of range");
        // SAFETY: `slot * slot_size` is within the allocation (checked
        // above), so the offset stays in bounds of the same object.
        unsafe { self.memory.base().add(slot as usize * self.slot_size) }
    }

    /// Address of the reference count for `slot` — the "metadata address"
    /// that upper layers charge cache costs against.
    pub fn refcount_addr(&self, slot: u32) -> u64 {
        self.refcounts[slot as usize].as_ptr() as u64
    }

    /// Current reference count of `slot` (test/diagnostic use).
    pub fn refcount(&self, slot: u32) -> u32 {
        self.refcounts[slot as usize].get()
    }

    /// Pops a free slot, setting its refcount to one. Returns `None` when
    /// the region is exhausted.
    pub fn take_slot(&self) -> Option<u32> {
        let slot = self.free.borrow_mut().pop()?;
        let prev = self.refcounts[slot as usize].replace(1);
        debug_assert_eq!(prev, 0, "free slot had live references");
        self.stats.slot_taken();
        Some(slot)
    }

    /// Increments the refcount of a live slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slot was free (count zero): recovering
    /// a pointer into freed memory indicates an application bug.
    pub fn incref(&self, slot: u32) {
        let count = &self.refcounts[slot as usize];
        debug_assert!(count.get() > 0, "incref on a free slot");
        count.set(count.get() + 1);
        update(&self.stats.increfs, |v| v + 1);
    }

    /// Decrements the refcount of `slot`; at zero the slot returns to the
    /// free list.
    pub fn decref(&self, slot: u32) {
        let count = &self.refcounts[slot as usize];
        debug_assert!(count.get() > 0, "decref underflow");
        count.set(count.get() - 1);
        update(&self.stats.decrefs, |v| v + 1);
        if count.get() == 0 {
            self.free.borrow_mut().push(slot);
            self.stats.slot_freed();
            if let Some((index, hint)) = self.class.get() {
                hint.set(hint.get().min(*index));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(slot_size: usize, num_slots: usize) -> Region {
        Region::with_stats(0, slot_size, num_slots, MemStats::default())
    }

    #[test]
    fn geometry() {
        let r = region(1024, 8);
        assert_eq!(r.len(), 8192);
        assert_eq!(r.slot_size(), 1024);
        assert_eq!(r.num_slots(), 8);
        assert_eq!(r.free_slots(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = region(1000, 4);
    }

    #[test]
    fn take_and_release_slots() {
        let r = region(64, 2);
        let a = r.take_slot().unwrap();
        let b = r.take_slot().unwrap();
        assert_ne!(a, b);
        assert!(r.take_slot().is_none(), "region should be exhausted");
        r.decref(a);
        assert_eq!(r.free_slots(), 1);
        let c = r.take_slot().unwrap();
        assert_eq!(c, a, "freed slot is reused");
        r.decref(b);
        r.decref(c);
        assert_eq!(r.free_slots(), 2);
    }

    #[test]
    fn refcounting() {
        let r = region(64, 1);
        let s = r.take_slot().unwrap();
        assert_eq!(r.refcount(s), 1);
        r.incref(s);
        assert_eq!(r.refcount(s), 2);
        r.decref(s);
        assert_eq!(r.refcount(s), 1);
        assert_eq!(r.free_slots(), 0, "still referenced");
        r.decref(s);
        assert_eq!(r.free_slots(), 1);
    }

    #[test]
    fn slots_are_low_to_high_and_disjoint() {
        let r = region(128, 4);
        let s0 = r.take_slot().unwrap();
        let s1 = r.take_slot().unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        let p0 = r.slot_ptr(s0) as u64;
        let p1 = r.slot_ptr(s1) as u64;
        assert_eq!(p1 - p0, 128);
    }

    #[test]
    fn contains_and_slot_of() {
        let r = region(256, 4);
        let base = r.base_addr();
        assert!(r.contains(base));
        assert!(r.contains(base + 1023));
        assert!(!r.contains(base + 1024));
        assert!(!r.contains(base.wrapping_sub(1)));
        assert_eq!(r.slot_of(base + 300), 1);
    }

    #[test]
    fn memory_is_zeroed_and_writable() {
        let r = region(64, 2);
        let s = r.take_slot().unwrap();
        let p = r.slot_ptr(s);
        // SAFETY: `s` is a live slot we exclusively hold; the 64-byte range
        // is in bounds.
        unsafe {
            assert_eq!(std::slice::from_raw_parts(p, 64), &[0u8; 64][..]);
            p.write(0xAB);
            assert_eq!(p.read(), 0xAB);
        }
        r.decref(s);
    }

    #[test]
    fn alignment() {
        for (slot_size, num_slots) in [(512, 4), (64, 3), (4096, 2), (16384, 1)] {
            let r = region(slot_size, num_slots);
            assert_eq!(r.base_addr() % REGION_ALIGN as u64, 0);
        }
        // Arena chunks, the current one and a dedicated oversized one, start
        // on a cache line.
        let arena = crate::Arena::with_chunk_size(64);
        for len in [1, 100] {
            assert_eq!(arena.copy_in(&vec![7; len]).addr() % 64, 0, "{len} B");
        }
    }
}
