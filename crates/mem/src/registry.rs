//! The pinned-region registry: address-range lookup for `recover_ptr`.
//!
//! Memory transparency (paper §2.3, §3.2.2) requires mapping an *arbitrary*
//! application pointer back to the pinned region that contains it — or
//! discovering that no region does, in which case the data must be copied.
//! The registry keeps registered regions in an array sorted by base address;
//! recovery is a predecessor search (skipped when the address falls in the
//! region the previous lookup found) plus a bounds check plus slot
//! arithmetic, mirroring the "map lookup and fast arithmetic operation" the
//! paper describes.

use std::cell::RefCell;
use std::rc::Rc;

use crate::rcbuf::RcBuf;
use crate::region::Region;
use crate::stats::{update, MemStats};

/// Registry of one datapath core's pinned regions. Cheap to clone; clones
/// share the region table and the statistics.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
    stats: MemStats,
}

#[derive(Debug, Default)]
struct Inner {
    /// `(base address, region)`, ordered by base address. The base sits
    /// beside the handle so that a search reads this array only.
    by_base: Vec<(u64, Rc<Region>)>,
    /// Index in `by_base` of the last lookup hit, tried before searching.
    /// Only a hint: registering may leave it pointing at another entry, so
    /// it is checked like any other.
    last_hit: usize,
    next_id: u32,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared statistics cells for this registry, its regions, and the
    /// pools allocating from it.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Allocates and registers a new region.
    pub fn register_region(&self, slot_size: usize, num_slots: usize) -> Rc<Region> {
        let mut inner = self.inner.borrow_mut();
        let region = Rc::new(Region::with_stats(
            inner.next_id,
            slot_size,
            num_slots,
            self.stats.clone(),
        ));
        inner.next_id += 1;
        let base = region.base_addr();
        let at = inner.by_base.partition_point(|&(b, _)| b < base);
        inner.by_base.insert(at, (base, Rc::clone(&region)));
        update(&self.stats.regions_registered, |v| v + 1);
        update(&self.stats.registered_bytes, |v| v + region.len() as u64);
        region
    }

    /// Number of registered regions.
    pub fn num_regions(&self) -> usize {
        self.inner.borrow().by_base.len()
    }

    /// A stable address representing the registry's range-map storage, used
    /// by upper layers to charge the metadata cache line touched by a
    /// `recover_ptr` lookup.
    pub fn meta_addr(&self) -> u64 {
        Rc::as_ptr(&self.inner) as u64
    }

    /// Looks up the region containing `addr`, if any.
    pub fn region_of(&self, addr: u64) -> Option<Rc<Region>> {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            by_base, last_hit, ..
        } = &mut *inner;
        let holds = |at: usize| by_base.get(at).is_some_and(|(_, r)| r.contains(addr));
        if !holds(*last_hit) {
            // Predecessor search: the last region starting at or below `addr`.
            let after = by_base.partition_point(|&(base, _)| base <= addr);
            *last_hit = after.checked_sub(1).filter(|&at| holds(at))?;
        }
        Some(Rc::clone(&by_base[*last_hit].1))
    }

    /// The paper's `recover_ptr` (Listing 2): reconstructs an `RcBuf` for
    /// the `len` bytes at `addr`, incrementing the owning slot's reference
    /// count.
    ///
    /// Returns `None` — meaning "copy instead" — when the range is not fully
    /// inside a single slot of a registered region. (A zero-copy DMA entry
    /// must reference one contiguous registered allocation.)
    pub fn recover_addr(&self, addr: u64, len: usize) -> Option<RcBuf> {
        update(&self.stats.recover_lookups, |v| v + 1);
        if len == 0 {
            return None;
        }
        let region = self.region_of(addr)?;
        let slot = region.slot_of(addr);
        let slot_base = region.base_addr() + slot as u64 * region.slot_size() as u64;
        let offset = (addr - slot_base) as usize;
        // Straddles a slot boundary (a sum that overflows certainly does):
        // not a single allocation.
        if offset.checked_add(len)? > region.slot_size() {
            return None;
        }
        let (offset, len) = (u32::try_from(offset).ok()?, u32::try_from(len).ok()?);
        // Freed slots are unrecoverable: a zero refcount means the pointer
        // is dangling into the pool's free memory.
        if region.refcount(slot) == 0 {
            return None;
        }
        region.incref(slot);
        update(&self.stats.recover_hits, |v| v + 1);
        Some(RcBuf::from_counted(region, slot, offset, len))
    }

    /// Convenience wrapper over [`Registry::recover_addr`] for slices.
    pub fn recover(&self, data: &[u8]) -> Option<RcBuf> {
        self.recover_addr(data.as_ptr() as u64, data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PinnedPool, PoolConfig};

    #[test]
    fn recover_interior_pointer() {
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let mut b = pool.alloc(512).unwrap();
        b.write_at(0, b"0123456789");
        let slice = &b.as_slice()[4..8];
        let recovered = reg.recover(slice).expect("interior pointer recovers");
        assert_eq!(&*recovered, b"4567");
        assert_eq!(b.refcount(), 2);
        drop(recovered);
        assert_eq!(b.refcount(), 1);
    }

    #[test]
    fn unregistered_memory_not_recovered() {
        let reg = Registry::new();
        let heap = vec![0u8; 256];
        assert!(reg.recover(&heap).is_none());
        assert!(reg.region_of(heap.as_ptr() as u64).is_none());
    }

    #[test]
    fn zero_len_not_recovered() {
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = pool.alloc(64).unwrap();
        assert!(reg.recover_addr(b.addr(), 0).is_none());
    }

    #[test]
    fn straddling_slot_boundary_not_recovered() {
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = pool.alloc(64).unwrap();
        // 64-byte class slots: a 128-byte range starting at the buffer
        // start cannot be one allocation.
        let slot_cap = b.slot_capacity();
        assert!(reg.recover_addr(b.addr(), slot_cap + 1).is_none());
    }

    #[test]
    fn recover_refuses_lengths_whose_end_wraps() {
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = pool.alloc(64).unwrap();
        let past_u32 = u32::MAX as usize + 1;
        for (offset, len) in [
            (1, usize::MAX),
            (8, usize::MAX - 8 + 1),
            (63, usize::MAX - 63 + 1),
            (0, usize::MAX),
            (0, past_u32),
            (1, past_u32),
        ] {
            let r = reg.recover_addr(b.addr() + offset, len);
            assert!(r.is_none(), "({offset}, {len}) recovered {r:?}");
        }
        assert_eq!(b.refcount(), 1, "a refused recovery takes no reference");
    }

    #[test]
    fn freed_slot_not_recovered() {
        let reg = Registry::new();
        let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = pool.alloc(64).unwrap();
        let addr = b.addr();
        drop(b);
        assert!(
            reg.recover_addr(addr, 16).is_none(),
            "dangling pointer must not recover"
        );
    }

    #[test]
    fn region_of_boundaries() {
        let reg = Registry::new();
        let region = reg.register_region(256, 4);
        let base = region.base_addr();
        assert!(reg.region_of(base).is_some());
        assert!(reg.region_of(base + 1023).is_some());
        assert!(
            reg.region_of(base + 1024).is_none() || {
                // Another region could legitimately start right after; only
                // assert it is not *this* region.
                reg.region_of(base + 1024).unwrap().base_addr() != base
            }
        );
    }

    #[test]
    fn multiple_regions_lookup_correctly() {
        let reg = Registry::new();
        let r1 = reg.register_region(64, 4);
        let r2 = reg.register_region(4096, 2);
        assert_eq!(reg.num_regions(), 2);
        assert_eq!(reg.region_of(r1.base_addr() + 10).unwrap().id(), r1.id());
        assert_eq!(reg.region_of(r2.base_addr() + 10).unwrap().id(), r2.id());
    }

    #[test]
    fn lookups_alternate_between_two_regions() {
        let reg = Registry::new();
        let (r1, r2) = (reg.register_region(64, 4), reg.register_region(64, 4));
        for i in 0..8u64 {
            // Each lookup lands in the region the previous one did not
            // cache, then once more in the cached one.
            for r in [&r1, &r2, &r2, &r1] {
                assert_eq!(reg.region_of(r.base_addr() + i * 17).unwrap().id(), r.id());
            }
        }
    }

    #[test]
    fn one_past_the_cached_regions_end_misses() {
        let reg = Registry::new();
        let region = reg.register_region(256, 4);
        let end = region.base_addr() + region.len() as u64;
        assert!(reg.region_of(end - 1).is_some(), "caches the region");
        assert!(reg.region_of(end).is_none(), "one past the end");
        assert!(reg.recover_addr(end, 1).is_none());
        assert!(reg.region_of(region.base_addr().wrapping_sub(1)).is_none());
        assert!(
            reg.region_of(end - 1).is_some(),
            "misses leave the cache intact"
        );
    }
}
