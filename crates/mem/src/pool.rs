//! The pinned memory allocator.
//!
//! The Cornflakes networking stack includes "a pinned memory allocator ...
//! that allocates power-of-two-sized objects" (paper §4). [`PinnedPool`]
//! implements it as a size-class slab allocator over registered
//! [`crate::region::Region`]s: each class holds regions whose slots are one
//! power-of-two size; allocation pops a free slot from the smallest class
//! that fits, growing the class with a fresh region on exhaustion (up to a
//! configurable cap).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::rcbuf::RcBuf;
use crate::region::Region;
use crate::registry::Registry;
use crate::stats::update;

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Requested size exceeds the largest size class.
    SizeTooLarge {
        /// The rejected request size.
        requested: usize,
        /// The largest supported allocation.
        max: usize,
    },
    /// All regions of the class are full and the region cap was reached.
    Exhausted {
        /// The size class that ran out.
        class: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::SizeTooLarge { requested, max } => {
                write!(f, "allocation of {requested} bytes exceeds max class {max}")
            }
            AllocError::Exhausted { class } => {
                write!(f, "size class {class} exhausted (region cap reached)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Pool geometry.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Smallest slot size (power of two).
    pub min_class: usize,
    /// Largest slot size (power of two). The paper's prototype supports up
    /// to a jumbo frame; 16 KiB leaves headroom for headers.
    pub max_class: usize,
    /// Slots per region.
    pub slots_per_region: usize,
    /// Maximum regions per class before `alloc` reports exhaustion.
    pub max_regions_per_class: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            min_class: 64,
            max_class: 16 * 1024,
            slots_per_region: 1024,
            max_regions_per_class: 64,
        }
    }
}

impl PoolConfig {
    /// A small configuration for unit tests.
    pub fn small_for_tests() -> Self {
        PoolConfig {
            min_class: 64,
            max_class: 8 * 1024,
            slots_per_region: 8,
            max_regions_per_class: 8,
        }
    }
}

struct SizeClass {
    slot_size: usize,
    regions: Vec<Rc<Region>>,
    /// Allocation hint, shared with every region of the class: no region
    /// below this index has a free slot. A region lowers it to its own index
    /// when a slot frees there; `alloc` raises it past the regions it found
    /// full.
    first_free: Rc<Cell<usize>>,
}

/// A pinned, registered, size-class slab allocator.
pub struct PinnedPool {
    registry: Registry,
    config: PoolConfig,
    classes: RefCell<Vec<SizeClass>>,
}

impl PinnedPool {
    /// Creates a pool whose regions are registered with `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not power-of-two sized or empty.
    pub fn new(registry: Registry, config: PoolConfig) -> Self {
        assert!(config.min_class.is_power_of_two() && config.max_class.is_power_of_two());
        assert!(config.min_class <= config.max_class);
        assert!(config.slots_per_region > 0 && config.max_regions_per_class > 0);
        let mut classes = Vec::new();
        let mut size = config.min_class;
        while size <= config.max_class {
            classes.push(SizeClass {
                slot_size: size,
                regions: Vec::new(),
                first_free: Rc::default(),
            });
            size *= 2;
        }
        PinnedPool {
            registry,
            config,
            classes: RefCell::new(classes),
        }
    }

    /// The registry this pool registers regions with.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Allocates a pinned buffer of exactly `size` bytes (the backing slot
    /// is the smallest power-of-two class that fits). The returned `RcBuf`
    /// holds the slot's only reference.
    pub fn alloc(&self, size: usize) -> Result<RcBuf, AllocError> {
        let size = size.max(1);
        if size > self.config.max_class {
            return Err(AllocError::SizeTooLarge {
                requested: size,
                max: self.config.max_class,
            });
        }
        let mut classes = self.classes.borrow_mut();
        let class = &mut classes[class_index(self.config.min_class, size)];
        let stats = self.registry.stats();
        // Fast path: the lowest-indexed region with a free slot and, within
        // it, the most recently freed one. The regions below the hint are
        // full and are not visited.
        let hint = class.first_free.get();
        let mut candidates = class.regions.iter().enumerate().skip(hint);
        let (at, slot) = match candidates.find_map(|(at, r)| Some((at, r.take_slot()?))) {
            Some(found) => found,
            // Slow path: grow the class.
            None if class.regions.len() < self.config.max_regions_per_class => {
                let slots = self.config.slots_per_region;
                let region = self.registry.register_region(class.slot_size, slots);
                region.join_class(class.regions.len(), Rc::clone(&class.first_free));
                let slot = region.take_slot().expect("fresh region has free slots");
                class.regions.push(region);
                (class.regions.len() - 1, slot)
            }
            None => {
                class.first_free.set(class.regions.len());
                update(&stats.pool_exhausted, |v| v + 1);
                return Err(AllocError::Exhausted {
                    class: class.slot_size,
                });
            }
        };
        class.first_free.set(at);
        update(&stats.pool_allocs, |v| v + 1);
        update(&stats.pool_alloc_bytes, |v| v + size as u64);
        let region = Rc::clone(&class.regions[at]);
        Ok(RcBuf::from_counted(region, slot, 0, size as u32))
    }

    /// Allocates a buffer and copies `data` into it — the "copy into
    /// DMA-safe memory" path for data that did not originate in the pool.
    pub fn alloc_from(&self, data: &[u8]) -> Result<RcBuf, AllocError> {
        let mut buf = self.alloc(data.len())?;
        buf.write_at(0, data);
        Ok(buf)
    }

    /// Total bytes of registered region memory currently owned by the pool.
    pub fn registered_bytes(&self) -> usize {
        self.sum_over_regions(Region::len)
    }

    /// Number of live (referenced) slots across all regions; diagnostic.
    pub fn live_slots(&self) -> usize {
        self.sum_over_regions(|r| r.num_slots() - r.free_slots())
    }

    fn sum_over_regions(&self, f: impl Fn(&Region) -> usize) -> usize {
        let classes = self.classes.borrow();
        let regions = classes.iter().flat_map(|c| c.regions.iter());
        regions.map(|r| f(r)).sum()
    }
}

impl fmt::Debug for PinnedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinnedPool")
            .field("registered_bytes", &self.registered_bytes())
            .field("live_slots", &self.live_slots())
            .finish()
    }
}

/// Index of the smallest class (with minimum size `min_class`) that fits
/// `size`.
fn class_index(min_class: usize, size: usize) -> usize {
    let needed = size.next_power_of_two().max(min_class);
    (needed.trailing_zeros() - min_class.trailing_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PinnedPool {
        PinnedPool::new(Registry::new(), PoolConfig::small_for_tests())
    }

    #[test]
    fn class_index_selects_smallest_fit() {
        assert_eq!(class_index(64, 1), 0);
        assert_eq!(class_index(64, 64), 0);
        assert_eq!(class_index(64, 65), 1);
        assert_eq!(class_index(64, 128), 1);
        assert_eq!(class_index(64, 129), 2);
        assert_eq!(class_index(64, 8192), 7);
    }

    #[test]
    fn alloc_exact_len_rounded_slot() {
        let p = pool();
        let b = p.alloc(100).unwrap();
        assert_eq!(b.len(), 100);
        assert_eq!(b.slot_capacity(), 128);
    }

    #[test]
    fn alloc_zero_becomes_one() {
        let p = pool();
        let b = p.alloc(0).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn too_large_rejected() {
        let p = pool();
        let err = p.alloc(1 << 20).unwrap_err();
        assert!(matches!(err, AllocError::SizeTooLarge { .. }));
    }

    #[test]
    fn grows_regions_on_demand() {
        let p = pool();
        // 8 slots per region: allocate 9 buffers of one class.
        let bufs: Vec<_> = (0..9).map(|_| p.alloc(64).unwrap()).collect();
        assert_eq!(bufs.len(), 9);
        assert!(p.registry().num_regions() >= 2);
    }

    #[test]
    fn exhaustion_reported() {
        let cfg = PoolConfig {
            slots_per_region: 2,
            max_regions_per_class: 1,
            ..PoolConfig::small_for_tests()
        };
        let p = PinnedPool::new(Registry::new(), cfg);
        let _a = p.alloc(64).unwrap();
        let _b = p.alloc(64).unwrap();
        assert!(matches!(
            p.alloc(64),
            Err(AllocError::Exhausted { class: 64 })
        ));
    }

    #[test]
    fn freed_buffers_recycle() {
        let p = pool();
        let addrs: Vec<u64> = (0..8).map(|_| p.alloc(64).unwrap().addr()).collect();
        // All dropped immediately; the same 8 slots should satisfy new
        // requests without growing.
        let again: Vec<u64> = (0..8).map(|_| p.alloc(64).unwrap().addr()).collect();
        let mut a = addrs.clone();
        let mut b = again.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(p.registry().num_regions(), 1);
    }

    #[test]
    fn alloc_from_copies() {
        let p = pool();
        let b = p.alloc_from(b"payload bytes").unwrap();
        assert_eq!(&*b, b"payload bytes");
    }

    #[test]
    fn allocations_are_recoverable() {
        let reg = Registry::new();
        let p = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = p.alloc(512).unwrap();
        let r = reg.recover_addr(b.addr() + 100, 10).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(b.refcount(), 2);
    }

    #[test]
    fn live_slots_tracks() {
        let p = pool();
        assert_eq!(p.live_slots(), 0);
        let a = p.alloc(64).unwrap();
        let b = p.alloc(4096).unwrap();
        assert_eq!(p.live_slots(), 2);
        drop(a);
        assert_eq!(p.live_slots(), 1);
        drop(b);
        assert_eq!(p.live_slots(), 0);
    }

    #[test]
    fn exhausted_class_resumes_in_the_lowest_region_that_frees() {
        let cfg = PoolConfig {
            slots_per_region: 2,
            max_regions_per_class: 3,
            ..PoolConfig::small_for_tests()
        };
        let p = PinnedPool::new(Registry::new(), cfg);
        let mut bufs: Vec<_> = (0..6).map(|_| p.alloc(64).unwrap()).collect();
        for _ in 0..2 {
            assert!(matches!(
                p.alloc(64),
                Err(AllocError::Exhausted { class: 64 })
            ));
        }
        assert_eq!(p.registry().stats().pool_exhausted.load(Relaxed), 2);
        // Free one slot of the last region, then one of the first: the
        // first region's is handed out first.
        let (first, last) = (bufs.remove(1).addr(), bufs.pop().unwrap().addr());
        let again: Vec<_> = (0..2).map(|_| p.alloc(64).unwrap()).collect();
        assert_eq!((again[0].addr(), again[1].addr()), (first, last));
    }

    // Property tests over arbitrary buffer lifecycles: the allocator against
    // the one it replaced, and the statistic cells against a recount.

    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering::Relaxed;

    #[derive(Clone, Debug)]
    enum Op {
        Alloc(usize),
        Clone(usize),
        Slice(usize, usize, usize),
        Drop(usize),
        Recover(usize, usize, usize),
    }

    /// Sequences over two size classes, alloc-heavy so that regions fill,
    /// with enough drops to leave holes in the early ones. Each starts with
    /// twenty 64 B allocations: the class spills over three 8-slot regions.
    fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (1usize..=128).prop_map(Op::Alloc),
            (1usize..=128).prop_map(Op::Alloc),
            (1usize..=64).prop_map(Op::Alloc),
            any::<usize>().prop_map(Op::Clone),
            (any::<usize>(), 0usize..128, 0usize..128).prop_map(|(i, s, l)| Op::Slice(i, s, l)),
            any::<usize>().prop_map(Op::Drop),
            any::<usize>().prop_map(Op::Drop),
            (any::<usize>(), 0usize..128, 1usize..128).prop_map(|(i, o, l)| Op::Recover(i, o, l)),
        ];
        proptest::collection::vec(op, 1..200).prop_map(|ops| {
            let prologue = std::iter::repeat_n(Op::Alloc(64), 20);
            prologue.chain(ops).collect()
        })
    }

    /// A pool, its registry and the buffers a sequence has live.
    struct World {
        reg: Registry,
        pool: PinnedPool,
        live: Vec<RcBuf>,
    }

    impl World {
        fn new() -> Self {
            let reg = Registry::new();
            let pool = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
            let live = Vec::new();
            World { reg, pool, live }
        }

        /// Applies `op`, allocating through `alloc`. Returns the
        /// `(region id, slot)` of the buffer it produced, if it produced one.
        fn apply(
            &mut self,
            op: &Op,
            alloc: fn(&PinnedPool, usize) -> Result<RcBuf, AllocError>,
        ) -> Option<(u32, u32)> {
            let live = &self.live;
            let pick = |i: usize| (!live.is_empty()).then(|| &live[i % live.len()]);
            let made = match *op {
                Op::Alloc(size) => alloc(&self.pool, size).ok(),
                Op::Clone(i) => pick(i).cloned(),
                Op::Slice(i, start, len) => pick(i).map(|b| {
                    let start = start % b.len().max(1);
                    b.slice(start, len.min(b.len() - start))
                }),
                Op::Recover(i, offset, len) => pick(i).and_then(|b| {
                    let addr = b.addr() + (offset % b.len().max(1)) as u64;
                    self.reg.recover_addr(addr, len)
                }),
                Op::Drop(i) => {
                    if !live.is_empty() {
                        self.live.swap_remove(i % self.live.len());
                    }
                    None
                }
            };
            let place = made.as_ref().map(|b| {
                let region = self.reg.region_of(b.addr()).expect("live, so registered");
                (region.id(), region.slot_of(b.addr()))
            });
            self.live.extend(made);
            place
        }
    }

    /// The allocator `PinnedPool::alloc` replaced, kept as the oracle of the
    /// differential test: ask every region of the class, in order, until one
    /// yields a slot; grow the class when none does.
    fn alloc_asking_every_region(pool: &PinnedPool, size: usize) -> Result<RcBuf, AllocError> {
        let size = size.max(1);
        if size > pool.config.max_class {
            return Err(AllocError::SizeTooLarge {
                requested: size,
                max: pool.config.max_class,
            });
        }
        let mut classes = pool.classes.borrow_mut();
        let class = &mut classes[class_index(pool.config.min_class, size)];
        for region in &class.regions {
            if let Some(slot) = region.take_slot() {
                return Ok(RcBuf::from_counted(Rc::clone(region), slot, 0, size as u32));
            }
        }
        if class.regions.len() >= pool.config.max_regions_per_class {
            return Err(AllocError::Exhausted {
                class: class.slot_size,
            });
        }
        let region = pool
            .registry
            .register_region(class.slot_size, pool.config.slots_per_region);
        let slot = region.take_slot().expect("fresh region has free slots");
        class.regions.push(Rc::clone(&region));
        Ok(RcBuf::from_counted(region, slot, 0, size as u32))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hint changes which regions `alloc` visits, never which slot
        /// it returns: same `(region id, slot)` as the full scan, every time.
        #[test]
        fn hinted_alloc_picks_what_the_full_scan_picks(ops in op_sequences()) {
            let (mut hinted, mut scanned) = (World::new(), World::new());
            for op in &ops {
                let got = hinted.apply(op, PinnedPool::alloc);
                let want = scanned.apply(op, alloc_asking_every_region);
                prop_assert_eq!(got, want, "{:?}", op);
                for class in hinted.pool.classes.borrow().iter() {
                    let below_hint = class.regions.iter().take(class.first_free.get());
                    prop_assert!(below_hint.map(|r| r.free_slots()).sum::<usize>() == 0);
                }
            }
            prop_assert!(hinted.reg.num_regions() >= 3);
        }

        /// The single-writer cells count exactly what `fetch_add` /
        /// `fetch_sub` / `fetch_max` counted.
        #[test]
        fn stat_cells_match_a_recount(ops in op_sequences()) {
            let mut w = World::new();
            let stats = w.reg.stats().clone();
            let read = |cell: &std::sync::atomic::AtomicU64| cell.load(Relaxed);
            let (mut peak, mut lookups, mut hits, mut bytes, mut exhausted) = (0, 0, 0, 0, 0);
            for op in &ops {
                let had_live = !w.live.is_empty();
                let made = w.apply(op, PinnedPool::alloc).is_some();
                match *op {
                    Op::Alloc(size) if made => bytes += size as u64,
                    Op::Alloc(_) => exhausted += 1,
                    Op::Recover(..) if had_live => {
                        lookups += 1;
                        hits += made as u64;
                    }
                    _ => {}
                }
                let live_slots = read(&stats.live_slots);
                peak = peak.max(live_slots);
                prop_assert_eq!(read(&stats.pool_allocs) - read(&stats.pool_frees), live_slots);
                prop_assert_eq!(w.pool.live_slots() as u64, live_slots);
                prop_assert_eq!(read(&stats.live_slots_high_water), peak);
                // Every handle holds one count of its slot.
                let slots: BTreeMap<u64, u32> =
                    w.live.iter().map(|b| (b.refcount_addr(), b.refcount())).collect();
                let counts: u64 = slots.values().map(|&c| c as u64).sum();
                prop_assert_eq!(counts, w.live.len() as u64);
                prop_assert_eq!(
                    read(&stats.pool_allocs) + read(&stats.increfs) - read(&stats.decrefs),
                    counts
                );
                prop_assert_eq!(read(&stats.pool_alloc_bytes), bytes);
                prop_assert_eq!(read(&stats.pool_exhausted), exhausted);
                prop_assert_eq!(read(&stats.recover_lookups), lookups);
                prop_assert_eq!(read(&stats.recover_hits), hits);
                prop_assert!(hits <= lookups);
            }
            w.live.clear();
            prop_assert_eq!(read(&stats.live_slots), 0);
            prop_assert_eq!(w.pool.live_slots(), 0);
            prop_assert_eq!(read(&stats.pool_allocs), read(&stats.pool_frees));
            prop_assert_eq!(read(&stats.pool_allocs) + read(&stats.increfs), read(&stats.decrefs));
            prop_assert_eq!(read(&stats.live_slots_high_water), peak);
            prop_assert_eq!(
                read(&stats.registered_bytes),
                w.pool.registered_bytes() as u64
            );
            prop_assert_eq!(read(&stats.regions_registered), w.reg.num_regions() as u64);
        }
    }
}
