//! Single-writer memory statistics.
//!
//! Every statistic is an `Arc<AtomicU64>` cell with exactly one writer: the
//! datapath core that owns the pool, registry or arena it describes (those
//! types are `!Send`; see the crate docs, "Who owns pinned memory"). The
//! owner updates a cell through `update` — a plain load and a plain store,
//! never a locked read-modify-write — and any thread may *read* a snapshot:
//! the cells are handed to a metrics registry (`cf-telemetry`'s
//! `register_external`), which loads them at snapshot time. They are atomics
//! behind `Arc`s rather than plain integers only so that such a reader can
//! hold them without `cf-mem` depending on the telemetry crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Statistics for a [`crate::Registry`] and the pool/regions behind it.
/// Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    /// Successful pool allocations.
    pub pool_allocs: Arc<AtomicU64>,
    /// Bytes handed out by successful pool allocations (requested sizes).
    pub pool_alloc_bytes: Arc<AtomicU64>,
    /// Slots released back to their region's free list.
    pub pool_frees: Arc<AtomicU64>,
    /// Allocations that failed with `AllocError::Exhausted`.
    pub pool_exhausted: Arc<AtomicU64>,
    /// Currently live (referenced) slots across all regions.
    pub live_slots: Arc<AtomicU64>,
    /// High-water mark of `live_slots`.
    pub live_slots_high_water: Arc<AtomicU64>,
    /// Regions registered over the registry's lifetime.
    pub regions_registered: Arc<AtomicU64>,
    /// Total bytes of registered region memory.
    pub registered_bytes: Arc<AtomicU64>,
    /// Per-slot refcount increments.
    pub increfs: Arc<AtomicU64>,
    /// Per-slot refcount decrements.
    pub decrefs: Arc<AtomicU64>,
    /// `recover_ptr` lookups attempted through the registry.
    pub recover_lookups: Arc<AtomicU64>,
    /// `recover_ptr` lookups that produced an `RcBuf`.
    pub recover_hits: Arc<AtomicU64>,
}

/// Replaces a cell's value `v` with `f(v)` and returns the new value.
///
/// This is the only way `cf-mem` writes a statistic. It is correct because
/// each cell has a single writer (see the module docs); on x86-64 and
/// AArch64 it compiles to a load, the arithmetic and a store, with no `lock`
/// prefix and no exclusive-monitor loop.
pub(crate) fn update(cell: &AtomicU64, f: impl FnOnce(u64) -> u64) -> u64 {
    let v = f(cell.load(Ordering::Relaxed));
    cell.store(v, Ordering::Relaxed);
    v
}

impl MemStats {
    /// Notes one slot becoming live, maintaining the high-water mark.
    pub(crate) fn slot_taken(&self) {
        let live = update(&self.live_slots, |v| v + 1);
        update(&self.live_slots_high_water, |hw| hw.max(live));
    }

    /// Notes one slot returning to the free list.
    pub(crate) fn slot_freed(&self) {
        update(&self.live_slots, |v| v - 1);
        update(&self.pool_frees, |v| v + 1);
    }

    /// All cells with their canonical metric names, for bulk registration
    /// into a metrics registry.
    pub fn cells(&self) -> Vec<(&'static str, Arc<AtomicU64>)> {
        [
            ("mem.pool.allocs", &self.pool_allocs),
            ("mem.pool.alloc_bytes", &self.pool_alloc_bytes),
            ("mem.pool.frees", &self.pool_frees),
            ("mem.pool.exhausted", &self.pool_exhausted),
            ("mem.pool.live_slots", &self.live_slots),
            (
                "mem.pool.live_slots_high_water",
                &self.live_slots_high_water,
            ),
            ("mem.registry.regions", &self.regions_registered),
            ("mem.registry.registered_bytes", &self.registered_bytes),
            ("mem.rcbuf.increfs", &self.increfs),
            ("mem.rcbuf.decrefs", &self.decrefs),
            ("mem.registry.recover_lookups", &self.recover_lookups),
            ("mem.registry.recover_hits", &self.recover_hits),
        ]
        .map(|(name, cell)| (name, Arc::clone(cell)))
        .into()
    }
}

/// Statistics for one [`crate::Arena`]. Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct ArenaStats {
    /// `copy_in` calls.
    pub copies: Arc<AtomicU64>,
    /// Bytes copied into the arena.
    pub bytes_copied: Arc<AtomicU64>,
    /// Chunks allocated (including the initial one and oversized chunks).
    pub chunks_allocated: Arc<AtomicU64>,
    /// `reset` calls.
    pub resets: Arc<AtomicU64>,
}

impl ArenaStats {
    /// All cells with their canonical metric names.
    pub fn cells(&self) -> Vec<(&'static str, Arc<AtomicU64>)> {
        [
            ("mem.arena.copies", &self.copies),
            ("mem.arena.bytes_copied", &self.bytes_copied),
            ("mem.arena.chunks_allocated", &self.chunks_allocated),
            ("mem.arena.resets", &self.resets),
        ]
        .map(|(name, cell)| (name, Arc::clone(cell)))
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_tracks_peak() {
        let s = MemStats::default();
        s.slot_taken();
        s.slot_taken();
        s.slot_taken();
        s.slot_freed();
        s.slot_freed();
        assert_eq!(s.live_slots.load(Ordering::Relaxed), 1);
        assert_eq!(s.live_slots_high_water.load(Ordering::Relaxed), 3);
        assert_eq!(s.pool_frees.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clones_share_cells() {
        let a = MemStats::default();
        let b = a.clone();
        update(&a.increfs, |v| v + 5);
        assert_eq!(b.increfs.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn cell_names_are_unique() {
        let names: Vec<&str> = MemStats::default()
            .cells()
            .into_iter()
            .map(|(n, _)| n)
            .chain(ArenaStats::default().cells().into_iter().map(|(n, _)| n))
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
