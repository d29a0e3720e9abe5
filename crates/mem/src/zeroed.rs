//! Zeroed host memory at any power-of-two alignment, resident only where it
//! is written.
//!
//! Std's `System` serves `alloc_zeroed` with `calloc` only while the
//! alignment is at most the platform minimum (16 on x86-64 and aarch64);
//! above that it calls `posix_memalign` and then writes zeroes over every
//! byte, so every page of the block becomes host-resident at once. A
//! [`ZeroedBlock`] always asks at alignment 16 — the `calloc` path, whose
//! large blocks are fresh kernel pages, zero and unmapped until first touched
//! — for up to `align` bytes more than it needs, and aligns its base by
//! offset.

use std::alloc::{alloc_zeroed, dealloc, Layout};

/// The alignment every block is allocated at: the largest `System` still
/// serves with `calloc`.
const CALLOC_ALIGN: usize = 16;

/// One zeroed allocation whose [`base`](ZeroedBlock::base) is aligned to the
/// alignment it was created with. Freed on drop.
#[derive(Debug)]
pub(crate) struct ZeroedBlock {
    /// What the allocator returned, freed with `layout`.
    raw: *mut u8,
    layout: Layout,
    /// `raw` rounded up to the requested alignment: the block's first usable
    /// byte, followed by at least `size` zeroed bytes.
    base: *mut u8,
}

impl ZeroedBlock {
    /// Allocates `size` zeroed bytes starting at a multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, `align` is not a power of two, the padded
    /// size overflows, or the allocation fails.
    pub(crate) fn new(size: usize, align: usize) -> Self {
        assert!(size > 0, "a zeroed block holds at least one byte");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        // The allocator returns a multiple of `CALLOC_ALIGN`, so the base is
        // at most `align - CALLOC_ALIGN` bytes further on.
        let slack = align.saturating_sub(CALLOC_ALIGN);
        let padded = size.checked_add(slack).expect("block size overflows usize");
        let layout = Layout::from_size_align(padded, CALLOC_ALIGN).expect("bad block layout");
        // SAFETY: `layout` has non-zero size (`size > 0`) and a valid
        // alignment; a null return is handled by the explicit panic.
        let raw = unsafe { alloc_zeroed(layout) };
        assert!(!raw.is_null(), "allocation of {padded} zeroed bytes failed");
        // `pad <= slack`, so `[base, base + size)` lies inside the block.
        let pad = raw.addr().wrapping_neg() & (align - 1);
        ZeroedBlock {
            raw,
            layout,
            base: raw.wrapping_add(pad),
        }
    }

    /// The first usable byte, aligned as requested.
    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }
}

impl Drop for ZeroedBlock {
    fn drop(&mut self) {
        // SAFETY: `raw` was allocated in `new` with exactly `layout` and is
        // freed only here, once.
        unsafe { dealloc(self.raw, self.layout) };
    }
}
