//! Reference-counted views into pinned region slots.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::region::Region;

/// A reference-counted view of (part of) a pinned buffer slot — the paper's
/// `RcBuf` (Listing 2).
///
/// An `RcBuf` keeps its slot's reference count positive for as long as it
/// (or any clone) lives. The simulated NIC clones the `RcBuf` when a
/// scatter-gather entry is posted and drops it on completion, which is what
/// provides Cornflakes's use-after-free guarantee: an application may drop
/// its own reference immediately after `send_object` and the memory stays
/// alive until transmission (and, over TCP, retransmission) finishes.
///
/// `RcBuf` dereferences to `&[u8]`. Writes go through [`RcBuf::write_at`] /
/// [`RcBuf::fill`]; per the paper's memory model (§3, goal 1) Cornflakes
/// does **not** protect against the application mutating a buffer that is
/// concurrently being sent — compatible applications replace updates with
/// new allocations and pointer swaps.
pub struct RcBuf {
    region: Rc<Region>,
    slot: u32,
    offset: u32,
    len: u32,
}

/// Whether `[start, start + len)` lies within `[0, cap)`. The sum is checked:
/// release builds wrap `start + len`, and a wrapped sum passes any bound.
fn fits(start: usize, len: usize, cap: usize) -> bool {
    start.checked_add(len).is_some_and(|end| end <= cap)
}

impl RcBuf {
    /// Creates an `RcBuf` that owns one reference which was already counted
    /// (e.g. the count set by [`Region::take_slot`] or added by
    /// [`Region::incref`]).
    pub(crate) fn from_counted(region: Rc<Region>, slot: u32, offset: u32, len: u32) -> Self {
        debug_assert!(offset as usize + len as usize <= region.slot_size());
        debug_assert!(region.refcount(slot) > 0);
        RcBuf {
            region,
            slot,
            offset,
            len,
        }
    }

    /// Length of this view in bytes.
    #[allow(clippy::len_without_is_empty)] // `is_empty` provided below.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the first byte of this view.
    pub fn addr(&self) -> u64 {
        self.region.base_addr()
            + self.slot as u64 * self.region.slot_size() as u64
            + self.offset as u64
    }

    /// Raw pointer to the first byte of this view.
    pub fn as_ptr(&self) -> *const u8 {
        self.addr() as *const u8
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the `Rc<Region>` in `self` keeps the region's memory
        // allocated and the slot count `self` holds keeps the slot off the
        // free list; offset+len were bounds-checked at construction. No
        // other thread can touch the bytes (`RcBuf` is `!Send + !Sync`), and
        // on this one the Cornflakes memory model excludes mutation under a
        // reader (no in-place writes to buffers that have been sent).
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len as usize) }
    }

    /// Copies `src` into the view at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the end of the view.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) {
        assert!(
            fits(offset, src.len(), self.len as usize),
            "write of {} bytes at {offset} exceeds RcBuf of {}",
            src.len(),
            self.len
        );
        // SAFETY: range checked above; the destination is inside our live
        // slot. `&mut self` prevents overlapping writes through this view.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                (self.addr() as *mut u8).add(offset),
                src.len(),
            );
        }
    }

    /// Fills the whole view with `byte`.
    pub fn fill(&mut self, byte: u8) {
        // SAFETY: the view's full range is inside our live slot.
        unsafe { std::ptr::write_bytes(self.addr() as *mut u8, byte, self.len as usize) }
    }

    /// Returns a new `RcBuf` referencing `[start, start + len)` within this
    /// view (incrementing the slot refcount).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn slice(&self, start: usize, len: usize) -> RcBuf {
        assert!(fits(start, len, self.len as usize), "slice out of range");
        self.region.incref(self.slot);
        RcBuf {
            region: Rc::clone(&self.region),
            slot: self.slot,
            offset: self.offset + start as u32,
            len: len as u32,
        }
    }

    /// Shrinks the view in place to its first `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len as usize);
        self.len = len as u32;
    }

    /// Current reference count of the underlying slot.
    pub fn refcount(&self) -> u32 {
        self.region.refcount(self.slot)
    }

    /// Address of the slot's reference count — the metadata line that upper
    /// layers charge cache costs against when incrementing/decrementing.
    pub fn refcount_addr(&self) -> u64 {
        self.region.refcount_addr(self.slot)
    }

    /// Capacity of the underlying slot (the allocator's power-of-two size).
    pub fn slot_capacity(&self) -> usize {
        self.region.slot_size()
    }
}

impl Clone for RcBuf {
    fn clone(&self) -> Self {
        self.region.incref(self.slot);
        RcBuf {
            region: Rc::clone(&self.region),
            slot: self.slot,
            offset: self.offset,
            len: self.len,
        }
    }
}

impl Drop for RcBuf {
    fn drop(&mut self) {
        self.region.decref(self.slot);
    }
}

impl Deref for RcBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for RcBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for RcBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RcBuf")
            .field("region", &self.region.id())
            .field("slot", &self.slot)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("refcount", &self.refcount())
            .finish()
    }
}

impl PartialEq for RcBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for RcBuf {}

/// `(offset, length)` of writes whose end wraps `usize` (and one whose
/// offset an `as u32` would cut to zero): release builds must refuse them too.
#[cfg(test)]
pub(crate) const WRAPPING_WRITES: [(usize, usize); 4] = [
    (usize::MAX, 1),
    (usize::MAX - 16 + 1, 16),
    (usize::MAX - 3, 8),
    (u32::MAX as usize + 1, 8),
];

/// Runs `f`, which must panic, and returns its panic message.
#[cfg(test)]
pub(crate) fn panic_message<R>(f: impl FnOnce() -> R) -> String {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    let payload = caught.err().expect("the call must panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast::<&str>()
            .expect("a string panic")
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::{panic_message, WRAPPING_WRITES};
    use crate::pool::{PinnedPool, PoolConfig};
    use crate::registry::Registry;

    fn pool() -> PinnedPool {
        PinnedPool::new(Registry::new(), PoolConfig::small_for_tests())
    }

    #[test]
    fn write_and_read_roundtrip() {
        let p = pool();
        let mut b = p.alloc(128).unwrap();
        b.write_at(0, b"hello");
        b.write_at(5, b" world");
        assert_eq!(&b[..11], b"hello world");
    }

    #[test]
    fn clone_bumps_refcount_and_drop_releases() {
        let p = pool();
        let b = p.alloc(64).unwrap();
        assert_eq!(b.refcount(), 1);
        let c = b.clone();
        assert_eq!(b.refcount(), 2);
        drop(c);
        assert_eq!(b.refcount(), 1);
    }

    #[test]
    fn slot_reused_only_after_last_drop() {
        let cfg = PoolConfig {
            slots_per_region: 1,
            ..PoolConfig::small_for_tests()
        };
        let p = PinnedPool::new(Registry::new(), cfg);
        let b = p.alloc(64).unwrap();
        let addr = b.addr();
        let c = b.clone();
        drop(b);
        // Slot still referenced by `c`; allocating must not reuse it.
        // (Pool grows a new region instead.)
        let d = p.alloc(64).unwrap();
        assert_ne!(d.addr(), addr);
        drop(c);
        let e = p.alloc(64).unwrap();
        assert_eq!(e.addr(), addr, "slot reused after final release");
    }

    #[test]
    fn slice_shares_slot() {
        let p = pool();
        let mut b = p.alloc(256).unwrap();
        b.write_at(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let s = b.slice(2, 4);
        assert_eq!(&*s, &[3, 4, 5, 6]);
        assert_eq!(b.refcount(), 2);
        assert_eq!(s.addr(), b.addr() + 2);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_bounds_checked() {
        let p = pool();
        let b = p.alloc(64).unwrap();
        let _ = b.slice(60, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds RcBuf")]
    fn write_bounds_checked() {
        let p = pool();
        let mut b = p.alloc(64).unwrap();
        b.write_at(60, &[0u8; 10]);
    }

    #[test]
    fn slice_refuses_ranges_whose_end_wraps() {
        let p = pool();
        let b = p.alloc(64).unwrap();
        let past_u32 = u32::MAX as usize + 1;
        for (start, len) in [
            (usize::MAX, 1),
            (1, usize::MAX),
            (8, usize::MAX - 8 + 1),
            (past_u32, usize::MAX - past_u32 + 1),
            (past_u32, 8),
            (0, past_u32),
        ] {
            let msg = panic_message(|| b.slice(start, len));
            assert!(
                msg.contains("slice out of range"),
                "({start}, {len}): {msg}"
            );
        }
        assert_eq!(b.refcount(), 1, "a refused slice takes no reference");
    }

    #[test]
    fn write_at_refuses_ranges_whose_end_wraps() {
        let p = pool();
        let mut b = p.alloc(64).unwrap();
        for (offset, len) in WRAPPING_WRITES {
            let msg = panic_message(|| b.write_at(offset, &[0xEE; 16][..len]));
            assert!(msg.contains("exceeds RcBuf"), "({offset}, {len}): {msg}");
        }
        assert!(b.iter().all(|&x| x == 0), "a refused write writes nothing");
    }

    #[test]
    fn truncate_shrinks() {
        let p = pool();
        let mut b = p.alloc(64).unwrap();
        assert_eq!(b.len(), 64);
        b.truncate(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.as_slice().len(), 10);
    }

    #[test]
    fn fill_sets_bytes() {
        let p = pool();
        let mut b = p.alloc(64).unwrap();
        b.fill(0x5A);
        assert!(b.iter().all(|&x| x == 0x5A));
    }

    #[test]
    fn eq_compares_contents() {
        let p = pool();
        let mut a = p.alloc(16).unwrap();
        let mut b = p.alloc(16).unwrap();
        a.write_at(0, b"same bytes here!");
        b.write_at(0, b"same bytes here!");
        assert_eq!(a, b);
        b.write_at(0, b"DIFF");
        assert_ne!(a, b);
    }
}
