//! Hybrid smart pointers: `CFBytes` and `CFString` (paper Listing 3).

use std::fmt;

use cf_mem::{ArenaBytes, RcBuf};
use cf_sim::cost::Category;

use crate::ctx::SerCtx;
use crate::wire::WireError;

/// A hybrid smart pointer to a byte field: either data copied into the
/// arena, or a reference-counted view of pinned memory that will be sent
/// with an extra scatter-gather entry.
///
/// The constructor is agnostic to where the input bytes live (stack,
/// unpinned heap, interior of a pinned allocation): it runs the size
/// threshold, and for large-enough fields attempts `recover_ptr`; anything
/// unrecoverable is copied transparently. This is the construction-time
/// heuristic of §3.2.1 — each field costs either a data cache touch (copy)
/// or a metadata cache touch (refcount), never both.
#[derive(Clone)]
pub enum CFBytes {
    /// Field data copied into the serialization arena.
    Copied(ArenaBytes),
    /// Zero-copy reference into registered pinned memory.
    ZeroCopy(RcBuf),
}

impl CFBytes {
    /// Constructs a `CFBytes` from raw bytes, applying the hybrid heuristic
    /// and charging the corresponding virtual-time costs.
    pub fn new(ctx: &SerCtx, data: &[u8]) -> CFBytes {
        let costs = ctx.sim.costs();
        if data.len() >= ctx.config.zero_copy_threshold {
            // recover_ptr: range-map lookup (compute + one metadata line —
            // the map is small and usually cache-resident) ...
            ctx.sim
                .charge(Category::SerializeZeroCopy, costs.recover_ptr_compute);
            ctx.sim
                .charge_meta_access(Category::SerializeZeroCopy, ctx.registry.meta_addr());
            if let Some(rc) = ctx.registry.recover(data) {
                // ... then the slot's refcount line (pointer-chasing: cold
                // in large working sets) and the increment itself.
                ctx.sim
                    .charge_meta_access(Category::SerializeZeroCopy, rc.refcount_addr());
                ctx.sim
                    .charge(Category::SerializeZeroCopy, costs.refcount_update);
                return CFBytes::ZeroCopy(rc);
            }
            // Not in DMA-safe memory: fall through to the copy path
            // (memory transparency).
        }
        ctx.sim.charge(Category::SerializeCopy, costs.arena_alloc);
        let copy = ctx.arena.copy_in(data);
        ctx.sim.charge_memcpy(
            Category::SerializeCopy,
            data.as_ptr() as u64,
            copy.addr(),
            data.len(),
        );
        CFBytes::Copied(copy)
    }

    /// Wraps an `RcBuf` the application already owns as a zero-copy field
    /// without the recovery lookup (the refcount transfer is free: ownership
    /// moves). Used by deserialization to make received fields echoable.
    pub fn from_rcbuf(rc: RcBuf) -> CFBytes {
        CFBytes::ZeroCopy(rc)
    }

    /// The field's bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            CFBytes::Copied(a) => a.as_slice(),
            CFBytes::ZeroCopy(r) => r.as_slice(),
        }
    }

    /// Field length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            CFBytes::Copied(a) => a.len(),
            CFBytes::ZeroCopy(r) => r.len(),
        }
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Address of the first byte (for cost accounting).
    pub fn addr(&self) -> u64 {
        match self {
            CFBytes::Copied(a) => a.addr(),
            CFBytes::ZeroCopy(r) => r.addr(),
        }
    }

    /// Whether this field will be transmitted zero-copy.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self, CFBytes::ZeroCopy(_))
    }
}

impl fmt::Debug for CFBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CFBytes::Copied(a) => write!(f, "CFBytes::Copied({} bytes)", a.len()),
            CFBytes::ZeroCopy(r) => write!(f, "CFBytes::ZeroCopy({} bytes)", r.len()),
        }
    }
}

impl PartialEq for CFBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for CFBytes {}

/// A string field: a [`CFBytes`] whose UTF-8 validation is deferred until
/// the string is accessed (§6.4 — baselines validate at deserialization
/// time; Cornflakes validates lazily).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CFString(pub CFBytes);

impl CFString {
    /// Constructs from a string (always valid UTF-8; heuristic applies).
    pub fn new(ctx: &SerCtx, s: &str) -> CFString {
        CFString(CFBytes::new(ctx, s.as_bytes()))
    }

    /// Constructs from raw bytes without validating (validation happens on
    /// access).
    pub fn from_bytes(b: CFBytes) -> CFString {
        CFString(b)
    }

    /// The raw bytes, no validation.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// Validates and returns the string, charging the (deferred) per-byte
    /// validation cost.
    pub fn as_str(&self, ctx: &SerCtx) -> Result<&str, WireError> {
        let bytes = self.0.as_slice();
        ctx.sim.charge(
            Category::Deserialize,
            bytes.len() as f64 * ctx.sim.costs().utf8_per_byte,
        );
        std::str::from_utf8(bytes).map_err(|_| WireError::Utf8)
    }

    /// Field length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SerializationConfig;
    use cf_sim::{MachineProfile, Sim};

    fn ctx() -> SerCtx {
        SerCtx::new(
            Sim::new(MachineProfile::tiny_for_tests()),
            SerializationConfig::hybrid(),
        )
    }

    #[test]
    fn small_field_is_copied() {
        let c = ctx();
        let b = CFBytes::new(&c, b"small");
        assert!(!b.is_zero_copy());
        assert_eq!(b.as_slice(), b"small");
    }

    #[test]
    fn large_pinned_field_is_zero_copied() {
        let c = ctx();
        let mut v = c.pool.alloc(1024).unwrap();
        v.fill(7);
        let b = CFBytes::new(&c, v.as_slice());
        assert!(b.is_zero_copy());
        assert_eq!(b.len(), 1024);
        assert_eq!(v.refcount(), 2, "zero-copy took a reference");
    }

    #[test]
    fn large_unpinned_field_is_copied_transparently() {
        let c = ctx();
        let heap = vec![3u8; 2048];
        let b = CFBytes::new(&c, &heap);
        assert!(!b.is_zero_copy(), "heap data cannot be DMA'd");
        assert_eq!(b.as_slice(), &heap[..]);
    }

    #[test]
    fn threshold_boundary() {
        let c = ctx();
        let v = c.pool.alloc(512).unwrap();
        let exactly = CFBytes::new(&c, v.as_slice());
        assert!(exactly.is_zero_copy(), "512 >= 512 threshold");
        let below = CFBytes::new(&c, &v.as_slice()[..511]);
        assert!(!below.is_zero_copy());
        // The threshold in force is the configured one and does not drift
        // under traffic.
        assert_eq!(c.effective_threshold(), 512);
        let big = c.pool.alloc(4096).unwrap();
        for _ in 0..100 {
            let _ = CFBytes::new(&c, big.as_slice());
        }
        assert_eq!(c.effective_threshold(), 512);
    }

    #[test]
    fn always_copy_config() {
        let mut c = ctx();
        c.config = SerializationConfig::always_copy();
        let v = c.pool.alloc(4096).unwrap();
        assert!(!CFBytes::new(&c, v.as_slice()).is_zero_copy());
    }

    #[test]
    fn always_zero_copy_config() {
        let mut c = ctx();
        c.config = SerializationConfig::always_zero_copy();
        let v = c.pool.alloc(64).unwrap();
        assert!(CFBytes::new(&c, &v.as_slice()[..8]).is_zero_copy());
    }

    #[test]
    fn interior_pointer_zero_copies() {
        let c = ctx();
        let mut v = c.pool.alloc(4096).unwrap();
        v.write_at(1000, &[9u8; 600]);
        let b = CFBytes::new(&c, &v.as_slice()[1000..1600]);
        assert!(b.is_zero_copy());
        assert_eq!(b.as_slice(), &[9u8; 600][..]);
        assert_eq!(b.addr(), v.addr() + 1000);
    }

    #[test]
    fn copy_charges_data_zero_copy_charges_metadata() {
        let c = ctx();
        let v = c.pool.alloc(2048).unwrap();
        let t0 = c.sim.now();
        let _zc = CFBytes::new(&c, v.as_slice());
        let zc_cost = c.sim.now() - t0;
        let heap = vec![0u8; 2048];
        let t1 = c.sim.now();
        let _cp = CFBytes::new(&c, &heap);
        let cp_cost = c.sim.now() - t1;
        // Copying 2 KiB of cold data costs more than fixed-size metadata
        // bookkeeping.
        assert!(cp_cost > zc_cost, "copy={cp_cost} zc={zc_cost}");
    }

    #[test]
    fn cfstring_defers_utf8_validation() {
        let c = ctx();
        let s = CFString::new(&c, "héllo wörld");
        assert_eq!(s.as_str(&c).unwrap(), "héllo wörld");

        // Invalid UTF-8 constructs fine; only access fails.
        let bad = CFString::from_bytes(CFBytes::new(&c, &[0xFF, 0xFE, 0xFD]));
        assert_eq!(bad.len(), 3);
        assert_eq!(bad.as_str(&c).unwrap_err(), WireError::Utf8);
    }

    #[test]
    fn equality_by_content() {
        let c = ctx();
        let a = CFBytes::new(&c, b"same");
        let v = c.pool.alloc_from(b"same").unwrap();
        let b = CFBytes::from_rcbuf(v);
        assert_eq!(a, b);
    }
}
