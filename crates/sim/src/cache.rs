//! Set-associative LRU cache simulator.
//!
//! The copy-vs-zero-copy tradeoff that Cornflakes exploits is driven by CPU
//! cache behaviour (paper §2.3–2.4): copying a field touches its *data*
//! cache lines, while zero-copying it touches *metadata* lines (the pinned
//! region lookup structure and the reference count). At microsecond packet
//! rates each last-level-cache miss (~100 ns) is a significant fraction of
//! the per-packet budget.
//!
//! [`CacheSim`] models a single unified last-level cache: set-associative,
//! LRU replacement (a set is its tags in recency order, so there are no
//! timestamps to keep or scan), 64-byte lines. Addresses are plain `u64`s —
//! real heap addresses of the simulated buffers, or synthetic addresses for
//! structures (such as hash-index buckets) whose residency matters but whose
//! bytes are not simulated — and must lie below 2⁴⁸, the x86-64 virtual
//! address width: a range reaching 2⁴⁸ panics rather than alias another line.
//!
//! A way stores a tag: its line address shifted right by a constant, plus
//! one, zero meaning "invalid". The bits shifted out are ones the set index
//! holds, so no two lines of a set share a tag. From 2¹¹ sets on the shift is
//! 11 and the tag, at most 2³¹ for a 42-bit line address, is a `u32`: a
//! 16-way set is 64 bytes and the sets start on a 64-byte boundary, so a
//! modelled set is one host cache line. Smaller caches store `line + 1` in a
//! `u64`. The shift is a constant of the tag width, not the set count, so a
//! line touch does no variable shift.

/// Result of a multi-line cache access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Number of lines that hit in the cache.
    pub hits: u64,
    /// Number of lines that missed and were filled.
    pub misses: u64,
}

impl AccessResult {
    /// Total number of lines touched.
    pub fn lines(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A set-associative LRU cache model.
///
/// # Examples
///
/// ```
/// use cf_sim::cache::CacheSim;
/// let mut cache = CacheSim::new(1 << 20, 16); // 1 MiB, 16-way
/// let first = cache.access(0x1000, 256);
/// assert_eq!(first.misses, 4); // 256 bytes = 4 cold lines
/// let second = cache.access(0x1000, 256);
/// assert_eq!(second.hits, 4); // now resident
/// ```
#[derive(Clone, Debug)]
pub struct CacheSim {
    tags: Tags,
}

/// Cache line size in bytes. Fixed at 64 (x86 servers).
pub const LINE: u64 = 64;

/// Addresses the model accepts are below this: 2⁴⁸.
const ADDR_LIMIT: u64 = 1 << 48;

/// The fewest set-index bits at which every stored tag fits in a `u32`: the
/// tag drops this many low bits of a 42-bit line address, which the set index
/// holds, and keeps 31 (plus one for the invalid zero).
const NARROW_SET_BITS: u32 = ADDR_LIMIT.ilog2() - LINE.ilog2() - 31;

/// Host cache line size in bytes, the alignment of the tag array.
const HOST_LINE: usize = 64;

/// The width of a stored tag. The default, zero, is an invalid way.
trait Tag: Copy + Default + Eq + Into<u64> {
    /// Low line-address bits the tag drops: the set index holds them.
    const SHIFT: u32;
    /// The tag of `line`, `(line >> SHIFT) + 1`, which fits the width for
    /// every line below 2⁴² ([`NARROW_SET_BITS`]).
    fn of(line: u64) -> Self;
}

/// `Tag` for each integer type listed, with its shift.
macro_rules! impl_tag {
    ($($t:ty: $shift:expr),*) => {$(impl Tag for $t {
        const SHIFT: u32 = $shift;
        fn of(line: u64) -> Self { ((line >> Self::SHIFT) + 1) as $t }
    })*};
}
impl_tag!(u32: NARROW_SET_BITS, u64: 0);

/// The tag array at one width.
#[derive(Clone, Debug)]
enum Tags {
    Narrow(Sets<u32>),
    Wide(Sets<u64>),
}

/// Evaluates `$body` with `$sets` bound to the cache's tag array, whichever
/// its width.
macro_rules! at_width {
    ($tags:expr, $sets:ident => $body:expr) => {
        match $tags {
            Tags::Narrow($sets) => $body,
            Tags::Wide($sets) => $body,
        }
    };
}

/// `ways << set_bits` tags from the first 64-byte boundary of `buf`:
/// `buf[start + set * ways..][..ways]` is one set in recency order, most
/// recently used first, and invalid ways trail the valid ones.
#[derive(Debug)]
struct Sets<T> {
    /// Allocated zeroed, so the pages of sets that are never touched are
    /// never mapped; one host line less one tag longer than the sets, so that
    /// they can start on a boundary.
    buf: Vec<T>,
    start: usize,
    end: usize,
    ways: usize,
    set_mask: u64,
}

impl<T: Tag> Sets<T> {
    fn new(set_bits: u32, ways: usize) -> Self {
        let len = ways << set_bits;
        // `vec![0; n]` is one `calloc`: untouched pages stay unmapped, where
        // an allocation aligned to 64 would be zeroed page by page.
        let buf = vec![T::default(); len + HOST_LINE / size_of::<T>() - 1];
        let start = buf.as_ptr().addr().wrapping_neg() % HOST_LINE / size_of::<T>();
        Self {
            buf,
            start,
            end: start + len,
            ways,
            set_mask: (1 << set_bits) - 1,
        }
    }

    /// Index in `buf` of the first way of `line`'s set.
    fn base(&self, line: u64) -> usize {
        self.start + (line & self.set_mask) as usize * self.ways
    }

    /// Calls `op(set, tag)` for every line of `[addr, addr + len)` in address
    /// order, telling the compiler the length of the 16-way sets the
    /// benchmarked machine profiles use so that `op` is unrolled with the
    /// tags in registers.
    #[inline(always)]
    fn walk(&mut self, addr: u64, len: usize, mut op: impl FnMut(&mut [T], T)) {
        if len == 0 {
            return;
        }
        let (first, last) = lines(addr, len);
        let ways = self.ways;
        for line in first..last + 1 {
            let (base, tag) = (self.base(line), T::of(line));
            let set = &mut self.buf[base..base + ways];
            match ways {
                16 => op(&mut set[..16], tag),
                _ => op(set, tag),
            }
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (line, _) = lines(addr, 1);
        let base = self.base(line);
        self.buf[base..base + self.ways].contains(&T::of(line))
    }
}

impl<T: Tag> Clone for Sets<T> {
    /// A fresh array with the same tags: the copy's buffer can sit at another
    /// distance from a 64-byte boundary, so the sets are aligned anew.
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.set_mask.count_ones(), self.ways);
        copy.buf[copy.start..copy.end].copy_from_slice(&self.buf[self.start..self.end]);
        copy
    }
}

/// The first and last line of `[addr, addr + len)`, `len > 0`.
///
/// # Panics
///
/// Panics if the range reaches 2⁴⁸: its tags would not fit their width.
fn lines(addr: u64, len: usize) -> (u64, u64) {
    let fits = addr < ADDR_LIMIT && len as u64 <= ADDR_LIMIT - addr;
    assert!(fits, "a range reaches past the 48-bit address space");
    (addr / LINE, (addr + len as u64 - 1) / LINE)
}

/// Asks the host CPU to start loading the line at `p`: a hint that reads
/// nothing and cannot fault, so any address is allowed, mapped or not. The
/// model's own bookkeeping and the store's index use it to overlap host
/// cache misses; it is invisible to the virtual clock. A no-op off x86-64.
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 performs no architectural access: it never faults
    // and never reads or writes memory the program can observe, whatever
    // `p` holds (dangling, unaligned or null included).
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Moves `tag` to the front of `set` and returns whether it was resident.
/// On a miss the tail falls off: the least recently used line, or an invalid
/// way while the set still has one. Which invalid way a fill lands in is
/// unobservable, so this is the LRU policy exactly.
#[inline(always)]
fn promote<T: Tag>(set: &mut [T], tag: T) -> bool {
    let mut carry = tag;
    for slot in set {
        let shifted = std::mem::replace(slot, carry);
        if shifted == tag {
            return true;
        }
        carry = shifted;
    }
    false
}

/// Removes `tag` from `set` if resident, closing the gap so the invalid way
/// joins the tail.
#[inline(always)]
fn evict<T: Tag>(set: &mut [T], tag: T) {
    if let Some(i) = set.iter().position(|&t| t == tag) {
        set.copy_within(i + 1.., i);
        set[set.len() - 1] = T::default();
    }
}

/// Whether `tag` is in the 16-way `set` (its first 16 ways), decided
/// without a branch per way: two 256-bit compares ORed together. Spelled out
/// because, written as an OR over the ways, the compiler shares its compares
/// with `evict`'s scan and packs them into a position on every line, which
/// costs the misses most of the gain (measured on 64- and 32-bit tags).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn resident(set: &[u32], tag: u32) -> bool {
    use std::arch::x86_64::*;
    let tag = _mm256_set1_epi32(tag as i32);
    // Ways 8k..8k + 8 against the tag, lane by lane.
    let eq = |k: usize| {
        let [w0, w1, w2, w3, w4, w5, w6, w7] =
            [0, 1, 2, 3, 4, 5, 6, 7].map(|i| set[8 * k + i] as i32);
        _mm256_cmpeq_epi32(_mm256_setr_epi32(w0, w1, w2, w3, w4, w5, w6, w7), tag)
    };
    let any = _mm256_or_si256(eq(0), eq(1));
    _mm256_testz_si256(any, any) == 0
}

impl CacheSim {
    /// Creates a cache of `capacity_bytes` with the given associativity.
    ///
    /// The number of sets is rounded down to a power of two so set indexing
    /// is a mask. `capacity_bytes` must be at least one line per way.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the capacity is too small to hold one set.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let fits = capacity_bytes >= ways * LINE as usize;
        assert!(fits, "{capacity_bytes} B cannot hold one {ways}-way set");
        // Round the set count down to a power of two for mask indexing.
        let set_bits = (capacity_bytes / LINE as usize / ways).ilog2();
        let tags = match set_bits >= NARROW_SET_BITS {
            true => Tags::Narrow(Sets::new(set_bits, ways)),
            false => Tags::Wide(Sets::new(set_bits, ways)),
        };
        Self { tags }
    }

    /// Touches a single cache line containing `addr`. Returns `true` on hit.
    #[inline]
    pub fn touch(&mut self, addr: u64) -> bool {
        let mut hit = false;
        at_width!(&mut self.tags, sets => sets.walk(addr, 1, |set, tag| hit = promote(set, tag)));
        hit
    }

    /// Accesses `len` bytes starting at `addr`, touching every line in the
    /// range. Returns hit/miss counts. A zero-length access touches nothing.
    pub fn access(&mut self, addr: u64, len: usize) -> AccessResult {
        let mut r = AccessResult::default();
        at_width!(&mut self.tags, sets => sets.walk(addr, len, |set, tag| match promote(set, tag) {
            true => r.hits += 1,
            false => r.misses += 1,
        }));
        r
    }

    /// Returns whether the line containing `addr` is currently resident,
    /// without updating LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        at_width!(&self.tags, sets => sets.probe(addr))
    }

    /// Host-only hint that the set of `addr` is about to be touched: starts
    /// loading the host line its tags start on (all of them with 32-bit tags
    /// and up to 16 ways) and reads none of them, so no later
    /// [`CacheSim::touch`], `access`, `probe` or `invalidate` can tell
    /// whether it was called. Any address is allowed.
    #[inline]
    pub fn hint(&self, addr: u64) {
        at_width!(&self.tags, sets => prefetch(&sets.buf[sets.base(addr / LINE)]));
    }

    /// Invalidates every line in `[addr, addr + len)`: a device DMA write.
    ///
    /// The evaluation machines are AMD EPYC servers without DDIO-style
    /// cache injection, so NIC DMA writes invalidate any cached copies and
    /// subsequent CPU reads of received data miss to memory (§2.2's "one
    /// copy" being expensive depends on exactly this).
    pub fn invalidate(&mut self, addr: u64, len: usize) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `invalidate_avx2` is safe code whose only requirement
            // is that the CPU executes AVX2, and the detection macro has
            // just reported that it does.
            return unsafe { self.invalidate_avx2(addr, len) };
        }
        self.invalidate_scalar(addr, len);
    }

    /// [`CacheSim::invalidate`] on any machine: each set is scanned tag by
    /// tag.
    fn invalidate_scalar(&mut self, addr: u64, len: usize) {
        at_width!(&mut self.tags, sets => sets.walk(addr, len, evict));
    }

    /// [`CacheSim::invalidate`] with AVX2. Much of a DMA target is not
    /// resident (45–60 % of its lines on three of the repo benchmark's
    /// workloads), and a miss makes the scalar scan read every way, so the
    /// walk over 16-way sets of 32-bit tags (the profiles' geometry) first
    /// decides residency with one branch-free compare of the whole set
    /// ([`resident`]) and runs the scalar [`evict`] only on a hit; any other
    /// geometry takes the scalar walk. The sets end exactly as
    /// [`CacheSim::invalidate_scalar`] leaves them.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn invalidate_avx2(&mut self, addr: u64, len: usize) {
        match &mut self.tags {
            Tags::Narrow(sets) if sets.ways == 16 => sets.walk(addr, len, |set, tag| {
                if resident(set, tag) {
                    evict(set, tag);
                }
            }),
            _ => self.invalidate_scalar(addr, len),
        }
    }

    /// Empties the cache (used between sweep points so every offered-load
    /// point starts from the same state).
    pub fn clear(&mut self) {
        at_width!(&mut self.tags, sets => sets.buf[sets.start..sets.end].fill(0));
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
