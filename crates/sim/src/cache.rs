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
//! bytes are not simulated.

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
    /// `tags[set * ways..][..ways]` is one set in recency order, most
    /// recently used first. An entry is the line address (address >> 6) plus
    /// one; zero means "invalid", and invalid ways trail the valid ones.
    tags: Vec<u64>,
    ways: usize,
    set_mask: u64,
    capacity_bytes: usize,
}

/// Cache line size in bytes. Fixed at 64 (x86 servers).
pub const LINE: u64 = 64;

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
fn promote(set: &mut [u64], tag: u64) -> bool {
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
fn evict(set: &mut [u64], tag: u64) {
    if let Some(i) = set.iter().position(|&t| t == tag) {
        set.copy_within(i + 1.., i);
        set[set.len() - 1] = 0;
    }
}

/// Whether `tag` is in `set`, decided without a branch per way: on a 16-way
/// set, four 256-bit compares ORed together; on any other, an OR over the
/// ways that the compiler vectorizes. Spelled out for 16 ways because,
/// written as that OR, the compiler shares its compares with `evict`'s scan
/// and packs them into a position on every line, which costs the misses
/// most of the gain (measured).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn resident(set: &[u64], tag: u64) -> bool {
    use std::arch::x86_64::{
        _mm256_cmpeq_epi64, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_testz_si256,
    };
    let Ok(set) = <&[u64; 16]>::try_from(set) else {
        return set.iter().fold(false, |hit, &t| hit | (t == tag));
    };
    let tag = _mm256_set1_epi64x(tag as i64);
    // Ways 4k..4k + 4 against the tag, lane by lane.
    let eq = |k: usize| {
        let [w0, w1, w2, w3] = [0, 1, 2, 3].map(|i| set[4 * k + i] as i64);
        _mm256_cmpeq_epi64(_mm256_set_epi64x(w3, w2, w1, w0), tag)
    };
    let any = _mm256_or_si256(_mm256_or_si256(eq(0), eq(1)), _mm256_or_si256(eq(2), eq(3)));
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
        let lines = capacity_bytes / LINE as usize;
        // Round the set count down to a power of two for mask indexing.
        let sets = 1 << (lines / ways).max(1).ilog2();
        Self {
            tags: vec![0; sets * ways],
            ways,
            set_mask: (sets - 1) as u64,
            capacity_bytes,
        }
    }

    /// Returns the configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    /// Calls `op(set, tag)` for every line of `[addr, addr + len)` in address
    /// order. Consecutive lines map to consecutive sets, so the walk steps
    /// the set base instead of recomputing it, and it tells the compiler the
    /// length of the 8- and 16-way sets the machine profiles use so that `op`
    /// is unrolled with the tags in registers.
    #[inline(always)]
    fn walk(&mut self, addr: u64, len: usize, mut op: impl FnMut(&mut [u64], u64)) {
        if len == 0 {
            return;
        }
        let first = addr / LINE;
        let last = (addr + len as u64 - 1) / LINE;
        let ways = self.ways;
        let mut base = (first & self.set_mask) as usize * ways;
        for tag in first + 1..last + 2 {
            let set = &mut self.tags[base..base + ways];
            match ways {
                16 => op(&mut set[..16], tag),
                8 => op(&mut set[..8], tag),
                _ => op(set, tag),
            }
            base += ways;
            if base == self.tags.len() {
                base = 0;
            }
        }
    }

    /// Touches a single cache line containing `addr`. Returns `true` on hit.
    #[inline]
    pub fn touch(&mut self, addr: u64) -> bool {
        let mut hit = false;
        self.walk(addr, 1, |set, tag| hit = promote(set, tag));
        hit
    }

    /// Accesses `len` bytes starting at `addr`, touching every line in the
    /// range. Returns hit/miss counts. A zero-length access touches nothing.
    pub fn access(&mut self, addr: u64, len: usize) -> AccessResult {
        let mut r = AccessResult::default();
        self.walk(addr, len, |set, tag| match promote(set, tag) {
            true => r.hits += 1,
            false => r.misses += 1,
        });
        r
    }

    /// Returns whether the line containing `addr` is currently resident,
    /// without updating LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr / LINE;
        let base = (line & self.set_mask) as usize * self.ways;
        self.tags[base..base + self.ways].contains(&(line + 1))
    }

    /// Host-only hint that the set of `addr` is about to be touched: starts
    /// loading its tags (a 16-way set is 128 bytes and not line-aligned, so
    /// up to three host lines) and reads none of them, so no later
    /// [`CacheSim::touch`], `access`, `probe` or `invalidate` can tell
    /// whether it was called.
    #[inline]
    pub fn hint(&self, addr: u64) {
        let base = ((addr / LINE) & self.set_mask) as usize * self.ways;
        for way in (0..self.ways).step_by(8).chain([self.ways - 1]) {
            prefetch(&self.tags[base + way]);
        }
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
        self.walk(addr, len, evict);
    }

    /// [`CacheSim::invalidate`] with AVX2. Much of a DMA target is not
    /// resident (45–60 % of its lines on three of the repo benchmark's
    /// workloads), and a miss makes the scalar scan read every way, so the
    /// walk first decides residency with one branch-free compare of the
    /// whole set ([`resident`]) and runs the scalar [`evict`] only on a hit.
    /// The sets end exactly as [`CacheSim::invalidate_scalar`] leaves them.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn invalidate_avx2(&mut self, addr: u64, len: usize) {
        self.walk(addr, len, |set, tag| {
            if resident(set, tag) {
                evict(set, tag);
            }
        });
    }

    /// Empties the cache (used between sweep points so every offered-load
    /// point starts from the same state).
    pub fn clear(&mut self) {
        self.tags.fill(0);
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
