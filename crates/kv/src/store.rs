//! The key-value store engine (paper §6.1.2).
//!
//! Keys are byte strings; values are stored in pinned, DMA-safe buffers —
//! either one buffer or a list of separately allocated segment buffers (the
//! paper's "linked lists of DMA-safe buffers" / "vectors of DMA-safe
//! buffers"; both have the property that matters: segments are
//! non-contiguous pinned allocations).
//!
//! Lookups charge a hash computation plus one index-line metadata access at
//! a synthetic per-bucket address, so index residency competes with value
//! data in the simulated cache — the effect behind the paper's Table 3
//! footnote (mget suffering key-cache misses) and Figure 11 (zero-copy
//! leaving more cache for keys).
//!
//! That is the *modelled* index. The host-side index is one open-addressed
//! table of 64-byte, line-aligned slots probed linearly from a slot chosen
//! by the same FNV-1a hash: a hit reads the slot's line, then the value
//! (DESIGN.md §6, "What a lookup costs the host").

use std::ops::Deref;

use cf_mem::{AllocError, RcBuf};
use cf_sim::cache::prefetch;
use cf_sim::cost::Category;
use cf_sim::Sim;
use cornflakes_core::SerCtx;

/// Synthetic base address for index-bucket cache lines (outside any real
/// allocation).
const INDEX_BASE: u64 = 0x7000_0000_0000;
/// Modeled index size in buckets.
const INDEX_BUCKETS: u64 = 1 << 22;
/// Longest key a slot holds inline: what a 64-byte line has left beside the
/// value, the length byte and the slot's tag. Longer keys spill to the heap.
const INLINE_KEY: usize = 38;
/// Slots of an empty store.
const MIN_SLOTS: usize = 16;
/// Keys whose misses one [`KvStore::get_each`] round overlaps; a request of
/// more keys takes several rounds, so the scratch stays on the stack.
const ROUND: usize = 8;

/// A value's pinned segments, in order: the only one in place, or several
/// behind one allocation. Reads as a `[RcBuf]`.
#[derive(Clone, Debug)]
pub enum Segments {
    /// A plain value: one segment, held inline.
    One(RcBuf),
    /// Any other number of segments.
    Many(Box<[RcBuf]>),
}

impl Segments {
    /// The segments `made`, in order; the first error is returned and
    /// releases the segments made before it.
    fn collect(
        mut made: impl ExactSizeIterator<Item = Result<RcBuf, AllocError>>,
    ) -> Result<Segments, AllocError> {
        match made.len() {
            1 => made.next().expect("one segment").map(Segments::One),
            _ => made.collect::<Result<_, _>>().map(Segments::Many),
        }
    }
}

impl Deref for Segments {
    type Target = [RcBuf];

    fn deref(&self) -> &[RcBuf] {
        match self {
            Segments::One(buf) => std::slice::from_ref(buf),
            Segments::Many(bufs) => bufs,
        }
    }
}

impl<'a> IntoIterator for &'a Segments {
    type Item = &'a RcBuf;
    type IntoIter = std::slice::Iter<'a, RcBuf>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A stored value: one or more pinned segment buffers.
#[derive(Clone, Debug)]
pub struct Value {
    /// The value's segments, in order. A plain value has one segment.
    pub segments: Segments,
}

impl Value {
    /// Total value length across segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A stored key: its bytes in place, or behind an allocation when there are
/// more than [`INLINE_KEY`] of them.
#[derive(Debug)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Spilled(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Key {
        if key.len() > INLINE_KEY {
            return Key::Spilled(key.into());
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..key.len()].copy_from_slice(key);
        let len = key.len() as u8;
        Key::Inline { len, bytes }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Spilled(bytes) => bytes,
        }
    }
}

/// One slot of the table: a host cache line.
#[derive(Debug)]
#[repr(align(64))]
enum Slot {
    /// Never held an entry: a probe ends here.
    Empty,
    /// Held an entry that was removed: a probe passes over it, an insert
    /// may reuse it.
    Tombstone,
    Full(Key, Value),
}

// A slot that outgrows its line would double every lookup's misses.
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

/// The store engine.
#[derive(Debug)]
pub struct KvStore {
    /// A power of two of slots, at least one of them [`Slot::Empty`].
    slots: Box<[Slot]>,
    /// Entries.
    len: usize,
    /// Entries plus tombstones: what the load factor counts.
    used: usize,
    sim: Sim,
}

/// FNV-1a, 64-bit: the one hash behind the modelled index lines, the host
/// slot and the preload fill byte.
pub fn fnv1a(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The two dependent modelled index lines of a lookup: bucket, then entry
/// node.
fn index_lines(hash: u64) -> [u64; 2] {
    let node = INDEX_BUCKETS + (hash >> 22) % INDEX_BUCKETS;
    [hash % INDEX_BUCKETS, node].map(|line| INDEX_BASE + line * 64)
}

/// Where the probe for `hash` starts in a table of `slots` (a power of two).
/// A Fibonacci multiply first, so that the slot depends on every bit of the
/// hash: a shard's keys agree in `hash % shards`, which for a power of two is
/// the low bits themselves.
fn home(hash: u64, slots: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (slots - 1)
}

impl KvStore {
    /// Creates an empty store charging costs to `sim`.
    pub fn new(sim: Sim) -> Self {
        KvStore {
            slots: (0..MIN_SLOTS).map(|_| Slot::Empty).collect(),
            len: 0,
            used: 0,
            sim,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn charge_lookup(&self, hash: u64) {
        self.sim.charge(Category::AppGet, self.sim.costs().kv_hash);
        for line in index_lines(hash) {
            self.sim.charge_meta_access(Category::AppGet, line);
        }
    }

    /// Starts the host misses a lookup of `hash` is about to take: its home
    /// slot and the modelled sets [`KvStore::charge_lookup`] touches.
    fn prefetch_index(&self, hash: u64) {
        prefetch(&self.slots[home(hash, self.slots.len())]);
        for line in index_lines(hash) {
            self.sim.hint(line);
        }
    }

    /// Linear probe from the home slot of `hash`: the slot holding `key`, or
    /// else where an insert of it goes — the first tombstone passed, or the
    /// empty slot that ended the probe.
    fn probe(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = home(hash, self.slots.len());
        let mut vacant = None;
        loop {
            match &self.slots[at] {
                Slot::Empty => return Err(vacant.unwrap_or(at)),
                Slot::Tombstone => vacant = vacant.or(Some(at)),
                Slot::Full(stored, _) if stored.bytes() == key => return Ok(at),
                Slot::Full(..) => {}
            }
            at = (at + 1) & mask;
        }
    }

    fn find(&self, hash: u64, key: &[u8]) -> Option<&Value> {
        match &self.slots[self.probe(hash, key).ok()?] {
            Slot::Full(_, value) => Some(value),
            _ => None,
        }
    }

    /// Looks up a value (charged).
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        let hash = fnv1a(key);
        self.charge_lookup(hash);
        self.find(hash, key)
    }

    /// [`KvStore::get`] of each of `keys` in turn, handing every value found
    /// to `visit` before the next key is looked up: the same charges, in the
    /// same order, as that loop. But ahead of the charged lookups of each
    /// round of `ROUND` keys goes a host-only pass that overlaps the cache
    /// misses they, and serializing what they find, would otherwise take one
    /// after another: it hashes every key and starts its index misses; then,
    /// the slots now arriving, it finds each value and starts the misses on
    /// its first lines and on the modelled set they map to. The pass charges
    /// nothing and reads no modelled state, so the virtual clock cannot tell
    /// it ran.
    pub fn get_each<'s, 'k>(
        &'s self,
        keys: impl Iterator<Item = &'k [u8]>,
        mut visit: impl FnMut(&'s Value),
    ) {
        let mut keys = keys.peekable();
        while keys.peek().is_some() {
            let mut round = [(0, &[][..], None); ROUND];
            let mut n = 0;
            for key in keys.by_ref().take(ROUND) {
                round[n] = (fnv1a(key), key, None);
                self.prefetch_index(round[n].0);
                n += 1;
            }
            for (hash, key, found) in &mut round[..n] {
                *found = self.find(*hash, key);
                let Some(first) = found.and_then(|v| v.segments.first()) else {
                    continue;
                };
                prefetch(first.as_ptr());
                prefetch(first.as_ptr().wrapping_add(64));
                self.sim.hint(first.addr());
            }
            for &(hash, _, found) in &round[..n] {
                self.charge_lookup(hash);
                found.into_iter().for_each(&mut visit);
            }
        }
    }

    /// Stores `value` under `key`. An existing entry is updated in place
    /// (the old value's buffers are released when the last in-flight
    /// reference, e.g. a pending DMA, drops); a new one reuses the first
    /// tombstone on its probe path, else takes the empty slot that ended it.
    fn store(&mut self, hash: u64, key: &[u8], value: Value) {
        let mut at = match self.probe(hash, key) {
            Ok(at) => {
                if let Slot::Full(_, old) = &mut self.slots[at] {
                    *old = value;
                }
                return;
            }
            Err(at) => at,
        };
        if matches!(self.slots[at], Slot::Empty) {
            // At most 4/5 of the slots in use, so probes stay short and
            // always end.
            if (self.used + 1) * 5 > self.slots.len() * 4 {
                self.rehash();
                at = self.probe(hash, key).expect_err("key is absent");
            }
            self.used += 1;
        }
        self.slots[at] = Slot::Full(Key::new(key), value);
        self.len += 1;
    }

    /// Moves every entry into a fresh table at most half full — larger if
    /// entries filled the old one, the same size or smaller if tombstones
    /// did.
    fn rehash(&mut self) {
        let slots = ((self.len + 1) * 2).next_power_of_two().max(MIN_SLOTS);
        let fresh = (0..slots).map(|_| Slot::Empty).collect();
        let old = std::mem::replace(&mut self.slots, fresh);
        for slot in old.into_vec() {
            if let Slot::Full(key, _) = &slot {
                let key = key.bytes();
                let at = self.probe(fnv1a(key), key).expect_err("keys are unique");
                self.slots[at] = slot;
            }
        }
        self.used = self.len;
    }

    /// Allocates pinned segments of at most `segment_size` bytes from
    /// `ctx`'s pool, copies `data` in (charged), and stores the value under
    /// `key`. This is the put path: data arriving from the network must be
    /// copied into freshly allocated DMA-safe memory (allocate-and-swap, no
    /// in-place updates — the paper's §4.1 memory-safety model).
    ///
    /// Under memory pressure the allocation can fail; the error is returned
    /// (never a panic) and the store is untouched — any previous value for
    /// `key` stays intact, and segments allocated before the failure are
    /// released on drop. Servers reply degraded and the client retries.
    pub fn put(
        &mut self,
        ctx: &SerCtx,
        key: &[u8],
        data: &[u8],
        segment_size: usize,
    ) -> Result<(), AllocError> {
        assert!(segment_size > 0);
        // Hash first: the index's host misses overlap the copy below.
        let hash = fnv1a(key);
        self.prefetch_index(hash);
        let sim = &ctx.sim;
        let fill = |chunk: &[u8]| {
            let mut buf = ctx.pool.alloc(chunk.len().max(1))?;
            buf.truncate(chunk.len());
            if !chunk.is_empty() {
                sim.charge(Category::AppPut, sim.costs().arena_alloc);
                let src = chunk.as_ptr() as u64;
                sim.charge_memcpy(Category::AppPut, src, buf.addr(), chunk.len());
                buf.write_at(0, chunk);
            }
            Ok(buf)
        };
        let segments = if data.is_empty() {
            Segments::One(fill(data)?)
        } else {
            Segments::collect(data.chunks(segment_size).map(fill))?
        };
        self.charge_lookup(hash);
        self.store(hash, key, Value { segments });
        Ok(())
    }

    /// Removes `key` (charged as a lookup), leaving a tombstone. The value's
    /// segments are released once the last outstanding reference — e.g. a
    /// pending DMA — drops.
    pub fn remove(&mut self, key: &[u8]) -> Option<Value> {
        let hash = fnv1a(key);
        self.charge_lookup(hash);
        let at = self.probe(hash, key).ok()?;
        self.len -= 1;
        match std::mem::replace(&mut self.slots[at], Slot::Tombstone) {
            Slot::Full(_, value) => Some(value),
            _ => None,
        }
    }

    /// Pre-loads `key` with deterministic pattern data split into
    /// `segment_sizes` segments (uncharged — warmup/setup path).
    pub fn preload(
        &mut self,
        ctx: &SerCtx,
        key: &[u8],
        segment_sizes: &[usize],
    ) -> Result<(), AllocError> {
        let hash = fnv1a(key);
        let segments = Segments::collect(segment_sizes.iter().enumerate().map(|(i, &size)| {
            let mut buf = ctx.pool.alloc(size.max(1))?;
            // Deterministic fill so clients can validate responses.
            buf.fill(hash as u8 ^ i as u8);
            buf.truncate(size);
            Ok(buf)
        }))?;
        self.store(hash, key, Value { segments });
        Ok(())
    }

    /// The deterministic fill byte [`KvStore::preload`] used for segment
    /// `i` of `key` (clients validate against this).
    pub fn expected_fill(key: &[u8], segment: usize) -> u8 {
        (fnv1a(key) as u8) ^ (segment as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::{ChargeObserver, MachineProfile};
    use cornflakes_core::SerializationConfig;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::rc::Rc;
    use std::sync::OnceLock;

    fn setup() -> (KvStore, SerCtx) {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let ctx = SerCtx::new(sim.clone(), SerializationConfig::hybrid());
        (KvStore::new(sim), ctx)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut store, ctx) = setup();
        store.put(&ctx, b"k1", b"hello world", 4096).unwrap();
        let v = store.get(b"k1").expect("present");
        assert_eq!(v.segments.len(), 1);
        assert_eq!(&*v.segments[0], b"hello world");
        assert_eq!(v.len(), 11);
    }

    #[test]
    fn put_segments_large_value() {
        let (mut store, ctx) = setup();
        let data = vec![7u8; 10_000];
        store.put(&ctx, b"big", &data, 4096).unwrap();
        let v = store.get(b"big").unwrap();
        assert_eq!(v.segments.len(), 3);
        assert_eq!(v.segments[0].len(), 4096);
        assert_eq!(v.segments[2].len(), 10_000 - 8192);
        assert_eq!(v.len(), 10_000);
    }

    #[test]
    fn overwrite_swaps_pointer() {
        let (mut store, ctx) = setup();
        store.put(&ctx, b"k", b"old", 4096).unwrap();
        let old = store.get(b"k").unwrap().segments[0].clone();
        store.put(&ctx, b"k", b"new!", 4096).unwrap();
        assert_eq!(&*store.get(b"k").unwrap().segments[0], b"new!");
        // The old buffer still reads "old" through the retained reference:
        // no in-place update happened.
        assert_eq!(&*old, b"old");
    }

    #[test]
    fn missing_key_is_none() {
        let (store, _ctx) = setup();
        assert!(store.get(b"nope").is_none());
    }

    #[test]
    fn preload_deterministic() {
        let (mut store, ctx) = setup();
        store.preload(&ctx, b"key", &[100, 200]).unwrap();
        let v = store.get(b"key").unwrap();
        assert_eq!(v.segments.len(), 2);
        assert_eq!(v.segments[0][0], KvStore::expected_fill(b"key", 0));
        assert_eq!(v.segments[1][0], KvStore::expected_fill(b"key", 1));
        assert_eq!(v.segments[1].len(), 200);
    }

    #[test]
    fn lookups_charge_time() {
        let (mut store, ctx) = setup();
        store.preload(&ctx, b"key", &[64]).unwrap();
        let t0 = ctx.sim.now();
        store.get(b"key");
        assert!(ctx.sim.now() > t0);
    }

    #[test]
    fn values_are_recoverable_for_zero_copy() {
        let (mut store, ctx) = setup();
        store.preload(&ctx, b"key", &[2048]).unwrap();
        let v = store.get(b"key").unwrap();
        let rec = ctx.registry.recover(v.segments[0].as_slice());
        assert!(rec.is_some(), "stored segments live in registered memory");
    }

    #[test]
    fn keys_on_both_sides_of_the_inline_boundary_round_trip() {
        let (mut store, ctx) = setup();
        let long = [b'k'; 64];
        for len in [0, 1, INLINE_KEY - 1, INLINE_KEY, INLINE_KEY + 1, 64] {
            store
                .put(&ctx, &long[..len], &[len as u8; 9], 4096)
                .unwrap();
        }
        for len in [0, 1, INLINE_KEY - 1, INLINE_KEY, INLINE_KEY + 1, 64] {
            assert_eq!(
                &*store.get(&long[..len]).unwrap().segments[0],
                &[len as u8; 9]
            );
        }
        assert!(store.get(&long[..INLINE_KEY + 2]).is_none());
        assert_eq!(store.len(), 6);
    }

    struct CountCharges(Cell<u32>);

    impl ChargeObserver for CountCharges {
        fn on_charge(&self, _cat: Category, _ns: f64) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// The host-only pass ahead of a multi-key GET is invisible to the
    /// virtual clock: `get_each` over more keys than one round holds — hits
    /// of one to ten value lines, and a miss — raises exactly
    /// the charges a loop of `get` raises on a twin (a hash and two index
    /// lines per key, so the pass added none) and leaves `Sim::now()` where
    /// that loop leaves it.
    #[test]
    fn prefetch_pass_charges_nothing_and_leaves_the_clock_alone() {
        let keys: Vec<Vec<u8>> = (0..ROUND + 3)
            .map(|i| format!("batch-key-{i}").into_bytes())
            .collect();
        let twin = || {
            let (mut store, ctx) = setup();
            for (i, key) in keys.iter().enumerate().skip(1) {
                store.preload(&ctx, key, &[100 * i]).unwrap();
            }
            let seen = Rc::new(CountCharges(Cell::new(0)));
            ctx.sim.set_charge_observer(Some(seen.clone()));
            (store, ctx, seen)
        };
        let (store, ctx, seen) = twin();
        let (plain_store, plain_ctx, plain_seen) = twin();
        assert_eq!(plain_ctx.sim.now(), ctx.sim.now());

        let mut lens = Vec::new();
        store.get_each(keys.iter().map(Vec::as_slice), |v| lens.push(v.len()));
        assert_eq!(lens, (1..ROUND + 3).map(|i| 100 * i).collect::<Vec<_>>());
        assert_eq!(seen.0.get() as usize, 3 * keys.len());

        let plain_lens = keys
            .iter()
            .filter_map(|k| plain_store.get(k))
            .map(Value::len);
        assert_eq!(plain_lens.collect::<Vec<_>>(), lens);
        assert_eq!(plain_seen.0.get(), seen.0.get());
        assert_eq!(plain_ctx.sim.now(), ctx.sim.now());
        let attributed = |ctx: &SerCtx| ctx.sim.attribution().total();
        assert_eq!(attributed(&plain_ctx), attributed(&ctx));
    }

    // ---- differential: the table against std's HashMap ----

    /// Segment size of the multi-segment puts below.
    const SMALL_SEGMENT: usize = 64;

    /// The keys a case draws from, lengths 0..=64 throughout: 24 that share a
    /// home slot in every table of up to 4,096 slots (so that probes pass
    /// over each other's slots and tombstones), 8 spilled keys that agree in
    /// all but their last byte or their length, and 64 others.
    fn universe() -> &'static [Vec<u8>] {
        static KEYS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        KEYS.get_or_init(|| {
            let candidates = (0u32..).map(|n| {
                let mut key = n.to_le_bytes().repeat(16);
                key.truncate(1 + n as usize % 64);
                key
            });
            let mut keys: Vec<Vec<u8>> = candidates
                .filter(|key| home(fnv1a(key), 4096) == 77)
                .take(24)
                .collect();
            for n in 0..8u8 {
                let mut key = vec![b'p'; 40 + 3 * (n as usize / 2)];
                *key.last_mut().unwrap() = n % 2;
                keys.push(key);
            }
            for n in 0..64u8 {
                keys.push(vec![n.wrapping_mul(37); n as usize + (n as usize % 2)]);
            }
            keys.push(Vec::new());
            keys.sort();
            keys.dedup();
            keys
        })
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// `put` of that many bytes, in segments of `SMALL_SEGMENT` when set.
        Put(usize, usize, bool),
        /// `preload` of one segment or of three.
        Preload(usize, usize, bool),
        Remove(usize),
        Get(usize),
    }

    /// Puts outnumber removes three to one, so that a case of 500 operations
    /// settles near 70 live keys: past the growth at 13, at 26 and at 52.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (
            0u32..100,
            0usize..universe().len(),
            0usize..=192,
            any::<bool>(),
        )
            .prop_map(|(kind, key, len, flag)| match kind {
                0..=39 => Op::Put(key, len, flag),
                40..=54 => Op::Preload(key, len, flag),
                55..=74 => Op::Remove(key),
                _ => Op::Get(key),
            });
        proptest::collection::vec(op, 500)
    }

    fn segment_bytes(value: &Value) -> Vec<Vec<u8>> {
        value.segments.iter().map(|seg| seg.to_vec()).collect()
    }

    /// The store against the model, key by key, and the table's own
    /// bookkeeping against its slots.
    fn check(
        store: &KvStore,
        ctx: &SerCtx,
        model: &HashMap<Vec<u8>, Vec<Vec<u8>>>,
    ) -> Result<(), String> {
        if store.len() != model.len() {
            return Err(format!("len {} != model {}", store.len(), model.len()));
        }
        for key in universe() {
            let stored = store.get(key);
            if stored.map(segment_bytes) != model.get(key).cloned() {
                return Err(format!("key {key:?}: {stored:?} != {:?}", model.get(key)));
            }
            let stored = stored.map_or(&[][..], |value| &value.segments);
            if let Some(seg) = stored.iter().find(|seg| seg.refcount() != 1) {
                return Err(format!("key {key:?}: {seg:?} is shared at rest"));
            }
        }
        let segments: usize = model.values().map(Vec::len).sum();
        if ctx.pool.live_slots() != segments {
            let live = ctx.pool.live_slots();
            return Err(format!(
                "{live} live pool slots for {segments} stored segments"
            ));
        }
        let full = store.slots.iter().filter(|s| matches!(s, Slot::Full(..)));
        let empty = store.slots.iter().filter(|s| matches!(s, Slot::Empty));
        let (full, empty, slots) = (full.count(), empty.count(), store.slots.len());
        if full != store.len || slots - empty != store.used || store.used * 5 > slots * 4 {
            let (len, used) = (store.len, store.used);
            return Err(format!(
                "{full} full, {empty} empty of {slots}: len {len}, used {used}"
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn table_matches_a_hash_map_model(ops in ops()) {
            let (mut store, ctx) = setup();
            let mut model: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            let mut tombstones_reused = false;
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Put(k, len, small) => {
                        let key = &universe()[k];
                        let data: Vec<u8> = (0..len).map(|i| (i + step) as u8).collect();
                        let segment = if small { SMALL_SEGMENT } else { 4096 };
                        let used = store.used;
                        store.put(&ctx, key, &data, segment).unwrap();
                        // An empty value is one empty segment.
                        let mut segs: Vec<Vec<u8>> = data.chunks(segment).map(<[u8]>::to_vec).collect();
                        segs.resize(segs.len().max(1), Vec::new());
                        let was_absent = model.insert(key.clone(), segs).is_none();
                        tombstones_reused |= was_absent && store.used == used;
                    }
                    Op::Preload(k, len, three) => {
                        let key = &universe()[k];
                        let sizes = [len, len / 2, 0];
                        let sizes = if three { &sizes[..] } else { &sizes[..1] };
                        store.preload(&ctx, key, sizes).unwrap();
                        let fill = |i| KvStore::expected_fill(key, i);
                        let segs = sizes.iter().enumerate().map(|(i, &n)| vec![fill(i); n]);
                        model.insert(key.clone(), segs.collect());
                    }
                    Op::Remove(k) => {
                        let key = &universe()[k];
                        let removed = store.remove(key).as_ref().map(segment_bytes);
                        prop_assert_eq!(removed, model.remove(key), "remove at step {}", step);
                    }
                    Op::Get(k) => {
                        let key = &universe()[k];
                        let got = store.get(key).map(segment_bytes);
                        prop_assert_eq!(got, model.get(key).cloned(), "get at step {}", step);
                    }
                }
                if step % 25 == 24 {
                    if let Err(e) = check(&store, &ctx, &model) {
                        prop_assert!(false, "after step {step} ({op:?}): {e}");
                    }
                }
            }
            prop_assert!(store.slots.len() >= MIN_SLOTS << 3, "three doublings");
            prop_assert!(tombstones_reused, "an insert reused a tombstone");
            // Dropping the store releases everything it held.
            drop(store);
            prop_assert_eq!(ctx.pool.live_slots(), 0);
        }
    }
}
