//! Unit, differential and property tests for [`CacheSim`].

use proptest::prelude::*;

use super::reference::TimestampLru;
use super::*;
use crate::rng::SplitMix64;

/// Addresses the model accepts are below `1 << ADDR_BITS`.
const ADDR_BITS: u32 = ADDR_LIMIT.ilog2();

/// `tags` widened to 64 bits.
fn widen<T: Tag>(tags: &[T]) -> Vec<u64> {
    tags.iter().map(|&t| t.into()).collect()
}

/// Every stored tag, widened, in set order.
fn stored(c: &CacheSim) -> Vec<u64> {
    at_width!(&c.tags, sets => widen(&sets.buf[sets.start..sets.end]))
}

/// Ways per set and set-index bits.
fn geometry_of(c: &CacheSim) -> (usize, u32) {
    at_width!(&c.tags, sets => (sets.ways, sets.set_mask.count_ones()))
}

/// The line that stored tag `t` stands for in set `set`: the tag's bits
/// above the width's shift, the set index's below.
fn decode(c: &CacheSim, set: u64, t: u64) -> u64 {
    fn shift<T: Tag>(_: &Sets<T>) -> u32 {
        T::SHIFT
    }
    let shift = at_width!(&c.tags, sets => shift(sets));
    (t - 1) << shift | set & ((1 << shift) - 1)
}

/// The stored tags of `line`'s set, widened, and the tag `line` has there.
fn set_and_tag(c: &CacheSim, line: u64) -> (Vec<u64>, u64) {
    fn set_and_tag<T: Tag>(sets: &Sets<T>, line: u64) -> (Vec<u64>, u64) {
        let base = sets.base(line);
        (widen(&sets.buf[base..base + sets.ways]), T::of(line).into())
    }
    at_width!(&c.tags, sets => set_and_tag(sets, line))
}

#[test]
fn cold_access_misses_then_hits() {
    let mut c = CacheSim::new(1 << 16, 8);
    assert!(!c.touch(0x40));
    assert!(c.touch(0x40));
    assert!(c.touch(0x7f)); // same line as 0x40
    assert!(!c.touch(0x80)); // next line
}

#[test]
fn access_counts_lines() {
    let mut c = CacheSim::new(1 << 16, 8);
    let r = c.access(10, 100); // spans lines 0 and 1
    assert_eq!(r, AccessResult { hits: 0, misses: 2 });
    let r = c.access(10, 100);
    assert_eq!(r, AccessResult { hits: 2, misses: 0 });
}

#[test]
fn zero_len_access_is_free() {
    let mut c = CacheSim::new(1 << 16, 8);
    assert_eq!(c.access(0, 0).lines(), 0);
}

#[test]
fn lru_evicts_oldest() {
    // One set (64B * 2 ways = 128B capacity), 2-way.
    let mut c = CacheSim::new(128, 2);
    assert_eq!(geometry_of(&c), (2, 0));
    c.touch(0); // A
    c.touch(1 << 20); // B
    c.touch(0); // A again, so B is LRU
    c.touch(2 << 20); // C evicts B
    assert!(c.probe(0));
    assert!(!c.probe(1 << 20));
    assert!(c.probe(2 << 20));
}

#[test]
fn working_set_larger_than_cache_thrashes() {
    let cap = 1 << 14; // 16 KiB
    let mut c = CacheSim::new(cap, 8);
    // Stream 10x the capacity twice; second pass should still mostly miss.
    let span = (cap * 10) as u64;
    for pass in 0..2 {
        let r = c.access(0, span as usize);
        if pass == 1 {
            let ratio = r.hits as f64 / r.lines() as f64;
            assert!(ratio < 0.2, "expected thrashing, hit ratio {ratio}");
        }
    }
}

#[test]
fn small_working_set_fully_resident() {
    let mut c = CacheSim::new(1 << 20, 16);
    c.access(0x5000, 4096);
    let r = c.access(0x5000, 4096);
    assert_eq!(r.misses, 0);
}

#[test]
fn probe_does_not_mutate() {
    let mut c = CacheSim::new(128, 2);
    c.touch(0);
    c.touch(1 << 20);
    // Probing A must not refresh it.
    assert!(c.probe(0));
    c.touch(2 << 20); // evicts A (LRU), not B
    assert!(!c.probe(0));
    assert!(c.probe(1 << 20));
}

#[test]
fn clear_empties() {
    let mut c = CacheSim::new(1 << 16, 8);
    c.touch(0x40);
    c.clear();
    assert!(!c.probe(0x40));
}

#[test]
#[should_panic(expected = "cannot hold one 4-way set")]
fn capacity_below_one_set_is_rejected() {
    CacheSim::new(128, 4);
}

#[test]
fn tags_are_32_bits_from_2_pow_11_sets_on() {
    let narrow = |c: CacheSim| matches!(c.tags, Tags::Narrow(_));
    assert!(narrow(CacheSim::new(1 << 17, 1))); // 2^11 sets
    assert!(!narrow(CacheSim::new(1 << 16, 1))); // 2^10 sets
    assert!(narrow(CacheSim::new(16 << 20, 16)));
    assert!(narrow(CacheSim::new(128 << 20, 16)));
    assert!(!narrow(CacheSim::new(64 << 10, 8)));
}

#[test]
fn lines_at_the_top_of_the_address_space_keep_their_own_tags() {
    for (capacity, ways) in [(1 << 17, 1), (1 << 16, 1), (16 << 20, 16)] {
        let mut c = CacheSim::new(capacity, ways);
        let top = (1 << 48) - LINE;
        // Same set, differing only in bit 47 (and, in the 1-way caches, a
        // direct conflict).
        assert!(!c.touch(top));
        assert!(!c.probe(top ^ 1 << 47));
        assert!(c.probe(top + LINE - 1));
        assert_eq!(c.access(top - LINE, 2 * LINE as usize).hits, 1);
    }
}

#[test]
#[should_panic(expected = "48-bit address space")]
fn address_at_2_pow_48_is_rejected() {
    CacheSim::new(16 << 20, 16).touch(1 << 48);
}

#[test]
#[should_panic(expected = "48-bit address space")]
fn range_reaching_2_pow_48_is_rejected() {
    CacheSim::new(64 << 10, 8).access((1 << 48) - LINE, LINE as usize + 1);
}

// ---- differential: the recency-ordered sets against the timestamp LRU ----

/// Capacity × ways of every geometry the differential runs on; the last
/// one's 96 sets round down to 64.
const GEOMETRIES: [(usize, usize); 7] = [
    (64, 1),
    (128, 2),
    (4 << 10, 4),
    (16 << 10, 8),
    (64 << 10, 16),
    (16 << 20, 16),
    (48 << 10, 8),
];

/// Operations per geometry in [`matches_timestamp_lru_op_by_op`].
const DIFFERENTIAL_OPS: u64 = 1_000_000;

/// Draws an address that is either one of `3 × ways` lines competing for one
/// of four sets (evictions in every geometry, however large) or uniform over
/// four capacities (set-to-set walks, wrap-around at the last set).
fn draw_addr(rng: &mut SplitMix64, capacity: usize, ways: usize) -> u64 {
    let set_stride = (capacity / ways).max(LINE as usize) as u64;
    let offset = rng.next_bounded(LINE);
    if rng.next_bool(0.6) {
        let set = rng.next_bounded(4) * LINE;
        set + rng.next_bounded(3 * ways as u64) * set_stride + offset
    } else {
        rng.next_bounded(4 * capacity as u64) + offset
    }
}

/// Mostly short ranges (one to five lines), sometimes a 4 KiB value.
fn draw_len(rng: &mut SplitMix64) -> usize {
    match rng.next_bounded(16) {
        0 => 0,
        1 => rng.next_bounded(4200) as usize,
        _ => rng.next_bounded(300) as usize,
    }
}

/// The AVX2 invalidation walk, called directly where this CPU has AVX2 (the
/// scalar one elsewhere), whichever one [`CacheSim::invalidate`] dispatches
/// to.
fn invalidate_vector(c: &mut CacheSim, addr: u64, len: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `invalidate_avx2` only needs AVX2, just detected.
        return unsafe { c.invalidate_avx2(addr, len) };
    }
    c.invalidate_scalar(addr, len);
}

/// Whether `a` and `b` hold the same tags in every set that a line of
/// `[addr, addr + len)` maps to (the one set of `addr` when `len` is zero).
fn same_sets(a: &CacheSim, b: &CacheSim, addr: u64, len: usize) -> bool {
    fn same<T: Tag>(a: &Sets<T>, b: &Sets<T>, lines: impl Iterator<Item = u64>) -> bool {
        lines.take(1 << a.set_mask.count_ones()).all(|line| {
            let (i, j) = (a.base(line), b.base(line));
            a.buf[i..i + a.ways] == b.buf[j..j + a.ways]
        })
    }
    let lines = addr / LINE..=(addr + len.max(1) as u64 - 1) / LINE;
    match (&a.tags, &b.tags) {
        (Tags::Narrow(a), Tags::Narrow(b)) => same(a, b, lines),
        (Tags::Wide(a), Tags::Wide(b)) => same(a, b, lines),
        _ => false,
    }
}

/// Runs [`DIFFERENTIAL_OPS`] random operations at addresses from `draw` on a
/// `CacheSim` and the timestamp LRU, comparing every return value, and
/// returns both. `CacheSim` invalidates with the vector walk and a clone of
/// it with the scalar one; every other operation goes to both, and after each
/// the sets it reached must be equal.
fn differential(
    capacity: usize,
    ways: usize,
    seed: u64,
    mut draw: impl FnMut(&mut SplitMix64) -> u64,
) -> (CacheSim, TimestampLru) {
    let mut new = CacheSim::new(capacity, ways);
    let mut old = TimestampLru::new(capacity, ways);
    let mut scalar = new.clone();
    let mut rng = SplitMix64::new(seed);
    for op in 0..DIFFERENTIAL_OPS {
        let addr = draw(&mut rng);
        let what = rng.next_bounded(100);
        let ctx = (capacity, ways, op, addr);
        let mut reached = 0;
        match what {
            0..=34 => {
                assert_eq!(new.touch(addr), old.touch(addr), "touch {ctx:?}");
                scalar.touch(addr);
            }
            35..=59 => {
                let len = draw_len(&mut rng);
                assert_eq!(
                    new.access(addr, len),
                    old.access(addr, len),
                    "access {ctx:?}"
                );
                scalar.access(addr, len);
                reached = len;
            }
            60..=79 => assert_eq!(new.probe(addr), old.probe(addr), "probe {ctx:?}"),
            80..=98 => {
                let len = draw_len(&mut rng);
                invalidate_vector(&mut new, addr, len);
                scalar.invalidate_scalar(addr, len);
                old.invalidate(addr, len);
                reached = len;
            }
            _ if rng.next_bounded(2000) == 0 => {
                new.clear();
                scalar.clear();
                old.clear();
            }
            // A host-only hint, to the new cache alone: the reference has
            // no such call, so every later comparison also says that no
            // interleaving of hints changes what the model returns.
            _ => new.hint(addr),
        }
        assert!(
            same_sets(&new, &scalar, addr, reached),
            "vector and scalar walks differ after {ctx:?}"
        );
    }
    assert_eq!(
        stored(&new),
        stored(&scalar),
        "vector and scalar walks, {capacity} B"
    );
    // Every line `new` holds, decoded from its set and stored tag, is one
    // the reference holds: no tag stands for another line.
    let (ways, _) = geometry_of(&new);
    for (i, &t) in stored(&new).iter().enumerate().filter(|(_, &t)| t != 0) {
        let line = decode(&new, (i / ways) as u64, t);
        assert!(old.probe(line * LINE), "line {line:#x} only in CacheSim");
    }
    (new, old)
}

#[test]
fn matches_timestamp_lru_op_by_op() {
    for (capacity, ways) in GEOMETRIES {
        let (new, old) = differential(capacity, ways, capacity as u64 ^ 0x5EED, |rng| {
            draw_addr(rng, capacity, ways)
        });
        // Same residents at the end, over every address the run could draw.
        let span = (4 * capacity as u64).max(3 * capacity as u64 + 4 * LINE);
        for addr in (0..span).step_by(LINE as usize) {
            assert_eq!(new.probe(addr), old.probe(addr), "final probe {addr:#x}");
        }
    }
}

/// Bases of the address regions the program's models touch: heap (`0x55…`)
/// and mmap (`0x7f…`) addresses, the store index's synthetic `INDEX_BASE`,
/// Fig. 13's synthetic array, and a heap address as protolite moves it
/// (`^ 0x5000_0000_0000`).
const REAL_BASES: [u64; 5] = [
    0x5555_5556_a000,
    0x7f3a_91c0_0000,
    0x7000_0000_0000,
    0x7800_0000_0000,
    0x5555_5556_a000 ^ 0x5000_0000_0000,
];

/// Draws an address within 128 KiB of one of [`REAL_BASES`] (so walks cross
/// the bases' power-of-two boundaries, where the set index wraps), then,
/// three times in four, a rival line in its set: one of 3 × `ways` in the
/// lowest tag bits (evictions) or in the highest below 2⁴⁸, or one differing
/// only above bit 32 + 6 + `set_bits` — bits that 32 bits above the set
/// index cannot hold — where such bits exist below 2⁴⁸. The draw stays
/// [`draw_len`]'s longest range below 2⁴⁸.
fn draw_real_addr(rng: &mut SplitMix64, ways: usize, set_bits: u32) -> u64 {
    let base = REAL_BASES[rng.next_bounded(REAL_BASES.len() as u64) as usize];
    let addr = base - (128 << 10) + rng.next_bounded(256 << 10);
    let rival = rng.next_bounded(3 * ways as u64);
    let above_32 = 32 + 6 + set_bits;
    let addr = match rng.next_bounded(4) {
        0 => addr,
        1 => addr ^ rival << (6 + set_bits),
        3 if above_32 < ADDR_BITS => {
            addr ^ (1 + rng.next_bounded((1 << (ADDR_BITS - above_32)) - 1)) << above_32
        }
        _ => addr ^ rival << (ADDR_BITS - 6),
    };
    addr.min((1 << ADDR_BITS) - 4200)
}

/// The two machine profiles' geometries, the test profile's, and 1-way
/// caches on either side of the tag-width boundary (2¹¹ and 2¹⁰ sets).
#[test]
fn matches_timestamp_lru_at_real_addresses() {
    let geometries = [
        (16 << 20, 16),
        (128 << 20, 16),
        (64 << 10, 8),
        (128 << 10, 1),
        (64 << 10, 1),
    ];
    for (capacity, ways) in geometries {
        let set_bits = (capacity / LINE as usize / ways).ilog2();
        differential(capacity, ways, capacity as u64 ^ 0xADD5, |rng| {
            draw_real_addr(rng, ways, set_bits)
        });
    }
}

// ---- properties of the set layout ----

#[derive(Clone, Debug)]
enum Op {
    Touch(u64),
    Access(u64, usize),
    Probe(u64),
    Invalidate(u64, usize),
    Clear,
}

/// Addresses over 16 KiB: four times the largest geometry below. `Clear` is
/// rare so that sets fill up between two of them.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..200, 0u64..(16 << 10), 0usize..700).prop_map(|(kind, a, l)| match kind {
        0 => Op::Clear,
        1..=80 => Op::Touch(a),
        81..=120 => Op::Access(a, l),
        121..=150 => Op::Probe(a),
        _ => Op::Invalidate(a, l),
    });
    proptest::collection::vec(op, 1..400)
}

/// Small geometries: one way, one set, the two unrolled widths, a generic one,
/// and the smallest with 32-bit tags.
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((64, 1)),
        Just((128 << 10, 1)),
        Just((256, 4)),
        Just((1 << 10, 2)),
        Just((2 << 10, 8)),
        Just((4 << 10, 16)),
        Just((3 << 10, 3)),
    ]
}

fn apply(c: &mut CacheSim, op: &Op) {
    match *op {
        Op::Touch(a) => {
            c.touch(a);
        }
        Op::Access(a, l) => {
            c.access(a, l);
        }
        Op::Probe(a) => {
            c.probe(a);
        }
        Op::Invalidate(a, l) => c.invalidate(a, l),
        Op::Clear => c.clear(),
    }
}

/// The sets start on a 64-byte boundary, and every set holds distinct valid
/// tags of lines in the address space, most recent first, with the invalid
/// ways after them.
fn check_layout(c: &CacheSim) -> Result<(), String> {
    if at_width!(&c.tags, sets => sets.buf[sets.start..].as_ptr().addr() % HOST_LINE != 0) {
        return Err("sets are not 64-byte aligned".into());
    }
    let (ways, set_bits) = geometry_of(c);
    for (i, set) in stored(c).chunks_exact(ways).enumerate() {
        let valid = set.iter().take_while(|&&t| t != 0).count();
        if set[valid..].iter().any(|&t| t != 0) {
            return Err(format!("set {i}: valid way after an invalid one: {set:?}"));
        }
        for (j, &t) in set[..valid].iter().enumerate() {
            // The line the stored tag stands for in set `i` maps to set `i`
            // and lies below 2^48 bytes.
            let line = decode(c, i as u64, t);
            if line & ((1 << set_bits) - 1) != i as u64 || line >> (ADDR_BITS - 6) != 0 {
                return Err(format!("set {i}: tag {t} belongs to another set"));
            }
            if set[..j].contains(&t) {
                return Err(format!("set {i}: duplicate tag {t}: {set:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sets_stay_duplicate_free_with_invalid_ways_last((capacity, ways) in geometry(), ops in ops()) {
        let mut c = CacheSim::new(capacity, ways);
        for op in &ops {
            apply(&mut c, op);
            if let Err(e) = check_layout(&c) {
                prop_assert!(false, "after {op:?}: {e}");
            }
        }
    }

    #[test]
    fn touched_line_is_most_recent((capacity, ways) in geometry(), ops in ops(), addr in 0u64..(16 << 10)) {
        let mut c = CacheSim::new(capacity, ways);
        ops.iter().for_each(|op| apply(&mut c, op));
        c.touch(addr);
        let (set, tag) = set_and_tag(&c, addr / LINE);
        prop_assert_eq!(set[0], tag);
    }

    #[test]
    fn probe_never_mutates((capacity, ways) in geometry(), ops in ops(), addr in 0u64..(16 << 10)) {
        let mut c = CacheSim::new(capacity, ways);
        ops.iter().for_each(|op| apply(&mut c, op));
        let before = stored(&c);
        let resident = c.probe(addr);
        prop_assert_eq!(&stored(&c), &before);
        let (set, tag) = set_and_tag(&c, addr / LINE);
        prop_assert_eq!(resident, set.contains(&tag));
    }

    #[test]
    fn access_is_a_sequence_of_touches(
        (capacity, ways) in geometry(),
        ops in ops(),
        addr in 0u64..(16 << 10),
        len in 0usize..9000,
    ) {
        let mut ranged = CacheSim::new(capacity, ways);
        ops.iter().for_each(|op| apply(&mut ranged, op));
        let mut line_by_line = ranged.clone();
        let r = ranged.access(addr, len);
        let mut hits = 0;
        let mut lines = 0;
        if len > 0 {
            for line in addr / LINE..=(addr + len as u64 - 1) / LINE {
                hits += line_by_line.touch(line * LINE) as u64;
                lines += 1;
            }
        }
        prop_assert_eq!(r, AccessResult { hits, misses: lines - hits });
        prop_assert_eq!(&stored(&ranged), &stored(&line_by_line));
        prop_assert!(check_layout(&line_by_line).is_ok(), "clone: {:?}", check_layout(&line_by_line));
    }

    #[test]
    fn invalidated_range_is_not_resident((capacity, ways) in geometry(), ops in ops(), addr in 0u64..(16 << 10), len in 1usize..700) {
        let mut c = CacheSim::new(capacity, ways);
        ops.iter().for_each(|op| apply(&mut c, op));
        c.invalidate(addr, len);
        for a in (addr..addr + len as u64).step_by(LINE as usize) {
            prop_assert!(!c.probe(a), "{a:#x} still resident");
        }
        prop_assert!(!c.probe(addr + len as u64 - 1));
    }
}
