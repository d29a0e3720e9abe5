//! Unit, differential and property tests for [`CacheSim`].

use proptest::prelude::*;

use super::reference::TimestampLru;
use super::*;
use crate::rng::SplitMix64;

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
    assert_eq!(c.set_mask, 0);
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
    let lines = addr / LINE..=(addr + len.max(1) as u64 - 1) / LINE;
    lines.take(a.tags.len() / a.ways).all(|line| {
        let set = (line & a.set_mask) as usize * a.ways..;
        a.tags[set.clone()][..a.ways] == b.tags[set][..a.ways]
    })
}

#[test]
fn matches_timestamp_lru_op_by_op() {
    for (capacity, ways) in GEOMETRIES {
        let mut new = CacheSim::new(capacity, ways);
        let mut old = TimestampLru::new(capacity, ways);
        // `new` invalidates with the vector walk and `scalar` with the scalar
        // one; every other operation goes to both, and after each the sets
        // it reached must be equal.
        let mut scalar = new.clone();
        let mut rng = SplitMix64::new(capacity as u64 ^ 0x5EED);
        for op in 0..DIFFERENTIAL_OPS {
            let addr = draw_addr(&mut rng, capacity, ways);
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
            new.tags, scalar.tags,
            "vector and scalar walks, {capacity} B"
        );
        // Same residents at the end, over every address the run could draw.
        let span = (4 * capacity as u64).max(3 * capacity as u64 + 4 * LINE);
        for addr in (0..span).step_by(LINE as usize) {
            assert_eq!(new.probe(addr), old.probe(addr), "final probe {addr:#x}");
        }
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

/// Small geometries: one way, one set, the two unrolled widths, a generic one.
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((64, 1)),
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

/// Every set holds distinct valid tags that map to it, most recent first,
/// with the invalid ways after them.
fn check_layout(c: &CacheSim) -> Result<(), String> {
    for (i, set) in c.tags.chunks_exact(c.ways).enumerate() {
        let valid = set.iter().take_while(|&&t| t != 0).count();
        if set[valid..].iter().any(|&t| t != 0) {
            return Err(format!("set {i}: valid way after an invalid one: {set:?}"));
        }
        for (j, &t) in set[..valid].iter().enumerate() {
            if (t - 1) & c.set_mask != i as u64 {
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
        let line = addr / LINE;
        let base = (line & c.set_mask) as usize * ways;
        prop_assert_eq!(c.tags[base], line + 1);
    }

    #[test]
    fn probe_never_mutates((capacity, ways) in geometry(), ops in ops(), addr in 0u64..(16 << 10)) {
        let mut c = CacheSim::new(capacity, ways);
        ops.iter().for_each(|op| apply(&mut c, op));
        let before = c.tags.clone();
        let resident = c.probe(addr);
        prop_assert_eq!(&c.tags, &before);
        prop_assert_eq!(resident, c.tags.contains(&(addr / LINE + 1)));
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
        prop_assert_eq!(&ranged.tags, &line_by_line.tags);
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
