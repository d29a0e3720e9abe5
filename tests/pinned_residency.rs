//! Pinned regions are registered whole but host-resident only where their
//! slots are written: a region's pages come from the kernel zeroed and are
//! mapped on first touch (DESIGN.md §13, "What a region costs the host").
//!
//! Measured with the process's `VmRSS`, so this file holds one test — no
//! sibling test thread allocates while it measures — and it is left out of
//! the AddressSanitizer and Miri runs, whose shadow memory and isolation
//! make `VmRSS` meaningless. Where `/proc/self/status` is absent the test
//! is skipped.

use cornflakes::mem::{PinnedPool, PoolConfig, Registry};

/// KiB in a MiB: `VmRSS` is reported in KiB.
const MIB: u64 = 1024;

/// The process's resident set in KiB, if the platform reports it.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn regions_are_resident_only_where_slots_are_written() {
    let Some(start) = vm_rss_kib() else {
        eprintln!("skipped: /proc/self/status is absent");
        return;
    };
    // The repo benchmark's geometry: 4,096 slots a region, up to 16 KiB.
    const SLOTS: usize = 4096;
    let pool = PinnedPool::new(
        Registry::new(),
        PoolConfig {
            min_class: 64,
            max_class: 16 * 1024,
            slots_per_region: SLOTS,
            max_regions_per_class: 4,
        },
    );
    let mut held = Vec::with_capacity(SLOTS + 1);

    // One 16 KiB slot registers a 64 MiB region...
    held.push(pool.alloc(16 * 1024).expect("a 16 KiB slot"));
    assert_eq!(pool.registered_bytes(), SLOTS * 16 * 1024);
    let allocated = vm_rss_kib().expect("VmRSS");
    // ...and makes almost none of it resident.
    assert!(
        allocated.saturating_sub(start) < 4 * MIB,
        "one 16 KiB allocation made {} KiB resident",
        allocated.saturating_sub(start)
    );

    // Writing every slot of a 64 B-class region (256 KiB) makes it resident.
    for i in 0..SLOTS {
        held.push(pool.alloc_from(&[i as u8; 64]).expect("a 64 B slot"));
    }
    let written = vm_rss_kib().expect("VmRSS");
    assert!(
        written.saturating_sub(allocated) >= 200,
        "writing a 256 KiB region made only {} KiB resident",
        written.saturating_sub(allocated)
    );
}
