//! Property tests for the simulated NIC.
//!
//! Invariants:
//! 1. Gather correctness: however a payload is split into scatter entries,
//!    the delivered frame is the concatenation, byte-exact.
//! 2. Completion safety: every posted buffer keeps exactly one extra
//!    reference until completions are polled.
//! 3. Limits: entry counts above the NIC's maximum and frames above the
//!    MTU are rejected without transmitting anything.
//! 4. Corruption marks: a frame the fault injector corrupts arrives marked
//!    (through a delay too), and every frame it leaves untouched arrives
//!    unmarked and byte-exact (a wire duplicate made before the corruption
//!    too).

use proptest::prelude::*;

use cf_mem::{PinnedPool, PoolConfig, Registry};
use cf_nic::{link, FaultPlan, Nic, MAX_FRAME};
use cf_sim::{Clock, MachineProfile, Sim};

fn setup() -> (Nic, Nic, PinnedPool) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (pa, pb) = link();
    let pool = PinnedPool::new(
        Registry::new(),
        PoolConfig {
            min_class: 64,
            max_class: 16 * 1024,
            slots_per_region: 64,
            max_regions_per_class: 64,
        },
    );
    (Nic::new(sim.clone(), pa), Nic::new(sim, pb), pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_is_concatenation(
        pieces in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..600), 1..16),
    ) {
        let (mut a, mut b, pool) = setup();
        let total: usize = pieces.iter().map(Vec::len).sum();
        prop_assume!(total <= cf_nic::MAX_FRAME);
        let entries: Vec<_> = pieces
            .iter()
            .map(|p| pool.alloc_from(p).expect("alloc"))
            .collect();
        a.post_tx(entries).expect("post");
        let (rx, _) = b.recv_into(&pool).expect("frame");
        prop_assert_eq!(rx.as_slice(), &pieces.concat()[..]);
    }

    #[test]
    fn corrupted_frames_and_only_they_arrive_marked(
        frames in proptest::collection::vec(
            (1usize..=MAX_FRAME, 0u8..4, any::<u64>(), 1usize..=32),
            1..8,
        ),
    ) {
        let (mut a, mut b, pool) = setup();
        let clock = Clock::new();
        let faults = b.port().install_faults(clock.clone(), FaultPlan::none());
        for (len, op, place, width) in frames {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131) as u8).collect();
            // Two entries, so a burst also lands either side of a
            // scatter-gather seam.
            let (head, tail) = bytes.split_at(len / 3);
            let entries = [head, tail]
                .iter()
                .filter(|piece| !piece.is_empty())
                .map(|piece| pool.alloc_from(piece).expect("alloc"))
                .collect();
            a.post_tx(entries).expect("post");
            a.poll_completions();
            let width = width.min(8 * len);
            let first_bit = place as usize % (8 * len - width + 1);
            // 0 untouched, 1 corrupted, 2 corrupted then delayed,
            // 3 duplicated then corrupted (the copy is untouched).
            if op == 3 {
                prop_assert!(faults.duplicate_pending());
            }
            if op > 0 {
                prop_assert!(faults.corrupt_pending_at(first_bit, width));
            }
            if op == 2 {
                prop_assert!(faults.delay_pending(100));
                prop_assert!(b.recv_into(&pool).is_none(), "held back");
                clock.advance(100);
            }
            let (rx, corrupted) = b.recv_into(&pool).expect("frame");
            prop_assert_eq!(corrupted, op > 0, "op {} on a {} B frame", op, len);
            prop_assert_eq!(rx.as_slice() == &bytes[..], op == 0);
            if op == 3 {
                let (copy, corrupted) = b.recv_into(&pool).expect("wire copy");
                prop_assert!(!corrupted, "the duplicate predates the corruption");
                prop_assert_eq!(copy.as_slice(), &bytes[..]);
            }
        }
        prop_assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn completions_release_exactly_once(
        rounds in proptest::collection::vec(1usize..6, 1..10),
    ) {
        let (mut a, _b, pool) = setup();
        let mut watchers = Vec::new();
        for (round, &n) in rounds.iter().enumerate() {
            let entries: Vec<_> = (0..n)
                .map(|i| pool.alloc_from(&[round as u8, i as u8]).expect("alloc"))
                .collect();
            watchers.extend(entries.iter().cloned());
            a.post_tx(entries).expect("post");
        }
        // All buffers pinned by the NIC: refcount 2 (watcher + queue).
        for w in &watchers {
            prop_assert_eq!(w.refcount(), 2);
        }
        prop_assert_eq!(a.pending_completions(), rounds.len());
        prop_assert_eq!(a.poll_completions(), rounds.len());
        for w in &watchers {
            prop_assert_eq!(w.refcount(), 1);
        }
        prop_assert_eq!(a.poll_completions(), 0, "idempotent");
    }

    #[test]
    fn oversized_descriptors_rejected_atomically(
        extra in 1usize..8,
    ) {
        let (mut a, mut b, pool) = setup();
        let max = a.max_sg_entries();
        let entries: Vec<_> = (0..max + extra)
            .map(|_| pool.alloc_from(b"x").expect("alloc"))
            .collect();
        prop_assert!(a.post_tx(entries).is_err());
        prop_assert_eq!(a.stats().tx_frames, 0);
        prop_assert!(b.recv_into(&pool).is_none(), "nothing transmitted");
    }
}
