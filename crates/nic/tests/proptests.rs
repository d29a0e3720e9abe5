//! Property tests for the simulated NIC.
//!
//! Invariants:
//! 1. Gather correctness: however a payload is split into scatter entries,
//!    the delivered frame is the concatenation, byte-exact — except the
//!    4-byte FCS field, which the NIC seals with a verifying CRC32.
//! 2. Completion safety: every posted buffer keeps exactly one extra
//!    reference until completions are polled.
//! 3. Limits: entry counts above the NIC's maximum and frames above the
//!    MTU are rejected without transmitting anything.
//! 4. Detection: a wire error burst of up to 32 bits, anywhere in a frame
//!    of any length up to the MTU, fails the sealed FCS — at a random
//!    position and at every offset where the CRC kernels hand over.

use proptest::prelude::*;

use cf_mem::{PinnedPool, PoolConfig, Registry};
use cf_nic::{link, FaultPlan, Nic, FCS_OFFSET, MAX_FRAME};
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
        let rx = b.recv_into(&pool).expect("frame");
        let expected: Vec<u8> = pieces.concat();
        // The NIC owns the 4-byte FCS field (checksum offload seals it at
        // post_tx); every other byte is the exact concatenation.
        let rx_bytes = rx.as_slice();
        prop_assert_eq!(rx_bytes.len(), expected.len());
        for (i, (&got, &want)) in rx_bytes.iter().zip(expected.iter()).enumerate() {
            if rx_bytes.len() >= cf_nic::FCS_OFFSET + 4
                && (cf_nic::FCS_OFFSET..cf_nic::FCS_OFFSET + 4).contains(&i)
            {
                continue;
            }
            prop_assert_eq!(got, want, "byte {} differs", i);
        }
        prop_assert!(cf_nic::fcs_ok(rx_bytes), "sealed FCS verifies");
    }

    #[test]
    fn error_bursts_fail_the_sealed_fcs(
        len in FCS_OFFSET + 4..=MAX_FRAME,
        fill in any::<u8>(),
        place in any::<u64>(),
        width in 1usize..=32,
    ) {
        let (mut a, mut b, pool) = setup();
        let faults = b.port().install_faults(Clock::new(), FaultPlan::none());
        let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add((i * 131) as u8)).collect();
        // Where the FCS walk changes hands: around the masked field, the
        // fold kernel's 64-byte groups and 16-byte lanes (counted from the
        // frame start and from byte 22, where the body starts), the tail.
        let boundaries = [
            0, 17, 18, 19, 20, 21, 22, 37, 38, 63, 64, 85, 86, 127, 128,
            len.saturating_sub(17), len - 1,
        ];
        let bursts = boundaries
            .iter()
            .flat_map(|&byte| [(8 * byte, 1), (8 * byte + 7, 2), (8 * byte + 3, width)])
            .chain([(place as usize % (8 * len), width)])
            .filter(|(first_bit, width)| first_bit + width <= 8 * len);
        for (first_bit, width) in bursts {
            // Two entries, so the error also lands either side of a
            // scatter-gather seam.
            let (head, tail) = bytes.split_at(len / 3);
            let entries = [head, tail]
                .iter()
                .filter(|piece| !piece.is_empty())
                .map(|piece| pool.alloc_from(piece).expect("alloc"))
                .collect();
            a.post_tx(entries).expect("post");
            a.poll_completions();
            prop_assert!(faults.corrupt_pending_at(first_bit, width));
            let rx = b.recv_into(&pool).expect("frame");
            prop_assert!(
                !cf_nic::fcs_ok(rx.as_slice()),
                "{} bits flipped from bit {} of a {} B frame went undetected",
                width, first_bit, len
            );
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
