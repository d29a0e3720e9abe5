//! A fixed reference kernel that tells how fast the machine is right now.
//!
//! The sandbox the benchmark runs in drifts: the same binary on the same
//! inputs took 2.9 µs per `get_small` round trip at one time and 3.8–4.4 µs
//! an hour later, and two sets of ten runs a quarter of an hour apart had
//! medians 12–18 % apart. No amount of work inside a run averages that
//! away, so the host phase times this kernel between its rounds of batches
//! and reports host ns/req **at reference speed**: wall ns × (what the
//! kernel takes on the machine the benchmark was defined on ÷ what it took
//! around that batch). The kernel is the benchmark's own code — a later
//! change to the crates cannot speed it up — and mixes what a round trip
//! is made of: a table-driven CRC over a frame-sized buffer (the largest
//! share of host time on every workload), hash-map lookups, and a copy.
//! Its data fits the L2 cache and an untimed round re-warms it first, so
//! that it measures the core's speed, not what the workload left in the
//! caches: a kernel that missed the caches read 30 % slower next to
//! `get_large` (64 MiB working set) than next to `get_small`. Over ten
//! runs on ten seeds it cut the distance between the quartiles of
//! `host_ns_per_req` from 5.7 % of the median to 1.2 % on `get_small` and
//! from 5.1 % to 2.2 % on `twitter_mix`. It does not see a slow memory
//! system: one `get_small` run in a bad spell was 35 % slow raw and still
//! 12 % slow normalised. Raw medians stay in `results.json`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What [`Reference::run_ns`] takes, in ns, on the machine and at the time
/// the benchmark was defined: the speed host metrics are normalised to.
pub const REFERENCE_NS: f64 = 390_000.0;

const ROUNDS: u64 = 32;
const BUFFER_BYTES: usize = 4_096;
const MAP_ENTRIES: u64 = 4_096;
const LOOKUPS_PER_ROUND: u64 = 64;

/// The kernel's state: a CRC table, a frame-sized buffer and a small map.
pub struct Reference {
    table: [u32; 256],
    buffer: Vec<u8>,
    map: HashMap<u64, u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the kernel's state.
    pub fn new() -> Reference {
        let table = std::array::from_fn(|i| {
            (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        });
        Reference {
            table,
            buffer: vec![0x5A; BUFFER_BYTES],
            map: (0..MAP_ENTRIES).map(|k| (k, 3 * k)).collect(),
        }
    }

    /// Runs the kernel — one untimed round to warm its data, then the
    /// timed ones — and returns the host ns the timed rounds took.
    pub fn run_ns(&mut self) -> f64 {
        self.rounds(1);
        let t0 = Instant::now();
        self.rounds(ROUNDS);
        t0.elapsed().as_nanos() as f64
    }

    fn rounds(&mut self, n: u64) {
        let mut acc = 0u64;
        for round in 0..n {
            let crc = self.buffer.iter().fold(!0u32, |c, &b| {
                self.table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
            });
            acc = acc.wrapping_add(u64::from(crc));
            for k in 0..LOOKUPS_PER_ROUND {
                let key = (round * LOOKUPS_PER_ROUND + k).wrapping_mul(2_654_435_761) % MAP_ENTRIES;
                acc = acc.wrapping_add(self.map[&key]);
            }
            self.buffer
                .copy_within(..BUFFER_BYTES / 2, BUFFER_BYTES / 2);
            self.buffer[0] = acc as u8;
        }
        black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        for _ in 0..3 {
            assert!(a.run_ns() > 0.0 && b.run_ns() > 0.0);
            assert_eq!(a.buffer, b.buffer, "state evolves deterministically");
        }
        // The table is the IEEE CRC-32 one.
        assert_eq!(a.table[1], 0x7707_3096);
        assert_eq!(a.table[255], 0x2D02_EF8D);
    }
}
