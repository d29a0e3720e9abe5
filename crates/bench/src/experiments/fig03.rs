//! Figure 3: the §2.4 scatter-gather microbenchmark.
//!
//! Clients query a key-value store whose working set is several times
//! larger than the LLC; each response is a 2048-byte payload assembled from
//! 32 down to 1 non-contiguous buffers. Three configurations compete:
//! all-copy, scatter-gather *with* the memory-safety software overheads,
//! and raw scatter-gather without them.
//!
//! Paper result: raw scatter-gather strictly outperforms copying even for
//! 64-byte buffers, but with software overheads scatter-gather only wins
//! at 512 bytes and above.

use cf_sim::MachineProfile;
use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;
use cf_workloads::{key_string, Zipf};

use crate::harness::{capacity, KvBench};
use crate::tables::{f1, print_expectation, print_table};

/// One microbenchmark measurement on `profile`: max payload throughput in
/// Gbps for values of `segments` buffers of `seg_size` bytes, over
/// `requests` Zipf(0.99) GETs after `requests / 10` of warmup.
pub fn microbench_gbps_on(
    profile: MachineProfile,
    config: SerializationConfig,
    num_keys: u64,
    segments: usize,
    seg_size: usize,
    requests: u64,
) -> f64 {
    let mut b = KvBench::new(profile, SerKind::Cornflakes, config);
    b.preload(num_keys, |_| vec![seg_size; segments]);
    let mut zipf = Zipf::new(num_keys, 0.99, 0x5eed);
    let sim = b.server_sim.clone();
    capacity(&sim, requests, requests / 10, |_| {
        let key = key_string(zipf.next());
        b.request(|c| c.send_get(&[key.as_bytes()]))
    })
    .gbps()
}

/// [`microbench_gbps_on`] with the scaled-LLC microbench profile.
pub fn microbench_gbps(
    config: SerializationConfig,
    num_keys: u64,
    segments: usize,
    seg_size: usize,
    requests: u64,
) -> f64 {
    microbench_gbps_on(
        MachineProfile::microbench(),
        config,
        num_keys,
        segments,
        seg_size,
        requests,
    )
}

/// One row of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Number of buffers the 2048-byte payload is split into.
    pub segments: usize,
    /// Individual buffer size.
    pub seg_size: usize,
    /// All-copy throughput (Gbps).
    pub copy: f64,
    /// Scatter-gather with safety overheads (Gbps).
    pub sg: f64,
    /// Raw scatter-gather (Gbps).
    pub raw: f64,
}

/// Runs Figure 3 over `num_keys` keys with `requests` per point.
pub fn run(num_keys: u64, requests: u64) -> Vec<Fig3Row> {
    const TOTAL: usize = 2048;
    let mut rows = Vec::new();
    for &segments in &[32usize, 16, 8, 4, 2, 1] {
        let seg_size = TOTAL / segments;
        let gbps = |config| microbench_gbps(config, num_keys, segments, seg_size, requests);
        let copy = gbps(SerializationConfig::always_copy());
        let sg = gbps(SerializationConfig::always_zero_copy());
        let raw = gbps(SerializationConfig::raw());
        rows.push(Fig3Row {
            segments,
            seg_size,
            copy,
            sg,
            raw,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} x {}B", r.segments, r.seg_size),
                f1(r.copy),
                f1(r.sg),
                f1(r.raw),
                if r.sg > r.copy { "sg" } else { "copy" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 3: 2048 B payload from N buffers (max Gbps)",
        &["Shape", "Copy", "SG+overheads", "Raw SG", "Winner"],
        &table,
    );
    print_expectation(
        "crossover",
        "raw SG always wins; SG+overheads wins only for buffers >= 512 B",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{}B:{}",
                    r.seg_size,
                    if r.sg > r.copy { "sg" } else { "copy" }
                )
            })
            .collect::<Vec<_>>()
            .join(" "),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_shape_holds_scaled_down() {
        // 40k keys x 2 KiB ≈ 80 MB of values against a 16 MiB LLC — the
        // paper's "about 5x larger than L3 cache" (§2.4). The Zipf-hot head
        // stays resident, the tail misses.
        let rows = run(40_000, 600);
        for r in &rows {
            assert!(
                r.raw > r.copy,
                "raw SG must always beat copy ({} x {}B: raw {} vs copy {})",
                r.segments,
                r.seg_size,
                r.raw,
                r.copy
            );
            assert!(r.raw >= r.sg * 0.98, "raw SG bounds safe SG");
            if r.seg_size >= 512 {
                assert!(
                    r.sg > r.copy,
                    "SG should win at {}B fields ({} vs {})",
                    r.seg_size,
                    r.sg,
                    r.copy
                );
            } else if r.seg_size <= 128 {
                assert!(
                    r.copy > r.sg,
                    "copy should win at {}B fields ({} vs {})",
                    r.seg_size,
                    r.copy,
                    r.sg
                );
            }
        }
    }
}
