//! Figure 5: the measurement-study heatmap (§5.2).
//!
//! Percent difference in maximum throughput between all-scatter-gather and
//! all-copy serialization, for each (total payload size × number of
//! scatter-gather entries) cell on the YCSB workload. The paper's green
//! crossover line falls where individual fields reach about 512 bytes.

use cornflakes_core::SerializationConfig;

use cf_sim::stats::percent_diff;

use super::fig03::microbench_gbps;
use crate::tables::{pct, print_expectation, print_table};

/// One heatmap cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Total response payload bytes.
    pub total: usize,
    /// Number of buffers (scatter-gather entries when zero-copying).
    pub entries: usize,
    /// Per-field size.
    pub field_size: usize,
    /// Percent difference of all-SG vs all-copy max throughput.
    pub diff_pct: f64,
}

/// Runs the heatmap. Totals and entry counts follow the paper's axes,
/// skipping cells whose fields would be under 64 bytes.
pub fn run(num_keys: u64, requests: u64) -> Vec<Cell> {
    let totals = [256usize, 512, 1024, 2048, 4096, 8192];
    let entry_counts = [1usize, 2, 4, 8, 16, 32];
    let mut cells = Vec::new();
    for &entries in &entry_counts {
        for &total in &totals {
            if total / entries < 64 || total % entries != 0 {
                continue;
            }
            let field_size = total / entries;
            let gbps = |config| microbench_gbps(config, num_keys, entries, field_size, requests);
            let copy = gbps(SerializationConfig::always_copy());
            let sg = gbps(SerializationConfig::always_zero_copy());
            cells.push(Cell {
                total,
                entries,
                field_size,
                diff_pct: percent_diff(sg, copy),
            });
        }
    }

    // Render the heatmap: rows = entry counts, columns = totals.
    let mut rows = Vec::new();
    for &entries in &entry_counts {
        let mut row = vec![format!("{entries} entries")];
        for &total in &totals {
            let cell = cells
                .iter()
                .find(|c| c.entries == entries && c.total == total);
            row.push(match cell {
                Some(c) => pct(c.diff_pct),
                None => "-".to_string(),
            });
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("SG vs copy".to_string())
        .chain(totals.iter().map(|t| format!("{t}B")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Figure 5: % max-throughput difference, scatter-gather vs copy",
        &header_refs,
        &rows,
    );

    // The crossover: smallest field size at which SG wins.
    let crossover = cells
        .iter()
        .filter(|c| c.diff_pct > 0.0)
        .map(|c| c.field_size)
        .min();
    print_expectation(
        "crossover field size",
        "about 512 bytes",
        &crossover.map_or("none".to_string(), |c| format!("{c} bytes")),
    );
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_crossover_at_512() {
        let cells = run(20_000, 400);
        for c in &cells {
            if c.field_size >= 512 {
                assert!(
                    c.diff_pct > 0.0,
                    "SG should win at {}B fields ({} entries): {:.1}%",
                    c.field_size,
                    c.entries,
                    c.diff_pct
                );
            }
            if c.field_size <= 128 {
                assert!(
                    c.diff_pct < 0.0,
                    "copy should win at {}B fields ({} entries): {:.1}%",
                    c.field_size,
                    c.entries,
                    c.diff_pct
                );
            }
        }
        // SG's advantage grows with payload size at fixed entry count.
        let one_entry: Vec<&Cell> = cells.iter().filter(|c| c.entries == 1).collect();
        for w in one_entry.windows(2) {
            assert!(
                w[1].diff_pct >= w[0].diff_pct - 2.0,
                "advantage should grow with size: {w:?}"
            );
        }
    }
}
