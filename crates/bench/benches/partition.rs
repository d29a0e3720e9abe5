//! Split-brain partition: run the same workload under `ReadMode::Any`
//! and `ReadMode::Quorum` across a partition/isolate/heal schedule;
//! measure per-window goodput and stale-read rate for both. Emits
//! `partition.json` and holds it to the committed `BENCH_partition.json`.

use cf_bench::experiments::partition::{self, PartitionParams};

fn main() {
    cf_bench::ratchet::bench_main(
        "partition",
        PartitionParams::quick,
        PartitionParams::full,
        partition::run,
    );
}
