//! Tail-latency anatomy: run YCSB at 2× measured capacity with wire
//! faults and a flight recorder end to end; decompose p50/p99/p99.9 into
//! retry/queueing/sojourn/service/wire phases. Emits `tail_anatomy.json`
//! and holds it to the committed `BENCH_tail_anatomy.json`.

use cf_bench::experiments::tail_anatomy::{self, TailAnatomyParams};

fn main() {
    cf_bench::ratchet::bench_main("tail_anatomy", TailAnatomyParams::full, tail_anatomy::run);
}
