//! Multi-queue scaling: aggregate throughput vs queue count, 1→8 queues
//! over YCSB-C and the Twitter cache trace. Emits `scaling.json` and holds
//! it to the committed `BENCH_scaling.json`.

use cf_bench::experiments::scaling;

fn main() {
    // (keys, requests) per swept configuration.
    cf_bench::ratchet::bench_main(
        "scaling",
        || (2_048, 4_000),
        || (16_384, 40_000),
        |&(keys, requests)| scaling::run(keys, requests),
    );
}
