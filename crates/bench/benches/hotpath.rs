//! Hot-path microbenchmark: real-time ns/op and allocs/op per SerKind for
//! steady-state GET / batched-GET / PUT round trips. Emits `hotpath.json`
//! and holds it to the committed `BENCH_hotpath.json`
//! (`cf_bench::ratchet`: `CF_QUICK=1` smoke run, `CF_BLESS=1` regenerate).

use cf_bench::experiments::hotpath::{self, HotpathParams};
use cf_telemetry::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    cf_bench::ratchet::bench_main(
        "hotpath",
        HotpathParams::quick,
        HotpathParams::full,
        hotpath::run,
    );
}
