//! Figure 7: the Twitter cache trace on the custom KV store.

fn main() {
    let keys = if cf_bench::quick_mode() {
        10_000
    } else {
        60_000
    };
    cf_bench::experiments::fig07::run(keys, 53_000);
}
