//! Figure 7: the Twitter cache trace on the custom KV store.

fn main() {
    cf_bench::experiments::fig07::run(60_000, 53_000);
}
