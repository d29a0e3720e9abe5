//! Figure 8 + Table 3: the Redis integration.

fn main() {
    let (keys, requests) = if cf_bench::quick_mode() {
        (10_000, 500)
    } else {
        (60_000, 3_000)
    };
    cf_bench::experiments::fig08::run(keys, requests, 59_000);
}
