//! Figure 8 + Table 3: the Redis integration.

fn main() {
    cf_bench::experiments::fig08::run(60_000, 3_000, 59_000);
}
