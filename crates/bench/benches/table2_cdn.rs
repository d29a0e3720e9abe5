//! Table 2: the CDN image trace.

fn main() {
    cf_bench::experiments::table2::run(4_000, 4_000);
}
