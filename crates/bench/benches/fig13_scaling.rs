//! Figure 13: multicore scaling of the scatter-gather microbenchmark.

fn main() {
    cf_bench::experiments::fig13::run(&[1, 2, 4, 6, 8], 160_000, 3_000);
}
