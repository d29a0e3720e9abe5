//! Figure 10: threshold generality across Mellanox and Intel NICs.

fn main() {
    cf_bench::experiments::fig10::run(30_000, 1_500);
}
