//! Table 5: the combined serialize-and-send ablation.

fn main() {
    cf_bench::experiments::table5::run(20_000, 1_500);
}
