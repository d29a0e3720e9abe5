//! Figure 12 + Table 4: the hybrid threshold ablation.

fn main() {
    cf_bench::experiments::fig12::run_twitter(40_000, 50_000);
    cf_bench::experiments::fig12::run_google(20_000, 1_500);
}
