//! Figure 12 + Table 4: the hybrid threshold ablation.

fn main() {
    let quick = cf_bench::quick_mode();
    cf_bench::experiments::fig12::run_twitter(if quick { 10_000 } else { 40_000 }, 50_000);
    cf_bench::experiments::fig12::run_google(
        if quick { 5_000 } else { 20_000 },
        if quick { 400 } else { 1_500 },
    );
}
