//! Table 5: the combined serialize-and-send ablation.

fn main() {
    let quick = cf_bench::quick_mode();
    cf_bench::experiments::table5::run(
        if quick { 5_000 } else { 20_000 },
        if quick { 400 } else { 1_500 },
    );
}
