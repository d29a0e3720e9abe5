//! Table 1 + Figure 6: the Google field-size distribution workload.

fn main() {
    let (keys, requests) = if cf_bench::quick_mode() {
        (6_000, 500)
    } else {
        (30_000, 3_000)
    };
    cf_bench::experiments::fig06::run_table1(keys, requests);
    cf_bench::experiments::fig06::run_fig6_curves(keys);
}
