//! Table 1 + Figure 6: the Google field-size distribution workload.

fn main() {
    cf_bench::experiments::fig06::run_table1(30_000, 3_000);
    cf_bench::experiments::fig06::run_fig6_curves(30_000);
}
