//! Figure 11: per-request cycle breakdown on the CDN trace.

fn main() {
    cf_bench::experiments::fig11::run(2_500, 3_000);
}
