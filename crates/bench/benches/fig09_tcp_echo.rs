//! Figure 9: echo latency over the TCP stack.

fn main() {
    cf_bench::experiments::fig09::run(5_000);
}
