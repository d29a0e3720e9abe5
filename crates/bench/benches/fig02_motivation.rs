//! Figure 2: the motivating echo experiment (§2.2). Run with `cargo bench`.

fn main() {
    cf_bench::experiments::fig02::run();
}
