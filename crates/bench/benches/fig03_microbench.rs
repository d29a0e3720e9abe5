//! Figure 3: copy vs scatter-gather(+overheads) vs raw scatter-gather.

fn main() {
    cf_bench::experiments::fig03::run(40_000, 3_000);
}
