//! Figure 5: the copy-vs-scatter-gather heatmap and its 512 B crossover.

fn main() {
    cf_bench::experiments::fig05::run(30_000, 1_500);
}
