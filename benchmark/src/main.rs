//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>`; see `README.md`.

use cf_telemetry::CountingAlloc;

// Counts heap acquisitions, so the benchmark can report how many round
// trips touched the allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(cf_benchmark::cli::main(std::env::args().skip(1).collect()));
}
