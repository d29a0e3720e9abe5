//! How the pinned numbers in `src/spec.rs` were chosen. Run once on the
//! commit that defines (or re-pins) the benchmark, never per run:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --example calibrate
//! ```
//!
//! It prints the reference kernel's time (`reference::REFERENCE_NS`) and,
//! for each workload, the Cornflakes capacity at virtual
//! saturation, 50 % and 75 % of it (`rate_mid_krps`, `rate_high_krps`) and
//! the p99 sojourn at 85 % of it (`slo_us`), each to two significant
//! digits.

use cf_benchmark::phases;
use cf_benchmark::reference::Reference;
use cf_benchmark::run::set_up;
use cf_benchmark::spec::WORKLOADS;
use cf_benchmark::stats;

fn two_digits(v: f64) -> f64 {
    let scale = 10f64.powf(v.abs().log10().floor() - 1.0);
    (v / scale).round() * scale
}

fn main() {
    // `reference::REFERENCE_NS`: the median of the kernel here and now.
    let mut reference = Reference::new();
    let mut ns: Vec<f64> = (0..2_001).map(|_| reference.run_ns()).collect();
    println!(
        "REFERENCE_NS {:.0}",
        stats::percentile(stats::sorted(&mut ns), 50.0)
    );
    for spec in &WORKLOADS {
        let mut s = set_up(spec, 1);
        // Fill the modelled LLC the way the host phase does before the
        // virtual phases of a real run.
        phases::service_times(&mut s.cf, &s.w, 4 * spec.sat_requests);
        let service = phases::service_times(&mut s.cf, &s.w, 2 * spec.sat_requests);
        let capacity = 1e6 / phases::mean_service_ns(&service);
        let arrivals = 4 * phases::ARRIVALS as usize;
        let at_85 = phases::open_loop(&service, 0.85 * capacity, arrivals, 1, &mut Vec::new());
        println!(
            "{}: capacity {capacity:.1} krps -> rate_mid_krps {}, rate_high_krps {}, slo_us {} \
             (p99 {:.3} us at {:.1} krps, utilisation {:.3})",
            spec.name,
            two_digits(0.50 * capacity),
            two_digits(0.75 * capacity),
            two_digits(at_85.p99_us),
            at_85.p99_us,
            at_85.offered_krps,
            at_85.utilisation,
        );
    }
}
