//! `--repeat` and `--compare`: how far runs of the same code spread, and
//! whether one set of results is worse than another by more than a
//! metric's bound. Later issues use these for their before/after rows.

use std::process::Command;

use cf_telemetry::json;

use crate::report::{metric_values, read_results};
use crate::spec::{self, Better, MetricSpec, WorkloadSpec};
use crate::stats;

/// By what share of `parent` the value `change` is worse (negative when it
/// is better), in the metric's own direction.
pub fn worse_by(metric: &MetricSpec, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// Runs this program once more as a child process — a fresh process per
/// run, as the driver does it, so peak memory and heap layout are the
/// run's own — and returns the metric values of its last output line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    metric_values(&doc).ok_or_else(|| format!("{workload} seed {seed}: no metrics in {last:?}"))
}

/// Runs every workload `n` times, each run on another seed (`seed`,
/// `seed + 1`, …) as the driver does, and prints per (workload, metric)
/// the values, the distance between their first and third quartile as a
/// share of the median, and the bound. Returns 1 when a spread exceeds
/// its bound (`setup_s` excepted, as in the driver's rule) or a run fails.
pub fn repeat(
    workloads: &[&'static WorkloadSpec],
    seed: u64,
    seconds: f64,
    traced: bool,
    n: usize,
) -> i32 {
    if n < 2 {
        eprintln!("--repeat needs at least 2 runs to have a spread");
        return 2;
    }
    let mut code = 0;
    for w in workloads {
        let mut runs = Vec::with_capacity(n);
        for i in 0..n as u64 {
            eprintln!("{} run {} of {n} (seed {})", w.name, i + 1, seed + i);
            match run_child(w.name, seed + i, seconds, traced) {
                Ok(values) => runs.push(values),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        for (name, _) in &runs[0] {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(m, _)| m == name).map(|&(_, v)| v))
                .collect();
            let spread = stats::iqr_over_median(&values);
            let bound = spec::end_to_end(name).map(|m| m.bound);
            let verdict = match bound {
                Some(b) if spread > b && name != "setup_s" => {
                    code = 1;
                    "SPREAD EXCEEDS BOUND"
                }
                Some(b) if spread > b / 3.0 => "above a third of the bound",
                _ => "",
            };
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "{} {name} median {:.6} spread {spread:.4} bound {} {verdict}\n    {}",
                w.name,
                stats::median(&values),
                bound.map_or("-".to_string(), |b| b.to_string()),
                shown.join(" ")
            );
        }
    }
    code
}

/// Compares two `results.json` files, `parent` first: per (workload,
/// end-to-end metric) both values, by how much the second is worse, and
/// the bound. Returns 1 when any is worse by more than its bound.
pub fn compare(parent: &str, change: &str) -> i32 {
    let (a, b) = match (read_results(parent), read_results(change)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return 2;
        }
    };
    let mut code = 0;
    for (workload, parent_values) in &a {
        let Some((_, change_values)) = b.iter().find(|(w, _)| w == workload) else {
            println!("{workload}: only in {parent}");
            continue;
        };
        for (name, pv) in parent_values {
            let Some(&(_, cv)) = change_values.iter().find(|(m, _)| m == name) else {
                continue;
            };
            let Some(metric) = spec::end_to_end(name) else {
                println!("{workload} {name} {pv} -> {cv}");
                continue;
            };
            let worse = worse_by(metric, *pv, cv);
            let verdict = if worse > metric.bound {
                code = 1;
                "WORSE BEYOND BOUND"
            } else {
                "ok"
            };
            println!(
                "{workload} {name} {pv} -> {cv} {} worse by {:+.4} bound {} {verdict}",
                metric.unit, worse, metric.bound
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        let lower = spec::end_to_end("host_ns_per_req").unwrap();
        let higher = spec::end_to_end("virt_krps_at_slo").unwrap();
        assert!((worse_by(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }
}
