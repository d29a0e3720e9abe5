//! Results: the per-metric lines for people, the one-line JSON object the
//! driver reads, and `out/results.json`.

use std::fmt::Write as _;
use std::path::Path;

use cf_telemetry::json;

use crate::fixture::Fails;
use crate::spec::MetricSpec;

/// Where the benchmark writes its files, relative to the directory the
/// command runs from (the root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// The outcome of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Round trips attempted, all phases and kinds.
    pub attempted: u64,
    /// What failed among them.
    pub fails: Fails,
    /// One value per metric of the set, in the set's order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// A JSON object with what the metric values were taken from
    /// (quartiles, batch counts, open-loop points).
    pub detail: String,
    /// Chrome-trace JSON of the spans; `Some` for a traced (per-layer) run.
    pub trace_json: Option<String>,
}

impl WorkloadResult {
    /// No request failed and every value is a number.
    pub fn correct(&self) -> bool {
        self.fails.total() == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// (no reply + wrong id + wrong length/bytes + shed/degraded) ÷
    /// attempted, over all phases.
    pub fn fail_ratio(&self) -> f64 {
        self.fails.total() as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }

    /// `workload metric value unit`, one line per metric, then the failure
    /// ratio with its parts.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (m, v) in &self.metrics {
            writeln!(out, "{} {} {} {}", self.workload, m.name, v, m.unit).unwrap();
        }
        let f = &self.fails;
        writeln!(
            out,
            "{} fail_ratio {} ratio ({} attempted: {} no reply, {} wrong id, {} wrong shape, \
             {} shed/degraded, {} wrong bytes)",
            self.workload,
            self.fail_ratio(),
            self.attempted,
            f.no_reply,
            f.wrong_id,
            f.wrong_shape,
            f.flagged,
            f.wrong_bytes
        )
        .unwrap();
        out
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(*v),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The one-line JSON object that ends a run's standard output.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.fails.total(),
            self.metrics_json()
        )
    }
}

/// A JSON number with all of `v`'s digits (`null` when it has none).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `results.json`: the run's arguments and one member per workload.
pub fn results_json(seed: u64, seconds: f64, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"fail_ratio\": {},\n      \"metrics\": {},\n      \"detail\": {}}}",
                r.workload,
                r.trace_json.is_some(),
                r.correct(),
                r.attempted,
                r.fails.total(),
                number(r.fail_ratio()),
                r.metrics_json(),
                r.detail
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        number(seconds),
        workloads.join(",\n")
    )
}

/// Writes `contents` to `OUT_DIR/name`, creating the directory. A failure
/// is reported on standard error and otherwise ignored: the files are a
/// convenience, the verdict is the exit code and the last output line.
pub fn write_out(name: &str, contents: &str) {
    let dir = Path::new(OUT_DIR);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("warning: cannot write {OUT_DIR}/{name}: {e}");
    }
}

/// The `(metric, value)` pairs of an object with a `"metrics"` member, as
/// both the last output line and a `results.json` workload carry it.
pub fn metric_values(v: &json::Value) -> Option<Vec<(String, f64)>> {
    let metrics = v.get("metrics")?.as_obj()?;
    Some(
        metrics
            .iter()
            .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// Per workload, its `(metric, value)` pairs.
pub type Results = Vec<(String, Vec<(String, f64)>)>;

/// Reads the metric values of every workload in a `results.json`.
pub fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(json::Value::as_obj)
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    workloads
        .iter()
        .map(|(name, w)| {
            let values = metric_values(w)
                .ok_or_else(|| format!("{path}: {name} has no \"metrics\" object"))?;
            Ok((name.clone(), values))
        })
        .collect()
}
