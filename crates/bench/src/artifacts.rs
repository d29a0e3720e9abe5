//! Per-experiment artifacts: one writer, the few constructors the
//! experiments build their result trees from, and [`select`], which reads a
//! tree back by path for the tables and the ratchet.
//!
//! Every extension experiment returns its result as one
//! [`cf_telemetry::json::Value`] tree that starts with the `params` it ran
//! under and is written as `<experiment>.json`; experiments that install
//! telemetry also write their end-of-run metrics snapshot as
//! `<experiment>-metrics.json`. The committed `BENCH_<experiment>.json` at
//! the repo root is such a tree from the full preset, and
//! [`crate::ratchet`] holds a fresh one to it.

use std::fs;
use std::path::PathBuf;

use cf_telemetry::json::Value;

/// Directory artifacts are written to: `$CF_ARTIFACT_DIR` when set,
/// `target/cf-artifacts` otherwise.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("CF_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/cf-artifacts"))
}

/// Writes `body` to `<artifact_dir>/<file_name>`, creating the directory
/// if needed, and prints where it went. A directory that cannot be
/// written is a warning, not a failure: the run's printed tables stand.
pub fn write_artifact(file_name: &str, body: &str) {
    let path = artifact_dir().join(file_name);
    match fs::create_dir_all(artifact_dir()).and_then(|()| fs::write(&path, body)) {
        Ok(()) => println!("  artifact: {}", path.display()),
        Err(e) => eprintln!("  artifact {file_name} not written: {e}"),
    }
}

/// A count or identifier (exact below 2^53).
pub fn int(n: u64) -> Value {
    Value::Num(n as f64)
}

/// A measurement rounded to `places` decimals, so artifacts carry the
/// precision they mean and not seventeen digits of it.
pub fn fixed(v: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((v * scale).round() / scale)
}

/// A label.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// An array with one element per item.
pub fn list<T>(items: impl IntoIterator<Item = T>, element: impl FnMut(T) -> Value) -> Value {
    Value::Arr(items.into_iter().map(element).collect())
}

/// A value on one line, for a row label, a table cell or a message: a
/// string bare, anything else as it renders.
pub fn label(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.render().trim_end().to_string(),
    }
}

/// Every value `path` names in `tree`, as `(row label, value)`. In a path,
/// `name` steps into an object member and `name[k1,k2]` into every element
/// of array `name`, the elements' `k1`, `k2` members labelling the row:
/// `points[multiplier,control].goodput_krps` names one value per point, in
/// rows labelled `points[0.5,true].` and so on. The label is empty for a
/// top-level member, and the value is `None` where a row lacks the member.
pub fn select<'a>(tree: &'a Value, path: &str) -> Vec<(String, Option<&'a Value>)> {
    fn walk<'a>(
        at: &'a Value,
        path: &str,
        row: String,
        out: &mut Vec<(String, Option<&'a Value>)>,
    ) {
        let (step, rest) = path.split_once('.').unwrap_or((path, ""));
        let keyed = step.strip_suffix(']').and_then(|s| s.split_once('['));
        match (keyed, at.get(keyed.map_or(step, |(name, _)| name))) {
            (_, None) => out.push((row, None)),
            (None, Some(member)) if rest.is_empty() => out.push((row, Some(member))),
            (None, Some(member)) => walk(member, rest, row, out),
            (Some((name, keys)), Some(rows)) => {
                for el in rows.as_arr().unwrap_or(&[]) {
                    let key = |k| el.get(k).map_or("?".to_string(), label);
                    let key: Vec<String> = keys.split(',').map(key).collect();
                    walk(el, rest, format!("{row}{name}[{}].", key.join(",")), out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(tree, path, String::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::{MachineProfile, Sim};
    use cf_telemetry::Telemetry;

    #[test]
    fn artifacts_are_valid_json() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let tele = Telemetry::attach(&sim);
        let counter = cf_telemetry::Counter::default();
        tele.adopt_counter("test.counter", &counter);
        counter.add(3);
        write_artifact("unit-test-metrics.json", &tele.snapshot_json());
        let path = artifact_dir().join("unit-test-metrics.json");
        let text = fs::read_to_string(&path).expect("readable");
        cf_telemetry::json::validate(&text).expect("valid JSON");
        assert!(text.contains("test.counter"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fixed_rounds_to_the_places_asked_for() {
        assert_eq!(fixed(1315.00049, 3), Value::Num(1315.0));
        assert_eq!(fixed(0.00006103, 4), Value::Num(0.0001));
        assert_eq!(fixed(2628823.26, 1).render(), "2628823.3\n");
    }
}
