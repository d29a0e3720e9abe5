//! One gate for the seven committed extension-bench artifacts.
//!
//! `BENCH_<experiment>.json` at the repo root is the result tree of that
//! experiment's **full** preset (see [`crate::artifacts`]). Each experiment
//! module owns a rule table, `RULES`: the fields it gates, each with the
//! direction it may not move in and by how much. [`ratchet`] walks a fresh
//! tree and the committed one from that table, and [`bench_main`] is the
//! whole `main` of every extension bench:
//!
//! - default: run the full preset, write the artifact, ratchet, exit 1 on
//!   any violation (an unreadable committed file is one);
//! - `CF_BLESS=1`: run the full preset and overwrite the committed file —
//!   how a baseline is regenerated, as `tests/golden.rs` does for frames;
//! - `CF_QUICK=1`: run the smoke preset and write the artifact; nothing is
//!   gated, because only the full preset is committed.
//!
//! Three things fail without a rule naming them: `params` that differ
//! (numbers from another preset are not comparable), a committed row the
//! run did not produce, and a run row the committed file does not know.
//!
//! A rule path names one member in every row
//! (`points[multiplier,control].goodput_krps`; [`select`] has the syntax).
//! Bounds come from measured run-to-run spread
//! (EXPERIMENTS.md, "Artifacts and ratchet"): every virtual-time bound is
//! at least three times the widest spread seen over five full-preset runs,
//! and under 10 %, so a tenth lost on any gated field trips the gate.

use std::path::{Path, PathBuf};

use cf_telemetry::json::{self, Value};

use crate::artifacts::{label, select};
use crate::experiments::{churn, failover, hotpath, overload, partition, scaling, tail_anatomy};

/// The direction a gated field may not move in, and how far it may.
#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// Higher is better: may not fall below `committed × (1 − bound)`.
    Higher(f64),
    /// Lower is better: may not rise above `committed × (1 + bound)`.
    Lower(f64),
    /// Lower is better, near zero: may not rise above `committed + slack`.
    LowerBy(f64),
    /// Must equal the committed value (any JSON value).
    Same,
}

/// One gated field: where it sits in the tree (a [`select`] path) and what
/// it is held to.
#[derive(Clone, Copy, Debug)]
pub struct Rule(pub &'static str, pub Gate);

/// The rule table of the extension bench called `name`.
pub fn rules(name: &str) -> Option<&'static [Rule]> {
    Some(match name {
        "hotpath" => hotpath::RULES,
        "churn" => churn::RULES,
        "scaling" => scaling::RULES,
        "overload" => overload::RULES,
        "tail_anatomy" => tail_anatomy::RULES,
        "failover" => failover::RULES,
        "partition" => partition::RULES,
        _ => return None,
    })
}

impl Gate {
    /// Why `new` breaks this gate against the committed `old`, if it does.
    fn broken_by(self, new: &Value, old: &Value) -> Option<String> {
        let (Some(n), Some(o)) = (new.as_f64(), old.as_f64()) else {
            // Not two numbers (a label, a list, a null where a time was):
            // whatever the direction, the only thing to hold it to is itself.
            return (new != old).then(|| format!("changed {} -> {}", label(old), label(new)));
        };
        let (broken, bound) = match self {
            Gate::Same => (n != o, "must not change".to_string()),
            Gate::Higher(b) => (n < o * (1.0 - b), format!("may fall {:.1}%", b * 100.0)),
            Gate::Lower(b) => (n > o * (1.0 + b), format!("may rise {:.1}%", b * 100.0)),
            Gate::LowerBy(slack) => (n > o + slack, format!("may rise by {slack:.4}")),
        };
        broken.then(|| format!("{o} -> {n} ({bound})"))
    }
}

/// Holds a `fresh` result tree to the `committed` artifact's text under
/// `rules`. Returns every violation found; empty means the gate holds.
pub fn ratchet(rules: &[Rule], fresh: &Value, committed: &str) -> Vec<String> {
    let committed = match json::parse(committed) {
        Ok(tree) => tree,
        Err(e) => return vec![format!("the committed artifact does not parse: {e}")],
    };
    let mut violations: Vec<String> = Vec::new();
    for Rule(path, gate) in std::iter::once(&Rule("params", Gate::Same)).chain(rules) {
        let field = path.rsplit("].").next().unwrap_or(path);
        let (ours, theirs) = (select(fresh, path), select(&committed, path));
        let unknown = ours
            .iter()
            .filter(|(row, _)| !theirs.iter().any(|(r, _)| r == row))
            .map(|(row, _)| format!("{row} in the run, not in the committed artifact"));
        let held = theirs.iter().filter_map(|(row, old)| {
            match (ours.iter().find(|(r, _)| r == row), old) {
                (None, _) => Some(format!("{row} committed, missing from the run")),
                (Some((_, Some(new))), Some(old)) => {
                    let why = gate.broken_by(new, old)?;
                    Some(format!("{row}{field}: {why}"))
                }
                _ => Some(format!("{row}{field}: no such member")),
            }
        });
        for v in held.chain(unknown) {
            // A missing row is reported by every rule over it: say it once.
            if !violations.contains(&v) {
                violations.push(v);
            }
        }
    }
    violations
}

/// `BENCH_<name>.json` at the repo root, wherever the bench is run from.
pub fn committed_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

/// The `main` of every extension bench (see the module docs): picks the
/// preset, runs it, and ratchets, blesses or just emits.
pub fn bench_main<P>(name: &str, quick: fn() -> P, full: fn() -> P, run: fn(&P) -> Value) {
    let smoke = crate::quick_mode();
    let fresh = run(&if smoke { quick() } else { full() });
    let path = committed_path(name);
    if smoke {
        println!(
            "  ratchet: not run (CF_QUICK=1 is a smoke run; only the full preset is committed)"
        );
    } else if std::env::var_os("CF_BLESS").is_some() {
        std::fs::write(&path, fresh.render()).expect("committed artifact is writable");
        println!("  blessed: {}", path.display());
    } else {
        let rules = rules(name).expect("every extension bench has a rule table");
        let violations = match std::fs::read_to_string(&path) {
            Ok(committed) => ratchet(rules, &fresh, &committed),
            // The file ships with the repo: a deleted or renamed baseline
            // must fail loudly, not pass silently.
            Err(e) => vec![format!("unreadable: {e}")],
        };
        if violations.is_empty() {
            return println!("  ratchet: green against {}", path.display());
        }
        eprintln!("{name} ratchet FAILED against {}:", path.display());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// What every experiment's artifact test ends with: each rule of its table
/// names a member the tree has, in at least one row, and the tree passes
/// its own gate.
#[cfg(test)]
pub(crate) fn assert_gates_itself(rules: &[Rule], tree: &Value) {
    for Rule(path, _) in rules {
        let picked = select(tree, path);
        assert!(!picked.is_empty(), "{path} names no row");
        assert!(
            picked.iter().all(|(_, v)| v.is_some()),
            "{path}: {picked:?}"
        );
    }
    assert_eq!(ratchet(rules, tree, &tree.render()), Vec::<String>::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::text;

    const POINT_RULES: &[Rule] = &[
        Rule("capacity_rps", Gate::Higher(0.05)),
        Rule("points[flows,table].krps", Gate::Higher(0.05)),
        Rule("points[flows,table].p99_ns", Gate::Lower(0.05)),
        Rule("points[flows,table].allocs", Gate::LowerBy(0.001)),
        Rule("points[flows,table].drained", Gate::Same),
    ];

    /// A small artifact: `(flows, krps, p99_ns, allocs, drained)` per row.
    fn doc(keys: f64, capacity_rps: f64, rows: &[(f64, f64, f64, f64, bool)]) -> Value {
        let point = |&(flows, krps, p99_ns, allocs, drained): &(f64, f64, f64, f64, bool)| {
            Value::obj([
                ("flows", Value::Num(flows)),
                ("table", text("t")),
                ("krps", Value::Num(krps)),
                ("p99_ns", Value::Num(p99_ns)),
                ("allocs", Value::Num(allocs)),
                ("drained", Value::Bool(drained)),
            ])
        };
        Value::obj([
            ("params", Value::obj([("keys", Value::Num(keys))])),
            ("capacity_rps", Value::Num(capacity_rps)),
            ("points", Value::Arr(rows.iter().map(point).collect())),
        ])
    }

    #[test]
    fn each_rule_kind_trips_once_and_identity_passes() {
        let rows = [
            (1024.0, 100.0, 50.0, 0.0001, true),
            (4096.0, 200.0, 60.0, 10.0, true),
            (16384.0, 300.0, 0.0, 0.0, true),
        ];
        let same = || doc(8.0, 1e6, &rows);
        let with = |i: usize, row| {
            let mut rows = rows;
            rows[i] = row;
            doc(8.0, 1e6, &rows)
        };
        let committed = same().render();
        let renamed = committed.replace("\"capacity_rps\"", "\"capacity\"");
        // (what moved, the fresh tree, the committed text, the one violation)
        let cases = [
            ("nothing", same(), &*committed, None),
            (
                "everything, inside its bound or for the better",
                doc(
                    8.0,
                    2e6,
                    &[
                        (1024.0, 96.0, 52.0, 0.001, true),
                        (4096.0, 900.0, 6.0, 0.0, true),
                        rows[2],
                    ],
                ),
                &*committed,
                None,
            ),
            (
                "a top-level higher-is-better member fell",
                doc(8.0, 0.9e6, &rows),
                &*committed,
                Some("capacity_rps: 1000000 -> 900000 (may fall 5.0%)"),
            ),
            (
                "higher-is-better fell",
                with(0, (1024.0, 90.0, 50.0, 0.0001, true)),
                &*committed,
                Some("points[1024,t].krps: 100 -> 90 (may fall 5.0%)"),
            ),
            (
                "lower-is-better rose",
                with(1, (4096.0, 200.0, 66.0, 10.0, true)),
                &*committed,
                Some("points[4096,t].p99_ns: 60 -> 66 (may rise 5.0%)"),
            ),
            (
                "lower-is-better rose from a committed 0",
                with(2, (16384.0, 300.0, 1.0, 0.0, true)),
                &*committed,
                Some("points[16384,t].p99_ns: 0 -> 1 (may rise 5.0%)"),
            ),
            (
                "a floor rose by more than its slack",
                with(0, (1024.0, 100.0, 50.0, 1.0001, true)),
                &*committed,
                Some("points[1024,t].allocs: 0.0001 -> 1.0001 (may rise by 0.0010)"),
            ),
            (
                "same changed",
                with(1, (4096.0, 200.0, 60.0, 10.0, false)),
                &*committed,
                Some("points[4096,t].drained: changed true -> false"),
            ),
            (
                "a committed row is missing from the run",
                doc(8.0, 1e6, &rows[..2]),
                &*committed,
                Some("points[16384,t]. committed, missing from the run"),
            ),
            (
                "a run row is missing from the file",
                doc(
                    8.0,
                    1e6,
                    &[rows[0], rows[1], rows[2], (9.0, 1.0, 1.0, 0.0, true)],
                ),
                &*committed,
                Some("points[9,t]. in the run, not in the committed artifact"),
            ),
            (
                "the parameters differ",
                doc(4.0, 1e6, &rows),
                &*committed,
                Some("params: changed {\"keys\": 8} -> {\"keys\": 4}"),
            ),
            (
                "the file does not parse",
                same(),
                "{\"params\": ",
                Some("the committed artifact does not parse: expected a JSON value at byte 11"),
            ),
            (
                "a gated member was renamed in the file",
                same(),
                &*renamed,
                Some("capacity_rps: no such member"),
            ),
        ];
        for (what, fresh, committed, violation) in cases {
            let expected: Vec<&str> = violation.into_iter().collect();
            assert_eq!(ratchet(POINT_RULES, &fresh, committed), expected, "{what}");
        }
    }

    /// `tree` with `f` applied to every number `path` names.
    fn mapped(tree: &Value, path: &str, f: &dyn Fn(f64) -> f64) -> Value {
        let (step, rest) = path.split_once('.').unwrap_or((path, ""));
        let name = step.split('[').next().expect("a member name");
        let Value::Obj(members) = tree else {
            panic!("{path} steps into a non-object")
        };
        let map = |v: &Value| match v {
            Value::Num(n) if rest.is_empty() => Value::Num(f(*n)),
            Value::Arr(rows) => Value::Arr(rows.iter().map(|r| mapped(r, rest, f)).collect()),
            _ => mapped(v, rest, f),
        };
        let member =
            |(k, v): &(String, Value)| (k.clone(), if k == name { map(v) } else { v.clone() });
        Value::Obj(members.iter().map(member).collect())
    }

    fn committed_artifacts() -> Vec<(String, String)> {
        let root = committed_path("x")
            .parent()
            .expect("repo root")
            .to_path_buf();
        let mut found: Vec<(String, String)> = std::fs::read_dir(root)
            .expect("repo root is readable")
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter_map(|f| Some(f.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
            .map(|name| {
                let text = std::fs::read_to_string(committed_path(&name)).expect("readable");
                (name, text)
            })
            .collect();
        found.sort();
        found
    }

    #[test]
    fn every_committed_artifact_parses_states_its_parameters_and_has_every_gated_member() {
        let artifacts = committed_artifacts();
        let names: Vec<&str> = artifacts.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "churn",
                "failover",
                "hotpath",
                "overload",
                "partition",
                "scaling",
                "tail_anatomy"
            ]
        );
        for (name, text) in &artifacts {
            let tree = json::parse(text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
            let rules = rules(name).unwrap_or_else(|| panic!("{name} has no rule table"));
            assert_eq!(tree.get("experiment"), Some(&crate::artifacts::text(name)));
            assert!(
                tree.get("params")
                    .and_then(Value::as_obj)
                    .is_some_and(|p| !p.is_empty()),
                "BENCH_{name}.json states its parameters"
            );
            // A renamed member cannot silently un-gate itself.
            assert_gates_itself(rules, &tree);
        }
    }

    #[test]
    fn a_tenth_lost_on_any_gated_virtual_time_field_trips_the_gate() {
        for (name, text) in committed_artifacts() {
            let tree = json::parse(&text).expect("parses");
            for Rule(path, gate) in rules(&name).expect("a rule table") {
                let factor = match gate {
                    // The one host-clock bound: machines differ by more than
                    // a tenth, so it is multiplicative and wide (3x).
                    Gate::Lower(b) if name == "hotpath" => 1.05 * (1.0 + b),
                    Gate::Higher(b) if *b < 0.1 => 0.9,
                    Gate::Lower(b) if *b < 0.1 => 1.1,
                    Gate::LowerBy(_) | Gate::Same => continue,
                    wide => panic!("{name}: {path} has a bound of a tenth or more: {wide:?}"),
                };
                let worse = mapped(&tree, path, &|n| n * factor);
                // A count committed as 0 has no tenth to lose; any rise trips
                // it (the table-driven test has that case).
                let moved = select(&tree, path)
                    .iter()
                    .filter(|(_, v)| v.and_then(Value::as_f64).is_some_and(|n| n != 0.0))
                    .count();
                assert_eq!(
                    ratchet(&[Rule(path, *gate)], &worse, &text).len(),
                    moved,
                    "{name}: {path} x{factor}"
                );
            }
        }
    }

    #[test]
    fn hotpath_allocs_floor_keeps_its_stray_budget_and_no_more() {
        let text = std::fs::read_to_string(committed_path("hotpath")).expect("readable");
        let tree = json::parse(&text).expect("parses");
        let allocs = "kinds[kind].ops[op].allocs_per_op";
        // Fifteen stray allocations in the 16,384-round window pass on every
        // row; one more allocation per request passes on none.
        let strays = mapped(&tree, allocs, &|n| n + 15.0 / 16_384.0);
        assert_eq!(
            ratchet(hotpath::RULES, &strays, &text),
            Vec::<String>::new()
        );
        let tripped = ratchet(hotpath::RULES, &mapped(&tree, allocs, &|n| n + 1.0), &text);
        assert_eq!(tripped.len(), select(&tree, allocs).len(), "{tripped:?}");
        assert!(
            tripped.iter().all(|v| v.contains("allocs_per_op: ")),
            "{tripped:?}"
        );
    }
}
