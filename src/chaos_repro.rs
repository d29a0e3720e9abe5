//! Repro artifacts for chaos-test failures.
//!
//! The chaos suites explore seeded fault plans; when a property fails,
//! the panic message alone rarely carries enough to replay the run.
//! [`guard`] wraps one proptest case: if the case body panics, it dumps
//! the case's identity (test name, fault-plan seed, free-form
//! parameters) plus every flight-recorder timeline captured during the
//! run to `target/chaos_repro.json`, then re-raises the panic so the
//! test still fails. Every case is a deterministic function of its seed
//! and parameters, so calling the suite's case function with the
//! recorded values, from a test of its own, replays it: `run_case` in
//! `tests/cluster_chaos.rs`, `run_quorum_case` in
//! `tests/cluster_consistency.rs`, and elsewhere the body inside the
//! suite's `proptest!`. The artifact is the bridge between "CI went red"
//! and a local replay.
//!
//! CI uploads the file on failure; on success it is never written.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use cf_telemetry::json::Value;
use cf_telemetry::{FlightRecord, FlightRecorder};

/// Where the repro artifact lands: `$CF_REPRO_DIR` or `target/`.
fn repro_path() -> PathBuf {
    let dir = std::env::var("CF_REPRO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target"));
    dir.join("chaos_repro.json")
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `body` as one chaos case. On panic, writes
/// `target/chaos_repro.json` with the test name, the fault-plan `seed`,
/// the free-form `params` (name, value) pairs, the panic message, and
/// the full flight-recorder timeline, then re-raises the panic.
pub fn guard<F: FnOnce()>(
    test: &str,
    seed: u64,
    params: &[(&str, String)],
    flight: &FlightRecorder,
    body: F,
) {
    let result = catch_unwind(AssertUnwindSafe(body));
    let Err(payload) = result else { return };

    let text = |s: &str| Value::Str(s.to_string());
    let params = params.iter().map(|(name, v)| (name.to_string(), text(v)));
    let timeline = flight.snapshot();
    let doc = Value::obj([
        ("test", text(test)),
        // In decimal, as a string: a JSON number is a double and a seed is
        // any u64, and a seed that lost its low bits replays nothing.
        ("seed", text(&seed.to_string())),
        ("panic", text(&panic_message(payload.as_ref()))),
        ("params", Value::Obj(params.collect())),
        ("flight_recorded", Value::Num(flight.recorded() as f64)),
        ("flight_dropped", Value::Num(flight.dropped() as f64)),
        (
            "flight",
            Value::Arr(timeline.iter().map(FlightRecord::to_value).collect()),
        ),
    ])
    .render();

    let path = repro_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, &doc) {
        Ok(()) => eprintln!("chaos repro artifact written to {}", path.display()),
        Err(e) => eprintln!("failed to write chaos repro artifact: {e}"),
    }
    resume_unwind(payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_telemetry::FlightEvent;
    use std::sync::Mutex;

    /// Both tests mutate `CF_REPRO_DIR`; run them one at a time.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn passing_body_writes_nothing() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("cf_repro_pass");
        std::env::set_var("CF_REPRO_DIR", &dir);
        let _ = std::fs::remove_file(dir.join("chaos_repro.json"));
        guard("demo", 1, &[], &FlightRecorder::disabled(), || {});
        assert!(!dir.join("chaos_repro.json").exists());
        std::env::remove_var("CF_REPRO_DIR");
    }

    #[test]
    fn failing_body_dumps_seed_params_and_timelines() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("cf_repro_fail");
        std::env::set_var("CF_REPRO_DIR", &dir);
        let _ = std::fs::remove_file(dir.join("chaos_repro.json"));
        let flight = FlightRecorder::with_capacity(8);
        flight.record(42, 1_000, FlightEvent::ClientSend);
        flight.record(42, 2_000, FlightEvent::Failover { node: 2 });
        let caught = catch_unwind(AssertUnwindSafe(|| {
            guard(
                "demo_fail",
                0xDEAD,
                &[("drop_bp", "150".to_string())],
                &flight,
                || panic!("invariant \"x\" violated"),
            );
        }));
        assert!(caught.is_err(), "guard re-raises the panic");
        let body = std::fs::read_to_string(dir.join("chaos_repro.json")).expect("artifact written");
        std::env::remove_var("CF_REPRO_DIR");
        let doc = cf_telemetry::json::parse(&body).expect("artifact parses as JSON");
        let member = |name: &str| {
            doc.get(name)
                .unwrap_or_else(|| panic!("no {name} in {body}"))
        };
        assert_eq!(member("test").as_str(), Some("demo_fail"));
        assert_eq!(member("seed").as_str(), Some("57005"));
        assert_eq!(
            member("params").get("drop_bp").and_then(Value::as_str),
            Some("150")
        );
        assert_eq!(member("panic").as_str(), Some("invariant \"x\" violated"));
        let failover = &member("flight").as_arr().expect("timeline")[1];
        assert_eq!(
            failover.get("event").and_then(Value::as_str),
            Some("failover")
        );
        assert_eq!(failover.get("req_id").and_then(Value::as_u64), Some(42));
        assert_eq!(failover.get("node").and_then(Value::as_u64), Some(2));
    }
}
