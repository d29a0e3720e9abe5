//! Whole runs, short: the metric sets the binary prints are the ones
//! `BENCHMARK.json` names, the outputs are correct, and the layers show in
//! the numbers the way the workloads were chosen to show them.

use cf_benchmark::run;
use cf_benchmark::spec::{self, END_TO_END, PER_LAYER};
use cf_telemetry::json::{self, Value};

const SECONDS: f64 = 0.25;

fn names(specs: &[spec::MetricSpec]) -> Vec<&'static str> {
    specs.iter().map(|m| m.name).collect()
}

#[test]
fn untraced_run_prints_exactly_the_end_to_end_metrics() {
    for workload in ["get_small", "put_mid"] {
        let r = run::end_to_end(spec::workload(workload).unwrap(), 3, SECONDS).unwrap();
        assert!(r.correct(), "{workload}: {:?}", r.fails);
        assert!(r.attempted > 0 && r.fail_ratio() == 0.0);
        let printed: Vec<&str> = r.metrics.iter().map(|(m, _)| m.name).collect();
        assert_eq!(printed, names(&END_TO_END));
        for (m, v) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{workload} {} = {v}", m.name);
        }
        // The rate at the limit lies between the pinned rates' neighbourhood
        // and capacity.
        let capacity = 1e6 / r.value("virt_ns_per_req").unwrap();
        let at_slo = r.value("virt_krps_at_slo").unwrap();
        assert!(
            at_slo > 0.5 * capacity && at_slo < capacity,
            "{at_slo} of {capacity}"
        );

        // The last line of output is one JSON object with exactly four keys.
        let doc = json::parse(&r.json_line()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        assert!(!r.json_line().contains('\n'));
        assert_eq!(r.lines().lines().count(), END_TO_END.len() + 1);
    }
}

#[test]
fn traced_run_prints_exactly_the_per_layer_metrics_and_separates_the_layers() {
    let small = run::per_layer(spec::workload("get_small").unwrap(), 3, SECONDS).unwrap();
    let put = run::per_layer(spec::workload("put_mid").unwrap(), 3, SECONDS).unwrap();
    for r in [&small, &put] {
        assert!(r.correct(), "{}: {:?}", r.workload, r.fails);
        let printed: Vec<&str> = r.metrics.iter().map(|(m, _)| m.name).collect();
        assert_eq!(printed, names(&PER_LAYER));
        // Virtual time is fully attributed: what is left is rounding.
        let by_category: f64 = spec::VIRT_NS_BY_CATEGORY
            .iter()
            .map(|name| r.value(name).unwrap())
            .sum();
        let unattributed = r.value("sim.virt_ns.unattributed").unwrap();
        assert!(unattributed.abs() < 0.01 * by_category, "{unattributed}");
        // One trace file's worth of spans, four per request.
        let trace = json::parse(r.trace_json.as_ref().unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(!events.is_empty() && events.len().is_multiple_of(4));
        for counter in ["kv.dedup_hits", "kv.shed_drops", "kv.degraded_replies"] {
            assert_eq!(r.value(counter), Some(0.0), "{counter}");
        }
    }
    let get = |r: &cf_benchmark::report::WorkloadResult, name: &str| r.value(name).unwrap();
    // get_small: copy arm only, no PUTs.
    assert_eq!(get(&small, "core.zc_field_ratio"), 0.0);
    assert_eq!(get(&small, "kv.store_put_ns"), 0.0);
    assert!(get(&small, "kv.store_get_ns") > 0.0);
    assert_eq!(get(&small, "sim.virt_ns.app_put"), 0.0);
    assert_eq!(get(&small, "workloads.put_fraction"), 0.0);
    // put_mid: PUTs only; the 1 KiB value cannot be recovered from the
    // client's unpinned memory, so it is copied.
    assert!(get(&put, "kv.store_put_ns") > 0.0);
    assert_eq!(get(&put, "kv.store_get_ns"), 0.0);
    assert_eq!(get(&put, "workloads.put_fraction"), 1.0);
    assert!(get(&put, "sim.virt_ns.app_put") > 0.0);
}
