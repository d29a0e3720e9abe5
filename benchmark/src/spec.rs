//! What the benchmark runs and what it reports: the five workloads with
//! their pinned rates, latency limits and request counts, and the names,
//! units and bounds of every metric. `BENCHMARK.json` at the repo root
//! repeats the names; a test keeps the two in step.

/// `run_seconds` in `BENCHMARK.json`: the `--seconds` the pinned request
/// counts below are sized for. Other values scale the counts linearly.
pub const RUN_SECONDS: f64 = 12.0;

/// How a workload's values are sized and which operations it issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every key holds `value_bytes`; uniform keys; all GETs or all PUTs.
    Const {
        /// Value size of every key.
        value_bytes: u32,
        /// PUT overwrites instead of GETs.
        put: bool,
    },
    /// Per-key sizes from `GoogleSizeDist` (one field per key), multi-key
    /// GETs over uniform keys.
    Google,
    /// `TwitterTrace`: Zipf(0.75) keys, per-key sizes 16 B–8 KiB, 8 % PUTs.
    Twitter,
}

/// One workload. The rates and the latency limit are absolute numbers
/// measured once on the commit that added the benchmark and frozen here;
/// nothing is derived from a per-run capacity probe, so a result never
/// snaps to a ladder that moved with the probe.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Keys preloaded into the store.
    pub num_keys: u32,
    /// Keys per GET request (1 except for `get_batch`).
    pub keys_per_req: usize,
    /// Value sizes and operation mix.
    pub shape: Shape,
    /// Open-loop rate near 50 % of the seed commit's Cornflakes capacity.
    pub rate_mid_krps: f64,
    /// Open-loop rate near 75 % of that capacity.
    pub rate_high_krps: f64,
    /// p99 sojourn limit: the seed's Cornflakes p99 near 85 % capacity.
    pub slo_us: f64,
    /// Requests in the virtual saturation phase, per kind: the service
    /// times the open-loop points queue for (fewer for workloads whose
    /// requests cost more host time).
    pub sat_requests: u64,
}

/// The five workloads. Names are final; later issues cite them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "get_small",
        num_keys: 4_096,
        keys_per_req: 1,
        shape: Shape::Const {
            value_bytes: 64,
            put: false,
        },
        rate_mid_krps: 680.0,
        rate_high_krps: 1000.0,
        slo_us: 11.0,
        sat_requests: 200_000,
    },
    WorkloadSpec {
        name: "get_large",
        num_keys: 16_384,
        keys_per_req: 1,
        shape: Shape::Const {
            value_bytes: 4_096,
            put: false,
        },
        rate_mid_krps: 640.0,
        rate_high_krps: 970.0,
        slo_us: 12.0,
        sat_requests: 40_000,
    },
    WorkloadSpec {
        name: "get_batch",
        num_keys: 65_536,
        keys_per_req: 8,
        shape: Shape::Google,
        rate_mid_krps: 270.0,
        rate_high_krps: 410.0,
        slo_us: 28.0,
        sat_requests: 40_000,
    },
    WorkloadSpec {
        name: "put_mid",
        num_keys: 32_768,
        keys_per_req: 1,
        shape: Shape::Const {
            value_bytes: 1_024,
            put: true,
        },
        rate_mid_krps: 560.0,
        rate_high_krps: 840.0,
        slo_us: 14.0,
        sat_requests: 100_000,
    },
    WorkloadSpec {
        name: "twitter_mix",
        num_keys: 200_000,
        keys_per_req: 1,
        shape: Shape::Twitter,
        rate_mid_krps: 610.0,
        rate_high_krps: 920.0,
        slo_us: 13.0,
        sat_requests: 100_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Name, unit and direction of one metric; end-to-end metrics also carry
/// the share of the parent's median by which they may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every untraced run, for every workload.
/// `host_*` are on the host clock (what the Rust code costs on this
/// machine), `virt_*` on the server's virtual clock (the paper's cost
/// model).
pub const END_TO_END: [MetricSpec; 11] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_ns_per_req", "ns", Lower, 0.20),
    e2e("host_ns_per_req_protobuf", "ns", Lower, 0.20),
    e2e("virt_ns_per_req", "ns", Lower, 0.03),
    e2e("virt_p50_us", "us", Lower, 0.03),
    e2e("virt_p99_us", "us", Lower, 0.05),
    e2e("virt_p99_us_high", "us", Lower, 0.05),
    e2e("virt_krps_at_slo", "krps", Higher, 0.03),
    e2e("virt_krps_at_slo_protobuf", "krps", Higher, 0.03),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("alloc_free_ratio", "ratio", Higher, 0.01),
];

/// Per-layer metrics: printed by the traced run only. Layers are the
/// crate names; host ns unless the name says `virt`. Unless a name says
/// otherwise a time is per round trip (request and reply message
/// together), so it compares directly with `host_ns_per_req`.
pub const PER_LAYER: [MetricSpec; 78] = [
    // cf-kv: spans around the benchmark's own three calls, store calls on
    // the stream's keys, the server's counters, allocator counts.
    layer("kv.client_send_ns", "ns", Lower),
    layer("kv.client_send_p99_ns", "ns", Lower),
    layer("kv.server_poll_ns", "ns", Lower),
    layer("kv.server_poll_p99_ns", "ns", Lower),
    layer("kv.client_recv_ns", "ns", Lower),
    layer("kv.client_recv_p99_ns", "ns", Lower),
    layer("kv.spans", "count", Higher),
    layer("kv.server_poll_residual_ns", "ns", Lower),
    layer("kv.store_get_ns", "ns", Lower),
    layer("kv.store_put_ns", "ns", Lower),
    layer("kv.requests_handled", "count", Higher),
    layer("kv.dedup_hits", "count", Lower),
    layer("kv.shed_drops", "count", Lower),
    layer("kv.degraded_replies", "count", Lower),
    layer("kv.allocs_per_req", "1/req", Lower),
    layer("kv.allocs_per_req_protobuf", "1/req", Lower),
    layer("kv.trace_overhead_ratio", "ratio", Lower),
    // cornflakes-core
    layer("core.cfbytes_new_ns", "ns", Lower),
    layer("core.serialize_ns", "ns", Lower),
    layer("core.deserialize_ns", "ns", Lower),
    layer("core.fields_per_req", "1/req", Lower),
    layer("core.zc_entries_per_req", "1/req", Lower),
    layer("core.zc_bytes_per_req", "B/req", Higher),
    layer("core.copy_bytes_per_req", "B/req", Lower),
    layer("core.zc_field_ratio", "ratio", Higher),
    // cf-baselines
    layer("baselines.protobuf_encode_ns", "ns", Lower),
    layer("baselines.protobuf_decode_ns", "ns", Lower),
    layer("baselines.flatbuffers_encode_ns", "ns", Lower),
    layer("baselines.flatbuffers_decode_ns", "ns", Lower),
    layer("baselines.capnproto_encode_ns", "ns", Lower),
    layer("baselines.capnproto_decode_ns", "ns", Lower),
    layer("baselines.host_ns_per_req_flatbuffers", "ns", Lower),
    layer("baselines.host_ns_per_req_capnproto", "ns", Lower),
    layer("baselines.virt_ns_per_req_protobuf", "ns", Lower),
    layer("baselines.virt_ns_per_req_flatbuffers", "ns", Lower),
    layer("baselines.virt_ns_per_req_capnproto", "ns", Lower),
    // cf-net
    layer("net.udp_send_ns", "ns", Lower),
    layer("net.udp_recv_ns", "ns", Lower),
    layer("net.udp_self_ns", "ns", Lower),
    // cf-nic
    layer("nic.fcs_ns_per_kib", "ns/KiB", Lower),
    layer("nic.fcs_ns_per_req", "ns", Lower),
    layer("nic.post_tx_ns", "ns", Lower),
    layer("nic.recv_into_ns", "ns", Lower),
    layer("nic.sg_entries_per_frame", "1/frame", Lower),
    layer("nic.tx_bytes_per_req", "B/req", Lower),
    layer("nic.rx_nobuf_drops", "count", Lower),
    layer("nic.rx_backlog_drops", "count", Lower),
    layer("nic.completions_per_req", "1/req", Lower),
    // cf-mem
    layer("mem.pool_alloc_free_ns", "ns", Lower),
    layer("mem.recover_ns", "ns", Lower),
    layer("mem.arena_copy_reset_ns", "ns", Lower),
    layer("mem.pool_allocs_per_req", "1/req", Lower),
    layer("mem.increfs_per_req", "1/req", Lower),
    layer("mem.recover_lookups_per_req", "1/req", Lower),
    layer("mem.recover_hit_ratio", "ratio", Higher),
    layer("mem.pool_exhausted", "count", Lower),
    layer("mem.live_slots_high_water", "count", Lower),
    layer("mem.registered_mib", "MiB", Lower),
    // cf-sim: host cost of the cost model, then virtual ns per request by
    // `Category`.
    layer("sim.charge_fixed_ns", "ns", Lower),
    layer("sim.charge_memcpy_ns", "ns", Lower),
    layer("sim.cache_access_ns", "ns", Lower),
    layer("sim.host_ns_per_virt_ns", "ratio", Lower),
    layer("sim.virt_ns.rx", "ns", Lower),
    layer("sim.virt_ns.deserialize", "ns", Lower),
    layer("sim.virt_ns.app_get", "ns", Lower),
    layer("sim.virt_ns.app_put", "ns", Lower),
    layer("sim.virt_ns.serialize_copy", "ns", Lower),
    layer("sim.virt_ns.serialize_zero_copy", "ns", Lower),
    layer("sim.virt_ns.header_write", "ns", Lower),
    layer("sim.virt_ns.tx", "ns", Lower),
    layer("sim.virt_ns.alloc", "ns", Lower),
    layer("sim.virt_ns.other", "ns", Lower),
    layer("sim.virt_ns.unattributed", "ns", Lower),
    // cf-workloads: the realised stream.
    layer("workloads.gen_ns_per_req", "ns", Lower),
    layer("workloads.mean_value_bytes", "B", Lower),
    layer("workloads.put_fraction", "ratio", Lower),
    layer("workloads.frac_ge_512", "ratio", Lower),
    // cf-telemetry
    layer("telemetry.attached_overhead_ns", "ns", Lower),
];

/// `sim.virt_ns.*` metric names in `cf_sim::Category::all()` order.
pub const VIRT_NS_BY_CATEGORY: [&str; 10] = [
    "sim.virt_ns.rx",
    "sim.virt_ns.deserialize",
    "sim.virt_ns.app_get",
    "sim.virt_ns.app_put",
    "sim.virt_ns.serialize_copy",
    "sim.virt_ns.serialize_zero_copy",
    "sim.virt_ns.header_write",
    "sim.virt_ns.tx",
    "sim.virt_ns.alloc",
    "sim.virt_ns.other",
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_telemetry::json::{self, Value};
    use std::collections::HashSet;

    fn benchmark_json() -> Value {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn strings(v: &Value, key: &str) -> Vec<String> {
        let items = v.get(key).and_then(Value::as_arr).expect(key);
        items
            .iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    }

    /// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`
    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// `[A-Za-z0-9_/%.-]{1,16}`
    fn is_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The `(name, unit, better, bound)` rows of one metric array.
    fn rows(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let items = doc.get(key).and_then(Value::as_arr).expect(key);
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                let bound = m.get("bound").and_then(Value::as_f64);
                let keys = m.as_obj().expect("object").len();
                assert_eq!(keys, if bound.is_some() { 4 } else { 3 }, "exact keys");
                (field("name"), field("unit"), field("better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_metrics_the_binary_prints_and_no_others() {
        let doc = benchmark_json();
        let expect = |specs: &[MetricSpec], bounded: bool| -> Vec<_> {
            specs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        match m.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(rows(&doc, "end_to_end"), expect(&END_TO_END, true));
        assert_eq!(rows(&doc, "per_layer"), expect(&PER_LAYER, false));
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = HashSet::new();
        let workloads = WORKLOADS.iter().map(|w| w.name);
        let metrics = END_TO_END.iter().chain(&PER_LAYER);
        for name in workloads.chain(metrics.clone().map(|m| m.name)) {
            assert!(is_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in metrics {
            assert!(is_unit(m.unit), "{} unit {:?}", m.name, m.unit);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in VIRT_NS_BY_CATEGORY {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_describes_this_package() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(strings(&doc, "paths"), ["benchmark"]);
        assert!(strings(&doc, "command").contains(&"benchmark/Cargo.toml".to_string()));
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        for w in workloads {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
            assert_eq!(w.as_obj().unwrap().len(), 2, "exactly name and why");
        }
    }

    #[test]
    fn pinned_rates_are_ordered() {
        for w in &WORKLOADS {
            assert!(0.0 < w.rate_mid_krps && w.rate_mid_krps < w.rate_high_krps);
            assert!(w.slo_us > 0.0 && w.sat_requests >= 1_000);
            assert_eq!(workload(w.name).unwrap().name, w.name);
        }
        assert!(workload("nope").is_none());
    }
}
