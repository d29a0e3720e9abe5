//! Figure 11: CPU-cycle breakdown on the CDN trace (§6.4).
//!
//! Average per-request time attributed to each request-handling phase, for
//! Cornflakes, FlatBuffers, and Protobuf. Paper findings: Cornflakes spends
//! almost nothing in serialization copies (all fields ≥ 1 KB are
//! zero-copy), its gets complete faster (more cache left for keys), and its
//! deserialization is shorter (deferred UTF-8 validation).

use cf_sim::cost::{Attribution, Category};
use cf_telemetry::Telemetry;

use cf_kv::server::SerKind;
use cf_workloads::CdnTrace;

use super::table2::{cdn_bench, fetch_next};
use crate::artifacts::write_artifact;
use crate::harness::capacity;
use crate::tables::{f1, print_expectation, print_table};

/// Per-category average ns/request for one system.
#[derive(Clone, Debug)]
pub struct Breakdown {
    /// The system measured.
    pub kind: SerKind,
    /// (category, ns per request) pairs in display order.
    pub per_request_ns: Vec<(Category, f64)>,
    /// Total ns per request.
    pub total_ns: f64,
    /// The simulator's attribution over the measured window.
    pub attribution: Attribution,
}

/// Measures the attribution breakdown for one system on the CDN workload,
/// with the telemetry handle that observed the measured window. Its spans
/// cover exactly the post-warmup requests (the handle attaches at the
/// attribution reset). Its counters do not: `kv.*`, `nic.*` and the `mem.*`
/// cells that count the serializer's copy-vs-zero-copy choices are the
/// layers' own cells, live from construction, so the (ungated) metrics
/// artifact [`run`] writes includes the warmup and the preload.
pub fn breakdown_instrumented(
    kind: SerKind,
    num_objects: u64,
    requests: u64,
) -> (Breakdown, Telemetry) {
    let mut b = cdn_bench(kind, num_objects);
    let mut trace = CdnTrace::new(num_objects, 0xF16);
    let sim = b.server_sim.clone();
    let warmup = requests / 5;
    let mut tele = Telemetry::disabled();
    let window = capacity(&sim, requests, warmup, |seq| {
        if seq == warmup {
            // The measured window opens: telemetry attaches at the instant
            // the simulator's attribution resets, so both see its charges.
            tele = Telemetry::attach(&sim);
            b.server.set_telemetry(&tele);
            sim.with_core(|c| c.attribution.reset());
        }
        fetch_next(&mut b, &mut trace).0
    });
    let attribution = sim.attribution();
    let order = [
        Category::Rx,
        Category::Deserialize,
        Category::AppGet,
        Category::SerializeCopy,
        Category::SerializeZeroCopy,
        Category::HeaderWrite,
        Category::Alloc,
        Category::Tx,
    ];
    let result = Breakdown {
        kind,
        per_request_ns: order
            .iter()
            .map(|&c| (c, attribution.get(c) / requests as f64))
            .collect(),
        total_ns: window.mean_service_ns(),
        attribution,
    };
    (result, tele)
}

/// Runs Figure 11, writing one `fig11-<system>-metrics.json` artifact per
/// system (see [`crate::artifacts`]).
pub fn run(num_objects: u64, requests: u64) -> Vec<Breakdown> {
    let systems = [SerKind::Cornflakes, SerKind::FlatBuffers, SerKind::Protobuf];
    let results: Vec<Breakdown> = systems
        .iter()
        .map(|&k| {
            let (b, tele) = breakdown_instrumented(k, num_objects, requests);
            let name = format!("fig11-{}-metrics.json", k.metric_key());
            write_artifact(&name, &tele.snapshot_json());
            b
        })
        .collect();
    let headers: Vec<String> = std::iter::once("Phase (ns/req)".to_string())
        .chain(results.iter().map(|b| b.kind.name().to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (i, (cat, _)) in results[0].per_request_ns.iter().enumerate() {
        let mut row = vec![cat.label().to_string()];
        for b in &results {
            row.push(f1(b.per_request_ns[i].1));
        }
        rows.push(row);
    }
    let mut total_row = vec!["TOTAL".to_string()];
    for b in &results {
        total_row.push(f1(b.total_ns));
    }
    rows.push(total_row);
    print_table(
        "Figure 11: per-request cycle breakdown (CDN trace)",
        &header_refs,
        &rows,
    );
    print_expectation(
        "Cornflakes profile",
        "near-zero serialization copies; shorter deserialize; faster gets",
        "see columns",
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(b: &Breakdown, cat: Category) -> f64 {
        b.per_request_ns
            .iter()
            .find(|(c, _)| *c == cat)
            .expect("category present")
            .1
    }

    #[test]
    fn breakdown_shape_matches_paper() {
        let results = run(1_000, 600);
        let cf = &results[0];
        let flat = &results[1];
        let proto = &results[2];
        // Cornflakes spends (almost) nothing copying; baselines are
        // dominated by copies.
        assert!(
            ns(cf, Category::SerializeCopy) < 80.0,
            "Cornflakes copies: {:.0} ns",
            ns(cf, Category::SerializeCopy)
        );
        for b in [flat, proto] {
            assert!(
                ns(b, Category::SerializeCopy) > 4.0 * ns(cf, Category::SerializeCopy).max(40.0),
                "{:?} should be copy-dominated ({:.0} ns)",
                b.kind,
                ns(b, Category::SerializeCopy)
            );
        }
        // Cornflakes pays zero-copy bookkeeping instead.
        assert!(ns(cf, Category::SerializeZeroCopy) > 50.0);
        // Total per-request time: Cornflakes clearly lowest.
        assert!(cf.total_ns < flat.total_ns);
        assert!(cf.total_ns < proto.total_ns);
        // Deserialization (tiny single-key requests) is no longer for
        // Cornflakes than the baselines.
        assert!(ns(cf, Category::Deserialize) <= ns(proto, Category::Deserialize) * 1.2);
    }
}
