//! Table 2: the CDN image trace (§6.2.1).
//!
//! Objects (1 KB–116 MB, mean ≈ 20 KB) are stored as vectors of
//! jumbo-frame-sized sub-objects; each request fetches one sub-object and
//! all sub-objects of an object are requested sequentially. Throughput is
//! reported in full objects per second. Paper result (kobj/s): Cap'n Proto
//! 161.0, FlatBuffers 181.2, Protobuf 186.1, Cornflakes 366.5 — Cornflakes
//! 97–128 % ahead, because every field is ≥ 1 KB and zero-copy.

use cf_sim::MachineProfile;
use cornflakes_core::SerializationConfig;

use cf_kv::server::SerKind;
use cf_workloads::{key_string, CdnTrace};

use crate::harness::{capacity, KvBench, Trace};
use crate::tables::{f1, pct, print_expectation, print_table};

/// Seed of Table 2's request stream.
const TRACE_SEED: u64 = 0xCD;

/// A `kind` server holding `num_objects` CDN objects, each a vector of
/// jumbo-frame segments (Table 2 and Figure 11).
pub fn cdn_bench(kind: SerKind, num_objects: u64) -> KvBench {
    let mut b = KvBench::new(
        MachineProfile::microbench(),
        kind,
        SerializationConfig::hybrid(),
    );
    b.preload(num_objects, |id| {
        (0..CdnTrace::num_segments(id))
            .map(|s| CdnTrace::segment_size(id, s))
            .collect()
    });
    b
}

/// Fetches the trace's next sub-object: the reply's payload size, and
/// whether the fetch completed its object.
pub fn fetch_next(b: &mut KvBench, trace: &mut CdnTrace) -> (u64, bool) {
    let (id, seg, last) = trace.next();
    let key = key_string(id);
    let bytes = b.request(|c| c.send_get_segment(key.as_bytes(), seg as u32));
    (bytes, last)
}

/// One system's closed-loop CDN run: the full objects completed by the
/// `requests` measured fetches, and the point they make. The `requests /
/// 10` warmup fetches, and their virtual time, count in neither.
pub fn cdn_window(kind: SerKind, num_objects: u64, requests: u64) -> (u64, Trace) {
    let mut b = cdn_bench(kind, num_objects);
    let mut trace = CdnTrace::new(num_objects, TRACE_SEED);
    let warmup = requests / 10;
    let mut objects = 0;
    let sim = b.server_sim.clone();
    let point = capacity(&sim, requests, warmup, |seq| {
        let (bytes, last) = fetch_next(&mut b, &mut trace);
        objects += u64::from(last && seq >= warmup);
        bytes
    });
    (objects, point)
}

/// Max sustained throughput in thousands of full objects per second.
pub fn cdn_kobjs(kind: SerKind, num_objects: u64, requests: u64) -> f64 {
    let (objects, point) = cdn_window(kind, num_objects, requests);
    objects as f64 * point.rps() / point.completed() as f64 / 1e3
}

/// Runs Table 2.
pub fn run(num_objects: u64, requests: u64) -> Vec<(SerKind, f64)> {
    let mut results = Vec::new();
    for kind in [
        SerKind::CapnProto,
        SerKind::FlatBuffers,
        SerKind::Protobuf,
        SerKind::Cornflakes,
    ] {
        results.push((kind, cdn_kobjs(kind, num_objects, requests)));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(k, v)| vec![k.name().to_string(), f1(*v)])
        .collect();
    print_table(
        "Table 2: CDN image trace (thousands of objects/s)",
        &["System", "kobj/s"],
        &rows,
    );
    let cf = results
        .iter()
        .find(|(k, _)| *k == SerKind::Cornflakes)
        .expect("cf")
        .1;
    let best_baseline = results
        .iter()
        .filter(|(k, _)| *k != SerKind::Cornflakes)
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);
    print_expectation(
        "Cornflakes vs best baseline",
        "+97% (366.5 vs 186.1 kobj/s)",
        &pct((cf - best_baseline) / best_baseline * 100.0),
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cornflakes_roughly_doubles_cdn_throughput() {
        let results = run(1_500, 800);
        let get = |k: SerKind| results.iter().find(|(x, _)| *x == k).expect("present").1;
        let cf = get(SerKind::Cornflakes);
        for kind in [SerKind::Protobuf, SerKind::FlatBuffers, SerKind::CapnProto] {
            let base = get(kind);
            let gain = (cf - base) / base * 100.0;
            assert!(
                gain > 50.0,
                "Cornflakes should be far ahead of {kind:?}: +{gain:.0}% (cf={cf:.1} base={base:.1})"
            );
            assert!(
                gain < 250.0,
                "gain {gain:.0}% vs {kind:?} implausibly large"
            );
        }
    }

    #[test]
    fn only_measured_fetches_complete_objects() {
        let (num_objects, requests) = (300, 400);
        let (objects, point) = cdn_window(SerKind::Cornflakes, num_objects, requests);
        let warmup = requests / 10;
        let mut trace = CdnTrace::new(num_objects, TRACE_SEED);
        let lasts: Vec<bool> = (0..warmup + requests).map(|_| trace.next().2).collect();
        let measured = lasts[warmup as usize..].iter().filter(|&&l| l).count();
        let warm = lasts[..warmup as usize].iter().filter(|&&l| l).count();
        assert!(warm > 0, "the warmup completes objects too");
        assert_eq!(objects, measured as u64);
        assert_eq!(point.completed(), requests);
    }
}
