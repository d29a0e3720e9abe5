//! One workload, start to finish: set-up, the measured phases, the
//! verification pass, and the metric values.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cf_kv::server::SerKind;
use cf_nic::NicStats;
use cf_sim::Category;
use cf_telemetry::{FlightRecorder, Telemetry};

use crate::fixture::{Fails, Fixture, NoProbe, VERIFY_REQUESTS};
use crate::layers;
use crate::phases::{self, BatchSeries, Point};
use crate::report::{number, WorkloadResult};
use crate::spec::{self, WorkloadSpec, RUN_SECONDS};
use crate::stats;
use crate::stream::Workload;
use crate::trace::{SpanLog, SpanProbe, TRACE_FILE_REQUESTS};

/// Fewest set-ups per untraced run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Quick set-ups repeat until this many seconds went into them ...
const SETUP_SECONDS: f64 = 1.5;
/// ... or this many are done.
const MAX_SETUPS: usize = 15;
/// Untimed round trips per kind that end a set-up: pools, scratch
/// messages and the dedup window reach their steady footprint, and the
/// modelled LLC fills.
const WARMUP_REQUESTS: usize = 8_192;
/// Share of `--seconds` the host phase gets; the virtual phases' pinned
/// request counts are sized to take about the rest on the machine the
/// benchmark was defined on.
const HOST_SHARE: f64 = 0.7;

/// A workload's inputs and both fixtures, warmed up.
pub struct Setup {
    /// Inputs.
    pub w: Workload,
    /// Cornflakes pair.
    pub cf: Fixture,
    /// Protobuf pair, fed the identical stream.
    pub pb: Fixture,
    /// Round trips per timed batch, per kind ([`phases::MIN_BATCH`] long).
    pub batch: [usize; 2],
    /// Seconds the set-up took.
    pub setup_s: f64,
}

/// One set-up: generates the stream, builds and preloads both fixtures
/// and warms them up.
pub fn set_up(spec: &'static WorkloadSpec, seed: u64) -> Setup {
    let t0 = Instant::now();
    let w = Workload::generate(spec, seed);
    let mut cf = Fixture::build(&w, SerKind::Cornflakes);
    let mut pb = Fixture::build(&w, SerKind::Protobuf);
    let batch = [
        phases::warm_up(&mut cf, &w, WARMUP_REQUESTS),
        phases::warm_up(&mut pb, &w, WARMUP_REQUESTS),
    ];
    Setup {
        w,
        cf,
        pb,
        batch,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// `setup_s`: the median over the run's own set-up (`first` seconds) and
/// further ones, each dropped at once — at least [`MIN_SETUPS`] in all,
/// and until [`SETUP_SECONDS`] have gone into set-ups or [`MAX_SETUPS`]
/// are done. A 60 ms set-up done three times has a median that moves 15 %
/// from run to run; done fifteen times it does not. Call it after the
/// measured phases and after reading the peak memory, with the run's own
/// fixtures dropped: the repeats fragment the heap, and peak memory is
/// meant to be one set-up's and one run's.
pub fn median_setup_seconds(spec: &'static WorkloadSpec, seed: u64, first: f64) -> f64 {
    let mut seconds = vec![first];
    while seconds.len() < MIN_SETUPS
        || (seconds.len() < MAX_SETUPS && seconds.iter().sum::<f64>() < SETUP_SECONDS)
    {
        seconds.push(set_up(spec, seed).setup_s);
    }
    stats::median(&seconds)
}

/// A pinned request count scaled from [`RUN_SECONDS`] to `seconds`.
pub fn scaled(count: u64, seconds: f64, floor: u64) -> u64 {
    ((count as f64 * seconds / RUN_SECONDS) as u64).max(floor)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Fails loudly when the pinned `rate_high_krps` is not below the measured
/// Cornflakes capacity, rather than letting a saturated queue's p99 be
/// printed as if it were a latency.
pub fn check_rate_high(spec: &WorkloadSpec, virt_ns_per_req: f64) -> Result<(), String> {
    let capacity_krps = 1e6 / virt_ns_per_req;
    if spec.rate_high_krps < phases::MAX_UTILISATION * capacity_krps {
        return Ok(());
    }
    Err(format!(
        "{}: pinned rate_high_krps {} is not below {} × the measured Cornflakes capacity \
         {capacity_krps:.1} krps; a p99 at that rate would be a saturated queue's. Re-pin the \
         workload's rates (examples/calibrate.rs) in a benchmark-correcting change.",
        spec.name,
        spec.rate_high_krps,
        phases::MAX_UTILISATION
    ))
}

fn series_json(s: &BatchSeries) -> String {
    let [q1, q2, q3] = stats::quartiles(&s.ns_per_req);
    // Absent for the traced lanes, which no reference kernel brackets.
    let at_reference_speed = if s.at_reference_speed.is_empty() {
        "null".to_string()
    } else {
        number(s.median_at_reference_speed())
    };
    format!(
        "{{\"batches\": {}, \"requests\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \
         \"median_at_reference_speed\": {at_reference_speed}, \"allocs_per_req\": {}}}",
        s.ns_per_req.len(),
        s.requests,
        number(q1),
        number(q2),
        number(q3),
        number(s.allocs_per_req())
    )
}

fn point_json(p: &Point, slo_us: f64) -> String {
    format!(
        "{{\"offered_krps\": {}, \"achieved_krps\": {}, \"utilisation\": {}, \"p50_us\": {}, \
         \"p99_us\": {}, \"arrivals\": {}, \"meets_slo\": {}}}",
        number(p.offered_krps),
        number(p.achieved_krps),
        number(p.utilisation),
        number(p.p50_us),
        number(p.p99_us),
        p.arrivals,
        p.meets(slo_us)
    )
}

fn points_json(points: &[Point], slo_us: f64) -> String {
    let items: Vec<String> = points.iter().map(|p| point_json(p, slo_us)).collect();
    format!("[{}]", items.join(", "))
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
) -> Result<WorkloadResult, String> {
    let Setup {
        w,
        mut cf,
        mut pb,
        batch,
        setup_s,
    } = set_up(spec, seed);

    // Host phase.
    let budget = Duration::from_secs_f64(seconds * HOST_SHARE);
    let [host_cf, host_pb] = phases::host_phase(&w, [&mut cf, &mut pb], batch, budget);

    // Virtual saturation: per-request service times on the virtual clock.
    // The modelled LLC is in steady state after the host phase, which ran
    // the same requests through the same model.
    let sat_n = scaled(spec.sat_requests, seconds, 2_000);
    let service_cf = phases::service_times(&mut cf, &w, sat_n);
    let service_pb = phases::service_times(&mut pb, &w, sat_n);
    let virt_cf = phases::mean_service_ns(&service_cf);
    let virt_pb = phases::mean_service_ns(&service_pb);
    check_rate_high(spec, virt_cf)?;

    // Virtual open loop.
    let arrivals = scaled(phases::ARRIVALS, seconds, 10_000) as usize;
    let mut scratch = Vec::with_capacity(arrivals);
    let mut point = |service, krps| phases::open_loop(service, krps, arrivals, seed, &mut scratch);
    let mid = point(&service_cf, spec.rate_mid_krps);
    let high = point(&service_cf, spec.rate_high_krps);
    let (slo_cf, search_cf) = phases::rate_at_slo(&w, &service_cf, arrivals, seed, &mut scratch);
    let (slo_pb, search_pb) = phases::rate_at_slo(&w, &service_pb, arrivals, seed, &mut scratch);

    // Untimed verification pass, per kind.
    cf.verify(&w, VERIFY_REQUESTS);
    pb.verify(&w, VERIFY_REQUESTS);

    // Peak memory is this set-up's and this run's; only then the further
    // set-ups whose median is `setup_s`.
    let peak_rss_mb = peak_rss_mib();
    let (attempted, fails) = (cf.attempted() + pb.attempted(), cf.fails + pb.fails);
    let stream_hash = w.stream.hash();
    drop((w, cf, pb));
    let setup_s = median_setup_seconds(spec, seed, setup_s);

    let alloc_free_ratio = (1.0 - host_cf.allocs_per_req()).max(0.0);
    let values = [
        setup_s,
        host_cf.median_at_reference_speed(),
        host_pb.median_at_reference_speed(),
        virt_cf,
        high.p50_us,
        mid.p99_us,
        high.p99_us,
        slo_cf,
        slo_pb,
        peak_rss_mb,
        alloc_free_ratio,
    ];
    let detail = format!(
        "{{\"stream_hash\": \"{:016x}\", \"generator\": \"virtual time: never late\", \
         \"host\": {{\"cornflakes\": {}, \"protobuf\": {}}}, \
         \"virt_ns_per_req_protobuf\": {}, \"slo_us\": {}, \
         \"krps_at_slo_ratio\": {}, \"rate_mid\": {}, \"rate_high\": {}, \
         \"search_cornflakes\": {}, \"search_protobuf\": {}}}",
        stream_hash,
        series_json(&host_cf),
        series_json(&host_pb),
        number(virt_pb),
        number(spec.slo_us),
        number(slo_cf / slo_pb),
        point_json(&mid, spec.slo_us),
        point_json(&high, spec.slo_us),
        points_json(&search_cf, spec.slo_us),
        points_json(&search_pb, spec.slo_us),
    );
    Ok(WorkloadResult {
        workload: spec.name,
        attempted,
        fails,
        metrics: spec::END_TO_END.iter().zip(values).collect(),
        detail,
        trace_json: None,
    })
}

/// Most requests whose spans the traced run keeps (four spans each).
const MAX_TRACED_REQUESTS: usize = 250_000;
/// Shares of `--seconds` in the traced run: the three-way host phase, each
/// further kind's short closed loop, the telemetry comparison, and each of
/// the layer replays (about a dozen timed groups).
const TRACED_HOST_SHARE: f64 = 0.30;
const OTHER_KIND_SHARE: f64 = 0.04;
const TELEMETRY_SHARE: f64 = 0.08;
const REPLAY_SHARE: f64 = 0.015;

/// The counters the traced host phase takes deltas of, on one fixture.
struct Counters {
    attempted: u64,
    server_nic: NicStats,
    client_nic: NicStats,
    pool_allocs: u64,
    increfs: u64,
    recover_lookups: u64,
    recover_hits: u64,
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let mem = fx.server.stack.ctx().registry.stats();
        let load = |cell: &std::sync::atomic::AtomicU64| cell.load(Ordering::Relaxed);
        Counters {
            attempted: fx.attempted(),
            server_nic: fx.server.stack.nic_stats(),
            client_nic: fx.client.stack.nic_stats(),
            pool_allocs: load(&mem.pool_allocs),
            increfs: load(&mem.increfs),
            recover_lookups: load(&mem.recover_lookups),
            recover_hits: load(&mem.recover_hits),
        }
    }
}

/// The traced run: every per-layer metric of one workload. Spans around
/// the benchmark's own calls into `cf-kv`, counter deltas over the host
/// phase, virtual time by category, short closed loops for the remaining
/// kinds and with telemetry attached, and the layer replays.
pub fn per_layer(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
) -> Result<WorkloadResult, String> {
    let Setup {
        w,
        mut cf,
        mut pb,
        batch,
        ..
    } = set_up(spec, seed);
    let share = |s: f64| Duration::from_secs_f64(seconds * s);

    // Host phase: Cornflakes untraced, Cornflakes traced and Protobuf take
    // turns, the two Cornflakes lanes swapping order every round. Traced
    // minus untraced is the tracing overhead.
    let mut log = SpanLog::with_capacity(MAX_TRACED_REQUESTS);
    let [mut plain, mut traced, mut proto] = [(); 3].map(|()| BatchSeries::default());
    let before = Counters::read(&cf);
    let t0 = Instant::now();
    let mut round = 0;
    while round < phases::MIN_BATCHES || t0.elapsed() < share(TRACED_HOST_SHARE) {
        for lane in [round % 2, 1 - round % 2] {
            if lane == 0 {
                plain.run_batch(&mut cf, &w, batch[0], &mut NoProbe);
            } else {
                traced.run_batch(&mut cf, &w, batch[0], &mut SpanProbe::new(&mut log));
            }
        }
        proto.run_batch(&mut pb, &w, batch[1], &mut NoProbe);
        round += 1;
    }
    let after = Counters::read(&cf);
    let host_requests = (after.attempted - before.attempted) as f64;
    if stats::highest_supported_percentile(log.requests()) < Some(99.0) {
        return Err(format!(
            "{}: {} traced requests cannot support a p99; raise --seconds",
            spec.name,
            log.requests()
        ));
    }

    // Virtual time per request, by category, at saturation.
    let sat_n = scaled(spec.sat_requests, seconds, 2_000);
    let attributed_before = cf.sim.attribution();
    let virt_cf = phases::mean_service_ns(&phases::service_times(&mut cf, &w, sat_n));
    let attributed_after = cf.sim.attribution();
    let virt_pb = phases::mean_service_ns(&phases::service_times(&mut pb, &w, sat_n));
    check_rate_high(spec, virt_cf)?;
    let virt_by_category = Category::all()
        .map(|c| (attributed_after.get(c) - attributed_before.get(c)) / sat_n as f64);

    // The remaining kinds: a short closed loop on each clock.
    let mut attempted = 0;
    let mut fails = Fails::default();
    let [(host_fb, virt_fb), (host_capn, virt_capn)] = [SerKind::FlatBuffers, SerKind::CapnProto]
        .map(|kind| {
            let mut fx = Fixture::build(&w, kind);
            let batch = phases::warm_up(&mut fx, &w, WARMUP_REQUESTS / 2);
            let [host] = phases::host_phase(&w, [&mut fx], [batch], share(OTHER_KIND_SHARE));
            let virt = phases::mean_service_ns(&phases::service_times(&mut fx, &w, sat_n / 4));
            fx.verify(&w, VERIFY_REQUESTS / 10);
            attempted += fx.attempted();
            fails = fails + fx.fails;
            (host.median(), virt)
        });

    // Telemetry attached (charge observer, server metrics and spans, the
    // flight recorder on both ends) against the untraced fixture.
    let telemetry_overhead_ns = {
        let mut fx = Fixture::build(&w, SerKind::Cornflakes);
        let telemetry = Telemetry::attach(&fx.sim);
        fx.server.set_telemetry(&telemetry);
        let flight = FlightRecorder::with_capacity(4_096);
        fx.server.set_flight_recorder(&flight);
        fx.client.set_flight_recorder(&flight);
        let with = phases::warm_up(&mut fx, &w, WARMUP_REQUESTS / 2);
        let [off, on] = phases::host_phase(
            &w,
            [&mut cf, &mut fx],
            [batch[0], with],
            share(TELEMETRY_SHARE),
        );
        fx.verify(&w, VERIFY_REQUESTS / 10);
        attempted += fx.attempted();
        fails = fails + fx.fails;
        on.median() - off.median()
    };

    // Untimed verification, then the layer replays (they overwrite store
    // values, so they come last).
    cf.verify(&w, VERIFY_REQUESTS);
    pb.verify(&w, VERIFY_REQUESTS);
    let layers = layers::replay(&w, &mut cf, share(REPLAY_SHARE));

    let span_stats = |name: &str| {
        let mut d = log.durations(name);
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let d = stats::sorted(&mut d);
        (stats::percentile(d, 50.0), stats::percentile(d, 99.0), mean)
    };
    let (send_p50, send_p99, _) = span_stats("kv.client_send");
    let (poll_p50, poll_p99, poll_mean) = span_stats("kv.server_poll");
    let (recv_p50, recv_p99, _) = span_stats("kv.client_recv");
    let server_nic =
        |f: fn(&NicStats) -> u64| (f(&after.server_nic) - f(&before.server_nic)) as f64;
    let client_nic =
        |f: fn(&NicStats) -> u64| (f(&after.client_nic) - f(&before.client_nic)) as f64;
    let both_nics = |f: fn(&NicStats) -> u64| server_nic(f) + client_nic(f);
    let mem = cf.server.stack.ctx().registry.stats();
    let recover_lookups = (after.recover_lookups - before.recover_lookups) as f64;
    let shape = w.stream.shape(&w.keys);
    let fcs_verify_ns = layers.fcs_ns_per_req / 2.0;

    let mut named: Vec<(&str, f64)> = vec![
        ("kv.client_send_ns", send_p50),
        ("kv.client_send_p99_ns", send_p99),
        ("kv.server_poll_ns", poll_p50),
        ("kv.server_poll_p99_ns", poll_p99),
        ("kv.client_recv_ns", recv_p50),
        ("kv.client_recv_p99_ns", recv_p99),
        ("kv.spans", log.requests() as f64),
        // Means on both sides: the replays are per-item means, and a
        // median of a size mix is not a mean.
        (
            "kv.server_poll_residual_ns",
            poll_mean - layers.server_poll_explained_ns(),
        ),
        ("kv.store_get_ns", layers.store_get_ns),
        ("kv.store_put_ns", layers.store_put_ns),
        ("kv.requests_handled", cf.server.requests_handled() as f64),
        ("kv.dedup_hits", cf.server.dedup_hits() as f64),
        ("kv.shed_drops", cf.server.shed_drops() as f64),
        ("kv.degraded_replies", cf.server.degraded_replies() as f64),
        ("kv.allocs_per_req", plain.allocs_per_req()),
        ("kv.allocs_per_req_protobuf", proto.allocs_per_req()),
        (
            "kv.trace_overhead_ratio",
            traced.median() / plain.median() - 1.0,
        ),
        ("core.cfbytes_new_ns", layers.cfbytes_new_ns),
        (
            "core.serialize_ns",
            layers.build_ns.total() + layers.header_ns.total(),
        ),
        ("core.deserialize_ns", layers.deserialize_ns.total()),
        ("core.fields_per_req", layers.fields_per_req),
        ("core.zc_entries_per_req", layers.zc_entries_per_req),
        ("core.zc_bytes_per_req", layers.zc_bytes_per_req),
        ("core.copy_bytes_per_req", layers.copy_bytes_per_req),
        ("core.zc_field_ratio", layers.zc_field_ratio),
        ("baselines.protobuf_encode_ns", layers.baseline_encode_ns[0]),
        ("baselines.protobuf_decode_ns", layers.baseline_decode_ns[0]),
        (
            "baselines.flatbuffers_encode_ns",
            layers.baseline_encode_ns[1],
        ),
        (
            "baselines.flatbuffers_decode_ns",
            layers.baseline_decode_ns[1],
        ),
        (
            "baselines.capnproto_encode_ns",
            layers.baseline_encode_ns[2],
        ),
        (
            "baselines.capnproto_decode_ns",
            layers.baseline_decode_ns[2],
        ),
        ("baselines.host_ns_per_req_flatbuffers", host_fb),
        ("baselines.host_ns_per_req_capnproto", host_capn),
        ("baselines.virt_ns_per_req_protobuf", virt_pb),
        ("baselines.virt_ns_per_req_flatbuffers", virt_fb),
        ("baselines.virt_ns_per_req_capnproto", virt_capn),
        ("net.udp_send_ns", layers.udp_send_ns.total()),
        ("net.udp_recv_ns", layers.udp_recv_ns.total()),
        (
            "net.udp_self_ns",
            layers.udp_send_ns.total() + layers.udp_recv_ns.total()
                - layers.nic_post_tx_ns.total()
                - layers.nic_recv_into_ns.total()
                - fcs_verify_ns,
        ),
        ("nic.fcs_ns_per_kib", layers.fcs_ns_per_kib),
        ("nic.fcs_ns_per_req", layers.fcs_ns_per_req),
        ("nic.post_tx_ns", layers.nic_post_tx_ns.total()),
        ("nic.recv_into_ns", layers.nic_recv_into_ns.total()),
        (
            "nic.sg_entries_per_frame",
            server_nic(|s| s.tx_sg_entries) / server_nic(|s| s.tx_frames),
        ),
        (
            "nic.tx_bytes_per_req",
            both_nics(|s| s.tx_bytes) / host_requests,
        ),
        ("nic.rx_nobuf_drops", both_nics(|s| s.rx_nobuf_drops)),
        ("nic.rx_backlog_drops", both_nics(|s| s.rx_backlog_drops)),
        (
            "nic.completions_per_req",
            both_nics(|s| s.completions) / host_requests,
        ),
        ("mem.pool_alloc_free_ns", layers.pool_alloc_free_ns),
        ("mem.recover_ns", layers.recover_ns),
        ("mem.arena_copy_reset_ns", layers.arena_copy_reset_ns),
        (
            "mem.pool_allocs_per_req",
            (after.pool_allocs - before.pool_allocs) as f64 / host_requests,
        ),
        (
            "mem.increfs_per_req",
            (after.increfs - before.increfs) as f64 / host_requests,
        ),
        (
            "mem.recover_lookups_per_req",
            recover_lookups / host_requests,
        ),
        (
            "mem.recover_hit_ratio",
            if recover_lookups == 0.0 {
                0.0
            } else {
                (after.recover_hits - before.recover_hits) as f64 / recover_lookups
            },
        ),
        (
            "mem.pool_exhausted",
            mem.pool_exhausted.load(Ordering::Relaxed) as f64,
        ),
        (
            "mem.live_slots_high_water",
            mem.live_slots_high_water.load(Ordering::Relaxed) as f64,
        ),
        (
            "mem.registered_mib",
            mem.registered_bytes.load(Ordering::Relaxed) as f64 / (1 << 20) as f64,
        ),
        ("sim.charge_fixed_ns", layers.charge_fixed_ns),
        ("sim.charge_memcpy_ns", layers.charge_memcpy_ns),
        ("sim.cache_access_ns", layers.cache_access_ns),
        ("sim.host_ns_per_virt_ns", poll_mean / virt_cf),
        (
            "sim.virt_ns.unattributed",
            virt_cf - virt_by_category.iter().sum::<f64>(),
        ),
        (
            "workloads.gen_ns_per_req",
            w.stream.gen_seconds * 1e9 / w.stream.len() as f64,
        ),
        ("workloads.mean_value_bytes", shape.mean_value_bytes),
        ("workloads.put_fraction", shape.put_fraction),
        ("workloads.frac_ge_512", shape.frac_ge_512),
        ("telemetry.attached_overhead_ns", telemetry_overhead_ns),
    ];
    named.extend(spec::VIRT_NS_BY_CATEGORY.into_iter().zip(virt_by_category));

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = named.iter().find(|(name, _)| *name == m.name);
            (m, value.expect("every per-layer metric is measured").1)
        })
        .collect();
    let detail = format!(
        "{{\"stream_hash\": \"{:016x}\", \"host\": {{\"cornflakes\": {}, \
         \"cornflakes_traced\": {}, \"protobuf\": {}}}, \"virt_ns_per_req\": {}, \
         \"layers\": \"{}\"}}",
        w.stream.hash(),
        series_json(&plain),
        series_json(&traced),
        series_json(&proto),
        number(virt_cf),
        cf_telemetry::json::escape(&format!("{layers:?}")),
    );
    Ok(WorkloadResult {
        workload: spec.name,
        attempted: attempted + cf.attempted() + pb.attempted(),
        fails: fails + cf.fails + pb.fails,
        metrics,
        detail,
        trace_json: Some(log.chrome_trace_json(TRACE_FILE_REQUESTS)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_high_at_or_above_capacity_fails_loudly() {
        let spec = spec::workload("get_small").unwrap();
        assert!(check_rate_high(spec, 739.0).is_ok(), "1353 krps capacity");
        // 1000 krps pinned against 1e6 / 1000 ns = 1000 krps capacity.
        let err = check_rate_high(spec, 1_000.0).unwrap_err();
        assert!(
            err.contains("get_small") && err.contains("rate_high_krps"),
            "{err}"
        );
    }

    #[test]
    fn pinned_counts_scale_with_seconds_down_to_a_floor() {
        assert_eq!(scaled(120_000, RUN_SECONDS, 1_000), 120_000);
        assert_eq!(scaled(120_000, RUN_SECONDS / 2.0, 1_000), 60_000);
        assert_eq!(scaled(120_000, 0.001, 1_000), 1_000);
    }
}
