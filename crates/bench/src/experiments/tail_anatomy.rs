//! Tail-latency anatomy: where the p99.9 actually goes.
//!
//! The overload experiment (`overload.rs`) shows *that* control keeps
//! goodput; this one shows *where the time went* for the requests that
//! define the tail. The fixture is the same steered multi-queue sharded
//! server at a fixed overload multiplier (default 2× measured capacity)
//! with wire faults armed, driven by the same slice-based open-loop
//! harness ([`Rig::drive`]) — but on derated shards, polled to the client's
//! wall clock, with a [`FlightRecorder`] shared across the client and
//! every shard.
//!
//! For each served request the recorded lifecycle anchors — first send,
//! last (re)transmission, backlog admission, shard dispatch, reply post,
//! client receive — are folded into five consecutive phases:
//!
//! | phase        | interval                       | what it measures        |
//! |--------------|--------------------------------|-------------------------|
//! | `retry_wait` | first send → last attempt      | timeouts + backoff      |
//! | `queueing`   | last attempt → backlog admit   | wire + NIC staging ring |
//! | `sojourn`    | admit → shard dispatch         | backlog residence       |
//! | `service`    | dispatch → reply posted        | deserialize/app/serialize|
//! | `wire`       | reply posted → client receive  | return path + harness slice |
//!
//! Each anchor is clamped to run monotonically forward (a missing anchor
//! contributes zero), so the five phases telescope: their sum equals the
//! request's own end-to-end latency exactly, except when a shard's service
//! clock overshoots the receive stamp — the artifact test bounds the
//! discrepancy at 2 %. The report picks the *concrete* request sitting at
//! p50 / p99 / p99.9 of the end-to-end distribution and prints its
//! breakdown plus full event timeline; the `kv.client.e2e_latency_ns`
//! histogram carries exemplar request ids (bucket maxima), so the same
//! outlier is reachable from the metrics side too. Emits
//! `tail_anatomy.json`; the committed `BENCH_tail_anatomy.json` is the full
//! preset's, gated by [`RULES`]. Virtual time follows real heap addresses
//! (see `churn`), so the capacity probe repeats to ~0.01 %, not to the bit,
//! and `offered`, ⌈duration × capacity × multiplier⌉, moves with it; which
//! request sits at a quantile changes run to run (retry timing follows
//! virtual time too), so the gate holds the quantiles' latencies, not their
//! request ids.

use std::collections::HashMap;

use cf_nic::FaultPlan;
use cf_sim::MachineProfile;
use cf_telemetry::json::Value;
use cf_telemetry::{FlightEvent, FlightRecord, FlightRecorder, Telemetry};

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::experiments::overload::{measure_capacity, OpenLoopParams, Rig};
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// Service-cost multiplier applied to the shards' per-packet base cost.
/// A single simulated load-generator machine pays ~426 ns per send, which
/// caps its offered rate *below* the calibrated two-shard capacity — one
/// client can never overload that server in coherent wall-clock time.
/// Derating the shards (the classic slow-the-disk queueing-study move)
/// restores a genuine 2× overload from one client while every flight
/// stamp stays on one comparable timebase. Capacity is re-measured on the
/// derated fixture, so "2×" is honest.
const SHARD_DERATE: f64 = 6.0;

/// The derated shard core (see [`SHARD_DERATE`]).
fn derated_shard() -> MachineProfile {
    let mut profile = MachineProfile::microbench();
    profile.name = "derated shard (tail-anatomy load rig)";
    profile.costs.per_packet_base *= SHARD_DERATE;
    profile
}

/// Harness knobs; [`TailAnatomyParams::quick`] is the smoke preset.
#[derive(Clone, Debug)]
pub struct TailAnatomyParams {
    /// The rig and the load; `slo_ns` is the client's retry deadline.
    pub load: OpenLoopParams,
    /// Offered load as a multiple of measured capacity (the paper's tail
    /// stories live past saturation; default 2×).
    pub multiplier: f64,
    /// Wire drop probability on the server's receive direction — faults
    /// make retries and dedup hits show up in the anatomy.
    pub drop_prob: f64,
    /// Flight-recorder ring capacity (drained every slice).
    pub flight_capacity: usize,
}

/// `load` in slices finer than the overload sweep's 50 µs: flight anchors
/// on different machine clocks can skew by up to one slice, so the slice
/// must be small against the phases it resolves.
fn finely_sliced(load: OpenLoopParams) -> OpenLoopParams {
    OpenLoopParams {
        slice_ns: 10_000,
        ..load
    }
}

impl TailAnatomyParams {
    /// Full run: 2 shards at 2× capacity for 3 ms of virtual time.
    pub fn full() -> Self {
        TailAnatomyParams {
            load: finely_sliced(OpenLoopParams::full()),
            multiplier: 2.0,
            drop_prob: 0.02,
            flight_capacity: 1 << 16,
        }
    }

    /// Smoke preset: the same shape, a fraction of the volume.
    pub fn quick() -> Self {
        TailAnatomyParams {
            load: finely_sliced(OpenLoopParams::quick()),
            ..TailAnatomyParams::full()
        }
    }
}

/// The five consecutive phases one request's latency decomposes into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phases {
    /// First send → last (re)transmission: timeout + backoff time.
    pub retry_wait_ns: u64,
    /// Last attempt → backlog admission: wire plus NIC staging.
    pub queueing_ns: u64,
    /// Admission → shard dispatch: backlog residence.
    pub sojourn_ns: u64,
    /// Dispatch → reply posted: deserialize + app + serialize.
    pub service_ns: u64,
    /// Reply posted → client receive: return path.
    pub wire_ns: u64,
}

impl Phases {
    /// Sum of the five phases; telescopes to the request's end-to-end
    /// latency (see [`decompose`]).
    pub fn sum_ns(&self) -> u64 {
        self.retry_wait_ns + self.queueing_ns + self.sojourn_ns + self.service_ns + self.wire_ns
    }
}

/// Decomposes one request's flight timeline into `(e2e_ns, Phases)`.
/// Returns `None` unless the timeline has both a `ClientSend` and a
/// `ClientRecv` (i.e. the request completed).
///
/// Anchors are folded with a running maximum, so clock skew between
/// machines or a missing anchor (e.g. an un-admitted fast path) yields a
/// zero-length phase, never a negative one — and the phase sum telescopes
/// to `max(anchors) - first_send`, which equals `e2e` whenever the client
/// receive stamp is the latest anchor (the normal case).
pub fn decompose(events: &[FlightRecord]) -> Option<(u64, Phases)> {
    let mut send: Option<u64> = None;
    let mut attempt: Option<u64> = None;
    let mut admit: Option<u64> = None;
    let mut dispatch: Option<u64> = None;
    let mut reply: Option<u64> = None;
    let mut recv: Option<u64> = None;
    let keep_max = |slot: &mut Option<u64>, ts: u64| {
        *slot = Some(slot.map_or(ts, |t| t.max(ts)));
    };
    for r in events {
        match r.event {
            FlightEvent::ClientSend => {
                if send.is_none() {
                    send = Some(r.ts_ns);
                }
                keep_max(&mut attempt, r.ts_ns);
            }
            FlightEvent::ClientRetry { .. } => keep_max(&mut attempt, r.ts_ns),
            FlightEvent::BacklogAdmit { .. } => keep_max(&mut admit, r.ts_ns),
            FlightEvent::ShardDispatch { .. } => keep_max(&mut dispatch, r.ts_ns),
            FlightEvent::Reply { .. } => keep_max(&mut reply, r.ts_ns),
            FlightEvent::ClientRecv { .. } => keep_max(&mut recv, r.ts_ns),
            _ => {}
        }
    }
    let send = send?;
    let recv = recv?;
    let mut cursor = send;
    let mut step = |anchor: Option<u64>| -> u64 {
        let next = cursor.max(anchor.unwrap_or(cursor));
        let delta = next - cursor;
        cursor = next;
        delta
    };
    let phases = Phases {
        retry_wait_ns: step(attempt),
        queueing_ns: step(admit),
        sojourn_ns: step(dispatch),
        service_ns: step(reply),
        wire_ns: step(Some(recv)),
    };
    Some((recv.saturating_sub(send), phases))
}

/// One quantile's concrete exemplar request and its breakdown.
#[derive(Clone, Debug)]
pub struct QuantileRow {
    /// Display label (`p50`, `p99`, `p99.9`).
    pub label: &'static str,
    /// The quantile as a fraction.
    pub q: f64,
    /// The request id sitting at this quantile of the e2e distribution.
    pub req_id: u32,
    /// That request's end-to-end latency (first send → receive).
    pub e2e_ns: u64,
    /// Its phase decomposition.
    pub phases: Phases,
}

/// The full run result.
#[derive(Clone, Debug)]
pub struct TailAnatomyResult {
    /// Measured closed-loop capacity, requests/s of virtual time.
    pub capacity_rps: f64,
    /// Arrivals offered during the load phase.
    pub offered: u64,
    /// Requests served (non-SHED reply received).
    pub served: u64,
    /// `SHED` fast-rejects observed by the client.
    pub shed: u64,
    /// Requests concluded client-side as timed out.
    pub timed_out: u64,
    /// Client retransmissions.
    pub retries: u64,
    /// Mean backlog sojourn of shed entries (from `BacklogShed` events).
    pub shed_sojourn_mean_ns: u64,
    /// Exemplar rows at p50 / p99 / p99.9, ascending.
    pub rows: Vec<QuantileRow>,
    /// Full per-request timelines for the exemplar rows' ids.
    pub timelines: HashMap<u32, Vec<FlightRecord>>,
    /// `(value, req_id)` exemplars from the e2e latency histogram.
    pub exemplars: Vec<(u64, u64)>,
}

/// Runs the harness: measures capacity, offers `multiplier ×` that rate
/// with faults armed and the flight recorder installed end to end, and
/// decomposes the tail. `tele` receives the `kv.client.e2e_latency_ns`
/// histogram (with exemplars) alongside the full datapath metrics.
pub fn run_anatomy(params: &TailAnatomyParams, tele: &Telemetry) -> TailAnatomyResult {
    let (load, shard) = (&params.load, derated_shard());
    let capacity_rps = measure_capacity(load, &shard);

    let mut rig = Rig::new(load, &shard, Some(0x7A11));
    let _faults = rig
        .server
        .install_faults(FaultPlan::seeded(0xFA17).with_drop(params.drop_prob));
    // One recorder shared by every machine: client, shards, and the
    // server NIC interleave into a single per-request timeline.
    rig.flight = FlightRecorder::with_capacity(params.flight_capacity);
    rig.client.set_telemetry(&tele.with_flight(&rig.flight));
    rig.server
        .set_telemetry(&Telemetry::disabled().with_flight(&rig.flight));
    let e2e_hist = tele.histogram("kv.client.e2e_latency_ns");

    // Poll the server to the wall clock — the load generator's machine
    // clock — not the nominal slice edge: shard service clocks then track
    // the timebase the client stamps with, so admit/dispatch/reply anchors
    // land *after* the sends they answer instead of being clamped away by
    // skew. A shard whose backlog emptied mid-slice parks its clock where
    // service stopped; catch lagging clocks up to the previous wall first —
    // unused slice budget is idle time, not banked burst capacity.
    let mut prev_wall = 0u64;
    let run = rig.drive(load, capacity_rps, params.multiplier, |rig, slice_end| {
        for sim in rig.server.sims() {
            sim.clock().advance_to(prev_wall);
        }
        prev_wall = rig.client.stack.sim().now().max(slice_end);
        prev_wall
    });
    let events = &run.events;

    // Event-derived end-to-end latencies; exemplars link each histogram
    // magnitude bucket back to the slowest concrete request in it.
    let mut lats: Vec<(u64, u32, Phases)> = Vec::new();
    for &(id, _) in &run.served {
        if let Some((e2e, phases)) = events.get(&id).and_then(|evs| decompose(evs)) {
            e2e_hist.record_exemplar(e2e, u64::from(id));
            lats.push((e2e, id, phases));
        }
    }
    lats.sort_unstable_by_key(|&(e2e, id, _)| (e2e, id));

    let pick = |q: f64| -> Option<&(u64, u32, Phases)> {
        if lats.is_empty() {
            return None;
        }
        let idx = ((lats.len() - 1) as f64 * q).round() as usize;
        lats.get(idx)
    };
    let mut rows = Vec::new();
    for (label, q) in [("p50", 0.50), ("p99", 0.99), ("p99.9", 0.999)] {
        if let Some(&(e2e, id, phases)) = pick(q) {
            rows.push(QuantileRow {
                label,
                q,
                req_id: id,
                e2e_ns: e2e,
                phases,
            });
        }
    }
    let timelines: HashMap<u32, Vec<FlightRecord>> = rows
        .iter()
        .filter_map(|r| events.get(&r.req_id).map(|evs| (r.req_id, evs.clone())))
        .collect();

    let shed_sojourns: Vec<u64> = events
        .values()
        .flatten()
        .filter_map(|r| match r.event {
            FlightEvent::BacklogShed { sojourn_ns } => Some(sojourn_ns),
            _ => None,
        })
        .collect();
    let shed_sojourn_mean_ns = if shed_sojourns.is_empty() {
        0
    } else {
        shed_sojourns.iter().sum::<u64>() / shed_sojourns.len() as u64
    };

    TailAnatomyResult {
        capacity_rps,
        offered: run.offered,
        served: lats.len() as u64,
        shed: run.shed,
        timed_out: run.timed_out,
        retries: rig.client.retries_sent(),
        shed_sojourn_mean_ns,
        rows,
        timelines,
        exemplars: e2e_hist
            .exemplars()
            .into_iter()
            .map(|e| (e.value, e.req_id))
            .collect(),
    }
}

/// Runs the harness, prints the anatomy table, writes `tail_anatomy.json`
/// and the `tail_anatomy-metrics.json` snapshot.
pub fn run(params: &TailAnatomyParams) -> Value {
    let tele = Telemetry::new(cf_sim::Clock::new());
    let r = run_anatomy(params, &tele);
    let quantile = |row: &QuantileRow| {
        let p = &row.phases;
        let timeline = r.timelines.get(&row.req_id).map_or(&[][..], Vec::as_slice);
        Value::obj([
            ("quantile", text(row.label)),
            ("q", Value::Num(row.q)),
            ("req_id", int(row.req_id.into())),
            ("e2e_ns", int(row.e2e_ns)),
            ("phase_sum_ns", int(p.sum_ns())),
            (
                "phases",
                Value::obj([
                    ("retry_wait_ns", int(p.retry_wait_ns)),
                    ("queueing_ns", int(p.queueing_ns)),
                    ("sojourn_ns", int(p.sojourn_ns)),
                    ("service_ns", int(p.service_ns)),
                    ("wire_ns", int(p.wire_ns)),
                ]),
            ),
            ("timeline", list(timeline, FlightRecord::to_value)),
        ])
    };
    let exemplar = |&(value, req_id): &(u64, u64)| {
        Value::obj([("value", int(value)), ("req_id", int(req_id))])
    };
    let tree = Value::obj([
        ("experiment", text("tail_anatomy")),
        (
            "params",
            Value::obj([
                ("load", params.load.tree()),
                ("multiplier", Value::Num(params.multiplier)),
                ("drop_prob", Value::Num(params.drop_prob)),
                ("flight_capacity", int(params.flight_capacity as u64)),
            ]),
        ),
        ("capacity_rps", fixed(r.capacity_rps, 1)),
        ("offered", int(r.offered)),
        ("served", int(r.served)),
        ("shed", int(r.shed)),
        ("timed_out", int(r.timed_out)),
        ("retries", int(r.retries)),
        ("shed_sojourn_mean_ns", int(r.shed_sojourn_mean_ns)),
        ("quantiles", list(&r.rows, quantile)),
        ("exemplars", list(&r.exemplars, exemplar)),
    ]);
    print_rows(
        &format!(
            "Tail anatomy at {:.1}x capacity ({:.0} krps): where the time goes (ns)",
            params.multiplier,
            r.capacity_rps / 1e3
        ),
        &tree,
        "quantiles[quantile]",
        &[
            "req_id",
            "e2e_ns",
            "phases.retry_wait_ns",
            "phases.queueing_ns",
            "phases.sojourn_ns",
            "phases.service_ns",
            "phases.wire_ns",
        ],
    );
    write_artifact("tail_anatomy.json", &tree.render());
    write_artifact("tail_anatomy-metrics.json", &tele.snapshot_json());
    tree
}

/// What `BENCH_tail_anatomy.json` is held to (see [`crate::ratchet`];
/// spreads are five full-preset runs, EXPERIMENTS.md "Artifacts and
/// ratchet"). The quantiles' request ids, phases and timelines are recorded
/// and not gated: several requests share a latency to the nanosecond, and
/// which of them sorts into the quantile's slot changes run to run.
/// `offered` is recorded and not gated: it is derived from `capacity_rps`.
pub const RULES: &[Rule] = &[
    // The closed-loop probe: virtual time, so it follows heap layout.
    Rule("capacity_rps", Gate::Higher(0.03)),
    // Repeated exactly in five runs.
    Rule("served", Gate::Higher(0.03)),
    Rule("retries", Gate::Lower(0.03)),
    // Spread 0.002 %.
    Rule("quantiles[quantile].e2e_ns", Gate::Lower(0.03)),
];

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::Clock;

    fn test_params() -> TailAnatomyParams {
        let mut params = TailAnatomyParams::quick();
        params.load.num_keys = 128;
        params.load.probe_requests = 600;
        params.load.duration_ns = 600_000;
        params
    }

    #[test]
    fn decompose_telescopes_to_e2e() {
        use FlightEvent::*;
        let mk = |req_id, ts_ns, event| FlightRecord {
            req_id,
            ts_ns,
            event,
        };
        let evs = vec![
            mk(5, 100, ClientSend),
            mk(
                5,
                1_100,
                ClientRetry {
                    attempt: 1,
                    backoff_ns: 1_000,
                },
            ),
            mk(5, 1_150, BacklogAdmit { backlog: 7 }),
            mk(5, 1_400, ShardDispatch { shard: 1 }),
            mk(5, 1_900, Reply { flags: 0 }),
            mk(5, 2_300, ClientRecv { flags: 0 }),
        ];
        let (e2e, p) = decompose(&evs).expect("completed request");
        assert_eq!(e2e, 2_200);
        assert_eq!(p.retry_wait_ns, 1_000);
        assert_eq!(p.queueing_ns, 50);
        assert_eq!(p.sojourn_ns, 250);
        assert_eq!(p.service_ns, 500);
        assert_eq!(p.wire_ns, 400);
        assert_eq!(p.sum_ns(), e2e, "phases telescope exactly");

        // A missing anchor collapses its phase to zero; the sum still
        // telescopes.
        let evs = vec![mk(6, 10, ClientSend), mk(6, 90, ClientRecv { flags: 0 })];
        let (e2e, p) = decompose(&evs).expect("completed");
        assert_eq!((e2e, p.sum_ns()), (80, 80));
        assert_eq!(p.wire_ns, 80, "everything lands in the last phase");

        // Incomplete timelines are rejected.
        assert!(decompose(&[mk(7, 10, ClientSend)]).is_none());
        assert!(decompose(&[]).is_none());
    }

    #[test]
    fn phase_sums_match_e2e_within_two_percent() {
        let tele = Telemetry::new(Clock::new());
        let r = run_anatomy(&test_params(), &tele);
        assert!(r.served > 0, "overloaded run still serves requests");
        assert!(!r.rows.is_empty(), "quantile rows produced");
        for row in &r.rows {
            let sum = row.phases.sum_ns();
            let err = sum.abs_diff(row.e2e_ns) as f64;
            assert!(
                err <= (row.e2e_ns as f64 * 0.02).max(1.0),
                "{}: phase sum {} vs e2e {} (err {:.1}%)",
                row.label,
                sum,
                row.e2e_ns,
                err / row.e2e_ns.max(1) as f64 * 100.0
            );
        }
        // The tail is ordered and each exemplar has a full timeline.
        for w in r.rows.windows(2) {
            assert!(w[0].e2e_ns <= w[1].e2e_ns, "quantiles ascend");
        }
        for row in &r.rows {
            let tl = r.timelines.get(&row.req_id).expect("timeline retained");
            assert!(
                tl.iter()
                    .any(|e| matches!(e.event, FlightEvent::ClientRecv { .. })),
                "timeline reaches the client"
            );
        }
    }

    #[test]
    fn histogram_exemplars_link_to_recorded_timelines() {
        let tele = Telemetry::new(Clock::new());
        let r = run_anatomy(&test_params(), &tele);
        assert!(!r.exemplars.is_empty(), "exemplars recorded");
        let p99_row = r.rows.iter().find(|row| row.label == "p99").unwrap();
        let hist = tele.histogram("kv.client.e2e_latency_ns");
        let ex = hist
            .exemplar_for(p99_row.e2e_ns)
            .expect("an exemplar covers the p99 magnitude");
        assert!(
            ex.value >= p99_row.e2e_ns,
            "exemplar is the bucket max at or above the quantile"
        );
    }

    #[test]
    fn artifact_is_complete_and_gates_itself() {
        let tree = run(&test_params());
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let quantiles = tree.get("quantiles").unwrap().as_arr().unwrap();
        assert_eq!(quantiles.len(), 3);
        for q in quantiles {
            let e2e = q.get("e2e_ns").unwrap().as_u64().unwrap();
            let sum = q.get("phase_sum_ns").unwrap().as_u64().unwrap();
            assert!(sum.abs_diff(e2e) as f64 <= (e2e as f64 * 0.02).max(1.0));
            assert!(
                !q.get("timeline").unwrap().as_arr().unwrap().is_empty(),
                "each quantile carries its exemplar timeline"
            );
        }
        assert!(!tree.get("exemplars").unwrap().as_arr().unwrap().is_empty());
    }
}
