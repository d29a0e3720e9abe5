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

use cf_nic::FaultPlan;
use cf_sim::MachineProfile;
use cf_telemetry::json::Value;
use cf_telemetry::{FlightEvent, FlightRecord, FlightRecorder, Telemetry};

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::experiments::overload::{measure_capacity, OpenLoopParams, Rig};
use crate::harness::quantile;
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

/// Harness knobs.
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

/// Runs the harness: measures capacity, offers `multiplier ×` that rate
/// with faults armed and the flight recorder installed end to end, and
/// decomposes the tail. Returns the artifact tree, the rig it ran on, and
/// the client machine's telemetry: the `kv.client.e2e_latency_ns` histogram
/// (with exemplars) alongside the full datapath metrics.
fn anatomy(params: &TailAnatomyParams) -> (Value, Rig, Telemetry) {
    let (load, shard) = (&params.load, derated_shard());
    let capacity_rps = measure_capacity(load, &shard);

    let mut rig = Rig::new(load, &shard, Some(0x7A11));
    let _faults = rig
        .server
        .install_faults(FaultPlan::seeded(0xFA17).with_drop(params.drop_prob));
    // One recorder shared by every machine: client, shards, and the
    // server NIC interleave into a single per-request timeline.
    rig.flight = FlightRecorder::with_capacity(params.flight_capacity);
    let tele = Telemetry::attach(rig.client.stack.sim());
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
    let timeline = |id: u32| run.events.get(id as usize).map_or(&[][..], Vec::as_slice);

    // Event-derived end-to-end latencies; exemplars link each histogram
    // magnitude bucket back to the slowest concrete request in it.
    let mut lats: Vec<(u64, u32, Phases)> = Vec::new();
    for &(id, _) in &run.served {
        if let Some((e2e, phases)) = decompose(timeline(id)) {
            e2e_hist.record_exemplar(e2e, u64::from(id));
            lats.push((e2e, id, phases));
        }
    }
    lats.sort_unstable_by_key(|&(e2e, id, _)| (e2e, id));

    // The concrete request at each quantile, its breakdown and timeline.
    let row = |(label, q): (&str, f64)| {
        let &(e2e, id, p) = quantile(&lats, q)?;
        Some(Value::obj([
            ("quantile", text(label)),
            ("q", Value::Num(q)),
            ("req_id", int(id.into())),
            ("e2e_ns", int(e2e)),
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
            ("timeline", list(timeline(id), FlightRecord::to_value)),
        ]))
    };
    let quantiles = [("p50", 0.50), ("p99", 0.99), ("p99.9", 0.999)];

    // Mean backlog sojourn of shed entries.
    let shed_sojourns: Vec<u64> = run
        .events
        .iter()
        .flatten()
        .filter_map(|r| match r.event {
            FlightEvent::BacklogShed { sojourn_ns } => Some(sojourn_ns),
            _ => None,
        })
        .collect();
    let shed_sojourn_mean_ns = match shed_sojourns.len() as u64 {
        0 => 0,
        n => shed_sojourns.iter().sum::<u64>() / n,
    };
    let exemplar = |e: cf_telemetry::metrics::Exemplar| {
        Value::obj([("value", int(e.value)), ("req_id", int(e.req_id))])
    };

    let tree = Value::obj([
        ("experiment", text("tail_anatomy")),
        (
            "params",
            Value::obj([
                ("load", load.tree()),
                ("multiplier", Value::Num(params.multiplier)),
                ("drop_prob", Value::Num(params.drop_prob)),
                ("flight_capacity", int(params.flight_capacity as u64)),
            ]),
        ),
        ("capacity_rps", fixed(capacity_rps, 1)),
        ("offered", int(run.offered)),
        // Requests served (non-SHED reply received).
        ("served", int(lats.len() as u64)),
        ("shed", int(run.shed)),
        ("timed_out", int(run.timed_out)),
        ("retries", int(rig.client.retries_sent())),
        ("shed_sojourn_mean_ns", int(shed_sojourn_mean_ns)),
        (
            "quantiles",
            Value::Arr(quantiles.into_iter().filter_map(row).collect()),
        ),
        ("exemplars", list(e2e_hist.exemplars(), exemplar)),
    ]);
    (tree, rig, tele)
}

/// Runs the harness, prints the anatomy table, writes `tail_anatomy.json`
/// and the `tail_anatomy-metrics.json` snapshot.
pub fn run(params: &TailAnatomyParams) -> Value {
    let (tree, _, tele) = anatomy(params);
    let capacity_rps = tree.get("capacity_rps").and_then(Value::as_f64);
    print_rows(
        &format!(
            "Tail anatomy at {:.1}x capacity ({:.0} krps): where the time goes (ns)",
            params.multiplier,
            capacity_rps.unwrap_or(0.0) / 1e3
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
    use crate::artifacts::{number, select, snapshot_now_ns};

    /// The full preset at a fraction of its volume.
    fn test_params() -> TailAnatomyParams {
        let mut params = TailAnatomyParams::full();
        params.load.num_keys = 128;
        params.load.probe_requests = 600;
        params.load.duration_ns = 600_000;
        params
    }

    /// The `quantiles` rows of a result tree.
    fn quantiles(tree: &Value) -> &[Value] {
        tree.get("quantiles")
            .and_then(Value::as_arr)
            .expect("quantiles")
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
        let (tree, _, _) = anatomy(&test_params());
        assert!(
            number(&tree, "served") > 0.0,
            "overloaded run still serves requests"
        );
        let rows = quantiles(&tree);
        assert!(!rows.is_empty(), "quantile rows produced");
        for row in rows {
            let (e2e, sum) = (number(row, "e2e_ns"), number(row, "phase_sum_ns"));
            let err = (sum - e2e).abs();
            assert!(
                err <= (e2e * 0.02).max(1.0),
                "{}: phase sum {sum} vs e2e {e2e} (err {:.1}%)",
                number(row, "q"),
                err / e2e.max(1.0) * 100.0
            );
        }
        // The tail is ordered and each exemplar has a full timeline.
        for w in rows.windows(2) {
            assert!(
                number(&w[0], "e2e_ns") <= number(&w[1], "e2e_ns"),
                "quantiles ascend"
            );
        }
        for row in rows {
            let events = select(row, "timeline[event].event");
            assert!(
                events.iter().any(|(_, e)| *e == Some(&text("client_recv"))),
                "timeline reaches the client: {events:?}"
            );
        }
    }

    #[test]
    fn histogram_exemplars_link_to_recorded_timelines() {
        let (tree, _, tele) = anatomy(&test_params());
        assert!(
            !select(&tree, "exemplars[req_id].value").is_empty(),
            "exemplars recorded"
        );
        let p99 = select(&tree, "quantiles[quantile].e2e_ns")
            .into_iter()
            .find(|(row, _)| row == "quantiles[p99].")
            .and_then(|(_, v)| v?.as_u64())
            .expect("a p99 row");
        let hist = tele.histogram("kv.client.e2e_latency_ns");
        let ex = hist
            .exemplar_for(p99)
            .expect("an exemplar covers the p99 magnitude");
        assert!(
            ex.value >= p99,
            "exemplar is the bucket max at or above the quantile"
        );
    }

    #[test]
    fn metrics_snapshot_reads_the_client_clock() {
        let (_, rig, tele) = anatomy(&test_params());
        let end = rig.client.stack.sim().now();
        assert!(
            end >= test_params().load.duration_ns,
            "the run took {end} ns"
        );
        assert_eq!(snapshot_now_ns(&tele), end);
    }

    #[test]
    fn artifact_is_complete_and_gates_itself() {
        let tree = run(&test_params());
        crate::ratchet::assert_gates_itself(RULES, &tree);
        let quantiles = quantiles(&tree);
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
