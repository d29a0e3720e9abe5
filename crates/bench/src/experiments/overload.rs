//! Goodput under overload: offered load swept past saturation, with and
//! without the overload-control stack.
//!
//! The fixture is the rig's steered multi-queue sharded server
//! ([`crate::harness::sharded`]), as in the scaling experiment. A
//! slice-based open-loop harness offers load at a multiple of the
//! *measured* closed-loop capacity (0.5×–4×) for a fixed virtual duration,
//! then drains. Each shard serves only while its own clock is
//! behind the harness arrival clock, so offered load above capacity builds
//! a real backlog instead of being absorbed by closed-loop pacing.
//!
//! - **Control on**: server-side admission (bounded backlog + CoDel
//!   sojourn shedding + bounded NIC rx rings, GET priority) and
//!   client-side protection (retry budget + breaker + jittered backoff).
//! - **Control off**: unbounded rx staging, FIFO service, naive
//!   exponential-backoff retries.
//!
//! Goodput counts replies that arrive within the SLO
//! ([`OpenLoopParams::slo_ns`]) and were actually served (`SHED`
//! fast-rejects are not goodput — but they cost almost nothing and keep
//! latency bounded). The artifact (`overload.json`) shows goodput holding
//! within ~15 % of peak past saturation with control on, and collapsing —
//! or p99 inflating by ≥2× — with control off.
//!
//! The rig ([`Rig`]), the capacity probe ([`measure_capacity`]) and the
//! open-loop driver ([`Rig::drive`]) are also what `tail_anatomy` runs; the
//! two differ in the shard profile, the wire faults, the flight recorder
//! and the clock the server is polled to, and pass those in.
//!
//! What repeats run to run: nothing to the bit. Virtual time follows real
//! heap addresses (see `churn`), so the capacity probe repeats to ~0.01 %
//! (a change that only resized allocations moved it by −0.007 %), and
//! `offered`, ⌈duration × capacity × multiplier⌉, moves with it by an
//! arrival or three. Past saturation the client retries and a retry's
//! timing follows virtual time too, so goodput repeats to ~1 %, the median
//! to ~2 % and the p99 to ~6 %.

use cf_sim::rng::SplitMix64;
use cf_sim::MachineProfile;
use cf_telemetry::json::Value;
use cf_telemetry::{FlightRecord, FlightRecorder};

use cf_kv::client::{KvClient, RetryConfig};
use cf_kv::flags;
use cf_kv::overload::AdmissionConfig;
use cf_kv::sharded::ShardedKvServer;
use cf_workloads::key_string;

use crate::artifacts::{fixed, int, list, text, write_artifact};
use crate::harness::{quantile, saturate, sharded};
use crate::ratchet::{Gate, Rule};
use crate::tables::print_rows;

/// What an open-loop experiment fixes about its rig and load.
#[derive(Clone, Debug)]
pub struct OpenLoopParams {
    /// Shard (= NIC queue) count.
    pub queues: usize,
    /// Distinct keys, preloaded and uniformly addressed (uniform keys keep
    /// the shards balanced so the sweep measures overload, not skew).
    pub num_keys: u64,
    /// Closed-loop requests used to measure capacity.
    pub probe_requests: u64,
    /// Virtual time the open-loop load is offered for, per point.
    pub duration_ns: u64,
    /// Harness slice: arrivals are generated and the server served in
    /// slices of this many virtual nanoseconds.
    pub slice_ns: u64,
    /// Reply-latency SLO: completions slower than this are not goodput.
    /// Also the client's retry deadline and twice the CoDel sojourn target.
    pub slo_ns: u64,
    /// PUT fraction (the rest are GETs), exercising GET priority.
    pub put_fraction: f64,
}

impl OpenLoopParams {
    /// Full preset: 2 shards, 3 ms of load in 50 µs slices, 1 ms SLO.
    pub fn full() -> Self {
        OpenLoopParams {
            queues: 2,
            num_keys: 1024,
            probe_requests: 3_000,
            duration_ns: 3_000_000,
            slice_ns: 50_000,
            slo_ns: 1_000_000,
            put_fraction: 0.1,
        }
    }

    /// The `load` member of an open-loop artifact's `params`.
    pub fn tree(&self) -> Value {
        Value::obj([
            ("queues", int(self.queues as u64)),
            ("num_keys", int(self.num_keys)),
            ("probe_requests", int(self.probe_requests)),
            ("duration_ns", int(self.duration_ns)),
            ("slice_ns", int(self.slice_ns)),
            ("slo_ns", int(self.slo_ns)),
            ("put_fraction", Value::Num(self.put_fraction)),
        ])
    }
}

/// Sweep knobs.
#[derive(Clone, Debug)]
pub struct OverloadParams {
    /// The rig and the load offered at each point.
    pub load: OpenLoopParams,
    /// Offered-load multipliers applied to the measured capacity.
    pub multipliers: Vec<f64>,
}

impl OverloadParams {
    /// Full sweep: 0.5×–4×.
    pub fn full() -> Self {
        OverloadParams {
            load: OpenLoopParams::full(),
            multipliers: vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0],
        }
    }
}

/// Measures closed-loop capacity (requests/s of virtual time) of the
/// sharded fixture on `shard_profile`: the rig's burst loop
/// ([`saturate`]) over uniform GETs.
pub fn measure_capacity(load: &OpenLoopParams, shard_profile: &MachineProfile) -> f64 {
    let (mut client, mut server) = sharded(shard_profile, load.queues, load.num_keys, |_| 1024);
    let mut rng = SplitMix64::new(0xCAFE);
    let makespan = saturate(&mut client, &mut server, load.probe_requests, |client| {
        let key = key_string(rng.next_bounded(load.num_keys));
        client.send_get(&[key.as_bytes()]);
    });
    server.total_requests() as f64 / makespan as f64 * 1e9
}

/// The steered client and sharded server an open-loop run drives.
pub struct Rig {
    /// The load generator (its machine clock is the run's wall clock).
    pub client: KvClient,
    /// One shard per NIC queue, each a core of its own.
    pub server: ShardedKvServer,
    /// Shared by every machine once installed; drained every slice.
    pub flight: FlightRecorder,
}

/// What one open-loop run saw.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Arrivals offered during the load phase.
    pub offered: u64,
    /// `SHED` fast-rejects observed by the client.
    pub shed: u64,
    /// Requests concluded client-side as timed out.
    pub timed_out: u64,
    /// Per served (non-`SHED`) reply: request id, and the time from the
    /// instant it was offered to the slice edge its reply was collected at.
    pub served: Vec<(u32, u64)>,
    /// Every flight record of the run, indexed by request id (empty unless
    /// [`Rig::flight`] is enabled).
    pub events: Vec<Vec<FlightRecord>>,
}

impl Rig {
    /// Builds the sharded fixture on `shard_profile` and configures the
    /// arm. `control: Some(jitter_seed)` is the overload-control stack:
    /// server-side admission, and client retries under a budget, a breaker
    /// and seeded jitter. `None` is what a system has before it grows one:
    /// unbounded FIFO service and naive exponential-backoff retries.
    pub fn new(load: &OpenLoopParams, shard_profile: &MachineProfile, control: Option<u64>) -> Rig {
        let (mut client, mut server) = sharded(shard_profile, load.queues, load.num_keys, |_| 1024);
        if control.is_some() {
            // The bounded NIC ring is the primary steady-state shedder: like
            // hardware ring overflow, a tail drop there costs zero CPU. A
            // deeper backlog with sojourn shedding retains less goodput, not
            // more — every frame that crosses rx pays full ingest cost, so
            // shedding it afterwards wastes work the ring rejects for free.
            // The CoDel layer guards the *transition* (admitted entries aged
            // past patience by a service stall), not sustained excess.
            server.enable_admission(AdmissionConfig {
                target_sojourn_ns: load.slo_ns / 2,
                ..AdmissionConfig::default()
            });
            client.enable_protection();
        }
        client.enable_retries(RetryConfig {
            timeout_ns: load.slo_ns,
            max_retries: 2,
            max_backoff_ns: if control.is_some() {
                4 * load.slo_ns
            } else {
                0
            },
            jitter_seed: control,
        });
        Rig {
            client,
            server,
            flight: FlightRecorder::disabled(),
        }
    }

    /// Offers `multiplier × capacity_rps` for `load.duration_ns` in slices
    /// of `load.slice_ns`, then drains (bounded, so a pathological arm
    /// still terminates). Each send is paced to its arrival instant on the
    /// client clock; if send-side work outruns the pace the clock drifts
    /// ahead and arrivals go out back-to-back at client capacity. Once per
    /// slice the server is polled to `serve_clock(rig, slice_end)` — each
    /// shard serves only until that instant — replies and timers are
    /// collected at the slice end, and the flight ring is drained so it
    /// never overwrites.
    pub fn drive(
        &mut self,
        load: &OpenLoopParams,
        capacity_rps: f64,
        multiplier: f64,
        mut serve_clock: impl FnMut(&Rig, u64) -> u64,
    ) -> OpenLoopRun {
        let mut rng = SplitMix64::new(0xD15EA5E ^ multiplier.to_bits());
        let interarrival = 1e9 / (capacity_rps * multiplier);
        let put_scratch = vec![0xB0u8; 1024];
        let client_clock = self.client.stack.sim().clock();

        let mut run = OpenLoopRun::default();
        // When each request still awaiting its conclusion was offered, by
        // request id (the client numbers them densely from 1).
        let mut offered_at: Vec<Option<u64>> = Vec::new();
        let mut awaiting = 0usize;
        let mut next_arrival = 0.0f64;
        let mut t = 0u64;
        let drain_deadline = load.duration_ns.saturating_mul(8);
        loop {
            let t_next = t + load.slice_ns;
            while next_arrival < t_next as f64 && (next_arrival as u64) < load.duration_ns {
                client_clock.advance_to(next_arrival as u64);
                let key = key_string(rng.next_bounded(load.num_keys));
                let id = if rng.next_f64() < load.put_fraction {
                    self.client.send_put(key.as_bytes(), &put_scratch)
                } else {
                    self.client.send_get(&[key.as_bytes()])
                };
                let id = id as usize;
                if offered_at.len() <= id {
                    offered_at.resize(id + 1, None);
                    run.events.resize_with(id + 1, Vec::new);
                }
                offered_at[id] = Some(next_arrival as u64);
                awaiting += 1;
                run.offered += 1;
                next_arrival += interarrival;
            }
            let until = serve_clock(self, t_next);
            self.server.poll_until(until, until);
            // Collect replies and fire timers on the advanced client clock.
            client_clock.advance_to(t_next);
            let mut conclude = |id: u32| {
                let at = offered_at.get_mut(id as usize)?.take()?;
                awaiting -= 1;
                Some(at)
            };
            while let Some(resp) = self.client.recv_response() {
                let Some(id) = resp.id else { continue };
                let Some(at) = conclude(id) else { continue };
                if resp.flags & flags::SHED != 0 {
                    run.shed += 1;
                } else {
                    run.served.push((id, t_next.saturating_sub(at)));
                }
            }
            for id in self.client.poll_timers() {
                if conclude(id).is_some() {
                    run.timed_out += 1;
                }
            }
            for rec in self.flight.drain() {
                if let Some(events) = run.events.get_mut(rec.req_id as usize) {
                    events.push(rec);
                }
            }
            t = t_next;
            let loading = t < load.duration_ns;
            let draining = awaiting > 0 || self.server.backlog_len() > 0;
            if !loading && (!draining || t >= drain_deadline) {
                return run;
            }
        }
    }
}

/// Runs one (multiplier, control) point against `capacity_rps` and returns
/// its `points` row.
fn point(load: &OpenLoopParams, capacity_rps: f64, multiplier: f64, control: bool) -> Value {
    let jitter_seed = control.then_some(0x5EED ^ multiplier.to_bits());
    let mut rig = Rig::new(load, &MachineProfile::microbench(), jitter_seed);
    // Shards serve to the nominal slice edge: one client machine cannot
    // offer 4x this fixture's capacity in coherent time, so the arrival
    // clock is the harness's, not the client's.
    let run = rig.drive(load, capacity_rps, multiplier, |_, slice_end| slice_end);

    let mut latencies: Vec<u64> = run.served.iter().map(|&(_, waited)| waited).collect();
    latencies.sort_unstable();
    let pick = |q| int(quantile(&latencies, q).copied().unwrap_or(0));
    let good = latencies.iter().filter(|&&l| l <= load.slo_ns).count() as u64;
    Value::obj([
        ("multiplier", Value::Num(multiplier)),
        ("control", Value::Bool(control)),
        ("offered", int(run.offered)),
        ("good", int(good)),
        // Kilo-requests/s of virtual time over the load phase.
        (
            "goodput_krps",
            fixed(good as f64 / load.duration_ns as f64 * 1e6, 3),
        ),
        ("p50_ns", pick(0.50)),
        ("p99_ns", pick(0.99)),
        ("shed", int(run.shed)),
        ("timed_out", int(run.timed_out)),
        ("retries", int(rig.client.retries_sent())),
        // Frames tail-dropped by the bounded NIC rx rings (control on only).
        ("rx_dropped", int(rig.server.rx_backlog_drops())),
    ])
}

/// Runs the sweep — measure capacity once, then every multiplier with
/// control on and off — prints the table, writes `overload.json`.
pub fn run(params: &OverloadParams) -> Value {
    let load = &params.load;
    let capacity_rps = measure_capacity(load, &MachineProfile::microbench());
    let points = params
        .multipliers
        .iter()
        .flat_map(|&m| [true, false].map(|control| point(load, capacity_rps, m, control)));
    let tree = Value::obj([
        ("experiment", text("overload")),
        (
            "params",
            Value::obj([
                ("load", load.tree()),
                ("multipliers", list(&params.multipliers, |&m| Value::Num(m))),
            ]),
        ),
        ("capacity_rps", fixed(capacity_rps, 1)),
        ("points", Value::Arr(points.collect())),
    ]);
    print_rows(
        &format!(
            "Overload: goodput vs offered load (capacity {:.0} krps)",
            capacity_rps / 1e3
        ),
        &tree,
        "points[multiplier,control]",
        &[
            "goodput_krps",
            "p50_ns",
            "p99_ns",
            "shed",
            "timed_out",
            "retries",
            "rx_dropped",
        ],
    );
    write_artifact("overload.json", &tree.render());
    tree
}

/// What `BENCH_overload.json` is held to (see [`crate::ratchet`]; spreads
/// are five full-preset runs, EXPERIMENTS.md "Artifacts and ratchet").
/// `p99_ns`, `timed_out` and `shed` are recorded and not gated: past
/// saturation they hang on a handful of retries and spread 6 %, 8 % and
/// 150 %, so a bound three spreads wide would let a tenth through.
/// `offered` is recorded and not gated: it is derived from `capacity_rps`.
pub const RULES: &[Rule] = &[
    // The closed-loop probe: virtual time, so it follows heap layout
    // (−0.007 % seen).
    Rule("capacity_rps", Gate::Higher(0.03)),
    // Spread at most 1.1 % (3x, control off).
    Rule(
        "points[multiplier,control].goodput_krps",
        Gate::Higher(0.05),
    ),
    // Spread at most 2.3 % (1.5x, control off).
    Rule("points[multiplier,control].p50_ns", Gate::Lower(0.08)),
    // Spread at most 0.3 %; exactly 0 below saturation, where any retry is
    // a regression.
    Rule("points[multiplier,control].retries", Gate::Lower(0.03)),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{number, select};

    /// The full preset at a fraction of its volume.
    fn small(multipliers: &[f64]) -> OverloadParams {
        let mut params = OverloadParams::full();
        params.load.num_keys = 256;
        params.load.probe_requests = 1_200;
        params.load.duration_ns = 1_200_000;
        params.multipliers = multipliers.to_vec();
        params
    }

    #[test]
    fn controlled_goodput_holds_past_saturation_and_uncontrolled_degrades() {
        let tree = run(&small(&[0.5, 1.0, 2.0, 4.0]));
        let points = tree.get("points").and_then(Value::as_arr).expect("points");
        let arm = |control: bool| {
            let on_arm = move |p: &&Value| p.get("control") == Some(&Value::Bool(control));
            points.iter().filter(on_arm)
        };
        let peak = |control| {
            arm(control)
                .map(|p| number(p, "goodput_krps"))
                .fold(0.0, f64::max)
        };
        let at = |control, m| arm(control).find(|p| number(p, "multiplier") == m).unwrap();
        let peak_on = peak(true);
        assert!(peak_on > 0.0, "controlled arm serves traffic");

        // With control on, goodput at every post-saturation multiplier
        // stays within 15% of the arm's peak.
        for p in arm(true).filter(|p| number(p, "multiplier") >= 2.0) {
            assert!(
                number(p, "goodput_krps") >= peak_on * 0.85,
                "controlled goodput retained at {}x: {:.1} vs peak {:.1}",
                number(p, "multiplier"),
                number(p, "goodput_krps"),
                peak_on
            );
        }
        // The admission layer is actually doing the work: past saturation
        // it sheds and/or tail-drops rather than queueing unboundedly.
        let at4_on = at(true, 4.0);
        assert!(
            number(at4_on, "shed") + number(at4_on, "rx_dropped") + number(at4_on, "timed_out")
                > 0.0,
            "overload must be rejected somewhere, not absorbed"
        );

        // Without control the system degrades past saturation: goodput
        // collapses below 50% of its peak, or p99 inflates >= 2x vs 1x.
        let peak_off = peak(false);
        let (at4_off, at1_off) = (at(false, 4.0), at(false, 1.0));
        let collapsed = number(at4_off, "goodput_krps") < peak_off * 0.5;
        let inflated = number(at4_off, "p99_ns") >= 2.0 * number(at1_off, "p99_ns").max(1.0);
        assert!(
            collapsed || inflated,
            "uncontrolled arm must collapse or inflate: goodput {:.1} (peak {:.1}), p99 {} vs {}",
            number(at4_off, "goodput_krps"),
            peak_off,
            number(at4_off, "p99_ns"),
            number(at1_off, "p99_ns")
        );
    }

    #[test]
    fn artifact_records_its_parameters_and_gates_itself() {
        let mut params = small(&[0.5, 2.0]);
        params.load.probe_requests = 400;
        params.load.duration_ns = 400_000;
        let tree = run(&params);
        crate::ratchet::assert_gates_itself(RULES, &tree);
        assert_eq!(number(&tree, "params.load.duration_ns"), 400_000.0);
        // `offered` is ⌈duration × capacity × multiplier⌉, give or take the
        // one arrival floating-point pacing can add or drop.
        let capacity = number(&tree, "capacity_rps");
        for p in tree.get("points").and_then(Value::as_arr).expect("points") {
            let (m, offered) = (number(p, "multiplier"), number(p, "offered"));
            let derived = (400_000.0 * capacity * m / 1e9).ceil();
            assert!(
                (offered - derived).abs() <= 1.0,
                "{m}x: offered {offered}, derived {derived}"
            );
        }
        let rows = select(&tree, "points[multiplier,control].retries");
        let labels: Vec<&str> = rows.iter().map(|(row, _)| row.as_str()).collect();
        assert_eq!(
            labels,
            [
                "points[0.5,true].",
                "points[0.5,false].",
                "points[2,true].",
                "points[2,false]."
            ]
        );
    }
}
