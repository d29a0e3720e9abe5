//! The three measured phases of a workload, all with tracing off:
//!
//! - **host** — closed loop, one client, one outstanding request, timed on
//!   the host clock in batches;
//! - **virtual saturation** — back-to-back requests, each one's service
//!   time on the server's virtual clock;
//! - **virtual open loop** — Poisson arrivals on the virtual clock queue
//!   for those service times at pinned rates, and a bisection finds the
//!   highest rate that still meets the workload's p99 limit.
//!
//! The open-loop generator runs in virtual time: an arrival is a number,
//! not a wake-up, so the generator is never late and there is no
//! coordinated omission to correct for.

use std::time::{Duration, Instant};

use cf_sim::rng::SplitMix64;
use cf_telemetry::alloc_count;

use crate::fixture::{Fixture, NoProbe, Probe};
use crate::reference::{Reference, REFERENCE_NS};
use crate::stats;
use crate::stream::Workload;

/// Shortest timed batch: long enough that one `Instant` pair and a timer
/// interrupt or two disappear in it.
pub const MIN_BATCH: Duration = Duration::from_millis(20);
/// Fewest timed batches per kind, whatever `--seconds` says.
pub const MIN_BATCHES: usize = 10;
/// Utilisation (offered rate × mean service time) a stable point stays
/// under.
pub const MAX_UTILISATION: f64 = 0.97;
/// Share of the offered rate a stable point must achieve.
pub const MIN_ACHIEVED: f64 = 0.97;
/// Bisection steps for the rate at the latency limit: the bracket is
/// `[0, 4 × rate_mid]`, so twelve steps resolve 0.1 % of `rate_mid`.
pub const BISECTION_STEPS: usize = 12;
/// Poisson arrivals per open-loop point at [`crate::spec::RUN_SECONDS`].
pub const ARRIVALS: u64 = 4_000_000;

/// Per-batch host ns/req of one kind, with the heap acquisitions counted
/// over the same batches.
#[derive(Clone, Debug, Default)]
pub struct BatchSeries {
    /// ns per verified round trip, one entry per timed batch.
    pub ns_per_req: Vec<f64>,
    /// The same at reference speed (see [`crate::reference`]); filled by
    /// [`host_phase`] only.
    pub at_reference_speed: Vec<f64>,
    /// Round trips timed.
    pub requests: u64,
    /// Heap acquisitions during the timed batches.
    pub allocs: u64,
}

impl BatchSeries {
    /// Median of the per-batch ns/req, as timed.
    pub fn median(&self) -> f64 {
        stats::median(&self.ns_per_req)
    }

    /// Median of the per-batch ns/req at reference speed.
    pub fn median_at_reference_speed(&self) -> f64 {
        stats::median(&self.at_reference_speed)
    }

    /// Heap acquisitions per round trip.
    pub fn allocs_per_req(&self) -> f64 {
        self.allocs as f64 / self.requests.max(1) as f64
    }

    /// Times one batch of `requests` round trips with one `Instant` pair.
    pub fn run_batch<P: Probe>(
        &mut self,
        fx: &mut Fixture,
        w: &Workload,
        requests: usize,
        probe: &mut P,
    ) {
        let allocs = alloc_count();
        let t0 = Instant::now();
        for _ in 0..requests {
            fx.step(w, probe);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        self.allocs += alloc_count() - allocs;
        self.requests += requests as u64;
        self.ns_per_req.push(ns / requests as f64);
    }
}

/// Runs `requests` untimed round trips and returns how many of them fit
/// [`MIN_BATCH`]: the batch size for this kind on this machine today.
pub fn warm_up(fx: &mut Fixture, w: &Workload, requests: usize) -> usize {
    let t0 = Instant::now();
    for _ in 0..requests {
        fx.step(w, &mut NoProbe);
    }
    let per_req = t0.elapsed().as_secs_f64() / requests as f64;
    (MIN_BATCH.as_secs_f64() / per_req).ceil() as usize
}

/// The host phase: timed batches of `batch[k]` round trips, the kinds
/// taking turns (and swapping who goes first) so that machine drift hits
/// all alike, until `budget` is spent and each has [`MIN_BATCHES`]. The
/// reference kernel runs between rounds; a batch's speed is the mean of
/// the kernel's before and after its round.
pub fn host_phase<const K: usize>(
    w: &Workload,
    fixtures: [&mut Fixture; K],
    batch: [usize; K],
    budget: Duration,
) -> [BatchSeries; K] {
    let mut series: [BatchSeries; K] = std::array::from_fn(|_| BatchSeries::default());
    let mut reference = Reference::new();
    let mut before = reference.run_ns();
    let t0 = Instant::now();
    let mut round = 0;
    while round < MIN_BATCHES || t0.elapsed() < budget {
        for turn in 0..K {
            let k = (turn + round) % K;
            series[k].run_batch(fixtures[k], w, batch[k], &mut NoProbe);
        }
        let after = reference.run_ns();
        let speed = REFERENCE_NS / ((before + after) / 2.0);
        for s in &mut series {
            let raw = *s.ns_per_req.last().expect("a batch per round");
            s.at_reference_speed.push(raw * speed);
        }
        before = after;
        round += 1;
    }
    series
}

/// Serves `n` back-to-back requests (virtual saturation) and returns the
/// virtual service time of each, in ns: what the server's clock advanced
/// by while it handled that request.
pub fn service_times(fx: &mut Fixture, w: &Workload, n: u64) -> Vec<u32> {
    let clock = fx.sim.clock();
    let mut out = Vec::with_capacity(n as usize);
    let mut last = clock.now();
    for _ in 0..n {
        fx.step(w, &mut NoProbe);
        let now = clock.now();
        out.push((now - last) as u32);
        last = now;
    }
    out
}

/// Mean of [`service_times`]: capacity is 10⁶ / this, in krps.
pub fn mean_service_ns(service_ns: &[u32]) -> f64 {
    service_ns.iter().map(|&s| f64::from(s)).sum::<f64>() / service_ns.len() as f64
}

/// One open-loop point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Offered rate.
    pub offered_krps: f64,
    /// Completions per virtual second over the point.
    pub achieved_krps: f64,
    /// Offered rate × mean service time.
    pub utilisation: f64,
    /// Median sojourn (wait + service), µs, timed from the scheduled
    /// arrival.
    pub p50_us: f64,
    /// p99 sojourn, µs.
    pub p99_us: f64,
    /// Arrivals served.
    pub arrivals: usize,
}

impl Point {
    /// The benchmark's own stability rule. `LoadPoint::is_stable` alone
    /// (achieved ≥ 95 % of offered over a window) calls Protobuf at
    /// 1000 krps against a 974 krps capacity stable with a 2.3 ms p99.
    pub fn meets(&self, slo_us: f64) -> bool {
        self.utilisation < MAX_UTILISATION
            && self.achieved_krps >= MIN_ACHIEVED * self.offered_krps
            && self.p99_us <= slo_us
    }
}

/// One open-loop point: `arrivals` Poisson arrivals at `offered_krps`
/// join the single server's FIFO queue on its virtual clock; request `n`
/// takes `service_ns[n % len]`, the service times measured on the real
/// request path, in their measured order. Nothing in the server depends
/// on when a request arrives (admission control and timers are off), so
/// this is the queue `OpenLoopSim::run` simulates one real request at a
/// time — but a point costs milliseconds, not seconds, of host time, and
/// so can have the millions of arrivals a p99 that repeats to a percent
/// needs (30k arrivals at 75 % load gave a p99 that moved 10–19 % from
/// seed to seed). No wire delay is added, so latency is server sojourn:
/// a constant 10 µs wire floor would bury a 10 % service change inside
/// 1 %. The arrival draws depend on `seed` only, not on the rate, so two
/// rates see the same gaps scaled.
pub fn open_loop(
    service_ns: &[u32],
    offered_krps: f64,
    arrivals: usize,
    seed: u64,
    sojourn_ns: &mut Vec<f64>,
) -> Point {
    assert!(
        stats::highest_supported_percentile(arrivals) >= Some(99.0),
        "{arrivals} arrivals cannot support a p99"
    );
    let rate_per_ns = offered_krps * 1e-6;
    let mut rng = SplitMix64::new(seed);
    let mut arrival = 0.0f64;
    let mut free_at = 0.0f64;
    sojourn_ns.clear();
    for n in 0..arrivals {
        arrival += rng.next_exp(rate_per_ns);
        // The server takes the request when both are ready.
        let start = arrival.max(free_at);
        free_at = start + f64::from(service_ns[n % service_ns.len()]);
        sojourn_ns.push(free_at - arrival);
    }
    let mut nth = |p: f64| {
        let idx = ((arrivals - 1) as f64 * p) as usize;
        *sojourn_ns.select_nth_unstable_by(idx, f64::total_cmp).1
    };
    Point {
        offered_krps,
        achieved_krps: arrivals as f64 / free_at * 1e6,
        utilisation: rate_per_ns * mean_service_ns(service_ns),
        p50_us: nth(0.50) / 1e3,
        p99_us: nth(0.99) / 1e3,
        arrivals,
    }
}

/// The highest offered rate (krps) in `[0, 4 × rate_mid]` whose point
/// [`Point::meets`] the workload's limit, by bisection on the absolute
/// rate. Returns the rate and the points probed.
pub fn rate_at_slo(
    w: &Workload,
    service_ns: &[u32],
    arrivals: usize,
    seed: u64,
    sojourn_ns: &mut Vec<f64>,
) -> (f64, Vec<Point>) {
    let (mut lo, mut hi) = (0.0, 4.0 * w.spec.rate_mid_krps);
    let mut points = Vec::with_capacity(BISECTION_STEPS);
    for _ in 0..BISECTION_STEPS {
        let mid = (lo + hi) / 2.0;
        let p = open_loop(service_ns, mid, arrivals, seed, sojourn_ns);
        if p.meets(w.spec.slo_us) {
            lo = mid;
        } else {
            hi = mid;
        }
        points.push(p);
    }
    (lo, points)
}
