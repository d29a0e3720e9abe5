//! Open-loop load generation and throughput/latency measurement.
//!
//! Reproduces the paper's methodology (§6.1): a load generator offers
//! requests with Poisson arrivals at a configured rate; the single-core
//! server processes them FIFO; we report achieved throughput (completions
//! over the measurement window) and round-trip latency quantiles, where the
//! round trip includes a fixed wire/client latency floor plus queueing wait
//! plus service time.
//!
//! The server's service time is whatever the request handler advances the
//! shared virtual [`Clock`] by — i.e. the real serialization code runs and
//! its charged costs become the service time.

use crate::clock::Clock;
use crate::cost::Sim;
use crate::histogram::Histogram;
use crate::rng::SplitMix64;
use crate::stats;

/// Result of running one offered-load point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load in requests per second (`f64::INFINITY` for closed-loop
    /// saturation runs).
    pub offered_rps: f64,
    /// Achieved load: completions within the window, per second.
    pub achieved_rps: f64,
    /// Completions within the measurement window.
    pub completed: u64,
    /// Total response payload bytes across completions.
    pub payload_bytes: u64,
    /// Round-trip latency histogram (wire + wait + service).
    pub latency: Histogram,
    /// Mean service time per request in nanoseconds.
    pub mean_service_ns: f64,
}

impl LoadPoint {
    /// Achieved payload throughput in Gbps.
    pub fn gbps(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let mean_payload = self.payload_bytes as f64 / self.completed as f64;
        self.achieved_rps * mean_payload * 8.0 / 1e9
    }

    /// p99 round-trip latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.latency.p99()
    }

    /// True if achieved load is within 95 % of offered (the paper only plots
    /// such points).
    pub fn is_stable(&self) -> bool {
        self.offered_rps.is_finite() && self.achieved_rps >= 0.95 * self.offered_rps
    }
}

/// The load generator of one server machine (§6.1): Poisson open-loop
/// points ([`OpenLoopSim::run`]) and closed-loop saturation
/// ([`OpenLoopSim::run_saturated`]), each after the same warmup.
#[derive(Clone, Debug)]
pub struct OpenLoopSim {
    /// The server's virtual clock; request handlers advance it.
    clock: Clock,
    /// One-way wire/client latency floor, added twice to each round-trip
    /// latency (it does not occupy the server).
    one_way_wire_ns: u64,
    /// Requests executed before measurement starts, to warm caches. Not
    /// measured.
    warmup_requests: u64,
}

impl OpenLoopSim {
    /// A generator over `sim`'s clock whose wire floor is the machine
    /// profile's [`CostModel::one_way_wire_ns`](crate::CostModel::one_way_wire_ns).
    pub fn new(sim: &Sim, warmup_requests: u64) -> Self {
        OpenLoopSim {
            clock: sim.clock(),
            one_way_wire_ns: sim.costs().one_way_wire_ns as u64,
            warmup_requests,
        }
    }

    /// Runs one offered-load point: arrivals drawn from `seed` over a
    /// `duration_ns` window. `handler(seq)` processes request `seq`,
    /// advancing the clock, and returns the response payload size in bytes.
    pub fn run(
        &self,
        seed: u64,
        offered_rps: f64,
        duration_ns: u64,
        mut handler: impl FnMut(u64) -> u64,
    ) -> LoadPoint {
        assert!(offered_rps > 0.0 && offered_rps.is_finite());
        let mut seq = 0u64;
        for _ in 0..self.warmup_requests {
            handler(seq);
            seq += 1;
        }
        let t0 = self.clock.now();
        let end = t0 + duration_ns;
        let rate_per_ns = offered_rps / 1e9;
        let mut rng = SplitMix64::new(seed ^ offered_rps.to_bits());
        let mut arrival_f = t0 as f64;
        let mut latency = Histogram::new();
        let mut completed = 0u64;
        let mut payload_bytes = 0u64;
        let mut service_sum = 0f64;
        let mut served = 0u64;
        loop {
            arrival_f += rng.next_exp(rate_per_ns);
            let arrival = arrival_f as u64;
            if arrival >= end {
                break;
            }
            // The server picks the request up when both it and the request
            // are ready; the clock already sits at the previous completion.
            self.clock.advance_to(arrival);
            let start = self.clock.now();
            let bytes = handler(seq);
            seq += 1;
            let finish = self.clock.now();
            service_sum += (finish - start) as f64;
            served += 1;
            if finish <= end {
                completed += 1;
                payload_bytes += bytes;
                latency.record(finish - arrival + 2 * self.one_way_wire_ns);
            } else {
                // This and all later arrivals finish outside the window.
                break;
            }
        }
        LoadPoint {
            offered_rps,
            achieved_rps: stats::rps(completed, duration_ns),
            completed,
            payload_bytes,
            latency,
            mean_service_ns: if served == 0 {
                0.0
            } else {
                service_sum / served as f64
            },
        }
    }

    /// Runs the server closed-loop at saturation: `n` back-to-back requests
    /// with no idle time. The achieved rate is the server's capacity, i.e.
    /// the paper's "highest achieved throughput across all offered loads".
    pub fn run_saturated(&self, n: u64, mut handler: impl FnMut(u64) -> u64) -> LoadPoint {
        let mut seq = 0u64;
        for _ in 0..self.warmup_requests {
            handler(seq);
            seq += 1;
        }
        let t0 = self.clock.now();
        let mut latency = Histogram::new();
        let mut payload_bytes = 0u64;
        for _ in 0..n {
            let start = self.clock.now();
            payload_bytes += handler(seq);
            seq += 1;
            latency.record(self.clock.now() - start + 2 * self.one_way_wire_ns);
        }
        let elapsed = self.clock.now() - t0;
        let mean_service = if n == 0 {
            0.0
        } else {
            elapsed as f64 / n as f64
        };
        LoadPoint {
            offered_rps: f64::INFINITY,
            achieved_rps: stats::rps(n, elapsed.max(1)),
            completed: n,
            payload_bytes,
            latency,
            mean_service_ns: mean_service,
        }
    }
}

/// Builds a geometric load ladder from `lo` to `hi` (inclusive-ish) with
/// `steps` points, suitable for throughput-latency sweeps.
pub fn load_ladder(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2 && lo > 0.0 && hi > lo);
    let ratio = (hi / lo).powf(1.0 / (steps - 1) as f64);
    (0..steps).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler with fixed 1 µs service time.
    fn fixed_service(clock: &Clock) -> impl FnMut(u64) -> u64 + '_ {
        move |_| {
            clock.advance(1_000);
            100
        }
    }

    /// Arrival seed and measurement window of the open-loop tests.
    const SEED: u64 = 7;
    const WINDOW_NS: u64 = 20_000_000;

    /// A generator with 10 warmup requests over a fresh machine's clock.
    fn sim() -> (Clock, OpenLoopSim) {
        let sim = Sim::new(crate::MachineProfile::tiny_for_tests());
        (sim.clock(), OpenLoopSim::new(&sim, 10))
    }

    #[test]
    fn light_load_achieves_offered() {
        let (clock, s) = sim();
        // 1 µs service => capacity 1 Mrps; offer 100 krps.
        let p = s.run(SEED, 100_000.0, WINDOW_NS, fixed_service(&clock));
        assert!(
            p.is_stable(),
            "achieved={} offered={}",
            p.achieved_rps,
            p.offered_rps
        );
        // Latency ≈ 2*wire + service with little wait (histogram buckets
        // report lower bounds, so allow ~2 % downward error).
        assert!(p.latency.p50() >= 10_800, "p50={}", p.latency.p50());
        assert!(p.latency.p50() < 13_000, "p50={}", p.latency.p50());
    }

    #[test]
    fn overload_caps_at_capacity() {
        let (clock, s) = sim();
        // Offer 3 Mrps against 1 Mrps capacity.
        let p = s.run(SEED, 3_000_000.0, WINDOW_NS, fixed_service(&clock));
        assert!(!p.is_stable());
        assert!(p.achieved_rps < 1_100_000.0, "achieved={}", p.achieved_rps);
    }

    #[test]
    fn saturated_run_measures_capacity() {
        let (clock, s) = sim();
        let p = s.run_saturated(10_000, fixed_service(&clock));
        assert!(
            (p.achieved_rps - 1_000_000.0).abs() < 10_000.0,
            "{}",
            p.achieved_rps
        );
        assert_eq!(p.mean_service_ns, 1_000.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let (clock, s) = sim();
        let low = s.run(SEED, 100_000.0, WINDOW_NS, fixed_service(&clock));
        let high = s.run(SEED, 900_000.0, WINDOW_NS, fixed_service(&clock));
        assert!(
            high.latency.p99() > low.latency.p99(),
            "p99 low={} high={}",
            low.latency.p99(),
            high.latency.p99()
        );
    }

    #[test]
    fn gbps_accounts_payload() {
        let (clock, s) = sim();
        let p = s.run_saturated(1_000, |_| {
            clock.advance(1_000);
            1_000 // 1 kB per request at 1 Mrps = 8 Gbps
        });
        assert!((p.gbps() - 8.0).abs() < 0.2, "{}", p.gbps());
    }

    #[test]
    fn load_ladder_endpoints() {
        let l = load_ladder(10.0, 1000.0, 3);
        assert!((l[0] - 10.0).abs() < 1e-9);
        assert!((l[1] - 100.0).abs() < 1e-6);
        assert!((l[2] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn variable_service_mean_tracked() {
        let (clock, s) = sim();
        let mut i = 0u64;
        let p = s.run_saturated(1_000, |_| {
            i += 1;
            clock.advance(if i.is_multiple_of(2) { 500 } else { 1_500 });
            64
        });
        assert!(
            (p.mean_service_ns - 1_000.0).abs() < 20.0,
            "{}",
            p.mean_service_ns
        );
    }
}
