//! Open-loop Poisson load replayed over a recorded service trace (§6.1).
//!
//! The paper reports the throughput a single-core server sustains at a p99
//! round-trip SLO under open-loop Poisson arrivals, served FIFO. A request's
//! service time is what its handler advances the virtual [`Clock`] by, and
//! nothing on the request path reads the clock, so it does not depend on
//! when the request arrives. One saturated pass of the real stack therefore
//! records every service time there is to know, and an offered rate is a
//! Lindley recursion over that trace (Lindley, Proc. Cambridge Phil. Soc.
//! 1952): with `S(n)` the service of arrival `n` and `A(n + 1)` the gap
//! before arrival `n + 1`, its wait is
//! `W(n + 1) = max(0, W(n) + S(n) − A(n + 1))` and its sojourn
//! `W(n + 1) + S(n + 1)`.
//!
//! [`Arrivals`] draws one seed's unit-rate exponential gaps once; at rate λ
//! gap `n` is `gap / λ`, the same bits as `SplitMix64::next_exp(λ)`, and
//! arrival `n` takes service `n % len`. Every rate sees the same gaps
//! scaled (common random numbers), and each step of the recursion is a
//! correctly rounded monotone operation, so every sojourn is monotone in
//! the rate, in floating point as in the reals, and [`max_rates`] can
//! bisect on it exactly, several seeds side by side. A quantile is the
//! element of rank [`rank`] in the sorted sojourns; whether it meets a
//! limit is decided by counting the sojourns above the limit, without
//! sorting.
//!
//! [`Clock`]: crate::Clock

use std::ops::ControlFlow;

use crate::rng::SplitMix64;

/// The rank of quantile `q` among `len` sorted samples, `round((len − 1)·q)`:
/// the one rule every quantile in the benches is picked by.
pub fn rank(len: usize, q: f64) -> usize {
    (len.saturating_sub(1) as f64 * q).round() as usize
}

/// One seed's Poisson arrival process: its unit-rate exponential gaps.
#[derive(Clone, Debug)]
pub struct Arrivals {
    gaps: Vec<f64>,
}

impl Arrivals {
    /// `n` arrivals whose gaps depend on `seed` alone.
    pub fn new(seed: u64, n: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        Arrivals {
            gaps: (0..n).map(|_| rng.next_exp(1.0)).collect(),
        }
    }

    /// The `q`-quantile sojourn (wait + service, ns) at each of
    /// `rates_per_ns`, all replayed in one pass.
    pub fn quantiles<const K: usize>(
        &self,
        service_ns: &[u64],
        rates_per_ns: [f64; K],
        q: f64,
    ) -> [f64; K] {
        // Per rate, every sojourn at or above `floor`, cut back to the
        // largest `keep` whenever twice as many have gathered (raising the
        // floor to the least kept): at the end the quantile is the least of
        // the largest `keep`. Sojourns are not negative, so their bit
        // patterns order as their values do.
        let keep = self.gaps.len() - rank(self.gaps.len(), q);
        let mut kept: [Vec<u64>; K] = std::array::from_fn(|_| Vec::with_capacity(2 * keep));
        let mut floor = [0u64; K];
        let cut = |kept: &mut Vec<u64>| {
            let below = kept.len() - keep;
            let least = *kept.select_nth_unstable(below).1;
            kept.drain(..below);
            least
        };
        replay([self; K], service_ns, rates_per_ns, |sojourns| {
            for k in 0..K {
                let sojourn = sojourns[k].to_bits();
                if sojourn >= floor[k] {
                    kept[k].push(sojourn);
                    if kept[k].len() == 2 * keep {
                        floor[k] = cut(&mut kept[k]);
                    }
                }
            }
            ControlFlow::Continue(())
        });
        kept.map(|mut kept| f64::from_bits(cut(&mut kept)))
    }
}

/// For each of `arrivals` (of one length), the highest rate in
/// `[0, hi_per_ns]` whose `q`-quantile sojourn is at most `limit_ns`, by
/// bisection to within `resolution_per_ns` (the bracket's low end: a rate
/// known to meet the limit). A rate meets the limit when no more sojourns
/// exceed it than rank above the quantile's. Every step is one pass for
/// all the seeds, which stops once each has failed.
pub fn max_rates<const K: usize>(
    arrivals: [&Arrivals; K],
    service_ns: &[u64],
    q: f64,
    limit_ns: f64,
    hi_per_ns: f64,
    resolution_per_ns: f64,
) -> [f64; K] {
    let len = arrivals.first().map_or(0, |a| a.gaps.len());
    let above = len.saturating_sub(1) - rank(len, q);
    let (mut lo, mut hi) = ([0.0; K], [hi_per_ns; K]);
    while (0..K).any(|k| hi[k] - lo[k] > resolution_per_ns) {
        let mid = std::array::from_fn(|k| (lo[k] + hi[k]) / 2.0);
        let (mut over, mut n) = ([0usize; K], 0usize);
        replay(arrivals, service_ns, mid, |sojourns| {
            for (over, sojourn) in over.iter_mut().zip(sojourns) {
                *over += usize::from(sojourn > limit_ns);
            }
            n += 1;
            if n.is_multiple_of(1 << 16) && over.iter().all(|&over| over > above) {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        for k in 0..K {
            if over[k] <= above {
                lo[k] = mid[k];
            } else {
                hi[k] = mid[k];
            }
        }
    }
    lo
}

/// Replays `arrivals[k]` at `rates_per_ns[k]` for every `k` side by side
/// (independent recursions, which the CPU overlaps), the queues starting
/// empty, and hands `visit` each arrival's sojourns (wait + service, ns) in
/// arrival order until it breaks. Arrival `n` takes
/// `service_ns[n % service_ns.len()]`.
fn replay<const K: usize>(
    arrivals: [&Arrivals; K],
    service_ns: &[u64],
    rates_per_ns: [f64; K],
    mut visit: impl FnMut([f64; K]) -> ControlFlow<()>,
) {
    assert!(!service_ns.is_empty(), "an empty service trace");
    let len = arrivals.first().map_or(0, |a| a.gaps.len());
    assert!(
        arrivals.iter().all(|a| a.gaps.len() == len),
        "arrivals of one length"
    );
    let gaps = arrivals.map(|a| &a.gaps[..len]);
    // The state is W(n − 1) and S(n − 1), so that each recursion's
    // dependency chain is one add and a max:
    // W(n) = max(0, W(n − 1) + (S(n − 1) − A(n))).
    let (mut wait, mut before) = ([0.0f64; K], 0.0f64);
    for (n, &service) in (0..len).zip(service_ns.iter().cycle()) {
        let service = service as f64;
        let sojourns = std::array::from_fn(|k| {
            wait[k] = (wait[k] + (before - gaps[k][n] / rates_per_ns[k])).max(0.0);
            wait[k] + service
        });
        if visit(sojourns).is_break() {
            return;
        }
        before = service;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arrivals per closed-form check.
    const N: usize = 1_000_000;

    /// Every arrival's sojourn at `rate_per_ns`, in order.
    fn sojourns(arrivals: &Arrivals, service_ns: &[u64], rate_per_ns: f64) -> Vec<f64> {
        let mut all = Vec::new();
        replay([arrivals], service_ns, [rate_per_ns], |[sojourn]| {
            all.push(sojourn);
            ControlFlow::Continue(())
        });
        all
    }

    /// The mean of `xs` and its standard error by batch means (100 batches
    /// of consecutive samples, so the queue's autocorrelation stays inside a
    /// batch).
    fn batch_mean(xs: &[f64]) -> (f64, f64) {
        let batches: Vec<f64> = xs
            .chunks(xs.len() / 100)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .collect();
        let k = batches.len() as f64;
        let mean = batches.iter().sum::<f64>() / k;
        let var = batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (k - 1.0);
        (mean, (var / k).sqrt())
    }

    #[test]
    fn constant_service_matches_the_md1_mean_wait() {
        // ρ = 0.7 against a 1 µs service: W = ρS / (2(1 − ρ)).
        let (service, rho) = (1_000.0, 0.7);
        let arrivals = Arrivals::new(11, N);
        let waits: Vec<f64> = sojourns(&arrivals, &[1_000], rho / service)
            .iter()
            .map(|s| s - service)
            .collect();
        let (mean, se) = batch_mean(&waits);
        let expected = rho * service / (2.0 * (1.0 - rho));
        assert!(
            (mean - expected).abs() < 4.0 * se,
            "mean wait {mean:.1} ns, M/D/1 {expected:.1} ns, standard error {se:.2}"
        );
    }

    #[test]
    fn exponential_service_matches_the_mm1_p99_sojourn() {
        // μ = 1 / µs, λ = 0.6 μ: the sojourn is exponential with rate μ − λ,
        // so its p99 is ln(100) / (μ − λ) and 1 % of sojourns exceed it.
        let (mu, lambda) = (1e-3, 0.6e-3);
        let mut rng = SplitMix64::new(12);
        let service: Vec<u64> = (0..N).map(|_| rng.next_exp(mu).round() as u64).collect();
        let arrivals = Arrivals::new(13, N);
        let p99 = 100f64.ln() / (mu - lambda);
        let beyond: Vec<f64> = sojourns(&arrivals, &service, lambda)
            .iter()
            .map(|&s| f64::from(u8::from(s > p99)))
            .collect();
        let (share, se) = batch_mean(&beyond);
        assert!(
            (share - 0.01).abs() < 4.0 * se,
            "{:.4} % above the M/M/1 p99 of {p99:.0} ns, standard error {:.4} %",
            share * 100.0,
            se * 100.0
        );
    }

    #[test]
    fn a_higher_rate_never_lowers_a_wait() {
        let arrivals = Arrivals::new(14, 200_000);
        let service = [700, 1_300, 900, 2_500, 400];
        let rates = [0.2e-3, 0.5e-3, 0.8e-3, 0.95e-3, 1.2e-3];
        for pair in rates.windows(2) {
            let low = sojourns(&arrivals, &service, pair[0]);
            let high = sojourns(&arrivals, &service, pair[1]);
            for (n, (l, h)) in low.iter().zip(&high).enumerate() {
                assert!(
                    h >= l,
                    "arrival {n}: {l} ns at {}, {h} ns at {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn quantiles_are_the_ranked_sojourns() {
        let arrivals = Arrivals::new(15, 100_000);
        let service = [700, 1_300, 900, 2_500, 400];
        let rates = [0.3e-3, 0.7e-3, 0.85e-3];
        let quantiles = arrivals.quantiles(&service, rates, 0.99);
        for (rate, quantile) in rates.into_iter().zip(quantiles) {
            let mut sorted = sojourns(&arrivals, &service, rate);
            sorted.sort_by(f64::total_cmp);
            assert_eq!(quantile, sorted[rank(sorted.len(), 0.99)], "at {rate}");
        }
    }

    #[test]
    fn bisection_finds_the_edge_of_the_slo_for_every_seed() {
        let arrivals: [Arrivals; 3] =
            std::array::from_fn(|k| Arrivals::new(16 + k as u64, 100_000));
        let service = [1_000, 600, 1_400];
        let (hi, resolution) = (1e-3, 1e-6);
        let rates = max_rates(arrivals.each_ref(), &service, 0.99, 5_000.0, hi, resolution);
        let p99 = |a: &Arrivals, rate| a.quantiles(&service, [rate], 0.99)[0];
        for (a, rate) in arrivals.iter().zip(rates) {
            assert!(p99(a, rate) <= 5_000.0, "{rate} fails");
            assert!(
                p99(a, rate + resolution) > 5_000.0,
                "{rate} is not the edge"
            );
        }
        // A limit below the longest service admits no rate at all.
        let none = max_rates(arrivals.each_ref(), &service, 0.99, 1_399.0, hi, resolution);
        assert_eq!(none, [0.0; 3]);
    }

    #[test]
    fn gaps_are_next_exp_at_every_rate() {
        let arrivals = Arrivals::new(19, 1_000);
        let mut rng = SplitMix64::new(19);
        let rate = 0.37e-3;
        let mut free_at = 0.0f64;
        let mut arrival = 0.0f64;
        // Service far above every gap: each request starts when the last
        // one ends, so its sojourn is n + 1 services less its arrival time.
        for (n, sojourn) in sojourns(&arrivals, &[1_000_000], rate)
            .into_iter()
            .enumerate()
        {
            arrival += rng.next_exp(rate);
            free_at = free_at.max(arrival) + 1e6;
            let expected = free_at - arrival;
            assert!(
                (sojourn - expected).abs() < 1e-3,
                "arrival {n}: {sojourn} vs {expected}"
            );
        }
    }

    #[test]
    fn rank_rounds_to_the_nearest_index() {
        assert_eq!(rank(101, 0.5), 50);
        assert_eq!(rank(101, 0.999), 100);
        assert_eq!(rank(1, 0.99), 0);
        assert_eq!(rank(2_000_000, 0.99), 1_979_999);
    }
}
