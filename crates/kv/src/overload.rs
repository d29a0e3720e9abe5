//! Overload-control policies: admission control, retry budgets, and the
//! circuit breaker.
//!
//! Sustained offered load above capacity is the overload failure mode that
//! matters at scale: unbounded backlogs convert excess load into unbounded
//! tail latency, and naive exponential-backoff retries synchronize into
//! retry storms that collapse goodput. This module holds the *policy*
//! pieces, shared between the server ([`crate::server::KvServer`]) and the
//! client ([`crate::client::KvClient`]):
//!
//! - [`AdmissionConfig`] — the server-side bounded backlog with
//!   CoDel-style shedding (oldest-first drop once sojourn exceeds a
//!   target) and GET-over-PUT priority once the backlog is half full.
//! - [`RetryBudget`] — a token bucket capping retries as a fraction of
//!   fresh requests, so clients cannot amplify an overload.
//! - [`CircuitBreaker`] — a per-server breaker driven by `SHED` replies
//!   and timeouts, half-opening via a virtual-time probe request.
//! - [`decorrelated_jitter`] — AWS-style decorrelated-jitter backoff,
//!   seeded for deterministic tests.
//!
//! All time is virtual nanoseconds on the owning [`cf_sim::Sim`] clock.

use std::collections::VecDeque;

use cf_sim::rng::SplitMix64;

/// Server-side admission-control knobs (per shard).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum pending requests queued for service. Beyond this the
    /// ingest loop stops pulling from the NIC, leaving excess frames to
    /// the bounded rx staging ring (which tail-drops for free).
    pub backlog_capacity: usize,
    /// Shed a queued request once it has waited longer than this
    /// (CoDel-style sojourn target): a request that has already waited
    /// past the client's patience is pure wasted work.
    pub target_sojourn_ns: u64,
    /// Bound on the socket's NIC rx staging ring (frames tail-dropped
    /// NIC-side past this; 0 = unbounded). The outermost, zero-CPU-cost
    /// layer of shedding.
    pub rx_backlog_limit: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            backlog_capacity: 64,
            target_sojourn_ns: 200_000,
            rx_backlog_limit: 128,
        }
    }
}

/// Client-side retry budget: a token bucket where fresh requests deposit
/// [`RetryBudgetConfig::per_request`] tokens (capped at
/// [`RetryBudgetConfig::capacity`]) and each retry spends one. When the
/// bucket is empty, a timed-out request fails instead of retrying, which
/// bounds total retries to `capacity + per_request × fresh_requests`
/// no matter how badly the server misbehaves.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudgetConfig {
    /// Maximum banked tokens (also the initial balance).
    pub capacity: f64,
    /// Tokens earned per fresh (non-retry) request — the budget *ratio*:
    /// 0.1 caps steady-state retries at 10% of fresh traffic.
    pub per_request: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            capacity: 10.0,
            per_request: 0.1,
        }
    }
}

/// The token bucket for [`RetryBudgetConfig`].
#[derive(Clone, Debug)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
}

impl RetryBudget {
    /// A budget starting at full capacity.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        RetryBudget {
            cfg,
            tokens: cfg.capacity,
        }
    }

    /// Credits the budget for one fresh request.
    pub fn on_fresh_request(&mut self) {
        self.tokens = (self.tokens + self.cfg.per_request).min(self.cfg.capacity);
    }

    /// Spends one token for a retry; `false` means the budget is
    /// exhausted and the retry must not happen.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Currently banked tokens.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Circuit-breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Virtual-time span of recent request outcomes examined for the trip
    /// decision. A *time* window (not a sample count) is deliberate:
    /// timeouts arrive in bursts (a whole timer sweep concludes at once),
    /// and a count-based window can fill entirely with one such burst and
    /// trip on a server that is also completing plenty of requests. A
    /// window spanning several timeout periods sees both the failure
    /// bursts and the interleaved successes.
    pub sample_window_ns: u64,
    /// Minimum outcomes in the window before the breaker may trip (avoids
    /// tripping on the first lonely failure).
    pub min_samples: usize,
    /// Failure fraction at or above which the breaker opens. Deliberately
    /// high by default: partial overload (some sheds, some successes) is
    /// handled by the retry budget; the breaker is for a server that has
    /// effectively stopped answering.
    pub failure_threshold: f64,
    /// How long the breaker stays open (virtual ns) before half-opening
    /// with a probe.
    pub open_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            sample_window_ns: 4_000_000,
            min_samples: 16,
            failure_threshold: 0.9,
            open_ns: 2_000_000,
        }
    }
}

/// Breaker states (the classic three-state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes are sampled.
    Closed,
    /// Requests are rejected locally without touching the wire.
    Open,
    /// One probe request is in flight; its outcome decides
    /// Closed-vs-Open.
    HalfOpen,
}

/// A per-server circuit breaker driven by `SHED` replies and timeout
/// rates, half-opening via a virtual-time probe request.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Recent outcomes as `(when, failure)`; `true` = failure (timeout
    /// or `SHED`). Entries older than the sample window are evicted.
    samples: VecDeque<(u64, bool)>,
    failures_in_window: usize,
    /// Virtual time the breaker last opened.
    opened_at: u64,
    /// The req_id of the in-flight half-open probe, if any.
    probe: Option<u32>,
}

impl CircuitBreaker {
    /// A closed breaker with an empty sample window.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            samples: VecDeque::new(),
            failures_in_window: 0,
            opened_at: 0,
            probe: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The in-flight half-open probe's req_id, if one exists.
    pub fn probe(&self) -> Option<u32> {
        self.probe
    }

    /// Admission decision for a fresh send at virtual time `now_ns`.
    pub fn admit(&mut self, now_ns: u64, req_id: u32) -> BreakerDecision {
        match self.state {
            BreakerState::Closed => BreakerDecision::Send,
            BreakerState::Open => {
                if now_ns.saturating_sub(self.opened_at) >= self.cfg.open_ns {
                    // Half-open: this request becomes the probe.
                    self.state = BreakerState::HalfOpen;
                    self.probe = Some(req_id);
                    BreakerDecision::SendProbe
                } else {
                    BreakerDecision::Reject
                }
            }
            // Exactly one probe at a time; everything else fast-fails.
            BreakerState::HalfOpen => BreakerDecision::Reject,
        }
    }

    fn push_sample(&mut self, now_ns: u64, failure: bool) {
        let horizon = now_ns.saturating_sub(self.cfg.sample_window_ns);
        while let Some(&(t, f)) = self.samples.front() {
            if t >= horizon {
                break;
            }
            self.samples.pop_front();
            if f {
                self.failures_in_window -= 1;
            }
        }
        self.samples.push_back((now_ns, failure));
        if failure {
            self.failures_in_window += 1;
        }
    }

    /// Records a successful response for `req_id` at virtual time
    /// `now_ns`. Returns `true` when this closed a half-open breaker.
    pub fn on_success(&mut self, now_ns: u64, req_id: u32) -> bool {
        match self.state {
            BreakerState::HalfOpen if self.probe == Some(req_id) => {
                self.state = BreakerState::Closed;
                self.probe = None;
                self.samples.clear();
                self.failures_in_window = 0;
                true
            }
            _ => {
                self.push_sample(now_ns, false);
                false
            }
        }
    }

    /// Records a failure (timeout or `SHED`) for `req_id` at virtual time
    /// `now_ns`. Returns `true` when this opened (or re-opened) the
    /// breaker.
    pub fn on_failure(&mut self, now_ns: u64, req_id: u32) -> bool {
        match self.state {
            BreakerState::HalfOpen if self.probe == Some(req_id) => {
                // Failed probe: straight back to open.
                self.state = BreakerState::Open;
                self.opened_at = now_ns;
                self.probe = None;
                true
            }
            BreakerState::Closed => {
                self.push_sample(now_ns, true);
                if self.samples.len() >= self.cfg.min_samples
                    && self.failures_in_window as f64
                        >= self.cfg.failure_threshold * self.samples.len() as f64
                {
                    self.state = BreakerState::Open;
                    self.opened_at = now_ns;
                    self.samples.clear();
                    self.failures_in_window = 0;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

/// What the breaker decided about a send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Transmit normally.
    Send,
    /// Transmit; this request is the half-open probe.
    SendProbe,
    /// Reject locally without transmitting.
    Reject,
}

/// One step of decorrelated-jitter backoff (the AWS "decorrelated
/// jitter" scheme): `sleep = min(cap, uniform(base, prev × 3))`. Spreads
/// retry times apart so synchronized clients do not re-collide, while
/// still growing roughly exponentially. `prev` is the previous sleep (use
/// `base` before the first retry); `cap` of 0 means uncapped.
pub fn decorrelated_jitter(rng: &mut SplitMix64, base: u64, prev: u64, cap: u64) -> u64 {
    let cap = if cap == 0 { u64::MAX } else { cap };
    let hi = prev.saturating_mul(3).max(base.saturating_add(1)).min(cap);
    let lo = base.min(hi);
    lo + rng.next_bounded((hi - lo).saturating_add(1))
}

/// Derives a per-client jitter seed from a base seed and the client's id.
///
/// Multi-client runs that hand every client the same literal seed give
/// every client the *same* backoff sequence — their "decorrelated" retries
/// land on identical virtual-time offsets and re-collide as a synchronized
/// retry storm, exactly what jitter exists to prevent. Mixing the client
/// id through an extra SplitMix64 round (its increment is already a
/// bijective mixer) keeps runs reproducible from one base seed while
/// giving every client an independent stream.
pub fn jitter_seed_for(base_seed: u64, client_id: u64) -> u64 {
    let mut rng = SplitMix64::new(base_seed ^ client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // One extra draw decouples adjacent client ids that differ in one bit.
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_caps_total_retries() {
        let mut b = RetryBudget::new(RetryBudgetConfig {
            capacity: 2.0,
            per_request: 0.25,
        });
        // The initial bank covers exactly `capacity` retries.
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "bank drained");
        // Fresh traffic re-earns: four fresh requests buy one retry
        // (0.25 is exact in binary, so the arithmetic is too).
        for _ in 0..4 {
            b.on_fresh_request();
        }
        assert!(b.try_spend());
        assert!(!b.try_spend());
        // Steady state: retries are capped at the budget ratio of fresh
        // traffic no matter how many retries are attempted.
        let mut spent = 0;
        for _ in 0..40 {
            b.on_fresh_request();
            if b.try_spend() {
                spent += 1;
            }
        }
        assert_eq!(spent, 10, "40 fresh × 0.25 = 10 retries, never more");
    }

    #[test]
    fn retry_budget_caps_at_capacity() {
        let mut b = RetryBudget::new(RetryBudgetConfig {
            capacity: 1.5,
            per_request: 1.0,
        });
        for _ in 0..100 {
            b.on_fresh_request();
        }
        assert!(
            (b.tokens() - 1.5).abs() < 1e-9,
            "bank never exceeds capacity"
        );
    }

    #[test]
    fn breaker_opens_on_sustained_failure_and_recovers_via_probe() {
        let cfg = BreakerConfig {
            sample_window_ns: 10_000,
            min_samples: 4,
            failure_threshold: 0.75,
            open_ns: 1_000,
        };
        let mut br = CircuitBreaker::new(cfg);
        assert_eq!(br.state(), BreakerState::Closed);
        // Three failures among four samples: 0.75 ≥ threshold → open.
        assert!(!br.on_failure(10, 1));
        assert!(!br.on_failure(20, 2));
        br.on_success(25, 3);
        assert!(br.on_failure(30, 4), "fourth sample trips the breaker");
        assert_eq!(br.state(), BreakerState::Open);
        // While open, sends are rejected...
        assert_eq!(br.admit(100, 5), BreakerDecision::Reject);
        // ...until open_ns elapses: the next send is the probe.
        assert_eq!(br.admit(30 + 1_000, 6), BreakerDecision::SendProbe);
        assert_eq!(br.state(), BreakerState::HalfOpen);
        assert_eq!(br.probe(), Some(6));
        // Other sends during the probe are still rejected.
        assert_eq!(br.admit(30 + 1_001, 7), BreakerDecision::Reject);
        // The probe succeeding closes the breaker with a clean window.
        assert!(br.on_success(1_050, 6));
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.admit(2_000, 8), BreakerDecision::Send);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let cfg = BreakerConfig {
            sample_window_ns: 10_000,
            min_samples: 2,
            failure_threshold: 0.5,
            open_ns: 500,
        };
        let mut br = CircuitBreaker::new(cfg);
        br.on_failure(0, 1);
        assert!(br.on_failure(1, 2));
        assert_eq!(br.admit(600, 3), BreakerDecision::SendProbe);
        assert!(br.on_failure(700, 3), "failed probe re-opens");
        assert_eq!(br.state(), BreakerState::Open);
        // The open window restarts from the failed probe.
        assert_eq!(br.admit(1_100, 4), BreakerDecision::Reject);
        assert_eq!(br.admit(1_200, 4), BreakerDecision::SendProbe);
    }

    #[test]
    fn shed_probe_reopens_half_open_breaker() {
        // The half-open probe's reply can itself be a `SHED` fast-reject:
        // the server is up but still refusing work. The client feeds that
        // to `on_failure` with the probe's req_id, which must send the
        // breaker straight back to Open (not merely push a sample) and
        // restart the open window from the shed's timestamp.
        let cfg = BreakerConfig {
            sample_window_ns: 10_000,
            min_samples: 2,
            failure_threshold: 0.5,
            open_ns: 1_000,
        };
        let mut br = CircuitBreaker::new(cfg);
        br.on_failure(0, 1);
        assert!(br.on_failure(10, 2));
        assert_eq!(br.admit(1_010, 3), BreakerDecision::SendProbe);
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // SHED reply for the probe arrives promptly (no timeout needed).
        assert!(br.on_failure(1_020, 3), "shed probe re-trips to Open");
        assert_eq!(br.state(), BreakerState::Open);
        assert_eq!(br.probe(), None, "probe slot cleared");
        // Open window restarts at the shed, not the original trip.
        assert_eq!(br.admit(1_500, 4), BreakerDecision::Reject);
        assert_eq!(br.admit(2_020, 4), BreakerDecision::SendProbe);
        // A SHED for a *stale* id while half-open must not re-trip.
        assert!(
            !br.on_failure(2_030, 99),
            "non-probe failure ignored in HalfOpen"
        );
        assert_eq!(br.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn jitter_seed_for_decorrelates_clients() {
        // Same base seed, different client ids → different backoff
        // sequences; same (base, id) → reproducible.
        let base = 42;
        let mut a = SplitMix64::new(jitter_seed_for(base, 0));
        let mut b = SplitMix64::new(jitter_seed_for(base, 1));
        let mut a2 = SplitMix64::new(jitter_seed_for(base, 0));
        let (cfg_base, cap) = (1_000u64, 64_000u64);
        let (mut pa, mut pb, mut pa2) = (cfg_base, cfg_base, cfg_base);
        let mut diverged = false;
        for _ in 0..16 {
            pa = decorrelated_jitter(&mut a, cfg_base, pa, cap);
            pb = decorrelated_jitter(&mut b, cfg_base, pb, cap);
            pa2 = decorrelated_jitter(&mut a2, cfg_base, pa2, cap);
            assert_eq!(pa, pa2, "same (base, id) replays identically");
            diverged |= pa != pb;
        }
        assert!(
            diverged,
            "distinct client ids must not share a backoff sequence"
        );
    }

    #[test]
    fn breaker_stays_closed_under_partial_overload() {
        // 50% failures must not trip a 90% threshold: partial overload is
        // the retry budget's job, not the breaker's.
        let mut br = CircuitBreaker::new(BreakerConfig::default());
        for i in 0..100u32 {
            if i % 2 == 0 {
                br.on_failure(u64::from(i), i);
            } else {
                br.on_success(u64::from(i), i);
            }
            assert_eq!(br.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn breaker_survives_bursty_failure_batches() {
        // Timeouts conclude in timer-sweep bursts. A burst of failures
        // must not trip the breaker while the same time window also holds
        // plenty of successes — only a *sustained* failure fraction over
        // the window may.
        let mut br = CircuitBreaker::new(BreakerConfig {
            sample_window_ns: 1_000,
            min_samples: 4,
            failure_threshold: 0.9,
            open_ns: 1_000,
        });
        let mut t = 0u64;
        let mut id = 0u32;
        for _round in 0..20 {
            // A burst of 30 successes, then a burst of 30 timeouts, all
            // inside one window span: fraction stays at 50%.
            for _ in 0..30 {
                br.on_success(t, id);
                id += 1;
            }
            t += 100;
            for _ in 0..30 {
                assert!(!br.on_failure(t, id), "bursty 50% mix must not trip");
                id += 1;
            }
            t += 100;
            assert_eq!(br.state(), BreakerState::Closed);
        }
        // Once the successes age out of the window, the same bursts do
        // trip it: sustained 100% failure.
        t += 10_000;
        let mut tripped = false;
        for _ in 0..30 {
            tripped |= br.on_failure(t, id);
            id += 1;
        }
        assert!(tripped, "sustained failures past the window trip");
        assert_eq!(br.state(), BreakerState::Open);
    }

    #[test]
    fn decorrelated_jitter_is_bounded_and_spread() {
        let mut rng = SplitMix64::new(7);
        let base = 1_000u64;
        let cap = 64_000u64;
        let mut prev = base;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let s = decorrelated_jitter(&mut rng, base, prev, cap);
            assert!(s >= base.min(cap) && s <= cap, "jitter in [base, cap]");
            seen.insert(s);
            prev = s;
        }
        assert!(seen.len() > 50, "jitter actually spreads retry times");
        // Overflow safety: a huge prev saturates instead of wrapping.
        let s = decorrelated_jitter(&mut rng, base, u64::MAX - 1, 0);
        assert!(s >= base);
    }
}
