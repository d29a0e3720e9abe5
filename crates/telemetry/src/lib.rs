//! `cf-telemetry`: virtual-time observability for the Cornflakes datapath.
//!
//! Four instruments behind one cheaply clonable [`Telemetry`] handle:
//!
//! 1. **Span tracing** ([`trace`]): per-request phase spans stamped in
//!    *virtual* nanoseconds from the shared [`cf_sim::Clock`], stored in a
//!    preallocated ring buffer and exportable as Chrome Trace Event JSON
//!    (open in `chrome://tracing` or Perfetto). Virtual-time charges are
//!    attributed to the innermost open span via [`cf_sim::ChargeObserver`].
//! 2. **Metrics** ([`metrics`]): named counters, gauges, and virtual-time
//!    histograms, snapshotable to JSON and Prometheus text. A layer owns
//!    the cells it counts in from construction; attaching a handle *adopts*
//!    those cells by name ([`Telemetry::adopt_counter`]) and a name reads as
//!    the sum of its cells — nothing is minted, seeded or reset on attach.
//!    The hybrid serializer's per-field choice (§3.2.1) is read here too,
//!    from the cells cf-mem counts it in: `mem.arena.copies` /
//!    `mem.arena.bytes_copied` for copies, `mem.registry.recover_lookups` /
//!    `mem.registry.recover_hits` for `recover_ptr`.
//! 3. **Exemplars** ([`metrics::Exemplar`]): each histogram keeps the
//!    request id of the largest value per magnitude group, the link from a
//!    tail bucket to a recorded request.
//! 4. The request-scoped **flight recorder** ([`flight`]): one ring shared
//!    across *machines* (client and server carry the same recorder), so a
//!    request's events interleave into a single cross-layer timeline keyed
//!    by the wire's request id. The handle carries it
//!    ([`Telemetry::with_flight`] / [`Telemetry::flight`]) beside the other
//!    three, so a flight-only handle exists.
//!
//! The span tracer and the flight recorder keep their records in one kind
//! of preallocated overwrite-on-wrap ring; each counts its own closed and
//! dropped records.
//!
//! A disabled handle ([`Telemetry::disabled`]) is a `None` inside an
//! `Option<Rc<_>>` beside a disabled recorder (another `None`): every
//! hot-path operation short-circuits on one branch and no memory is
//! allocated, so instrumented code needs no cfg gates.
//!
//! Telemetry is intentionally `!Send` (`Rc`/`RefCell`-based) because each
//! simulated machine is single-threaded by construction. `cf-mem` — just as
//! core-local, but below this crate in the dependency graph — publishes
//! `Arc<AtomicU64>` cells instead, adopted via
//! [`Telemetry::register_external`].

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cf_sim::cost::{Category, ChargeObserver, NUM_CATEGORIES};
use cf_sim::{Clock, Sim};

use json::Value;

pub mod alloctrack;
pub mod flight;
pub mod json;
pub mod metrics;
mod ring;
pub mod trace;

pub use alloctrack::{alloc_count, AllocTrap, CountingAlloc};
pub use flight::{FlightEvent, FlightRecord, FlightRecorder};
pub use metrics::{Counter, Gauge, MetricsRegistry, VtHistogram};
pub use trace::{SpanRecord, Tracer};

/// Completed spans an enabled handle's trace ring retains.
const SPAN_CAPACITY: usize = 16_384;

struct Inner {
    clock: Clock,
    tracer: RefCell<Tracer>,
    metrics: MetricsRegistry,
}

impl ChargeObserver for Inner {
    // Called by `Sim` while its core is mutably borrowed: this must not (and
    // does not) call back into `Sim` — it only touches telemetry-owned state.
    fn on_charge(&self, cat: Category, ns: f64) {
        self.tracer.borrow_mut().on_charge(cat, ns);
    }
}

/// Handle to one machine's telemetry. Cloning shares the underlying state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
    /// Beside `inner`, not inside it: a flight-only handle exists, and
    /// `flight().record()` is one branch whatever `inner` is.
    flight: FlightRecorder,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (metrics, flight) = (self.enabled(), self.flight.is_enabled());
        write!(f, "Telemetry(metrics: {metrics}, flight: {flight})")
    }
}

impl Telemetry {
    /// A no-op handle: spans, metrics and flight events all short-circuit.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            flight: FlightRecorder::disabled(),
        }
    }

    /// Creates an enabled handle reading virtual time from `clock`.
    ///
    /// This does **not** hook charge attribution; prefer
    /// [`Telemetry::attach`] which also installs the [`ChargeObserver`].
    pub fn new(clock: Clock) -> Self {
        Telemetry {
            inner: Some(Rc::new(Inner {
                clock,
                tracer: RefCell::new(Tracer::new(SPAN_CAPACITY)),
                metrics: MetricsRegistry::default(),
            })),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Creates an enabled handle for `sim`'s machine and installs it as the
    /// machine's charge observer, so per-category cost flows into spans.
    pub fn attach(sim: &Sim) -> Self {
        let t = Telemetry::new(sim.clock());
        if let Some(inner) = &t.inner {
            sim.set_charge_observer(Some(inner.clone()));
        }
        t
    }

    /// Whether this handle records spans and metrics (flight events are
    /// [`FlightRecorder::is_enabled`] on [`Telemetry::flight`]).
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- flight recorder ------------------------------------------------

    /// This handle carrying `fr` as its flight recorder.
    /// `Telemetry::disabled().with_flight(&fr)` is a flight-only handle.
    pub fn with_flight(&self, fr: &FlightRecorder) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            flight: fr.clone(),
        }
    }

    /// The flight recorder this handle carries (disabled by default).
    #[inline]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// What installing this handle over `prev` leaves installed: each half
    /// (metrics, flight) this handle has disabled stays `prev`'s, so
    /// attaching metrics and attaching a recorder commute.
    pub fn over(&self, prev: &Telemetry) -> Telemetry {
        let ours = self.flight.is_enabled();
        Telemetry {
            inner: self.inner.clone().or_else(|| prev.inner.clone()),
            flight: if ours { &self.flight } else { &prev.flight }.clone(),
        }
    }

    // ---- spans ----------------------------------------------------------

    /// Opens a span; it closes when the returned guard drops (LIFO).
    /// The span inherits the enclosing span's request id.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_open(name, None)
    }

    /// Opens a root span tagged with an explicit request id.
    #[inline]
    pub fn request_span(&self, name: &'static str, req_id: u64) -> SpanGuard {
        self.span_open(name, Some(req_id))
    }

    fn span_open(&self, name: &'static str, req_id: Option<u64>) -> SpanGuard {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now();
            inner.tracer.borrow_mut().open(name, req_id, now);
        }
        SpanGuard {
            inner: self.inner.clone(),
        }
    }

    /// Runs `f` with the tracer (no-op returning `None` when disabled).
    pub fn with_tracer<R>(&self, f: impl FnOnce(&Tracer) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&i.tracer.borrow()))
    }

    /// Per-category self-time totals over all spans (closed + open).
    /// Disabled handles return zeros.
    pub fn span_cat_totals(&self) -> [f64; NUM_CATEGORIES] {
        self.with_tracer(|t| t.span_cat_totals())
            .unwrap_or([0.0; NUM_CATEGORIES])
    }

    /// Charges observed while no span was open.
    pub fn orphan_cat_totals(&self) -> [f64; NUM_CATEGORIES] {
        self.with_tracer(|t| t.orphan_cat_ns)
            .unwrap_or([0.0; NUM_CATEGORIES])
    }

    /// Exports the span ring as Chrome Trace Event JSON (see [`Tracer`]).
    pub fn chrome_trace_json(&self) -> String {
        self.with_tracer(|t| t.chrome_trace_json())
            .unwrap_or_else(|| "[]\n".to_string())
    }

    // ---- metrics --------------------------------------------------------

    /// Adopts `cell`, which its layer owns and keeps writing, as (one of)
    /// the counter(s) named `name`. No-op when disabled.
    pub fn adopt_counter(&self, name: &str, cell: &Counter) {
        if let Some(inner) = &self.inner {
            inner.metrics.adopt_counter(name, cell);
        }
    }

    /// Adopts `cell` as (one of) the gauge(s) named `name`.
    pub fn adopt_gauge(&self, name: &str, cell: &Gauge) {
        if let Some(inner) = &self.inner {
            inner.metrics.adopt_gauge(name, cell);
        }
    }

    /// Histogram handle for `name` (unregistered when disabled).
    pub fn histogram(&self, name: &str) -> VtHistogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name),
            None => VtHistogram::default(),
        }
    }

    /// Adopts a thread-safe external cell (e.g. cf-mem pool stats) that
    /// snapshots read at collection time. No-op when disabled.
    pub fn register_external(&self, name: &str, cell: Arc<AtomicU64>) {
        if let Some(inner) = &self.inner {
            inner.metrics.register_external(name, cell);
        }
    }

    /// Runs `f` with the metrics registry (no-op returning `None` when
    /// disabled).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|i| f(&i.metrics))
    }

    /// Current value of counter `name` (externals included): the sum of
    /// the cells adopted under it; 0 if absent or disabled.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with_metrics(|m| m.counter_value(name)).unwrap_or(0)
    }

    /// Current value of gauge `name`; 0 if absent or disabled.
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.with_metrics(|m| m.gauge_value(name)).unwrap_or(0.0)
    }

    // ---- exporters ------------------------------------------------------

    /// Snapshot of counters, gauges, histograms and span bookkeeping as one
    /// JSON object.
    pub fn snapshot_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return Value::Obj(Vec::new()).render();
        };
        let tracer = inner.tracer.borrow();
        let spans = Value::obj([
            ("closed", Value::Num(tracer.spans_closed as f64)),
            ("dropped", Value::Num(tracer.dropped_spans as f64)),
            ("open", Value::Num(tracer.open_depth() as f64)),
            ("orphan_ns", Value::Num(tracer.orphan_cat_ns.iter().sum())),
        ]);
        let [counters, gauges, histograms] = inner.metrics.snapshot_members();
        Value::obj([
            ("virtual_now_ns", Value::Num(inner.clock.now() as f64)),
            counters,
            gauges,
            histograms,
            ("spans", spans),
        ])
        .render()
    }

    /// Counters/gauges/histograms in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.with_metrics(|m| m.prometheus_text())
            .unwrap_or_default()
    }
}

/// RAII guard closing its span on drop.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    inner: Option<Rc<Inner>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now();
            inner.tracer.borrow_mut().close(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_sim::{MachineProfile, Sim};

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        {
            let _g = t.request_span("request", 1);
            t.adopt_counter("x", &Counter::default());
            t.flight().record(1, 0, FlightEvent::ClientSend);
        }
        assert_eq!(t.snapshot_json(), "{}\n");
        assert_eq!(t.chrome_trace_json(), "[]\n");
        assert_eq!(t.counter_value("x"), 0);
        assert!(t.flight().is_empty());
    }

    #[test]
    fn the_handle_carries_the_recorder_beside_the_metrics() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let fr = FlightRecorder::with_capacity(8);
        // A flight-only handle records events and nothing else.
        let flight_only = Telemetry::disabled().with_flight(&fr);
        assert!(!flight_only.enabled());
        flight_only.flight().record(7, 1, FlightEvent::ClientSend);
        assert_eq!(fr.len(), 1);
        // Installing metrics and installing a recorder commute.
        let metrics_only = Telemetry::attach(&sim);
        for installed in [
            flight_only.over(&metrics_only.over(&Telemetry::disabled())),
            metrics_only.over(&flight_only.over(&Telemetry::disabled())),
            metrics_only.with_flight(&fr),
        ] {
            assert!(installed.enabled());
            installed.flight().record(7, 2, FlightEvent::DedupHit);
            let c = Counter::default();
            installed.adopt_counter("shared", &c);
            c.inc();
        }
        assert_eq!(fr.len(), 4, "every handle wrote the one ring");
        assert_eq!(
            metrics_only.counter_value("shared"),
            3,
            "and the one registry"
        );
    }

    #[test]
    fn attach_observes_charges_into_spans() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let t = Telemetry::attach(&sim);
        {
            let _req = t.request_span("request", 42);
            sim.charge(Category::Rx, 100.0);
            {
                let _app = t.span("app");
                sim.charge(Category::AppGet, 30.0);
            }
            sim.charge(Category::Tx, 20.0);
        }
        let totals = t.span_cat_totals();
        assert_eq!(totals[Category::Rx.index()], 100.0);
        assert_eq!(totals[Category::AppGet.index()], 30.0);
        assert_eq!(totals[Category::Tx.index()], 20.0);
        // Span totals agree with the sim's own attribution.
        let attr = sim.attribution();
        for cat in Category::all() {
            assert_eq!(totals[cat.index()], attr.get(cat));
        }
        // Spans carry virtual timestamps.
        t.with_tracer(|tr| {
            let spans: Vec<_> = tr.iter_chronological().cloned().collect();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "app");
            assert_eq!(spans[0].req_id, 42);
            assert_eq!(spans[1].name, "request");
            assert_eq!(spans[1].end_ns, 150, "request span spans all charges");
        });
    }

    #[test]
    fn charges_outside_spans_are_orphans() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let t = Telemetry::attach(&sim);
        sim.charge(Category::Other, 5.0);
        assert_eq!(t.orphan_cat_totals()[Category::Other.index()], 5.0);
        assert_eq!(t.span_cat_totals().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn snapshot_json_is_valid_and_complete() {
        let sim = Sim::new(MachineProfile::tiny_for_tests());
        let t = Telemetry::attach(&sim);
        let (frames, occupancy) = (Counter::default(), Gauge::default());
        t.adopt_counter("nic.tx_frames", &frames);
        t.adopt_gauge("mem.pool.occupancy", &occupancy);
        frames.add(3);
        occupancy.set(0.5);
        t.histogram("kv.latency_ns").record(1_234);
        {
            let _g = t.request_span("request", 7);
            sim.charge(Category::Rx, 10.0);
        }
        let snap = t.snapshot_json();
        json::validate(&snap).expect("valid snapshot JSON");
        for needle in [
            "\"nic.tx_frames\": 3",
            "\"mem.pool.occupancy\": 0.5",
            "\"kv.latency_ns\"",
            "\"spans\"",
            "\"virtual_now_ns\": 10",
        ] {
            assert!(snap.contains(needle), "snapshot missing {needle}: {snap}");
        }
        let prom = t.prometheus_text();
        assert!(prom.contains("nic_tx_frames_total 3"));
    }
}
