//! `cf-telemetry`: virtual-time observability for the Cornflakes datapath.
//!
//! Three instruments behind one cheaply clonable [`Telemetry`] handle:
//!
//! 1. The request-scoped **flight recorder** ([`flight`]): one log of
//!    typed records shared across *machines* (client and server carry the
//!    same recorder), so a request's lifecycle events interleave into a
//!    single cross-layer timeline keyed by the wire's request id. A
//!    **span** ([`Telemetry::span`]) is one of those records: phase spans
//!    are timed in *virtual* nanoseconds from the shared
//!    [`cf_sim::Clock`], and each virtual-time charge is attributed to the
//!    innermost open span via [`cf_sim::ChargeObserver`]. A closed span
//!    goes into the recorder the handle carries ([`Telemetry::with_flight`]
//!    / [`Telemetry::flight`]) or, when it carries none, into one that
//!    [`Telemetry::attach`] preallocated. The handle keeps the open-span
//!    stack and the per-category running totals
//!    ([`Telemetry::span_cat_totals`]), which survive overwrites of the
//!    log. Either log exports as Chrome Trace Event JSON
//!    ([`Telemetry::chrome_trace_json`]).
//! 2. **Metrics** ([`metrics`]): named counters, gauges, and virtual-time
//!    histograms, exported as one JSON snapshot
//!    ([`Telemetry::snapshot_json`]). A layer owns
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
//!
//! A disabled handle ([`Telemetry::disabled`]) is a `None` inside an
//! `Option<Rc<_>>` beside a disabled recorder (another `None`): every
//! hot-path operation short-circuits on one branch and no memory is
//! allocated, so instrumented code needs no cfg gates. A flight-only
//! handle records lifecycle events and no spans.
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

pub use alloctrack::{alloc_count, AllocTrap, CountingAlloc};
pub use flight::{FlightEvent, FlightRecord, FlightRecorder};
pub use metrics::{Counter, Gauge, MetricsRegistry, VtHistogram};

/// Records held by the recorder an enabled handle preallocates for its
/// spans, used while the handle carries no recorder of its own.
const SPAN_CAPACITY: usize = 16_384;

/// A span opened and not yet closed.
struct OpenSpan {
    name: &'static str,
    req_id: u32,
    start_ns: u64,
    cat_ns: [f64; NUM_CATEGORIES],
}

/// The open-span stack and the per-category running totals.
#[derive(Default)]
struct Spans {
    stack: Vec<OpenSpan>,
    closed: u64,
    /// Self time summed over closed spans: exact however many of their
    /// records the log has overwritten.
    closed_cat_ns: [f64; NUM_CATEGORIES],
    /// Charges observed while no span was open.
    orphan_cat_ns: [f64; NUM_CATEGORIES],
}

struct Inner {
    clock: Clock,
    spans: RefCell<Spans>,
    /// Where spans go from a handle that carries no recorder.
    own: FlightRecorder,
    metrics: MetricsRegistry,
}

impl ChargeObserver for Inner {
    // Called by `Sim` while its core is mutably borrowed: this must not (and
    // does not) call back into `Sim` — it only touches telemetry-owned state.
    fn on_charge(&self, cat: Category, ns: f64) {
        let mut spans = self.spans.borrow_mut();
        match spans.stack.last_mut() {
            Some(open) => open.cat_ns[cat.index()] += ns,
            None => spans.orphan_cat_ns[cat.index()] += ns,
        }
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
                spans: RefCell::new(Spans {
                    stack: Vec::with_capacity(64),
                    ..Spans::default()
                }),
                own: FlightRecorder::with_capacity(SPAN_CAPACITY),
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

    /// This handle carrying `fr` as its flight recorder, which then takes
    /// its spans too. `Telemetry::disabled().with_flight(&fr)` is a
    /// flight-only handle.
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

    /// Where this handle's spans go: the recorder it carries, else the one
    /// attach preallocated; `None` for a handle without spans.
    fn span_log(&self) -> Option<(&Rc<Inner>, &FlightRecorder)> {
        let inner = self.inner.as_ref()?;
        let carried = Some(&self.flight).filter(|fr| fr.is_enabled());
        Some((inner, carried.unwrap_or(&inner.own)))
    }

    // ---- spans ----------------------------------------------------------

    /// Opens a span; it closes when the returned guard drops (LIFO).
    /// The span inherits the enclosing span's request id.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_open(name, None)
    }

    /// Opens a root span tagged with the wire's request id.
    #[inline]
    pub fn request_span(&self, name: &'static str, req_id: u32) -> SpanGuard {
        self.span_open(name, Some(req_id))
    }

    fn span_open(&self, name: &'static str, req_id: Option<u32>) -> SpanGuard {
        let Some((inner, log)) = self.span_log() else {
            return SpanGuard(None, 0);
        };
        let start_ns = inner.clock.now();
        let mut spans = inner.spans.borrow_mut();
        let req_id = req_id.unwrap_or_else(|| spans.stack.last().map_or(0, |s| s.req_id));
        spans.stack.push(OpenSpan {
            name,
            req_id,
            start_ns,
            cat_ns: [0.0; NUM_CATEGORIES],
        });
        SpanGuard(Some((inner.clone(), log.clone())), spans.stack.len() - 1)
    }

    /// Per-category self-time totals over all spans (closed + open).
    /// Disabled handles return zeros.
    pub fn span_cat_totals(&self) -> [f64; NUM_CATEGORIES] {
        let Some(inner) = &self.inner else {
            return [0.0; NUM_CATEGORIES];
        };
        let spans = inner.spans.borrow();
        let mut totals = spans.closed_cat_ns;
        for open in &spans.stack {
            for (t, ns) in totals.iter_mut().zip(open.cat_ns) {
                *t += ns;
            }
        }
        totals
    }

    /// Charges observed while no span was open.
    pub fn orphan_cat_totals(&self) -> [f64; NUM_CATEGORIES] {
        self.inner
            .as_ref()
            .map_or([0.0; NUM_CATEGORIES], |i| i.spans.borrow().orphan_cat_ns)
    }

    /// Exports the held records of the recorder this handle's spans go to
    /// (its own recorder for a flight-only handle) as Chrome Trace Event
    /// JSON (see [`FlightRecorder::chrome_trace_json`]).
    pub fn chrome_trace_json(&self) -> String {
        self.span_log()
            .map_or(&self.flight, |(_, log)| log)
            .chrome_trace_json()
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
    /// JSON object; `spans.dropped` counts the records the span log has
    /// overwritten.
    pub fn snapshot_json(&self) -> String {
        let Some((inner, log)) = self.span_log() else {
            return Value::Obj(Vec::new()).render();
        };
        let spans = inner.spans.borrow();
        let spans = Value::obj([
            ("closed", Value::Num(spans.closed as f64)),
            ("dropped", Value::Num(log.dropped() as f64)),
            ("open", Value::Num(spans.stack.len() as f64)),
            ("orphan_ns", Value::Num(spans.orphan_cat_ns.iter().sum())),
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
}

/// RAII guard closing its span on drop: the span's totals join the running
/// sums and its record goes into the log chosen when it opened. It holds
/// its span's place in the open-span stack.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard(Option<(Rc<Inner>, FlightRecorder)>, usize);

impl SpanGuard {
    /// Re-tags this span with the wire's request id: for a span opened
    /// before the frame that carries the id was read. Spans opened inside
    /// it earlier keep the id they inherited.
    #[inline]
    pub fn set_req_id(&self, req_id: u32) {
        let Some((inner, _)) = &self.0 else { return };
        if let Some(open) = inner.spans.borrow_mut().stack.get_mut(self.1) {
            open.req_id = req_id;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, log)) = &self.0 else { return };
        let now = inner.clock.now();
        let mut spans = inner.spans.borrow_mut();
        let Some(open) = spans.stack.pop() else {
            return;
        };
        spans.closed += 1;
        let mut self_ns = 0.0;
        for (total, ns) in spans.closed_cat_ns.iter_mut().zip(open.cat_ns) {
            *total += ns;
            self_ns += ns;
        }
        let depth = spans.stack.len() as u16;
        drop(spans);
        let span = FlightEvent::Span {
            name: open.name,
            depth,
            dur_ns: now.saturating_sub(open.start_ns),
            self_ns,
        };
        log.record(open.req_id, now, span);
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
        drop(flight_only.span("no spans without metrics"));
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
        assert_eq!(fr.len(), 4, "every handle wrote the one log");
        assert_eq!(
            metrics_only.counter_value("shared"),
            3,
            "and the one registry"
        );
    }

    /// A handle on a bare clock whose spans go to a recorder of `capacity`,
    /// and a way to charge it as its machine would.
    fn traced(capacity: usize) -> (Telemetry, FlightRecorder, Clock) {
        let clock = Clock::new();
        let fr = FlightRecorder::with_capacity(capacity);
        (Telemetry::new(clock.clone()).with_flight(&fr), fr, clock)
    }

    fn charge(t: &Telemetry, cat: Category, ns: f64) {
        t.inner.as_ref().expect("enabled").on_charge(cat, ns);
    }

    /// `(name, req_id, depth, self_ns)` of every held span record.
    fn spans(fr: &FlightRecorder) -> Vec<(&'static str, u32, u16, f64)> {
        let span = |r: &FlightRecord| match r.event {
            FlightEvent::Span {
                name,
                depth,
                self_ns,
                ..
            } => Some((name, r.req_id, depth, self_ns)),
            _ => None,
        };
        fr.snapshot().iter().filter_map(span).collect()
    }

    #[test]
    fn innermost_span_gets_the_charge_and_children_inherit_the_id() {
        let (t, fr, clock) = traced(16);
        {
            let _req = t.request_span("request", 7);
            charge(&t, Category::Rx, 10.0);
            clock.advance(10);
            {
                let _de = t.span("deserialize");
                charge(&t, Category::Deserialize, 5.0);
                clock.advance(5);
            }
            charge(&t, Category::Tx, 2.0);
            clock.advance(2);
        }
        assert_eq!(
            spans(&fr),
            [("deserialize", 7, 1, 5.0), ("request", 7, 0, 12.0)],
            "self time only, recorded at the close"
        );
        assert_eq!(fr.snapshot()[1].ts_ns, 17);
        let totals = t.span_cat_totals();
        assert_eq!(totals[Category::Rx.index()], 10.0);
        assert_eq!(totals[Category::Deserialize.index()], 5.0);
        assert_eq!(totals[Category::Tx.index()], 2.0);
    }

    #[test]
    fn a_re_tag_reaches_its_own_span_and_later_children_not_an_open_one() {
        let (t, fr, _clock) = traced(16);
        {
            let rx = t.span("rx");
            {
                let _child = t.span("parse");
                rx.set_req_id(9);
            }
            let _later = t.span("classify");
        }
        assert_eq!(
            spans(&fr),
            [
                ("parse", 0, 1, 0.0),
                ("classify", 9, 1, 0.0),
                ("rx", 9, 0, 0.0)
            ]
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
        // With no recorder installed, the spans went to attach's own.
        let own = &t.inner.as_ref().expect("enabled").own;
        assert_eq!(own.capacity(), SPAN_CAPACITY);
        assert_eq!(
            spans(own),
            [("app", 42, 1, 30.0), ("request", 42, 0, 120.0)]
        );
        assert_eq!(own.snapshot()[1].ts_ns, 150, "stamped at the close");
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
    fn totals_survive_the_log_overwriting_spans() {
        let (t, fr, clock) = traced(2);
        for i in 0..5u32 {
            let _s = t.request_span("s", i);
            charge(&t, Category::Rx, 1.0);
            clock.advance(5);
        }
        let ids: Vec<u32> = spans(&fr).iter().map(|s| s.1).collect();
        assert_eq!(ids, [3, 4], "oldest overwritten first");
        assert_eq!(fr.dropped(), 3);
        assert_eq!(t.span_cat_totals()[Category::Rx.index()], 5.0);
        let snap = json::parse(&t.snapshot_json()).expect("snapshot parses");
        let spans = snap.get("spans").expect("span bookkeeping");
        assert_eq!(spans.get("closed").and_then(Value::as_u64), Some(5));
        assert_eq!(spans.get("dropped").and_then(Value::as_u64), Some(3));
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
    }

    /// Parses the Chrome export and validates every event against the Trace
    /// Event Format slice we emit: complete (`ph:"X"`, category `vt`, with
    /// a `dur`) and instant (`ph:"i"`, category `flight`) events with a
    /// string `name`, numeric `ts`/`pid`/`tid`, and an `args` object
    /// carrying a numeric `req_id`.
    fn check_chrome_schema(trace: &str) -> Vec<Value> {
        let doc = json::parse(trace).expect("trace parses");
        let events = doc.as_arr().expect("top level is an array").to_vec();
        for ev in &events {
            let field = |k: &str| ev.get(k).unwrap_or_else(|| panic!("{k} in {ev:?}"));
            assert!(field("name").as_str().is_some());
            match field("ph").as_str() {
                Some("X") => {
                    assert_eq!(field("cat").as_str(), Some("vt"));
                    assert!(field("dur").as_f64().unwrap() >= 0.0);
                }
                Some("i") => assert_eq!(field("cat").as_str(), Some("flight")),
                ph => panic!("unexpected ph {ph:?}"),
            }
            assert!(field("ts").as_f64().unwrap() >= 0.0);
            assert_eq!(field("pid").as_u64(), Some(0));
            assert!(field("tid").as_u64().is_some());
            assert!(field("args").get("req_id").unwrap().as_u64().is_some());
        }
        events
    }

    fn arg(ev: &Value, key: &str) -> Option<f64> {
        ev.get("args")?.get(key)?.as_f64()
    }

    #[test]
    fn chrome_export_has_spans_with_self_time_and_instant_events() {
        let (t, fr, clock) = traced(16);
        clock.advance_to(1_000);
        {
            let _req = t.request_span("request", 1);
            fr.record(1, clock.now(), FlightEvent::Serialize { entries: 2 });
            clock.advance_to(1_200);
            let _app = t.span("app \"quoted\"");
            charge(&t, Category::AppGet, 50.0);
            clock.advance_to(1_500);
        }
        let trace = t.chrome_trace_json();
        assert_eq!(trace, fr.chrome_trace_json(), "one exporter");
        let events = check_chrome_schema(&trace);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["i", "X", "X"]);
        assert_eq!(
            events[0].get("ts").unwrap().as_f64(),
            Some(1.0),
            "µs virtual time"
        );
        assert_eq!(arg(&events[0], "entries"), Some(2.0));
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("app \"quoted\"")
        );
        assert_eq!(arg(&events[1], "self_ns"), Some(50.0));
        assert_eq!(
            arg(&events[2], "self_ns"),
            None,
            "zero self time is left out"
        );
        for ev in &events {
            assert_eq!(arg(ev, "req_id"), Some(1.0));
        }
    }

    #[test]
    fn nested_spans_export_with_depth_as_tid_and_contained_intervals() {
        let (t, fr, clock) = traced(16);
        {
            let _request = t.request_span("request", 1);
            clock.advance_to(2_000);
            {
                let _inner = t.span("inner");
                clock.advance_to(3_000);
                let _innermost = t.span("innermost");
                clock.advance_to(4_000);
                drop(_innermost);
                clock.advance_to(6_000);
            }
            clock.advance_to(10_000);
        }
        let events = check_chrome_schema(&fr.chrome_trace_json());
        // Recorded at the close: innermost, inner, request.
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["innermost", "inner", "request"]);
        let tids: Vec<u64> = events
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(tids, [2, 1, 0], "tid encodes nesting depth");
        let iv = |e: &Value| {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            (ts, ts + e.get("dur").unwrap().as_f64().unwrap())
        };
        assert_eq!(
            [iv(&events[0]), iv(&events[1]), iv(&events[2])],
            [(3.0, 4.0), (2.0, 6.0), (0.0, 10.0)]
        );
    }

    #[test]
    fn overlapping_sibling_spans_do_not_bleed_attribution() {
        // Two requests' spans at the same depth whose intervals overlap
        // (as pipelined handling would): each keeps its own self time.
        let (t, fr, clock) = traced(16);
        let first = t.request_span("request", 1);
        charge(&t, Category::Rx, 10.0);
        clock.advance_to(100);
        drop(first);
        let second = t.request_span("request", 2);
        charge(&t, Category::Rx, 20.0);
        clock.advance_to(200);
        drop(second);
        let events = check_chrome_schema(&fr.chrome_trace_json());
        let self_ns: Vec<_> = events
            .iter()
            .map(|e| (arg(e, "req_id"), arg(e, "self_ns")))
            .collect();
        assert_eq!(self_ns, [(Some(1.0), Some(10.0)), (Some(2.0), Some(20.0))]);
    }

    #[test]
    fn zero_duration_and_skewed_spans_export_cleanly() {
        let (t, fr, clock) = traced(8);
        clock.advance_to(500);
        drop(t.request_span("instant", 3)); // same virtual instant
                                            // A clock that went back while the span was open never underflows.
        clock.advance_to(900);
        let skewed = t.request_span("clock-skew", 4);
        clock.reset();
        clock.advance_to(800);
        drop(skewed);
        let events = check_chrome_schema(&fr.chrome_trace_json());
        let times: Vec<_> = events
            .iter()
            .map(|e| {
                (
                    e.get("ts").unwrap().as_f64(),
                    e.get("dur").unwrap().as_f64(),
                )
            })
            .collect();
        assert_eq!(times, [(Some(0.5), Some(0.0)), (Some(0.8), Some(0.0))]);
    }
}
