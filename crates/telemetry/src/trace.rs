//! Virtual-time span tracing with a preallocated ring buffer and a Chrome
//! Trace Event exporter.
//!
//! Spans are timestamped from the shared [`cf_sim::Clock`], so a trace shows
//! *simulated* cost, not wall time. Opening and closing spans never
//! allocates: completed spans overwrite the oldest slot of a ring buffer
//! sized at construction, and the open-span stack reuses preallocated
//! capacity. Virtual-time charges reported through
//! [`cf_sim::ChargeObserver`] are attributed to the *innermost* open span
//! (self time), so summing `cat_ns` over all spans counts every charge
//! exactly once regardless of nesting — the property the Figure 11
//! cross-check test relies on.

use cf_sim::cost::{Category, NUM_CATEGORIES};

use crate::json::Value;
use crate::ring::Ring;

/// A completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Phase name (e.g. `"deserialize"`).
    pub name: &'static str,
    /// Request id the span belongs to (0 when outside any request).
    pub req_id: u64,
    /// Virtual start time in ns.
    pub start_ns: u64,
    /// Virtual end time in ns.
    pub end_ns: u64,
    /// Nesting depth at open time (0 = root).
    pub depth: u16,
    /// Self time charged per category while this span was innermost.
    pub cat_ns: [f64; NUM_CATEGORIES],
}

#[derive(Clone, Debug)]
struct OpenSpan {
    name: &'static str,
    req_id: u64,
    start_ns: u64,
    cat_ns: [f64; NUM_CATEGORIES],
}

/// Ring-buffered span storage plus running per-category totals.
#[derive(Debug)]
pub struct Tracer {
    ring: Ring<SpanRecord>,
    stack: Vec<OpenSpan>,
    /// Spans evicted from the ring because it was full.
    pub dropped_spans: u64,
    /// Total spans completed (ring-resident or evicted).
    pub spans_closed: u64,
    /// Per-category self time summed over *closed* spans (survives ring
    /// eviction, so totals are exact regardless of ring capacity).
    pub closed_cat_ns: [f64; NUM_CATEGORIES],
    /// Charges observed while no span was open.
    pub orphan_cat_ns: [f64; NUM_CATEGORIES],
}

impl Tracer {
    /// Creates a tracer whose ring holds `capacity` completed spans.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            ring: Ring::new(capacity),
            stack: Vec::with_capacity(64),
            dropped_spans: 0,
            spans_closed: 0,
            closed_cat_ns: [0.0; NUM_CATEGORIES],
            orphan_cat_ns: [0.0; NUM_CATEGORIES],
        }
    }

    /// Opens a span. `req_id = None` inherits the enclosing span's id.
    pub fn open(&mut self, name: &'static str, req_id: Option<u64>, now_ns: u64) {
        let req_id = req_id.unwrap_or_else(|| self.stack.last().map_or(0, |s| s.req_id));
        self.stack.push(OpenSpan {
            name,
            req_id,
            start_ns: now_ns,
            cat_ns: [0.0; NUM_CATEGORIES],
        });
    }

    /// Closes the innermost span (LIFO discipline; span guards enforce it).
    pub fn close(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        for (total, ns) in self.closed_cat_ns.iter_mut().zip(open.cat_ns.iter()) {
            *total += ns;
        }
        self.spans_closed += 1;
        let record = SpanRecord {
            name: open.name,
            req_id: open.req_id,
            start_ns: open.start_ns,
            end_ns: now_ns,
            depth: self.stack.len() as u16,
            cat_ns: open.cat_ns,
        };
        if self.ring.push(record) {
            self.dropped_spans += 1;
        }
    }

    /// Attributes a charge to the innermost open span (or the orphan bucket).
    #[inline]
    pub fn on_charge(&mut self, cat: Category, ns: f64) {
        match self.stack.last_mut() {
            Some(open) => open.cat_ns[cat.index()] += ns,
            None => self.orphan_cat_ns[cat.index()] += ns,
        }
    }

    /// Per-category totals over all closed spans plus currently open spans.
    /// Excludes orphan charges (see [`Tracer::orphan_cat_ns`]).
    pub fn span_cat_totals(&self) -> [f64; NUM_CATEGORIES] {
        let mut totals = self.closed_cat_ns;
        for open in &self.stack {
            for (t, ns) in totals.iter_mut().zip(open.cat_ns.iter()) {
                *t += ns;
            }
        }
        totals
    }

    /// Number of spans currently open.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Completed spans in chronological (oldest-first) order.
    pub fn iter_chronological(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Clears spans, totals, and the open stack (e.g. after warmup).
    pub fn reset(&mut self) {
        self.ring.clear();
        self.stack.clear();
        self.dropped_spans = 0;
        self.spans_closed = 0;
        self.closed_cat_ns = [0.0; NUM_CATEGORIES];
        self.orphan_cat_ns = [0.0; NUM_CATEGORIES];
    }

    /// Exports ring-resident spans as Chrome Trace Event JSON: a bare array
    /// of `ph:"X"` (complete) events, `ts`/`dur` in microseconds of virtual
    /// time. Loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let event = |span: &SpanRecord| {
            let cats = Category::all()
                .into_iter()
                .filter(|cat| span.cat_ns[cat.index()] > 0.0)
                .map(|cat| {
                    let ns = Value::Num(span.cat_ns[cat.index()]);
                    (format!("{}_ns", cat.label()), ns)
                });
            let mut args = vec![("req_id".to_string(), Value::Num(span.req_id as f64))];
            args.extend(cats);
            Value::obj([
                ("name", Value::Str(span.name.into())),
                ("cat", Value::Str("vt".into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(span.start_ns as f64 / 1_000.0)),
                (
                    "dur",
                    Value::Num(span.end_ns.saturating_sub(span.start_ns) as f64 / 1_000.0),
                ),
                ("pid", Value::Num(0.0)),
                ("tid", Value::Num(f64::from(span.depth))),
                ("args", Value::Obj(args)),
            ])
        };
        Value::Arr(self.iter_chronological().map(event).collect()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn innermost_span_gets_the_charge() {
        let mut t = Tracer::new(16);
        t.open("request", Some(7), 0);
        t.on_charge(Category::Rx, 10.0);
        t.open("deserialize", None, 10);
        t.on_charge(Category::Deserialize, 5.0);
        t.close(15); // deserialize
        t.on_charge(Category::Tx, 2.0);
        t.close(17); // request
        let spans: Vec<_> = t.iter_chronological().cloned().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "deserialize");
        assert_eq!(spans[0].req_id, 7, "req id inherited");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].cat_ns[Category::Deserialize.index()], 5.0);
        assert_eq!(spans[1].name, "request");
        assert_eq!(spans[1].cat_ns[Category::Rx.index()], 10.0);
        assert_eq!(
            spans[1].cat_ns[Category::Deserialize.index()],
            0.0,
            "self time only"
        );
        let totals = t.span_cat_totals();
        assert_eq!(totals[Category::Rx.index()], 10.0);
        assert_eq!(totals[Category::Deserialize.index()], 5.0);
        assert_eq!(totals[Category::Tx.index()], 2.0);
    }

    #[test]
    fn orphan_charges_tracked_separately() {
        let mut t = Tracer::new(4);
        t.on_charge(Category::Other, 3.0);
        assert_eq!(t.orphan_cat_ns[Category::Other.index()], 3.0);
        assert_eq!(t.span_cat_totals()[Category::Other.index()], 0.0);
    }

    #[test]
    fn ring_overflow_keeps_newest_and_exact_totals() {
        let mut t = Tracer::new(2);
        for i in 0..5u64 {
            t.open("s", Some(i), i * 10);
            t.on_charge(Category::Rx, 1.0);
            t.close(i * 10 + 5);
        }
        assert_eq!(t.spans_closed, 5);
        assert_eq!(t.dropped_spans, 3);
        let ids: Vec<u64> = t.iter_chronological().map(|s| s.req_id).collect();
        assert_eq!(ids, vec![3, 4], "oldest evicted first");
        assert_eq!(
            t.span_cat_totals()[Category::Rx.index()],
            5.0,
            "totals survive eviction"
        );
    }

    #[test]
    fn chronological_order_before_wraparound() {
        let mut t = Tracer::new(8);
        for i in 0..3u64 {
            t.open("s", Some(i), i);
            t.close(i + 1);
        }
        let ids: Vec<u64> = t.iter_chronological().map(|s| s.req_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_x_events() {
        let mut t = Tracer::new(8);
        t.open("request", Some(1), 1_000);
        t.open("app \"quoted\"", None, 1_200);
        t.on_charge(Category::AppGet, 50.0);
        t.close(1_500);
        t.close(2_000);
        let trace = t.chrome_trace_json();
        crate::json::validate(&trace).expect("valid trace JSON");
        assert!(trace.trim_start().starts_with('['));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"ts\": 1"), "µs virtual timestamps");
        assert!(trace.contains("\"get_ns\": 50"));
    }

    /// Parses the Chrome export and validates every event against the Trace
    /// Event Format schema slice we emit: complete (`ph:"X"`) events with
    /// string `name`/`cat`, numeric `ts`/`dur`/`pid`/`tid`, and an `args`
    /// object carrying a numeric `req_id`.
    fn check_chrome_schema(trace: &str) -> Vec<crate::json::Value> {
        let doc = crate::json::parse(trace).expect("trace parses");
        let events = doc.as_arr().expect("top level is an array").to_vec();
        for ev in &events {
            assert!(ev.get("name").unwrap().as_str().is_some());
            assert_eq!(ev.get("cat").unwrap().as_str(), Some("vt"));
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert_eq!(ev.get("pid").unwrap().as_u64(), Some(0));
            assert!(ev.get("tid").unwrap().as_u64().is_some());
            assert!(ev
                .get("args")
                .unwrap()
                .get("req_id")
                .unwrap()
                .as_u64()
                .is_some());
        }
        events
    }

    #[test]
    fn chrome_export_schema_validates() {
        let mut t = Tracer::new(16);
        t.open("request", Some(42), 1_000);
        t.open("deserialize", None, 1_100);
        t.close(1_400);
        t.open("app", None, 1_400);
        t.on_charge(Category::AppGet, 25.0);
        t.close(1_600);
        t.close(2_200);
        let events = check_chrome_schema(&t.chrome_trace_json());
        assert_eq!(events.len(), 3);
        // All three spans belong to request 42 (children inherit the id).
        for ev in &events {
            assert_eq!(
                ev.get("args").unwrap().get("req_id").unwrap().as_u64(),
                Some(42)
            );
        }
    }

    #[test]
    fn nested_spans_export_with_depth_as_tid_and_contained_intervals() {
        let mut t = Tracer::new(16);
        t.open("request", Some(1), 0);
        t.open("inner", None, 2_000);
        t.open("innermost", None, 3_000);
        t.close(4_000);
        t.close(6_000);
        t.close(10_000);
        let events = check_chrome_schema(&t.chrome_trace_json());
        // Chronological by close: innermost, inner, request.
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
        // Each child interval is contained in its parent's.
        let iv = |e: &crate::json::Value| {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            (ts, ts + e.get("dur").unwrap().as_f64().unwrap())
        };
        let (inner_s, inner_e) = iv(&events[1]);
        let (root_s, root_e) = iv(&events[2]);
        let (leaf_s, leaf_e) = iv(&events[0]);
        assert!(root_s <= inner_s && inner_e <= root_e);
        assert!(inner_s <= leaf_s && leaf_e <= inner_e);
    }

    #[test]
    fn overlapping_sibling_spans_do_not_bleed_attribution() {
        let mut t = Tracer::new(16);
        // Two requests interleave at the same depth: request 1's span closes
        // while request 2's is already open (e.g. pipelined handling).
        t.open("request", Some(1), 0);
        t.on_charge(Category::Rx, 10.0);
        t.close(100);
        t.open("request", Some(2), 50);
        t.on_charge(Category::Rx, 20.0);
        t.close(200);
        let events = check_chrome_schema(&t.chrome_trace_json());
        assert_eq!(events.len(), 2);
        let by_req = |id: u64| {
            events
                .iter()
                .find(|e| e.get("args").unwrap().get("req_id").unwrap().as_u64() == Some(id))
                .unwrap()
        };
        let rx = |e: &&crate::json::Value| {
            e.get("args")
                .unwrap()
                .get("rx_ns")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        assert_eq!(rx(&by_req(1)), 10.0);
        assert_eq!(rx(&by_req(2)), 20.0);
    }

    #[test]
    fn zero_duration_spans_export_cleanly() {
        let mut t = Tracer::new(8);
        t.open("instant", Some(3), 500);
        t.close(500); // same virtual instant
        let events = check_chrome_schema(&t.chrome_trace_json());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(0.0));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(0.5));
        // And an end time recorded before the start never underflows.
        let mut t = Tracer::new(8);
        t.open("clock-skew", Some(4), 900);
        t.close(800);
        let events = check_chrome_schema(&t.chrome_trace_json());
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = Tracer::new(4);
        t.open("s", Some(1), 0);
        t.on_charge(Category::Rx, 1.0);
        t.close(1);
        t.on_charge(Category::Tx, 1.0);
        t.reset();
        assert_eq!(t.spans_closed, 0);
        assert_eq!(t.open_depth(), 0);
        assert_eq!(t.iter_chronological().count(), 0);
        assert_eq!(t.span_cat_totals().iter().sum::<f64>(), 0.0);
        assert_eq!(t.orphan_cat_ns.iter().sum::<f64>(), 0.0);
    }
}
