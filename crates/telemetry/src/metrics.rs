//! Named counters, gauges, and virtual-time histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`VtHistogram`]) are cheap `Rc` clones.
//! The layer that counts a fact owns its `Counter` / `Gauge` cell from
//! construction and updates it without any registry lookup on the hot
//! path; the registry *adopts* cells by name when telemetry is attached
//! and is consulted again only when a snapshot is taken.
//!
//! Producers that cannot depend on this crate (cf-mem) publish
//! `Arc<AtomicU64>` cells instead, adopted here as *external* counters and
//! read at snapshot time. Such a cell has one writer, the core that owns the
//! pool or arena it describes; any holder may read it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cf_sim::Histogram;

use crate::json::Value;

/// Monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Instantaneous-value gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: f64) {
        self.0.set(self.0.get() + d);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// One magnitude group per power of two of the recorded value: group 0
/// holds value 0, group k holds values in `[2^(k-1), 2^k)`. Fixed-size so
/// exemplar tracking never allocates on the record path.
const EXEMPLAR_GROUPS: usize = 65;

/// A concrete request id retained for the largest value seen in one
/// magnitude group — the link from a histogram bucket back to a recorded
/// flight-recorder trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The bucket-max value (e.g. worst latency in this magnitude group).
    pub value: u64,
    /// Request id that produced it (the wire header's id).
    pub req_id: u32,
}

struct HistState {
    hist: Histogram,
    exemplars: [Option<Exemplar>; EXEMPLAR_GROUPS],
}

impl Default for HistState {
    fn default() -> Self {
        HistState {
            hist: Histogram::default(),
            exemplars: [None; EXEMPLAR_GROUPS],
        }
    }
}

impl std::fmt::Debug for HistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistState")
            .field("count", &self.hist.count())
            .finish()
    }
}

#[inline]
fn exemplar_group(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Histogram handle recording virtual-time durations (or any `u64` values),
/// backed by [`cf_sim::Histogram`], with optional per-bucket exemplars.
#[derive(Clone, Debug, Default)]
pub struct VtHistogram(Rc<RefCell<HistState>>);

impl VtHistogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().hist.record(v);
    }

    /// Records one value and retains `req_id` as the exemplar for `v`'s
    /// magnitude group if `v` is the largest value that group has seen.
    /// A tail bucket thus always points at a concrete outlier request.
    /// No allocation: the exemplar table is a fixed array.
    #[inline]
    pub fn record_exemplar(&self, v: u64, req_id: u32) {
        let mut st = self.0.borrow_mut();
        st.hist.record(v);
        let g = exemplar_group(v);
        if st.exemplars[g].is_none_or(|e| v >= e.value) {
            st.exemplars[g] = Some(Exemplar { value: v, req_id });
        }
    }

    /// The exemplar whose value best represents values `>= v`: the first
    /// non-empty magnitude group at or above `v`'s, falling back to the
    /// largest exemplar below. Use with a quantile: `h.with(|h|
    /// h.quantile(0.999))` then `exemplar_for(q)` names a request actually
    /// living in that tail.
    pub fn exemplar_for(&self, v: u64) -> Option<Exemplar> {
        let st = self.0.borrow();
        let g = exemplar_group(v);
        if let Some(e) = st.exemplars[g..].iter().flatten().next() {
            return Some(*e);
        }
        st.exemplars[..g].iter().rev().flatten().next().copied()
    }

    /// All retained exemplars, ascending by value.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.0
            .borrow()
            .exemplars
            .iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Runs `f` against the underlying histogram.
    pub fn with<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self.0.borrow().hist)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Vec<Counter>>,
    gauges: BTreeMap<String, Vec<Gauge>>,
    histograms: BTreeMap<String, VtHistogram>,
    externals: BTreeMap<String, Vec<Arc<AtomicU64>>>,
}

/// Files `cell` under `name` unless that very cell (`same`) is already
/// there, so attaching one handle twice doubles nothing.
fn adopt<T>(map: &mut BTreeMap<String, Vec<T>>, name: &str, cell: T, same: fn(&T, &T) -> bool) {
    let cells = map.entry(name.to_string()).or_default();
    if !cells.iter().any(|c| same(c, &cell)) {
        cells.push(cell);
    }
}

fn counter_sum(cells: &[Counter]) -> u64 {
    cells.iter().map(Counter::get).sum()
}

fn gauge_sum(cells: &[Gauge]) -> f64 {
    cells.iter().map(Gauge::get).sum()
}

fn external_sum(cells: &[Arc<AtomicU64>]) -> u64 {
    cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Registry of named metrics, read by name or through a JSON snapshot.
///
/// A name maps to the cells adopted under it and reads as their sum: the
/// layer that counts a fact owns its cell from construction, and attaching
/// telemetry files that same cell here — the registry never mints, seeds or
/// replaces one. Two machines on one handle, or a NIC's queues under the
/// aggregate `nic.*` names, are several cells under one name.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RefCell<RegistryInner>,
}

impl MetricsRegistry {
    /// Adopts `cell` as (one of) the counter(s) named `name`.
    pub fn adopt_counter(&self, name: &str, cell: &Counter) {
        let counters = &mut self.inner.borrow_mut().counters;
        adopt(counters, name, cell.clone(), |a, b| Rc::ptr_eq(&a.0, &b.0));
    }

    /// Adopts `cell` as (one of) the gauge(s) named `name`.
    pub fn adopt_gauge(&self, name: &str, cell: &Gauge) {
        let gauges = &mut self.inner.borrow_mut().gauges;
        adopt(gauges, name, cell.clone(), |a, b| Rc::ptr_eq(&a.0, &b.0));
    }

    /// Returns (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> VtHistogram {
        let mut inner = self.inner.borrow_mut();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = VtHistogram::default();
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Adopts an external cell (read with `Ordering::Relaxed` at snapshot
    /// time). Used by `cf-mem`, which sits below this crate and so cannot
    /// hold a [`Counter`]; its owner is the cell's only writer.
    pub fn register_external(&self, name: &str, cell: Arc<AtomicU64>) {
        let externals = &mut self.inner.borrow_mut().externals;
        adopt(externals, name, cell, Arc::ptr_eq);
    }

    /// Current value of counter (or external) `name`; 0 if absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner.counters.get(name).map_or(0, |c| counter_sum(c))
            + inner.externals.get(name).map_or(0, |c| external_sum(c))
    }

    /// Current value of gauge `name`; 0 if absent.
    pub fn gauge_value(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        inner.gauges.get(name).map_or(0.0, |g| gauge_sum(g))
    }

    /// The `"counters"` (externals included), `"gauges"` and `"histograms"`
    /// members of a JSON snapshot object.
    pub(crate) fn snapshot_members(&self) -> [(&'static str, Value); 3] {
        let inner = self.inner.borrow();
        let counters = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), Value::Num(counter_sum(c) as f64)))
            .chain(
                inner
                    .externals
                    .iter()
                    .map(|(n, e)| (n.clone(), Value::Num(external_sum(e) as f64))),
            );
        let gauges = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), Value::Num(gauge_sum(g))));
        let histograms = inner.histograms.iter().map(|(n, h)| {
            let exemplars = h.exemplars().into_iter().map(|e| {
                Value::obj([
                    ("value", Value::Num(e.value as f64)),
                    ("req_id", Value::Num(f64::from(e.req_id))),
                ])
            });
            let summary = h.with(|h| {
                Value::obj([
                    ("count", Value::Num(h.count() as f64)),
                    ("min", Value::Num(h.min() as f64)),
                    ("max", Value::Num(h.max() as f64)),
                    ("mean", Value::Num(h.mean())),
                    ("p50", Value::Num(h.p50() as f64)),
                    ("p99", Value::Num(h.p99() as f64)),
                    ("exemplars", Value::Arr(exemplars.collect())),
                ])
            });
            (n.clone(), summary)
        });
        [
            ("counters", Value::Obj(counters.collect())),
            ("gauges", Value::Obj(gauges.collect())),
            ("histograms", Value::Obj(histograms.collect())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter owned by the caller, adopted under `name`.
    fn counter(r: &MetricsRegistry, name: &str) -> Counter {
        let c = Counter::default();
        r.adopt_counter(name, &c);
        c
    }

    fn gauge(r: &MetricsRegistry, name: &str) -> Gauge {
        let g = Gauge::default();
        r.adopt_gauge(name, &g);
        g
    }

    fn snapshot(r: &MetricsRegistry) -> String {
        Value::obj(r.snapshot_members()).render()
    }

    #[test]
    fn adopted_cells_keep_their_values_and_share_state_with_registry() {
        let r = MetricsRegistry::default();
        let c = Counter::default();
        c.add(4); // counted before anything was attached
        r.adopt_counter("a.b", &c);
        c.inc();
        assert_eq!(r.counter_value("a.b"), 5);
        let g = gauge(&r, "g");
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(r.gauge_value("g"), 1.5);
        let h = r.histogram("h");
        h.record(10);
        h.record(20);
        assert_eq!(r.histogram("h").with(|h| h.count()), 2);
        assert_eq!(r.counter_value("absent"), 0);
    }

    #[test]
    fn a_name_reads_the_sum_of_its_cells_and_adopting_twice_doubles_nothing() {
        let r = MetricsRegistry::default();
        let (q0, q1) = (counter(&r, "nic.tx_frames"), counter(&r, "nic.tx_frames"));
        r.adopt_counter("nic.q0.tx_frames", &q0);
        q0.add(3);
        q1.add(4);
        r.adopt_counter("nic.tx_frames", &q0); // the same cell again
        assert_eq!(r.counter_value("nic.tx_frames"), 7);
        assert_eq!(r.counter_value("nic.q0.tx_frames"), 3);
        // Two machines' external cells under one name: both are read.
        let (a, b) = (Arc::new(AtomicU64::new(5)), Arc::new(AtomicU64::new(6)));
        r.register_external("mem.x", Arc::clone(&a));
        r.register_external("mem.x", Arc::clone(&b));
        r.register_external("mem.x", a);
        assert_eq!(r.counter_value("mem.x"), 11);
        assert!(snapshot(&r).contains("\"mem.x\": 11"));
    }

    #[test]
    fn snapshot_members_are_valid_json() {
        let r = MetricsRegistry::default();
        counter(&r, "c.one").add(7);
        gauge(&r, "g-two").set(0.25);
        r.histogram("h three").record(99);
        r.register_external("ext", Arc::new(AtomicU64::new(3)));
        let json_doc = snapshot(&r);
        crate::json::validate(&json_doc).expect("valid snapshot JSON");
        assert!(json_doc.contains("\"c.one\": 7"));
        assert!(json_doc.contains("\"ext\": 3"));
    }

    #[test]
    fn exemplars_link_buckets_to_request_ids() {
        let r = MetricsRegistry::default();
        let h = r.histogram("lat");
        // A crowd of fast requests and two distinct slow outliers.
        for i in 0..100u32 {
            h.record_exemplar(1_000 + u64::from(i), i);
        }
        h.record_exemplar(1_000_000, 777);
        h.record_exemplar(900_000, 778); // same group, smaller: not retained
        h.record_exemplar(40_000, 555);
        // The p99.9 bucket points at the concrete worst request.
        let p999 = h.with(|h| h.quantile(0.999));
        let e = h.exemplar_for(p999).expect("tail exemplar");
        assert_eq!(e.req_id, 777);
        assert_eq!(e.value, 1_000_000);
        // A mid-range lookup finds the mid-range outlier.
        let e = h.exemplar_for(33_000).expect("mid exemplar");
        assert_eq!(e.req_id, 555);
        // Lookups above every recorded value fall back to the largest.
        let e = h.exemplar_for(u64::MAX).expect("fallback");
        assert_eq!(e.req_id, 777);
        // Exemplars list is ascending by value and bounded by group count.
        let all = h.exemplars();
        assert!(all.windows(2).all(|w| w[0].value <= w[1].value));
        assert!(all.len() <= super::EXEMPLAR_GROUPS);
        // Snapshot JSON carries them.
        let json_doc = snapshot(&r);
        crate::json::validate(&json_doc).expect("valid");
        assert!(json_doc.contains("\"req_id\": 777"));
    }
}
