//! Spans recorded by the benchmark around its own calls into `cf-kv`, in
//! the traced run only: per request a root span keyed by the request id
//! with three children, kept in a preallocated `Vec` and written out as
//! Chrome-trace JSON when the run ends. Spans inside the crates are a
//! later change (ROADMAP item 1); the traced run replays the inner layers
//! in isolation instead (`layers`).

use std::fmt::Write as _;
use std::time::Instant;

use crate::fixture::Probe;

/// Span names, indexed by [`Span::name`].
pub const SPAN_NAMES: [&str; 4] = [
    "kv.request",
    "kv.client_send",
    "kv.server_poll",
    "kv.client_recv",
];
/// Index of the root span's name.
pub const ROOT: u8 = 0;
/// Requests whose spans the trace file holds (statistics use them all).
pub const TRACE_FILE_REQUESTS: usize = 5_000;

/// One span: host nanoseconds since the log's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Request id all spans of one request share.
    pub req_id: u32,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log. Never grows past the capacity it was created
/// with, so recording never allocates; spans past it are dropped.
pub struct SpanLog {
    spans: Vec<Span>,
    epoch: Instant,
}

impl SpanLog {
    /// A log with room for `requests` requests (four spans each).
    pub fn with_capacity(requests: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(requests * SPAN_NAMES.len()),
            epoch: Instant::now(),
        }
    }

    /// A log holding `spans` (for tests and offline analysis).
    pub fn from_spans(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            spans,
            epoch: Instant::now(),
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Requests recorded.
    pub fn requests(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| SPAN_NAMES[s.name as usize] == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once; parts of a child outside the parent do not count).
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let parent = self.spans[idx];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx as u32))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| start < end)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the first
    /// `requests` requests: complete events, `ts`/`dur` in microseconds on
    /// the host clock.
    pub fn chrome_trace_json(&self, requests: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut roots = 0;
        let mut first = true;
        for s in &self.spans {
            if s.parent.is_none() {
                roots += 1;
                if roots > requests {
                    break;
                }
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"cf-kv\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"req_id\": {}}}}}",
                SPAN_NAMES[s.name as usize],
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.req_id
            )
            .unwrap();
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The [`Probe`] of the traced batches: one `Instant` at each boundary of
/// [`crate::fixture::Fixture::step`], four spans pushed per request.
pub struct SpanProbe<'a> {
    log: &'a mut SpanLog,
    req_id: u32,
    stamps: [u64; 3],
}

impl<'a> SpanProbe<'a> {
    /// A probe recording into `log`.
    pub fn new(log: &'a mut SpanLog) -> SpanProbe<'a> {
        SpanProbe {
            log,
            req_id: 0,
            stamps: [0; 3],
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.log.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for SpanProbe<'_> {
    #[inline]
    fn begin(&mut self) {
        self.stamps[0] = self.now();
    }

    #[inline]
    fn sent(&mut self, req_id: u32) {
        self.req_id = req_id;
        self.stamps[1] = self.now();
    }

    #[inline]
    fn polled(&mut self) {
        self.stamps[2] = self.now();
    }

    #[inline]
    fn received(&mut self) {
        let end = self.now();
        let spans = &mut self.log.spans;
        if spans.len() + SPAN_NAMES.len() > spans.capacity() {
            return;
        }
        let root = spans.len() as u32;
        let [t0, t1, t2] = self.stamps;
        let req_id = self.req_id;
        for (name, parent, start_ns, end_ns) in [
            (ROOT, None, t0, end),
            (1, Some(root), t0, t1),
            (2, Some(root), t1, t2),
            (3, Some(root), t2, end),
        ] {
            spans.push(Span {
                name,
                req_id,
                parent,
                start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_telemetry::json;

    fn span(name: u8, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req_id: 9,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let log = SpanLog::from_spans(vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 130), // 20 covered
            span(2, Some(0), 120, 150), // overlaps the first: 20 more
            span(3, Some(0), 190, 260), // clipped at the parent's end: 10
            span(3, Some(0), 10, 50),   // wholly outside: nothing
            span(1, Some(2), 0, 1_000), // someone else's child
        ]);
        assert_eq!(log.self_time_ns(0), 100 - (20 + 20 + 10));
        // A span without children is all self time.
        assert_eq!(log.self_time_ns(1), 20);
    }

    #[test]
    fn probe_records_a_root_and_three_adjacent_children_per_request() {
        let mut log = SpanLog::with_capacity(2);
        let mut probe = SpanProbe::new(&mut log);
        for req_id in [7, 8, 9] {
            probe.begin();
            probe.sent(req_id);
            probe.polled();
            probe.received();
        }
        // The third request found the log full and was dropped.
        assert_eq!(log.requests(), 2);
        assert_eq!(log.spans().len(), 8);
        let root = log.spans()[4];
        assert_eq!((root.name, root.req_id, root.parent), (ROOT, 8, None));
        for child in &log.spans()[5..8] {
            assert_eq!(child.parent, Some(4));
            assert_eq!(child.req_id, 8);
        }
        // Children tile the root, so it has no self time.
        assert_eq!(log.self_time_ns(4), 0);
        assert_eq!(log.durations("kv.server_poll").len(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_bounded() {
        let mut log = SpanLog::with_capacity(3);
        let mut probe = SpanProbe::new(&mut log);
        for req_id in 0..3 {
            probe.begin();
            probe.sent(req_id);
            probe.polled();
            probe.received();
        }
        let doc = json::parse(&log.chrome_trace_json(2)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), 8, "two requests of four spans");
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("kv.request"));
    }
}
