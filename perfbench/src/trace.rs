//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.call`), a start and an end, the span that
//! caused it and, on fleet requests, the request id. Spans are kept in
//! memory and written once, at exit, as Chrome trace-event JSON (load it
//! in `chrome://tracing` or Perfetto). Only the measuring thread records
//! spans. A disabled [`Tracer`] records nothing and never reads the
//! clock, which is how the untraced measurements run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the span that caused this one, if any.
    pub parent: Option<u64>,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Fleet request id, where the span belongs to one request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl SpanGuard<'_> {
    /// This span's id, for children opened from other scopes.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|s| s.id)
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> SpanGuard<'_> {
        let req = self.open.as_ref().and_then(|s| s.request);
        self.tracer.open(name, self.id(), req)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = self.tracer.now_ns();
            self.tracer.spans.borrow_mut().push(span);
        }
    }
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: Cell::new(1),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<u64>, request: Option<u64>) -> SpanGuard<'_> {
        let open = self.enabled.then(|| {
            let id = self.next_id.replace(self.next_id.get() + 1);
            Span {
                id,
                parent,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                request,
            }
        });
        SpanGuard { tracer: self, open }
    }

    /// Opens a top-level span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None, None)
    }

    /// Opens a top-level span belonging to fleet request `request`.
    pub fn request_span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open(name, None, Some(request))
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.borrow().clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (children are clipped to the parent and their
/// overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per-name totals: (calls, total ns, self ns), sorted by self time,
/// largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs: BTreeMap<u64, u64> = self_times(spans).into_iter().collect();
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, st))| (n, c, t, st))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Share of the traced wall time (first span start to last span end)
/// that top-level spans cover, in `0..=1`.
pub fn top_level_coverage(spans: &[Span]) -> f64 {
    let (Some(first), Some(last)) = (
        spans.iter().map(|s| s.start_ns).min(),
        spans.iter().map(|s| s.end_ns).max(),
    ) else {
        return 0.0;
    };
    let mut tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    tops.sort_unstable();
    let (mut covered, mut reach) = (0u64, first);
    for (a, b) in tops {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    if last == first {
        0.0
    } else {
        covered as f64 / (last - first) as f64
    }
}

/// Renders spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}}");
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns: start,
            end_ns: end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50), // overlaps 2: counted once
            span(4, Some(3), 25, 35),
            span(5, None, 100, 110),
        ];
        let selfs: BTreeMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100 - 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 10);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn coverage_counts_gaps_between_top_level_spans() {
        let spans = [span(1, None, 0, 40), span(2, None, 60, 100)];
        assert!((top_level_coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn guards_record_parents_and_requests() {
        let t = Tracer::new(true);
        {
            let top = t.request_span("fleet.request", 7);
            let _c = top.child("fleet.run_one");
        }
        drop(t.span("bench.other"));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let top = spans.iter().find(|s| s.name == "fleet.request").unwrap();
        let child = spans.iter().find(|s| s.name == "fleet.run_one").unwrap();
        assert_eq!(child.parent, Some(top.id));
        assert_eq!(child.request, Some(7));
        assert!(child.start_ns >= top.start_ns && child.end_ns <= top.end_ns);
        let other = spans.iter().find(|s| s.name == "bench.other").unwrap();
        assert_eq!((other.parent, other.request), (None, None));
        let json = chrome_json(&spans);
        assert!(json.contains("\"request\":7") && json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("a.b");
        assert_eq!(g.id(), None);
        drop(g.child("a.c"));
        drop(g);
        assert!(t.spans().is_empty());
    }
}
