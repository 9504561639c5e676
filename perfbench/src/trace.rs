//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name (the layer, then the operation), start, end,
//! the span that caused it, and the recording thread. They stay in memory
//! and are written out once, at the end, as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or Perfetto).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sdnav_json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Small per-thread identifier.
    pub tid: u64,
    /// Work done inside the span (events, modes, …), when it has a count.
    pub count: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` and returns its index (usable as a
    /// parent); [`Tracer::close`] sets its end.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tid: tid(),
            count: None,
        });
        spans.len() - 1
    }

    /// Closes span `index`, attaching an optional work count, and returns
    /// its duration in ms.
    pub fn close(&self, index: usize, count: Option<u64>) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans[index].end_ns = end_ns;
        spans[index].count = count;
        spans[index].duration_ns() as f64 / 1e6
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent);
        let out = f();
        self.close(span, None);
        out
    }

    /// A snapshot of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Durations (ms) of every span named `name`.
#[must_use]
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Sum of the counts of every span named `name`.
#[must_use]
pub fn total_count(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.count)
        .sum()
}

/// Sum of the durations (ns) of every span named `name`.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Whether span `index` descends from span `root`.
#[must_use]
pub fn is_under(spans: &[Span], mut index: usize, root: usize) -> bool {
    while let Some(parent) = spans[index].parent {
        if parent == root {
            return true;
        }
        index = parent;
    }
    false
}

/// Sum of the counts of the spans named `name` below span `root`.
#[must_use]
pub fn count_under(spans: &[Span], root: usize, name: &str) -> u64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && is_under(spans, *i, root))
        .filter_map(|(_, s)| s.count)
        .sum()
}

/// Pool balance of one execute span: Σ child cell time ÷ (workers ×
/// execute time), and the longest child cell in ms.
#[must_use]
pub fn cell_balance(spans: &[Span], execute: usize, workers: usize) -> (f64, f64) {
    let cells: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == Some(execute))
        .map(Span::duration_ns)
        .collect();
    let busy = cells.iter().sum::<u64>() as f64
        / (workers.max(1) as f64 * spans[execute].duration_ns().max(1) as f64);
    let longest = cells.iter().copied().max().unwrap_or(0) as f64 / 1e6;
    (busy, longest)
}

/// Self time of span `index`: its duration minus the part of its
/// interval that its direct children cover (overlapping children, e.g.
/// from parallel workers, count once).
#[must_use]
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.duration_ns() - covered
}

/// Chrome trace-event JSON ("X" complete events, microsecond times).
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("id", Json::Num(i as f64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Num(p as f64)));
            }
            if let Some(c) = s.count {
                args.push(("count", Json::Num(c as f64)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tid: 1,
            count: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("grid.evaluate", 0, 100, None),
            span("sim.run", 10, 40, Some(0)),
            span("sim.run", 50, 70, Some(0)),
            // A grandchild does not reduce the root's self time twice.
            span("sim.build", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 22);
        assert_eq!(self_time_ns(&spans, 3), 8);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("grid.execute", 100, 200, None),
            span("grid.cell", 90, 150, Some(0)),
            span("grid.cell", 120, 160, Some(0)),
            span("grid.cell", 190, 260, Some(0)),
        ];
        // Covered: [100, 160) and [190, 200) = 70 ns.
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn recorded_spans_nest_and_carry_counts() {
        let tracer = Tracer::new();
        let root = tracer.open("fleet.verdict", None);
        let child = tracer.time("sim.run", Some(root), || 7);
        assert_eq!(child, 7);
        let idx = tracer.open("chaos.compile", Some(root));
        assert!(tracer.close(idx, Some(3)) >= 0.0);
        tracer.close(root, Some(1));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[idx].count, Some(3));
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[root].end_ns >= spans[idx].end_ns);
        assert_eq!(total_count(&spans, "chaos.compile"), 3);
        assert!(self_time_ns(&spans, root) <= spans[root].duration_ns());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("sim.run", 1_000, 3_500, None),
            span("sim.build", 1_000, 2_000, Some(0)),
        ];
        let doc = chrome_trace(&spans);
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr().ok())
            .expect("event array");
        assert_eq!(events.len(), 2);
        let second = &events[1];
        assert_eq!(second.get("ph").and_then(|v| v.as_str().ok()), Some("X"));
        assert_eq!(second.get("ts").and_then(|v| v.as_f64().ok()), Some(1.0));
        assert_eq!(second.get("dur").and_then(|v| v.as_f64().ok()), Some(1.0));
        let parent = second
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(|v| v.as_f64().ok());
        assert_eq!(parent, Some(0.0));
        // The document round-trips through the repository's JSON parser.
        assert!(Json::parse(&doc.to_compact()).is_ok());
    }
}
