//! Spans recorded by the benchmark's own code around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it began (its parent)
//! and a group id shared by every span of one query or batch.  Spans stay in memory and are
//! written out at exit as Chrome trace-event JSON (`chrome://tracing`, Perfetto).  The
//! per-layer table reports each span name's self time: its duration minus the part of it
//! that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder.  Disabled recorders record nothing and cost one branch.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of group `group`.
    pub fn span<T>(&self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                group,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed interval (offsets from `at`, as measured by the caller) —
    /// for work that ran on another thread or process.
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            group,
            parent: self.open.borrow().last().copied(),
            start_ns: offset(start),
            end_ns: offset(end),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Per span name: count, total and self time in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Self time of every span — its duration minus the union of its children's intervals —
/// summed per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let covered = covered_ns(kids, span.start_ns, span.end_ns);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ms += total as f64 / 1e6;
        entry.self_ms += total.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Chrome trace-event JSON ("X" complete events, microseconds).  Each group is drawn as its
/// own thread row so the spans of one query or batch line up.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            span.name,
            span.group,
            span.start_ns as f64 / 1e3,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            i,
            span.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            group: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch", None, 0, 10_000_000),
            span("prepare", Some(0), 1_000_000, 4_000_000),
            span("execute", Some(0), 3_000_000, 8_000_000), // overlaps prepare by 1 ms
        ];
        let t = layer_times(&spans);
        assert!((t["batch"].total_ms - 10.0).abs() < 1e-9);
        assert!((t["batch"].self_ms - 3.0).abs() < 1e-9);
        assert!((t["prepare"].self_ms - 3.0).abs() < 1e-9);
        assert_eq!(t["execute"].count, 1);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", 7, || rec.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0"));
        assert!(Recorder::new(false).spans().is_empty());
    }
}
