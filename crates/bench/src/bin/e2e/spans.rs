//! In-memory spans around the driver's calls into each layer.
//!
//! The traced run wraps every call in a span (name, start, end, parent,
//! operation id). Spans live in a vector until the run ends; they are
//! then written as trace-event JSON and folded into self time per layer.
//! A disabled tracer still times the call (the caller needs the seconds)
//! but records nothing, so the untraced run pays two clock reads per
//! call and no allocation.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one round share an operation id.
    pub op: u64,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses other spans; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` inside a leaf span and return its result with the seconds
    /// it took.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end();
        (out, secs)
    }

    /// Self time in seconds of each span name, summed per operation.
    pub fn self_time_by_op(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let own = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_default().entry(span.op).or_default() += ns as f64 / 1e9;
        }
        by_name
    }

    /// The spans as a trace-event document (`chrome://tracing`, Perfetto).
    pub fn trace_events(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::Num(s.op as f64)),
                            ("parent", Json::num(s.parent.map(|p| p as f64))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

/// A span's self time: its duration minus what its direct children
/// cover. One thread records the spans, so siblings never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, op }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", 0, 100, None, 0),
            span("compile", 10, 70, Some(0), 0),
            span("parse", 10, 20, Some(1), 0),
            span("solve", 20, 65, Some(1), 0),
            span("replay", 70, 95, Some(0), 0),
        ];
        // round: 100 - (60 + 25); compile: 60 - (10 + 45); leaves keep all.
        assert_eq!(self_times(&spans), vec![15, 5, 10, 45, 25]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_groups_by_name_and_operation() {
        let mut tr = Tracer::new(true);
        tr.spans = vec![
            span("round", 0, 1_000, None, 0),
            span("parse", 0, 300, Some(0), 0),
            span("parse", 400, 500, Some(0), 0),
            span("round", 1_000, 3_000, None, 1),
            span("parse", 1_000, 1_500, Some(3), 1),
        ];
        let by = tr.self_time_by_op();
        assert_eq!(by["parse"], BTreeMap::from([(0, 400e-9), (1, 500e-9)]));
        assert_eq!(by["round"], BTreeMap::from([(0, 600e-9), (1, 1500e-9)]));
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        tr.begin("outer");
        let (v, secs) = tr.leaf("inner", || 41 + 1);
        tr.end();
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].op, 7);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let events = tr.trace_events();
        assert_eq!(events.get("traceEvents").unwrap().as_arr().len(), 2);

        let mut off = Tracer::new(false);
        off.begin("outer");
        assert_eq!(off.leaf("inner", || 5).0, 5);
        off.end();
        assert!(off.spans.is_empty());
    }
}
