//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, parent, request id. Kept in memory and
//! written out when the traced run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.micros(Instant::now());
        self.spans[id].end_us = now;
    }

    /// Time `f` as a child span and pass its result through.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), Some(parent), request);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"us\",\"spans\":["
        );
        let own = self_times(&self.spans);
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{:.1},\"end\":{:.1},\"self\":{own:.1},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once, and a
/// child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let lo = span.start_us.max(spans[parent].start_us);
            let hi = span.end_us.min(spans[parent].end_us);
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.duration_us() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", 0.0, 100.0, None),
            span("plan", 10.0, 20.0, Some(0)),
            span("execute", 20.0, 80.0, Some(0)),
            span("termjoin", 25.0, 60.0, Some(2)),
            span("pick", 60.0, 70.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 10.0, 15.0, 35.0, 10.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("request", 10.0, 50.0, None),
            // Two children overlap on [20, 30].
            span("a", 15.0, 30.0, Some(0)),
            span("b", 20.0, 40.0, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 0.0, 12.0, Some(0)),
            span("d", 45.0, 90.0, Some(0)),
        ];
        // Covered: [10,12] + [15,40] + [45,50] = 32 of 40.
        assert_eq!(self_times(&spans)[0], 8.0);
    }

    #[test]
    fn tracer_nests_and_filters_by_name() {
        let mut t = Tracer::new();
        let root = t.begin("request", None, 7);
        let v = t.child("plan", root, 7, || 41 + 1);
        assert_eq!(v, 42);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.durations("plan").len(), 1);
        assert!(self_times(t.spans())[root] <= t.spans()[root].duration_us());
    }
}
