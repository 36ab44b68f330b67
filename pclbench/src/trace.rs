//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! Spans of one request share its id. A child span's parent is the span
//! of the layer that, in the daemon, makes the call: `serve.dispatch`
//! calls `json.parse`, `query.execute` and `json.write`, and the wire
//! round trip contains `serve.dispatch`. The children are timed by
//! re-running that call alone on identical state (the daemon has no
//! spans of its own yet), so a layer's self time is its duration minus
//! its children's durations, taken per request.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.record(name, req, parent, start, end))
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self times (seconds) of every span called `name`: its duration
    /// minus the durations of its children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_secs: HashMap<usize, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_secs.entry(p).or_default() += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - child_secs.get(&i).copied().unwrap_or(0.0))
            .collect()
    }

    pub fn median_self(&self, name: &str) -> f64 {
        median(&self.self_times(name))
    }

    pub fn median_dur(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
