//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer: name, start, end, parent span and request id. Nothing is
//! written while the workload runs; [`Tracer::write_json`] dumps the spans
//! once the run has ended. With tracing off, `enter`/`exit` are a branch
//! and nothing else, which is what the untraced run pays.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Per-name totals: calls, wall time, and self time (wall time minus the
/// part covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    /// Mean wall time per call, in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Mean self time per call, in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; `exit` closes it.
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if span.0 == NONE {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    /// Totals per span name. Children of one parent never overlap (the
    /// benchmark is a single closed-loop client), so self time is the
    /// duration minus the children's durations.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 80 + 16);
        s.push_str("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == NONE {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.request
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
