//! In-memory spans around the benchmark's calls into each layer, written
//! out as Perfetto (Chrome trace-event) JSON when the run ends.
//!
//! Spans record a name, start, end, parent span, and request id. They are
//! taken only in the traced run; an untraced run's [`Tracer`] is disabled
//! and every method returns immediately.

use std::fmt::Write as _;
use std::time::Instant;

/// "No request" marker for spans not tied to one request.
pub const NO_REQ: u64 = u64::MAX;
const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: usize,
    req: u64,
}

/// Span recorder (see module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span; returns its handle.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        if !self.enabled {
            return NO_PARENT;
        }
        let span = Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span `handle`, optionally renaming it
    /// (a scheduler step is named by what it turned out to do).
    pub fn close(&mut self, handle: usize, rename: Option<&'static str>) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(handle), "spans close innermost-first");
        let now = self.now_us();
        let span = &mut self.spans[handle];
        span.end_us = now;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let h = self.open(name, req);
        let out = f();
        self.close(h, None);
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Trace-event JSON for Perfetto / `chrome://tracing`. Spans nest on
    /// one track; `args` carry the request id and parent span index.
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let dur = if s.end_us.is_finite() {
                s.end_us - s.start_us
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{}",
                s.name, s.start_us, dur, i
            );
            if s.parent != NO_PARENT {
                let _ = write!(out, ",\"parent\":{}", s.parent);
            }
            if s.req != NO_REQ {
                let _ = write!(out, ",\"req\":{}", s.req);
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_export() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", NO_REQ);
        t.span("inner", 7, || ());
        t.close(outer, Some("renamed"));
        assert_eq!(t.len(), 2);
        let json = t.perfetto_json();
        assert!(json.contains("\"name\":\"renamed\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"req\":7"));
        let disabled = Tracer::new(false);
        assert_eq!(disabled.len(), 0);
    }
}
