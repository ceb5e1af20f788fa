//! The benchmark's span recorder: bench-side spans around every public
//! call, kept in memory and written out at exit as Chrome trace-event
//! JSON (`chrome://tracing`, Perfetto).
//!
//! Spans of one upload, read or refresh cycle share a trace id; a span's
//! parent is the span that caused it (0 for a root). With tracing off
//! every recording call is a no-op.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span times, e.g. `client.infer`.
    pub name: &'static str,
    /// Shared by every span of one upload, read or refresh cycle.
    pub trace: u64,
    /// This span's id (unique in the run, never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root span.
    pub parent: u64,
    /// Start, microseconds since the recorder was made.
    pub start_us: f64,
    /// End, microseconds since the recorder was made.
    pub end_us: f64,
    /// Recording thread (a small index, for the trace viewer's rows).
    pub tid: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Collects spans from every benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread buffer; its spans join the recorder when dropped.
    pub fn local(&self, tid: u32) -> Local<'_> {
        Local {
            tracer: self,
            tid,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer poisoned").clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        v
    }

    /// The spans as a Chrome trace-event JSON document (complete `X`
    /// events; trace and parent ids ride in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"trace\": {}, \"id\": {}, \"parent\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.tid,
                s.trace,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A thread's span buffer.
#[derive(Debug)]
pub struct Local<'a> {
    tracer: &'a Tracer,
    tid: u32,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.tracer.on
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span ends. Returns 0 with tracing off.
    pub fn reserve(&self) -> u64 {
        if self.tracer.on {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span with a fresh id; returns the id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, trace, parent, start, end);
        id
    }

    /// Records a span under an id from [`Local::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.tracer.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            trace,
            id,
            parent,
            start_us: at(start),
            end_us: at(end),
            tid: self.tid,
        });
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_valid_chrome_json() {
        let tracer = Tracer::new(true);
        {
            let mut local = tracer.local(3);
            let t0 = Instant::now();
            let root = local.reserve();
            let child = local.record("client.infer", 7, root, t0, Instant::now());
            local.record_as(root, "upload", 7, 0, t0, Instant::now());
            assert!(child > 0 && root > 0 && child != root);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace == 7 && s.tid == 3));
        let json = tracer.chrome_json();
        telemetry::export::validate_json(&json).expect("valid trace JSON");
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn off_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut local = tracer.local(0);
            let t = Instant::now();
            assert_eq!(local.record("upload", 1, 0, t, t), 0);
        }
        assert!(tracer.spans().is_empty());
    }
}
