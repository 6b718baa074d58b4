//! In-memory span log of the traced pass, written out when it ends.
//!
//! A span has a name, a start, an end and a parent. Calls that happen
//! ~10⁶ times per run (batching decisions, trace records) are not logged
//! one by one: they become one *aggregate* span per boundary that carries
//! a call count and the busy time summed over the calls, placed over its
//! parent's interval. A span's self time is its duration minus the time
//! its children cover (their busy time).

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::layers::lock;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary or phase name, e.g. `run` or `core.schedulers.allocate`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the log's origin.
    pub start: Duration,
    /// End, relative to the log's origin.
    pub end: Duration,
    /// Time spent inside the boundary: `end - start` for a real span, the
    /// summed call time for an aggregate.
    pub busy: Duration,
    /// Calls the span stands for (1 for a real span).
    pub count: u64,
}

/// Spans of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.offset(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            busy: Duration::ZERO,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it).
    pub fn close(&mut self, id: usize) {
        let end = self.offset(Instant::now());
        while let Some(top) = self.open.pop() {
            let span = &mut self.spans[top];
            span.end = end;
            span.busy = end.saturating_sub(span.start);
            if top == id {
                break;
            }
        }
    }

    /// Logs an already-finished call under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start, end) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end,
            busy: end.saturating_sub(start),
            count: 1,
        });
    }

    /// Logs `count` calls totalling `busy` under span `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, busy: Duration, count: u64) {
        let (start, end) = (self.spans[parent].start, self.spans[parent].end);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start,
            end,
            busy,
            count,
        });
    }

    /// Time inside span `id` not covered by its children.
    pub fn self_time(&self, id: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy)
            .sum();
        self.spans[id].busy.saturating_sub(children)
    }

    /// The log as JSON Lines: one span per line, times in microseconds
    /// from the start of the pass.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"busy_us\": {:.3}, \
                 \"self_us\": {:.3}, \"count\": {}}}",
                s.name,
                micros(s.start),
                micros(s.end),
                micros(s.busy),
                micros(self.self_time(id)),
                s.count,
            );
        }
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times phases of a replay. With a span log every phase also becomes a
/// span; without one (the end-to-end runs) it is a bare clock read.
#[derive(Debug, Clone, Copy)]
pub struct Clock<'a> {
    spans: Option<&'a Mutex<SpanLog>>,
}

impl<'a> Clock<'a> {
    /// A clock that logs no spans.
    pub fn plain() -> Self {
        Self { spans: None }
    }

    /// A clock that logs a span per phase into `spans`.
    pub fn traced(spans: &'a Mutex<SpanLog>) -> Self {
        Self { spans: Some(spans) }
    }

    /// Runs `f` as phase `name`; returns its result, its wall time and its
    /// span index (when logging).
    pub fn time<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<usize>) {
        let id = self.spans.map(|s| lock(s).open(name));
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if let (Some(spans), Some(id)) = (self.spans, id) {
            lock(spans).close(id);
        }
        (value, elapsed, id)
    }

    /// Logs an aggregate span under `parent`, when logging.
    pub fn aggregate(&self, name: &'static str, parent: Option<usize>, busy: Duration, count: u64) {
        if let (Some(spans), Some(parent)) = (self.spans, parent) {
            lock(spans).aggregate(name, parent, busy, count);
        }
    }
}
