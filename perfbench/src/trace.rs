//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the span that
//! caused it, and the scenario it belongs to. Counts taken from the report at
//! the same boundary ride on the span. Spans stay in memory until the workload
//! ends and are then written out as Chrome trace-event JSON.

use std::time::Instant;

use syncron_harness::json::Value;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `system.run`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the scenario within its repetition, shared by all its spans.
    pub scenario: Option<usize>,
    /// Counts recorded at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; every call is a no-op when disabled.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an enclosing span starting at `start`; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        scenario: Option<usize>,
    ) -> Option<usize> {
        self.record(name, start, start, parent, scenario)
    }

    /// Sets the end of a span opened with [`Trace::open`].
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        scenario: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            scenario,
            counts: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Attaches counts to a recorded span.
    pub fn counts(
        &mut self,
        span: Option<usize>,
        counts: impl FnOnce() -> Vec<(&'static str, f64)>,
    ) {
        if let Some(i) = span {
            self.spans[i].counts = counts();
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in `spans` (a slice whose parent indices are
    /// offset by `base`): its duration minus the part its children cover.
    pub fn self_seconds(spans: &[Span], base: usize) -> Vec<f64> {
        let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
        for span in spans {
            if let Some(p) = span.parent.and_then(|p| p.checked_sub(base)) {
                own[p] -= span.seconds();
            }
        }
        own
    }

    /// The spans as Chrome trace-event JSON (`ph = "X"` complete events,
    /// microsecond timestamps), for `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args: Vec<(String, Value)> = vec![("id".into(), Value::Int(i as i64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::Int(p as i64)));
                }
                if let Some(sc) = s.scenario {
                    args.push(("scenario".into(), Value::Int(sc as i64)));
                }
                args.extend(
                    s.counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Float(*v))),
                );
                Value::table([
                    ("name".to_string(), Value::str(s.name)),
                    ("ph".to_string(), Value::str("X")),
                    ("pid".to_string(), Value::Int(1)),
                    ("tid".to_string(), Value::Int(1)),
                    ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("args".to_string(), Value::table(args)),
                ])
            })
            .collect();
        Value::Array(events).to_json()
    }
}
