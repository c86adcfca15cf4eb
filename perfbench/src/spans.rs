//! In-memory spans recorded around the benchmark's calls into each layer,
//! their self-time arithmetic, and Chrome trace-event export.
//!
//! A span's name starts with the layer it times (`sim.`, `net.`, `mpi.`,
//! `core.`, `nas.`, `bench.`, `check.`): the crate whose public function
//! the benchmark called. Nothing inside the program is instrumented, so a
//! span around `run_job` covers every layer below the call too.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ftmpi_bench::json::{to_string_pretty, JsonObject, JsonValue};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which job run the span belongs to (0 = none).
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer prefix of the name.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Span recorder: spans stay in memory until the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tag spans opened from now on with job run `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Open a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close the innermost open span, which must be `id`, and return its
    /// duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        Duration::from_nanos(span.dur_ns())
    }

    /// Run `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name);
        let value = f();
        let dur = self.end(id);
        (value, dur)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self seconds summed per layer, keyed by layer name.
pub fn self_secs_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

/// Total seconds of every span named exactly `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// The spans as a Chrome trace-event JSON array (complete `"X"` events,
/// microsecond timestamps), loadable by Perfetto and `chrome://tracing`.
/// Span index, parent index and run id ride along as extra keys, which
/// viewers ignore.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let events: Vec<JsonObject> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut ev: JsonObject = vec![
                ("name", JsonValue::Str(s.name.clone())),
                ("cat", JsonValue::Str(s.layer().to_string())),
                ("ph", JsonValue::Str("X".into())),
                ("ts", JsonValue::Float(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::Float(s.dur_ns() as f64 / 1e3)),
                ("pid", JsonValue::UInt(1)),
                ("tid", JsonValue::UInt(1)),
                ("span_id", JsonValue::UInt(i as u64)),
                ("run_id", JsonValue::UInt(s.run)),
            ];
            if let Some(p) = s.parent {
                ev.push(("parent_id", JsonValue::UInt(p as u64)));
            }
            ev
        })
        .collect();
    to_string_pretty(&events) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.workload", 0, 100, None),
            span("core.run_job", 10, 40, Some(0)),
            span("check.check_trace", 20, 30, Some(1)),
            span("mpi.dummy_twin", 50, 70, Some(0)),
        ];
        // Root: 100 - (30 + 20); the grandchild is not subtracted twice.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let by_layer = self_secs_by_layer(&spans);
        assert_eq!(by_layer["bench"], 50e-9);
        assert_eq!(by_layer["core"], 20e-9);
        assert_eq!(by_layer["check"], 10e-9);
        assert_eq!(by_layer["mpi"], 20e-9);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("sim.a", 10, 50, Some(0)),
            span("sim.b", 30, 60, Some(0)),
            span("sim.c", 90, 120, Some(0)),
        ];
        // Children cover [10, 60) and [90, 100): 60 ns of 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let mut rec = Spans::new();
        rec.set_run(7);
        let outer = rec.begin("bench.outer");
        let ((), _) = rec.time("nas.build", || ());
        let ((), _) = rec.time("nas.build", || ());
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        let total = total_secs(spans, "nas.build");
        assert!((total - (spans[1].dur_ns() + spans[2].dur_ns()) as f64 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn chrome_export_is_an_array_of_complete_events() {
        let spans = vec![
            span("bench.root", 0, 2_000, None),
            span("sim.x", 500, 1_500, Some(0)),
        ];
        let json = to_chrome_json(&spans);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"ts\": 0.5"));
        assert!(json.contains("\"dur\": 1.0"));
        assert_eq!(json.matches("\"parent_id\": 0").count(), 1);
    }
}
