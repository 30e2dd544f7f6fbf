//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own code around each call into a
//! layer: name, start, end, the enclosing span, and — for the daemon's
//! requests — the request id all spans of one query share. Nothing is
//! written until the run ends ([`Recorder::to_json`]). A layer's self time
//! is its spans' durations minus the parts covered by their child spans.
//!
//! A disabled recorder keeps the same call shape but records nothing, so
//! the traced and untraced versions of one pipeline differ only by the
//! recording itself; their wall-time ratio is the tracing overhead.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `table.render`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's epoch; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one daemon query.
    pub request: Option<u64>,
}

/// Handle of an entered span; pass it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(Option<usize>);

/// Records spans in memory while enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only keeps the call shape.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else {
            return;
        };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, None);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Summed self time in seconds per span name: each span's duration
    /// minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Summed total (inclusive) time in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The recorded spans as one JSON document.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", s.name.to_json()),
                        ("start_ns", s.start_ns.to_json()),
                        ("end_ns", s.end_ns.to_json()),
                        ("parent", s.parent.to_json()),
                        ("request", s.request.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", None);
        let inner = r.enter("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner);
        r.exit(outer);
        let spans = &r.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        let selfs = r.self_times();
        let outer_total = r.total("outer");
        let inner_total = r.total("inner");
        assert!(inner_total >= 0.002);
        assert!((selfs["outer"] - (outer_total - inner_total)).abs() < 1e-9);
        assert!((selfs["outer"] + selfs["inner"] - outer_total).abs() < 1e-9);
    }

    #[test]
    fn exiting_an_outer_span_closes_open_children() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", None);
        let _leaked = r.enter("inner", None);
        r.exit(outer);
        let after = r.enter("next", None);
        r.exit(after);
        assert_eq!(r.spans[2].parent, None);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.time("layer", |_| 42);
        assert_eq!(v, 42);
        assert!(r.spans.is_empty());
        assert!(r.self_times().is_empty());
    }

    #[test]
    fn spans_serialize_to_a_json_array() {
        let mut r = Recorder::new(true);
        r.time("a", |r| r.time("b", |_| ()));
        let text = r.to_json().render();
        let back = serde::json::parse(&text).expect("span JSON parses");
        let Value::Arr(items) = back else {
            panic!("spans must serialize as an array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].read::<String>("name").expect("name"), "b");
        assert_eq!(items[1].read::<u64>("parent").expect("parent"), 0);
        assert_eq!(items[0].get("parent").expect("parent key"), &Value::Null);
    }
}
