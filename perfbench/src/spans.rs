//! An in-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (`lex_recover`, `parse_with`, `elab_topdec`, `elab_exp`,
//! `Compiled::program`, `Interp::run`, `Cache::load`/`store`). Spans of
//! one input share a trace id and point at the span that caused them.
//! A disabled recorder does nothing, so the same loop run with it off is
//! the untraced baseline for the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use recmod::telemetry::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `surface.parse`.
    pub name: &'static str,
    /// Identifier shared by the spans of one input.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end: u64,
}

/// A handle returned by [`Recorder::open`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    trace: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; when `on` is false every call is a no-op.
    pub fn new(on: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            on,
            trace: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a new trace: spans opened from now on carry `id`.
    pub fn begin_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::open`] (innermost first).
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now();
        self.spans[idx].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per span name: `(count, total nanoseconds, self nanoseconds)`,
    /// where self time is the duration minus the direct children's.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(c);
        }
        out
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |&(_, total, _)| total as f64 / 1e6)
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("trace", Json::UInt(s.trace)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_nanos", Json::UInt(s.start)),
                    ("dur_nanos", Json::UInt(s.end - s.start)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.begin_trace(7);
        let outer = r.open("outer");
        let inner = r.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(inner);
        r.close(outer);
        let t = r.totals();
        let (n, total, own) = t["outer"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].trace, 7);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.open("x");
        r.close(s);
        assert!(r.spans.is_empty());
    }
}
