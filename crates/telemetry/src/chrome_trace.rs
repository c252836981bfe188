//! Chrome Trace Event / Perfetto JSON export.
//!
//! Converts recorded [`Report`]s into the Trace Event Format's JSON
//! object form (load the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`):
//!
//! * each worker becomes one **thread lane** (`M`/`thread_name`
//!   metadata + `X` complete-duration events from its span tree);
//! * [`CounterSample`]s become **counter tracks** (`C` events), plus
//!   derived hit-rate tracks computed from hit/miss counter pairs;
//! * per-file events ([`FileEvent`]) become `X` events on their
//!   worker's lane, with an **instant** event (`i`) marking files that
//!   hit a resource limit or an internal error/panic.
//!
//! All timestamps are microseconds (the format's unit) measured from
//! the telemetry epoch, which a batch driver shares across workers so
//! the lanes align; sub-microsecond precision is kept as a fraction.

use crate::json::Json;
use crate::{CounterSample, Report, Span, SCHEMA_VERSION};

/// Process id used for every event (one process: the compiler).
const PID: u64 = 1;

/// One thread lane: a worker (or the single-file pipeline) plus what
/// its sink recorded.
#[derive(Debug)]
pub struct Lane<'a> {
    /// Trace thread id (worker index).
    pub tid: u64,
    /// Human-readable lane name, e.g. `worker 0`.
    pub name: String,
    /// The lane's telemetry report (spans + counter samples).
    pub report: &'a Report,
}

/// One per-file complete event for a batch lane.
#[derive(Debug, Clone)]
pub struct FileEvent {
    /// Display name (the file path).
    pub name: String,
    /// Lane (worker index) that compiled the file.
    pub tid: u64,
    /// Start offset in nanoseconds since the shared epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub dur_nanos: u64,
    /// When set, an instant event with this label is emitted at the
    /// file's end (e.g. `limit` / `internal`).
    pub instant: Option<String>,
}

/// A standalone instant event on a lane, independent of any file: the
/// serve session profiler uses these to mark supervision incidents
/// (faults fired, requests shed, workers dying and respawning, drain)
/// on the timeline.
#[derive(Debug, Clone)]
pub struct Mark {
    /// Instant label shown in the trace viewer, e.g. `fault-kill`.
    pub name: String,
    /// Lane (worker index, or a dedicated supervisor lane).
    pub tid: u64,
    /// Offset in nanoseconds since the shared epoch.
    pub at_nanos: u64,
}

/// Hit/miss counter pairs turned into derived `…hit_rate` tracks.
const RATE_PAIRS: &[(&str, &str, &str)] = &[
    (
        "kernel.whnf_cache_hit",
        "kernel.whnf_cache_miss",
        "kernel.whnf_hit_rate",
    ),
    (
        "syntax.intern_hit",
        "syntax.intern_miss",
        "syntax.intern_hit_rate",
    ),
];

fn micros(nanos: u64) -> Json {
    // Keep sub-microsecond precision: the format takes fractional ts.
    Json::Float(nanos as f64 / 1000.0)
}

fn meta(name: &str, tid: Option<u64>, value: &str) -> Json {
    let mut fields = vec![
        ("ph", Json::str("M")),
        ("name", Json::str(name)),
        ("pid", Json::UInt(PID)),
        ("args", Json::obj([("name", Json::str(value))])),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Json::UInt(tid)));
    }
    Json::obj(fields)
}

fn complete(name: &str, cat: &str, tid: u64, start_nanos: u64, dur_nanos: u64) -> Json {
    Json::obj([
        ("ph", Json::str("X")),
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("pid", Json::UInt(PID)),
        ("tid", Json::UInt(tid)),
        ("ts", micros(start_nanos)),
        ("dur", micros(dur_nanos)),
    ])
}

fn instant(name: &str, tid: u64, at_nanos: u64) -> Json {
    Json::obj([
        ("ph", Json::str("i")),
        ("name", Json::str(name)),
        ("cat", Json::str("alert")),
        ("pid", Json::UInt(PID)),
        ("tid", Json::UInt(tid)),
        ("ts", micros(at_nanos)),
        ("s", Json::str("t")),
    ])
}

fn counter(name: String, tid: u64, at_nanos: u64, value: Json) -> Json {
    Json::obj([
        ("ph", Json::str("C")),
        ("name", Json::Str(name)),
        ("pid", Json::UInt(PID)),
        ("tid", Json::UInt(tid)),
        ("ts", micros(at_nanos)),
        ("args", Json::obj([("value", value)])),
    ])
}

fn span_events(span: &Span, tid: u64, out: &mut Vec<Json>) {
    out.push(complete(
        span.name,
        "span",
        tid,
        span.start_nanos,
        span.nanos,
    ));
    for c in &span.children {
        span_events(c, tid, out);
    }
}

fn sample_events(s: &CounterSample, tid: u64, out: &mut Vec<Json>) {
    let get = |name: &str| s.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    for (name, v) in &s.values {
        out.push(counter(
            format!("{name} (w{tid})"),
            tid,
            s.nanos,
            Json::UInt(*v),
        ));
    }
    for (hit, miss, rate) in RATE_PAIRS {
        if let (Some(h), Some(m)) = (get(hit), get(miss)) {
            if h + m > 0 {
                out.push(counter(
                    format!("{rate} (w{tid})"),
                    tid,
                    s.nanos,
                    Json::Float(((h as f64 / (h + m) as f64) * 1e4).round() / 1e4),
                ));
            }
        }
    }
}

/// Exports the lanes and file events as one Trace Event Format JSON
/// document (object form, with `schema_version` and `traceEvents`).
pub fn export(process_name: &str, lanes: &[Lane<'_>], files: &[FileEvent]) -> Json {
    export_session(process_name, lanes, files, &[])
}

/// [`export`] plus standalone instant [`Mark`]s: the serve-session
/// variant, where supervision incidents (sheds, faults, respawns,
/// drain) appear as instants alongside the per-request lanes.
pub fn export_session(
    process_name: &str,
    lanes: &[Lane<'_>],
    files: &[FileEvent],
    marks: &[Mark],
) -> Json {
    let mut events = Vec::new();
    events.push(meta("process_name", None, process_name));
    for lane in lanes {
        events.push(meta("thread_name", Some(lane.tid), &lane.name));
    }
    for lane in lanes {
        for span in &lane.report.spans {
            span_events(span, lane.tid, &mut events);
        }
        for s in &lane.report.samples {
            sample_events(s, lane.tid, &mut events);
        }
    }
    for f in files {
        events.push(complete(&f.name, "file", f.tid, f.start_nanos, f.dur_nanos));
        if let Some(label) = &f.instant {
            events.push(instant(label, f.tid, f.start_nanos + f.dur_nanos));
        }
    }
    for m in marks {
        events.push(instant(&m.name, m.tid, m.at_nanos));
    }
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, judgement_span, sample, span, uninstall, Config, Counter};

    #[test]
    fn export_round_trips_and_has_the_required_fields() {
        install(Config::profiled());
        {
            let _outer = span("stage.kernel");
            let _inner = judgement_span("kernel.whnf");
        }
        crate::count(Counter::KernelWhnfCacheHit, 3);
        crate::count(Counter::KernelWhnfCacheMiss, 1);
        sample(
            &[Counter::KernelWhnfCacheHit, Counter::KernelWhnfCacheMiss],
            &[("syntax.intern_occupancy", 10)],
        );
        let report = uninstall().unwrap();

        let lanes = [Lane {
            tid: 0,
            name: "worker 0".into(),
            report: &report,
        }];
        let files = [FileEvent {
            name: "a.rm".into(),
            tid: 0,
            start_nanos: 0,
            dur_nanos: 1000,
            instant: Some("limit".into()),
        }];
        let doc = export("recmodc", &lanes, &files);
        let parsed = crate::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata, two X spans, one X file, one instant, counters.
        let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
        assert!(events.iter().any(|e| ph(e) == "M"));
        assert!(events.iter().any(|e| ph(e) == "i"));
        let xs: Vec<&Json> = events.iter().filter(|e| ph(e) == "X").collect();
        assert_eq!(xs.len(), 3);
        for x in &xs {
            assert!(x.get("ts").is_some());
            assert!(x.get("dur").is_some());
            assert_eq!(x.get("tid").and_then(Json::as_u64), Some(0));
            assert_eq!(x.get("pid").and_then(Json::as_u64), Some(1));
        }
        // Derived hit-rate track present alongside the raw counters.
        let cs: Vec<&Json> = events.iter().filter(|e| ph(e) == "C").collect();
        assert!(cs.iter().any(|c| c
            .get("name")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("whnf_hit_rate")));
    }
}
