//! # recmod-telemetry
//!
//! A zero-external-dependency telemetry layer for the recmod pipeline:
//!
//! * **counters** — one always-on per-thread array of monotone counters
//!   and high-water marks, indexed by the [`Counter`] registry in
//!   [`names`];
//! * **spans** — hierarchical wall-clock timings (via
//!   [`std::time::Instant`]) assembled into a tree;
//! * **trace** — a derivation-trace sink recording indented judgement
//!   lines, bounded in both depth and total width;
//! * **JSON** — a hand-rolled emitter (and minimal parser, for tests)
//!   in [`json`].
//!
//! Counters are *always on*: [`count`] and [`count_max`] are one add
//! (or max) on a slot of the calling thread's `[Cell<u64>; N]`, with no
//! sink check. Everything that reports counts is a view that subtracts
//! a baseline [`Counts`] snapshot from that array: a sink's
//! [`Report::counters`] (baseline taken at [`install`]), the kernel's
//! `Tc::stats`, the interner's `intern_stats` and the batch driver's
//! per-file deltas. A view reads the array of the thread that calls it,
//! so it must be read on the thread that did the work.
//!
//! The rest of the sink is *runtime-checked and thread-local*:
//! instrumented code calls [`span`], [`stage`] or [`trace_span`]
//! unconditionally, and each call first reads a thread-local flag. When
//! no sink is installed (the default), those entry points are a branch
//! on a `Cell<bool>` and nothing else — the disabled path allocates
//! nothing and never reads the clock. A test in the workspace asserts
//! this stays within noise of the pre-instrumentation baseline.
//!
//! Because the sink is thread-local, an evaluation running on a
//! dedicated big-stack thread must install its own sink and ship the
//! resulting [`Report`] back (reports are `Send`); [`Report::absorb`]
//! is the **single** merge implementation — [`Report::merge`] folds a
//! sequence of reports with it, and nothing else re-implements counter
//! or span merging.
//!
//! # Counter naming convention
//!
//! Every counter is registered in [`names`], which holds its dotted
//! name, `namespace.rest[.rest…]`, and whether it is a high-water mark.
//! The namespace identifies the layer that owns the counter:
//!
//! | namespace    | layer                                             |
//! |--------------|---------------------------------------------------|
//! | `kernel.*`   | the type-theory kernel (fuel, caches, unrolls)    |
//! | `syntax.*`   | the hash-consing interner                         |
//! | `surface.*`  | lexer / parser / elaborator                       |
//! | `phase.*`    | the phase splitter and verifier                   |
//! | `eval.*`     | the interpreter                                   |
//! | `driver.*`   | the parallel batch driver                         |
//! | `stage.*`    | pipeline stage timers (written by [`stage`])      |
//! | `internal.*` | last-resort accounting (caught panics, …)         |
//! | `cache.*`    | the driver's on-disk artifact cache               |
//! | `intern.*`   | the global interner's shard-level traffic         |
//!
//! Marks (names ending in `.hwm`) merge with `max` rather than `+`, and
//! a view reports their current value instead of subtracting: a mark
//! restarts at 0 on [`install`] and on [`restart_marks`] (the kernel
//! calls it when a checker run starts). Names ending in `.nanos` are
//! wall-clock derived and excluded from the deterministic cost model
//! (see `bench_json --costs`).
//!
//! # Profiling
//!
//! When [`Config::profile`] is set, two extra things happen: every
//! [`judgement_span`] records a real span (they are inert otherwise, so
//! `--stats` runs are not flooded with per-judgement nodes), and every
//! [`stage`] frame additionally records a span, so the span tree holds
//! complete-duration events for the whole pipeline. Spans carry a start
//! offset relative to the sink's *epoch* — [`Config::epoch`] lets a
//! batch driver hand every worker the same epoch so their span lanes
//! share one clock. [`sample`] appends counter-track samples
//! (timestamped counter snapshots) for trace exporters.
//!
//! # Example
//!
//! ```
//! use recmod_telemetry::{self as telemetry, Counter};
//!
//! telemetry::install(telemetry::Config::default());
//! {
//!     let _outer = telemetry::span("compile");
//!     telemetry::count(Counter::SurfaceTopdecs, 42);
//! }
//! let report = telemetry::uninstall().unwrap();
//! assert_eq!(report.counter(Counter::SurfaceTopdecs), 42);
//! assert_eq!(report.spans[0].name, "compile");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod chrome_trace;
pub mod diag;
pub mod fault;
pub mod json;
pub mod limits;
pub mod metrics;
pub mod names;
pub mod profile;

pub use limits::{parse_limits_spec, LimitExceeded, LimitKind, Limits};
pub use names::{Counter, Stage};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Version stamped into every JSON document this workspace emits
/// (`--stats=json`, `bench_json`, trace/log/cost files). Bump on any
/// breaking change to a schema; golden tests assert the current value.
///
/// History: 4 = one equivalence engine (the NbE machine is gone:
/// `--stats` dropped `equiv_engine` and the eval/quote/env-alloc and
/// synth-cache counters, the kernel text lines went back to their
/// pre-2 form with `whnf steps`, and the golden cost model's
/// `kernel.whnf_steps` is live again); 3 = sharded global interner + on-disk artifact cache (the
/// golden cost model dropped the now warmth-dependent
/// `syntax.intern_*` counters, `--stats` gained interner contention,
/// and cache entries embed this version in their key); 2 = S17 NbE
/// engine (the `--stats` kernel section gained `equiv_engine` and the
/// eval/quote/synth-cache counters, the kernel caches text line was
/// renamed, and the golden cost model's fuel accounting changed
/// engines); 1 = original.
pub const SCHEMA_VERSION: u64 = 4;

/// Span-node budget used by profiling configs: judgement-level spans
/// are orders of magnitude more numerous than stage spans, so the
/// profiling cap is far above [`Config::default`]'s. Drops beyond it
/// are still counted in [`Report::spans_dropped`].
pub const PROFILE_SPAN_MAX_NODES: usize = 1_000_000;

// ---------------------------------------------------------------------
// Thread-local sink state
// ---------------------------------------------------------------------

thread_local! {
    /// The calling thread's counters, indexed by [`Counter`]. Always on.
    static COUNTS: [Cell<u64>; names::COUNT] = const { [const { Cell::new(0) }; names::COUNT] };
    /// Fast-path flag: is a sink installed on this thread?
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Fast-path flag: is derivation tracing requested?
    static TRACING: Cell<bool> = const { Cell::new(false) };
    /// Fast-path flag: are judgement-level profile spans requested?
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
    /// Open stage frames (see [`stage`]): start instant plus nanoseconds
    /// already attributed to nested stages, so each stage records its
    /// *exclusive* self time.
    static STAGES: RefCell<Vec<StageFrame>> = const { RefCell::new(Vec::new()) };
}

/// Sink configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Record derivation-trace lines at most this deep (`None` disables
    /// tracing entirely; depth 0 records only top-level judgements).
    pub trace_depth: Option<usize>,
    /// Maximum number of trace lines retained (width limit); further
    /// lines are counted as dropped, not stored.
    pub trace_max_lines: usize,
    /// Maximum number of span nodes retained; further spans still time
    /// their parents correctly but are not recorded individually.
    pub span_max_nodes: usize,
    /// Record judgement-level profile spans ([`judgement_span`]) and
    /// mirror [`stage`] frames as spans, for `--profile`/`--profile-text`.
    pub profile: bool,
    /// The instant span start offsets are measured from. `None` (the
    /// default) uses the [`install`] time; a batch driver passes one
    /// shared instant so every worker's spans live on the same clock.
    pub epoch: Option<Instant>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trace_depth: None,
            trace_max_lines: 10_000,
            span_max_nodes: 10_000,
            profile: false,
            epoch: None,
        }
    }
}

impl Config {
    /// A config with derivation tracing enabled to `depth`.
    pub fn with_trace(depth: usize) -> Self {
        Config {
            trace_depth: Some(depth),
            ..Config::default()
        }
    }

    /// A config with judgement-level profiling enabled (and the span
    /// budget raised to [`PROFILE_SPAN_MAX_NODES`]).
    pub fn profiled() -> Self {
        Config {
            profile: true,
            span_max_nodes: PROFILE_SPAN_MAX_NODES,
            ..Config::default()
        }
    }
}

/// One recorded span: a name, when it started (relative to the sink's
/// epoch), its wall-clock duration, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span label.
    pub name: &'static str,
    /// Start offset in nanoseconds since the sink's epoch.
    pub start_nanos: u64,
    /// Elapsed wall-clock nanoseconds.
    pub nanos: u64,
    /// Nested spans, in completion order.
    pub children: Vec<Span>,
}

/// One counter-track sample: selected counter values at one instant,
/// recorded by [`sample`] (e.g. at batch file boundaries) so trace
/// exporters can draw counters over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample time in nanoseconds since the sink's epoch.
    pub nanos: u64,
    /// `(counter name, value at sample time)` pairs.
    pub values: Vec<(&'static str, u64)>,
}

/// An open span: children accumulate until the guard closes it.
#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    start: Instant,
    children: Vec<Span>,
}

/// One recorded trace line: nesting depth plus rendered judgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// Nesting depth of the judgement (0 = top level).
    pub depth: usize,
    /// The rendered judgement.
    pub text: String,
}

#[derive(Debug)]
struct Sink {
    config: Config,
    /// The instant span/sample offsets are measured from.
    epoch: Instant,
    /// The thread's counters at install: the report's baseline.
    base: Counts,
    span_roots: Vec<Span>,
    span_stack: Vec<OpenSpan>,
    span_nodes: usize,
    span_dropped: u64,
    samples: Vec<CounterSample>,
    trace_lines: Vec<TraceLine>,
    trace_depth: usize,
    trace_dropped: u64,
}

impl Sink {
    fn new(config: Config) -> Self {
        let epoch = config.epoch.unwrap_or_else(Instant::now);
        Sink {
            config,
            epoch,
            base: Counts::now(),
            span_roots: Vec::new(),
            span_stack: Vec::new(),
            span_nodes: 0,
            span_dropped: 0,
            samples: Vec::new(),
            trace_lines: Vec::new(),
            trace_depth: 0,
            trace_dropped: 0,
        }
    }

    /// Nanoseconds from the sink's epoch to `at` (0 if `at` predates it).
    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn into_report(mut self) -> Report {
        // Close any spans left open (e.g. uninstall inside a guard):
        // attribute the time measured so far so the tree stays a tree.
        while let Some(open) = self.span_stack.pop() {
            let span = Span {
                name: open.name,
                start_nanos: self.since_epoch(open.start),
                nanos: open.start.elapsed().as_nanos() as u64,
                children: open.children,
            };
            match self.span_stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => self.span_roots.push(span),
            }
        }
        Report {
            counters: Counts::now().since(&self.base).nonzero(),
            spans: self.span_roots,
            spans_dropped: self.span_dropped,
            samples: self.samples,
            trace: self.trace_lines,
            trace_dropped: self.trace_dropped,
        }
    }
}

/// Everything one sink recorded. Plain data: `Send`, mergeable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// What the counters moved while the sink was installed, zeros
    /// omitted, in name order.
    pub counters: BTreeMap<Counter, u64>,
    /// Completed top-level spans in completion order.
    pub spans: Vec<Span>,
    /// Spans not recorded because the node limit was hit.
    pub spans_dropped: u64,
    /// Counter-track samples recorded by [`sample`], in time order.
    pub samples: Vec<CounterSample>,
    /// Recorded derivation-trace lines, in emission order.
    pub trace: Vec<TraceLine>,
    /// Trace lines not recorded because of the depth or width limits.
    pub trace_dropped: u64,
}

impl Report {
    /// The value of a counter (0 when it did not move).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(&c).copied().unwrap_or(0)
    }

    /// Merges `other` into `self`: counters add, except marks which take
    /// the max; spans, samples, and trace lines append. This is the
    /// single merge implementation — [`Report::merge`] folds with it.
    pub fn absorb(&mut self, other: Report) {
        for (c, v) in other.counters {
            let slot = self.counters.entry(c).or_insert(0);
            *slot = if c.is_mark() {
                (*slot).max(v)
            } else {
                *slot + v
            };
        }
        self.spans.extend(other.spans);
        self.spans_dropped += other.spans_dropped;
        self.samples.extend(other.samples);
        self.trace.extend(other.trace);
        self.trace_dropped += other.trace_dropped;
    }

    /// Renders the trace as an indented listing (two spaces per level).
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for line in &self.trace {
            for _ in 0..line.depth {
                out.push_str("  ");
            }
            out.push_str(&line.text);
            out.push('\n');
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!(
                "… {} trace line(s) beyond the depth/width limits\n",
                self.trace_dropped
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Install / uninstall
// ---------------------------------------------------------------------

/// Installs a fresh sink on the current thread, replacing (and
/// discarding) any previous one. The sink's report counts from here:
/// sums from the current values, marks from 0 ([`restart_marks`]).
pub fn install(config: Config) {
    restart_marks();
    TRACING.with(|t| t.set(config.trace_depth.is_some()));
    PROFILING.with(|p| p.set(config.profile));
    ACTIVE.with(|a| a.set(true));
    SINK.with(|s| *s.borrow_mut() = Some(Sink::new(config)));
}

/// Removes the current thread's sink and returns what it recorded.
pub fn uninstall() -> Option<Report> {
    ACTIVE.with(|a| a.set(false));
    TRACING.with(|t| t.set(false));
    PROFILING.with(|p| p.set(false));
    SINK.with(|s| s.borrow_mut().take()).map(Sink::into_report)
}

/// Is a sink installed on this thread? (The fast-path check every
/// instrumented call performs first.)
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Is derivation tracing requested? Callers use this to skip building
/// trace payloads (rendering judgements is far more expensive than the
/// check).
#[inline]
pub fn trace_enabled() -> bool {
    TRACING.with(|t| t.get())
}

/// Are judgement-level profile spans requested ([`Config::profile`])?
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.with(|p| p.get())
}

fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
    SINK.with(|s| s.borrow_mut().as_mut().map(f))
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Adds `n` to counter `c` on the calling thread. Always on: one add
/// on the thread's counter array, with or without a sink.
#[inline]
pub fn count(c: Counter, n: u64) {
    COUNTS.with(|a| {
        let slot = &a[c as usize];
        slot.set(slot.get() + n);
    });
}

/// Raises mark `c` on the calling thread to at least `v`. Always on.
#[inline]
pub fn count_max(c: Counter, v: u64) {
    COUNTS.with(|a| {
        let slot = &a[c as usize];
        slot.set(slot.get().max(v));
    });
}

/// Restarts every mark on the calling thread at 0, so marks read from
/// here on cover only what follows. [`install`] calls it, and so does
/// the kernel when a checker run starts.
pub fn restart_marks() {
    COUNTS.with(|a| {
        for &c in Counter::ALL.iter().filter(|c| c.is_mark()) {
            a[c as usize].set(0);
        }
    });
}

/// A copy of the calling thread's counter array: the baseline every
/// counter view subtracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; names::COUNT]);

impl Counts {
    /// The calling thread's counters now.
    pub fn now() -> Counts {
        COUNTS.with(|a| Counts(std::array::from_fn(|i| a[i].get())))
    }

    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// What moved from `base` to `self`: sums subtract, marks keep their
    /// value in `self`.
    pub fn since(&self, base: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| {
            if Counter::ALL[i].is_mark() {
                self.0[i]
            } else {
                self.0[i].saturating_sub(base.0[i])
            }
        }))
    }

    /// The nonzero counters, in name order.
    pub fn nonzero(&self) -> BTreeMap<Counter, u64> {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, v)| v > 0)
            .collect()
    }
}

/// Nanoseconds from the installed sink's epoch to `at` (`None` without
/// a sink). Batch drivers stamp per-file start offsets with this so
/// file events line up with the sink's spans on a shared timeline;
/// passing the same `Instant` used for duration measurement makes
/// `start + dur` of consecutive events on one thread non-overlapping
/// by construction.
pub fn epoch_offset_nanos(at: Instant) -> Option<u64> {
    with_sink(|s| s.since_epoch(at))
}

/// What the counters moved since the sink was installed, zeros omitted
/// (`None` without a sink): the report's counters so far.
pub fn snapshot_counters() -> Option<BTreeMap<Counter, u64>> {
    with_sink(|s| Counts::now().since(&s.base).nonzero())
}

/// Records a counter-track sample: the values of `counters` since the
/// sink was installed plus caller-computed `extra` pairs (gauges the
/// sink cannot see, e.g. interner occupancy), stamped with the time
/// since the sink's epoch. No-op without a sink.
pub fn sample(counters: &[Counter], extra: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        let nanos = s.since_epoch(Instant::now());
        let moved = Counts::now().since(&s.base);
        let mut values: Vec<(&'static str, u64)> =
            counters.iter().map(|&c| (c.name(), moved.get(c))).collect();
        values.extend_from_slice(extra);
        s.samples.push(CounterSample { nanos, values });
    });
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Opens a hierarchical timed span; the returned guard closes it on
/// drop. Without a sink the guard is inert and the clock is never read.
#[must_use = "a span measures until the guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    with_sink(|s| {
        s.span_stack.push(OpenSpan {
            name,
            start: Instant::now(),
            children: Vec::new(),
        })
    });
    SpanGuard { active: true }
}

/// Opens a judgement-level probe. Two things happen, independently:
///
/// * a frame named `name` is pushed on the always-on [`diag`] stack
///   (and logged in the flight recorder), so a failure constructed
///   while the guard lives can snapshot its derivation provenance;
/// * if [`Config::profile`] was set, a real timed [`span`] opens too.
///   Judgement spans fire once per judgement *instance* (like
///   derivation tracing), far too many nodes for a plain `--stats` run
///   to carry, so the timing half stays opt-in.
#[must_use = "a span measures until the guard is dropped"]
#[inline]
pub fn judgement_span(name: &'static str) -> JudgementGuard {
    fault::tick();
    let frame = diag::enter(name);
    let span = if profiling_enabled() {
        span(name)
    } else {
        SpanGuard { active: false }
    };
    JudgementGuard {
        _frame: frame,
        _span: span,
    }
}

/// Guard for a [`judgement_span`]: pops the provenance frame (always)
/// and closes the profile span (when profiling) on drop.
#[derive(Debug)]
#[must_use = "a span measures until the guard is dropped"]
pub struct JudgementGuard {
    _frame: diag::FrameGuard,
    _span: SpanGuard,
}

/// Guard for an open [`span`]; closes the span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        with_sink(|s| {
            // Tolerate a sink swapped out mid-span: nothing to close.
            let Some(open) = s.span_stack.pop() else {
                return;
            };
            let node = Span {
                name: open.name,
                start_nanos: s.since_epoch(open.start),
                nanos: open.start.elapsed().as_nanos() as u64,
                children: open.children,
            };
            if s.span_nodes >= s.config.span_max_nodes {
                s.span_dropped += 1;
                // Still merge the children upward so completed subtrees
                // are not silently lost.
                let kids = node.children;
                match s.span_stack.last_mut() {
                    Some(parent) => parent.children.extend(kids),
                    None => s.span_roots.extend(kids),
                }
                return;
            }
            s.span_nodes += 1;
            match s.span_stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => s.span_roots.push(node),
            }
        });
    }
}

// ---------------------------------------------------------------------
// Stage timers
// ---------------------------------------------------------------------

/// One open [`stage`] frame.
#[derive(Debug)]
struct StageFrame {
    stage: Stage,
    start: Instant,
    /// Wall-clock nanoseconds already claimed by nested stages.
    child_nanos: u64,
}

/// Times `f` as pipeline stage `stage`, attributing the elapsed
/// wall-clock to its counters [`Stage::nanos`] and [`Stage::calls`].
///
/// Unlike [`span`], stage time is *exclusive*: nanoseconds spent inside
/// a nested `stage` call (same name or not) are attributed to the inner
/// stage only, so the per-stage totals partition the instrumented wall
/// clock and recursive entry points never double-count. Without a sink
/// this is a single branch and `f` runs untouched.
#[inline]
pub fn stage<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let _g = StageGuard::open(stage);
    f()
}

/// Guard for an open [`stage`]; attributes the self time when dropped
/// (including on unwind, so a panicking batch item cannot corrupt the
/// frame stack of a long-lived worker sink). In profile mode the stage
/// is mirrored as a span, so the exported span tree carries
/// complete-duration events for every pipeline stage.
#[derive(Debug)]
struct StageGuard {
    /// Mirror span, live only when [`Config::profile`] is set. It closes
    /// after the stage frame is attributed (fields drop after `drop`) —
    /// either order is correct (span and stage stacks are independent).
    _span: SpanGuard,
}

impl StageGuard {
    fn open(stage: Stage) -> StageGuard {
        let _span = if profiling_enabled() {
            span(stage.name())
        } else {
            SpanGuard { active: false }
        };
        STAGES.with(|s| {
            s.borrow_mut().push(StageFrame {
                stage,
                start: Instant::now(),
                child_nanos: 0,
            })
        });
        StageGuard { _span }
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        STAGES.with(|s| {
            let mut stack = s.borrow_mut();
            let Some(frame) = stack.pop() else {
                return;
            };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let own = elapsed.saturating_sub(frame.child_nanos);
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos += elapsed;
            }
            drop(stack);
            count(frame.stage.nanos(), own);
            count(frame.stage.calls(), 1);
        });
    }
}

/// Summed stage attribution: exclusive nanoseconds plus entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Exclusive wall-clock nanoseconds attributed to the stage.
    pub nanos: u64,
    /// Number of stage entries recorded.
    pub calls: u64,
}

impl Report {
    /// Merges many reports (e.g. one per batch worker) into one, in
    /// order. Counters add (`.hwm` marks take the max), spans and trace
    /// lines append; see [`Report::absorb`].
    pub fn merge(reports: impl IntoIterator<Item = Report>) -> Report {
        let mut out = Report::default();
        for r in reports {
            out.absorb(r);
        }
        out
    }

    /// Rolls the [`Stage::nanos`] / [`Stage::calls`] counter pairs
    /// recorded by [`stage`] into a per-stage table keyed by the short
    /// stage name (`"lex"`, `"parse"`, …), for the stages that ran.
    pub fn stage_totals(&self) -> BTreeMap<&'static str, StageTotal> {
        Stage::ALL
            .iter()
            .map(|s| {
                let total = StageTotal {
                    nanos: self.counter(s.nanos()),
                    calls: self.counter(s.calls()),
                };
                (&s.name()["stage.".len()..], total)
            })
            .filter(|(_, t)| *t != StageTotal::default())
            .collect()
    }
}

// ---------------------------------------------------------------------
// Derivation trace
// ---------------------------------------------------------------------

/// Records one derivation step at the current nesting depth and deepens
/// the nesting until the guard drops. `render` is only invoked when the
/// line will actually be stored (within the depth and width limits), so
/// the disabled path never formats anything.
#[must_use = "the trace guard tracks judgement nesting until dropped"]
pub fn trace_span(render: impl FnOnce() -> String) -> TraceGuard {
    if !trace_enabled() {
        return TraceGuard { active: false };
    }
    let mut render = Some(render);
    with_sink(|s| {
        let within_depth = s.config.trace_depth.is_some_and(|d| s.trace_depth <= d);
        let within_width = s.trace_lines.len() < s.config.trace_max_lines;
        if within_depth && within_width {
            if let Some(render) = render.take() {
                s.trace_lines.push(TraceLine {
                    depth: s.trace_depth,
                    text: render(),
                });
            }
        } else {
            s.trace_dropped += 1;
        }
        s.trace_depth += 1;
    });
    TraceGuard { active: true }
}

/// Guard for a [`trace_span`]; shallows the nesting when dropped.
#[derive(Debug)]
pub struct TraceGuard {
    active: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            with_sink(|s| s.trace_depth = s.trace_depth.saturating_sub(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Counter::{DriverFiles, DriverSteals, KernelAssumptionHwm as Mark};

    #[test]
    fn disabled_sink_records_nothing() {
        assert!(!enabled());
        let _g = span("nothing");
        drop(_g);
        assert!(uninstall().is_none());
    }

    #[test]
    fn counters_add_and_marks_max() {
        install(Config::default());
        count(DriverFiles, 2);
        count(DriverFiles, 3);
        count_max(Mark, 7);
        count_max(Mark, 4);
        let r = uninstall().unwrap();
        assert_eq!(r.counter(DriverFiles), 5);
        assert_eq!(r.counter(Mark), 7);
        assert_eq!(r.counter(Counter::CacheGcEvicted), 0);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        install(Config::default());
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner2 = span("inner2");
            }
        }
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "outer");
        let kids: Vec<_> = r.spans[0].children.iter().map(|s| s.name).collect();
        assert_eq!(kids, ["inner", "inner2"]);
    }

    #[test]
    fn span_guard_outliving_sink_is_harmless() {
        install(Config::default());
        let g = span("orphan");
        let _ = uninstall().unwrap();
        drop(g); // must not panic
        assert!(!enabled());
    }

    #[test]
    fn uninstall_closes_open_spans() {
        install(Config::default());
        let _g1 = span("a");
        let _g2 = span("b");
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "a");
        assert_eq!(r.spans[0].children[0].name, "b");
    }

    #[test]
    fn trace_respects_depth_limit() {
        install(Config::with_trace(1));
        {
            let _a = trace_span(|| "level0".into());
            {
                let _b = trace_span(|| "level1".into());
                {
                    let _c = trace_span(|| "level2 (dropped)".into());
                }
            }
        }
        let r = uninstall().unwrap();
        let depths: Vec<_> = r.trace.iter().map(|l| l.depth).collect();
        assert_eq!(depths, [0, 1]);
        assert_eq!(r.trace_dropped, 1);
    }

    #[test]
    fn trace_respects_width_limit() {
        install(Config {
            trace_depth: Some(10),
            trace_max_lines: 3,
            ..Config::default()
        });
        for i in 0..5 {
            let _g = trace_span(|| format!("line {i}"));
        }
        let r = uninstall().unwrap();
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace_dropped, 2);
    }

    #[test]
    fn trace_render_closure_not_called_when_dropped() {
        install(Config::with_trace(0));
        let _a = trace_span(|| "kept".into());
        let _b = trace_span(|| panic!("must not render beyond the depth limit"));
        drop(_b);
        drop(_a);
        let r = uninstall().unwrap();
        assert_eq!(r.trace.len(), 1);
    }

    #[test]
    fn absorb_merges_counters_spans_and_trace() {
        install(Config::with_trace(2));
        count(DriverSteals, 1);
        count_max(Mark, 9);
        let _ = trace_span(|| "one".into());
        let mut a = uninstall().unwrap();

        install(Config::with_trace(2));
        count(DriverSteals, 2);
        count_max(Mark, 4);
        {
            let _s = span("child");
        }
        let b = uninstall().unwrap();

        assert_eq!(b.counter(Mark), 4, "install restarts marks");
        a.absorb(b);
        assert_eq!(a.counter(DriverSteals), 3);
        assert_eq!(a.counter(Mark), 9);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.trace.len(), 1);
    }

    #[test]
    fn stage_times_are_exclusive_and_partition() {
        install(Config::default());
        let spin = |ms: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < std::time::Duration::from_millis(ms) {
                std::hint::black_box(0u64);
            }
        };
        stage(Stage::Parse, || {
            spin(4);
            stage(Stage::Kernel, || spin(4));
        });
        let r = uninstall().unwrap();
        let totals = r.stage_totals();
        let parse = totals["parse"];
        let kernel = totals["kernel"];
        assert_eq!(parse.calls, 1);
        assert_eq!(kernel.calls, 1);
        // Kernel time must NOT be double-counted into parse: each stage
        // saw ~4ms of exclusive time.
        assert!(kernel.nanos >= 3_000_000, "kernel {kernel:?}");
        assert!(
            parse.nanos >= 3_000_000 && parse.nanos < 8_000_000,
            "parse self-time should exclude the nested kernel stage: {parse:?}"
        );
    }

    #[test]
    fn recursive_stage_entries_do_not_double_count() {
        install(Config::default());
        fn rec(n: usize) {
            stage(Stage::Kernel, || {
                if n > 0 {
                    rec(n - 1);
                }
            });
        }
        rec(5);
        let r = uninstall().unwrap();
        let k = r.stage_totals()["kernel"];
        assert_eq!(k.calls, 6);
        // Six nested frames over a near-instant body: self times sum to
        // roughly the single outer elapsed, far below a millisecond.
        assert!(k.nanos < 1_000_000, "{k:?}");
    }

    #[test]
    fn stage_without_sink_is_a_noop() {
        assert!(!enabled());
        let out = stage(Stage::Parse, || 17);
        assert_eq!(out, 17);
        assert!(uninstall().is_none());
    }

    #[test]
    fn merge_folds_reports_in_order() {
        let mut reports = Vec::new();
        for i in 0..3u64 {
            install(Config::default());
            count(DriverFiles, i + 1);
            count_max(Mark, 10 * (i + 1));
            stage(Stage::Parse, || std::hint::black_box(0));
            reports.push(uninstall().unwrap());
        }
        let merged = Report::merge(reports);
        assert_eq!(merged.counter(DriverFiles), 6);
        assert_eq!(merged.counter(Mark), 30);
        assert_eq!(merged.stage_totals()["parse"].calls, 3);
    }

    #[test]
    fn judgement_spans_are_inert_without_profile_mode() {
        install(Config::default());
        {
            let _g = judgement_span("kernel.whnf");
        }
        let r = uninstall().unwrap();
        assert!(r.spans.is_empty());

        install(Config::profiled());
        {
            let _g = judgement_span("kernel.whnf");
        }
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "kernel.whnf");
    }

    #[test]
    fn profile_mode_mirrors_stages_as_spans() {
        install(Config::profiled());
        stage(Stage::Parse, || {
            let _j = judgement_span("kernel.whnf");
        });
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "stage.parse");
        assert_eq!(r.spans[0].children[0].name, "kernel.whnf");
        // The stage counters are recorded exactly as in non-profile mode.
        assert_eq!(r.stage_totals()["parse"].calls, 1);
    }

    #[test]
    fn span_starts_are_monotone_and_contained() {
        install(Config::profiled());
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span("inner");
        }
        let r = uninstall().unwrap();
        let outer = &r.spans[0];
        let inner = &outer.children[0];
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(inner.start_nanos + inner.nanos <= outer.start_nanos + outer.nanos);
    }

    #[test]
    fn samples_capture_counters_and_extras() {
        install(Config::default());
        count(Counter::KernelWhnfCacheHit, 3);
        sample(
            &[Counter::KernelWhnfCacheHit, Counter::CacheGcEvicted],
            &[("syntax.intern_occupancy", 17)],
        );
        count(Counter::KernelWhnfCacheHit, 2);
        sample(&[Counter::KernelWhnfCacheHit], &[]);
        let r = uninstall().unwrap();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(
            r.samples[0].values,
            vec![
                ("kernel.whnf_cache_hit", 3),
                ("cache.gc_evicted", 0),
                ("syntax.intern_occupancy", 17),
            ]
        );
        assert_eq!(r.samples[1].values, vec![("kernel.whnf_cache_hit", 5)]);
        assert!(r.samples[1].nanos >= r.samples[0].nanos);
    }

    #[test]
    fn snapshot_counters_subtracts_into_deltas() {
        count(DriverFiles, 100);
        install(Config::default());
        count(DriverFiles, 2);
        let before = Counts::now();
        count(DriverFiles, 3);
        count(Counter::KernelWhnfCacheHit, 1);
        let delta = Counts::now().since(&before);
        let snapshot = snapshot_counters().unwrap();
        let _ = uninstall();
        assert_eq!(delta.get(DriverFiles), 3);
        assert_eq!(delta.get(Counter::KernelWhnfCacheHit), 1);
        assert_eq!(delta.nonzero().len(), 2, "{delta:?}");
        // The sink's view starts at install, not at thread start.
        assert_eq!(snapshot[&DriverFiles], 5);
    }

    #[test]
    fn counting_needs_no_sink_and_marks_restart() {
        assert!(!enabled());
        let before = Counts::now();
        count(DriverFiles, 4);
        count_max(Mark, 6);
        count_max(Mark, 2);
        let delta = Counts::now().since(&before);
        assert_eq!(delta.get(DriverFiles), 4);
        assert_eq!(delta.get(Mark), 6);
        restart_marks();
        assert_eq!(Counts::now().get(Mark), 0);
        assert_eq!(Counts::now().get(DriverFiles), before.get(DriverFiles) + 4);
    }

    #[test]
    fn shared_epoch_aligns_two_sinks() {
        let epoch = Instant::now();
        let mk = || Config {
            epoch: Some(epoch),
            ..Config::profiled()
        };
        install(mk());
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _s = span("late");
        }
        let r = uninstall().unwrap();
        // The span started well after the shared epoch, so its offset
        // reflects the wait, not the install time.
        assert!(r.spans[0].start_nanos >= 1_000_000);
    }

    #[test]
    fn render_trace_indents() {
        install(Config::with_trace(3));
        {
            let _a = trace_span(|| "outer".into());
            let _b = trace_span(|| "inner".into());
        }
        let r = uninstall().unwrap();
        assert_eq!(r.render_trace(), "outer\n  inner\n");
    }
}
