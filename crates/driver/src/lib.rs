//! Parallel batch compilation: a work-stealing driver with warm
//! per-worker caches over a shared global interner.
//!
//! The pipeline's *mutable* hot state — the kernel's whnf memo and
//! equivalence cache, the telemetry sink — is thread-local by design,
//! so workers never contend on it and reports merge after the fact.
//! The *immutable* hot state, the hash-consed syntax spine, is the
//! opposite: since S18 the interner is process-global and sharded
//! (`recmod_syntax::intern`), so `HC<T>` is `Send + Sync` and N
//! workers share one canonical node per distinct subtree instead of
//! re-interning N copies. Per-worker memo tables stay sound because
//! `NodeId`s are now canonical process-wide — a memo key means the
//! same structure on every thread, it is merely *private* warmth.
//! This crate supplies the scheduler, a zero-dependency work-stealer:
//!
//! * jobs are pre-seeded round-robin into one deque per worker;
//! * a worker pops from the **front** of its own deque and, when that
//!   runs dry, steals from the **back** of a victim's — owner and
//!   thief touch opposite ends, so contention on the per-deque mutex
//!   is brief and the stolen work is the coldest;
//! * each worker keeps its elaborator (and hence whnf memo and
//!   equivalence cache) **warm across files** via
//!   [`Elaborator::renew`], which resets per-program state but keeps
//!   the memo tables — sound because context stamps are never reused
//!   within a thread and the empty context is stamp 0 everywhere;
//! * results carry their input index and are re-sequenced before
//!   return, so output order is deterministic regardless of
//!   scheduling; per-worker telemetry reports are merged with
//!   [`Report::merge`].
//!
//! Every file goes through `compile`, the one compile path shared
//! with the compile service ([`serve`]): it re-renders a cached verdict
//! or runs the pipeline on the warm elaborator behind a `catch_unwind`,
//! classifies and renders the result, captures crash data for limit
//! and internal outcomes, and stores cacheable verdicts in the
//! content-addressed artifact cache ([`cache`]). The batch driver adds
//! only scheduling and per-file accounting around it; the service adds
//! admission, supervision and retry.
//!
//! A panic inside one file's compilation is caught at the file
//! boundary: the file reports [`FileStatus::Internal`], the worker
//! drops its (possibly poisoned) elaborator and rebuilds a fresh one,
//! and every other file is unaffected.

pub mod cache;
pub mod serve;

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use recmod_surface::diag::{self as sdiag, Diagnostic};
use recmod_surface::elab::Elaborator;
use recmod_surface::error::SurfaceError;
use recmod_surface::pipeline::compile_with_limits_in;
use recmod_telemetry::diag::CrashData;
use recmod_telemetry::{fault, Config, Counter, Counts, Limits, Report};

/// Process exit code for a clean batch.
pub const EXIT_OK: u8 = 0;
/// Exit code when at least one file has ordinary diagnostics.
pub const EXIT_USER: u8 = 1;
/// Exit code when at least one file hit a resource limit.
pub const EXIT_LIMIT: u8 = 3;
/// Exit code when at least one file hit an internal error or panic.
pub const EXIT_INTERNAL: u8 = 4;

/// Stack size of every compile thread (batch workers, service workers
/// and the single-file CLI's pipeline thread): parsing, elaboration and
/// evaluation are recursive, so a big stack lets the [`Limits`] depth
/// guards fire long before the host stack is at risk.
pub const DEFAULT_STACK_SIZE: usize = 512 * 1024 * 1024;

/// One unit of work: a display name (usually a path) plus source text.
#[derive(Debug, Clone)]
pub struct Job {
    /// Name used to prefix diagnostics, e.g. `examples/list.rm`.
    pub name: String,
    /// The program source.
    pub source: String,
    /// Per-job wall-clock deadline override in milliseconds. `None`
    /// falls back to [`DriverConfig::deadline_ms`]. The compile service
    /// uses this for per-request deadlines; deadlines are re-armed as
    /// absolute instants when the job *starts*, never earlier.
    pub deadline_ms: Option<u64>,
}

impl Job {
    /// A job from a name and source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Job {
            name: name.into(),
            source: source.into(),
            deadline_ms: None,
        }
    }

    /// Overrides the per-job deadline (milliseconds from job start).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// How one file's compilation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileStatus {
    /// Compiled cleanly.
    Ok,
    /// Ordinary (lex/parse/scope/type) diagnostics.
    Error,
    /// Aborted on a resource limit.
    Limit,
    /// Internal kernel error, or a panic caught at the file boundary.
    Internal,
}

impl FileStatus {
    /// The exit code this status maps to.
    pub fn exit_code(self) -> u8 {
        match self {
            FileStatus::Ok => EXIT_OK,
            FileStatus::Error => EXIT_USER,
            FileStatus::Limit => EXIT_LIMIT,
            FileStatus::Internal => EXIT_INTERNAL,
        }
    }

    /// Stable status label: `ok`, `error`, `limit` or `internal`.
    pub fn label(self) -> &'static str {
        match self {
            FileStatus::Ok => "ok",
            FileStatus::Error => "error",
            FileStatus::Limit => "limit",
            FileStatus::Internal => "internal",
        }
    }

    /// Limit and internal outcomes: the classes a crash bundle is
    /// written for.
    pub fn is_crash(self) -> bool {
        matches!(self, FileStatus::Limit | FileStatus::Internal)
    }
}

/// The result of compiling one job.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// The job's display name.
    pub name: String,
    /// How compilation ended.
    pub status: FileStatus,
    /// `(name, description)` pairs for the file's top-level bindings
    /// (empty unless [`FileStatus::Ok`]).
    pub summaries: Vec<(String, String)>,
    /// Fully rendered diagnostic lines (`name:line:col: error: …`),
    /// capped by `max_errors` with a trailing `… and N more` line.
    pub diagnostics: Vec<String>,
    /// Structured diagnostics for the file, **never truncated** by
    /// `max_errors` (the machine-readable stream must be complete).
    pub diags: Vec<Diagnostic>,
    /// Flight-recorder tail + counter snapshot captured on the worker
    /// that compiled this file, present only for limit/internal
    /// outcomes (the inputs a crash bundle is written for).
    pub crash: Option<CrashData>,
    /// Index of the worker that compiled this file.
    pub worker: usize,
    /// Whether this file was stolen from another worker's deque.
    pub stolen: bool,
    /// Start offset in nanoseconds since the batch telemetry epoch
    /// (0 when telemetry was not requested).
    pub start_nanos: u64,
    /// Wall-clock nanoseconds spent compiling this file.
    pub nanos: u64,
    /// What the counters moved while this file compiled (a view of the
    /// worker's counters against a baseline taken at the file's start),
    /// recorded when [`DriverConfig::file_counters`] is set and
    /// telemetry is installed.
    pub counters: Option<std::collections::BTreeMap<Counter, u64>>,
}

/// Per-worker accounting returned alongside the outcomes.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Worker index.
    pub worker: usize,
    /// Files this worker compiled.
    pub files: usize,
    /// How many of those were stolen from another worker's deque.
    pub steals: usize,
    /// The worker's telemetry report, when telemetry was requested.
    pub report: Option<Report>,
}

/// The result of a whole batch.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per job, **in input order** regardless of which
    /// worker ran what when.
    pub outcomes: Vec<FileOutcome>,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerSummary>,
    /// All workers' telemetry reports merged ([`Report::merge`]);
    /// `None` when telemetry was not requested.
    pub merged: Option<Report>,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u64,
    /// Deduplicated cache-health warnings (`C001`–`C003`), empty when
    /// no cache was configured or the cache behaved. Callers print
    /// these to stderr; they never affect verdicts or exit codes.
    pub cache_warnings: Vec<cache::CacheWarning>,
}

impl BatchResult {
    /// Aggregate exit code: internal(4) > limit(3) > user(1) > ok(0).
    pub fn exit_code(&self) -> u8 {
        let mut code = EXIT_OK;
        for o in &self.outcomes {
            code = match (code, o.status.exit_code()) {
                (EXIT_INTERNAL, _) | (_, EXIT_INTERNAL) => EXIT_INTERNAL,
                (EXIT_LIMIT, c) | (c, EXIT_LIMIT) if c != EXIT_INTERNAL => EXIT_LIMIT,
                (a, b) => a.max(b),
            };
        }
        code
    }

    /// Files with [`FileStatus::Ok`].
    pub fn ok_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == FileStatus::Ok)
            .count()
    }
}

/// Batch-compilation settings.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads. Clamped to `1..=jobs.len()`.
    pub jobs: usize,
    /// Base resource limits for every file.
    pub limits: Limits,
    /// Optional *per-file* wall-clock deadline; each file gets a fresh
    /// deadline (a batch-wide deadline would make diagnostics depend on
    /// scheduling order, breaking determinism).
    pub deadline_ms: Option<u64>,
    /// Diagnostics rendered per file before eliding the rest.
    pub max_errors: usize,
    /// Keep each worker's elaborator (interner, whnf memo, equivalence
    /// cache) warm across files. `false` rebuilds the pipeline per file
    /// — the pre-driver behavior, kept for benchmarking the difference.
    pub warm: bool,
    /// Per-worker thread stack size.
    pub stack_size: usize,
    /// Install a telemetry sink in each worker and merge the reports.
    /// [`compile_batch`] pins every worker's sink to one shared epoch
    /// (the batch start) so the workers' spans, samples, and file
    /// events share a timeline.
    pub telemetry: Option<Config>,
    /// Attribute counter deltas to individual files (requires
    /// `telemetry`): each worker snapshots its counters around every
    /// file and stores the difference in [`FileOutcome::counters`].
    pub file_counters: bool,
    /// Test-only fault hook: treat the first N worker spawns as if
    /// [`std::thread::Builder::spawn_scoped`] had failed, exercising
    /// the degraded path where surviving workers drain the missing
    /// workers' deques. Leave at 0 outside regression tests.
    pub fail_spawns: usize,
    /// Consult (and populate) an on-disk artifact cache before
    /// compiling each file. `None` disables caching. The cache is
    /// advisory: any cache-layer failure degrades to compiling and is
    /// reported in [`BatchResult::cache_warnings`], never in the
    /// verdicts.
    pub cache: Option<cache::CacheConfig>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            jobs: 1,
            limits: Limits::default(),
            deadline_ms: None,
            max_errors: 20,
            warm: true,
            stack_size: DEFAULT_STACK_SIZE,
            telemetry: None,
            file_counters: false,
            fail_spawns: 0,
            cache: None,
        }
    }
}

/// Recursively collects jobs from files and directories. A file is
/// read as-is; a directory contributes every `*.rm` file beneath it,
/// sorted by path for determinism.
///
/// # Errors
///
/// Any I/O error reading a path, tagged with the offending path.
pub fn jobs_from_paths(paths: &[PathBuf]) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut files = Vec::new();
            collect_rm_files(p, &mut files)?;
            files.sort();
            for f in files {
                jobs.push(read_job(&f)?);
            }
        } else {
            jobs.push(read_job(p)?);
        }
    }
    Ok(jobs)
}

fn collect_rm_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rm_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rm") {
            out.push(path);
        }
    }
    Ok(())
}

fn read_job(path: &Path) -> Result<Job, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Job {
        name: path.display().to_string(),
        source,
        deadline_ms: None,
    })
}

/// Compiles every job and returns the outcomes in input order.
///
/// Spawns `config.jobs` workers (clamped to the job count), each with
/// its own stack, kernel caches, and telemetry sink over the shared
/// global interner; idle workers steal from the back of busy workers'
/// deques. See the crate docs for the determinism and warm-cache
/// arguments. When [`DriverConfig::cache`] is set, each file consults
/// the artifact cache before compiling and stores its verdict after.
pub fn compile_batch(jobs: &[Job], config: &DriverConfig) -> BatchResult {
    let t0 = Instant::now();
    let (opened_cache, mut cache_warnings) = match &config.cache {
        None => (None, Vec::new()),
        Some(cfg) => match cache::Cache::open(cfg) {
            Ok(c) => (Some(c), Vec::new()),
            Err(w) => (None, vec![w]),
        },
    };
    let artifact_cache = opened_cache.as_ref();
    // Pin every worker's sink to the batch start so spans, samples, and
    // per-file events from different workers share one timeline.
    let config = &DriverConfig {
        telemetry: config.telemetry.clone().map(|mut c| {
            c.epoch.get_or_insert(t0);
            c
        }),
        ..config.clone()
    };
    let n = jobs.len();
    let workers = config.jobs.clamp(1, n.max(1));

    // Round-robin pre-seed: job i goes to deque i % workers, so every
    // worker starts with an even share and file order within a worker
    // follows input order (good for cache warmth on related inputs).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers.max(1)).collect()))
        .collect();
    let queues = &queues;

    let mut slots: Vec<Option<FileOutcome>> = (0..n).map(|_| None).collect();
    let mut summaries = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for wid in 0..workers {
            if wid < config.fail_spawns {
                // Injected spawn failure (regression tests): behave
                // exactly like the Err arm below.
                continue;
            }
            let builder = std::thread::Builder::new()
                .name(format!("recmod-worker-{wid}"))
                .stack_size(config.stack_size);
            match builder.spawn_scoped(scope, move || {
                worker_loop(wid, jobs, queues, config, artifact_cache)
            }) {
                Ok(handle) => handles.push(handle),
                Err(_) => {
                    // Out of threads/memory: the workers that did spawn
                    // will steal this worker's whole deque; if none
                    // spawned, the un-run files are reported as internal
                    // errors below.
                }
            }
        }
        for handle in handles {
            match handle.join() {
                Ok((outs, summary)) => {
                    for (idx, out) in outs {
                        slots[idx] = Some(out);
                    }
                    summaries.push(summary);
                }
                Err(_) => {
                    // The per-file catch_unwind makes this unreachable
                    // in practice; missing slots are filled below.
                }
            }
        }
    });

    let outcomes: Vec<FileOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| FileOutcome {
                name: jobs[i].name.clone(),
                status: FileStatus::Internal,
                summaries: Vec::new(),
                diagnostics: vec![format!(
                    "{}: internal error: worker thread died before compiling this file",
                    jobs[i].name
                )],
                diags: vec![Diagnostic::internal(
                    "I003",
                    "worker thread died before compiling this file",
                )],
                crash: Some(CrashData::default()),
                worker: 0,
                stolen: false,
                start_nanos: 0,
                nanos: 0,
                counters: None,
            })
        })
        .collect();

    summaries.sort_by_key(|s| s.worker);
    let merged = if config.telemetry.is_some() {
        Some(Report::merge(
            summaries.iter_mut().filter_map(|s| s.report.clone()),
        ))
    } else {
        None
    };

    if let Some(c) = artifact_cache {
        cache_warnings.extend(c.take_warnings());
    }

    BatchResult {
        outcomes,
        workers: summaries,
        merged,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        cache_warnings,
    }
}

type WorkerOut = (Vec<(usize, FileOutcome)>, WorkerSummary);

fn worker_loop(
    wid: usize,
    jobs: &[Job],
    queues: &[Mutex<VecDeque<usize>>],
    config: &DriverConfig,
    artifact_cache: Option<&cache::Cache>,
) -> WorkerOut {
    if let Some(cfg) = &config.telemetry {
        recmod_telemetry::install(cfg.clone());
    }
    let mut elab: Option<Elaborator> = None;
    let mut outs = Vec::new();
    let mut steals = 0usize;
    while let Some((idx, stolen)) = next_job(wid, queues) {
        if stolen {
            steals += 1;
        }
        let out = compile_one(wid, stolen, &jobs[idx], &mut elab, config, artifact_cache);
        outs.push((idx, out));
    }
    recmod_telemetry::count(Counter::DriverFiles, outs.len() as u64);
    recmod_telemetry::count(Counter::DriverSteals, steals as u64);
    let report = if config.telemetry.is_some() {
        recmod_telemetry::uninstall()
    } else {
        None
    };
    let summary = WorkerSummary {
        worker: wid,
        files: outs.len(),
        steals,
        report,
    };
    (outs, summary)
}

/// Locks a deque, recovering from poisoning: no user code runs under
/// the lock and `VecDeque` push/pop cannot leave the queue half-mutated,
/// so a poisoned deque is still structurally sound.
fn lock_deque(m: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Pops the next job index: front of our own deque, else the back of
/// the first non-empty victim's (scanning from `wid + 1`, wrapping).
/// Jobs never enqueue jobs, so "every deque empty" is terminal.
fn next_job(wid: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<(usize, bool)> {
    if let Some(idx) = lock_deque(&queues[wid]).pop_front() {
        return Some((idx, false));
    }
    let w = queues.len();
    for off in 1..w {
        let victim = (wid + off) % w;
        if let Some(idx) = lock_deque(&queues[victim]).pop_back() {
            return Some((idx, true));
        }
    }
    None
}

/// Counters sampled into the trace's counter tracks after every file.
const TRACK_COUNTERS: &[Counter] = &[
    Counter::KernelWhnfCacheHit,
    Counter::KernelWhnfCacheMiss,
    Counter::SyntaxInternHit,
    Counter::SyntaxInternMiss,
];

fn compile_one(
    wid: usize,
    stolen: bool,
    job: &Job,
    slot: &mut Option<Elaborator>,
    config: &DriverConfig,
    artifact_cache: Option<&cache::Cache>,
) -> FileOutcome {
    let t0 = Instant::now();
    // Per-file flight recorder: a crash bundle should describe the file
    // that crashed, not the worker's whole history.
    recmod_telemetry::diag::reset_recorder();
    let start_nanos = recmod_telemetry::epoch_offset_nanos(t0).unwrap_or(0);
    let before = (config.file_counters && recmod_telemetry::enabled()).then(Counts::now);
    let limits = arm_deadline(config.limits, job.deadline_ms.or(config.deadline_ms));
    let verdict = compile(
        artifact_cache,
        &job.name,
        &job.source,
        limits,
        config.max_errors,
        slot,
    );
    if !config.warm {
        *slot = None;
    }
    let counters = before.map(|b| Counts::now().since(&b).nonzero());
    if recmod_telemetry::profiling_enabled() {
        // One counter-track sample per file boundary: cumulative cache
        // hit/miss counters plus gauges the sink cannot see (interner
        // occupancy, cumulative kernel fuel for this worker).
        let intern = recmod_syntax::intern::intern_stats();
        let fuel = slot.as_ref().map(|e| e.tc.stats().fuel_used()).unwrap_or(0);
        recmod_telemetry::sample(
            TRACK_COUNTERS,
            &[
                (
                    "syntax.intern_occupancy",
                    intern.con_entries + intern.kind_entries,
                ),
                ("kernel.fuel_used", fuel),
            ],
        );
    }

    FileOutcome {
        name: job.name.clone(),
        status: verdict.status,
        summaries: verdict.summaries,
        diagnostics: verdict.rendered,
        diags: verdict.diags,
        crash: verdict.crash,
        worker: wid,
        stolen,
        start_nanos,
        nanos: t0.elapsed().as_nanos() as u64,
        counters,
    }
}

/// `limits` with `deadline_ms`, if any, armed as an absolute instant
/// from now. Deadlines are re-armed when a job starts, never when the
/// batch or service was configured.
fn arm_deadline(limits: Limits, deadline_ms: Option<u64>) -> Limits {
    deadline_ms.map_or(limits, |ms| limits.with_deadline_ms(ms))
}

/// How the artifact cache took part in one [`compile`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lookup {
    /// The lookup replayed a verified entry.
    pub hit: bool,
    /// When the lookup started.
    pub at: Instant,
    /// How long it took, in nanoseconds.
    pub nanos: u64,
}

/// The verdict of one [`compile`], fresh or replayed from the cache.
pub(crate) struct Verdict {
    /// How compilation ended.
    pub status: FileStatus,
    /// `(name, description)` pairs for the top-level bindings (empty
    /// unless [`FileStatus::Ok`]).
    pub summaries: Vec<(String, String)>,
    /// Structured diagnostics, never truncated.
    pub diags: Vec<Diagnostic>,
    /// Rendered diagnostic lines, capped by `max_errors`.
    pub rendered: Vec<String>,
    /// Flight-recorder tail and counter snapshot, captured on the
    /// compiling thread for limit and internal outcomes.
    pub crash: Option<CrashData>,
    /// The payload of a panic caught at the compile boundary.
    pub panic: Option<Box<dyn Any + Send>>,
    /// The cache lookup, when one was made.
    pub lookup: Option<Lookup>,
}

/// Compiles `source` under `limits` on the warm elaborator in `warm`
/// (a fresh one when empty), through the artifact cache when one is
/// given. This is the one compile path: the batch driver and the
/// compile service both call it; they differ only in scheduling,
/// supervision and reporting around it.
///
/// The verdict is a pure function of `source` and `limits`, which is
/// why one cache key serves every caller. A hit re-renders the stored
/// diagnostics under `name` and `max_errors`, so it is byte-identical
/// to a compile. Two reads of the fault layer keep injected faults
/// away from the cache: while a fault is armed the lookup is skipped,
/// so the fault reaches the compile it was aimed at, and a verdict a
/// fired fault touched is never stored. Only ok and error verdicts are
/// stored; limit and internal outcomes depend on clocks and bugs.
pub(crate) fn compile(
    artifact_cache: Option<&cache::Cache>,
    name: &str,
    source: &str,
    limits: Limits,
    max_errors: usize,
    warm: &mut Option<Elaborator>,
) -> Verdict {
    let keyed = artifact_cache.map(|c| (c, cache::key(source, &limits, "")));
    let mut lookup = None;
    if let Some((c, k)) = keyed.filter(|_| !fault::armed()) {
        let at = Instant::now();
        let outcome = c.load(k);
        let hit = matches!(outcome, cache::Outcome::Hit(_));
        lookup = Some(Lookup {
            hit,
            at,
            nanos: at.elapsed().as_nanos() as u64,
        });
        if let cache::Outcome::Hit(entry) = outcome {
            let entry = *entry;
            return Verdict {
                status: entry.status,
                summaries: entry.summaries,
                rendered: render_diagnostics(name, &entry.diags, max_errors),
                diags: entry.diags,
                crash: None,
                panic: None,
                lookup,
            };
        }
    }
    let before = (keyed.is_some() && recmod_telemetry::enabled()).then(Counts::now);
    let verdict = Verdict {
        lookup,
        ..compile_warm(name, source, limits, max_errors, warm)
    };
    if let (Some((c, k)), FileStatus::Ok | FileStatus::Error, None) =
        (keyed, verdict.status, fault::fired())
    {
        c.store(
            k,
            &cache::Entry {
                status: verdict.status,
                summaries: verdict.summaries.clone(),
                diags: verdict.diags.clone(),
                counters: before
                    .map(|b| Counts::now().since(&b).nonzero())
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(c, v)| (c.name().to_string(), v))
                    .collect(),
            },
        );
    }
    verdict
}

/// [`compile`] without the cache: runs the pipeline behind a
/// `catch_unwind`, classifies and renders the result, and puts the
/// elaborator back in `warm`. A panicking compile consumed the
/// elaborator, whose caches may be mid-mutation, so `warm` is left
/// empty and the next compile starts fresh.
fn compile_warm(
    name: &str,
    source: &str,
    limits: Limits,
    max_errors: usize,
    warm: &mut Option<Elaborator>,
) -> Verdict {
    let elab = match warm.take() {
        Some(mut e) => {
            e.renew(limits);
            e
        }
        None => Elaborator::with_limits(limits),
    };
    #[allow(clippy::result_large_err)] // one call per compile; never propagated
    let run = || compile_with_limits_in(elab, source);
    let (status, summaries, diags, rendered, panic) = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(compiled)) => {
            let summaries = compiled.summaries();
            *warm = Some(compiled.elab);
            (FileStatus::Ok, summaries, Vec::new(), Vec::new(), None)
        }
        Ok(Err((errors, elab))) => {
            *warm = Some(elab);
            let diags = sdiag::from_errors(source, &errors);
            let rendered = render_diagnostics(name, &diags, max_errors);
            (classify(&errors), Vec::new(), diags, rendered, None)
        }
        Err(panic) => {
            recmod_telemetry::count(Counter::InternalPanics, 1);
            let msg = format!("panic during compilation: {}", panic_message(&*panic));
            (
                FileStatus::Internal,
                Vec::new(),
                vec![Diagnostic::internal("I002", msg.clone())],
                vec![format!("{name}: internal error: {msg}")],
                Some(panic),
            )
        }
    };
    Verdict {
        status,
        summaries,
        diags,
        rendered,
        // Captured here, on the compiling thread, while any telemetry
        // sink is still installed.
        crash: status.is_crash().then(recmod_telemetry::diag::crash_data),
        panic,
        lookup: None,
    }
}

/// The status a set of pipeline errors earns: an internal error
/// dominates, then a resource limit, then ordinary diagnostics.
pub fn classify(errors: &[SurfaceError]) -> FileStatus {
    if errors.iter().any(|e| e.is_internal()) {
        FileStatus::Internal
    } else if errors.iter().any(|e| e.is_limit()) {
        FileStatus::Limit
    } else {
        FileStatus::Error
    }
}

/// Renders diagnostics exactly like the single-file CLI
/// (`name:line:col: error: … [CODE]`, via the shared
/// [`recmod_surface::diag`] renderer), capped at `max_errors` with an
/// elision line, so batch output diffs cleanly against sequential
/// output. The structured `diags` themselves are never truncated.
pub fn render_diagnostics(name: &str, diags: &[Diagnostic], max_errors: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(diags.len().min(max_errors) + 1);
    for d in diags.iter().take(max_errors) {
        lines.push(sdiag::render_line(name, d));
    }
    if diags.len() > max_errors {
        lines.push(sdiag::render_elided(name, diags.len() - max_errors));
    }
    lines
}

/// The text of a caught panic payload: the `&str` or `String` message,
/// or a fixed note for any other payload type.
pub fn panic_message(panic: &(dyn Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_SRC: &str = "val x = 1\nval y = x\n";
    const BAD_SRC: &str = "val x = nope\n";

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Job::new(format!("bad{i}.rm"), BAD_SRC)
                } else {
                    Job::new(format!("ok{i}.rm"), OK_SRC)
                }
            })
            .collect()
    }

    #[test]
    fn outcomes_follow_input_order() {
        let js = jobs(10);
        let cfg = DriverConfig {
            jobs: 4,
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        assert_eq!(res.outcomes.len(), 10);
        for (i, o) in res.outcomes.iter().enumerate() {
            assert_eq!(o.name, js[i].name);
        }
        assert_eq!(res.exit_code(), EXIT_USER);
        assert_eq!(res.ok_count(), 7);
    }

    #[test]
    fn jobs_one_and_many_agree() {
        let js = jobs(12);
        let one = compile_batch(
            &js,
            &DriverConfig {
                jobs: 1,
                ..DriverConfig::default()
            },
        );
        let eight = compile_batch(
            &js,
            &DriverConfig {
                jobs: 8,
                ..DriverConfig::default()
            },
        );
        assert_eq!(one.exit_code(), eight.exit_code());
        for (a, b) in one.outcomes.iter().zip(&eight.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.status, b.status);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.summaries, b.summaries);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let js = jobs(23);
        let cfg = DriverConfig {
            jobs: 5,
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        let total: usize = res.workers.iter().map(|w| w.files).sum();
        assert_eq!(total, 23);
        assert_eq!(res.outcomes.len(), 23);
    }

    #[test]
    fn warm_and_cold_agree() {
        let js = jobs(8);
        let warm = compile_batch(
            &js,
            &DriverConfig {
                jobs: 2,
                warm: true,
                ..DriverConfig::default()
            },
        );
        let cold = compile_batch(
            &js,
            &DriverConfig {
                jobs: 2,
                warm: false,
                ..DriverConfig::default()
            },
        );
        for (a, b) in warm.outcomes.iter().zip(&cold.outcomes) {
            assert_eq!(a.status, b.status);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.summaries, b.summaries);
        }
    }

    #[test]
    fn merged_counters_sum_per_worker() {
        let js = jobs(9);
        let cfg = DriverConfig {
            jobs: 3,
            telemetry: Some(Config::default()),
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        let merged = res.merged.as_ref().expect("telemetry requested");
        let files: u64 = merged.counter(Counter::DriverFiles);
        assert_eq!(files, 9);
        let per_worker: u64 = res
            .workers
            .iter()
            .filter_map(|w| w.report.as_ref())
            .filter_map(|r| r.counters.get(&Counter::DriverFiles))
            .sum();
        assert_eq!(per_worker, 9);
    }

    #[test]
    fn caught_panic_message_reaches_the_diagnostic() {
        use recmod_telemetry::fault::{FaultKind, Injection, PANIC_MARKER};
        fault::arm(Injection {
            kind: FaultKind::Panic,
            after: 1,
        });
        let mut warm = None;
        let v = compile(None, "p.rm", OK_SRC, Limits::default(), 20, &mut warm);
        assert_eq!(fault::disarm(), Some(FaultKind::Panic));
        assert_eq!(v.status, FileStatus::Internal);
        assert!(v.panic.is_some() && v.crash.is_some() && warm.is_none());
        assert_eq!(
            v.rendered,
            vec![format!(
                "p.rm: internal error: panic during compilation: {PANIC_MARKER}"
            )]
        );
    }

    #[test]
    fn deadline_zero_reports_limit() {
        let js = vec![Job::new("slow.rm", OK_SRC)];
        let cfg = DriverConfig {
            deadline_ms: Some(0),
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        assert_eq!(res.outcomes[0].status, FileStatus::Limit);
        assert_eq!(res.exit_code(), EXIT_LIMIT);
    }
}
