//! The recmod benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload check_gen --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each workload is one seeded input set. Every run checks it in batch
//! (`compile_batch`) and runs its well-typed programs end to end
//! (`recmod::run`); `serve_mix` also drives an open-loop serve ladder
//! over one in-process connection (`serve_connection`). The workload's
//! own path gets most of the measuring time. Every output is checked:
//! batch verdicts against the generator's labels, serve responses
//! against the batch verdicts, run values against the known results.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The traced run serves on every workload, times
//! the pipeline's layers with spans recorded around each call into them,
//! and writes the spans under `.bench_out/`. A human-readable report goes
//! to stderr. The exit code is 1 when any output was wrong.

mod batch;
mod gen;
mod runs;
mod serve;
mod spans;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use recmod::driver::cache::{self, Cache, CacheConfig, Entry};
use recmod::driver::FileStatus;
use recmod::telemetry::json::Json;
use recmod::telemetry::Limits;

use crate::gen::{Expect, Knobs, Program, Rng, Scale};
use crate::serve::{Ladder, Request};
use crate::spans::Recorder;
use crate::stats::{grouped_percentile, median, ms, peak_rss_mb};

/// A workload: one seeded input set plus how the run's time is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CheckGen,
    ServeMix,
    RunLists,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "check_gen" => Some(Workload::CheckGen),
            "serve_mix" => Some(Workload::ServeMix),
            "run_lists" => Some(Workload::RunLists),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CheckGen => "check_gen",
            Workload::ServeMix => "serve_mix",
            Workload::RunLists => "run_lists",
        }
    }

    /// Shares of `--seconds` given to the batch and run phases; the serve
    /// ladder's length is fixed by its request counts.
    fn budget(self) -> (f64, f64) {
        match self {
            Workload::CheckGen => (0.70, 0.20),
            Workload::ServeMix => (0.40, 0.15),
            Workload::RunLists => (0.25, 0.65),
        }
    }

    /// Whether the untraced run drives the serve ladder. Only `serve_mix`
    /// does; the traced run serves on every workload for the per-layer
    /// serve figures.
    fn serves(self) -> bool {
        self == Workload::ServeMix
    }

    /// The serve rate ladder, fixed once measured on the seed commit.
    fn ladder(self) -> Ladder {
        let (low, high) = match self {
            Workload::CheckGen => (110.0, 240.0),
            Workload::ServeMix => (80.0, 200.0),
            Workload::RunLists => (150.0, 330.0),
        };
        Ladder { low, high }
    }
}

/// Requests generated per serve stream: more than the longest ladder
/// sends.
const REQUESTS: usize = 12_000;

/// The seeded inputs of one workload.
struct Inputs {
    /// Distinct labelled programs: the batch set.
    programs: Vec<Program>,
    /// The serve request stream (consumed in order, wrapping).
    requests: Vec<Request>,
    /// Indices of the programs the run path evaluates.
    runs: Vec<usize>,
}

impl Inputs {
    fn generate(workload: Workload, seed: u64) -> Inputs {
        let programs = match workload {
            Workload::CheckGen => gen::generate(seed, 1000, Scale::Full),
            Workload::ServeMix => gen::generate(seed, 600, Scale::Small),
            Workload::RunLists => list_programs(seed, 120),
        };
        // Half the stream re-sends earlier text exactly; the other half is
        // fresh edits cycling through the programs.
        let mut rng = Rng::new(seed ^ 0x0005_e4e5);
        let mut requests: Vec<Request> = Vec::with_capacity(REQUESTS);
        let mut fresh = 0u64;
        for _ in 0..REQUESTS {
            let trace = rng.chance(1, 20);
            let req = if !requests.is_empty() && rng.chance(1, 2) {
                let earlier = requests[(rng.next_u64() % requests.len() as u64) as usize];
                Request {
                    trace,
                    repeat: true,
                    ..earlier
                }
            } else {
                fresh += 1;
                Request {
                    program: ((fresh - 1) % programs.len() as u64) as usize,
                    variant: fresh,
                    trace,
                    repeat: false,
                }
            };
            requests.push(req);
        }
        let runs = programs
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.expect, Expect::Ok(_)))
            .map(|(i, _)| i)
            .collect();
        Inputs {
            programs,
            requests,
            runs,
        }
    }

    fn sources(&self) -> Vec<String> {
        self.programs.iter().map(|p| p.source.clone()).collect()
    }

    fn run_cases(&self) -> Vec<runs::Case> {
        self.runs
            .iter()
            .map(|&i| {
                let p = &self.programs[i];
                let Expect::Ok(v) = p.expect else {
                    unreachable!("only well-typed programs are run")
                };
                (p.name.clone(), p.source.clone(), v)
            })
            .collect()
    }
}

/// The §3 opaque and §4 transparent `List` programs at seeded lengths
/// n ∈ [20, 160]; each sums 1..=n. Lengths are stratified over the range
/// (the seed shifts them and shuffles the order) and the two kinds
/// alternate, so every seed costs about the same to run.
fn list_programs(seed: u64, count: usize) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x0011_5700);
    let shift = rng.range(0, count - 1);
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.range(0, i));
    }
    order
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            let n = 20 + ((j * 141 + shift) / count) % 141;
            let opaque = j % 2 == 0;
            let family = if opaque {
                "list_opaque"
            } else {
                "list_transparent"
            };
            Program {
                name: format!("lists/{i:04}_{family}_{n}.rm"),
                family,
                source: recmod::corpus::list_program(opaque, n),
                expect: Expect::Ok((n * (n + 1) / 2) as i64),
                knobs: Knobs {
                    decls: if opaque { 4 } else { 3 },
                    mu_depth: 1,
                    sig_width: 4,
                },
            }
        })
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in output order: name → (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Success accounting shared by every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One set-up: generate the inputs, warm the batch path on up to 300
/// programs and the run path on ten short lists, and start and stop a
/// cached server.
fn setup(workload: Workload, seed: u64, round: usize) -> (Inputs, f64) {
    let t0 = Instant::now();
    let inputs = Inputs::generate(workload, seed);
    let warm_jobs = batch::jobs(&inputs.programs[..inputs.programs.len().min(300)]);
    std::hint::black_box(batch::pass(&warm_jobs, false));
    let warm_runs = (0..10)
        .map(|i| {
            (
                "warm".to_string(),
                recmod::corpus::list_program(i % 2 == 0, 20),
                210,
            )
        })
        .collect();
    std::hint::black_box(runs::pass(warm_runs));
    let dir = Scratch::new(&format!("setup{round}"));
    drop(serve::start(&dir.0));
    (inputs, t0.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload check_gen|serve_mix|run_lists \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut setups = Vec::new();
    let mut inputs = None;
    for round in 0..3 {
        let (inp, s) = setup(w, args.seed, round);
        setups.push(s);
        inputs = Some(inp);
    }
    let inputs = inputs.expect("three set-ups ran");
    describe_inputs(&inputs);

    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_run(w, &args, &inputs, &mut tally)
    } else {
        untraced_run(w, &args, &inputs, &setups, &mut tally)
    };

    let mut doc = BTreeMap::new();
    for (name, (value, unit)) in &metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number ({value})");
            return ExitCode::from(3);
        }
        doc.insert(
            name.clone(),
            Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
        );
        eprintln!("  {name:36} {value:>14.6} {unit}");
    }
    let correct = tally.wrong == 0;
    eprintln!(
        "perfbench: attempted {} failed {} wrong {} (failed share {:.6})",
        tally.attempted,
        tally.failed,
        tally.wrong,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(tally.attempted)),
        ("failed", Json::UInt(tally.failed)),
        ("metrics", Json::Obj(doc)),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn describe_inputs(inputs: &Inputs) {
    let mut families: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &inputs.programs {
        *families.entry(p.family).or_default() += 1;
    }
    let ill = inputs
        .programs
        .iter()
        .filter(|p| matches!(p.expect, Expect::Err(_)))
        .count();
    let max = |f: fn(&Knobs) -> usize| inputs.programs.iter().map(|p| f(&p.knobs)).max();
    eprintln!(
        "inputs: {} programs ({} ill-typed), families {:?}; max decls {:?}, mu depth {:?}, sig width {:?}",
        inputs.programs.len(),
        ill,
        families,
        max(|k| k.decls),
        max(|k| k.mu_depth),
        max(|k| k.sig_width)
    );
    let n = inputs.requests.len() as f64;
    let share =
        |f: &dyn Fn(&Request) -> bool| inputs.requests.iter().filter(|r| f(r)).count() as f64 / n;
    eprintln!(
        "serve stream: repeat share {:.3}, traced share {:.3}, ill-typed share {:.3}",
        share(&|r| r.repeat),
        share(&|r| r.trace),
        share(&|r| matches!(inputs.programs[r.program].expect, Expect::Err(_)))
    );
}

/// Batch passes until `budget` seconds are spent (and at least 3000 files
/// are timed), checking every verdict against the labels. Returns the
/// first pass's verdicts (the reference for the serve path), the files
/// per second of each pass, and each pass's per-file milliseconds.
fn batch_phase(
    inputs: &Inputs,
    budget: f64,
    tally: &mut Tally,
) -> (Vec<batch::Verdict>, Vec<f64>, Vec<Vec<f64>>) {
    let jobs = batch::jobs(&inputs.programs);
    // Enough passes for a p99 over at least 3000 files.
    let min = 3000usize.div_ceil(jobs.len()).max(2);
    let t0 = Instant::now();
    let mut reference = None;
    let (mut rates, mut files) = (Vec::new(), Vec::new());
    while rates.len() < min || t0.elapsed().as_secs_f64() < budget {
        let result = batch::pass(&jobs, false);
        let verdicts = batch::verdicts(&result);
        tally.attempted += jobs.len() as u64;
        let wrong = batch::wrong_verdicts(&inputs.programs, &verdicts);
        tally.wrong += wrong;
        tally.failed += wrong;
        rates.push(jobs.len() as f64 / (result.wall_nanos as f64 / 1e9));
        files.push(result.outcomes.iter().map(|o| ms(o.nanos)).collect());
        reference.get_or_insert(verdicts);
    }
    (reference.expect("at least one batch pass"), rates, files)
}

/// Run passes until `budget` seconds are spent (and at least 300 runs are
/// timed); returns each pass's per-run milliseconds.
fn run_phase(inputs: &Inputs, budget: f64, tally: &mut Tally) -> Vec<Vec<f64>> {
    let cases = inputs.run_cases();
    let t0 = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    while passes.iter().map(Vec::len).sum::<usize>() < 300 || t0.elapsed().as_secs_f64() < budget {
        let mut pass = Vec::with_capacity(cases.len());
        for (ms, ok) in runs::pass(cases.clone()) {
            tally.attempted += 1;
            if !ok {
                tally.wrong += 1;
                tally.failed += 1;
            }
            pass.push(ms);
        }
        passes.push(pass);
    }
    passes
}

/// Runs the serve ladder. The cache directory is handed back so that the
/// caller deletes its thousands of entries only after measuring.
fn serve_phase(w: Workload, seed: u64, inputs: &Inputs) -> (serve::Outcome, Scratch) {
    let dir = Scratch::new("serve");
    let out = serve::ladder(
        &inputs.sources(),
        &inputs.requests,
        &w.ladder(),
        seed,
        &dir.0,
    );
    (out, dir)
}

/// Checks the serve answers against the batch verdicts, reports each
/// phase, and counts the `low` and `high` phases in the tally.
fn account_serve(out: &mut serve::Outcome, reference: &[batch::Verdict], tally: &mut Tally) {
    serve::verify(&mut out.phases, reference);
    for ph in &out.phases {
        let (p50, p99) = ph.p50_p99();
        eprintln!(
            "serve {:6} rate {:7.1}/s sent {} ok {} failed {} shed {} wrong {} p50 {:.3} ms p99 {:.3} ms \
             lateness p99 {:.3} ms{}{}{}",
            ph.label,
            ph.rate,
            ph.sent,
            ph.succeeded,
            ph.failed,
            ph.shed,
            ph.wrong,
            p50,
            p99,
            ph.lateness_p99_ms,
            if ph.behind { " GENERATOR BEHIND" } else { "" },
            if ph.growing_backlog { " BACKLOG" } else { "" },
            if ph.meets() { "" } else { " (misses limit)" },
        );
        tally.wrong += ph.wrong as u64;
        // Rates above `high` probe capacity: their sheds are the finding,
        // not failures.
        if ph.label == "low" || ph.label == "high" {
            tally.attempted += ph.sent as u64;
            tally.failed += (ph.failed + ph.shed + ph.wrong) as u64;
        }
    }
}

fn untraced_run(
    w: Workload,
    args: &Args,
    inputs: &Inputs,
    setups: &[f64],
    tally: &mut Tally,
) -> Metrics {
    let (batch_share, run_share) = w.budget();
    // Serve first: the server's per-request interner sweep costs more as
    // the process's interner grows, so every run serves from the same state.
    let mut served = w.serves().then(|| serve_phase(w, args.seed, inputs));
    let (reference, rates, files) = batch_phase(inputs, args.seconds * batch_share, tally);
    if let Some((served, _)) = &mut served {
        account_serve(served, &reference, tally);
        // The serve latencies and the highest rate meeting the p99 limit
        // are reported here, not as metrics: with the artifact cache on
        // they vary between runs by more than any bound the benchmark may
        // set (see perfbench/README.md).
        let rungs = served.rungs();
        eprintln!(
            "serve: low p50 {:.3} ms p99 {:.3} ms, high p50 {:.3} ms p99 {:.3} ms, max rate {:.1}/s",
            served.block_p50("low"),
            rungs[0].p50_p99().1,
            served.block_p50("high"),
            rungs[1].p50_p99().1,
            serve::max_rate(&rungs)
        );
    }
    let run_ms = run_phase(inputs, args.seconds * run_share, tally);

    let mut m = Metrics::new();
    put(&mut m, "setup_s", median(setups), "s");
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    put(&mut m, "check.files_per_s", median(&rates), "1/s");
    // Tails are taken per group of passes (≥1000 files, ≥100 runs) and the
    // median group reported, so one disturbed stretch moves one group.
    put(&mut m, "check.file_p50_ms", median(&files.concat()), "ms");
    put(
        &mut m,
        "check.file_p99_ms",
        grouped_percentile(&files, 1000, 99.0),
        "ms",
    );
    put(&mut m, "run.p50_ms", median(&run_ms.concat()), "ms");
    put(
        &mut m,
        "run.p90_ms",
        grouped_percentile(&run_ms, 100, 90.0),
        "ms",
    );
    eprintln!(
        "samples: {} batch passes ({:.1?} files/s), {} files, {} runs",
        rates.len(),
        rates,
        files.iter().map(Vec::len).sum::<usize>(),
        run_ms.iter().map(Vec::len).sum::<usize>()
    );
    m
}

fn traced_run(w: Workload, args: &Args, inputs: &Inputs, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::new();
    let (batch_share, run_share) = w.budget();
    // Serve first, as in the untraced run.
    let (mut served, _cache_dir) = serve_phase(w, args.seed, inputs);

    // Batch with and without the telemetry sink, alternated.
    let jobs = batch::jobs(&inputs.programs);
    let (mut plain, mut with_stats, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let t0 = Instant::now();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds * batch_share {
        for telemetry in [false, true] {
            let result = batch::pass(&jobs, telemetry);
            let verdicts = batch::verdicts(&result);
            tally.attempted += jobs.len() as u64;
            let wrong = batch::wrong_verdicts(&inputs.programs, &verdicts);
            tally.wrong += wrong;
            tally.failed += wrong;
            let wall = result.wall_nanos as f64;
            if telemetry {
                with_stats.push(wall);
            } else {
                let sum: u64 = result.outcomes.iter().map(|o| o.nanos).sum();
                overhead.push(ms(result.wall_nanos.saturating_sub(sum)));
                plain.push(wall);
                reference.get_or_insert(verdicts);
            }
        }
    }
    let reference = reference.expect("at least one plain batch pass");
    put(&mut m, "batch.sched_overhead_ms", median(&overhead), "ms");
    put(
        &mut m,
        "telemetry.stats_overhead_ratio",
        median(&with_stats) / median(&plain),
        "ratio",
    );

    // The traced pipeline loop, spans off and on, alternated.
    let trace_inputs: Vec<traced::Input> = inputs
        .programs
        .iter()
        .map(|p| traced::Input {
            source: p.source.clone(),
            run: match p.expect {
                Expect::Ok(v) => Some(v),
                Expect::Err(_) => None,
            },
        })
        .collect();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last_on = None;
    let t0 = Instant::now();
    while on.is_empty() || t0.elapsed().as_secs_f64() < args.seconds * run_share {
        for trace in [false, true] {
            let pass = traced::pass(trace_inputs.clone(), trace);
            tally.attempted += trace_inputs.len() as u64;
            let mismatched = pass
                .verdicts
                .iter()
                .zip(&reference)
                .zip(&inputs.programs)
                .filter(|((got, want), p)| {
                    let same = match got {
                        None => want.status == FileStatus::Ok,
                        Some(codes) => want.status == FileStatus::Error && *codes == want.codes(),
                    };
                    if !same {
                        eprintln!(
                            "WRONG traced verdict for {}: {got:?} vs batch {want:?}",
                            p.name
                        );
                    }
                    !same
                })
                .count() as u64;
            let wrong = mismatched + pass.wrong_values;
            tally.wrong += wrong;
            tally.failed += wrong;
            if trace {
                on.push(pass.seconds);
                last_on = Some(pass);
            } else {
                off.push(pass.seconds);
            }
        }
    }
    let pass = last_on.expect("at least one traced pass");
    put(
        &mut m,
        "trace_overhead_ratio",
        median(&on) / median(&off),
        "ratio",
    );
    let rec = &pass.recorder;
    // `parse_with` lexes as well; `surface.lex_ms` is a separate
    // `lex_recover` call on the same source.
    put(&mut m, "surface.lex_ms", rec.total_ms("surface.lex"), "ms");
    put(
        &mut m,
        "surface.parse_ms",
        rec.total_ms("surface.parse_with"),
        "ms",
    );
    put(
        &mut m,
        "surface.elab_ms",
        rec.total_ms("surface.elab_topdec") + rec.total_ms("surface.elab_exp"),
        "ms",
    );
    put(&mut m, "link.ms", rec.total_ms("surface.link"), "ms");
    put(&mut m, "eval.ms", rec.total_ms("eval.run"), "ms");
    put(&mut m, "eval.steps", pass.eval.steps as f64, "count");
    put(&mut m, "eval.closures", pass.eval.closures as f64, "count");
    put(
        &mut m,
        "eval.backpatches",
        pass.eval.backpatches as f64,
        "count",
    );
    let k = &pass.kernel;
    put(&mut m, "kernel.fuel", k.fuel_used() as f64, "count");
    for (op, n) in k.fuel_pairs() {
        put(
            &mut m,
            &format!("kernel.fuel.{}", op.key()),
            n as f64,
            "count",
        );
    }
    put(&mut m, "kernel.whnf_steps", k.whnf_steps as f64, "count");
    put(&mut m, "kernel.mu_unrolls", k.mu_unrolls as f64, "count");
    put(
        &mut m,
        "kernel.assumption_inserts",
        k.assumption_inserts as f64,
        "count",
    );
    put(
        &mut m,
        "kernel.whnf_hit_ratio",
        ratio(
            k.whnf_cache_hits as f64,
            (k.whnf_cache_hits + k.whnf_cache_misses) as f64,
        ),
        "ratio",
    );
    put(
        &mut m,
        "kernel.equiv_cache_hits",
        k.equiv_cache_hits as f64,
        "count",
    );
    put(
        &mut m,
        "kernel.equiv_ptr_eqs",
        k.equiv_ptr_eqs as f64,
        "count",
    );
    put(&mut m, "kernel.eval_steps", k.eval_steps as f64, "count");
    put(
        &mut m,
        "kernel.synth_hit_ratio",
        ratio(
            k.synth_cache_hits as f64,
            (k.synth_cache_hits + k.synth_cache_misses) as f64,
        ),
        "ratio",
    );
    let (hits, misses) = pass.intern;
    put(
        &mut m,
        "intern.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    put(&mut m, "intern.misses", misses as f64, "count");

    // Direct cache calls, each in a span.
    let mut cache_rec = Recorder::new(true);
    let (load_us, store_us) = cache_calls(inputs, &reference, &mut cache_rec);
    put(&mut m, "cache.load_us", load_us, "us");
    put(&mut m, "cache.store_us", store_us, "us");

    // The serve ladder's per-layer numbers come from its histograms.
    account_serve(&mut served, &reference, tally);
    let hist = |key: &str, q: &str| -> f64 {
        served
            .metrics_high
            .get(key)
            .and_then(|h| h.get(q))
            .and_then(Json::as_u64)
            .map_or(f64::NAN, ms)
    };
    let (low, high) = (served.merged("low"), served.merged("high"));
    let client: Vec<f64> = low
        .latencies
        .iter()
        .chain(&high.latencies)
        .copied()
        .collect();
    let traced_ms: Vec<f64> = low.traced.iter().chain(&high.traced).copied().collect();
    let compile_p50 = hist("compile_nanos", "p50");
    put(
        &mut m,
        "serve.queue_wait_p99_ms",
        hist("queue_wait_nanos", "p99"),
        "ms",
    );
    put(
        &mut m,
        "serve.worker_util",
        served.worker_util_high,
        "ratio",
    );
    put(&mut m, "serve.compile_p50_ms", compile_p50, "ms");
    put(
        &mut m,
        "serve.overhead_p50_ms",
        median(&client) - compile_p50,
        "ms",
    );
    put(&mut m, "serve.traced_p50_ms", median(&traced_ms), "ms");
    put(&mut m, "serve.shed", served.stats.shed as f64, "count");
    put(
        &mut m,
        "serve.retries",
        served.stats.retries as f64,
        "count",
    );
    put(&mut m, "cache.hit_ratio", served.cache_hit_ratio, "ratio");
    put(
        &mut m,
        "intern.contended",
        served.intern_contended as f64,
        "count",
    );

    write_spans(w, args.seed, rec, &cache_rec);
    m
}

/// Stores the reference verdict of every distinct source in a fresh
/// cache directory, then loads each back; returns the median microseconds
/// per load and per store.
fn cache_calls(inputs: &Inputs, reference: &[batch::Verdict], rec: &mut Recorder) -> (f64, f64) {
    let dir = Scratch::new("cache");
    let cache = Cache::open(&CacheConfig::new(&dir.0)).expect("open cache directory");
    let limits = Limits::default();
    let engine = recmod::kernel::resolve_engine().name();
    let jobs = batch::jobs(&inputs.programs);
    let entries: Vec<Entry> = batch::pass(&jobs, false)
        .outcomes
        .into_iter()
        .map(|o| Entry {
            status: o.status,
            summaries: o.summaries,
            diags: o.diags,
            counters: BTreeMap::new(),
        })
        .collect();
    let keys: Vec<u64> = inputs
        .programs
        .iter()
        .map(|p| cache::key(&p.source, &limits, engine))
        .collect();
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    for (i, (key, entry)) in keys.iter().zip(&entries).enumerate() {
        rec.begin_trace(i as u64 + 1);
        let s = rec.open("cache.store");
        let t = Instant::now();
        cache.store(*key, entry);
        stores.push(t.elapsed().as_secs_f64() * 1e6);
        rec.close(s);
    }
    for (i, (key, want)) in keys.iter().zip(reference).enumerate() {
        rec.begin_trace(i as u64 + 1);
        let s = rec.open("cache.load");
        let t = Instant::now();
        let got = cache.load(*key);
        loads.push(t.elapsed().as_secs_f64() * 1e6);
        rec.close(s);
        let hit = matches!(&got, cache::Outcome::Hit(e) if e.status == want.status);
        assert!(hit, "cache entry {i} did not replay its stored verdict");
    }
    (median(&loads), median(&stores))
}

fn write_spans(w: Workload, seed: u64, pipeline: &Recorder, cache: &Recorder) {
    let doc = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::UInt(seed)),
        ("pipeline", pipeline.to_json()),
        ("cache", cache.to_json()),
    ]);
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("spans-{}-seed{seed}.json", w.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_compact()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for (name, (n, total, own)) in pipeline.totals() {
        eprintln!(
            "  span {name:24} n {n:6} total {:10.3} ms self {:10.3} ms",
            ms(total),
            ms(own)
        );
    }
}
