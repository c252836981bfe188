//! Machine-readable benchmark runner for the interning/memoization and
//! parallel-throughput experiments (`BENCH_interning.json`,
//! `BENCH_parallel.json`).
//!
//! Measures the P1 equivalence workloads (μ vs unrolling, nested ≃
//! collapse, iso+Shao), the P2 front-end workloads, the E1 list
//! compile, and the batch-driver corpus throughput at 1/2/4/8 workers
//! (plus a cold-cache jobs=1 run, isolating the warm-cache lift from
//! the parallel lift).
//!
//! With `--json` the results are printed as one JSON object holding the
//! **effective harness config** and the case array; otherwise as
//! human-readable lines. Flags:
//!
//! * `--samples N` / `--target-ms M` — tune the harness; defaults come
//!   from [`BenchConfig::default`], the single source of truth;
//! * `--only SUBSTR` — run only cases whose name contains `SUBSTR`;
//! * `--baseline FILE` — load a checked-in `BENCH_*.json` and print a
//!   per-case speedup column against it (matches `median_ns`, falling
//!   back to `after_median_ns` for the hand-merged interning file);
//! * `--costs` — skip the wall-clock benches and print the deterministic
//!   cost model of the corpus (see [`recmod_bench::costs`]);
//! * `--costs --compare FILE` — compare the cost model against a golden
//!   baseline and exit `1` if any counter drifted beyond its declared
//!   tolerance (the regression gate that works on noisy hardware);
//! * `--costs --bless` — regenerate the golden baseline in place
//!   (default `tests/golden_costs.json`; `--compare FILE` overrides the
//!   destination).

use std::time::Duration;

use recmod::kernel::{Ctx, RecMode, Tc};
use recmod::syntax::ast::Kind;
use recmod::syntax::intern::intern_stats;
use recmod::telemetry::json::{parse, Json};
use recmod::telemetry::Counter;
use recmod_bench::harness::{bench_quiet, BenchConfig};
use recmod_bench::{
    gen_module_chain, gen_nested_pair, gen_rec_datatypes, gen_shao_pair, gen_unrolled_pair,
    singleton_chain,
};
use recmod_driver::{compile_batch, DriverConfig, FileStatus, Job};

struct Case {
    name: String,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    iters: u64,
    /// Whnf-memo hit rate over the whole timed run (persistent-Tc cases).
    whnf_hit_rate: Option<f64>,
    /// Interner hit rate over the whole timed run.
    intern_hit_rate: Option<f64>,
    /// Programs compiled per second (throughput cases).
    programs_per_sec: Option<f64>,
    /// `(t_jobs1 / t_jobsN) / N` (throughput cases with N > 1).
    scaling_efficiency: Option<f64>,
    /// `baseline_median / median` when `--baseline` matched this case.
    speedup_vs_baseline: Option<f64>,
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

/// The harness settings plus the case filter, threaded through every
/// case so the effective configuration is recorded in the output.
struct Runner {
    cfg: BenchConfig,
    only: Option<String>,
    cases: Vec<Case>,
}

impl Runner {
    fn wants(&self, name: &str) -> bool {
        self.only.as_ref().is_none_or(|s| name.contains(s))
    }

    fn add(&mut self, name: &str, f: impl FnMut()) {
        if !self.wants(name) {
            return;
        }
        let case = run(self.cfg, name, f);
        self.cases.push(case);
    }

    fn add_tc(&mut self, name: &str, tc: &Tc, f: impl FnMut()) {
        if !self.wants(name) {
            return;
        }
        let k0 = tc.stats();
        let mut case = run(self.cfg, name, f);
        let kd = tc.stats().delta_since(&k0);
        case.whnf_hit_rate = rate(kd.whnf_cache_hits, kd.whnf_cache_misses);
        self.cases.push(case);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--costs") {
        run_costs(
            flag_str(&args, "--compare"),
            args.iter().any(|a| a == "--bless"),
        );
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    let defaults = BenchConfig::default();
    let samples = flag_value(&args, "--samples")
        .map(|n| n as usize)
        .unwrap_or(defaults.samples);
    let target_ms =
        flag_value(&args, "--target-ms").unwrap_or(defaults.sample_target.as_millis() as u64);
    let cfg = BenchConfig {
        samples,
        sample_target: Duration::from_millis(target_ms),
        max_iters: defaults.max_iters,
    };
    let baseline = flag_str(&args, "--baseline").map(|path| load_baseline(&path));
    let mut r = Runner {
        cfg,
        only: flag_str(&args, "--only"),
        cases: Vec::new(),
    };

    // P1: persistent-session equivalence. One Tc per case, reused
    // across iterations (fuel reset per query so the budget bounds one
    // query, not the batch).
    for size in [8usize, 32, 64, 128] {
        if r.wants(&format!("p1_mu_vs_unrolling/{size}")) {
            let (a, b) = gen_unrolled_pair(size, 42);
            let tc = Tc::new();
            let mut ctx = Ctx::new();
            r.add_tc(&format!("p1_mu_vs_unrolling/{size}"), &tc, || {
                tc.set_fuel(recmod::kernel::DEFAULT_FUEL);
                tc.con_equiv(&mut ctx, &a, &b, &Kind::Type).unwrap();
            });
        }

        if r.wants(&format!("p1_nested_collapse/{size}")) {
            let (a, b) = gen_nested_pair(size, 42);
            let tc = Tc::new();
            let mut ctx = Ctx::new();
            r.add_tc(&format!("p1_nested_collapse/{size}"), &tc, || {
                tc.set_fuel(recmod::kernel::DEFAULT_FUEL);
                tc.con_equiv(&mut ctx, &a, &b, &Kind::Type).unwrap();
            });
        }

        if r.wants(&format!("p1_iso_shao/{size}")) {
            let (a, b) = gen_shao_pair(size, 42);
            let tc = Tc::with_mode(RecMode::IsoShao);
            let mut ctx = Ctx::new();
            r.add_tc(&format!("p1_iso_shao/{size}"), &tc, || {
                tc.set_fuel(recmod::kernel::DEFAULT_FUEL);
                tc.con_equiv(&mut ctx, &a, &b, &Kind::Type).unwrap();
            });
        }
    }

    // Singleton-chain whnf (sharing propagation).
    for n in [100usize, 1000] {
        if r.wants(&format!("whnf_singleton_chain/{n}")) {
            let (mut ctx, con) = singleton_chain(n);
            let tc = Tc::new();
            r.add_tc(&format!("whnf_singleton_chain/{n}"), &tc, || {
                tc.set_fuel(recmod::kernel::DEFAULT_FUEL);
                let w = tc.whnf(&mut ctx, &con).unwrap();
                assert!(matches!(w, recmod::syntax::ast::Con::Int));
            });
        }
    }

    // P2: full compile throughput (fresh pipeline per iteration — the
    // cold path; interning still shares across iterations).
    let chain = gen_module_chain(32);
    r.add("p2_module_chain/32", || {
        let c = recmod::compile(&chain).unwrap();
        std::hint::black_box(&c);
    });
    let datatypes = gen_rec_datatypes(8);
    r.add("p2_rec_datatypes/8", || {
        let c = recmod::compile(&datatypes).unwrap();
        std::hint::black_box(&c);
    });

    // E1: compile the opaque + transparent list programs.
    for opaque in [true, false] {
        let program = recmod_bench::corpus::list_program(opaque, 20);
        let label = if opaque { "opaque" } else { "transparent" };
        r.add(&format!("e1_list_compile/{label}"), || {
            let c = recmod::compile(&program).unwrap();
            std::hint::black_box(&c);
        });
    }

    // Serve: per-request latency through a live one-worker compile
    // server (warm elaborator, admission queue, supervision) against
    // the same program compiled one-shot through a fresh pipeline —
    // the service overhead plus warm-cache lift in one comparison.
    run_serve_bench(&mut r);

    // Throughput: the corpus (replicated ×4 so there is enough work to
    // schedule) through the batch driver at 1/2/4/8 workers, warm
    // caches, plus a cold-cache jobs=1 run that rebuilds the pipeline
    // per file — isolating the warm-cache lift from the parallel lift.
    run_throughput(&mut r);

    // Artifact cache: cold vs in-process-warm vs cross-run-warm (a
    // pre-populated on-disk cache replaying every verdict).
    run_cache_bench(&mut r);

    let mut cases = r.cases;
    if let Some(baseline) = &baseline {
        for c in &mut cases {
            if let Some(base) = baseline.iter().find(|(n, _)| *n == c.name) {
                c.speedup_vs_baseline = Some(base.1 as f64 / c.median_ns as f64);
            }
        }
    }

    if json {
        println!("{}", to_json(&cfg, &cases).to_pretty());
    } else {
        for c in &cases {
            let mut extra = String::new();
            if let Some(pps) = c.programs_per_sec {
                extra.push_str(&format!("  {pps:.1} programs/s"));
            }
            if let Some(eff) = c.scaling_efficiency {
                extra.push_str(&format!("  {:.0}% scaling", eff * 100.0));
            }
            if let Some(sp) = c.speedup_vs_baseline {
                extra.push_str(&format!("  {sp:.2}x vs baseline"));
            }
            println!(
                "{:<36} median {:>10} ns  [{} .. {}] ({} iters){extra}",
                c.name, c.median_ns, c.min_ns, c.max_ns, c.iters
            );
        }
    }
}

/// `--costs`: measure the deterministic cost model and either print it
/// (no `--compare`), regenerate the golden baseline in place
/// (`--bless`, default path `tests/golden_costs.json`), or gate against
/// a golden baseline, exiting `1` on any counter drift beyond tolerance
/// and `2` on a broken baseline.
fn run_costs(compare: Option<String>, bless: bool) {
    use recmod_bench::costs;
    let model = costs::measure_corpus();
    if bless {
        let path = compare.unwrap_or_else(|| "tests/golden_costs.json".to_string());
        let text = format!("{}\n", costs::to_json(&model).to_pretty());
        match std::fs::write(&path, text) {
            Ok(()) => println!(
                "blessed cost model into {path} ({} example(s))",
                model.examples.len()
            ),
            Err(e) => {
                eprintln!("bench_json: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let Some(path) = compare else {
        println!("{}", costs::to_json(&model).to_pretty());
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot read cost baseline {path}: {e}");
        std::process::exit(2);
    });
    let baseline = costs::parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench_json: bad cost baseline {path}: {e}");
        std::process::exit(2);
    });
    let diffs = costs::compare(&model, &baseline);
    if diffs.is_empty() {
        println!(
            "cost model matches {path}: {} example(s) within tolerance",
            model.examples.len()
        );
        return;
    }
    eprintln!("cost model drifted from {path}:");
    for d in &diffs {
        eprintln!("  {d}");
    }
    eprintln!(
        "{} violation(s); if intentional, regenerate with:\n  \
         cargo run --release -p recmod-bench --bin bench_json -- --costs > {path}",
        diffs.len()
    );
    std::process::exit(1);
}

/// `serve_warm`: one request at a time through a live server (the warm
/// path a long-lived client sees: queue, worker hand-off, warm
/// elaborator, response marshalling) vs the identical program through a
/// fresh pipeline per iteration. The ratio is the service's win once
/// per-process startup is amortized away.
fn run_serve_bench(r: &mut Runner) {
    use recmod_driver::serve::{Request, ResponseStatus, ServeConfig, Server};
    use std::sync::mpsc::channel;

    let program = recmod_bench::corpus::list_program(true, 20);
    if r.wants("serve_warm/list_opaque") {
        let mut server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bench server failed to start");
        let mut next_id = 0u64;
        {
            let server_ref = &server;
            let program = &program;
            r.add("serve_warm/list_opaque", move || {
                let (tx, rx) = channel();
                next_id += 1;
                server_ref.submit(Request::new(next_id, "bench.rm", program.clone()), tx);
                let resp = rx.recv().expect("bench server dropped a response");
                assert_eq!(resp.status, ResponseStatus::Ok);
                std::hint::black_box(&resp);
            });
        }
        server.shutdown();
    }
    r.add("serve_warm/one_shot_baseline", || {
        let c = recmod::compile(&program).unwrap();
        std::hint::black_box(&c);
    });
}

/// How many times the corpus is replicated into one throughput batch.
const CORPUS_REPLICAS: usize = 4;

/// The corpus ×[`CORPUS_REPLICAS`] as one batch of driver jobs.
fn corpus_jobs() -> Vec<Job> {
    let entries = recmod::corpus::all();
    (0..CORPUS_REPLICAS)
        .flat_map(|rep| {
            entries
                .iter()
                .map(move |e| Job::new(format!("{}#{rep}", e.name), e.source))
        })
        .collect()
}

/// One extra **untimed** telemetry pass over the batch: the timed runs
/// stay observation-free, and the merged worker counters give the
/// whnf/interner hit rates the timed configuration actually sees.
fn batch_hit_rates(jobs: &[Job], cfg: &DriverConfig) -> (Option<f64>, Option<f64>) {
    let tcfg = DriverConfig {
        telemetry: Some(recmod::telemetry::Config::default()),
        ..cfg.clone()
    };
    let res = compile_batch(jobs, &tcfg);
    let Some(merged) = &res.merged else {
        return (None, None);
    };
    let rate_of = |hit, miss| rate(merged.counter(hit), merged.counter(miss));
    (
        rate_of(Counter::KernelWhnfCacheHit, Counter::KernelWhnfCacheMiss),
        rate_of(Counter::SyntaxInternHit, Counter::SyntaxInternMiss),
    )
}

fn run_throughput(r: &mut Runner) {
    let jobs = corpus_jobs();
    let n_programs = jobs.len();

    let run_one = |r: &mut Runner, name: String, workers: usize, warm: bool| -> Option<u64> {
        if !r.wants(&name) {
            return None;
        }
        let cfg = DriverConfig {
            jobs: workers,
            warm,
            ..DriverConfig::default()
        };
        let stats = bench_quiet(r.cfg, || {
            let res = compile_batch(&jobs, &cfg);
            assert!(res
                .outcomes
                .iter()
                .all(|o| o.status != FileStatus::Internal));
            std::hint::black_box(&res);
        });
        eprintln!("measured {name}: {} ns", stats.median_ns);
        let (whnf_hit_rate, intern_hit_rate) = batch_hit_rates(&jobs, &cfg);
        r.cases.push(Case {
            name,
            median_ns: stats.median_ns,
            min_ns: stats.min_ns,
            max_ns: stats.max_ns,
            iters: stats.iters,
            whnf_hit_rate,
            intern_hit_rate,
            programs_per_sec: Some(n_programs as f64 * 1e9 / stats.median_ns as f64),
            scaling_efficiency: None,
            speedup_vs_baseline: None,
        });
        Some(stats.median_ns)
    };

    let cold = run_one(r, "throughput/corpus_x4/jobs1_cold".into(), 1, false);
    let t1 = run_one(r, "throughput/corpus_x4/jobs1".into(), 1, true);
    if t1.is_some() {
        // The jobs=1 run is its own scaling baseline: efficiency 1 by
        // definition, recorded explicitly so downstream tooling never
        // has to special-case a null.
        if let Some(case) = r.cases.last_mut() {
            case.scaling_efficiency = Some(1.0);
        }
    }
    if let (Some(cold), Some(t1)) = (cold, t1) {
        eprintln!("warm-cache lift at jobs=1: {:.2}x", cold as f64 / t1 as f64);
    }
    for workers in [2usize, 4, 8] {
        let tn = run_one(
            r,
            format!("throughput/corpus_x4/jobs{workers}"),
            workers,
            true,
        );
        if let (Some(t1), Some(tn)) = (t1, tn) {
            let eff = (t1 as f64 / tn as f64) / workers as f64;
            if let Some(case) = r.cases.last_mut() {
                case.scaling_efficiency = Some(eff);
            }
        }
    }
}

/// `cache/corpus_x4/{cold,warm,cross_run_warm}`: the artifact cache's
/// effect on corpus throughput at jobs=1.
///
/// * `cold` — no artifact cache, per-worker caches rebuilt per file:
///   what a fresh process pays with caching disabled;
/// * `warm` — no artifact cache, warm per-worker caches: the in-process
///   ceiling without persistence;
/// * `cross_run_warm` — a **pre-populated** artifact cache with cold
///   per-worker caches: what a fresh process pays when a previous run
///   already stored every verdict (every file replays from disk, the
///   pipeline never runs).
fn run_cache_bench(r: &mut Runner) {
    let jobs = corpus_jobs();
    let n_programs = jobs.len();
    let cache_dir = std::env::temp_dir().join(format!("recmod-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let run_one = |r: &mut Runner, name: String, cfg: &DriverConfig| {
        if !r.wants(&name) {
            return;
        }
        let stats = bench_quiet(r.cfg, || {
            let res = compile_batch(&jobs, cfg);
            assert!(res
                .outcomes
                .iter()
                .all(|o| o.status != FileStatus::Internal));
            assert!(res.cache_warnings.is_empty(), "cache bench hit C-warnings");
            std::hint::black_box(&res);
        });
        eprintln!("measured {name}: {} ns", stats.median_ns);
        let (whnf_hit_rate, intern_hit_rate) = batch_hit_rates(&jobs, cfg);
        r.cases.push(Case {
            name,
            median_ns: stats.median_ns,
            min_ns: stats.min_ns,
            max_ns: stats.max_ns,
            iters: stats.iters,
            whnf_hit_rate,
            intern_hit_rate,
            programs_per_sec: Some(n_programs as f64 * 1e9 / stats.median_ns as f64),
            scaling_efficiency: None,
            speedup_vs_baseline: None,
        });
    };

    let cold_cfg = DriverConfig {
        jobs: 1,
        warm: false,
        ..DriverConfig::default()
    };
    run_one(r, "cache/corpus_x4/cold".into(), &cold_cfg);
    let warm_cfg = DriverConfig {
        jobs: 1,
        warm: true,
        ..DriverConfig::default()
    };
    run_one(r, "cache/corpus_x4/warm".into(), &warm_cfg);

    let cached_cfg = DriverConfig {
        cache: Some(recmod_driver::cache::CacheConfig::new(cache_dir.clone())),
        ..cold_cfg
    };
    if r.wants("cache/corpus_x4/cross_run_warm") {
        // Populate once (the "previous run"), then measure pure-hit
        // replay; the populating pass is not timed.
        let seeded = compile_batch(&jobs, &cached_cfg);
        assert!(seeded.cache_warnings.is_empty(), "cache seeding warned");
    }
    run_one(r, "cache/corpus_x4/cross_run_warm".into(), &cached_cfg);

    let cases = &r.cases;
    let median_of = |name: &str| {
        cases
            .iter()
            .find(|c| c.name.ends_with(name))
            .map(|c| c.median_ns)
    };
    if let (Some(cold), Some(xrw)) = (
        median_of("cache/corpus_x4/cold"),
        median_of("cache/corpus_x4/cross_run_warm"),
    ) {
        eprintln!(
            "cross-run-warm lift vs cold: {:.2}x",
            cold as f64 / xrw as f64
        );
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

fn run(cfg: BenchConfig, name: &str, f: impl FnMut()) -> Case {
    let i0 = intern_stats();
    let stats = bench_quiet(cfg, f);
    let i1 = intern_stats();
    eprintln!("measured {name}: {} ns", stats.median_ns);
    Case {
        name: name.to_string(),
        median_ns: stats.median_ns,
        min_ns: stats.min_ns,
        max_ns: stats.max_ns,
        iters: stats.iters,
        whnf_hit_rate: None,
        intern_hit_rate: rate(i1.hits - i0.hits, i1.misses - i0.misses),
        programs_per_sec: None,
        scaling_efficiency: None,
        speedup_vs_baseline: None,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

fn flag_str(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).cloned()
}

/// Loads `(name, median_ns)` pairs from a checked-in `BENCH_*.json`.
/// Accepts this binary's own output (object with a `cases` array or a
/// bare array) and the hand-merged interning file, whose cases carry
/// `after_median_ns` instead of `median_ns`.
fn load_baseline(path: &str) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let doc = parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot parse baseline {path}: {e}");
        std::process::exit(2);
    });
    let cases = doc
        .get("cases")
        .and_then(|c| c.as_arr())
        .or_else(|| doc.as_arr())
        .unwrap_or_else(|| {
            eprintln!("bench_json: baseline {path} has no case array");
            std::process::exit(2);
        });
    cases
        .iter()
        .filter_map(|c| {
            let name = c.get("name")?.as_str()?.to_string();
            let median = c
                .get("median_ns")
                .or_else(|| c.get("after_median_ns"))?
                .as_u64()?;
            Some((name, median))
        })
        .collect()
}

fn to_json(cfg: &BenchConfig, cases: &[Case]) -> Json {
    let opt_f64 = |v: Option<f64>| match v {
        Some(x) => Json::Float((x * 1e4).round() / 1e4),
        None => Json::Null,
    };
    Json::obj([
        (
            "schema_version",
            Json::UInt(recmod::telemetry::SCHEMA_VERSION),
        ),
        (
            "config",
            Json::obj([
                ("samples", Json::UInt(cfg.samples as u64)),
                (
                    "target_ms",
                    Json::UInt(cfg.sample_target.as_millis() as u64),
                ),
                ("max_iters", Json::UInt(cfg.max_iters)),
            ]),
        ),
        (
            "cases",
            Json::Arr(
                cases
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(&c.name)),
                            ("median_ns", Json::UInt(c.median_ns)),
                            ("min_ns", Json::UInt(c.min_ns)),
                            ("max_ns", Json::UInt(c.max_ns)),
                            ("iters", Json::UInt(c.iters)),
                            ("whnf_hit_rate", opt_f64(c.whnf_hit_rate)),
                            ("intern_hit_rate", opt_f64(c.intern_hit_rate)),
                            ("programs_per_sec", opt_f64(c.programs_per_sec)),
                            ("scaling_efficiency", opt_f64(c.scaling_efficiency)),
                            ("speedup_vs_baseline", opt_f64(c.speedup_vs_baseline)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
