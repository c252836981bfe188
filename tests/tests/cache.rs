//! Robustness and equivalence guarantees of the content-addressed
//! artifact cache (ISSUE 9): a cache may only ever change *when* work
//! happens, never *what* the user sees. Corrupt, truncated, or
//! version-skewed entries must read as silent misses (plus a stderr
//! warning where the entry is damaged), a poisoned entry must be
//! rejected by the envelope checksum, and rendered output must be
//! byte-identical with the cache off, cold, and warm.

use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::Duration;

use recmod::driver::cache::{self, Cache, CacheConfig};
use recmod::driver::serve::{Request, Response, ResponseStatus, ServeConfig, Server};
use recmod::driver::{compile_batch, DriverConfig, FileStatus, Job};
use recmod::telemetry::fault::{FaultKind, FaultPlan};
use recmod::telemetry::json::Json;
use recmod::telemetry::Limits;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recmod-itest-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_jobs() -> Vec<Job> {
    recmod::corpus::all()
        .iter()
        .map(|e| Job::new(e.name, e.source))
        .collect()
}

/// CLI-shaped rendering of a batch (summaries, ok lines, diagnostics,
/// in input order), so "byte-identical" means the user-visible text.
fn render(outcomes: &[recmod::driver::FileOutcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        match o.status {
            FileStatus::Ok => {
                for (name, describe) in &o.summaries {
                    s.push_str(&format!("{}: {name} : {describe}\n", o.name));
                }
                s.push_str(&format!("{}: ok\n", o.name));
            }
            _ => {
                for line in &o.diagnostics {
                    s.push_str(line);
                    s.push('\n');
                }
            }
        }
    }
    s
}

fn cached_config(dir: &Path) -> DriverConfig {
    DriverConfig {
        jobs: 2,
        cache: Some(CacheConfig::new(dir.to_path_buf())),
        ..DriverConfig::default()
    }
}

fn statuses(r: &recmod::driver::BatchResult) -> Vec<FileStatus> {
    r.outcomes.iter().map(|o| o.status).collect()
}

#[test]
fn cache_off_cold_and_warm_render_identically() {
    let dir = tmp_dir("identical");
    let jobs = corpus_jobs();
    let uncached = compile_batch(&jobs, &DriverConfig::default());
    let cold = compile_batch(&jobs, &cached_config(&dir));
    let warm = compile_batch(&jobs, &cached_config(&dir));
    assert_eq!(render(&uncached.outcomes), render(&cold.outcomes));
    assert_eq!(render(&uncached.outcomes), render(&warm.outcomes));
    assert_eq!(statuses(&uncached), statuses(&warm));
    assert_eq!(uncached.exit_code(), warm.exit_code());
    assert!(cold.cache_warnings.is_empty(), "{:?}", cold.cache_warnings);
    assert!(warm.cache_warnings.is_empty(), "{:?}", warm.cache_warnings);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same content under two display names shares one entry, and the
/// replay must re-render under the *requested* name, not the stored one.
#[test]
fn replay_renders_under_the_current_name() {
    let dir = tmp_dir("rename");
    let entry = &recmod::corpus::all()[0];
    let first = vec![Job::new("first.rm", entry.source)];
    let second = vec![Job::new("second.rm", entry.source)];
    let cfg = cached_config(&dir);
    let a = compile_batch(&first, &cfg);
    let b = compile_batch(&second, &cfg);
    assert_eq!(a.outcomes[0].status, b.outcomes[0].status);
    assert_eq!(
        render(&a.outcomes).replace("first.rm", "second.rm"),
        render(&b.outcomes)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damaging every entry between runs must not crash, must not change a
/// single verdict, and must surface as C-warnings, not diagnostics.
#[test]
fn truncated_and_corrupt_entries_are_silent_misses() {
    let dir = tmp_dir("damage");
    let jobs = corpus_jobs();
    let cfg = cached_config(&dir);
    let clean = compile_batch(&jobs, &cfg);
    let mut damaged = 0;
    for (i, e) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let bad = match i % 3 {
            0 => text[..text.len() / 3].to_string(), // truncated
            1 => "not json at all".to_string(),      // unparseable
            _ => text.replace("\"checksum\":", "\"checksum\":9"), // wrong hash
        };
        std::fs::write(&path, bad).unwrap();
        damaged += 1;
    }
    assert!(damaged > 0, "expected entries to damage");
    let replay = compile_batch(&jobs, &cfg);
    assert_eq!(render(&clean.outcomes), render(&replay.outcomes));
    assert_eq!(statuses(&clean), statuses(&replay));
    assert!(
        replay.cache_warnings.iter().all(|w| w.code == "C002"),
        "damage reads as C002: {:?}",
        replay.cache_warnings
    );
    assert!(!replay.cache_warnings.is_empty());
    // The damaged entries were recompiled and re-stored: a third run is
    // clean again.
    let healed = compile_batch(&jobs, &cfg);
    assert!(
        healed.cache_warnings.is_empty(),
        "{:?}",
        healed.cache_warnings
    );
    assert_eq!(render(&clean.outcomes), render(&healed.outcomes));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped verdict byte (ok -> error shape, valid JSON, stale hash)
/// must be rejected by the envelope checksum — the cache can never be
/// used to smuggle a wrong verdict.
#[test]
fn poisoned_verdict_is_rejected_by_checksum() {
    let dir = tmp_dir("poison");
    let ok_entry = *recmod::corpus::all()
        .iter()
        .find(|e| e.well_typed)
        .expect("corpus has an ok program");
    let jobs = vec![Job::new(ok_entry.name, ok_entry.source)];
    let cfg = cached_config(&dir);
    let clean = compile_batch(&jobs, &cfg);
    assert_eq!(clean.outcomes[0].status, FileStatus::Ok);
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"status\":\"ok\""),
            "fixture changed: {text}"
        );
        std::fs::write(
            &path,
            text.replace("\"status\":\"ok\"", "\"status\":\"error\""),
        )
        .unwrap();
    }
    let replay = compile_batch(&jobs, &cfg);
    assert_eq!(
        replay.outcomes[0].status,
        FileStatus::Ok,
        "poisoned entry replayed as a wrong verdict"
    );
    assert!(
        replay.cache_warnings.iter().any(|w| w.code == "C002"),
        "checksum rejection warns: {:?}",
        replay.cache_warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entries written under another schema version are silently recompiled
/// (no warning — skew is expected across upgrades, not damage).
#[test]
fn schema_skew_is_a_silent_recompile() {
    let dir = tmp_dir("skew");
    let jobs = corpus_jobs();
    let cfg = cached_config(&dir);
    let clean = compile_batch(&jobs, &cfg);
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        // Rewrite under a bogus schema version with a *valid* checksum.
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = recmod::telemetry::json::parse(&text).unwrap();
        let payload = doc.get("payload").unwrap().to_compact().replace(
            &format!("\"schema_version\":{}", recmod::telemetry::SCHEMA_VERSION),
            "\"schema_version\":999999",
        );
        let checksum = recmod::telemetry::bundle::fnv1a(&[payload.as_bytes()]);
        std::fs::write(
            &path,
            format!("{{\"checksum\":{checksum},\"payload\":{payload}}}"),
        )
        .unwrap();
    }
    let replay = compile_batch(&jobs, &cfg);
    assert_eq!(render(&clean.outcomes), render(&replay.outcomes));
    assert!(
        replay.cache_warnings.is_empty(),
        "skew is silent: {:?}",
        replay.cache_warnings
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Limit verdicts must not be cached: a deadline timeout is a fact
/// about the clock, not the program.
#[test]
fn limit_outcomes_are_never_stored() {
    let dir = tmp_dir("limit");
    let deep = recmod_bench::gen_module_chain(64);
    let jobs = vec![Job::new("deep.rm", deep)];
    let cfg = DriverConfig {
        limits: Limits {
            fuel: 10,
            ..Limits::default()
        },
        ..cached_config(&dir)
    };
    let r = compile_batch(&jobs, &cfg);
    if r.outcomes[0].status == FileStatus::Limit {
        let stored = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(stored, 0, "a limit verdict was cached");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uncreatable cache directory degrades to uncached compilation with
/// a C003 warning and untouched verdicts.
#[test]
fn uncreatable_cache_dir_degrades_to_uncached() {
    let file_in_the_way = tmp_dir("blocked");
    std::fs::write(&file_in_the_way, "not a directory").unwrap();
    let jobs = corpus_jobs();
    let blocked = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 2,
            cache: Some(CacheConfig::new(file_in_the_way.join("sub"))),
            ..DriverConfig::default()
        },
    );
    let uncached = compile_batch(&jobs, &DriverConfig::default());
    assert_eq!(render(&uncached.outcomes), render(&blocked.outcomes));
    assert!(
        blocked.cache_warnings.iter().any(|w| w.code == "C003"),
        "C003 surfaced: {:?}",
        blocked.cache_warnings
    );
    let _ = std::fs::remove_file(&file_in_the_way);
}

/// Direct `Cache` API: a key must separate all four inputs, so no two
/// different compiles can ever collide by construction.
#[test]
fn key_depends_on_source_limits_and_engine() {
    let limits = Limits::default();
    let base = cache::key("module M = mod { }", &limits, "nbe");
    assert_ne!(base, cache::key("module N = mod { }", &limits, "nbe"));
    assert_ne!(base, cache::key("module M = mod { }", &limits, "subst"));
    let mut tighter = limits;
    tighter.fuel /= 2;
    assert_ne!(base, cache::key("module M = mod { }", &tighter, "nbe"));
    let deadline = limits.with_deadline_ms(1_000);
    assert_ne!(base, cache::key("module M = mod { }", &deadline, "nbe"));
}

/// The documented telemetry counters actually fire: misses+stores on a
/// cold run, hits on a warm one.
#[test]
fn cache_counters_track_hits_and_misses() {
    let dir = tmp_dir("counters");
    let jobs = corpus_jobs();
    let n = jobs.len() as u64;
    let cfg = DriverConfig {
        telemetry: Some(recmod::telemetry::Config::default()),
        ..cached_config(&dir)
    };
    let cold = compile_batch(&jobs, &cfg);
    let merged = cold.merged.as_ref().expect("telemetry requested");
    assert_eq!(merged.counter("cache.miss"), n);
    assert!(merged.counter("cache.store") > 0);
    assert_eq!(merged.counter("cache.hit"), 0);
    let warm = compile_batch(&jobs, &cfg);
    let merged = warm.merged.as_ref().expect("telemetry requested");
    assert_eq!(merged.counter("cache.hit"), n);
    assert_eq!(merged.counter("cache.miss"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent workers sharing one `Cache` handle must not tear entries:
/// replicated jobs race to store the same key, and the next run still
/// hits cleanly on every file.
#[test]
fn racing_stores_of_one_key_leave_a_valid_entry() {
    let dir = tmp_dir("race");
    let entry = &recmod::corpus::all()[0];
    let jobs: Vec<Job> = (0..16)
        .map(|i| Job::new(format!("r{i}.rm"), entry.source))
        .collect();
    let cfg = DriverConfig {
        jobs: 4,
        telemetry: Some(recmod::telemetry::Config::default()),
        cache: Some(CacheConfig::new(dir.clone())),
        ..DriverConfig::default()
    };
    let first = compile_batch(&jobs, &cfg);
    assert!(
        first.cache_warnings.is_empty(),
        "{:?}",
        first.cache_warnings
    );
    let second = compile_batch(&jobs, &cfg);
    let merged = second.merged.as_ref().expect("telemetry requested");
    assert_eq!(merged.counter("cache.hit"), 16);
    assert!(second.cache_warnings.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Cache::open` on a fresh directory, used directly: stores survive a
/// new handle (the "next run"), which is the whole point of persistence.
#[test]
fn entries_survive_reopening_the_cache() {
    let dir = tmp_dir("reopen");
    let k = cache::key("val x = 1\n", &Limits::default(), "nbe");
    {
        let c = Cache::open(&CacheConfig::new(dir.clone())).unwrap();
        c.store(
            k,
            &cache::Entry {
                status: FileStatus::Ok,
                summaries: vec![("x".into(), "int".into())],
                diags: Vec::new(),
                counters: Default::default(),
            },
        );
    }
    let c = Cache::open(&CacheConfig::new(dir.clone())).unwrap();
    let cache::Outcome::Hit(entry) = c.load(k) else {
        panic!("entry did not survive reopening");
    };
    assert_eq!(entry.status, FileStatus::Ok);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache.counters.{hits,stores}` from a server's `stats` document.
fn serve_cache_counters(server: &Server) -> (u64, u64) {
    let stats = server.stats_json();
    let counters = stats
        .get("cache")
        .and_then(|c| c.get("counters"))
        .expect("cache enabled");
    let get = |k: &str| counters.get(k).and_then(Json::as_u64).expect(k);
    (get("hits"), get("stores"))
}

/// Sends one check request and waits for its response.
fn ask(server: &Server, id: u64, name: &str, source: &str) -> Response {
    let (tx, rx) = channel();
    server.submit(Request::new(id, name, source), tx);
    rx.recv_timeout(Duration::from_secs(60))
        .expect("server answers")
}

/// Batch and serve compile through one function under one cache key,
/// so a server replays what a batch stored: the same verdict, rendered
/// lines and summaries for every source, each a hit, nothing re-stored.
#[test]
fn serve_replays_batch_written_entries() {
    const DEADLINE_MS: u64 = 30_000;
    let dir = tmp_dir("serve-replay");
    let jobs = corpus_jobs();
    let batch = compile_batch(
        &jobs,
        &DriverConfig {
            deadline_ms: Some(DEADLINE_MS),
            ..cached_config(&dir)
        },
    );
    let mut server = Server::start(ServeConfig {
        cache: Some(CacheConfig::new(dir.clone())),
        default_deadline_ms: Some(DEADLINE_MS),
        ..ServeConfig::default()
    })
    .unwrap();
    for (i, (job, want)) in jobs.iter().zip(&batch.outcomes).enumerate() {
        let got = ask(&server, i as u64, &job.name, &job.source);
        assert_eq!(
            got.status,
            ResponseStatus::from(want.status),
            "{}",
            job.name
        );
        assert_eq!(got.rendered, want.diagnostics, "{}", job.name);
        assert_eq!(got.summaries, want.summaries, "{}", job.name);
    }
    assert_eq!(serve_cache_counters(&server), (jobs.len() as u64, 0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed fault never reads the cache and a fired one never writes
/// it: the faulted first attempt leaves no trace, and the one stored
/// entry is the unfaulted retry's verdict.
#[test]
fn faults_bypass_the_cache() {
    let dir = tmp_dir("serve-faults");
    let mut server = Server::start(ServeConfig {
        cache: Some(CacheConfig::new(dir.clone())),
        faults: Some(FaultPlan::always(5, Some(FaultKind::Panic))),
        backoff_ms: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    // Enough declarations that the injected panic (trigger at most 64
    // judgement boundaries in) fires mid-compile.
    let busy: String = (0..80).map(|i| format!("val x{i} = {i} + {i}\n")).collect();
    let r = ask(&server, 1, "busy.rm", &busy);
    assert_eq!(r.status, ResponseStatus::Ok);
    assert_eq!(r.attempts, 2);
    assert_eq!(r.injected, vec!["panic"]);
    assert_eq!(serve_cache_counters(&server), (0, 1));
    // The entry is there now, yet the next injected request's armed
    // attempt still compiles, so its fault fires and it retries.
    let r = ask(&server, 2, "busy.rm", &busy);
    assert_eq!(r.status, ResponseStatus::Ok);
    assert_eq!(r.attempts, 2);
    assert_eq!(r.injected, vec!["panic"]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
