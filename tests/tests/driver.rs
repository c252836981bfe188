//! Determinism and aggregation guarantees of the parallel batch driver
//! (ISSUE 4): scheduling must never show through in the output.

use recmod::driver::{compile_batch, DriverConfig, FileStatus, Job};
use recmod::telemetry::{Config, Counter};

/// The full corpus as a batch, replicated so eight workers have
/// meaningful contention and stealing actually happens.
fn corpus_jobs(replicas: usize) -> Vec<Job> {
    let entries = recmod::corpus::all();
    (0..replicas)
        .flat_map(|r| {
            entries
                .iter()
                .map(move |e| Job::new(format!("{}#{r}", e.name), e.source))
        })
        .collect()
}

/// Renders a batch result the way the CLI does — summaries, ok-lines,
/// and diagnostics, in input order — so "byte-identical output" is
/// checked on the actual user-visible text.
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

#[test]
fn corpus_jobs1_vs_jobs8_byte_identical() {
    let jobs = corpus_jobs(3);
    let base = DriverConfig {
        telemetry: Some(Config::default()),
        ..DriverConfig::default()
    };
    let one = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 1,
            ..base.clone()
        },
    );
    let eight = compile_batch(&jobs, &DriverConfig { jobs: 8, ..base });

    assert_eq!(one.exit_code(), eight.exit_code());
    assert_eq!(render(&one.outcomes), render(&eight.outcomes));

    // Every corpus entry's verdict must match its paper expectation,
    // under both schedules.
    let entries = recmod::corpus::all();
    for (i, o) in eight.outcomes.iter().enumerate() {
        let expect = entries[i % entries.len()].well_typed;
        assert_eq!(
            o.status == FileStatus::Ok,
            expect,
            "{} has unexpected status {:?}",
            o.name,
            o.status
        );
    }
}

#[test]
fn merged_counters_are_the_sum_of_per_worker_counters() {
    let jobs = corpus_jobs(2);
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 4,
            telemetry: Some(Config::default()),
            ..DriverConfig::default()
        },
    );
    let merged = res.merged.as_ref().expect("telemetry was requested");
    // For every counter in the merged report, the per-worker values must
    // sum to it exactly (merge is additive, never lossy).
    for (&key, total) in &merged.counters {
        if key.is_mark() {
            continue; // high-water marks merge by max, not sum
        }
        let sum: u64 = res
            .workers
            .iter()
            .filter_map(|w| w.report.as_ref())
            .map(|r| r.counter(key))
            .sum();
        assert_eq!(sum, *total, "counter {} is not additive", key.name());
    }
    assert_eq!(merged.counter(Counter::DriverFiles), jobs.len() as u64);
}

#[test]
fn surviving_workers_drain_failed_spawns_deques() {
    // Three workers requested, first two spawns fail: the one survivor
    // must steal both dead deques and drain every file with the same
    // verdicts and aggregate exit code as a clean run.
    let jobs = corpus_jobs(2);
    let clean = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 3,
            ..DriverConfig::default()
        },
    );
    let degraded = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 3,
            fail_spawns: 2,
            ..DriverConfig::default()
        },
    );
    assert_eq!(degraded.exit_code(), clean.exit_code());
    assert_eq!(render(&degraded.outcomes), render(&clean.outcomes));
    for o in &degraded.outcomes {
        assert_ne!(
            o.status,
            FileStatus::Internal,
            "{} was dropped instead of drained",
            o.name
        );
    }
}

#[test]
fn all_spawns_failing_reports_internal_not_hang() {
    // Nothing spawned: every file must still get an outcome — the I003
    // "worker thread died" internal error — and the batch exits 4.
    let jobs = corpus_jobs(1);
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 2,
            fail_spawns: 2,
            ..DriverConfig::default()
        },
    );
    assert_eq!(res.outcomes.len(), jobs.len());
    for o in &res.outcomes {
        assert_eq!(o.status, FileStatus::Internal);
        assert!(
            o.diags.iter().any(|d| d.code == "I003"),
            "{} missing the worker-death diagnostic",
            o.name
        );
    }
    assert_eq!(res.exit_code(), 4);
}

#[test]
fn warm_worker_rearms_deadline_between_files() {
    // File 1 carries an impossible per-job deadline and must hit the
    // limit; file 2 follows on the same warm worker with no deadline
    // and must compile clean — the stale absolute deadline from file 1
    // must not leak into file 2's limits.
    let entries = recmod::corpus::all();
    let entry = entries
        .iter()
        .find(|e| e.well_typed)
        .expect("corpus has a well-typed entry");
    let jobs = vec![
        Job::new("doomed.rm", entry.source).with_deadline_ms(0),
        Job::new("fine.rm", entry.source),
    ];
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 1,
            ..DriverConfig::default()
        },
    );
    assert_eq!(res.outcomes[0].status, FileStatus::Limit);
    assert!(
        res.outcomes[0].diags.iter().any(|d| d.code == "L004"),
        "deadline limit should carry L004, got {:?}",
        res.outcomes[0].diags
    );
    assert_eq!(
        res.outcomes[1].status,
        FileStatus::Ok,
        "stale deadline poisoned the next file on the warm worker"
    );
}

#[test]
fn warm_worker_does_not_leak_type_equivalences_between_files() {
    // File 1 makes `A.t` transparently equal to `int` and uses it at
    // `int`. File 2, on the same warm worker, redefines `A.t` as `bool`
    // and makes the same use — which must now be rejected. Any kernel
    // memo entry from file 1 that survived `Tc::renew` in a form file 2
    // could hit (for instance, keyed without a fresh context stamp)
    // would wrongly equate the new `t` with `int` and accept it. File 3 repeats file 1 to show
    // the warm path still accepts what it should.
    let with_int = "structure A = struct\n  type t = int\n  val x : t = 1\nend\n";
    let with_bool = "structure A = struct\n  type t = bool\n  val x : t = 1\nend\n";
    let jobs = vec![
        Job::new("int.rm", with_int),
        Job::new("bool.rm", with_bool),
        Job::new("int_again.rm", with_int),
    ];
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 1,
            ..DriverConfig::default()
        },
    );
    assert_eq!(res.outcomes[0].status, FileStatus::Ok);
    assert_eq!(
        res.outcomes[1].status,
        FileStatus::Error,
        "a stale `t = int` equivalence leaked across Tc::renew"
    );
    assert_eq!(res.outcomes[2].status, FileStatus::Ok);
}

#[test]
fn worker_attribution_covers_every_file() {
    let jobs = corpus_jobs(2);
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 3,
            ..DriverConfig::default()
        },
    );
    let by_worker: usize = res.workers.iter().map(|w| w.files).sum();
    assert_eq!(by_worker, jobs.len());
    for o in &res.outcomes {
        assert!(o.worker < res.workers.len());
        assert!(o.nanos > 0, "{} has no time attributed", o.name);
    }
}

#[test]
fn fuel_exhaustion_reports_the_same_top_consumers_on_a_warm_worker() {
    // Under a small fuel budget functions.rm runs out, and its L003
    // diagnostic names the judgement forms that burned the most fuel. On
    // a warm worker that checked other files first, those counts must
    // still cover this file only: every file's rendered diagnostics must
    // equal the file compiled alone, at jobs 1 and at jobs 2.
    let files = [
        ("values.rm", include_str!("../corpus/ok/values.rm")),
        ("structure.rm", include_str!("../corpus/ok/structure.rm")),
        ("functions.rm", include_str!("../corpus/ok/functions.rm")),
    ];
    // Fuel use depends on which interned nodes are alive (the kernel
    // memos are keyed by node id), and other tests intern concurrently.
    // Compiling every file once on this thread under a pin keeps all
    // their nodes alive, so each compile below sees the same ids.
    let _pin = recmod::syntax::intern::pin_thread();
    let _live: Vec<_> = files.iter().map(|(_, s)| recmod::compile(s)).collect();
    let jobs: Vec<Job> = files.iter().map(|(n, s)| Job::new(*n, *s)).collect();
    let config = |workers| DriverConfig {
        jobs: workers,
        limits: recmod::telemetry::Limits::default().with_fuel(50),
        ..DriverConfig::default()
    };
    let alone: Vec<Vec<String>> = jobs
        .iter()
        .map(|j| {
            compile_batch(std::slice::from_ref(j), &config(1)).outcomes[0]
                .diagnostics
                .clone()
        })
        .collect();
    assert!(
        alone[2]
            .iter()
            .any(|d| d.contains("top consumers") && d.contains("[L003]")),
        "functions.rm should exhaust its fuel: {:?}",
        alone[2]
    );
    for workers in [1, 2] {
        let batch = compile_batch(&jobs, &config(workers));
        for (o, want) in batch.outcomes.iter().zip(&alone) {
            assert_eq!(&o.diagnostics, want, "{} at jobs {workers}", o.name);
        }
    }
}
