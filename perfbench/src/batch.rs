//! The batch path: `compile_batch` at jobs 1 with warm workers and no
//! artifact cache, and the reference verdicts the other paths are
//! checked against.

use recmod::driver::{compile_batch, BatchResult, DriverConfig, FileStatus, Job};
use recmod::telemetry::Config;

use crate::gen::{Expect, Program};

/// A file's verdict as the batch driver gave it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// How compilation ended.
    pub status: FileStatus,
    /// The structured diagnostics, each as compact JSON.
    pub diags: Vec<String>,
}

impl Verdict {
    /// The diagnostic codes, in source order.
    pub fn codes(&self) -> Vec<String> {
        self.diags
            .iter()
            .filter_map(|d| {
                let doc = recmod::telemetry::json::parse(d).ok()?;
                Some(doc.get("code")?.as_str()?.to_string())
            })
            .collect()
    }
}

/// The jobs for a set of programs.
pub fn jobs(programs: &[Program]) -> Vec<Job> {
    programs
        .iter()
        .map(|p| Job::new(p.name.clone(), p.source.clone()))
        .collect()
}

/// One `compile_batch` call at jobs 1, warm, uncached; with `telemetry`
/// a default telemetry sink is installed in the worker (`--stats`).
pub fn pass(jobs: &[Job], telemetry: bool) -> BatchResult {
    let config = DriverConfig {
        jobs: 1,
        warm: true,
        cache: None,
        telemetry: telemetry.then(Config::default),
        ..DriverConfig::default()
    };
    compile_batch(jobs, &config)
}

/// The verdicts of a batch, in input order.
pub fn verdicts(result: &BatchResult) -> Vec<Verdict> {
    result
        .outcomes
        .iter()
        .map(|o| Verdict {
            status: o.status,
            diags: o.diags.iter().map(|d| d.to_json().to_compact()).collect(),
        })
        .collect()
}

/// Whether a verdict agrees with a program's label: the status, and for
/// an ill-typed program the first diagnostic's code.
pub fn matches_label(program: &Program, verdict: &Verdict) -> bool {
    match program.expect {
        Expect::Ok(_) => verdict.status == FileStatus::Ok,
        Expect::Err(code) => {
            verdict.status == FileStatus::Error
                && verdict.codes().first().map(String::as_str) == Some(code)
        }
    }
}

/// Counts labelled verdicts the batch got wrong, reporting each on stderr.
pub fn wrong_verdicts(programs: &[Program], verdicts: &[Verdict]) -> u64 {
    let mut wrong = 0;
    for (p, v) in programs.iter().zip(verdicts) {
        if !matches_label(p, v) {
            wrong += 1;
            eprintln!(
                "WRONG verdict for {}: expected {:?}, got {:?} {:?}",
                p.name,
                p.expect,
                v.status,
                v.codes()
            );
        }
    }
    wrong
}
