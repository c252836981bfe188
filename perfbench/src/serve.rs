//! The serve path: an open loop of JSON request lines over one
//! in-process connection (`serve_connection` on a `UnixStream` pair) to
//! a `Server` with an artifact cache in a fresh directory.
//!
//! Arrivals follow a seeded Poisson schedule at a ladder of fixed rates.
//! Each request is timed from its due time, so a stall also charges the
//! requests queued behind it, and the generator's own lateness (send
//! time minus due time) is reported per phase.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use recmod::driver::cache::CacheConfig;
use recmod::driver::serve::{serve_connection, ServeConfig, Server, ServerStats};
use recmod::driver::FileStatus;
use recmod::telemetry::json::{self, Json};

use crate::batch::Verdict;
use crate::gen::Rng;
use crate::stats::{median, quantile};

/// One request of the stream. Its text is a program's source followed
/// by the comment `(* edit <variant> *)`, so a fresh variant is new text
/// (an edit, which the artifact cache misses) with the program's verdict,
/// and a repeat re-sends earlier text exactly (a re-check on save).
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into the workload's programs.
    pub program: usize,
    /// Which edit of the program.
    pub variant: u64,
    /// `trace: true`.
    pub trace: bool,
    /// The same text was sent earlier in the stream.
    pub repeat: bool,
}

impl Request {
    /// The request's source text.
    pub fn text(&self, sources: &[String]) -> String {
        format!("{}\n(* edit {} *)\n", sources[self.program], self.variant)
    }
}

/// The `low` and `high` rates of one workload, requests per second,
/// fixed once measured on the seed commit.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// The `low` rate.
    pub low: f64,
    /// The `high` rate.
    pub high: f64,
}

/// The p99 latency limit a rate must meet, milliseconds.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Unmeasured requests sent at the `high` rate first.
const WARMUP: usize = 200;
/// Requests at the `low` rate, and again at the `high` rate.
const PER_RATE: usize = 450;
/// Alternating blocks the `low` and `high` requests are split into.
const BLOCKS: usize = 3;
/// Factor between successive rates above `high`.
const STEP: f64 = 1.12;
/// Rates tried above `high` (up to about five times `high`).
const STEPS: usize = 14;
/// Requests per rate above `high`.
const PER_STEP: usize = 300;

/// Starts a server with one worker per available core and an artifact
/// cache in `cache_dir`.
pub fn start(cache_dir: &Path) -> Server {
    Server::start(ServeConfig {
        workers: workers(),
        cache: Some(CacheConfig::new(cache_dir)),
        ..ServeConfig::default()
    })
    .expect("serve supervisor starts")
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Open-loop accounting of one rate phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `warmup`, `low`, `high`, or `step1`, `step2`, …
    pub label: String,
    /// Scheduled arrival rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Responses that matched the batch verdict.
    pub succeeded: usize,
    /// Limit, internal, invalid or draining responses, and requests
    /// never answered.
    pub failed: usize,
    /// Overloaded responses.
    pub shed: usize,
    /// Compiled responses whose status or diagnostics differ from the
    /// batch verdict.
    pub wrong: usize,
    /// Latency from due time to response, untraced requests, ms.
    pub latencies: Vec<f64>,
    /// Latency from due time to response, traced requests, ms.
    pub traced: Vec<f64>,
    /// p99 of send time minus due time, ms.
    pub lateness_p99_ms: f64,
    /// The generator fell behind its schedule in this phase: its median
    /// lateness was half a mean inter-arrival gap or more.
    pub behind: bool,
    /// The last fifth of the phase waited much longer than the first.
    pub growing_backlog: bool,
    /// The compiled (ok or error) responses, for [`verify`].
    pub answers: Vec<Answer>,
}

/// A compiled response: which program it answered, and how.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index into the workload's programs.
    pub program: usize,
    /// Status `ok` (else `error`).
    pub ok: bool,
    /// The diagnostics, each as compact JSON.
    pub diags: Vec<String>,
}

/// Checks every compiled answer against the batch verdict for the same
/// source, moving mismatches from `succeeded` to `wrong`.
pub fn verify(phases: &mut [Phase], reference: &[Verdict]) {
    for phase in phases {
        for a in &phase.answers {
            let want = &reference[a.program];
            if a.ok != (want.status == FileStatus::Ok) || a.diags != want.diags {
                phase.succeeded -= 1;
                phase.wrong += 1;
                eprintln!(
                    "WRONG serve response for program {}: ok={} {:?}, batch gave {want:?}",
                    a.program, a.ok, a.diags
                );
            }
        }
    }
}

impl Phase {
    /// Median and p99 latency over every answered request, ms.
    pub fn p50_p99(&self) -> (f64, f64) {
        let all: Vec<f64> = self.latencies.iter().chain(&self.traced).copied().collect();
        (median(&all), quantile(&all, 0.99))
    }

    /// Whether the phase met the p99 limit with no shed, failed or wrong
    /// response and no growing backlog.
    pub fn meets(&self) -> bool {
        self.shed == 0
            && self.failed == 0
            && self.wrong == 0
            && !self.growing_backlog
            && self.p50_p99().1 <= P99_LIMIT_MS
    }
}

/// Everything one ladder produced.
#[derive(Debug)]
pub struct Outcome {
    /// The phases in the order run.
    pub phases: Vec<Phase>,
    /// The metrics document right after the last `high` block.
    pub metrics_high: Json,
    /// Worker busy nanoseconds gained during the `high` blocks over their
    /// wall nanoseconds times the worker count.
    pub worker_util_high: f64,
    /// Server counters at the end.
    pub stats: ServerStats,
    /// The cache hit ratio at the end.
    pub cache_hit_ratio: f64,
    /// Interner shard contention events at the end.
    pub intern_contended: u64,
}

impl Outcome {
    /// The blocks labelled `label`, in the order run.
    pub fn blocks(&self, label: &str) -> impl Iterator<Item = &Phase> + '_ {
        let label = label.to_string();
        self.phases.iter().filter(move |p| p.label == label)
    }

    /// The median over the `label` blocks of each block's median latency.
    pub fn block_p50(&self, label: &str) -> f64 {
        let p50s: Vec<f64> = self.blocks(label).map(|p| p.p50_p99().0).collect();
        median(&p50s)
    }

    /// The blocks labelled `label` merged into one phase.
    pub fn merged(&self, label: &str) -> Phase {
        let mut blocks = self.blocks(label);
        let mut out = blocks.next().expect("every ladder rung runs").clone();
        for b in blocks {
            out.sent += b.sent;
            out.succeeded += b.succeeded;
            out.failed += b.failed;
            out.shed += b.shed;
            out.wrong += b.wrong;
            out.latencies.extend(&b.latencies);
            out.traced.extend(&b.traced);
            out.lateness_p99_ms = out.lateness_p99_ms.max(b.lateness_p99_ms);
            out.behind |= b.behind;
            out.growing_backlog |= b.growing_backlog;
        }
        out
    }

    /// The rungs in rising rate order, blocks merged.
    pub fn rungs(&self) -> Vec<Phase> {
        let mut rungs = vec![self.merged("low"), self.merged("high")];
        rungs.extend(
            self.phases
                .iter()
                .filter(|p| p.label.starts_with("step"))
                .cloned(),
        );
        rungs
    }
}

/// The highest rate meeting the limit. Between the last passing and the
/// first failing rung the crossing of the p99 limit is interpolated
/// linearly, so the figure moves smoothly with the server's capacity.
pub fn max_rate(rungs: &[Phase]) -> f64 {
    let limit_ms = P99_LIMIT_MS;
    let mut best: Option<&Phase> = None;
    for ph in rungs {
        if !ph.meets() {
            let p99 = if ph.shed > 0 || ph.failed > 0 || ph.growing_backlog {
                f64::INFINITY
            } else {
                ph.p50_p99().1
            };
            return match best {
                None => ph.rate * (limit_ms / p99.max(limit_ms)).max(0.05),
                Some(ok) => {
                    let p_ok = ok.p50_p99().1;
                    let p_bad = p99.min(4.0 * limit_ms);
                    let frac = ((limit_ms - p_ok) / (p_bad - p_ok)).clamp(0.0, 1.0);
                    ok.rate + (ph.rate - ok.rate) * frac
                }
            };
        }
        best = Some(ph);
    }
    best.map_or(f64::NAN, |ph| ph.rate)
}

/// Sent-request bookkeeping.
struct Sent {
    program: usize,
    trace: bool,
    due: Instant,
}

/// Runs the ladder: `low`, `high`, then rising rates until one fails
/// the limit. Check the answers afterwards with [`verify`].
pub fn ladder(
    sources: &[String],
    requests: &[Request],
    ladder: &Ladder,
    seed: u64,
    cache_dir: &Path,
) -> Outcome {
    let workers = workers();
    let mut server = start(cache_dir);
    let (client, server_end) = UnixStream::pair().expect("socket pair");
    let replies: Mutex<Vec<Reply>> = Mutex::new(Vec::new());
    let received = AtomicUsize::new(0);
    let mut rng = Rng::new(seed ^ 0x5e77_e000);
    let mut phases = Vec::new();
    let mut metrics_high = Json::Null;
    let (mut high_busy, mut high_wall) = (0.0f64, 0.0f64);
    std::thread::scope(|scope| {
        let server_ref = &server;
        let conn_in = server_end.try_clone().expect("clone server end");
        scope.spawn(move || serve_connection(server_ref, BufReader::new(conn_in), server_end));
        let reader = client.try_clone().expect("clone client end");
        let (replies_ref, received_ref) = (&replies, &received);
        scope.spawn(move || {
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                let reply = Reply::parse(Instant::now(), &line);
                replies_ref
                    .lock()
                    .expect("reply log lock poisoned")
                    .push(reply);
                received_ref.fetch_add(1, Ordering::Release);
            }
        });

        let mut writer = client;
        let mut sent: HashMap<u64, Sent> = HashMap::new();
        let mut next = 0usize;
        // `low` and `high` run as alternating blocks, so that a passing
        // disturbance of the machine lands in one block, not a whole rate.
        let mut rates = vec![("warmup".to_string(), ladder.high, WARMUP)];
        for _ in 0..BLOCKS {
            rates.push(("low".to_string(), ladder.low, PER_RATE / BLOCKS));
            rates.push(("high".to_string(), ladder.high, PER_RATE / BLOCKS));
        }
        let mut r = ladder.high;
        for i in 1..=STEPS {
            r *= STEP;
            rates.push((format!("step{i}"), r, PER_STEP));
        }
        for (label, rate, count) in rates {
            let first_line = received.load(Ordering::Acquire);
            let busy0 = busy(server_ref);
            let t_phase = Instant::now();
            let start = t_phase + Duration::from_millis(2);
            let mut offset = 0.0f64;
            let mut lateness = Vec::with_capacity(count);
            for _ in 0..count {
                offset += -(1.0 - rng.unit()).ln() / rate;
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let req = requests[next % requests.len()];
                let id = next as u64 + 1;
                next += 1;
                let line = Json::obj([
                    ("op", Json::str("check")),
                    ("id", Json::UInt(id)),
                    ("name", Json::str(format!("req{id}.rm"))),
                    ("source", Json::Str(req.text(sources))),
                    ("trace", Json::Bool(req.trace)),
                ])
                .to_compact();
                let t_send = Instant::now();
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("request write");
                lateness.push(t_send.saturating_duration_since(due).as_secs_f64() * 1e3);
                sent.insert(
                    id,
                    Sent {
                        program: req.program,
                        trace: req.trace,
                        due,
                    },
                );
            }
            // Wait for every response of the phase.
            let deadline = Instant::now() + Duration::from_secs(60);
            while received.load(Ordering::Acquire) < next && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let wall = t_phase.elapsed().as_nanos() as f64;
            let log = replies.lock().expect("reply log lock poisoned");
            let mut phase = account(&label, rate, &log[first_line..], &sent);
            drop(log);
            phase.sent = count;
            phase.failed += count - (phase.succeeded + phase.failed + phase.shed + phase.wrong);
            phase.lateness_p99_ms = quantile(&lateness, 0.99);
            // Behind: the typical send is late by half a mean gap or more,
            // so the offered rate was not the scheduled one. (Isolated late
            // wake-ups show in the p99 alone.)
            phase.behind = median(&lateness) > 0.5e3 / rate;
            if label == "high" {
                metrics_high = server_ref.metrics_json(false);
                high_busy += busy(server_ref)
                    .iter()
                    .zip(&busy0)
                    .map(|(b, a)| b - a)
                    .sum::<u64>() as f64;
                high_wall += wall * workers as f64;
            }
            let stop = label.starts_with("step") && !phase.meets();
            phases.push(phase);
            if stop {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("close request stream");
    });
    let stats = server.stats();
    let doc = server.metrics_json(false);
    let cache_hit_ratio = match doc.get("cache").and_then(|c| c.get("counters")) {
        Some(c) => match c.get("hit_ratio") {
            Some(Json::Float(f)) => *f,
            _ => f64::NAN,
        },
        None => f64::NAN,
    };
    let intern_contended = doc
        .get("intern")
        .and_then(|i| i.get("contended"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    server.shutdown();
    Outcome {
        phases,
        metrics_high,
        worker_util_high: high_busy / high_wall,
        stats,
        cache_hit_ratio,
        intern_contended,
    }
}

/// Per-worker busy nanoseconds from the metrics document.
fn busy(server: &Server) -> Vec<u64> {
    let doc = server.metrics_json(false);
    doc.get("workers")
        .and_then(Json::as_arr)
        .map(|ws| {
            ws.iter()
                .map(|w| w.get("busy_nanos").and_then(Json::as_u64).unwrap_or(0))
                .collect()
        })
        .unwrap_or_default()
}

/// One response line as received: when, and the fields the benchmark
/// checks (the rest, such as a trace, is dropped on arrival).
struct Reply {
    at: Instant,
    id: Option<u64>,
    status: String,
    diags: Vec<String>,
}

impl Reply {
    fn parse(at: Instant, line: &str) -> Reply {
        let doc = json::parse(line).unwrap_or(Json::Null);
        Reply {
            at,
            id: doc.get("id").and_then(Json::as_u64),
            status: doc
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            diags: doc
                .get("diagnostics")
                .and_then(Json::as_arr)
                .map(|ds| ds.iter().map(Json::to_compact).collect())
                .unwrap_or_default(),
        }
    }
}

/// Classifies one phase's responses; compiled answers are kept for
/// [`verify`].
fn account(label: &str, rate: f64, replies: &[Reply], sent: &HashMap<u64, Sent>) -> Phase {
    let mut phase = Phase {
        label: label.to_string(),
        rate,
        sent: 0,
        succeeded: 0,
        failed: 0,
        shed: 0,
        wrong: 0,
        latencies: Vec::new(),
        traced: Vec::new(),
        lateness_p99_ms: 0.0,
        behind: false,
        growing_backlog: false,
        answers: Vec::new(),
    };
    let mut by_order = Vec::with_capacity(replies.len());
    for reply in replies {
        let Some(req) = reply.id.and_then(|id| sent.get(&id)) else {
            phase.wrong += 1;
            continue;
        };
        let ms = reply.at.saturating_duration_since(req.due).as_secs_f64() * 1e3;
        let status = reply.status.as_str();
        match status {
            "ok" | "error" => {
                phase.succeeded += 1;
                phase.answers.push(Answer {
                    program: req.program,
                    ok: status == "ok",
                    diags: reply.diags.clone(),
                });
            }
            "overloaded" => phase.shed += 1,
            _ => phase.failed += 1,
        }
        if status == "overloaded" {
            continue;
        }
        if req.trace {
            phase.traced.push(ms);
        } else {
            phase.latencies.push(ms);
        }
        by_order.push((req.due, ms));
    }
    by_order.sort_by_key(|&(due, _)| due);
    let fifth = by_order.len() / 5;
    if fifth >= 10 {
        let first: Vec<f64> = by_order[..fifth].iter().map(|p| p.1).collect();
        let last: Vec<f64> = by_order[by_order.len() - fifth..]
            .iter()
            .map(|p| p.1)
            .collect();
        let (m0, m1) = (median(&first), median(&last));
        // A quarter of the p99 limit on top keeps short, noisy phases from
        // reading as a backlog; a real one grows far past it.
        phase.growing_backlog = m1 > 2.0 * m0 + P99_LIMIT_MS / 4.0;
    }
    phase
}
