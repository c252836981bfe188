//! Content-addressed on-disk artifact cache: verdicts keyed by what
//! they are a function of.
//!
//! The kernel's judgements are pure: a file's verdict (ok/error), its
//! binding summaries, and its structured diagnostics are a function of
//! exactly three inputs — the source bytes, the resource [`Limits`], and
//! the output schema ([`SCHEMA_VERSION`]). So a cache entry is addressed
//! by `fnv1a` over precisely that tuple ([`key`]) and stores the
//! verdict plus everything needed to replay the file's output without
//! touching the pipeline. `NodeId`s are deliberately **never**
//! persisted: every thread's interner mints them in its own
//! first-intern order, so they are not even stable across threads.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * **Writes are atomic** — temp file in the cache directory, then
//!   `rename`, so a concurrent reader sees either the old entry, the
//!   new entry, or nothing; never a torn file.
//! * **Entries are checksummed** — the payload's compact JSON rendering
//!   is FNV-hashed into the envelope; truncated, bit-flipped, or
//!   hand-edited entries fail verification and read as *misses*
//!   ([`Outcome::Corrupt`]), never as stale verdicts or crashes.
//! * **Version skew is a silent miss** — the payload repeats the schema
//!   version (also part of the key, belt and braces); a mismatch reads
//!   as [`Outcome::Skew`].
//! * **The cache is advisory** — every failure (unreadable directory,
//!   I/O error, corruption) degrades to recompiling, reported as a
//!   `C00x` *warning* on stderr, never as a diagnostic or a nonzero
//!   exit. Verdicts and rendered output are byte-identical with the
//!   cache on, off, or warm.
//!
//! Size is bounded by an LRU-ish garbage collector: hits bump an
//! entry's mtime, and when the directory's total entry size exceeds the
//! configured cap, the oldest-mtime entries are evicted down to 3/4 of
//! the cap. The total is tracked in memory: the first store of a process
//! scans the directory, every later store adds its size, and only a store
//! that takes the total past the cap scans again. Opening the cache and
//! loading from it never scan, and a store below the cap costs one write
//! and one rename.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use recmod_surface::diag::Diagnostic;
use recmod_telemetry::bundle::fnv1a;
use recmod_telemetry::json::{self, Json};
use recmod_telemetry::{Counter, Limits, SCHEMA_VERSION};

use crate::FileStatus;

/// Default size cap for the cache directory (sum of entry file sizes).
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Cache settings as carried in driver/serve configs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory holding the entries (created if absent).
    pub dir: PathBuf,
    /// Entry-size cap that triggers the LRU-ish GC.
    pub max_bytes: u64,
}

impl CacheConfig {
    /// A config with the default size cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }
}

/// A cache-layer health warning (`C001`–`C003`). Warnings describe the
/// cache, never the compiled program: they go to stderr and do not
/// affect verdicts or exit codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheWarning {
    /// Registry code: `C001` I/O error, `C002` corrupt entry skipped,
    /// `C003` cache directory uncreatable.
    pub code: &'static str,
    /// Human-readable description of what happened.
    pub message: String,
}

impl CacheWarning {
    /// The canonical stderr rendering.
    pub fn render(&self) -> String {
        format!("warning: cache: {} [{}]", self.message, self.code)
    }
}

/// What a cached verdict stores: enough to replay a file's rendered
/// output without recompiling. Rendered diagnostic *lines* are not
/// stored — they embed the display name, which is not part of the key
/// (the same content under two paths shares one entry) — so hits
/// re-render from the structured diagnostics.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The verdict. Only [`FileStatus::Ok`] and [`FileStatus::Error`]
    /// are cacheable: limit and internal outcomes depend on wall clocks
    /// and bugs, not on the key.
    pub status: FileStatus,
    /// `(name, description)` binding summaries (ok outcomes).
    pub summaries: Vec<(String, String)>,
    /// Structured diagnostics (error outcomes).
    pub diags: Vec<Diagnostic>,
    /// Cost counters attributed to the file when it was compiled, if
    /// per-file counter attribution was on. Informational: replayed
    /// entries report the cost of the *original* compile.
    pub counters: BTreeMap<String, u64>,
}

/// How a lookup resolved (telemetry mirrors these as `cache.*`).
#[derive(Debug)]
pub enum Outcome {
    /// A verified entry.
    Hit(Box<Entry>),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed parsing or checksum verification.
    Corrupt,
    /// An entry existed but was written under another schema version.
    Skew,
    /// The entry could not be read (permissions, transient I/O).
    IoError,
}

/// An open cache directory, shared by all workers of a batch or
/// service. Interior mutability is limited to the warning log; entry
/// I/O goes straight to the filesystem, whose rename atomicity is the
/// real synchronization point.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    max_bytes: u64,
    warnings: Mutex<Vec<CacheWarning>>,
    counters: CacheCounters,
    /// Entry bytes in the directory as far as this process knows. It
    /// starts above the cap, so the first store scans (and resets it);
    /// every store adds its size and every GC scan re-reads it. Entries
    /// written by other processes, and the old size of an entry a store
    /// replaces, are only accounted at this process's next scan: with
    /// several writers on one directory it can pass the cap by the other
    /// writers' stores since then (the GC is best-effort).
    entry_bytes: AtomicU64,
}

/// Process-wide cache activity counters, shared by every worker using
/// this [`Cache`]. These mirror the per-thread `cache.*` telemetry
/// counters: the serve daemon's workers run without a telemetry sink
/// installed (the S14 counters are batch-scoped), so the service's
/// `stats`/`metrics` surfaces read these relaxed atomics instead.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt_skipped: AtomicU64,
    io_errors: AtomicU64,
    gc_evicted: AtomicU64,
}

/// A plain-data snapshot of a [`Cache`]'s activity since it was
/// opened. `io_errors` counts `C001` degradations and
/// `corrupt_skipped` counts `C002`s; a `C003` (directory uncreatable)
/// means no `Cache` exists at all, which the serve layer reports as
/// `open_failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a verified entry.
    pub hits: u64,
    /// Lookups that found nothing (or a schema-skewed entry).
    pub misses: u64,
    /// Verdicts written (atomic temp + rename completed).
    pub stores: u64,
    /// Entries skipped for failed parse/checksum (`C002`).
    pub corrupt_skipped: u64,
    /// Reads/writes lost to I/O trouble (`C001`).
    pub io_errors: u64,
    /// Entries evicted by the size-capped GC.
    pub gc_evicted: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` over completed lookups; `0` before any.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter object embedded in `stats`/`metrics` documents
    /// (`io_errors` = `C001` events, `corrupt_skipped` = `C002`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("stores", Json::UInt(self.stores)),
            ("corrupt_skipped", Json::UInt(self.corrupt_skipped)),
            ("io_errors", Json::UInt(self.io_errors)),
            ("gc_evicted", Json::UInt(self.gc_evicted)),
            ("hit_ratio", Json::Float(self.hit_ratio())),
        ])
    }
}

/// Computes the content address of a compile: the verdict is a pure
/// function of the source, the limits and the schema version, and
/// nothing else. `deadline_ms` participates (a deadline is part of the
/// requested limits) but wall-clock *outcomes* are never cached, so a
/// generous deadline can only ever replay honest ok/error verdicts.
///
/// `tag` is hashed in last. The driver always passes `""`; the argument
/// remains only because the benchmark (`perfbench/`) passes the
/// kernel's engine name.
pub fn key(source: &str, limits: &Limits, tag: &str) -> u64 {
    fnv1a(&[
        source.as_bytes(),
        &(limits.max_depth as u64).to_le_bytes(),
        &limits.max_nodes.to_le_bytes(),
        &limits.fuel.to_le_bytes(),
        &limits.eval_fuel.to_le_bytes(),
        &limits.eval_depth.to_le_bytes(),
        &limits.deadline_ms.to_le_bytes(),
        &SCHEMA_VERSION.to_le_bytes(),
        tag.as_bytes(),
    ])
}

/// Tiebreaker for temp-file names when two threads store the same key
/// simultaneously (both renames then target the same final path; either
/// order leaves a valid entry, since both wrote the same payload).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Cache {
    /// Opens (creating if necessary) a cache directory.
    ///
    /// # Errors
    ///
    /// A `C003` warning when the directory cannot be created; callers
    /// run uncached and surface the warning once.
    pub fn open(config: &CacheConfig) -> Result<Cache, CacheWarning> {
        match std::fs::create_dir_all(&config.dir) {
            Ok(()) => Ok(Cache {
                dir: config.dir.clone(),
                max_bytes: config.max_bytes,
                warnings: Mutex::new(Vec::new()),
                counters: CacheCounters::default(),
                entry_bytes: AtomicU64::new(config.max_bytes.saturating_add(1)),
            }),
            Err(e) => Err(CacheWarning {
                code: "C003",
                message: format!(
                    "cannot create cache directory {}: {e}; caching disabled",
                    config.dir.display()
                ),
            }),
        }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    fn warn(&self, code: &'static str, message: String) {
        let w = CacheWarning { code, message };
        let mut log = self
            .warnings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !log.contains(&w) {
            log.push(w);
        }
    }

    /// Snapshots the process-wide activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            corrupt_skipped: self.counters.corrupt_skipped.load(Ordering::Relaxed),
            io_errors: self.counters.io_errors.load(Ordering::Relaxed),
            gc_evicted: self.counters.gc_evicted.load(Ordering::Relaxed),
        }
    }

    /// Drains the deduplicated warning log (call once per batch).
    pub fn take_warnings(&self) -> Vec<CacheWarning> {
        std::mem::take(
            &mut self
                .warnings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Looks up a key, verifying the envelope checksum and schema
    /// version. Every non-hit degrades to "compile it"; corruption and
    /// I/O trouble additionally log a warning and bump their counters.
    pub fn load(&self, key: u64) -> Outcome {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                recmod_telemetry::count(Counter::CacheMiss, 1);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return Outcome::Miss;
            }
            Err(e) => {
                recmod_telemetry::count(Counter::CacheIoError, 1);
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                self.warn("C001", format!("cannot read {}: {e}", path.display()));
                return Outcome::IoError;
            }
        };
        match verify(&text) {
            Verified::Entry(entry) => {
                // LRU bookkeeping: a hit makes the entry "recently
                // used". Touches are throttled to once a minute per
                // entry (GC ordering doesn't need finer grain) and
                // failure to touch is harmless (GC just sees an older
                // entry), so every result here is ignored.
                let now = SystemTime::now();
                let stale = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| now.duration_since(mtime).ok())
                    .is_none_or(|age| age.as_secs() >= 60);
                if stale {
                    if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                        let _ = f.set_modified(now);
                    }
                }
                recmod_telemetry::count(Counter::CacheHit, 1);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Outcome::Hit(entry)
            }
            Verified::Skew => {
                recmod_telemetry::count(Counter::CacheMiss, 1);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                Outcome::Skew
            }
            Verified::Corrupt(why) => {
                recmod_telemetry::count(Counter::CacheCorruptSkipped, 1);
                self.counters
                    .corrupt_skipped
                    .fetch_add(1, Ordering::Relaxed);
                self.warn(
                    "C002",
                    format!("corrupt entry {} skipped ({why})", path.display()),
                );
                Outcome::Corrupt
            }
        }
    }

    /// Stores a verdict under `key` (atomic: temp file + rename), then
    /// runs the size-capped GC if the tracked entry bytes passed the
    /// cap. Only ok/error verdicts may be stored.
    pub fn store(&self, key: u64, entry: &Entry) {
        debug_assert!(
            matches!(entry.status, FileStatus::Ok | FileStatus::Error),
            "only deterministic verdicts are cacheable"
        );
        let payload = payload_json(entry).to_compact();
        let doc = format!(
            "{{\"checksum\":{},\"payload\":{payload}}}",
            fnv1a(&[payload.as_bytes()])
        );
        let tmp = self.dir.join(format!(
            "tmp-{key:016x}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let len = doc.len() as u64;
        let result =
            std::fs::write(&tmp, doc).and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        match result {
            Ok(()) => {
                recmod_telemetry::count(Counter::CacheStore, 1);
                self.counters.stores.fetch_add(1, Ordering::Relaxed);
                let before = self.entry_bytes.fetch_add(len, Ordering::Relaxed);
                if before.saturating_add(len) > self.max_bytes {
                    self.gc();
                }
            }
            Err(e) => {
                recmod_telemetry::count(Counter::CacheIoError, 1);
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&tmp);
                self.warn("C001", format!("cannot write entry for {key:016x}: {e}"));
            }
        }
    }

    /// Rescans the directory and evicts oldest-mtime entries until its
    /// entry bytes fit in 3/4 of the cap (hysteresis: the stores after a
    /// GC run scan-free until the cap is passed again), then resets the
    /// tracked total to what is left. Failures are ignored: GC is
    /// best-effort hygiene.
    fn gc(&self) {
        let Some((mut entries, mut total)) = scan(&self.dir) else {
            return;
        };
        if total > self.max_bytes {
            entries.sort();
            let floor = self.max_bytes / 4 * 3;
            for (_, len, path) in entries {
                if total <= floor {
                    break;
                }
                if std::fs::remove_file(&path).is_ok() {
                    recmod_telemetry::count(Counter::CacheGcEvicted, 1);
                    self.counters.gc_evicted.fetch_add(1, Ordering::Relaxed);
                    total = total.saturating_sub(len);
                }
            }
        }
        self.entry_bytes.store(total, Ordering::Relaxed);
    }
}

/// A cache directory's entries as `(mtime, bytes, path)`.
type Listing = Vec<(SystemTime, u64, PathBuf)>;

/// Lists a cache directory's entries with their byte total; `None` if
/// the directory cannot be read.
fn scan(dir: &Path) -> Option<(Listing, u64)> {
    let read = std::fs::read_dir(dir).ok()?;
    let mut entries = Vec::new();
    let mut total = 0u64;
    for e in read.flatten() {
        let path = e.path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let Ok(meta) = e.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        total += meta.len();
        entries.push((mtime, meta.len(), path));
    }
    Some((entries, total))
}

fn payload_json(entry: &Entry) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        (
            "status",
            Json::str(match entry.status {
                FileStatus::Ok => "ok",
                _ => "error",
            }),
        ),
        (
            "summaries",
            Json::Arr(
                entry
                    .summaries
                    .iter()
                    .map(|(n, d)| Json::Arr(vec![Json::str(n.clone()), Json::str(d.clone())]))
                    .collect(),
            ),
        ),
        (
            "diags",
            Json::Arr(entry.diags.iter().map(Diagnostic::to_json).collect()),
        ),
        (
            "counters",
            Json::Obj(
                entry
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                    .collect(),
            ),
        ),
    ])
}

enum Verified {
    Entry(Box<Entry>),
    Skew,
    Corrupt(&'static str),
}

/// Parses and verifies one entry document. Checksum first: nothing in
/// the payload is trusted until the envelope hash over its canonical
/// (compact, key-ordered) rendering matches.
fn verify(text: &str) -> Verified {
    let Ok(doc) = json::parse(text) else {
        return Verified::Corrupt("unparseable");
    };
    let Some(checksum) = doc.get("checksum").and_then(Json::as_u64) else {
        return Verified::Corrupt("missing checksum");
    };
    let Some(payload) = doc.get("payload") else {
        return Verified::Corrupt("missing payload");
    };
    if fnv1a(&[payload.to_compact().as_bytes()]) != checksum {
        return Verified::Corrupt("checksum mismatch");
    }
    if payload.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
        return Verified::Skew;
    }
    let status = match payload.get("status").and_then(Json::as_str) {
        Some("ok") => FileStatus::Ok,
        Some("error") => FileStatus::Error,
        _ => return Verified::Corrupt("bad status"),
    };
    let mut summaries = Vec::new();
    match payload.get("summaries").and_then(Json::as_arr) {
        Some(pairs) => {
            for p in pairs {
                match p.as_arr() {
                    Some([n, d]) => match (n.as_str(), d.as_str()) {
                        (Some(n), Some(d)) => summaries.push((n.to_string(), d.to_string())),
                        _ => return Verified::Corrupt("bad summary pair"),
                    },
                    _ => return Verified::Corrupt("bad summary shape"),
                }
            }
        }
        None => return Verified::Corrupt("missing summaries"),
    }
    let mut diags = Vec::new();
    match payload.get("diags").and_then(Json::as_arr) {
        Some(ds) => {
            for d in ds {
                match Diagnostic::from_json(d) {
                    Some(d) => diags.push(d),
                    None => return Verified::Corrupt("bad diagnostic"),
                }
            }
        }
        None => return Verified::Corrupt("missing diags"),
    }
    let mut counters = BTreeMap::new();
    if let Some(Json::Obj(map)) = payload.get("counters") {
        for (k, v) in map {
            match v.as_u64() {
                Some(v) => {
                    counters.insert(k.clone(), v);
                }
                None => return Verified::Corrupt("bad counter"),
            }
        }
    }
    Verified::Entry(Box::new(Entry {
        status,
        summaries,
        diags,
        counters,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("recmod-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> Entry {
        Entry {
            status: FileStatus::Ok,
            summaries: vec![("x".into(), "int".into())],
            diags: Vec::new(),
            counters: BTreeMap::from([("kernel.fuel.whnf".to_string(), 7u64)]),
        }
    }

    #[test]
    fn round_trips_a_verdict() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("roundtrip"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "");
        assert!(matches!(cache.load(k), Outcome::Miss));
        cache.store(k, &sample_entry());
        let Outcome::Hit(entry) = cache.load(k) else {
            panic!("expected hit after store");
        };
        assert_eq!(entry.status, FileStatus::Ok);
        assert_eq!(entry.summaries, vec![("x".to_string(), "int".to_string())]);
        assert_eq!(entry.counters.get("kernel.fuel.whnf"), Some(&7));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_separates_every_input() {
        let limits = Limits::default();
        let base = key("src", &limits, "");
        assert_ne!(base, key("src2", &limits, ""));
        assert_ne!(base, key("src", &limits, "subst"));
        let mut bigger = limits;
        bigger.fuel += 1;
        assert_ne!(base, key("src", &bigger, ""));
    }

    #[test]
    fn flipped_byte_is_rejected_by_checksum() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("poison"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        // Flip the verdict from "ok" to "error"-shaped junk ("qk"): the
        // checksum over the payload must reject the edit.
        let poisoned = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"ok\"", "\"qk\"");
        std::fs::write(&path, poisoned).unwrap();
        assert!(matches!(cache.load(k), Outcome::Corrupt));
        let ws = cache.take_warnings();
        assert!(ws.iter().any(|w| w.code == "C002"), "C002 logged: {ws:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_a_silent_miss_not_a_crash() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("trunc"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.load(k), Outcome::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_skew_is_a_silent_miss() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("skew"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        // Rewrite the payload under a bogus schema version *with a
        // valid checksum*: skew detection must not depend on the entry
        // being corrupt.
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = json::parse(&text)
            .unwrap()
            .get("payload")
            .cloned()
            .map(|p| {
                let Json::Obj(mut m) = p else { unreachable!() };
                m.insert("schema_version".into(), Json::UInt(9999));
                Json::Obj(m).to_compact()
            })
            .unwrap();
        std::fs::write(
            &path,
            format!(
                "{{\"checksum\":{},\"payload\":{payload}}}",
                fnv1a(&[payload.as_bytes()])
            ),
        )
        .unwrap();
        assert!(matches!(cache.load(k), Outcome::Skew));
        assert!(cache.take_warnings().is_empty(), "skew is silent");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_down_to_the_floor() {
        let dir = tmp_dir("gc");
        let cache = Cache::open(&CacheConfig {
            dir: dir.clone(),
            max_bytes: 2048,
        })
        .unwrap();
        for i in 0..64u64 {
            cache.store(
                key(&format!("src{i}"), &Limits::default(), ""),
                &sample_entry(),
            );
        }
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        assert!(total <= 2048, "GC keeps the dir under the cap: {total}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_below_the_cap_do_not_rescan() {
        let dir = tmp_dir("norescan");
        // A foreign entry written behind the cache's back: twice the cap
        // and older than anything else, so any directory scan finds the
        // cap exceeded and evicts it first.
        let foreign = dir.join(format!("{:016x}.json", 0));
        let plant = || {
            std::fs::write(&foreign, vec![b' '; 128 * 1024]).unwrap();
            std::fs::File::options()
                .write(true)
                .open(&foreign)
                .unwrap()
                .set_modified(SystemTime::UNIX_EPOCH)
                .unwrap();
        };
        let store = |cache: &Cache, i: u64| {
            cache.store(
                key(&format!("src{i}"), &Limits::default(), ""),
                &sample_entry(),
            );
        };
        std::fs::create_dir_all(&dir).unwrap();
        plant();
        let cache = Cache::open(&CacheConfig {
            dir: dir.clone(),
            max_bytes: 64 * 1024,
        })
        .unwrap();
        assert!(foreign.exists(), "opening the cache scanned the directory");
        // The first store scans: the entries already there count.
        store(&cache, 0);
        assert!(!foreign.exists(), "the first store did not scan");
        assert_eq!(cache.stats().gc_evicted, 1);
        // Later stores below the tracked cap do not.
        plant();
        for i in 1..32u64 {
            store(&cache, i);
        }
        assert_eq!(cache.stats().stores, 32);
        assert!(
            foreign.exists(),
            "a store below the tracked cap scanned the directory"
        );
        assert_eq!(cache.stats().gc_evicted, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
