//! Crash-bundle construction and writing, shared by the CLI, the batch
//! driver, and the compile service.
//!
//! A bundle is one schema-versioned JSON file capturing the forensics
//! for a limit/internal outcome: the flight-recorder tail, a counter
//! snapshot, the limits in force, and an input hash. The filename is
//! `recmod-crash-<input fnv1a>-<pid>-<seq>.json`: the hash groups
//! bundles for the same input, while the pid + process-monotonic
//! sequence number guarantee two failures on the *same* input (e.g.
//! two concurrent serve requests) never overwrite each other.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::diag::CrashData;
use crate::json::Json;
use crate::Limits;

/// FNV-1a over a sequence of byte strings, with a separator fold so
/// `("ab", "c")` and `("a", "bc")` hash differently.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in *part {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Process-wide bundle sequence number: the filename discriminator
/// that keeps concurrent bundles for one input from colliding.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Builds the crash-bundle JSON document. `name` is the failing file or
/// request label, `status`/`exit` the outcome classification.
pub fn bundle_json(
    name: &str,
    src: &str,
    status: &str,
    exit: u8,
    limits: &Limits,
    crash: &CrashData,
) -> Json {
    let events: Vec<Json> = crash
        .events
        .iter()
        .map(|e| {
            Json::obj([
                ("seq", Json::UInt(e.seq)),
                ("kind", Json::str(e.kind.label())),
                ("name", Json::str(e.name)),
                ("depth", Json::UInt(u64::from(e.depth))),
            ])
        })
        .collect();
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("schema_version", Json::UInt(crate::SCHEMA_VERSION)),
        ("kind", Json::str("crash")),
        ("file", Json::str(name)),
        ("status", Json::str(status)),
        ("exit", Json::UInt(u64::from(exit))),
        (
            "input_fnv1a",
            Json::Str(format!("{:016x}", fnv1a(&[src.as_bytes()]))),
        ),
        (
            "limits",
            Json::obj([
                ("depth", Json::UInt(limits.max_depth as u64)),
                ("nodes", Json::UInt(limits.max_nodes)),
                ("fuel", Json::UInt(limits.fuel)),
                ("eval_fuel", Json::UInt(limits.eval_fuel)),
                ("eval_depth", Json::UInt(limits.eval_depth)),
                ("deadline_ms", Json::UInt(limits.deadline_ms)),
            ]),
        ),
        ("recorded", Json::UInt(crash.recorded)),
        ("recorder", Json::Arr(events)),
    ];
    if let Some(counters) = &crash.counters {
        pairs.push((
            "counters",
            Json::Obj(
                counters
                    .iter()
                    .map(|(c, v)| (c.name().to_string(), Json::UInt(*v)))
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// Writes a crash bundle under `dir` and returns its path. The
/// filename embeds the `(name, src)` hash plus a pid + process-global
/// sequence discriminator, so repeated failures on the same input
/// coexist instead of overwriting each other.
///
/// # Errors
///
/// Returns a human-readable message when the file cannot be written.
/// Callers must never let that change the original exit classification
/// — forensics must not mask the error being reported.
pub fn write_bundle(
    dir: &Path,
    name: &str,
    src: &str,
    status: &str,
    exit: u8,
    limits: &Limits,
    crash: &CrashData,
) -> Result<PathBuf, String> {
    let hash = fnv1a(&[name.as_bytes(), src.as_bytes()]);
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "recmod-crash-{hash:016x}-{pid}-{seq}.json",
        pid = std::process::id()
    ));
    let doc = bundle_json(name, src, status, exit, limits, crash);
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write crash bundle {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_separator_distinguishes_part_boundaries() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
        assert_eq!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"ab", b"c"]));
    }

    #[test]
    fn two_bundles_for_the_same_input_coexist() {
        let dir = std::env::temp_dir().join(format!(
            "recmod-bundle-test-{}-{:p}",
            std::process::id(),
            &BUNDLE_SEQ
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let crash = CrashData::default();
        let limits = Limits::default();
        let a = write_bundle(&dir, "f.rm", "val x = 1", "internal", 4, &limits, &crash).unwrap();
        let b = write_bundle(&dir, "f.rm", "val x = 1", "internal", 4, &limits, &crash).unwrap();
        assert_ne!(a, b, "same input must yield distinct bundle paths");
        assert!(a.exists() && b.exists(), "both bundles must coexist");
        for p in [&a, &b] {
            let text = std::fs::read_to_string(p).unwrap();
            let doc = crate::json::parse(&text).expect("bundle is valid JSON");
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("crash"));
            assert_eq!(
                doc.get("schema_version").and_then(Json::as_u64),
                Some(crate::SCHEMA_VERSION)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
