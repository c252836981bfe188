//! Deterministic fault injection for the compile service.
//!
//! A long-lived `recmodc serve` process must survive panicking workers,
//! wedged requests, and resource storms — but "must survive" is only
//! worth anything if it is *tested*. This module provides the seeded
//! chaos layer: a [`FaultPlan`] decides, purely as a function of
//! `(seed, request sequence number)`, whether a given request is
//! perturbed and how, and the armed perturbation fires at a
//! [`judgement_span`](crate::judgement_span) boundary inside the worker
//! that compiles it.
//!
//! Determinism is the whole point. Because the plan depends only on the
//! seed and the admission sequence number, a chaos run is replayable,
//! and — critically — requests the plan does *not* select are never
//! perturbed at all: the disabled fast path is a single thread-local
//! `Cell` read with no counters, clocks, or allocations, so the S14
//! golden cost gate stays bit-identical with this module compiled in.
//!
//! Four fault kinds model the failure classes a service meets in the
//! wild:
//!
//! - [`FaultKind::Panic`] — a stray panic inside the kernel; must be
//!   caught at the request boundary and retried (it is transient).
//! - [`FaultKind::Alloc`] — an allocation-budget trip (simulated OOM):
//!   also an abrupt unwind, with a distinct marker so supervision
//!   stats can tell the classes apart.
//! - [`FaultKind::Deadline`] — a deadline storm: every subsequent
//!   [`Limits::deadline_passed`](crate::Limits::deadline_passed) check
//!   on the worker thread reports the deadline as blown, so the kernel
//!   unwinds *structurally* through the existing `L004` limit path.
//! - [`FaultKind::Kill`] — a worker death: the request boundary is
//!   expected to recognize the marker and re-raise past its
//!   `catch_unwind`, so the worker thread genuinely dies and the
//!   supervisor's respawn path is exercised.
//!
//! All state is thread-local; arming a fault on a worker thread cannot
//! perturb any other thread.

use std::cell::Cell;

/// Which failure class an injection simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Injected panic (transient internal fault).
    Panic,
    /// Injected allocation-budget trip (simulated OOM, abrupt unwind).
    Alloc,
    /// Injected deadline storm (structural `L004` unwind).
    Deadline,
    /// Injected worker death (unwind past the request boundary).
    Kill,
}

impl FaultKind {
    /// Stable one-word label for logs and stats.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Alloc => "alloc",
            FaultKind::Deadline => "deadline",
            FaultKind::Kill => "kill",
        }
    }
}

/// Panic payload for [`FaultKind::Panic`].
pub const PANIC_MARKER: &str = "recmod-fault: injected panic";
/// Panic payload for [`FaultKind::Alloc`].
pub const ALLOC_MARKER: &str = "recmod-fault: allocation budget trip";
/// Panic payload for [`FaultKind::Kill`].
pub const KILL_MARKER: &str = "recmod-fault: worker kill";

/// One planned perturbation: fire `kind` at the `after`-th judgement
/// boundary reached while armed (1-based; `after = 1` fires at the
/// first boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The failure class to simulate.
    pub kind: FaultKind,
    /// Judgement-boundary count to survive before firing.
    pub after: u64,
}

/// A seeded chaos plan: decides per request sequence number whether to
/// inject a fault, which kind, and how deep into the derivation it
/// fires. Pure function of `(seed, seq)` — replayable, and requests it
/// skips are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed.
    pub seed: u64,
    /// Injection probability in parts per million (0..=1_000_000).
    pub rate_ppm: u32,
    /// Restrict injections to one kind (for deterministic smokes);
    /// `None` picks a kind pseudo-randomly per faulted request.
    pub only: Option<FaultKind>,
}

/// Maximum `after` value chosen by [`FaultPlan::decide`]: faults fire
/// within the first 64 judgement boundaries, early enough that small
/// corpus programs still reach them.
const MAX_TRIGGER: u64 = 64;

impl FaultPlan {
    /// A plan injecting every request (`rate = 1.0`) with `seed`.
    pub fn always(seed: u64, only: Option<FaultKind>) -> Self {
        FaultPlan {
            seed,
            rate_ppm: 1_000_000,
            only,
        }
    }

    /// Parses a `--faults=SEED,RATE[,KIND]` specification. `SEED` is a
    /// u64, `RATE` a probability in `[0, 1]` (e.g. `0.05`), and the
    /// optional `KIND` one of `panic`, `alloc`, `deadline`, `kill`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(',');
        let seed_s = parts.next().unwrap_or("");
        let rate_s = parts
            .next()
            .ok_or_else(|| format!("bad --faults `{spec}` (expected SEED,RATE[,KIND])"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| format!("bad fault seed `{seed_s}` (expected u64)"))?;
        let rate: f64 = rate_s
            .trim()
            .parse()
            .map_err(|_| format!("bad fault rate `{rate_s}` (expected 0..=1)"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "fault rate `{rate_s}` out of range (expected 0..=1)"
            ));
        }
        let only = match parts.next() {
            None => None,
            Some(k) => Some(match k.trim() {
                "panic" => FaultKind::Panic,
                "alloc" => FaultKind::Alloc,
                "deadline" => FaultKind::Deadline,
                "kill" => FaultKind::Kill,
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (known: panic, alloc, deadline, kill)"
                    ))
                }
            }),
        };
        if parts.next().is_some() {
            return Err(format!("bad --faults `{spec}` (expected SEED,RATE[,KIND])"));
        }
        Ok(FaultPlan {
            seed,
            rate_ppm: (rate * 1_000_000.0).round() as u32,
            only,
        })
    }

    /// Decides the fate of request `seq`: `None` means the request runs
    /// completely unperturbed (it never even touches a PRNG on the
    /// worker); `Some(injection)` means the worker should
    /// [`arm`] the injection before compiling.
    pub fn decide(&self, seq: u64) -> Option<Injection> {
        // SplitMix64 over (seed, seq): same generator as the fuzz
        // harness, re-derived here because telemetry is the workspace's
        // dependency leaf and cannot use the bench crate.
        let mut state = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let mut next = move || -> u64 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        if next() % 1_000_000 >= u64::from(self.rate_ppm) {
            return None;
        }
        let kind = self.only.unwrap_or(match next() % 4 {
            0 => FaultKind::Panic,
            1 => FaultKind::Alloc,
            2 => FaultKind::Deadline,
            _ => FaultKind::Kill,
        });
        Some(Injection {
            kind,
            after: 1 + next() % MAX_TRIGGER,
        })
    }
}

thread_local! {
    /// Fast-path flag: is a fault armed on this thread? This is the
    /// *only* state [`tick`] reads when no fault is armed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The armed injection's kind.
    static KIND: Cell<FaultKind> = const { Cell::new(FaultKind::Panic) };
    /// Judgement boundaries left before the armed injection fires.
    static REMAINING: Cell<u64> = const { Cell::new(0) };
    /// Which kind fired on this thread since the last [`disarm`].
    static FIRED: Cell<Option<FaultKind>> = const { Cell::new(None) };
    /// Deadline-storm flag consulted by `Limits::deadline_passed`.
    static STORM: Cell<bool> = const { Cell::new(false) };
}

/// Arms `injection` on the current thread: the next
/// [`tick`] calls count down and fire it. Replaces any
/// previously armed injection and clears the fired note.
pub fn arm(injection: Injection) {
    KIND.with(|k| k.set(injection.kind));
    REMAINING.with(|r| r.set(injection.after.max(1)));
    FIRED.with(|f| f.set(None));
    STORM.with(|s| s.set(false));
    ARMED.with(|a| a.set(true));
}

/// Disarms any pending injection and clears the deadline storm;
/// returns the kind that fired since [`arm`], if any. Call this at the
/// end of every request boundary (including after a caught unwind) so
/// no fault state leaks into the next request on the same worker.
pub fn disarm() -> Option<FaultKind> {
    ARMED.with(|a| a.set(false));
    REMAINING.with(|r| r.set(0));
    STORM.with(|s| s.set(false));
    FIRED.with(|f| f.take())
}

/// Is an injection armed on this thread and not yet fired?
pub fn armed() -> bool {
    ARMED.with(|a| a.get())
}

/// The kind that fired on this thread since [`arm`], if any, without
/// clearing the note (that is [`disarm`]'s job).
pub fn fired() -> Option<FaultKind> {
    FIRED.with(|f| f.get())
}

/// Is a deadline storm active on this thread?
/// `Limits::deadline_passed` consults this so an injected storm
/// unwinds through the same structural `L004` path a real blown
/// deadline would.
#[inline]
pub fn storm_active() -> bool {
    STORM.with(|s| s.get())
}

/// Judgement-boundary hook, called from
/// [`judgement_span`](crate::judgement_span). When a fault is armed,
/// counts down and fires it; otherwise a single `Cell` read.
///
/// # Panics
///
/// Fires the armed injection: [`FaultKind::Panic`],
/// [`FaultKind::Alloc`], and [`FaultKind::Kill`] panic with their
/// marker payloads (the service's request boundary catches and
/// classifies them); [`FaultKind::Deadline`] sets the storm flag and
/// returns normally.
#[inline]
pub fn tick() {
    if !ARMED.with(|a| a.get()) {
        return;
    }
    fire_if_due();
}

/// Slow path of [`tick`], out of line so the armed check inlines.
// Deliberate panics: injected faults *are* panics with recognizable
// markers; the service's request boundary catches and classifies them.
#[allow(clippy::panic)]
#[cold]
fn fire_if_due() {
    let due = REMAINING.with(|r| {
        let left = r.get().saturating_sub(1);
        r.set(left);
        left == 0
    });
    if !due {
        return;
    }
    ARMED.with(|a| a.set(false));
    let kind = KIND.with(|k| k.get());
    FIRED.with(|f| f.set(Some(kind)));
    match kind {
        FaultKind::Panic => std::panic::panic_any(PANIC_MARKER),
        FaultKind::Alloc => std::panic::panic_any(ALLOC_MARKER),
        FaultKind::Kill => std::panic::panic_any(KILL_MARKER),
        FaultKind::Deadline => STORM.with(|s| s.set(true)),
    }
}

/// Classifies a caught panic payload: `Some(kind)` when it is one of
/// this module's injected markers, `None` for a genuine panic.
pub fn injected_kind(payload: &(dyn std::any::Any + Send)) -> Option<FaultKind> {
    let msg = payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))?;
    match msg {
        PANIC_MARKER => Some(FaultKind::Panic),
        ALLOC_MARKER => Some(FaultKind::Alloc),
        KILL_MARKER => Some(FaultKind::Kill),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate_and_kind() {
        let p = FaultPlan::parse("42,0.25").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rate_ppm, 250_000);
        assert_eq!(p.only, None);
        let p = FaultPlan::parse("1,1.0,kill").unwrap();
        assert_eq!(p.only, Some(FaultKind::Kill));
        assert!(FaultPlan::parse("1").is_err());
        assert!(FaultPlan::parse("x,0.5").is_err());
        assert!(FaultPlan::parse("1,2.0").is_err());
        assert!(FaultPlan::parse("1,0.5,bogus").is_err());
        assert!(FaultPlan::parse("1,0.5,kill,extra").is_err());
    }

    #[test]
    fn decide_is_deterministic_and_respects_rate() {
        let p = FaultPlan::parse("7,0.5").unwrap();
        let a: Vec<_> = (0..256).map(|s| p.decide(s)).collect();
        let b: Vec<_> = (0..256).map(|s| p.decide(s)).collect();
        assert_eq!(a, b, "decide must be a pure function of (seed, seq)");
        let hits = a.iter().filter(|d| d.is_some()).count();
        assert!(
            (64..=192).contains(&hits),
            "rate 0.5 over 256 draws hit {hits} times"
        );
        let none = FaultPlan::parse("7,0").unwrap();
        assert!((0..256).all(|s| none.decide(s).is_none()));
        let all = FaultPlan::always(7, None);
        assert!((0..256).all(|s| all.decide(s).is_some()));
    }

    #[test]
    fn only_restricts_the_kind() {
        let p = FaultPlan::always(3, Some(FaultKind::Deadline));
        for seq in 0..64 {
            let inj = p.decide(seq).unwrap();
            assert_eq!(inj.kind, FaultKind::Deadline);
            assert!((1..=MAX_TRIGGER).contains(&inj.after));
        }
    }

    #[test]
    fn armed_panic_fires_after_n_ticks_and_disarm_reports_it() {
        arm(Injection {
            kind: FaultKind::Panic,
            after: 3,
        });
        tick();
        tick();
        let caught = std::panic::catch_unwind(tick);
        let payload = caught.expect_err("third tick fires");
        assert_eq!(injected_kind(payload.as_ref()), Some(FaultKind::Panic));
        assert_eq!(disarm(), Some(FaultKind::Panic));
        // Fully disarmed: further ticks are inert.
        tick();
        assert_eq!(disarm(), None);
    }

    #[test]
    fn deadline_storm_sets_flag_and_limits_sees_it() {
        arm(Injection {
            kind: FaultKind::Deadline,
            after: 1,
        });
        assert!(!storm_active());
        tick();
        assert!(storm_active());
        // No deadline configured, but the storm makes it "pass".
        assert!(crate::Limits::default().deadline_passed());
        assert_eq!(disarm(), Some(FaultKind::Deadline));
        assert!(!storm_active());
        assert!(!crate::Limits::default().deadline_passed());
    }

    #[test]
    fn genuine_panics_are_not_classified_as_injected() {
        let caught = std::panic::catch_unwind(|| panic!("some real bug"));
        let payload = caught.expect_err("panics");
        assert_eq!(injected_kind(payload.as_ref()), None);
    }
}
