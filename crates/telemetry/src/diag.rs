//! Always-on diagnostic forensics: the judgement frame stack, failure
//! provenance capture, and the flight-recorder ring buffer.
//!
//! Unlike the profiling sink (which is opt-in and timestamps
//! everything), this module is live on every thread all the time. It
//! must therefore be cheap enough to sit on the kernel's judgement
//! entry points: every operation here is a thread-local push/pop or a
//! fixed-slot ring write — no clocks, no allocation on the happy path
//! beyond the amortized frame-stack push, and no counters (so the S14
//! cost model is untouched).
//!
//! Three cooperating pieces:
//!
//! * **Frame stack** — [`enter`] pushes the name of the judgement being
//!   attempted; the returned guard pops it. `judgement_span` in the
//!   crate root calls this unconditionally, so the stack mirrors the
//!   active derivation at any instant. Bounded by [`FRAME_CAP`]: deeper
//!   frames are counted but not stored.
//! * **Pending failure** — [`record_failure`] snapshots the live frame
//!   stack at the instant a structured error is *constructed* (before
//!   `?` propagation unwinds the guards). [`note_step`] appends
//!   equation-path steps as a constructor-equivalence failure bubbles
//!   out. [`take_failure`] hands the snapshot to whoever converts the
//!   error into a user-facing diagnostic.
//! * **Flight recorder** — a fixed-size ring of recent judgement
//!   enter/exit, limit, and failure events with monotonic sequence
//!   numbers. On a limit/internal exit the tail is dumped into a crash
//!   bundle for post-mortem analysis.

use std::cell::RefCell;

/// Frames beyond this depth are counted but not recorded; the snapshot
/// a diagnostic carries is the *outermost* `FRAME_CAP` frames, which is
/// where the human-meaningful context lives.
pub const FRAME_CAP: usize = 64;

/// Equation-path steps beyond this are dropped (deep spines would
/// otherwise make a single diagnostic unbounded).
pub const EQUATION_CAP: usize = 32;

/// Capacity of the flight-recorder ring, per thread.
pub const RECORDER_CAP: usize = 256;

/// What a flight-recorder event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A judgement frame was entered.
    Enter,
    /// A judgement frame was exited.
    Exit,
    /// A resource limit fired (`name` is the stage, detail the kind).
    Limit,
    /// A structured error was constructed (`name` is the innermost
    /// frame at that instant, or `"<top>"` outside any frame).
    Failure,
}

impl EventKind {
    /// Stable lowercase label for JSON emission.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Limit => "limit",
            EventKind::Failure => "failure",
        }
    }
}

/// One flight-recorder entry. Sequence numbers are per-thread and
/// monotonic, so gaps in a dumped tail reveal how much history the ring
/// has already overwritten.
#[derive(Debug, Clone, Copy)]
pub struct RecorderEvent {
    /// Monotonic per-thread sequence number (0-based).
    pub seq: u64,
    /// Event class.
    pub kind: EventKind,
    /// Judgement or stage name.
    pub name: &'static str,
    /// Frame depth when the event fired (after a push / before a pop).
    pub depth: u32,
}

/// The provenance snapshot taken when a structured error was built.
#[derive(Debug, Clone, Default)]
pub struct Failure {
    /// Active judgement frames, outermost first.
    pub frames: Vec<&'static str>,
    /// For constructor-equivalence failures: the path from the failing
    /// equation outward (innermost step first), e.g.
    /// `["domain", "unroll", "snd"]`.
    pub equation: Vec<&'static str>,
}

/// The slot value before any event lands in it (never exposed: the
/// readers only hand out the `min(seq, RECORDER_CAP)` written slots).
const EMPTY_EVENT: RecorderEvent = RecorderEvent {
    seq: 0,
    kind: EventKind::Enter,
    name: "",
    depth: 0,
};

struct DiagState {
    frames: Vec<&'static str>,
    /// True depth including frames beyond [`FRAME_CAP`].
    depth: usize,
    pending: Option<Failure>,
    /// Fixed-slot ring (a plain array store per event — this sits on
    /// every judgement entry/exit, so no `Vec` length bookkeeping).
    ring: [RecorderEvent; RECORDER_CAP],
    /// Next sequence number; `ring[seq % RECORDER_CAP]` is the slot.
    seq: u64,
}

impl DiagState {
    const fn new() -> Self {
        DiagState {
            frames: Vec::new(),
            depth: 0,
            pending: None,
            ring: [EMPTY_EVENT; RECORDER_CAP],
            seq: 0,
        }
    }

    #[inline]
    fn record(&mut self, kind: EventKind, name: &'static str) {
        let depth = self.depth.min(u32::MAX as usize) as u32;
        // RECORDER_CAP is a power of two, so the modulo is a mask.
        let slot = (self.seq % RECORDER_CAP as u64) as usize;
        self.ring[slot] = RecorderEvent {
            seq: self.seq,
            kind,
            name,
            depth,
        };
        self.seq += 1;
    }
}

thread_local! {
    static DIAG: RefCell<DiagState> = const { RefCell::new(DiagState::new()) };
}

#[inline]
fn with_state<R>(f: impl FnOnce(&mut DiagState) -> R) -> Option<R> {
    DIAG.with(|d| d.try_borrow_mut().ok().map(|mut s| f(&mut s)))
}

/// Guard for one judgement frame; pops it (and records the exit) when
/// dropped. Obtained from [`enter`].
#[derive(Debug)]
#[must_use = "the frame stays on the provenance stack until the guard drops"]
pub struct FrameGuard {
    name: &'static str,
}

/// Pushes a judgement frame and logs an `Enter` event. Always on —
/// this is what makes failure provenance available without `--profile`.
#[inline]
pub fn enter(name: &'static str) -> FrameGuard {
    with_state(|s| {
        s.depth += 1;
        if s.depth <= FRAME_CAP {
            s.frames.push(name);
        }
        s.record(EventKind::Enter, name);
    });
    FrameGuard { name }
}

impl Drop for FrameGuard {
    #[inline]
    fn drop(&mut self) {
        with_state(|s| {
            s.record(EventKind::Exit, self.name);
            if s.depth <= FRAME_CAP {
                s.frames.pop();
            }
            s.depth = s.depth.saturating_sub(1);
        });
    }
}

/// The true frame depth right now (including unstored deep frames).
pub fn frame_depth() -> usize {
    with_state(|s| s.depth).unwrap_or(0)
}

/// A snapshot of the active frames, outermost first.
pub fn current_frames() -> Vec<&'static str> {
    with_state(|s| s.frames.clone()).unwrap_or_default()
}

/// Snapshots the live frame stack as the pending failure. Call at the
/// instant a structured error is constructed — by the time the error
/// has propagated out, the guards have already popped. A later call
/// overwrites an earlier one (errors wrapped on the way out are
/// shallower and closer to what the user sees), and logs a `Failure`
/// recorder event.
pub fn record_failure() {
    with_state(|s| {
        let innermost = s.frames.last().copied().unwrap_or("<top>");
        s.record(EventKind::Failure, innermost);
        s.pending = Some(Failure {
            frames: s.frames.clone(),
            equation: Vec::new(),
        });
    });
}

/// Appends an equation-path step to the pending failure (no-op if none
/// is pending). Steps accumulate innermost-first as a constructor
/// mismatch propagates out of `con_equiv`.
pub fn note_step(step: &'static str) {
    with_state(|s| {
        if let Some(p) = s.pending.as_mut() {
            if p.equation.len() < EQUATION_CAP {
                p.equation.push(step);
            }
        }
    });
}

/// Takes (and clears) the pending failure snapshot.
pub fn take_failure() -> Option<Failure> {
    with_state(|s| s.pending.take()).flatten()
}

/// Drops any stale pending failure. Called at the start of a compile so
/// a snapshot swallowed by one run can never leak into the next.
pub fn clear_failure() {
    with_state(|s| s.pending = None);
}

/// Logs a limit event (stage + limit-kind label) in the flight
/// recorder. Called from the `Limits` error constructors, i.e. exactly
/// when a bound actually fires.
pub fn note_limit(stage: &'static str, kind: &'static str) {
    with_state(|s| {
        s.record(EventKind::Limit, stage);
        s.record(EventKind::Limit, kind);
    });
}

/// The flight-recorder tail for this thread, oldest event first.
pub fn recorder_events() -> Vec<RecorderEvent> {
    with_state(|s| {
        let written = s.seq.min(RECORDER_CAP as u64) as usize;
        let mut out = Vec::with_capacity(written);
        if s.seq <= RECORDER_CAP as u64 {
            out.extend_from_slice(&s.ring[..written]);
        } else {
            let start = (s.seq % RECORDER_CAP as u64) as usize;
            out.extend_from_slice(&s.ring[start..]);
            out.extend_from_slice(&s.ring[..start]);
        }
        out
    })
    .unwrap_or_default()
}

/// Total events ever recorded on this thread (events with sequence
/// numbers below `recorded() - RECORDER_CAP` have been overwritten).
pub fn recorder_seq() -> u64 {
    with_state(|s| s.seq).unwrap_or(0)
}

/// Clears the recorder and any pending failure (frame stack is left
/// alone — guards own it). Used by batch workers between files so a
/// crash bundle only describes the file that crashed.
pub fn reset_recorder() {
    with_state(|s| {
        s.seq = 0;
        s.pending = None;
    });
}

/// Everything a crash bundle needs from this thread's recorder, plus
/// the sink's counters if one is installed. Capture *on the thread
/// that failed* (the recorder is thread-local).
#[derive(Debug, Clone, Default)]
pub struct CrashData {
    /// Flight-recorder tail, oldest first.
    pub events: Vec<RecorderEvent>,
    /// Total events ever recorded (for gap detection).
    pub recorded: u64,
    /// What the counters moved since the telemetry sink was installed,
    /// if one is.
    pub counters: Option<std::collections::BTreeMap<crate::Counter, u64>>,
}

/// Captures [`CrashData`] for the current thread.
pub fn crash_data() -> CrashData {
    CrashData {
        events: recorder_events(),
        recorded: recorder_seq(),
        counters: crate::snapshot_counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_nest_and_unwind() {
        assert_eq!(frame_depth(), 0);
        {
            let _a = enter("a");
            let _b = enter("b");
            assert_eq!(current_frames(), vec!["a", "b"]);
            assert_eq!(frame_depth(), 2);
        }
        assert_eq!(frame_depth(), 0);
        assert!(current_frames().is_empty());
    }

    #[test]
    fn failure_snapshot_survives_unwinding() {
        clear_failure();
        {
            let _a = enter("outer");
            {
                let _b = enter("inner");
                record_failure();
            }
            note_step("domain");
        }
        let f = take_failure().expect("pending failure");
        assert_eq!(f.frames, vec!["outer", "inner"]);
        assert_eq!(f.equation, vec!["domain"]);
        assert!(take_failure().is_none(), "take clears the slot");
    }

    #[test]
    fn later_failures_overwrite_earlier_ones() {
        clear_failure();
        {
            let _a = enter("deep");
            record_failure();
        }
        record_failure(); // wrapped at the top: shallower wins
        let f = take_failure().expect("pending failure");
        assert!(f.frames.is_empty());
    }

    #[test]
    fn deep_stacks_are_bounded() {
        let guards: Vec<FrameGuard> = (0..FRAME_CAP + 10).map(|_| enter("deep")).collect();
        assert_eq!(frame_depth(), FRAME_CAP + 10);
        assert_eq!(current_frames().len(), FRAME_CAP);
        drop(guards);
        assert_eq!(frame_depth(), 0);
        assert!(current_frames().is_empty());
    }

    #[test]
    fn recorder_wraps_and_keeps_order() {
        reset_recorder();
        for _ in 0..RECORDER_CAP {
            let _g = enter("spin"); // two events per iteration
        }
        let evs = recorder_events();
        assert_eq!(evs.len(), RECORDER_CAP);
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "tail is ordered");
        }
        assert_eq!(recorder_seq(), 2 * RECORDER_CAP as u64);
        reset_recorder();
        assert!(recorder_events().is_empty());
    }

    #[test]
    fn limit_events_are_recorded() {
        reset_recorder();
        note_limit("kernel", "deadline");
        let evs = recorder_events();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::Limit && e.name == "kernel"));
    }
}
