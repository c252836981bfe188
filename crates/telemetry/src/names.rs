//! The counter registry: every counter the pipeline records, as data.
//!
//! [`Counter`] is the one counter store's index. Each variant names one
//! slot of the calling thread's counter array (see [`count`](crate::count)
//! and [`Counts`](crate::Counts)), and this module records, per counter,
//! its dotted name and whether it is a high-water mark. Nothing else
//! keeps a list of counters: the kernel's `KernelStats`, the
//! interner's `InternStats`, a sink's [`Report`](crate::Report) and the
//! driver's per-file deltas are all views over the same array.
//!
//! Names are dotted paths whose first segment is the owning layer (see
//! the crate docs for the table). Two suffixes carry meaning:
//!
//! * `.hwm` — a high-water mark ([`Counter::is_mark`]): raised with
//!   [`count_max`](crate::count_max), merged with `max`, and never
//!   subtracted by a view;
//! * `.nanos` — wall-clock derived ([`is_time_based`]); excluded from
//!   the deterministic cost model (`bench_json --costs`), which only
//!   gates on counters that are reproducible on a noisy container.
//!
//! Two blocks are laid out for arithmetic: the `kernel.fuel.*` counters
//! follow the kernel's `FuelOp` order, and the `stage.*` counters come
//! in `.nanos`/`.calls` pairs in [`Stage`] order.

/// Declares [`Counter`] from one row per counter: variant, dotted name,
/// and an optional `mark` flag.
macro_rules! registry {
    ($($var:ident = $name:literal $($mark:ident)?;)*) => {
        /// One registered counter: an index into the calling thread's
        /// counter array. Ordered by name, so maps keyed by counters
        /// list them alphabetically.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $(#[doc = concat!("`", $name, "`")] $var,)*
        }

        impl Counter {
            /// Every counter, in index order.
            pub const ALL: &'static [Counter] = &[$(Counter::$var,)*];

            /// The counter's dotted name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$var => $name,)*
                }
            }

            /// Is this a high-water mark (raised with `count_max`, merged
            /// with `max`) rather than a sum?
            pub const fn is_mark(self) -> bool {
                match self {
                    $(Counter::$var => registry!(@mark $($mark)?),)*
                }
            }
        }
    };
    (@mark) => { false };
    (@mark mark) => { true };
}

registry! {
    KernelFuelConEquiv = "kernel.fuel.con_equiv";
    KernelFuelMonoEquiv = "kernel.fuel.mono_equiv";
    KernelFuelPathEquiv = "kernel.fuel.path_equiv";
    KernelFuelWhnf = "kernel.fuel.whnf";
    KernelFuelConKinding = "kernel.fuel.con_kinding";
    KernelFuelTermTyping = "kernel.fuel.term_typing";
    KernelFuelTermEq = "kernel.fuel.term_eq";
    KernelFuelTermNorm = "kernel.fuel.term_norm";
    KernelFuelTypeExpose = "kernel.fuel.type_expose";
    KernelFuelTypeEquiv = "kernel.fuel.type_equiv";
    KernelFuelSubtype = "kernel.fuel.subtype";
    KernelFuelModuleTyping = "kernel.fuel.module_typing";
    KernelMuUnrolls = "kernel.mu_unrolls";
    KernelWhnfSteps = "kernel.whnf_steps";
    KernelAssumptionInserts = "kernel.assumption_inserts";
    KernelAssumptionHwm = "kernel.assumption.hwm" mark;
    KernelSingletonShortcuts = "kernel.singleton_shortcuts";
    KernelWhnfCacheHit = "kernel.whnf_cache_hit";
    KernelWhnfCacheMiss = "kernel.whnf_cache_miss";
    KernelEquivPtrEq = "kernel.equiv_ptr_eq";
    KernelEquivCacheHit = "kernel.equiv_cache_hit";
    SyntaxInternHit = "syntax.intern_hit";
    SyntaxInternMiss = "syntax.intern_miss";
    SyntaxInternSweeps = "syntax.intern_sweeps";
    InternShardContended = "intern.shard.contended";
    SurfaceTopdecs = "surface.topdecs";
    PhaseSplitCalls = "phase.split_calls";
    PhaseVerifyCalls = "phase.verify_calls";
    PhaseNodesIn = "phase.nodes_in";
    PhaseNodesOutStatic = "phase.nodes_out_static";
    PhaseNodesOutDynamic = "phase.nodes_out_dynamic";
    DriverFiles = "driver.files";
    DriverSteals = "driver.steals";
    InternalPanics = "internal.panics";
    CacheHit = "cache.hit";
    CacheMiss = "cache.miss";
    CacheStore = "cache.store";
    CacheCorruptSkipped = "cache.corrupt_skipped";
    CacheIoError = "cache.io_error";
    CacheGcEvicted = "cache.gc_evicted";
    StageLexNanos = "stage.lex.nanos";
    StageLexCalls = "stage.lex.calls";
    StageParseNanos = "stage.parse.nanos";
    StageParseCalls = "stage.parse.calls";
    StageElabNanos = "stage.elab.nanos";
    StageElabCalls = "stage.elab.calls";
    StageKernelNanos = "stage.kernel.nanos";
    StageKernelCalls = "stage.kernel.calls";
    StageSplitNanos = "stage.split.nanos";
    StageSplitCalls = "stage.split.calls";
    StageVerifyNanos = "stage.verify.nanos";
    StageVerifyCalls = "stage.verify.calls";
}

/// The number of registered counters: the length of the counter array.
pub(crate) const COUNT: usize = Counter::ALL.len();

impl PartialOrd for Counter {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Counter {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

/// The pipeline stages timed by [`stage`](crate::stage), each owning a
/// `stage.<name>.nanos`/`stage.<name>.calls` counter pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lexing.
    Lex,
    /// Parsing.
    Parse,
    /// Elaboration (surface to internal language).
    Elab,
    /// Kernel judgements called by the elaborator.
    Kernel,
    /// Phase splitting.
    Split,
    /// Phase-split re-verification.
    Verify,
}

impl Stage {
    /// Every stage, in registry order.
    pub const ALL: [Stage; 6] = [
        Stage::Lex,
        Stage::Parse,
        Stage::Elab,
        Stage::Kernel,
        Stage::Split,
        Stage::Verify,
    ];

    /// Exclusive wall-clock nanoseconds attributed to the stage.
    pub fn nanos(self) -> Counter {
        Counter::ALL[Counter::StageLexNanos as usize + 2 * self as usize]
    }

    /// Number of times the stage was entered.
    pub fn calls(self) -> Counter {
        Counter::ALL[Counter::StageLexCalls as usize + 2 * self as usize]
    }

    /// The stage's span name, `stage.<name>`.
    pub fn name(self) -> &'static str {
        let nanos = self.nanos().name();
        &nanos[..nanos.len() - ".nanos".len()]
    }
}

/// The namespaces production counters may use. `cache` is the driver's
/// on-disk artifact cache; `intern` is the sharded global interner's
/// shard-level traffic (per-node hit/miss stays under `syntax.intern_*`
/// for continuity).
pub const NAMESPACES: &[&str] = &[
    "kernel", "syntax", "surface", "phase", "eval", "driver", "stage", "internal", "cache",
    "intern",
];

/// Is `name` a well-formed production counter name: a known namespace,
/// a dot, and one or more lowercase `[a-z0-9_]` segments?
pub fn is_well_formed(name: &str) -> bool {
    let Some((ns, rest)) = name.split_once('.') else {
        return false;
    };
    if !NAMESPACES.contains(&ns) || rest.is_empty() {
        return false;
    }
    rest.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Is `name` wall-clock derived (and therefore excluded from the
/// deterministic cost model)?
pub fn is_time_based(name: &str) -> bool {
    name.ends_with(".nanos")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_production_names() {
        let mut seen = std::collections::HashSet::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is out of index order");
            assert!(is_well_formed(c.name()), "{} is malformed", c.name());
            assert!(seen.insert(c.name()), "{} is registered twice", c.name());
            assert_eq!(
                c.name().ends_with(".hwm"),
                c.is_mark(),
                "{}: the .hwm suffix must match the mark flag",
                c.name()
            );
        }
    }

    #[test]
    fn stage_blocks_pair_nanos_with_calls() {
        for s in Stage::ALL {
            assert_eq!(s.nanos().name(), format!("{}.nanos", s.name()));
            assert_eq!(s.calls().name(), format!("{}.calls", s.name()));
        }
        assert_eq!(Stage::Verify.name(), "stage.verify");
    }

    #[test]
    fn counters_order_by_name() {
        let mut sorted = Counter::ALL.to_vec();
        sorted.sort();
        assert!(sorted.windows(2).all(|w| w[0].name() < w[1].name()));
    }

    #[test]
    fn rejects_malformed_names() {
        for name in [
            "",
            "kernel",
            "kernel.",
            "unknown.counter",
            "Kernel.caps",
            "kernel.UPPER",
            "kernel..double",
            "kernel.space ",
        ] {
            assert!(!is_well_formed(name), "{name} should be rejected");
        }
    }

    #[test]
    fn time_suffix_detected() {
        assert!(is_time_based("stage.lex.nanos"));
        assert!(!is_time_based("stage.lex.calls"));
    }
}
