//! The kernel's judgement counters, as a view over the telemetry
//! counter store.
//!
//! Every fuel tick is attributed to the [`FuelOp`] that burned it, and
//! equivalence and normalization record μ-unrolls, weak-head steps,
//! coinductive-assumption churn, cache traffic and singleton
//! short-circuits. Each event is one [`recmod_telemetry::count`] on the
//! calling thread's counter array (always on, no sink needed), which
//! keeps [`crate::TypeError::FuelExhausted`] able to report where fuel
//! went even when no sink is installed. [`KernelStats`] is a snapshot of
//! the `kernel.*` block of that array minus a baseline; see
//! [`crate::Tc::stats`].

use recmod_telemetry::{Counter, Counts};

/// The kernel operations that consume fuel — one variant per judgement
/// family with a `burn` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuelOp {
    /// Kind-directed constructor equivalence steps (`con_equiv`).
    ConEquiv,
    /// Structural monotype comparison steps at kind `T`.
    MonoEquiv,
    /// Stuck-path spine comparison steps.
    PathEquiv,
    /// Weak-head normalization loop iterations.
    Whnf,
    /// Constructor kind synthesis steps.
    ConKinding,
    /// Term type synthesis steps.
    TermTyping,
    /// Term equality steps (singleton-kind term comparison).
    TermEq,
    /// Term normalization steps.
    TermNorm,
    /// Deep type exposure steps (singleton expansion inside types).
    TypeExpose,
    /// Type equivalence steps.
    TypeEquiv,
    /// Subtyping steps.
    Subtype,
    /// Module typing steps.
    ModuleTyping,
}

impl FuelOp {
    /// Every operation, in a fixed reporting order.
    pub const ALL: [FuelOp; 12] = [
        FuelOp::ConEquiv,
        FuelOp::MonoEquiv,
        FuelOp::PathEquiv,
        FuelOp::Whnf,
        FuelOp::ConKinding,
        FuelOp::TermTyping,
        FuelOp::TermEq,
        FuelOp::TermNorm,
        FuelOp::TypeExpose,
        FuelOp::TypeEquiv,
        FuelOp::Subtype,
        FuelOp::ModuleTyping,
    ];

    /// The human-readable name used in error messages and traces.
    pub fn name(self) -> &'static str {
        match self {
            FuelOp::ConEquiv => "constructor equivalence",
            FuelOp::MonoEquiv => "monotype equivalence",
            FuelOp::PathEquiv => "path equivalence",
            FuelOp::Whnf => "weak-head normalization",
            FuelOp::ConKinding => "constructor kinding",
            FuelOp::TermTyping => "term typing",
            FuelOp::TermEq => "term equality",
            FuelOp::TermNorm => "term normalization",
            FuelOp::TypeExpose => "deep type exposure",
            FuelOp::TypeEquiv => "type equivalence",
            FuelOp::Subtype => "subtyping",
            FuelOp::ModuleTyping => "module typing",
        }
    }

    /// The counter this operation's fuel is recorded in. The operations
    /// map in declaration order onto the registry's `kernel.fuel.*`
    /// block.
    pub(crate) fn counter(self) -> Counter {
        Counter::ALL[Counter::KernelFuelConEquiv as usize + self as usize]
    }

    /// A stable machine-readable key (used in `--stats=json`): the
    /// counter name after `kernel.fuel.`.
    pub fn key(self) -> &'static str {
        &self.counter().name()["kernel.fuel.".len()..]
    }
}

/// A plain-data snapshot of the kernel counters (`Copy`, `Send`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Fuel burned per operation, indexed parallel to [`FuelOp::ALL`].
    pub fuel_by_op: [u64; 12],
    /// Coinductive μ-unrolls performed by the equivalence engine.
    pub mu_unrolls: u64,
    /// Weak-head reduction steps.
    pub whnf_steps: u64,
    /// Pairs added to the coinductive assumption set.
    pub assumption_inserts: u64,
    /// High-water mark of the assumption set's size.
    pub assumption_hwm: u64,
    /// Comparisons discharged instantly at a singleton kind.
    pub singleton_shortcuts: u64,
    /// Weak-head normalizations answered from the memo table.
    pub whnf_cache_hits: u64,
    /// Weak-head normalizations that ran the reduction loop.
    pub whnf_cache_misses: u64,
    /// Equivalence queries discharged by interned-id equality (the
    /// pointer-equality fast path).
    pub equiv_ptr_eqs: u64,
    /// Kind-`T` equivalence queries answered from the proven-pair table.
    pub equiv_cache_hits: u64,
    /// Never bumped: always 0. Kept only because the benchmark
    /// (`perfbench/`) reads it; nothing else does.
    pub eval_steps: u64,
    /// Never bumped: always 0. Kept only because the benchmark
    /// (`perfbench/`) reads it; nothing else does.
    pub quote_nodes: u64,
    /// Never bumped: always 0. Kept only because the benchmark
    /// (`perfbench/`) reads it; nothing else does.
    pub env_allocs: u64,
    /// Never bumped: always 0. Kept only because the benchmark
    /// (`perfbench/`) reads it; nothing else does.
    pub synth_cache_hits: u64,
    /// Never bumped: always 0. Kept only because the benchmark
    /// (`perfbench/`) reads it; nothing else does.
    pub synth_cache_misses: u64,
}

impl KernelStats {
    /// The kernel block of a counter view.
    pub(crate) fn of(counts: &Counts) -> KernelStats {
        KernelStats {
            fuel_by_op: FuelOp::ALL.map(|op| counts.get(op.counter())),
            mu_unrolls: counts.get(Counter::KernelMuUnrolls),
            whnf_steps: counts.get(Counter::KernelWhnfSteps),
            assumption_inserts: counts.get(Counter::KernelAssumptionInserts),
            assumption_hwm: counts.get(Counter::KernelAssumptionHwm),
            singleton_shortcuts: counts.get(Counter::KernelSingletonShortcuts),
            whnf_cache_hits: counts.get(Counter::KernelWhnfCacheHit),
            whnf_cache_misses: counts.get(Counter::KernelWhnfCacheMiss),
            equiv_ptr_eqs: counts.get(Counter::KernelEquivPtrEq),
            equiv_cache_hits: counts.get(Counter::KernelEquivCacheHit),
            ..KernelStats::default()
        }
    }

    /// The `n` operations that burned the most fuel, descending, ties in
    /// [`FuelOp::ALL`] order, zero-count operations omitted.
    pub(crate) fn top_fuel(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut all: Vec<(&'static str, u64)> = self
            .fuel_pairs()
            .map(|(op, c)| (op.name(), c))
            .filter(|&(_, c)| c > 0)
            .collect();
        all.sort_by_key(|p| std::cmp::Reverse(p.1));
        all.truncate(n);
        all
    }

    /// Total fuel burned across all operations.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_by_op.iter().sum()
    }

    /// `(operation, fuel)` pairs in reporting order, zero counts kept.
    pub fn fuel_pairs(&self) -> impl Iterator<Item = (FuelOp, u64)> + '_ {
        FuelOp::ALL
            .iter()
            .zip(self.fuel_by_op.iter())
            .map(|(&op, &c)| (op, c))
    }

    /// The change from `earlier` to `self` (monotone counters subtract;
    /// the high-water mark keeps the later value).
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        let mut fuel_by_op = [0u64; 12];
        for (i, slot) in fuel_by_op.iter_mut().enumerate() {
            *slot = self.fuel_by_op[i].saturating_sub(earlier.fuel_by_op[i]);
        }
        KernelStats {
            fuel_by_op,
            mu_unrolls: self.mu_unrolls.saturating_sub(earlier.mu_unrolls),
            whnf_steps: self.whnf_steps.saturating_sub(earlier.whnf_steps),
            assumption_inserts: self
                .assumption_inserts
                .saturating_sub(earlier.assumption_inserts),
            assumption_hwm: self.assumption_hwm,
            singleton_shortcuts: self
                .singleton_shortcuts
                .saturating_sub(earlier.singleton_shortcuts),
            whnf_cache_hits: self.whnf_cache_hits.saturating_sub(earlier.whnf_cache_hits),
            whnf_cache_misses: self
                .whnf_cache_misses
                .saturating_sub(earlier.whnf_cache_misses),
            equiv_ptr_eqs: self.equiv_ptr_eqs.saturating_sub(earlier.equiv_ptr_eqs),
            equiv_cache_hits: self
                .equiv_cache_hits
                .saturating_sub(earlier.equiv_cache_hits),
            ..KernelStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_and_keys_are_distinct() {
        let names: std::collections::HashSet<_> = FuelOp::ALL.iter().map(|op| op.name()).collect();
        let keys: std::collections::HashSet<_> = FuelOp::ALL.iter().map(|op| op.key()).collect();
        assert_eq!(names.len(), FuelOp::ALL.len());
        assert_eq!(keys.len(), FuelOp::ALL.len());
    }

    #[test]
    fn top_fuel_sorts_and_truncates() {
        let mut stats = KernelStats::default();
        stats.fuel_by_op[FuelOp::Whnf as usize] = 2;
        stats.fuel_by_op[FuelOp::ConEquiv as usize] = 1;
        assert_eq!(stats.top_fuel(1), vec![("weak-head normalization", 2)]);
        assert_eq!(stats.fuel_used(), 3);
    }

    #[test]
    fn delta_subtracts_and_keeps_hwm() {
        let before = KernelStats {
            mu_unrolls: 1,
            assumption_hwm: 5,
            ..KernelStats::default()
        };
        let after = KernelStats {
            mu_unrolls: 3,
            assumption_hwm: 9,
            ..KernelStats::default()
        };
        let d = after.delta_since(&before);
        assert_eq!(d.mu_unrolls, 2);
        assert_eq!(d.assumption_hwm, 9);
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, op) in FuelOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{}", op.name());
            assert_eq!(op.counter().name(), format!("kernel.fuel.{}", op.key()));
        }
        assert_eq!(FuelOp::ModuleTyping.key(), "module_typing");
    }

    #[test]
    fn reset_zeroes_everything() {
        // What `Tc::renew` does to the view: restart the marks and take a
        // new baseline. The view then reads zero for every counter.
        recmod_telemetry::count(FuelOp::Subtype.counter(), 1);
        recmod_telemetry::count_max(Counter::KernelAssumptionHwm, 3);
        recmod_telemetry::restart_marks();
        let base = Counts::now();
        assert_eq!(
            KernelStats::of(&Counts::now().since(&base)),
            KernelStats::default()
        );
    }

    #[test]
    fn the_view_reads_the_kernel_block() {
        let before = Counts::now();
        recmod_telemetry::count(FuelOp::Subtype.counter(), 2);
        recmod_telemetry::count(Counter::KernelMuUnrolls, 1);
        let stats = KernelStats::of(&Counts::now().since(&before));
        assert_eq!(stats.fuel_by_op[FuelOp::Subtype as usize], 2);
        assert_eq!(stats.fuel_used(), 2);
        assert_eq!(stats.mu_unrolls, 1);
    }
}
