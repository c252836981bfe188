//! Always-on judgement counters for the kernel.
//!
//! [`Tc`](crate::Tc) carries a [`TcStats`] of plain `Cell<u64>`s: every
//! fuel tick is attributed to the [`FuelOp`] that burned it, and
//! equivalence and normalization record μ-unrolls, weak-head steps,
//! coinductive-assumption churn, and singleton short-circuits. The
//! counters cost one `Cell` add per event (they are *not* gated on the
//! telemetry sink), which keeps [`crate::TypeError::FuelExhausted`]
//! able to report where fuel went even when no sink is installed.

use std::cell::Cell;

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

    /// A stable machine-readable key (used in `--stats=json`).
    pub fn key(self) -> &'static str {
        match self {
            FuelOp::ConEquiv => "con_equiv",
            FuelOp::MonoEquiv => "mono_equiv",
            FuelOp::PathEquiv => "path_equiv",
            FuelOp::Whnf => "whnf",
            FuelOp::ConKinding => "con_kinding",
            FuelOp::TermTyping => "term_typing",
            FuelOp::TermEq => "term_eq",
            FuelOp::TermNorm => "term_norm",
            FuelOp::TypeExpose => "type_expose",
            FuelOp::TypeEquiv => "type_equiv",
            FuelOp::Subtype => "subtype",
            FuelOp::ModuleTyping => "module_typing",
        }
    }

    // `ALL` lists the variants in declaration order (checked by the
    // `all_is_in_declaration_order` test), so the discriminant is the
    // reporting index.
    fn index(self) -> usize {
        self as usize
    }
}

/// Interior-mutable counters carried by [`crate::Tc`].
#[derive(Debug, Default)]
pub struct TcStats {
    fuel_by_op: [Cell<u64>; 12],
    pub(crate) mu_unrolls: Cell<u64>,
    pub(crate) whnf_steps: Cell<u64>,
    pub(crate) assumption_inserts: Cell<u64>,
    pub(crate) assumption_hwm: Cell<u64>,
    pub(crate) singleton_shortcuts: Cell<u64>,
    pub(crate) whnf_cache_hits: Cell<u64>,
    pub(crate) whnf_cache_misses: Cell<u64>,
    pub(crate) equiv_ptr_eqs: Cell<u64>,
    pub(crate) equiv_cache_hits: Cell<u64>,
}

impl TcStats {
    pub(crate) fn record_fuel(&self, op: FuelOp) {
        let cell = &self.fuel_by_op[op.index()];
        cell.set(cell.get() + 1);
    }

    pub(crate) fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    pub(crate) fn raise(cell: &Cell<u64>, v: u64) {
        cell.set(cell.get().max(v));
    }

    /// The `n` operations that burned the most fuel, descending,
    /// zero-count operations omitted.
    pub fn top_fuel(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut all: Vec<(&'static str, u64)> = FuelOp::ALL
            .iter()
            .map(|&op| (op.name(), self.fuel_by_op[op.index()].get()))
            .filter(|&(_, c)| c > 0)
            .collect();
        all.sort_by_key(|p| std::cmp::Reverse(p.1));
        all.truncate(n);
        all
    }

    /// An owned snapshot of every counter.
    pub fn snapshot(&self) -> KernelStats {
        KernelStats {
            fuel_by_op: FuelOp::ALL.map(|op| self.fuel_by_op[op.index()].get()),
            mu_unrolls: self.mu_unrolls.get(),
            whnf_steps: self.whnf_steps.get(),
            assumption_inserts: self.assumption_inserts.get(),
            assumption_hwm: self.assumption_hwm.get(),
            singleton_shortcuts: self.singleton_shortcuts.get(),
            whnf_cache_hits: self.whnf_cache_hits.get(),
            whnf_cache_misses: self.whnf_cache_misses.get(),
            equiv_ptr_eqs: self.equiv_ptr_eqs.get(),
            equiv_cache_hits: self.equiv_cache_hits.get(),
            ..KernelStats::default()
        }
    }

    /// Zeroes every counter (e.g. between top-level declarations).
    pub fn reset(&self) {
        for c in &self.fuel_by_op {
            c.set(0);
        }
        self.mu_unrolls.set(0);
        self.whnf_steps.set(0);
        self.assumption_inserts.set(0);
        self.assumption_hwm.set(0);
        self.singleton_shortcuts.set(0);
        self.whnf_cache_hits.set(0);
        self.whnf_cache_misses.set(0);
        self.equiv_ptr_eqs.set(0);
        self.equiv_cache_hits.set(0);
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
        let stats = TcStats::default();
        stats.record_fuel(FuelOp::Whnf);
        stats.record_fuel(FuelOp::Whnf);
        stats.record_fuel(FuelOp::ConEquiv);
        let top = stats.top_fuel(1);
        assert_eq!(top, vec![("weak-head normalization", 2)]);
        assert_eq!(stats.snapshot().fuel_used(), 3);
    }

    #[test]
    fn delta_subtracts_and_keeps_hwm() {
        let stats = TcStats::default();
        stats.record_fuel(FuelOp::Whnf);
        TcStats::raise(&stats.assumption_hwm, 5);
        let before = stats.snapshot();
        stats.record_fuel(FuelOp::Whnf);
        TcStats::raise(&stats.assumption_hwm, 9);
        let d = stats.snapshot().delta_since(&before);
        assert_eq!(d.fuel_used(), 1);
        assert_eq!(d.assumption_hwm, 9);
    }

    #[test]
    fn all_is_in_declaration_order() {
        for (i, op) in FuelOp::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "{}", op.name());
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let stats = TcStats::default();
        stats.record_fuel(FuelOp::Subtype);
        TcStats::bump(&stats.mu_unrolls);
        stats.reset();
        assert_eq!(stats.snapshot(), KernelStats::default());
    }
}
