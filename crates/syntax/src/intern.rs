//! Hash-consed, reference-counted syntax nodes.
//!
//! The recursive spine of [`Con`](crate::ast::Con) and
//! [`Kind`](crate::ast::Kind) is built from [`HC<T>`] pointers instead of
//! `Box<T>`: every structurally-distinct node is interned once in the
//! calling thread's table and assigned a [`NodeId`]. Consequences:
//!
//! * **O(1) equality** — two `HC` pointers are equal iff their ids are
//!   equal, which (by the interning invariant) holds iff the subtrees
//!   are structurally equal. The derived `PartialEq`/`Hash` on `Con` and
//!   `Kind` therefore touch only the root variant plus child ids, never
//!   the whole tree.
//! * **O(1) clone** — `clone()` is a refcount bump.
//! * **Cached binding data** — each node carries `fv_bound`, an upper
//!   bound on its free de Bruijn indices, computed shallowly at intern
//!   time from the children's cached bounds. Shifting and substitution
//!   use it to return the *same pointer* for subtrees they cannot touch
//!   (see [`crate::map`]).
//!
//! # Per-thread tables
//!
//! Each thread owns one table per syntax class and one id counter.
//! `HC` is an `Rc`, so it is `!Send`: syntax never crosses a thread,
//! and a `NodeId` names a node of the thread that minted it. An intern
//! call is one hash probe with no lock and no atomic. `--jobs N`
//! workers each build their own spine; nothing they exchange (verdicts,
//! rendered text, counters) holds a node.
//!
//! ```compile_fail
//! fn send<T: Send>() {}
//! send::<recmod_syntax::intern::HC<recmod_syntax::ast::Con>>();
//! ```
//!
//! `NodeId`s are **never persisted**: the driver's on-disk artifact
//! cache stores rendered verdicts keyed by source hashes, never ids,
//! because every thread assigns ids in its own first-intern order.
//!
//! The table holds weak references: dropping the last strong `HC` to a
//! node makes its entry collectable, and dead entries are swept when a
//! table doubles past a high-water mark (or on [`sweep_now`]), so long
//! sessions do not leak.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::thread::LocalKey;

use recmod_telemetry::{count, Counter, Counts};

use crate::ast::{Con, Kind};

/// An identifier for one structurally-distinct syntax node.
///
/// Ids are unique on their thread for the thread's lifetime (they are
/// never reused, even after a node is collected and re-interned — the
/// counter only moves forward; a re-interned node gets a fresh id,
/// which is sound because stale ids no longer have live holders).
pub type NodeId = u64;

struct Node<T> {
    id: NodeId,
    fv_bound: usize,
    value: T,
}

/// A hash-consed pointer to an interned syntax node.
///
/// Build one with [`hc`] (or [`Internable::intern`]); pattern-match
/// through it with `&*` / autoderef, exactly like the `Box` it replaces.
pub struct HC<T: Internable>(Rc<Node<T>>);

impl<T: Internable> HC<T> {
    /// The node's interning id. Equal ids ⟺ structurally equal subtrees
    /// (on one thread).
    pub fn id(&self) -> NodeId {
        self.0.id
    }

    /// An upper bound on the free de Bruijn indices of this subtree:
    /// every free index is strictly below `fv_bound()` (`0` ⟺ closed).
    pub fn fv_bound(&self) -> usize {
        self.0.fv_bound
    }

    /// Pointer identity (implies — and with interning, is implied by —
    /// structural equality).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The underlying node by reference.
    pub fn get(&self) -> &T {
        &self.0.value
    }

    /// Extracts an owned copy of the node (a shallow clone: children are
    /// refcount bumps).
    pub fn take(&self) -> T {
        self.0.value.clone()
    }
}

impl<T: Internable> Clone for HC<T> {
    fn clone(&self) -> Self {
        HC(Rc::clone(&self.0))
    }
}

impl<T: Internable> Deref for HC<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Internable> PartialEq for HC<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl<T: Internable> Eq for HC<T> {}

impl<T: Internable> Hash for HC<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl<T: Internable + fmt::Debug> fmt::Debug for HC<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

/// Syntax classes that participate in hash-consing.
pub trait Internable: Clone + Eq + Hash + Sized + 'static {
    /// Computes this node's free-variable upper bound from its children's
    /// *cached* bounds — must not recurse into subtrees.
    fn fv_bound_shallow(&self) -> usize;

    /// Interns the node in the calling thread's table, returning the
    /// canonical pointer for its structure.
    fn intern(self) -> HC<Self>;
}

/// Interns a node: the canonical constructor for [`HC`] pointers.
pub fn hc<T: Internable>(t: T) -> HC<T> {
    t.intern()
}

// ---------------------------------------------------------------------------
// The per-thread tables
// ---------------------------------------------------------------------------

/// One syntax class's table: weak entries, the sweep high-water mark,
/// and the pins of a live [`pin_thread`] guard.
struct Table<T: Internable> {
    map: crate::fxhash::FxHashMap<T, Weak<Node<T>>>,
    sweep_at: usize,
    pins: Option<Vec<HC<T>>>,
}

impl<T: Internable> Table<T> {
    fn new() -> Self {
        Table {
            map: crate::fxhash::FxHashMap::default(),
            sweep_at: 1 << 10,
            pins: None,
        }
    }

    fn intern(&mut self, t: T) -> HC<T> {
        if let Some(rc) = self.map.get(&t).and_then(Weak::upgrade) {
            count(Counter::SyntaxInternHit, 1);
            return HC(rc);
        }
        count(Counter::SyntaxInternMiss, 1);
        let id = NEXT_ID.with(|n| n.replace(n.get() + 1));
        let fv_bound = t.fv_bound_shallow();
        let rc = Rc::new(Node {
            id,
            fv_bound,
            value: t.clone(),
        });
        self.map.insert(t, Rc::downgrade(&rc));
        if self.map.len() >= self.sweep_at {
            self.sweep();
        }
        let node = HC(rc);
        if let Some(pins) = &mut self.pins {
            pins.push(node.clone());
        }
        node
    }

    /// Drops dead entries and re-arms the high-water mark; returns the
    /// number reclaimed.
    fn sweep(&mut self) -> u64 {
        let before = self.map.len();
        self.map.retain(|_, w| w.strong_count() > 0);
        count(Counter::SyntaxInternSweeps, 1);
        self.sweep_at = (self.map.len() * 2).max(1 << 10);
        (before - self.map.len()) as u64
    }
}

thread_local! {
    /// Ids start at 1 so 0 can serve as an "absent" sentinel in debug dumps.
    static NEXT_ID: Cell<NodeId> = const { Cell::new(1) };
    static CON_TABLE: RefCell<Table<Con>> = RefCell::new(Table::new());
    static KIND_TABLE: RefCell<Table<Kind>> = RefCell::new(Table::new());
}

fn with_table<T: Internable, R>(
    table: &'static LocalKey<RefCell<Table<T>>>,
    f: impl FnOnce(&mut Table<T>) -> R,
) -> R {
    table.with(|t| f(&mut t.borrow_mut()))
}

/// RAII guard from [`pin_thread`]; dropping it releases the pins.
pub struct PinGuard {
    _priv: (),
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        with_table(&CON_TABLE, |t| t.pins = None);
        with_table(&KIND_TABLE, |t| t.pins = None);
    }
}

/// Keeps every node this thread interns alive until the returned guard
/// drops.
///
/// Whether a *re*-interned node keeps its [`NodeId`] depends on whether
/// something still holds it: once the last `HC` drops, the next intern
/// of the same structure mints a fresh id. The kernel's memo tables are
/// keyed by id, so their hit counts depend on node liveness — on when
/// elaboration happens to drop intermediate syntax. The deterministic
/// cost model (`bench_json --costs`) pins the measuring thread's nodes
/// so every re-intern finds a live entry and the memo-hit pattern is a
/// pure function of the source text. Not for production paths: pinned
/// nodes are exempt from sweeping by construction, so memory grows with
/// every distinct node interned while the guard lives.
pub fn pin_thread() -> PinGuard {
    with_table(&CON_TABLE, |t| t.pins = Some(Vec::new()));
    with_table(&KIND_TABLE, |t| t.pins = Some(Vec::new()));
    PinGuard { _priv: () }
}

impl Internable for Con {
    fn fv_bound_shallow(&self) -> usize {
        fn under(b: &HC<Con>) -> usize {
            b.fv_bound().saturating_sub(1)
        }
        match self {
            Con::Var(i) | Con::Fst(i) => i + 1,
            Con::Star | Con::Int | Con::Bool | Con::UnitTy => 0,
            Con::Lam(k, b) | Con::Mu(k, b) => k.fv_bound().max(under(b)),
            Con::App(a, b) | Con::Pair(a, b) | Con::Arrow(a, b) | Con::Prod(a, b) => {
                a.fv_bound().max(b.fv_bound())
            }
            Con::Proj1(a) | Con::Proj2(a) => a.fv_bound(),
            Con::Sum(cs) => cs.iter().map(HC::fv_bound).max().unwrap_or(0),
        }
    }

    fn intern(self) -> HC<Con> {
        with_table(&CON_TABLE, |t| t.intern(self))
    }
}

impl Internable for Kind {
    fn fv_bound_shallow(&self) -> usize {
        match self {
            Kind::Type | Kind::Unit => 0,
            Kind::Singleton(c) => c.fv_bound(),
            Kind::Pi(k1, k2) | Kind::Sigma(k1, k2) => {
                k1.fv_bound().max(k2.fv_bound().saturating_sub(1))
            }
        }
    }

    fn intern(self) -> HC<Kind> {
        with_table(&KIND_TABLE, |t| t.intern(self))
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// A snapshot of this thread's interner (plain data, `Send`): hit, miss
/// and sweep counts are a view of the calling thread's telemetry
/// counters since the thread started; entry counts are the sizes of its
/// tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Interning requests answered by an existing node.
    pub hits: u64,
    /// Interning requests that allocated a fresh node.
    pub misses: u64,
    /// Dead-entry sweeps performed.
    pub sweeps: u64,
    /// Entries currently in the constructor table (live + uncollected).
    pub con_entries: u64,
    /// Entries currently in the kind table (live + uncollected).
    pub kind_entries: u64,
}

impl InternStats {
    /// Hit rate in `[0, 1]`; `0` when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshots this thread's interning counters and table sizes.
pub fn intern_stats() -> InternStats {
    let counts = Counts::now();
    InternStats {
        hits: counts.get(Counter::SyntaxInternHit),
        misses: counts.get(Counter::SyntaxInternMiss),
        sweeps: counts.get(Counter::SyntaxInternSweeps),
        con_entries: with_table(&CON_TABLE, |t| t.map.len() as u64),
        kind_entries: with_table(&KIND_TABLE, |t| t.map.len() as u64),
    }
}

/// Sweeps dead entries from both of this thread's tables immediately,
/// without waiting for the doubling high-water mark, and resets each
/// table's mark to fit its surviving population.
///
/// Long-lived worker threads (`recmodc serve`) call this between
/// requests: each compile drops its strong `HC` pointers when the
/// per-request syntax dies, so the weak table is mostly tombstones at
/// request boundaries. Sweeping there bounds steady-state occupancy by
/// the *live* working set instead of the doubling schedule's high-water
/// mark. Returns the number of entries reclaimed across both tables.
pub fn sweep_now() -> u64 {
    with_table(&CON_TABLE, Table::sweep) + with_table(&KIND_TABLE, Table::sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn equal_structure_interns_to_equal_ids() {
        let a = hc(carrow(Con::Int, Con::Bool));
        let b = hc(carrow(Con::Int, Con::Bool));
        assert_eq!(a.id(), b.id());
        assert!(HC::ptr_eq(&a, &b));
        let c = hc(carrow(Con::Bool, Con::Int));
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn fv_bound_tracks_binders() {
        assert_eq!(hc(cvar(3)).fv_bound(), 4);
        assert_eq!(hc(Con::Int).fv_bound(), 0);
        // μα.α: the bound variable does not escape.
        assert_eq!(hc(mu(tkind(), cvar(0))).fv_bound(), 0);
        // μα.β(1): one free variable survives the binder.
        assert_eq!(hc(mu(tkind(), cvar(1))).fv_bound(), 1);
        // Πα:Q(γ).Q(α): the domain's free var dominates.
        assert_eq!(hc(pi(q(cvar(2)), q(cvar(0)))).fv_bound(), 3);
    }

    #[test]
    fn derived_eq_on_con_is_shallow_but_correct() {
        let deep1 = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::UnitTy));
        let deep2 = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::UnitTy));
        assert_eq!(deep1, deep2);
        let other = carrow(carrow(Con::Int, Con::Int), cprod(Con::Bool, Con::Int));
        assert_ne!(deep1, other);
    }

    #[test]
    fn sweep_now_reclaims_dead_entries_and_keeps_live_ones() {
        let live = hc(cprod(cvar(271_828), cvar(271_828)));
        // The dead node's children stay alive, so the first sweep leaves
        // nothing dead behind it whatever order it visits the table in.
        let _child = hc(cvar(314_159));
        {
            let _dead = hc(carrow(cvar(314_159), cvar(271_828)));
        }
        let reclaimed = sweep_now();
        assert!(reclaimed >= 1, "dropped node should be reclaimed");
        // The live node survives: re-interning finds the same id.
        let again = hc(cprod(cvar(271_828), cvar(271_828)));
        assert_eq!(live.id(), again.id());
        // Nothing newly dead: a second sweep reclaims nothing (the
        // tables are this thread's alone) and the live id is stable.
        assert_eq!(sweep_now(), 0);
        assert_eq!(live.id(), hc(cprod(cvar(271_828), cvar(271_828))).id());
    }

    #[test]
    fn stats_move() {
        let before = intern_stats();
        let _x = hc(cprod(cvar(41), cvar(41)));
        let after = intern_stats();
        assert!(after.misses > before.misses || after.hits > before.hits);
    }
}
