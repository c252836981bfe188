//! The call-by-value big-step interpreter.
//!
//! Evaluates *phase-split* terms: the structure calculus has been
//! translated away (see `recmod-phase`), so the only recursion left is
//! the core calculus's `fix(x:σ.e)`, which is implemented by
//! *backpatching*: a fresh promise is bound to `x`, the body is evaluated
//! (the value restriction guarantees the promise is only captured under
//! λs, never demanded), and the promise is then filled with the result.
//!
//! The interpreter counts evaluation steps; the benchmark harness uses
//! the counter to measure the paper's §3.1 claim about the asymptotic
//! cost of opaque recursive modules.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use recmod_syntax::ast::{PrimOp, Term};

use crate::error::{EvalError, EvalResult};
use crate::value::{Env, Value};

/// The default evaluation step budget.
pub const DEFAULT_EVAL_FUEL: u64 = 500_000_000;

/// The default recursion-depth limit. Each object-level recursive call
/// consumes host stack (the interpreter is itself recursive), so the
/// limit is what turns runaway recursion into [`EvalError::DepthExceeded`]
/// instead of a host stack overflow. At roughly 50 000 frames the
/// interpreter fits comfortably in a [`run_big_stack`] thread even in
/// debug builds.
pub const DEFAULT_MAX_DEPTH: u64 = 50_000;

/// Counters accumulated during evaluation. Plain data (`Copy`, `Send`),
/// so a [`run_big_stack`] closure can ship them back across the thread
/// boundary alongside the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation steps (one per `eval` entry).
    pub steps: u64,
    /// Function and type-function closures allocated.
    pub closures: u64,
    /// `fix` promises created and backpatched.
    pub backpatches: u64,
    /// Deepest environment extended during the run.
    pub max_env_depth: u64,
}

/// An instrumented evaluator.
///
/// Dropping an evaluator empties every `fix` promise it created that is
/// still alive (see `promises`). A value returned by [`Interp::run`] or
/// [`Interp::eval`] stays readable after that, but applying a recursive
/// closure from it, even under another evaluator, reaches the emptied
/// promise and fails with [`EvalError::BlackHole`]. Keep the evaluator
/// alive for as long as its recursive values are called.
#[derive(Debug)]
pub struct Interp {
    stats: EvalStats,
    fuel: u64,
    depth: u64,
    max_depth: u64,
    limits: recmod_telemetry::Limits,
    /// The `fix` promises this evaluator created, held weakly. A filled
    /// promise and the closures that capture it form an `Rc` cycle, so
    /// dropping the evaluator empties the promises still alive and the
    /// run's recursive values are freed. A value that outlives its
    /// evaluator can still be inspected, but calling into a recursive
    /// binding through it then meets an empty promise (a black hole).
    promises: Vec<Weak<RefCell<Option<Rc<Value>>>>>,
}

impl Drop for Interp {
    fn drop(&mut self) {
        for promise in self.promises.drain(..) {
            if let Some(cell) = promise.upgrade() {
                let value = cell.borrow_mut().take();
                drop(value);
            }
        }
    }
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh evaluator with the default fuel budget.
    pub fn new() -> Self {
        Self::with_fuel(DEFAULT_EVAL_FUEL)
    }

    /// A fresh evaluator with an explicit fuel budget.
    pub fn with_fuel(fuel: u64) -> Self {
        Self::with_limits(fuel, DEFAULT_MAX_DEPTH)
    }

    /// A fresh evaluator with explicit fuel and recursion-depth limits.
    pub fn with_limits(fuel: u64, max_depth: u64) -> Self {
        let limits = recmod_telemetry::Limits::default();
        Interp {
            stats: EvalStats::default(),
            fuel,
            depth: 0,
            max_depth,
            limits,
            promises: Vec::new(),
        }
    }

    /// A fresh evaluator honoring a pipeline-wide
    /// [`Limits`](recmod_telemetry::Limits) value: `eval_fuel`,
    /// `eval_depth`, and the wall-clock deadline (checked every 4096
    /// steps).
    pub fn with_pipeline_limits(limits: &recmod_telemetry::Limits) -> Self {
        Interp {
            stats: EvalStats::default(),
            fuel: limits.eval_fuel,
            depth: 0,
            max_depth: limits.eval_depth,
            limits: *limits,
            promises: Vec::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.stats.steps
    }

    /// All counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Resets the step counter (fuel is unaffected).
    pub fn reset_steps(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Evaluates a closed term in the empty environment. Recursive
    /// values in the result can be called only while `self` is alive.
    pub fn run(&mut self, e: &Term) -> EvalResult<Rc<Value>> {
        self.eval(&Env::new(), e)
    }

    /// Evaluates `e` under `env`.
    pub fn eval(&mut self, env: &Env, e: &Term) -> EvalResult<Rc<Value>> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(EvalError::DepthExceeded);
        }
        let out = self.eval_inner(env, e);
        self.depth -= 1;
        out
    }

    fn eval_inner(&mut self, env: &Env, e: &Term) -> EvalResult<Rc<Value>> {
        self.stats.steps += 1;
        if self.stats.steps > self.fuel {
            return Err(EvalError::FuelExhausted);
        }
        // Deadlines are wall-clock; amortize the clock read over many
        // steps (4096 steps run in a few microseconds).
        if self.stats.steps.is_multiple_of(4096) && self.limits.deadline_passed() {
            return Err(EvalError::Limit(self.limits.deadline_error("eval")));
        }
        match e {
            Term::Var(i) => env.lookup(*i)?.force(),
            Term::Snd(_) => Err(EvalError::OpenTerm),
            Term::Star => Ok(Rc::new(Value::Unit)),
            Term::Lam(_, body) => {
                self.stats.closures += 1;
                Ok(Rc::new(Value::Closure {
                    env: env.clone(),
                    body: Rc::new((**body).clone()),
                }))
            }
            Term::App(f, a) => {
                let fv = self.eval(env, f)?;
                let av = self.eval(env, a)?;
                self.apply(&fv, av)
            }
            Term::Pair(a, b) => {
                let av = self.eval(env, a)?;
                let bv = self.eval(env, b)?;
                Ok(Rc::new(Value::Pair(av, bv)))
            }
            Term::Proj1(p) => match &*self.eval(env, p)?.force()? {
                Value::Pair(a, _) => Ok(a.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Term::Proj2(p) => match &*self.eval(env, p)?.force()? {
                Value::Pair(_, b) => Ok(b.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Term::TLam(_, body) => {
                self.stats.closures += 1;
                Ok(Rc::new(Value::TClosure {
                    env: env.clone(),
                    body: Rc::new((**body).clone()),
                }))
            }
            Term::TApp(f, _) => {
                let fv = self.eval(env, f)?.force()?;
                match &*fv {
                    Value::TClosure { env: cenv, body } => {
                        // The constructor argument is erased; bind a dummy
                        // so de Bruijn indices line up.
                        let inner = self.extend(cenv, Rc::new(Value::Unit));
                        self.eval(&inner, body)
                    }
                    _ => Err(EvalError::Stuck("a type function")),
                }
            }
            Term::Fix(_, body) => {
                let cell = Rc::new(RefCell::new(None));
                if self.promises.len() == self.promises.capacity() {
                    // Forget promises that died without forming a cycle
                    // before growing the list.
                    self.promises.retain(|p| p.strong_count() > 0);
                }
                self.promises.push(Rc::downgrade(&cell));
                let promise = Rc::new(Value::Promise(cell.clone()));
                let inner = self.extend(env, promise);
                let v = self.eval(&inner, body)?;
                *cell.borrow_mut() = Some(v.clone());
                self.stats.backpatches += 1;
                Ok(v)
            }
            Term::IntLit(n) => Ok(Rc::new(Value::Int(*n))),
            Term::BoolLit(b) => Ok(Rc::new(Value::Bool(*b))),
            Term::Prim(op, args) => {
                let a = self.eval(env, &args[0])?.as_int()?;
                let b = self.eval(env, &args[1])?.as_int()?;
                Ok(Rc::new(match op {
                    PrimOp::Add => Value::Int(a.wrapping_add(b)),
                    PrimOp::Sub => Value::Int(a.wrapping_sub(b)),
                    PrimOp::Mul => Value::Int(a.wrapping_mul(b)),
                    PrimOp::Eq => Value::Bool(a == b),
                    PrimOp::Lt => Value::Bool(a < b),
                }))
            }
            Term::If(c, t, f) => {
                if self.eval(env, c)?.as_bool()? {
                    self.eval(env, t)
                } else {
                    self.eval(env, f)
                }
            }
            Term::Inj(i, _, body) => {
                let v = self.eval(env, body)?;
                Ok(Rc::new(Value::Inj(*i, v)))
            }
            Term::Case(scrut, branches) => {
                let sv = self.eval(env, scrut)?.force()?;
                match &*sv {
                    Value::Inj(i, payload) => match branches.get(*i) {
                        Some(branch) => {
                            let inner = self.extend(env, payload.clone());
                            self.eval(&inner, branch)
                        }
                        None => Err(EvalError::Stuck("a branch for this injection")),
                    },
                    _ => Err(EvalError::Stuck("a sum value")),
                }
            }
            Term::Roll(_, body) => self.eval(env, body),
            Term::Unroll(body) => self.eval(env, body),
            Term::Fail(_) => Err(EvalError::Failure),
            Term::Let(bound, body) => {
                let v = self.eval(env, bound)?;
                let inner = self.extend(env, v);
                self.eval(&inner, body)
            }
        }
    }

    /// `env.push` plus max-env-depth bookkeeping (O(1): `Env::len` is
    /// cached on each node).
    fn extend(&mut self, env: &Env, v: Rc<Value>) -> Env {
        let inner = env.push(v);
        self.stats.max_env_depth = self.stats.max_env_depth.max(inner.len() as u64);
        inner
    }

    fn apply(&mut self, f: &Rc<Value>, arg: Rc<Value>) -> EvalResult<Rc<Value>> {
        match &*f.force()? {
            Value::Closure { env, body } => {
                let inner = self.extend(env, arg);
                self.eval(&inner, body)
            }
            _ => Err(EvalError::Stuck("a function")),
        }
    }
}

/// Runs `f` on a dedicated thread with a large stack (`stack_mb`
/// megabytes) and returns its result.
///
/// The interpreter is a recursive big-step evaluator, so deeply recursive
/// object programs need proportionally deep host stacks. Values are not
/// `Send` (they share `Rc` structure), so the whole evaluation — building
/// the term, running it, extracting a `Send` summary — must happen inside
/// the closure.
///
/// # Panics
///
/// Panics if the worker thread cannot be spawned or itself panics.
pub fn run_big_stack<T, F>(stack_mb: usize, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .stack_size(stack_mb * 1024 * 1024)
        .spawn(f)
        .expect("failed to spawn evaluation thread")
        .join()
        .expect("evaluation thread panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::{Con, PrimOp, Ty};
    use recmod_syntax::dsl::*;

    fn run(e: &Term) -> EvalResult<Rc<Value>> {
        Interp::new().run(e)
    }

    #[test]
    fn arithmetic() {
        let e = prim(PrimOp::Add, int(2), prim(PrimOp::Mul, int(3), int(4)));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 14);
    }

    #[test]
    fn beta_reduction() {
        let e = app(
            lam(tcon(Con::Int), prim(PrimOp::Add, var(0), int(1))),
            int(41),
        );
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 42);
    }

    #[test]
    fn recursive_factorial() {
        // fix(f: int⇀int. λn. if n = 0 then 1 else n * f (n-1)) 6 = 720
        let fact = fix(
            partial(tcon(Con::Int), tcon(Con::Int)),
            lam(
                tcon(Con::Int),
                ite(
                    prim(PrimOp::Eq, var(0), int(0)),
                    int(1),
                    prim(
                        PrimOp::Mul,
                        var(0),
                        app(var(1), prim(PrimOp::Sub, var(0), int(1))),
                    ),
                ),
            ),
        );
        let e = app(fact, int(6));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 720);
    }

    #[test]
    fn dropping_the_evaluator_frees_recursive_values() {
        // fix(f: int⇀int. λn. f n): the closure captures the promise that
        // is backpatched to the closure itself, an `Rc` cycle.
        let f = fix(
            partial(tcon(Con::Int), tcon(Con::Int)),
            lam(tcon(Con::Int), app(var(1), var(0))),
        );
        let mut interp = Interp::new();
        let v = interp.run(&f).unwrap();
        assert_eq!(Rc::strong_count(&v), 2, "the promise holds the closure");
        drop(interp);
        assert_eq!(
            Rc::strong_count(&v),
            1,
            "dropping the evaluator broke the cycle"
        );
    }

    #[test]
    fn a_recursive_value_black_holes_once_its_evaluator_is_dropped() {
        // fix(f: int⇀int. λn. if n = 0 then 0 else f (n-1)), called
        // through the public `Env::push`/`Interp::eval` path.
        let f = fix(
            partial(tcon(Con::Int), tcon(Con::Int)),
            lam(
                tcon(Con::Int),
                ite(
                    prim(PrimOp::Eq, var(0), int(0)),
                    int(0),
                    app(var(1), prim(PrimOp::Sub, var(0), int(1))),
                ),
            ),
        );
        let call = app(var(0), int(3));
        let mut owner = Interp::new();
        let v = owner.run(&f).unwrap();
        let env = Env::new().push(v);
        let r = Interp::new().eval(&env, &call).unwrap();
        assert_eq!(r.as_int().unwrap(), 0, "callable while its evaluator lives");
        drop(owner);
        assert!(matches!(
            Interp::new().eval(&env, &call),
            Err(EvalError::BlackHole)
        ));
    }

    #[test]
    fn mutual_recursion_via_pair_fix() {
        // fix(p : (int⇀bool) × (int⇀bool).
        //   (λn. if n=0 then true  else (π₂p)(n-1),
        //    λn. if n=0 then false else (π₁p)(n-1)))
        // — even/odd; even 10 = true, odd 10 = false.
        let fun_ty = partial(tcon(Con::Int), tcon(Con::Bool));
        let even = lam(
            tcon(Con::Int),
            ite(
                prim(PrimOp::Eq, var(0), int(0)),
                boolean(true),
                app(proj2(var(1)), prim(PrimOp::Sub, var(0), int(1))),
            ),
        );
        let odd = lam(
            tcon(Con::Int),
            ite(
                prim(PrimOp::Eq, var(0), int(0)),
                boolean(false),
                app(proj1(var(1)), prim(PrimOp::Sub, var(0), int(1))),
            ),
        );
        let p = fix(tprod(fun_ty.clone(), fun_ty), pair(even, odd));
        assert!(run(&app(proj1(p.clone()), int(10)))
            .unwrap()
            .as_bool()
            .unwrap());
        assert!(!run(&app(proj2(p), int(10))).unwrap().as_bool().unwrap());
    }

    #[test]
    fn datatype_round_trip() {
        // cons 1 nil, then uncons the head back out.
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let unrolled = csum([Con::UnitTy, cprod(Con::Int, listc.clone())]);
        let nil = roll(listc.clone(), inj(0, unrolled.clone(), Term::Star));
        let one = roll(listc.clone(), inj(1, unrolled, pair(int(1), nil)));
        let head = case(unroll(one), [fail(tcon(Con::Int)), proj1(var(0))]);
        assert_eq!(run(&head).unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn failure_propagates() {
        let e = app(lam(tcon(Con::Int), var(0)), fail(tcon(Con::Int)));
        assert!(matches!(run(&e), Err(EvalError::Failure)));
    }

    #[test]
    fn divergence_hits_fuel() {
        // fix(f: 1⇀1. λu. f u) * — loops; must stop with FuelExhausted.
        // Run on a big stack: the big-step interpreter recurses once per
        // object-level call.
        let outcome = run_big_stack(64, || {
            let loop_ = fix(
                partial(Ty::Unit, Ty::Unit),
                lam(Ty::Unit, app(var(1), var(0))),
            );
            let e = app(loop_, Term::Star);
            let mut interp = Interp::with_fuel(5_000);
            interp.eval(&Env::new(), &e).err()
        });
        assert!(matches!(outcome, Some(EvalError::FuelExhausted)));
    }

    #[test]
    fn step_counter_counts() {
        let mut interp = Interp::new();
        interp.run(&int(1)).unwrap();
        assert_eq!(interp.steps(), 1);
        interp.reset_steps();
        assert_eq!(interp.steps(), 0);
    }

    #[test]
    fn type_application_erases() {
        let id = tlam(tkind(), lam(tcon(cvar(0)), var(0)));
        let e = app(tapp(id, Con::Int), int(5));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 5);
    }

    #[test]
    fn let_binds() {
        let e = let_(int(10), prim(PrimOp::Mul, var(0), var(0)));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 100);
    }

    #[test]
    fn case_selects_branch() {
        let sum = csum([Con::Int, Con::Bool]);
        let e = case(inj(1, sum, boolean(true)), [boolean(false), var(0)]);
        assert!(run(&e).unwrap().as_bool().unwrap());
    }
}
