//! Phase splitting (paper Figures 4 and 5).
//!
//! The paper's central technical move is that recursive modules and
//! recursively-dependent signatures are *definable* in the pure structure
//! calculus:
//!
//! ```text
//! fix(s : [α:κ.σ] . [c(Fst s), e(Fst s, snd s)])
//!     = [α = μα:κ.c(α),  fix(x:σ. e(α, x))]          (Figure 4)
//!
//! ρs.[α : Q(c(Fst s) : κ) . σ]  =  [α : Q(μβ:κ.c(β) : κ) . σ[α/Fst s]]   (Figure 5)
//! ```
//!
//! [`split_module`] realizes Figure 4 as an executable translation: the
//! result is a flat `[c, e]` pair containing no `fix(s:S.M)`, no sealing,
//! and no rds — only core-calculus `μ` and `fix`. Figure 5 is realized by
//! the kernel's `resolve_sig` (re-exported here as [`split_sig`]).
//!
//! The output can be re-checked by the kernel in the pure structure
//! fragment; [`crate::verify`] does exactly that.

use recmod_kernel::{raise, Ctx, Entry, Tc, TcResult, TypeError};
use recmod_syntax::ast::{Con, Kind, Module, Sig, Term, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::map::{map_con, map_term, VarMap};
use recmod_syntax::size::{con_size, module_size, term_size};
use recmod_syntax::subst::{shift_con, subst_con_ty};
use recmod_telemetry::{Counter, Stage};

/// The two phases of a module: its compile-time constructor and its
/// run-time term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// The compile-time (static) part.
    pub con: Con,
    /// The run-time (dynamic) part.
    pub term: Term,
}

impl Split {
    /// Reassembles the split parts as a flat structure `[c, e]`.
    pub fn into_module(self) -> Module {
        Module::Struct(self.con, self.term)
    }
}

/// Rewrites the body of a recursive module for Figure 4: the structure
/// binder `s` becomes, *in static positions*, a reference to the already
/// computed `μ` constructor, and *in dynamic positions*, the term-level
/// `fix` binder `x` (which occupies the same binder slot).
struct FixBodyRedirect<'a> {
    static_part: &'a Con,
}

impl VarMap for FixBodyRedirect<'_> {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(i, d, "constructor use of the structure binder");
        Con::Var(i)
    }
    fn tvar(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, d, "term use of the structure binder");
        Term::Var(i)
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        if i == d {
            // The occurrence sits under the (preserved) binder plus `d`
            // inner binders, so the replacement shifts by d + 1.
            shift_con(self.static_part, (d + 1) as isize, 0)
        } else {
            Con::Fst(i)
        }
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        if i == d {
            Term::Var(d)
        } else {
            Term::Snd(i)
        }
    }
    fn mvar(&mut self, _d: usize, i: usize) -> Module {
        Module::Var(i)
    }
}

/// Phase-splits a module into its static and dynamic parts (Figure 4).
///
/// Recursive modules become a `μ` constructor paired with a term-level
/// `fix`; sealing is erased (it has no run-time content); structure
/// variables split into `Fst(s)`/`snd(s)`.
///
/// # Errors
///
/// Propagates kernel errors from resolving rds annotations; the input is
/// assumed well-typed (run the kernel first).
pub fn split_module(tc: &Tc, ctx: &mut Ctx, m: &Module) -> TcResult<Split> {
    recmod_telemetry::stage(Stage::Split, || {
        let _span = recmod_telemetry::span("phase.split");
        recmod_telemetry::count(Counter::PhaseSplitCalls, 1);
        let split = split_inner(tc, ctx, m)?;
        if recmod_telemetry::enabled() {
            recmod_telemetry::count(Counter::PhaseNodesIn, module_size(m) as u64);
            recmod_telemetry::count(Counter::PhaseNodesOutStatic, con_size(&split.con) as u64);
            recmod_telemetry::count(Counter::PhaseNodesOutDynamic, term_size(&split.term) as u64);
        }
        Ok(split)
    })
}

fn split_inner(tc: &Tc, ctx: &mut Ctx, m: &Module) -> TcResult<Split> {
    let _depth = tc.descend("phase.split")?;
    match m {
        Module::Var(i) => Ok(Split {
            con: Con::Fst(*i),
            term: Term::Snd(*i),
        }),
        Module::Struct(c, e) => Ok(Split {
            con: c.clone(),
            term: e.clone(),
        }),
        Module::Seal(body, _) => split_inner(tc, ctx, body),
        Module::Fix(ann, body) => {
            let resolved = tc.resolve_sig(ctx, ann)?;
            let Sig::Struct(kappa, sigma) = &resolved else {
                return raise(TypeError::Internal(
                    "resolve_sig returned an unresolved rds".to_string(),
                ));
            };
            let base = strip(kappa);
            let inner = ctx.with(Entry::Struct(resolved.clone(), false), |ctx| {
                split_inner(tc, ctx, body)
            })?;
            // Static half: μα:κ. c(α)   — the structure binder becomes α.
            let mu_body = retarget_fst(&inner.con, 0);
            let static_part = Con::Mu(hc(base), hc(mu_body));
            // Dynamic half: fix(x : σ[μ.../α] . e(μ..., x)).
            let fix_ty: Ty = subst_con_ty(sigma, &static_part);
            let fix_body = map_term(
                &inner.term,
                0,
                &mut FixBodyRedirect {
                    static_part: &static_part,
                },
            );
            Ok(Split {
                con: static_part,
                term: Term::Fix(Box::new(fix_ty), Box::new(fix_body)),
            })
        }
    }
}

/// Phase-splits a signature: `[α:κ.σ] ↦ (κ, σ)`, resolving an rds to its
/// Figure-5 interpretation first. The returned type is under the
/// signature's constructor binder.
pub fn split_sig(tc: &Tc, ctx: &mut Ctx, s: &Sig) -> TcResult<(Kind, Ty)> {
    match tc.resolve_sig(ctx, s)? {
        Sig::Struct(k, t) => Ok((k.take(), *t)),
        Sig::Rds(_) => raise(TypeError::Other(
            "resolve_sig returned an unresolved rds".to_string(),
        )),
    }
}

/// Does the translated module contain any construct outside the pure
/// structure calculus (module-level `fix`, sealing, rds)?
pub fn is_pure_structure(m: &Module) -> bool {
    match m {
        Module::Var(_) | Module::Struct(_, _) => true,
        Module::Fix(_, _) | Module::Seal(_, _) => false,
    }
}

fn strip(k: &Kind) -> Kind {
    recmod_kernel::singleton::strip_kind(k)
}

/// `c(Fst s) ↦ c(β)`: re-reads the structure binder at `target` as a
/// constructor binder (no shifting) — the static redirection shared by
/// Figures 4 and 5.
fn retarget_fst(c: &Con, target: usize) -> Con {
    struct Retarget {
        target: usize,
    }
    impl VarMap for Retarget {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            debug_assert_ne!(i, self.target + d);
            Con::Var(i)
        }
        fn tvar(&mut self, _d: usize, i: usize) -> Term {
            Term::Var(i)
        }
        fn fst(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                Con::Var(i)
            } else {
                Con::Fst(i)
            }
        }
        fn snd(&mut self, d: usize, i: usize) -> Term {
            debug_assert_ne!(i, self.target + d, "dynamic occurrence in static part");
            Term::Snd(i)
        }
        fn mvar(&mut self, d: usize, i: usize) -> Module {
            debug_assert_ne!(i, self.target + d);
            Module::Var(i)
        }
    }
    map_con(c, 0, &mut Retarget { target })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    #[test]
    fn flat_structure_splits_trivially() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = strct(Con::Int, int(3));
        let s = split_module(&tc, &mut ctx, &m).unwrap();
        assert_eq!(s.con, Con::Int);
        assert_eq!(s.term, int(3));
    }

    #[test]
    fn variable_splits_into_fst_snd() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = split_module(&tc, &mut ctx, &mvar(2)).unwrap();
        assert_eq!(s.con, fst(2));
        assert_eq!(s.term, snd(2));
    }

    #[test]
    fn sealing_is_erased() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = seal(strct(Con::Int, int(1)), sig(tkind(), tcon(cvar(0))));
        let s = split_module(&tc, &mut ctx, &m).unwrap();
        assert_eq!(s.con, Con::Int);
        assert_eq!(s.term, int(1));
    }

    #[test]
    fn figure_4_shape_for_recursive_module() {
        // fix(s : [α:T. int ⇀ Con(α)] . [int ⇀ Fst(s), λx:int. fail[Fst(s)]])
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
        let body = strct(
            carrow(Con::Int, fst(0)),
            lam(tcon(Con::Int), fail(tcon(fst(1)))),
        );
        let m = mfix(ann, body);
        let s = split_module(&tc, &mut ctx, &m).unwrap();

        let expected_mu = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(s.con, expected_mu);
        // Dynamic part: fix(x : int ⇀ Con(μ...). λy:int. fail[μ...]).
        let Term::Fix(fix_ty, fix_body) = &s.term else {
            panic!("expected a term-level fix, got {:?}", s.term)
        };
        assert_eq!(**fix_ty, partial(tcon(Con::Int), tcon(expected_mu.clone())));
        // Inside the λ (depth 1 under the fix binder), Fst(s) became the μ.
        assert_eq!(**fix_body, lam(tcon(Con::Int), fail(tcon(expected_mu))));
    }

    #[test]
    fn split_output_is_pure_structure() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), Ty::Unit);
        let m = mfix(ann, strct(carrow(Con::Int, fst(0)), Term::Star));
        let s = split_module(&tc, &mut ctx, &m).unwrap();
        assert!(is_pure_structure(&s.clone().into_module()));
    }

    #[test]
    fn dynamic_recursion_redirects_to_fix_variable() {
        // fix(s : [α:1. int ⇀ int] . [*, λx:int. snd(s) x])
        // — a recursive function packaged as a module.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
        let body = strct(Con::Star, lam(tcon(Con::Int), app(snd(1), var(0))));
        let m = mfix(ann, body);
        let s = split_module(&tc, &mut ctx, &m).unwrap();
        let Term::Fix(_, fix_body) = &s.term else {
            panic!()
        };
        // snd(s) became the fix-bound variable: λx. f x with f = Var(1).
        assert_eq!(**fix_body, lam(tcon(Con::Int), app(var(1), var(0))));
    }

    #[test]
    fn split_sig_resolves_rds() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = rds(Sig::Struct(
            recmod_syntax::intern::hc(q(carrow(Con::Int, fst(0)))),
            Box::new(tcon(cvar(0))),
        ));
        let (k, t) = split_sig(&tc, &mut ctx, &s).unwrap();
        assert_eq!(k, q(mu(tkind(), carrow(Con::Int, cvar(0)))));
        assert_eq!(t, tcon(cvar(0)));
    }
}
