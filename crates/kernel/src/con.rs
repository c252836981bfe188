//! Constructor kinding (paper appendix A.1).
//!
//! [`Tc::synth_con`] computes a *principal* kind: variables, `Fst`
//! projections, and the monotype formers are selfified (given their
//! most-transparent singleton kind, per Figure 2), so that all available
//! type-sharing information is retained. [`Tc::check_con`] combines
//! synthesis with subkinding.

use recmod_syntax::ast::{Con, Kind, Sig};
use recmod_syntax::intern::{hc, Internable};
use recmod_syntax::subst::{shift_kind, subst_con_kind};
use recmod_telemetry::{count, Counter};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::singleton::selfify;
use crate::Tc;

impl Tc {
    /// `Γ ⊢ c : κ` — synthesizes the principal kind of `c`.
    pub fn synth_con(&self, ctx: &mut Ctx, c: &Con) -> TcResult<Kind> {
        let _j = recmod_telemetry::judgement_span("kernel.synth_con");
        let _depth = self.descend("synth_con")?;
        self.burn(crate::stats::FuelOp::ConKinding)?;
        let _trace = recmod_telemetry::trace_span(|| format!("{} : ?", show::con(c)));
        let leaf = matches!(
            c,
            Con::Var(_) | Con::Fst(_) | Con::Star | Con::Int | Con::Bool | Con::UnitTy
        );
        if leaf || c.fv_bound_shallow() != 0 {
            return self.synth_con_rule(ctx, c);
        }
        // A closed compound constructor: its principal kind does not
        // depend on the context, so it is memoized by node id. The node
        // is held until the entry is stored, so the kind's own copy of
        // `c` (selfification) shares its id.
        let node = hc(c.clone());
        if let Some(k) = self.closed_kind_cached(node.id()) {
            count(Counter::KernelSynthCacheHit, 1);
            return Ok(k);
        }
        count(Counter::KernelSynthCacheMiss, 1);
        let k = self.synth_con_rule(ctx, c)?;
        self.closed_kind_remember(node.id(), k.clone());
        Ok(k)
    }

    /// The kinding rule for `c`'s head former (appendix A.1), below the
    /// closed-kind memo of [`Tc::synth_con`].
    fn synth_con_rule(&self, ctx: &mut Ctx, c: &Con) -> TcResult<Kind> {
        match c {
            Con::Var(i) => {
                let k = ctx.lookup_con(*i)?;
                Ok(selfify(c, &k))
            }
            Con::Fst(i) => {
                let (sig, _) = ctx.lookup_struct(*i)?;
                match sig {
                    Sig::Struct(k, _) => Ok(selfify(c, &k)),
                    s => raise(TypeError::Other(format!(
                        "structure variable with unresolved signature {}",
                        show::sig(&s)
                    ))),
                }
            }
            Con::Star => Ok(Kind::Unit),
            Con::Lam(k, body) => {
                self.wf_kind(ctx, k)?;
                let k2 = ctx.with_con((**k).clone(), |ctx| self.synth_con(ctx, body))?;
                Ok(Kind::Pi(k.clone(), hc(k2)))
            }
            Con::App(f, a) => {
                let fk = self.synth_con(ctx, f)?;
                let (k1, k2) = self.expect_pi(&fk)?;
                self.check_con(ctx, a, &k1)?;
                Ok(subst_con_kind(&k2, a))
            }
            Con::Pair(a, b) => {
                let ka = self.synth_con(ctx, a)?;
                let kb = self.synth_con(ctx, b)?;
                Ok(Kind::Sigma(hc(ka), hc(shift_kind(&kb, 1, 0))))
            }
            Con::Proj1(p) => {
                let pk = self.synth_con(ctx, p)?;
                let (k1, _) = self.expect_sigma(&pk)?;
                Ok(k1)
            }
            Con::Proj2(p) => {
                let pk = self.synth_con(ctx, p)?;
                let (_, k2) = self.expect_sigma(&pk)?;
                Ok(subst_con_kind(&k2, &Con::Proj1(p.clone())))
            }
            Con::Mu(k, body) => {
                // Γ ⊢ κ kind   Γ[α:κ] ⊢ c : κ   ⟹   Γ ⊢ μα:κ.c : κ
                self.wf_kind(ctx, k)?;
                ctx.with_con((**k).clone(), |ctx| {
                    let kin = shift_kind(k, 1, 0);
                    self.check_con(ctx, body, &kin)
                })?;
                Ok(selfify(c, k))
            }
            Con::Int | Con::Bool | Con::UnitTy => Ok(Kind::Singleton(hc(c.clone()))),
            Con::Arrow(a, b) | Con::Prod(a, b) => {
                self.check_con(ctx, a, &Kind::Type)?;
                self.check_con(ctx, b, &Kind::Type)?;
                Ok(Kind::Singleton(hc(c.clone())))
            }
            Con::Sum(cs) => {
                for summand in cs {
                    self.check_con(ctx, summand, &Kind::Type)?;
                }
                Ok(Kind::Singleton(hc(c.clone())))
            }
        }
    }

    /// `Γ ⊢ c : κ` — checks `c` against a given kind via subkinding.
    pub fn check_con(&self, ctx: &mut Ctx, c: &Con, k: &Kind) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.check_con");
        let _depth = self.descend("check_con")?;
        let found = self.synth_con(ctx, c)?;
        self.subkind(ctx, &found, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    #[test]
    fn base_types_are_singletons() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(tc.synth_con(&mut ctx, &Con::Int).unwrap(), q(Con::Int));
    }

    #[test]
    fn variables_are_selfified() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(tkind(), |ctx| {
            assert_eq!(tc.synth_con(ctx, &cvar(0)).unwrap(), q(cvar(0)));
        });
    }

    #[test]
    fn lambda_gets_pi_kind() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let id = clam(tkind(), cvar(0));
        assert_eq!(
            tc.synth_con(&mut ctx, &id).unwrap(),
            pi(tkind(), q(cvar(0)))
        );
    }

    #[test]
    fn application_checks_domain() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let id = clam(tkind(), cvar(0));
        // id int : Q(int) via substitution into the selfified codomain.
        assert_eq!(
            tc.synth_con(&mut ctx, &capp(id.clone(), Con::Int)).unwrap(),
            q(Con::Int)
        );
        // id * fails: kind 1 is not a subkind of T.
        assert!(tc.synth_con(&mut ctx, &capp(id, Con::Star)).is_err());
    }

    #[test]
    fn mu_checks_body_at_annotation() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let good = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(tc.synth_con(&mut ctx, &good).unwrap(), q(good.clone()));
        // μα:T.* is ill-kinded: * has kind 1, not T.
        let bad = mu(tkind(), Con::Star);
        assert!(tc.synth_con(&mut ctx, &bad).is_err());
    }

    #[test]
    fn mu_at_singleton_kind_is_wellformed_and_collapses() {
        // μα:Q(int).α : Q(int) — the paper's §2.1 example.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(q(Con::Int), cvar(0));
        let k = tc.synth_con(&mut ctx, &c).unwrap();
        assert_eq!(k, q(Con::Int));
    }

    #[test]
    fn pair_and_projections() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let p = cpair(Con::Int, Con::Bool);
        let k = tc.synth_con(&mut ctx, &p).unwrap();
        assert_eq!(k, Kind::times(q(Con::Int), q(Con::Bool)));
        assert_eq!(
            tc.synth_con(&mut ctx, &cproj1(p.clone())).unwrap(),
            q(Con::Int)
        );
        assert_eq!(tc.synth_con(&mut ctx, &cproj2(p)).unwrap(), q(Con::Bool));
    }

    #[test]
    fn star_has_unit_kind() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert_eq!(tc.synth_con(&mut ctx, &Con::Star).unwrap(), unit_kind());
    }

    #[test]
    fn arrow_requires_monotype_components() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let bad = carrow(Con::Star, Con::Int);
        assert!(tc.synth_con(&mut ctx, &bad).is_err());
    }

    #[test]
    fn unbound_variable_reported() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        assert!(matches!(
            tc.synth_con(&mut ctx, &cvar(0)),
            Err(TypeError::Unbound { .. })
        ));
    }

    #[test]
    fn failed_kinding_is_not_memoized() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        // The closed component int × bool kinds fine and is memoized;
        // the closed root fails (* is not a monotype) and is not.
        let part = cprod(Con::Int, Con::Bool);
        let bad = carrow(part.clone(), Con::Star);
        for _ in 0..2 {
            assert!(tc.synth_con(&mut ctx, &bad).is_err());
        }
        let table = tc.closed_kind.borrow();
        assert!(table.contains_key(&hc(part).id()));
        assert!(!table.contains_key(&hc(bad).id()));
        // The second failing run re-derived the root: one miss per run.
        assert_eq!(tc.stats().synth_cache_misses, 3);
    }

    #[test]
    fn open_constructors_bypass_the_table() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(tkind(), |ctx| {
            let open = carrow(cvar(0), Con::Int);
            for _ in 0..2 {
                assert_eq!(tc.synth_con(ctx, &open).unwrap(), q(open.clone()));
            }
        });
        assert!(tc.closed_kind.borrow().is_empty());
        let stats = tc.stats();
        assert_eq!((stats.synth_cache_hits, stats.synth_cache_misses), (0, 0));
    }

    #[test]
    fn renew_keeps_the_closed_kind_memo() {
        let mut tc = Tc::new();
        let mut ctx = Ctx::new();
        let c = mu(tkind(), carrow(Con::Int, cvar(0)));
        let k = tc.synth_con(&mut ctx, &c).unwrap();
        tc.renew(crate::Limits::default());
        let before = tc.stats();
        assert_eq!(tc.synth_con(&mut Ctx::new(), &c).unwrap(), k);
        let delta = tc.stats().delta_since(&before);
        assert_eq!(delta.synth_cache_hits, 1);
        // A hit burns the one fuel unit of the call and nothing below it.
        assert_eq!(delta.fuel_used(), 1);
    }

    #[test]
    fn higher_order_sharing_deduction_of_figure_2() {
        // If c has kind Πα:T.Q(list α) then c = list : T→T. We model
        // `list` as an opaque variable l and take c's declared kind to be
        // Πα:T.Q(l α); then c must be equivalent to l at Πα:T.T.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(pi(tkind(), tkind()), |ctx| {
            // l is index 0 here.
            let k_c = pi(tkind(), q(capp(cvar(1), cvar(0))));
            ctx.with_con(k_c, |ctx| {
                // Now c is index 0, l is index 1.
                tc.con_equiv(ctx, &cvar(0), &cvar(1), &pi(tkind(), tkind()))
                    .unwrap();
            });
        });
    }
}
