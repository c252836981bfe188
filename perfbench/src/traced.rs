//! The traced pipeline: the batch driver's per-file steps called one by
//! one through the public surface API, with a span around each call and
//! counter deltas from `Tc::stats()`, `intern_stats()` and
//! `Interp::stats()`.
//!
//! The loop mirrors `compile_with_limits_in` on one warm elaborator
//! (renewed between files, as a batch worker does), so its verdicts must
//! equal the batch driver's. With the recorder off it is the untraced
//! baseline for the tracing overhead.

use std::time::Instant;

use recmod::eval::{EvalStats, Interp, DEFAULT_EVAL_FUEL};
use recmod::kernel::KernelStats;
use recmod::surface::lexer::lex_recover;
use recmod::surface::{parse_with, Compiled, Elaborator, ErrorKind, Limits, SurfaceError};
use recmod::syntax::intern::intern_stats;

use crate::spans::Recorder;

/// One input of the traced loop.
#[derive(Debug, Clone)]
pub struct Input {
    /// The source.
    pub source: String,
    /// The expected main value when the program should also be linked and
    /// evaluated.
    pub run: Option<i64>,
}

/// What one traced pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Per input: `None` when it compiled, else its diagnostic codes in
    /// source order.
    pub verdicts: Vec<Option<Vec<&'static str>>>,
    /// Inputs whose evaluated value differed from the expected one.
    pub wrong_values: u64,
    /// Kernel counters summed over the pass.
    pub kernel: KernelStats,
    /// Interner hits and misses on this thread over the pass.
    pub intern: (u64, u64),
    /// Evaluator counters summed over the pass.
    pub eval: EvalStats,
    /// Wall-clock seconds of the whole pass.
    pub seconds: f64,
    /// The recorder, holding the spans.
    pub recorder: Recorder,
}

/// Runs every input once through lex → parse → elaborate (kernel and
/// phase split included) → link → evaluate on one big-stack thread.
pub fn pass(inputs: Vec<Input>, trace: bool) -> Pass {
    recmod::eval::run_big_stack(512, move || {
        let mut rec = Recorder::new(trace);
        let limits = Limits::default();
        let mut elab = Elaborator::with_limits(limits);
        let mut kernel = KernelStats::default();
        let mut eval = EvalStats::default();
        let mut verdicts = Vec::with_capacity(inputs.len());
        let mut wrong_values = 0;
        let intern0 = intern_stats();
        let t0 = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            rec.begin_trace(i as u64 + 1);
            let file = rec.open("file");
            elab.renew(limits);
            recmod::telemetry::diag::clear_failure();
            let before = elab.tc.stats();
            let (verdict, main) = check(&mut elab, &input.source, &limits, &mut rec);
            add_kernel(&mut kernel, &elab.tc.stats().delta_since(&before));
            if let (None, Some(expect), Some(term)) = (&verdict, input.run, main) {
                let compiled = Compiled {
                    elab,
                    main: Some(term),
                };
                let s = rec.open("surface.link");
                let program = compiled.program();
                rec.close(s);
                elab = compiled.elab;
                let mut interp = Interp::with_fuel(DEFAULT_EVAL_FUEL);
                let s = rec.open("eval.run");
                let value = interp.run(&program).ok().and_then(|v| v.as_int().ok());
                rec.close(s);
                let st = interp.stats();
                eval.steps += st.steps;
                eval.closures += st.closures;
                eval.backpatches += st.backpatches;
                if value != Some(expect) {
                    wrong_values += 1;
                }
            }
            rec.close(file);
            verdicts.push(verdict);
        }
        let seconds = t0.elapsed().as_secs_f64();
        let intern1 = intern_stats();
        Pass {
            verdicts,
            wrong_values,
            kernel,
            intern: (intern1.hits - intern0.hits, intern1.misses - intern0.misses),
            eval,
            seconds,
            recorder: rec,
        }
    })
}

/// Checks one source the way `compile_with_limits_in` does, returning its
/// diagnostic codes (or `None` when it compiled) and the elaborated main
/// expression.
fn check(
    elab: &mut Elaborator,
    src: &str,
    limits: &Limits,
    rec: &mut Recorder,
) -> (Option<Vec<&'static str>>, Option<recmod::syntax::ast::Term>) {
    // `parse_with` lexes internally; lexing once more on its own gives the
    // lexer's share.
    let s = rec.open("surface.lex");
    let lexed = lex_recover(src, limits);
    rec.close(s);
    drop(lexed);
    let s = rec.open("surface.parse_with");
    let parsed = parse_with(src, limits);
    rec.close(s);
    let prog = match parsed {
        Ok(p) => p,
        Err(errs) => return (Some(codes(errs)), None),
    };
    let mut errors: Vec<SurfaceError> = Vec::new();
    for d in &prog.decls {
        let s = rec.open("surface.elab_topdec");
        let r = elab.elab_topdec(d);
        rec.close(s);
        if let Err(e) = r {
            let stop = e.is_limit();
            errors.push(e);
            if stop {
                return (Some(codes(errors)), None);
            }
        }
    }
    let mut main = None;
    if let Some(e) = &prog.main {
        let s = rec.open("surface.elab_exp");
        let r = elab.elab_exp(e).and_then(|term| {
            elab.tc
                .synth_term(&mut elab.ctx, &term)
                .map_err(|err| SurfaceError::new(e.span(), ErrorKind::Type(err)))?;
            Ok(term)
        });
        rec.close(s);
        match r {
            Ok(term) => main = Some(term),
            Err(err) => errors.push(err),
        }
    }
    if errors.is_empty() {
        (None, main)
    } else {
        (Some(codes(errors)), None)
    }
}

fn codes(mut errors: Vec<SurfaceError>) -> Vec<&'static str> {
    errors.sort_by_key(|e| (e.span.start, e.span.end));
    errors.iter().map(SurfaceError::code).collect()
}

fn add_kernel(sum: &mut KernelStats, d: &KernelStats) {
    for (s, x) in sum.fuel_by_op.iter_mut().zip(d.fuel_by_op) {
        *s += x;
    }
    sum.mu_unrolls += d.mu_unrolls;
    sum.whnf_steps += d.whnf_steps;
    sum.assumption_inserts += d.assumption_inserts;
    sum.assumption_hwm = sum.assumption_hwm.max(d.assumption_hwm);
    sum.singleton_shortcuts += d.singleton_shortcuts;
    sum.whnf_cache_hits += d.whnf_cache_hits;
    sum.whnf_cache_misses += d.whnf_cache_misses;
    sum.equiv_ptr_eqs += d.equiv_ptr_eqs;
    sum.equiv_cache_hits += d.equiv_cache_hits;
    sum.eval_steps += d.eval_steps;
    sum.quote_nodes += d.quote_nodes;
    sum.env_allocs += d.env_allocs;
    sum.synth_cache_hits += d.synth_cache_hits;
    sum.synth_cache_misses += d.synth_cache_misses;
}
