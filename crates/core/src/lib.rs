//! # recmod
//!
//! A complete implementation of Crary, Harper, and Puri's *"What is a
//! Recursive Module?"* (PLDI 1999): the phase-distinction calculus with
//! singleton kinds and equi-recursive constructors, recursive modules
//! `fix(s:S.M)`, recursively-dependent signatures `ρs.S`, the
//! phase-splitting interpretations of Figures 4 and 5, an SML-like
//! external language, and an instrumented evaluator.
//!
//! This crate is the facade: it re-exports the workspace crates and
//! provides the end-to-end [`run`] pipeline plus the paper's example
//! [`corpus`].
//!
//! ## Pipeline
//!
//! ```text
//! source ──parse──▶ surface AST ──elaborate──▶ internal modules
//!        ──typecheck (kernel)──▶ signatures
//!        ──phase-split (Fig. 4/5)──▶ pure structure calculus
//!        ──link + erase──▶ closed term ──evaluate──▶ value
//! ```
//!
//! ## Example
//!
//! Run the paper's transparent recursive `List` module end to end:
//!
//! ```
//! let program = recmod::corpus::list_program(false, 10);
//! let outcome = recmod::run(&program).unwrap();
//! assert_eq!(outcome.value_int(), Some(55)); // 10 + 9 + … + 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod stats;

use std::rc::Rc;

pub use recmod_driver as driver;
pub use recmod_eval as eval;
pub use recmod_kernel as kernel;
pub use recmod_phase as phase;
pub use recmod_surface as surface;
pub use recmod_syntax as syntax;
pub use recmod_telemetry as telemetry;

pub use stats::StatsReport;

pub use recmod_surface::{compile, compile_with, compile_with_limits, Compiled, SurfaceError};
pub use recmod_telemetry::{LimitExceeded, LimitKind, Limits};

/// The result of running a program end to end.
#[derive(Debug)]
pub struct Outcome {
    /// The compiled program (bindings, signatures, linked term).
    pub compiled: Compiled,
    /// The main expression's value, if the program had one. Its
    /// evaluator is gone, so a recursive function inside it can be
    /// inspected but not called: the call fails with
    /// [`recmod_eval::EvalError::BlackHole`] (see [`recmod_eval::Interp`]).
    pub value: Option<Rc<recmod_eval::Value>>,
    /// Evaluation steps taken (0 when there was no main expression).
    pub steps: u64,
}

impl Outcome {
    /// The main value as an integer, if it is one.
    pub fn value_int(&self) -> Option<i64> {
        self.value.as_ref().and_then(|v| v.as_int().ok())
    }

    /// The main value as a boolean, if it is one.
    pub fn value_bool(&self) -> Option<bool> {
        self.value.as_ref().and_then(|v| v.as_bool().ok())
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Parsing, elaboration, or typechecking failed.
    Compile(SurfaceError),
    /// Evaluation failed.
    Eval(recmod_eval::EvalError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl PipelineError {
    /// Renders with line/column info when the error has a source span.
    pub fn render(&self, src: &str) -> String {
        match self {
            PipelineError::Compile(e) => e.render(src),
            PipelineError::Eval(e) => e.to_string(),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SurfaceError> for PipelineError {
    fn from(e: SurfaceError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<recmod_eval::EvalError> for PipelineError {
    fn from(e: recmod_eval::EvalError) -> Self {
        PipelineError::Eval(e)
    }
}

/// Compiles and runs a program: parse → elaborate → typecheck →
/// phase-split → link → evaluate.
///
/// # Errors
///
/// Any compile-time error (with source span) or run-time failure.
pub fn run(src: &str) -> Result<Outcome, PipelineError> {
    run_with_fuel(src, recmod_eval::DEFAULT_EVAL_FUEL)
}

/// [`run`] with an explicit evaluation step budget.
///
/// # Errors
///
/// As [`run`]; exceeding the budget yields
/// [`recmod_eval::EvalError::FuelExhausted`].
pub fn run_with_fuel(src: &str, fuel: u64) -> Result<Outcome, PipelineError> {
    let compiled = compile(src)?;
    let mut interp = recmod_eval::Interp::with_fuel(fuel);
    let (value, steps) = match compiled.main {
        Some(_) => {
            let term = compiled.program();
            let v = interp.run(&term)?;
            (Some(v), interp.steps())
        }
        None => (None, 0),
    };
    Ok(Outcome {
        compiled,
        value,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_a_trivial_program() {
        let out = run("1 + 2 * 3").unwrap();
        assert_eq!(out.value_int(), Some(7));
        assert!(out.steps > 0);
    }

    #[test]
    fn reports_compile_errors() {
        assert!(matches!(run("unbound"), Err(PipelineError::Compile(_))));
    }

    #[test]
    fn reports_runtime_failures() {
        assert!(matches!(
            run("(raise Fail : int)"),
            Err(PipelineError::Eval(recmod_eval::EvalError::Failure))
        ));
    }
}
