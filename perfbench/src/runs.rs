//! The run path: `recmod::run` (compile, link, evaluate) on a big stack.

use std::time::Instant;

/// One program to run: display name, source, expected integer value.
pub type Case = (String, String, i64);

/// Runs every case once on one big-stack thread and returns, per case,
/// the wall-clock milliseconds and whether the value was the expected one.
pub fn pass(cases: Vec<Case>) -> Vec<(f64, bool)> {
    recmod::eval::run_big_stack(512, move || {
        cases
            .into_iter()
            .map(|(name, source, expect)| {
                let t0 = Instant::now();
                let got = recmod::run(&source).map(|out| out.value_int());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(got, Ok(Some(v)) if v == expect);
                if !ok {
                    eprintln!("WRONG value for {name}: expected {expect}, got {got:?}");
                }
                (ms, ok)
            })
            .collect()
    })
}
