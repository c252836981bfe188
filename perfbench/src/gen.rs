//! Seeded generator of paper-shaped surface programs, each carrying its
//! known verdict.
//!
//! Every program is built from a template whose typing derivation is
//! fixed by the family, so the verdict is known by construction: a
//! well-typed program also carries the value of its main expression,
//! an ill-typed one the code of its first diagnostic. The families follow
//! the paper's sections:
//!
//! * `opaque_rec`: an opaque `structure rec` list module (§3.1);
//! * `rds_k`: a recursively-dependent signature with `k` mutually
//!   recursive datatypes (§4);
//! * `build_list_rds` / `build_list_plain`: the `BuildList` functor with
//!   an rds parameter (accepted) or a plain one (rejected, §4);
//! * `expr_decl_rds` / `expr_decl_opaque`: the `Expr`/`Decl` pair (§3.1,
//!   §4);
//! * `nested_mu`: datatypes nested `d` deep inside one recursive module,
//!   which phase-split into nested μ towers (§5);
//! * `chain`: plain module chains, elaboration-heavy and kernel-light;
//! * ill-typed variants: a type clash or an unbound path inside a chain,
//!   and the value restriction on a recursive module.

use std::fmt::Write as _;

/// SplitMix64: a deterministic 64-bit generator with one word of state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi` (the slight modulo bias is irrelevant here).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The verdict a generated program must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Well typed; the main expression evaluates to this integer.
    Ok(i64),
    /// Ill typed; the first diagnostic (by source position) has this code.
    Err(&'static str),
}

/// Size knobs recorded per generated file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Top-level declarations, main expression excluded.
    pub decls: usize,
    /// Depth of μ nesting in the widest recursive type (0 when the
    /// program has no recursive type).
    pub mu_depth: usize,
    /// `val` specifications in the widest signature.
    pub sig_width: usize,
}

/// One generated program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name, unique within one generated set.
    pub name: String,
    /// The family the program was drawn from.
    pub family: &'static str,
    /// The surface source.
    pub source: String,
    /// The verdict the checker must give.
    pub expect: Expect,
    /// Size knobs.
    pub knobs: Knobs,
}

/// How large the generated programs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Batch-check inputs: every family at its full size range.
    Full,
    /// Serve inputs: the same families with smaller knobs.
    Small,
}

/// The families with their shares (per mille) of a generated set. About
/// a fifth of the share is on ill-typed families.
const FAMILIES: [(&str, usize); 11] = [
    ("opaque_rec", 120),
    ("rds_k", 190),
    ("build_list_rds", 100),
    ("expr_decl_rds", 100),
    ("nested_mu", 110),
    ("chain", 180),
    ("build_list_plain", 50),
    ("expr_decl_opaque", 50),
    ("chain_clash", 50),
    ("chain_unbound", 30),
    ("value_restriction", 20),
];

/// Generates `count` programs from `seed`. The same arguments always give
/// byte-identical output.
///
/// The set is stratified so that every seed costs about the same to
/// check: each family gets its fixed share, and within a family the size
/// knobs step evenly through their ranges. The seed picks where each
/// family's knob sequence starts, every constant and name, and the order.
pub fn generate(seed: u64, count: usize, scale: Scale) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x7265_636d_6f64);
    let mut slots: Vec<(&'static str, usize)> = Vec::with_capacity(count);
    let mut assigned = 0;
    for (f, (family, share)) in FAMILIES.iter().enumerate() {
        let n = if f + 1 == FAMILIES.len() {
            count - assigned
        } else {
            (count * share).div_ceil(1000).min(count - assigned)
        };
        assigned += n;
        let offset = rng.range(0, 63);
        slots.extend((0..n).map(|j| (*family, j + offset)));
    }
    // Fisher–Yates shuffle.
    for i in (1..slots.len()).rev() {
        let j = rng.range(0, i);
        slots.swap(i, j);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (family, j))| {
            let mut p = draw(&mut rng, family, j, scale);
            p.name = format!("gen/{i:05}_{}.rm", p.family);
            p
        })
        .collect()
}

/// The `j`-th step through `lo..=hi`.
fn step(j: usize, lo: usize, hi: usize) -> usize {
    lo + j % (hi - lo + 1)
}

/// The `j`-th program of `family`.
fn draw(rng: &mut Rng, family: &'static str, j: usize, scale: Scale) -> Program {
    let small = scale == Scale::Small;
    let width = step(j / 3, 0, if small { 2 } else { 6 });
    match family {
        "opaque_rec" => opaque_rec(rng, width),
        // Kernel cost is superlinear in k: one program in eight is large.
        "rds_k" if small => rds_k(rng, step(j, 1, 3)),
        "rds_k" if j % 8 == 7 => rds_k(rng, step(j / 8, 6, 9)),
        "rds_k" => rds_k(rng, step(j, 1, 5)),
        "build_list_rds" => build_list(rng, width, true),
        "build_list_plain" => build_list(rng, width, false),
        "expr_decl_rds" => expr_decl(rng, true),
        "expr_decl_opaque" => expr_decl(rng, false),
        "nested_mu" => nested_mu(rng, if small { step(j, 1, 3) } else { step(j, 2, 6) }),
        "chain" | "chain_clash" | "chain_unbound" => {
            let n = if small {
                step(j, 3, 10)
            } else {
                step(j, 6, 40)
            };
            let fault = match family {
                "chain_clash" => Some(ChainFault::Clash),
                "chain_unbound" => Some(ChainFault::Unbound),
                _ => None,
            };
            chain(rng, n, width, fault)
        }
        _ => value_restriction(rng),
    }
}

fn program(family: &'static str, source: String, expect: Expect, knobs: Knobs) -> Program {
    Program {
        name: String::new(),
        family,
        source,
        expect,
        knobs,
    }
}

/// Extra `val cI : int` specifications (and their definitions) that
/// widen a signature; returns `(specs, defs, sum of the values)`.
fn widen(rng: &mut Rng, width: usize) -> (String, String, i64) {
    let mut specs = String::new();
    let mut defs = String::new();
    let mut sum = 0;
    for i in 0..width {
        let v = rng.range(0, 99) as i64;
        let _ = writeln!(specs, "  val c{i} : int");
        let _ = writeln!(defs, "  val c{i} = {v}");
        sum += v;
    }
    (specs, defs, sum)
}

/// `M.c0 + M.c1 + …` for a widened module `m` (or `0`).
fn widen_sum(m: &str, width: usize) -> String {
    if width == 0 {
        return "0".to_string();
    }
    (0..width)
        .map(|i| format!("{m}.c{i}"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// The `build`/`total` driver over a list module `m`, summing 1..=n.
fn list_driver(m: &str, n: usize, extra: &str) -> String {
    format!(
        "fun build (n : int) : {m}.t =\n  if n = 0 then {m}.nil else {m}.cons (n, build (n - 1))\n\
         fun total (l : {m}.t) : int =\n  if {m}.null l then 0\n  \
         else (case {m}.uncons l of (h, rest) => h + total rest)\n;\ntotal (build {n}) + {extra}\n"
    )
}

fn opaque_rec(rng: &mut Rng, width: usize) -> Program {
    let m = format!("L{}", rng.range(0, 999));
    let n = rng.range(2, 8);
    let (specs, defs, sum) = widen(rng, width);
    let mut src = format!(
        "signature LIST = sig\n  type t\n  val nil : t\n  val null : t -> bool\n  \
         val cons : int * t -> t\n  val uncons : t -> int * t\n{specs}end\n\n\
         structure rec {m} :> LIST = struct\n  datatype t = NIL | CONS of int * {m}.t\n  \
         val nil = NIL\n  fun null (l : t) : bool = case l of NIL => true | CONS p => false\n  \
         fun toSelf (l : t) : {m}.t =\n    case l of\n      NIL => {m}.nil\n    \
         | CONS p => (case p of (h, rest) => {m}.cons (h, rest))\n  \
         fun fromSelf (x : {m}.t) : t =\n    if {m}.null x then NIL\n    \
         else (case {m}.uncons x of (h, y) => CONS (h, y))\n  \
         fun cons (p : int * t) : t = case p of (h, l) => CONS (h, toSelf l)\n  \
         fun uncons (l : t) : int * t =\n    case l of\n      NIL => (raise Fail : int * t)\n    \
         | CONS p => (case p of (h, rest) => (h, fromSelf rest))\n{defs}end\n\n"
    );
    src.push_str(&list_driver(&m, n, &widen_sum(&m, width)));
    let value = (n * (n + 1) / 2) as i64 + sum;
    program(
        "opaque_rec",
        src,
        Expect::Ok(value),
        Knobs {
            decls: 4,
            mu_depth: 1,
            sig_width: 4 + width,
        },
    )
}

fn rds_k(rng: &mut Rng, k: usize) -> Program {
    let mut types = String::new();
    let mut specs = String::new();
    let mut funs = String::new();
    for i in 0..k {
        let next = (i + 1) % k;
        let _ = writeln!(types, "  datatype t{i} = Z{i} | S{i} of int * M.t{next}");
        let _ = writeln!(specs, "  val size{i} : t{i} -> int");
        let _ = writeln!(
            funs,
            "  fun size{i} (x : t{i}) : int =\n    \
             case x of Z{i} => 0 | S{i} p => (case p of (n, r) => n + M.size{next} r)"
        );
    }
    // main: S0 (v0, S1 (v1, … S{k-1} (v{k-1}, Z0)))
    let vals: Vec<i64> = (0..k).map(|_| rng.range(1, 50) as i64).collect();
    let mut value_exp = "M.Z0".to_string();
    for i in (0..k).rev() {
        value_exp = format!("M.S{i} ({}, {value_exp})", vals[i]);
    }
    let src = format!(
        "structure rec M : sig\n{types}{specs}end = struct\n{types}{funs}end\n;\nM.size0 ({value_exp})\n"
    );
    program(
        "rds_k",
        src,
        Expect::Ok(vals.iter().sum()),
        Knobs {
            decls: 1,
            mu_depth: k,
            sig_width: k,
        },
    )
}

fn build_list(rng: &mut Rng, width: usize, rds: bool) -> Program {
    let n = rng.range(2, 12);
    let (specs, defs, sum) = widen(rng, width);
    let ops = "  val nil : t\n  val null : t -> bool\n  val cons : int * t -> t\n  \
               val uncons : t -> int * t\n";
    let body = format!(
        "  datatype t = NIL | CONS of int * List.t\n  val nil = NIL\n  \
         fun null (l : t) : bool = case l of NIL => true | CONS p => false\n  \
         fun cons (p : int * t) : t = CONS p\n  fun uncons (l : t) : int * t =\n    \
         case l of NIL => (raise Fail : int * t) | CONS p => p\n{defs}"
    );
    if !rds {
        let src = format!(
            "signature LIST = sig\n  type t\n{ops}{specs}end\n\n\
             functor BuildList (structure List : LIST) = struct\n{body}end\n"
        );
        return program(
            "build_list_plain",
            src,
            Expect::Err("K011"),
            Knobs {
                decls: 2,
                mu_depth: 1,
                sig_width: 4 + width,
            },
        );
    }
    let sig = format!("sig\n  datatype t = NIL | CONS of int * List.t\n{ops}{specs}end");
    let mut src = format!(
        "functor BuildList (structure rec List : {sig}) = struct\n{body}end\n\n\
         structure rec List : {sig} = BuildList (structure List = List)\n\n"
    );
    src.push_str(&list_driver("List", n, &widen_sum("List", width)));
    program(
        "build_list_rds",
        src,
        Expect::Ok((n * (n + 1) / 2) as i64 + sum),
        Knobs {
            decls: 4,
            mu_depth: 2,
            sig_width: 4 + width,
        },
    )
}

fn expr_decl(rng: &mut Rng, rds: bool) -> Program {
    if !rds {
        let src = recmod::corpus::EXPR_DECL_OPAQUE.to_string();
        return program(
            "expr_decl_opaque",
            src,
            Expect::Err("K011"),
            Knobs {
                decls: 4,
                mu_depth: 2,
                sig_width: 4,
            },
        );
    }
    // make_let_val nested d deep: size = 2d + 1.
    let d = rng.range(1, 6);
    let mut e = format!("Expr.make_var {}", rng.range(0, 99));
    for i in 0..d {
        e = format!(
            "Expr.make_let_val ({i}, Expr.make_var {}, {e})",
            rng.range(0, 99)
        );
    }
    let src = format!(
        "{}\n;\nExpr.size ({e})\n",
        recmod::corpus::EXPR_DECL_RDS.trim_end()
    );
    program(
        "expr_decl_rds",
        src,
        Expect::Ok(2 * d as i64 + 1),
        Knobs {
            decls: 3,
            mu_depth: 2,
            sig_width: 6,
        },
    )
}

fn nested_mu(rng: &mut Rng, d: usize) -> Program {
    let mut types = String::new();
    let mut specs = String::new();
    let mut funs = String::new();
    for i in 0..d {
        let payload = if i == 0 {
            "int".to_string()
        } else {
            format!("N.t{}", i - 1)
        };
        let _ = writeln!(types, "  datatype t{i} = E{i} | C{i} of {payload} * N.t{i}");
        let _ = writeln!(specs, "  val len{i} : t{i} -> int");
        let head = if i == 0 {
            "a".to_string()
        } else {
            format!("N.len{} a", i - 1)
        };
        let _ = writeln!(
            funs,
            "  fun len{i} (x : t{i}) : int =\n    \
             case x of E{i} => 0 | C{i} p => (case p of (a, r) => {head} + N.len{i} r)"
        );
    }
    // main: C{d-1} (… C1 (C0 (v, E0), E1) …, E{d-1}) has len = v.
    let v = rng.range(1, 99) as i64;
    let mut value_exp = format!("N.C0 ({v}, N.E0)");
    for i in 1..d {
        value_exp = format!("N.C{i} ({value_exp}, N.E{i})");
    }
    let src = format!(
        "structure rec N : sig\n{types}{specs}end = struct\n{types}{funs}end\n;\nN.len{} ({value_exp})\n",
        d - 1
    );
    program(
        "nested_mu",
        src,
        Expect::Ok(v),
        Knobs {
            decls: 1,
            mu_depth: d,
            sig_width: d,
        },
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainFault {
    Clash,
    Unbound,
}

fn chain(rng: &mut Rng, n: usize, width: usize, fault: Option<ChainFault>) -> Program {
    let (_, defs, _) = widen(rng, width);
    let defs = defs.replace('\n', " ");
    let broken = rng.range(1, n - 1);
    let mut src = format!(
        "structure S0 = struct type t = int val x = 0 fun bump (a : t) : t = a + 1 {defs}end\n"
    );
    for i in 1..n {
        let p = i - 1;
        let arg = match fault {
            Some(ChainFault::Clash) if i == broken => "true".to_string(),
            Some(ChainFault::Unbound) if i == broken => format!("S{p}.y"),
            _ => format!("S{p}.x"),
        };
        let _ = writeln!(
            src,
            "structure S{i} = struct type t = S{p}.t val x = S{p}.bump {arg} \
             fun bump (a : t) : t = S{p}.bump a {defs}end"
        );
    }
    let _ = write!(src, ";\nS{}.x\n", n - 1);
    let (family, expect) = match fault {
        None => ("chain", Expect::Ok(n as i64 - 1)),
        Some(ChainFault::Clash) => ("chain_clash", Expect::Err("K011")),
        Some(ChainFault::Unbound) => ("chain_unbound", Expect::Err("S003")),
    };
    program(
        family,
        src,
        expect,
        Knobs {
            decls: n,
            mu_depth: 0,
            sig_width: 0,
        },
    )
}

fn value_restriction(rng: &mut Rng) -> Program {
    let m = format!("B{}", rng.range(0, 999));
    let src =
        format!("structure rec {m} : sig\n  val v : int\nend = struct\n  val v = {m}.v\nend\n");
    program(
        "value_restriction",
        src,
        Expect::Err("K015"),
        Knobs {
            decls: 1,
            mu_depth: 0,
            sig_width: 1,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod::driver::{compile_batch, DriverConfig, FileStatus, Job};

    #[test]
    fn same_seed_gives_identical_sources() {
        for scale in [Scale::Full, Scale::Small] {
            let a = generate(11, 200, scale);
            let b = generate(11, 200, scale);
            let c = generate(12, 200, scale);
            let text = |ps: &[Program]| -> String {
                ps.iter()
                    .map(|p| format!("{}\n{}", p.name, p.source))
                    .collect()
            };
            assert_eq!(text(&a), text(&b));
            assert_ne!(text(&a), text(&c));
        }
    }

    #[test]
    fn knobs_are_recorded_per_file() {
        let ps = generate(3, 300, Scale::Full);
        for p in &ps {
            assert!(p.knobs.decls >= 1, "{}", p.name);
            if p.family == "rds_k" || p.family == "nested_mu" {
                assert!(p.knobs.mu_depth >= 1, "{}", p.name);
                assert_eq!(p.knobs.sig_width, p.knobs.mu_depth, "{}", p.name);
            }
        }
        let chains = ps.iter().filter(|p| p.family == "chain");
        for p in chains {
            assert_eq!(p.source.matches("structure S").count(), p.knobs.decls);
        }
    }

    #[test]
    fn every_family_is_drawn_and_about_a_fifth_is_ill_typed() {
        let ps = generate(5, 2000, Scale::Full);
        for (family, _) in FAMILIES {
            assert!(ps.iter().any(|p| p.family == family), "{family}");
        }
        let ill = ps
            .iter()
            .filter(|p| matches!(p.expect, Expect::Err(_)))
            .count();
        assert!((300..=500).contains(&ill), "{ill} ill-typed of 2000");
    }

    /// Over many seeds, every verdict and every first diagnostic code
    /// equals the program's label, and every well-typed main evaluates
    /// to its labelled value.
    #[test]
    fn verdicts_match_labels_over_many_seeds() {
        for seed in 0..24u64 {
            let scale = if seed % 2 == 0 {
                Scale::Full
            } else {
                Scale::Small
            };
            let programs = generate(seed, 60, scale);
            let jobs: Vec<Job> = programs
                .iter()
                .map(|p| Job::new(p.name.clone(), p.source.clone()))
                .collect();
            let batch = compile_batch(&jobs, &DriverConfig::default());
            for (p, out) in programs.iter().zip(&batch.outcomes) {
                match p.expect {
                    Expect::Ok(_) => assert_eq!(
                        out.status,
                        FileStatus::Ok,
                        "{} (seed {seed}): {:?}\n{}",
                        p.name,
                        out.diagnostics,
                        p.source
                    ),
                    Expect::Err(code) => {
                        assert_eq!(out.status, FileStatus::Error, "{} (seed {seed})", p.name);
                        assert_eq!(out.diags[0].code, code, "{} (seed {seed})", p.name);
                    }
                }
            }
            let runs: Vec<(String, String, Expect)> = programs
                .iter()
                .filter(|p| matches!(p.expect, Expect::Ok(_)))
                .map(|p| (p.name.clone(), p.source.clone(), p.expect))
                .collect();
            recmod::eval::run_big_stack(256, move || {
                for (name, source, expect) in runs {
                    let out = recmod::run(&source).expect("labelled well-typed program runs");
                    assert_eq!(Some(expect), out.value_int().map(Expect::Ok), "{name}");
                }
            });
        }
    }
}
