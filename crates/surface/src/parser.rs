//! A recursive-descent parser for the external language.
//!
//! Grammar notes:
//!
//! * `->` is right-associative; `*` builds n-ary products; both follow
//!   SML precedence (`int * t -> t` parses as `(int * t) -> t`).
//! * Application binds tighter than binary operators.
//! * A `case` inside a branch of another `case` must be parenthesized
//!   (the usual SML dangling-bar caveat).
//! * A bare identifier pattern is parsed as a variable; the elaborator
//!   reinterprets it as a nullary constructor when the name is one.

use crate::ast::*;
use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::lexer::{lex, lex_recover};
use crate::token::{Spanned, Tok};
use recmod_telemetry::{Limits, Stage};

/// Parses a whole program, stopping at the first error.
///
/// # Errors
///
/// Lexical and syntax errors, with source spans. For multi-error
/// reporting with recovery, use [`parse_with`].
pub fn parse(src: &str) -> SurfaceResult<Program> {
    parse_with(src, &Limits::default()).map_err(|mut errs| errs.remove(0))
}

/// Parses a whole program with error recovery under resource `limits`.
///
/// After a syntax error the parser synchronizes at the next top-level
/// declaration keyword (or `;`) and keeps going, so independent
/// mistakes are all reported in one run.
///
/// # Errors
///
/// Every diagnostic found, ordered by source position; the vector is
/// never empty on `Err`. A resource-limit error ([`ErrorKind::Limit`])
/// aborts recovery and is always the last entry.
pub fn parse_with(src: &str, limits: &Limits) -> Result<Program, Vec<SurfaceError>> {
    // The frame makes lex/parse errors carry non-empty provenance.
    let _j = recmod_telemetry::judgement_span("surface.parse");
    let (toks, mut errors) = recmod_telemetry::stage(Stage::Lex, || lex_recover(src, limits));
    let mut p = Parser {
        toks,
        pos: 0,
        limits: *limits,
        depth: 0,
    };
    let program = recmod_telemetry::stage(Stage::Parse, || p.program_recover(&mut errors));
    if errors.is_empty() {
        Ok(program)
    } else {
        errors.sort_by_key(|e| (e.span.start, e.span.end));
        Err(errors)
    }
}

/// Recovery gives up after this many parse errors: past that point the
/// diagnostics are almost certainly cascade noise.
const MAX_PARSE_ERRORS: usize = 100;

/// Parses a single expression (useful in tests and the REPL example).
pub fn parse_exp(src: &str) -> SurfaceResult<Exp> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        limits: Limits::default(),
        depth: 0,
    };
    let e = p.exp()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    limits: Limits,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    /// Runs `f` one structural level deeper, failing with a depth
    /// diagnostic once `limits.max_depth` levels are live. Every
    /// recursive production routes through this, so arbitrarily nested
    /// input yields [`ErrorKind::Limit`] instead of a stack overflow.
    fn with_depth<T>(&mut self, f: impl FnOnce(&mut Self) -> SurfaceResult<T>) -> SurfaceResult<T> {
        if self.depth >= self.limits.max_depth {
            return Err(SurfaceError::new(
                self.span(),
                ErrorKind::Limit(self.limits.depth_error("parse")),
            ));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> SurfaceResult<Span> {
        if *self.peek() == t {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: String) -> SurfaceError {
        SurfaceError::new(self.span(), ErrorKind::Parse(msg))
    }

    fn ident(&mut self) -> SurfaceResult<(String, Span)> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let sp = self.bump().span;
                Ok((name, sp))
            }
            other => Err(self.err(format!("expected an identifier, found `{other}`"))),
        }
    }

    fn path(&mut self) -> SurfaceResult<Path> {
        let (first, sp0) = self.ident()?;
        let mut parts = vec![first];
        let mut sp = sp0;
        while *self.peek() == Tok::Dot {
            self.bump();
            let (next, spn) = self.ident()?;
            parts.push(next);
            sp = sp.to(spn);
        }
        Ok(Path { parts, span: sp })
    }

    // ----- programs ---------------------------------------------------

    /// Parses every top-level declaration, recording errors and
    /// synchronizing at declaration keywords instead of stopping. The
    /// returned program holds whatever parsed cleanly; callers must
    /// treat it as partial whenever `errors` is non-empty.
    fn program_recover(&mut self, errors: &mut Vec<SurfaceError>) -> Program {
        let mut decls = Vec::new();
        let mut main = None;
        loop {
            while self.eat(Tok::Semi) {}
            if self.limits.deadline_passed() {
                errors.push(SurfaceError::new(
                    self.span(),
                    ErrorKind::Limit(self.limits.deadline_error("parse")),
                ));
                break;
            }
            match self.peek() {
                Tok::Signature | Tok::Structure | Tok::Functor | Tok::Val | Tok::Fun => {
                    let before = self.pos;
                    match self.topdec() {
                        Ok(d) => decls.push(d),
                        Err(e) => {
                            let stop = e.is_limit();
                            errors.push(e);
                            if stop || errors.len() >= MAX_PARSE_ERRORS {
                                break;
                            }
                            self.synchronize(before);
                        }
                    }
                }
                Tok::Eof => break,
                _ => {
                    let before = self.pos;
                    let parsed = self.exp().and_then(|e| {
                        self.expect(Tok::Eof)?;
                        Ok(e)
                    });
                    match parsed {
                        Ok(e) => {
                            main = Some(e);
                            break;
                        }
                        Err(e) => {
                            let stop = e.is_limit();
                            errors.push(e);
                            if stop || errors.len() >= MAX_PARSE_ERRORS {
                                break;
                            }
                            self.synchronize(before);
                            if *self.peek() == Tok::Eof {
                                break;
                            }
                        }
                    }
                }
            }
        }
        Program { decls, main }
    }

    /// Skips forward to the next plausible declaration start (a
    /// declaration keyword, a `;`, or end of input), consuming at least
    /// one token beyond `before` so recovery always makes progress.
    fn synchronize(&mut self, before: usize) {
        if self.pos == before {
            self.bump();
        }
        loop {
            match self.peek() {
                Tok::Signature | Tok::Structure | Tok::Functor | Tok::Val | Tok::Fun | Tok::Eof => {
                    return
                }
                Tok::Semi => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn topdec(&mut self) -> SurfaceResult<TopDec> {
        match self.peek() {
            Tok::Signature => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                self.expect(Tok::Eq)?;
                let sig = self.sigexp()?;
                Ok(TopDec::Signature {
                    name,
                    span: sp.to(sig.span()),
                    sig,
                })
            }
            Tok::Structure => {
                let sp = self.bump().span;
                let rec_ = self.eat(Tok::Rec);
                let mut binds = vec![self.strbind()?];
                while self.eat(Tok::And) {
                    binds.push(self.strbind()?);
                }
                let end = binds.last().map(|b| b.span).unwrap_or(sp);
                Ok(TopDec::Structure {
                    rec_,
                    binds,
                    span: sp.to(end),
                })
            }
            Tok::Functor => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                self.expect(Tok::LParen)?;
                self.expect(Tok::Structure)?;
                let param_rec = self.eat(Tok::Rec);
                let (param, _) = self.ident()?;
                self.expect(Tok::Colon)?;
                let param_sig = self.sigexp()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Eq)?;
                let body = self.strexp()?;
                Ok(TopDec::Functor {
                    name,
                    param,
                    param_rec,
                    param_sig,
                    span: sp.to(body.span()),
                    body,
                })
            }
            Tok::Val => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                let ann = if self.eat(Tok::Colon) {
                    Some(self.tyexp()?)
                } else {
                    None
                };
                self.expect(Tok::Eq)?;
                let exp = self.exp()?;
                Ok(TopDec::Val {
                    name,
                    ann,
                    span: sp.to(exp.span()),
                    exp,
                })
            }
            Tok::Fun => {
                let (name, param, param_ty, ret_ty, body, span) = self.fun_tail()?;
                Ok(TopDec::Fun {
                    name,
                    param,
                    param_ty,
                    ret_ty,
                    body,
                    span,
                })
            }
            other => Err(self.err(format!("expected a declaration, found `{other}`"))),
        }
    }

    /// `fun f (x : ty) : ty' = e`, with the `fun` keyword still pending.
    #[allow(clippy::type_complexity)]
    fn fun_tail(&mut self) -> SurfaceResult<(String, String, TyExp, TyExp, Exp, Span)> {
        let sp = self.expect(Tok::Fun)?;
        let (name, _) = self.ident()?;
        self.expect(Tok::LParen)?;
        let (param, _) = self.ident()?;
        self.expect(Tok::Colon)?;
        let param_ty = self.tyexp()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Colon)?;
        let ret_ty = self.tyexp()?;
        self.expect(Tok::Eq)?;
        let body = self.exp()?;
        let span = sp.to(body.span());
        Ok((name, param, param_ty, ret_ty, body, span))
    }

    fn strbind(&mut self) -> SurfaceResult<StrBind> {
        let (name, sp) = self.ident()?;
        let ann = if self.eat(Tok::Colon) {
            Some((self.sigexp()?, false))
        } else if self.eat(Tok::Seal) {
            Some((self.sigexp()?, true))
        } else {
            None
        };
        self.expect(Tok::Eq)?;
        let body = self.strexp()?;
        Ok(StrBind {
            name,
            ann,
            span: sp.to(body.span()),
            body,
        })
    }

    // ----- structures ---------------------------------------------------

    fn strexp(&mut self) -> SurfaceResult<StrExp> {
        self.with_depth(Self::strexp_inner)
    }

    fn strexp_inner(&mut self) -> SurfaceResult<StrExp> {
        let mut base = self.strexp_base()?;
        loop {
            if self.eat(Tok::Colon) {
                let sig = self.sigexp()?;
                let span = base.span().to(sig.span());
                base = StrExp::Ascribe {
                    body: Box::new(base),
                    sig,
                    opaque: false,
                    span,
                };
            } else if self.eat(Tok::Seal) {
                let sig = self.sigexp()?;
                let span = base.span().to(sig.span());
                base = StrExp::Ascribe {
                    body: Box::new(base),
                    sig,
                    opaque: true,
                    span,
                };
            } else {
                return Ok(base);
            }
        }
    }

    fn strexp_base(&mut self) -> SurfaceResult<StrExp> {
        match self.peek().clone() {
            Tok::Struct => {
                let sp = self.bump().span;
                let mut decs = Vec::new();
                while *self.peek() != Tok::End {
                    decs.push(self.dec()?);
                }
                let end = self.expect(Tok::End)?;
                Ok(StrExp::Body(decs, sp.to(end)))
            }
            Tok::Ident(_) => {
                // Either a path or a functor application `F (...)`.
                if matches!(self.peek2(), Tok::LParen) {
                    let (functor, sp) = self.ident()?;
                    self.expect(Tok::LParen)?;
                    // Optional `structure X =` prefix inside the argument.
                    let arg = if *self.peek() == Tok::Structure {
                        self.bump();
                        let _ = self.ident()?; // the keyword name is positional
                        self.expect(Tok::Eq)?;
                        self.strexp()?
                    } else {
                        self.strexp()?
                    };
                    let end = self.expect(Tok::RParen)?;
                    Ok(StrExp::App {
                        functor,
                        arg: Box::new(arg),
                        span: sp.to(end),
                    })
                } else {
                    Ok(StrExp::Path(self.path()?))
                }
            }
            other => Err(self.err(format!("expected a structure expression, found `{other}`"))),
        }
    }

    // ----- signatures ----------------------------------------------------

    fn sigexp(&mut self) -> SurfaceResult<SigExp> {
        self.with_depth(Self::sigexp_inner)
    }

    fn sigexp_inner(&mut self) -> SurfaceResult<SigExp> {
        let mut base = match self.peek().clone() {
            Tok::Sig => {
                let sp = self.bump().span;
                let mut specs = Vec::new();
                while *self.peek() != Tok::End {
                    specs.push(self.spec()?);
                }
                let end = self.expect(Tok::End)?;
                SigExp::Body(specs, sp.to(end))
            }
            Tok::Ident(name) => {
                let sp = self.bump().span;
                SigExp::Name(name, sp)
            }
            other => {
                return Err(self.err(format!("expected a signature, found `{other}`")));
            }
        };
        while *self.peek() == Tok::Where {
            self.bump();
            self.expect(Tok::Type)?;
            let path = self.path()?;
            self.expect(Tok::Eq)?;
            let def = self.tyexp()?;
            let span = base.span().to(def.span());
            base = SigExp::WhereType {
                base: Box::new(base),
                path,
                def,
                span,
            };
        }
        Ok(base)
    }

    fn spec(&mut self) -> SurfaceResult<Spec> {
        match self.peek() {
            Tok::Type => {
                let sp = self.bump().span;
                let (name, nsp) = self.ident()?;
                if self.eat(Tok::Eq) {
                    let def = self.tyexp()?;
                    Ok(Spec::Type {
                        name,
                        span: sp.to(def.span()),
                        def: Some(def),
                    })
                } else {
                    Ok(Spec::Type {
                        name,
                        def: None,
                        span: sp.to(nsp),
                    })
                }
            }
            Tok::Datatype => {
                let (name, ctors, span) = self.datatype_tail()?;
                Ok(Spec::Datatype { name, ctors, span })
            }
            Tok::Val => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.tyexp()?;
                Ok(Spec::Val {
                    name,
                    span: sp.to(ty.span()),
                    ty,
                })
            }
            Tok::Structure => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                self.expect(Tok::Colon)?;
                let sig = self.sigexp()?;
                Ok(Spec::Structure {
                    name,
                    span: sp.to(sig.span()),
                    sig,
                })
            }
            other => Err(self.err(format!("expected a specification, found `{other}`"))),
        }
    }

    fn datatype_tail(&mut self) -> SurfaceResult<(String, Vec<CtorDecl>, Span)> {
        let sp = self.expect(Tok::Datatype)?;
        let (name, _) = self.ident()?;
        self.expect(Tok::Eq)?;
        let mut ctors = Vec::new();
        loop {
            let (cname, csp) = self.ident()?;
            let arg = if self.eat(Tok::Of) {
                Some(self.tyexp()?)
            } else {
                None
            };
            let cspan = arg.as_ref().map(|t| csp.to(t.span())).unwrap_or(csp);
            ctors.push(CtorDecl {
                name: cname,
                arg,
                span: cspan,
            });
            if !self.eat(Tok::Bar) {
                break;
            }
        }
        let end = ctors.last().map(|c| c.span).unwrap_or(sp);
        Ok((name, ctors, sp.to(end)))
    }

    // ----- declarations -----------------------------------------------------

    fn dec(&mut self) -> SurfaceResult<Dec> {
        self.with_depth(Self::dec_inner)
    }

    fn dec_inner(&mut self) -> SurfaceResult<Dec> {
        match self.peek() {
            Tok::Type => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                self.expect(Tok::Eq)?;
                let def = self.tyexp()?;
                Ok(Dec::Type {
                    name,
                    span: sp.to(def.span()),
                    def,
                })
            }
            Tok::Datatype => {
                let (name, ctors, span) = self.datatype_tail()?;
                Ok(Dec::Datatype { name, ctors, span })
            }
            Tok::Val => {
                let sp = self.bump().span;
                let (name, _) = self.ident()?;
                let ann = if self.eat(Tok::Colon) {
                    Some(self.tyexp()?)
                } else {
                    None
                };
                self.expect(Tok::Eq)?;
                let exp = self.exp()?;
                Ok(Dec::Val {
                    name,
                    ann,
                    span: sp.to(exp.span()),
                    exp,
                })
            }
            Tok::Fun => {
                let (name, param, param_ty, ret_ty, body, span) = self.fun_tail()?;
                Ok(Dec::Fun {
                    name,
                    param,
                    param_ty,
                    ret_ty,
                    body,
                    span,
                })
            }
            Tok::Structure => {
                let sp = self.bump().span;
                let mut bind = self.strbind()?;
                bind.span = sp.to(bind.span);
                Ok(Dec::Structure(bind))
            }
            other => Err(self.err(format!("expected a declaration, found `{other}`"))),
        }
    }

    // ----- types -------------------------------------------------------------

    fn tyexp(&mut self) -> SurfaceResult<TyExp> {
        self.with_depth(Self::tyexp_inner)
    }

    fn tyexp_inner(&mut self) -> SurfaceResult<TyExp> {
        let lhs = self.ty_prod()?;
        if self.eat(Tok::Arrow) {
            let rhs = self.tyexp()?;
            let span = lhs.span().to(rhs.span());
            Ok(TyExp::Arrow(Box::new(lhs), Box::new(rhs), span))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> SurfaceResult<TyExp> {
        let first = self.ty_atom()?;
        if *self.peek() != Tok::Star {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(Tok::Star) {
            parts.push(self.ty_atom()?);
        }
        let span = parts
            .first()
            .map(|t| t.span())
            .unwrap_or_default()
            .to(parts.last().map(|t| t.span()).unwrap_or_default());
        Ok(TyExp::Prod(parts, span))
    }

    fn ty_atom(&mut self) -> SurfaceResult<TyExp> {
        match self.peek().clone() {
            Tok::Ident(name) if name == "int" => {
                let sp = self.bump().span;
                Ok(TyExp::Int(sp))
            }
            Tok::Ident(name) if name == "bool" => {
                let sp = self.bump().span;
                Ok(TyExp::Bool(sp))
            }
            Tok::Ident(name) if name == "unit" => {
                let sp = self.bump().span;
                Ok(TyExp::Unit(sp))
            }
            Tok::Ident(_) => Ok(TyExp::Path(self.path()?)),
            Tok::LParen => {
                self.bump();
                let t = self.tyexp()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            other => Err(self.err(format!("expected a type, found `{other}`"))),
        }
    }

    // ----- patterns -------------------------------------------------------------

    fn pat(&mut self) -> SurfaceResult<Pat> {
        self.with_depth(Self::pat_inner)
    }

    fn pat_inner(&mut self) -> SurfaceResult<Pat> {
        match self.peek().clone() {
            Tok::Ident(_) => {
                let path = self.path()?;
                // `C atpat` is a constructor application pattern.
                match self.peek() {
                    Tok::Ident(_) | Tok::LParen | Tok::Wild => {
                        let arg = self.atpat()?;
                        let span = path.span.to(arg.span());
                        Ok(Pat::Con(path, Some(Box::new(arg)), span))
                    }
                    _ => {
                        if path.parts.len() > 1 {
                            let span = path.span;
                            Ok(Pat::Con(path, None, span))
                        } else {
                            let span = path.span;
                            match path.parts.into_iter().next() {
                                Some(name) => Ok(Pat::Var(name, span)),
                                None => Err(self.err("expected a pattern".to_string())),
                            }
                        }
                    }
                }
            }
            _ => self.atpat(),
        }
    }

    fn atpat(&mut self) -> SurfaceResult<Pat> {
        match self.peek().clone() {
            Tok::Wild => {
                let sp = self.bump().span;
                Ok(Pat::Wild(sp))
            }
            Tok::Ident(_) => {
                let path = self.path()?;
                let span = path.span;
                if path.parts.len() > 1 {
                    Ok(Pat::Con(path, None, span))
                } else {
                    match path.parts.into_iter().next() {
                        Some(name) => Ok(Pat::Var(name, span)),
                        None => Err(self.err("expected a pattern".to_string())),
                    }
                }
            }
            Tok::LParen => {
                let sp = self.bump().span;
                let mut parts = vec![self.pat()?];
                while self.eat(Tok::Comma) {
                    parts.push(self.pat()?);
                }
                let end = self.expect(Tok::RParen)?;
                match parts.pop() {
                    Some(only) if parts.is_empty() => Ok(only),
                    Some(last) => {
                        parts.push(last);
                        Ok(Pat::Tuple(parts, sp.to(end)))
                    }
                    None => Err(self.err("expected a pattern".to_string())),
                }
            }
            other => Err(self.err(format!("expected a pattern, found `{other}`"))),
        }
    }

    // ----- expressions ------------------------------------------------------------

    fn exp(&mut self) -> SurfaceResult<Exp> {
        self.with_depth(Self::exp_inner)
    }

    fn exp_inner(&mut self) -> SurfaceResult<Exp> {
        match self.peek() {
            Tok::Fn => {
                let sp = self.bump().span;
                self.expect(Tok::LParen)?;
                let (x, _) = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.tyexp()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::DArrow)?;
                let body = self.exp()?;
                let span = sp.to(body.span());
                Ok(Exp::Fn(x, ty, Box::new(body), span))
            }
            Tok::If => {
                let sp = self.bump().span;
                let c = self.exp()?;
                self.expect(Tok::Then)?;
                let t = self.exp()?;
                self.expect(Tok::Else)?;
                let f = self.exp()?;
                let span = sp.to(f.span());
                Ok(Exp::If(Box::new(c), Box::new(t), Box::new(f), span))
            }
            Tok::Case => {
                let sp = self.bump().span;
                let scrut = self.exp()?;
                self.expect(Tok::Of)?;
                let mut arms = Vec::new();
                loop {
                    let pat = self.pat()?;
                    self.expect(Tok::DArrow)?;
                    let body = self.exp()?;
                    arms.push((pat, body));
                    if !self.eat(Tok::Bar) {
                        break;
                    }
                }
                let end = arms.last().map(|(_, e)| e.span()).unwrap_or(sp);
                Ok(Exp::Case(Box::new(scrut), arms, sp.to(end)))
            }
            Tok::Let => {
                let sp = self.bump().span;
                let mut decs = Vec::new();
                while *self.peek() != Tok::In {
                    decs.push(self.dec()?);
                }
                self.expect(Tok::In)?;
                let body = self.exp()?;
                let end = self.expect(Tok::End)?;
                Ok(Exp::Let(decs, Box::new(body), sp.to(end)))
            }
            Tok::Raise => {
                let sp = self.bump().span;
                // Accept `raise Fail` (any identifier is allowed as the
                // exception name; only Fail exists).
                let (_, esp) = self.ident()?;
                Ok(Exp::Raise(sp.to(esp)))
            }
            _ => self.cmp_exp(),
        }
    }

    fn cmp_exp(&mut self) -> SurfaceResult<Exp> {
        let lhs = self.add_exp()?;
        let op = match self.peek() {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Lt => Some(BinOp::Lt),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_exp()?;
            let span = lhs.span().to(rhs.span());
            Ok(Exp::Bin(op, Box::new(lhs), Box::new(rhs), span))
        } else {
            Ok(lhs)
        }
    }

    fn add_exp(&mut self) -> SurfaceResult<Exp> {
        let mut lhs = self.mul_exp()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_exp()?;
            let span = lhs.span().to(rhs.span());
            lhs = Exp::Bin(op, Box::new(lhs), Box::new(rhs), span);
        }
    }

    fn mul_exp(&mut self) -> SurfaceResult<Exp> {
        let mut lhs = self.app_exp()?;
        while *self.peek() == Tok::Star {
            self.bump();
            let rhs = self.app_exp()?;
            let span = lhs.span().to(rhs.span());
            lhs = Exp::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn app_exp(&mut self) -> SurfaceResult<Exp> {
        let mut head = self.at_exp()?;
        loop {
            match self.peek() {
                Tok::Int(_) | Tok::True | Tok::False | Tok::Ident(_) | Tok::LParen => {
                    let arg = self.at_exp()?;
                    head = Exp::App(Box::new(head), Box::new(arg));
                }
                _ => return Ok(head),
            }
        }
    }

    fn at_exp(&mut self) -> SurfaceResult<Exp> {
        match self.peek().clone() {
            Tok::Int(n) => {
                let sp = self.bump().span;
                Ok(Exp::Int(n, sp))
            }
            Tok::True => {
                let sp = self.bump().span;
                Ok(Exp::Bool(true, sp))
            }
            Tok::False => {
                let sp = self.bump().span;
                Ok(Exp::Bool(false, sp))
            }
            Tok::Ident(_) => Ok(Exp::Path(self.path()?)),
            Tok::LParen => {
                let sp = self.bump().span;
                if *self.peek() == Tok::RParen {
                    let end = self.bump().span;
                    return Ok(Exp::Unit(sp.to(end)));
                }
                let first = self.exp()?;
                if self.eat(Tok::Colon) {
                    let ty = self.tyexp()?;
                    let end = self.expect(Tok::RParen)?;
                    return Ok(Exp::Annot(Box::new(first), ty, sp.to(end)));
                }
                let mut parts = vec![first];
                while self.eat(Tok::Comma) {
                    parts.push(self.exp()?);
                }
                let end = self.expect(Tok::RParen)?;
                match parts.pop() {
                    Some(only) if parts.is_empty() => Ok(only),
                    Some(last) => {
                        parts.push(last);
                        Ok(Exp::Tuple(parts, sp.to(end)))
                    }
                    None => Err(self.err("expected an expression".to_string())),
                }
            }
            other => Err(self.err(format!("expected an expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_arithmetic_with_precedence() {
        let e = parse_exp("1 + 2 * 3").unwrap();
        let Exp::Bin(BinOp::Add, _, rhs, _) = e else {
            panic!("{e:?}")
        };
        assert!(matches!(*rhs, Exp::Bin(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn application_binds_tighter_than_operators() {
        let e = parse_exp("f 1 + g 2").unwrap();
        let Exp::Bin(BinOp::Add, lhs, _, _) = e else {
            panic!("{e:?}")
        };
        assert!(matches!(*lhs, Exp::App(_, _)));
    }

    #[test]
    fn arrow_is_right_associative_and_looser_than_star() {
        let src = "signature S = sig val f : int * int -> int -> bool end";
        let p = parse(src).unwrap();
        let TopDec::Signature {
            sig: SigExp::Body(specs, _),
            ..
        } = &p.decls[0]
        else {
            panic!()
        };
        let Spec::Val {
            ty: TyExp::Arrow(dom, cod, _),
            ..
        } = &specs[0]
        else {
            panic!()
        };
        assert!(matches!(**dom, TyExp::Prod(_, _)));
        assert!(matches!(**cod, TyExp::Arrow(_, _, _)));
    }

    #[test]
    fn parses_the_list_signature() {
        let src = "
            signature LIST = sig
              type t
              val nil : t
              val null : t -> bool
              val cons : int * t -> t
              val uncons : t -> int * t
            end";
        let p = parse(src).unwrap();
        let TopDec::Signature {
            name,
            sig: SigExp::Body(specs, _),
            ..
        } = &p.decls[0]
        else {
            panic!()
        };
        assert_eq!(name, "LIST");
        assert_eq!(specs.len(), 5);
        assert!(matches!(specs[0], Spec::Type { def: None, .. }));
    }

    #[test]
    fn parses_recursive_structure_with_datatype() {
        let src = "
            structure rec List : sig
              datatype t = NIL | CONS of int * List.t
              val cons : int * t -> t
            end = struct
              datatype t = NIL | CONS of int * List.t
              fun cons (p : int * t) : t = CONS p
            end";
        let p = parse(src).unwrap();
        let TopDec::Structure { rec_, binds, .. } = &p.decls[0] else {
            panic!()
        };
        assert!(rec_);
        assert_eq!(binds[0].name, "List");
        let Some((SigExp::Body(specs, _), false)) = &binds[0].ann else {
            panic!()
        };
        let Spec::Datatype { ctors, .. } = &specs[0] else {
            panic!()
        };
        assert_eq!(ctors.len(), 2);
        assert_eq!(ctors[1].name, "CONS");
    }

    #[test]
    fn parses_mutual_rec_with_where_type() {
        let src = "
            structure rec Expr :> EXPR where type dec = Decl.dec = struct end
            and Decl :> DECL where type exp = Expr.exp = struct end";
        let p = parse(src).unwrap();
        let TopDec::Structure { rec_, binds, .. } = &p.decls[0] else {
            panic!()
        };
        assert!(rec_);
        assert_eq!(binds.len(), 2);
        let Some((SigExp::WhereType { path, .. }, true)) = &binds[0].ann else {
            panic!()
        };
        assert_eq!(path.dotted(), "dec");
    }

    #[test]
    fn parses_functor_with_rds_parameter() {
        let src = "
            functor BuildList (structure rec List : sig datatype t = NIL | CONS of int * List.t end) =
              struct end
            structure L = BuildList (structure List = L0)";
        let p = parse(src).unwrap();
        let TopDec::Functor {
            name, param_rec, ..
        } = &p.decls[0]
        else {
            panic!()
        };
        assert_eq!(name, "BuildList");
        assert!(param_rec);
        let TopDec::Structure { binds, .. } = &p.decls[1] else {
            panic!()
        };
        assert!(matches!(binds[0].body, StrExp::App { .. }));
    }

    #[test]
    fn parses_case_with_constructor_patterns() {
        let e = parse_exp("case l of NIL => 0 | CONS (n, rest) => n").unwrap();
        let Exp::Case(_, arms, _) = e else { panic!() };
        assert_eq!(arms.len(), 2);
        assert!(matches!(&arms[0].0, Pat::Var(n, _) if n == "NIL"));
        let Pat::Con(p, Some(arg), _) = &arms[1].0 else {
            panic!()
        };
        assert_eq!(p.dotted(), "CONS");
        assert!(matches!(**arg, Pat::Tuple(_, _)));
    }

    #[test]
    fn parses_let_and_raise() {
        let e = parse_exp("let val x = 1 in x + 1 end").unwrap();
        assert!(matches!(e, Exp::Let(_, _, _)));
        let e = parse_exp("raise Fail").unwrap();
        assert!(matches!(e, Exp::Raise(_)));
    }

    #[test]
    fn parses_main_expression() {
        // A `;` separates a declaration from the main expression (plain
        // juxtaposition would parse as an application).
        let p = parse("val x = 1; x + 1").unwrap();
        assert_eq!(p.decls.len(), 1);
        assert!(p.main.is_some());
        // After `end` no separator is needed.
        let p = parse("structure S = struct val x = 1 end S.x + 1").unwrap();
        assert_eq!(p.decls.len(), 1);
        assert!(p.main.is_some());
    }

    #[test]
    fn parses_sealed_structure() {
        let src = "structure S :> sig type t val x : t end = struct type t = int val x = 3 end";
        let p = parse(src).unwrap();
        let TopDec::Structure { binds, .. } = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(&binds[0].ann, Some((_, true))));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse("structure = 3").is_err());
        assert!(parse_exp("1 +").is_err());
    }

    #[test]
    fn annotated_expression() {
        let e = parse_exp("(x : int)").unwrap();
        assert!(matches!(e, Exp::Annot(_, _, _)));
    }
}
