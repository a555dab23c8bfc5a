//! The recursive-descent parser as it stood before its lexer borrowed
//! identifiers from the source and its comparisons moved their terms: an
//! owned `String` per identifier, a cloned token per `bump`, both terms of
//! a single comparison cloned. Kept as a test oracle: `parser::tests`
//! checks that the parser answers every source with the same
//! [`SpannedFormula`] (structure, spans, polynomials, variable numbering)
//! or the same [`ParseError`].

use crate::ast::Rel;
use crate::parser::{cap_error, ParseError, MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERMS};
use crate::span::{BoundVar, Span, SpannedFormula, SpannedNode};
use crate::varmap::VarMap;
use cqa_arith::Rat;
use cqa_poly::MPoly;

/// The largest numerator or denominator bit length among `p`'s coefficients.
fn coeff_bits(p: &MPoly) -> u64 {
    p.terms()
        .map(|(_, c)| c.numer().bits().max(c.denom().bits()))
        .max()
        .unwrap_or(0)
}

/// `a * b`, or the cap it would break. Degree and term count are bounded
/// exactly by the operands'; a coefficient is a sum of at most
/// `min(terms)` products, so its bit length is bounded by the operands'
/// summed plus `⌈log₂ min(terms)⌉` — and checked again on the result, since
/// unlike denominators can sum past that.
fn capped_mul(a: &MPoly, b: &MPoly, at: usize) -> Result<MPoly, ParseError> {
    let degree = |p: &MPoly| u64::from(p.total_degree().unwrap_or(0));
    let (ta, tb) = (a.num_terms(), b.num_terms());
    let sum_bits = u64::from(usize::BITS - ta.min(tb).saturating_sub(1).leading_zeros());
    if degree(a) + degree(b) > MAX_DEGREE {
        return Err(cap_error(at, "total degree", MAX_DEGREE));
    }
    if ta.saturating_mul(tb) > MAX_TERMS {
        return Err(cap_error(at, "terms", MAX_TERMS));
    }
    let bits_error = || cap_error(at, "coefficient bits", MAX_COEFF_BITS);
    if coeff_bits(a) + coeff_bits(b) + sum_bits > MAX_COEFF_BITS {
        return Err(bits_error());
    }
    let p = a * b;
    if coeff_bits(&p) > MAX_COEFF_BITS {
        return Err(bits_error());
    }
    Ok(p)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(Rat),
    Sym(&'static str),
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    toks: Vec<(Span, Tok)>,
}

impl<'a> Lexer<'a> {
    fn run(src: &'a str) -> Result<Vec<(Span, Tok)>, ParseError> {
        let mut lx = Lexer {
            src: src.as_bytes(),
            pos: 0,
            toks: Vec::new(),
        };
        lx.lex()?;
        Ok(lx.toks)
    }

    fn lex(&mut self) -> Result<(), ParseError> {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                _ => self.symbol()?,
            }
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos < self.src.len()
            && self.src[self.pos] == b'.'
            && self.pos + 1 < self.src.len()
            && self.src[self.pos + 1].is_ascii_digit()
        {
            self.pos += 1;
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        let value: Rat = text.parse().map_err(|_| ParseError {
            at: start,
            msg: format!("bad number `{text}`"),
        })?;
        self.toks
            .push((Span::new(start, self.pos), Tok::Num(value)));
        Ok(())
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        self.toks
            .push((Span::new(start, self.pos), Tok::Ident(text.to_string())));
    }

    fn symbol(&mut self) -> Result<(), ParseError> {
        const TWO: [&str; 5] = ["<->", "->", "<=", ">=", "!="];
        const ONE: [&str; 13] = [
            "(", ")", ",", ".", "&", "|", "!", "<", ">", "=", "+", "-", "/",
        ];
        let rest = &self.src[self.pos..];
        for s in TWO {
            if rest.starts_with(s.as_bytes()) {
                self.toks
                    .push((Span::new(self.pos, self.pos + s.len()), Tok::Sym(s)));
                self.pos += s.len();
                return Ok(());
            }
        }
        for s in ONE.iter().chain(["*", "^"].iter()) {
            if rest.starts_with(s.as_bytes()) {
                self.toks
                    .push((Span::new(self.pos, self.pos + s.len()), Tok::Sym(s)));
                self.pos += s.len();
                return Ok(());
            }
        }
        Err(ParseError {
            at: self.pos,
            msg: format!("unexpected character `{}`", self.src[self.pos] as char),
        })
    }
}

struct Parser<'a> {
    toks: Vec<(Span, Tok)>,
    pos: usize,
    vars: &'a mut VarMap,
    src_len: usize,
    /// Nested productions currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .map_or(self.src_len, |(s, _)| s.start)
    }

    /// End offset of the most recently consumed token.
    fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.toks
                .get(self.pos - 1)
                .map_or(self.src_len, |(s, _)| s.end)
        }
    }

    /// Span from `start` to the end of the last consumed token.
    fn span_from(&self, start: usize) -> Span {
        Span::new(start, self.prev_end().max(start))
    }

    /// Span of the current token (or an empty span at end of input).
    fn cur_span(&self) -> Span {
        self.toks
            .get(self.pos)
            .map_or(Span::new(self.src_len, self.src_len), |(s, _)| *s)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(ParseError {
                at: self.at(),
                msg: format!("expected `{s}`"),
            })
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.at(),
            msg: msg.into(),
        })
    }

    /// Runs one nested production one level deeper, refusing before it
    /// recurses once [`MAX_NESTING`] levels are open.
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let r = production(self);
        self.depth -= 1;
        r
    }

    // ---- formulas ----

    fn formula(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let mut f = self.implies()?;
        while self.eat_sym("<->") {
            let g = self.implies()?;
            let span = self.span_from(start);
            let fwd = f.clone().implies(g.clone(), span);
            let bwd = g.implies(f, span);
            f = SpannedFormula {
                node: SpannedNode::And(vec![fwd, bwd]),
                span,
            };
        }
        Ok(f)
    }

    fn implies(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let f = self.or_f()?;
        if self.eat_sym("->") {
            let g = self.nested(Self::implies)?;
            let span = self.span_from(start);
            Ok(f.implies(g, span))
        } else {
            Ok(f)
        }
    }

    fn or_f(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let f = self.and_f()?;
        if !matches!(self.peek(), Some(Tok::Sym("|"))) {
            return Ok(f);
        }
        let mut parts = vec![f];
        while self.eat_sym("|") {
            parts.push(self.and_f()?);
        }
        Ok(SpannedFormula {
            node: SpannedNode::Or(parts),
            span: self.span_from(start),
        })
    }

    fn and_f(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let f = self.unary()?;
        if !matches!(self.peek(), Some(Tok::Sym("&"))) {
            return Ok(f);
        }
        let mut parts = vec![f];
        while self.eat_sym("&") {
            parts.push(self.unary()?);
        }
        Ok(SpannedFormula {
            node: SpannedNode::And(parts),
            span: self.span_from(start),
        })
    }

    fn unary(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        if self.eat_sym("!") {
            let mut f = self.nested(Self::unary)?.negate();
            f.span = self.span_from(start);
            return Ok(f);
        }
        // `E(` / `A(` are relation atoms, not quantifiers.
        let next_is_paren = matches!(self.toks.get(self.pos + 1), Some((_, Tok::Sym("("))));
        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "exists" || (kw == "E" && !next_is_paren) => {
                self.pos += 1;
                self.quantifier(start, true, false)
            }
            Some(Tok::Ident(kw)) if kw == "forall" || (kw == "A" && !next_is_paren) => {
                self.pos += 1;
                self.quantifier(start, false, false)
            }
            Some(Tok::Ident(kw)) if kw == "Eadom" => {
                self.pos += 1;
                self.quantifier(start, true, true)
            }
            Some(Tok::Ident(kw)) if kw == "Aadom" => {
                self.pos += 1;
                self.quantifier(start, false, true)
            }
            Some(Tok::Ident(kw)) if kw == "true" => {
                let span = self.cur_span();
                self.pos += 1;
                Ok(SpannedFormula {
                    node: SpannedNode::True,
                    span,
                })
            }
            Some(Tok::Ident(kw)) if kw == "false" => {
                let span = self.cur_span();
                self.pos += 1;
                Ok(SpannedFormula {
                    node: SpannedNode::False,
                    span,
                })
            }
            _ => self.atom_or_group(),
        }
    }

    fn quantifier(
        &mut self,
        start: usize,
        exists: bool,
        adom: bool,
    ) -> Result<SpannedFormula, ParseError> {
        let mut vars = Vec::new();
        while let Some(Tok::Ident(name)) = self.peek() {
            let name = name.clone();
            let span = self.cur_span();
            self.pos += 1;
            vars.push(BoundVar {
                var: self.vars.intern(&name),
                span,
            });
            // Separating commas between bound variables are optional.
            let _ = self.eat_sym(",");
        }
        if vars.is_empty() {
            return self.err("quantifier needs at least one variable");
        }
        self.expect_sym(".")?;
        // Quantifier scope extends as far right as possible.
        let body = Box::new(self.nested(Self::formula)?);
        let span = self.span_from(start);
        if adom {
            if vars.len() != 1 {
                return self.err("active-domain quantifier binds one variable");
            }
            let v = vars.pop().unwrap();
            Ok(SpannedFormula {
                node: if exists {
                    SpannedNode::ExistsAdom(v, body)
                } else {
                    SpannedNode::ForallAdom(v, body)
                },
                span,
            })
        } else {
            Ok(SpannedFormula {
                node: if exists {
                    SpannedNode::Exists(vars, body)
                } else {
                    SpannedNode::Forall(vars, body)
                },
                span,
            })
        }
    }

    /// Parses `( formula )`, a relation atom `R(t,…)`, or a comparison chain.
    fn atom_or_group(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        // Relation atom: uppercase-ish identifier followed by '(' and NOT
        // parseable as a term function — we treat any IDENT '(' as a relation
        // if the identifier was not interned as a variable beforehand and the
        // formula context expects an atom. To stay predictable we use the
        // convention: relation names start with an uppercase letter.
        if let Some(Tok::Ident(name)) = self.peek() {
            if name.chars().next().is_some_and(char::is_uppercase)
                && !matches!(name.as_str(), "Eadom" | "Aadom")
                && matches!(self.toks.get(self.pos + 1), Some((_, Tok::Sym("("))))
            {
                let name = name.clone();
                let name_span = self.cur_span();
                self.pos += 2;
                let mut args = vec![self.term()?];
                while self.eat_sym(",") {
                    args.push(self.term()?);
                }
                self.expect_sym(")")?;
                return Ok(SpannedFormula {
                    node: SpannedNode::Rel {
                        name,
                        args,
                        name_span,
                    },
                    span: self.span_from(start),
                });
            }
        }
        // Group: '(' could open a parenthesized formula or a term. Try the
        // formula first with backtracking.
        if matches!(self.peek(), Some(Tok::Sym("("))) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(mut f) = self.nested(Self::formula) {
                if self.eat_sym(")") {
                    // If a comparison follows, this was actually a term group.
                    if !self.peeking_comparison() {
                        f.span = self.span_from(start);
                        return Ok(f);
                    }
                }
            }
            self.pos = save;
        }
        self.comparison()
    }

    fn peeking_comparison(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Sym(
                "=" | "!=" | "<" | "<=" | ">" | ">=" | "+" | "-" | "*" | "^"
            ))
        )
    }

    fn comparison(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let mut term_spans = Vec::new();
        let first = self.term()?;
        term_spans.push(self.span_from(start));
        let mut terms = vec![first];
        let mut rels = Vec::new();
        loop {
            let rel = match self.peek() {
                Some(Tok::Sym("=")) => Rel::Eq,
                Some(Tok::Sym("!=")) => Rel::Neq,
                Some(Tok::Sym("<")) => Rel::Lt,
                Some(Tok::Sym("<=")) => Rel::Le,
                Some(Tok::Sym(">")) => Rel::Gt,
                Some(Tok::Sym(">=")) => Rel::Ge,
                _ => break,
            };
            self.pos += 1;
            rels.push(rel);
            let tstart = self.at();
            terms.push(self.term()?);
            term_spans.push(self.span_from(tstart));
        }
        if rels.is_empty() {
            return self.err("expected a comparison operator");
        }
        // Chained comparisons: a < b <= c means a < b & b <= c.
        let mut atoms = Vec::with_capacity(rels.len());
        for (i, rel) in rels.iter().enumerate() {
            let lhs = terms[i].clone();
            let rhs = terms[i + 1].clone();
            atoms.push(SpannedFormula {
                node: SpannedNode::Atom(crate::ast::Atom::new(lhs - rhs, *rel)),
                span: term_spans[i].join(term_spans[i + 1]),
            });
        }
        if atoms.len() == 1 {
            Ok(atoms.pop().unwrap())
        } else {
            Ok(SpannedFormula {
                node: SpannedNode::And(atoms),
                span: self.span_from(start),
            })
        }
    }

    // ---- terms ----

    fn term(&mut self) -> Result<MPoly, ParseError> {
        let mut t = self.product()?;
        loop {
            if self.eat_sym("+") {
                t = t + self.product()?;
            } else if self.eat_sym("-") {
                t = t - self.product()?;
            } else {
                break;
            }
        }
        Ok(t)
    }

    fn product(&mut self) -> Result<MPoly, ParseError> {
        let mut t = self.power()?;
        loop {
            let at = self.at();
            if self.eat_sym("*") {
                let rhs = self.power()?;
                t = capped_mul(&t, &rhs, at)?;
            } else if self.eat_sym("/") {
                let at = self.at();
                let rhs = self.power()?;
                match rhs.as_constant() {
                    Some(c) if !c.is_zero() => t = capped_mul(&t, &MPoly::constant(c.recip()), at)?,
                    _ => {
                        return Err(ParseError {
                            at,
                            msg: "division only by a non-zero rational constant".into(),
                        })
                    }
                }
            } else {
                break;
            }
        }
        Ok(t)
    }

    fn power(&mut self) -> Result<MPoly, ParseError> {
        let base = self.primary()?;
        if !self.eat_sym("^") {
            return Ok(base);
        }
        let at = self.at();
        match self.bump() {
            Some(Tok::Num(n)) if n.is_integer() && !n.is_negative() => {
                // Every base but 0 and ±1 breaks a cap before its exponent
                // reaches MAX_COEFF_BITS, so this bound refuses nothing the
                // caps would let through except powers of those three.
                let e = n
                    .numer()
                    .to_i64()
                    .filter(|&e| e <= MAX_COEFF_BITS as i64)
                    .ok_or_else(|| ParseError {
                        at: self.at(),
                        msg: "exponent too large".into(),
                    })?;
                if e as u64 * u64::from(base.total_degree().unwrap_or(0)) > MAX_DEGREE {
                    return Err(cap_error(at, "total degree", MAX_DEGREE));
                }
                let mut acc = if e == 0 { MPoly::one() } else { base.clone() };
                for _ in 1..e {
                    acc = capped_mul(&acc, &base, at)?;
                }
                Ok(acc)
            }
            _ => self.err("expected a natural-number exponent"),
        }
    }

    fn primary(&mut self) -> Result<MPoly, ParseError> {
        if self.eat_sym("-") {
            return Ok(-self.nested(Self::primary)?);
        }
        match self.bump() {
            Some(Tok::Num(n)) => Ok(MPoly::constant(n)),
            Some(Tok::Ident(name)) => Ok(MPoly::var(self.vars.intern(&name))),
            Some(Tok::Sym("(")) => {
                let t = self.nested(Self::term)?;
                self.expect_sym(")")?;
                Ok(t)
            }
            _ => {
                self.pos -= 1;
                self.err("expected a term")
            }
        }
    }
}

/// Parses a formula into the span-carrying parse tree (the input of
/// `cqa-analyze`), using and extending an existing variable map.
pub(crate) fn parse_formula_spanned(
    src: &str,
    vars: &mut VarMap,
) -> Result<SpannedFormula, ParseError> {
    let toks = Lexer::run(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        vars,
        src_len: src.len(),
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(f)
}
