//! A recursive-descent parser for constraint formulas.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! formula  := iff
//! iff      := implies ( '<->' implies )*
//! implies  := or ( '->' implies )?               (right associative)
//! or       := and ( '|' and )*
//! and      := unary ( '&' unary )*
//! unary    := '!' unary
//!           | ('exists'|'E') ident+ '.' unary
//!           | ('forall'|'A') ident+ '.' unary
//!           | ('Eadom'|'Aadom') ident '.' unary
//!           | 'true' | 'false'
//!           | '(' formula ')'
//!           | atom
//! atom     := term (('='|'!='|'<'|'<='|'>'|'>=') term)+   (chained compares)
//!           | IDENT '(' term (',' term)* ')'              (relation atom)
//! term     := product (('+'|'-') product)*
//! product  := power (('*') power)*  with implicit unary minus
//! power    := primary ('^' NAT)?
//! primary  := NUMBER | IDENT | '(' term ')' | '-' primary
//! ```
//!
//! Numbers may be integers or decimal literals like `0.5` (parsed exactly
//! as rationals); `/` divides a term by a non-zero rational constant, so
//! fractions such as `1/2` work as expected. Terms are expanded as they are
//! parsed, so a `*`, `/` or `^` whose polynomial would pass total degree 64,
//! 4 096 terms, or 4 096 bits in a coefficient's numerator or denominator
//! is a parse error, found before it is expanded. So is nesting deeper
//! than [`MAX_NESTING`] levels (parentheses, `!`, quantifiers, `->` links,
//! unary minus): the descent recurses once per level, and 1 000
//! parentheses used to overflow a server worker's 2 MiB stack.
//!
//! The parser natively builds a [`SpannedFormula`] — a faithful parse tree
//! with byte spans on every node, the input to `cqa-analyze` — and the
//! plain-[`Formula`] entry points lower it through the simplifying smart
//! constructors, so both views always agree.

use crate::ast::{Formula, Rel};
use crate::span::{BoundVar, Span, SpannedFormula, SpannedNode};
use crate::varmap::VarMap;
use cqa_arith::Rat;
use cqa_poly::MPoly;
use std::fmt;

/// A parse failure, with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source where the error occurred.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}
impl std::error::Error for ParseError {}

// Caps on the polynomial one `*`, `/` or `^` may build, checked from its
// operands before it is expanded. Parsing runs before a request has a
// budget, so without them a 24-byte term such as `x^20000000` holds a worker
// for minutes; no query this system is built for comes near them.

/// Total degree of a product.
pub(crate) const MAX_DEGREE: u64 = 64;
/// Bit length of the numerator and of the denominator of any coefficient.
pub(crate) const MAX_COEFF_BITS: u64 = 4096;
/// Terms of a product: `(a+b+…+j)^64` passes the other two with ~10¹⁴.
pub(crate) const MAX_TERMS: usize = 4096;

/// Nesting depth: parentheses (formula or term), `!`, quantifiers, `->`
/// links and unary minus, each one level. Every recursive production
/// checks it on entry, so no input drives the descent deeper. A
/// parenthesis costs ≈ 9 KiB of stack in an unoptimised build, so 256
/// levels overflow a 2 MiB thread there (192 do not); 128 leaves the
/// layers below the parser half of that stack.
pub const MAX_NESTING: usize = 128;

/// Stack one nesting level costs a request in an unoptimised build (a
/// parenthesis, measured from the wire down through the parser).
const STACK_PER_LEVEL: usize = 9_120;

/// The stack size of every thread that answers a request: [`MAX_NESTING`]
/// levels at their unoptimised cost, doubled, plus 1 MiB for the layers
/// below the parser (≈ 3.2 MiB, more than the 2 MiB default). The engine's
/// workers and `cqa-approx`'s fork–join helpers set it explicitly, so
/// `RUST_MIN_STACK` cannot shrink a thread below what the cap promises.
pub const REQUEST_STACK_BYTES: usize = 2 * MAX_NESTING * STACK_PER_LEVEL + (1 << 20);

pub(crate) fn cap_error(at: usize, what: &str, cap: impl fmt::Display) -> ParseError {
    ParseError {
        at,
        msg: format!("term too large: {what} would exceed {cap}"),
    }
}

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
    // A constant factor scales: the same terms, without a product's sort.
    let p = match (a.as_constant(), b.as_constant()) {
        (_, Some(c)) => a.scale(&c),
        (Some(c), None) => b.scale(&c),
        (None, None) => a * b,
    };
    if coeff_bits(&p) > MAX_COEFF_BITS {
        return Err(bits_error());
    }
    Ok(p)
}

/// A token. Identifiers borrow their text from the source; a number's
/// value sits in the lexer's side table, so a token is `Copy` and reading
/// one never allocates, backtracking included.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    /// Index into [`Lexed::nums`].
    Num(usize),
    Sym(&'static str),
}

/// A lexed source: its tokens with their spans, and the number values.
struct Lexed<'s> {
    toks: Vec<(Span, Tok<'s>)>,
    nums: Vec<Rat>,
}

/// The largest digit count whose value always fits an `i64`.
const I64_DIGITS: usize = 18;

fn lex(src: &str) -> Result<Lexed<'_>, ParseError> {
    let bytes = src.as_bytes();
    // A token takes a byte at least and, in formulas as written, more than
    // two with the spaces: this seldom grows.
    let mut out = Lexed {
        toks: Vec::with_capacity(src.len() / 2 + 1),
        nums: Vec::new(),
    };
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        let tok = match bytes[pos] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
                continue;
            }
            b'0'..=b'9' => {
                let (value, end) = number(src, pos)?;
                pos = end;
                out.nums.push(value);
                Tok::Num(out.nums.len() - 1)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                Tok::Ident(&src[start..pos])
            }
            _ => {
                let sym = symbol(&bytes[pos..]).ok_or_else(|| ParseError {
                    at: pos,
                    msg: format!("unexpected character `{}`", bytes[pos] as char),
                })?;
                pos += sym.len();
                Tok::Sym(sym)
            }
        };
        out.toks.push((Span::new(start, pos), tok));
    }
    Ok(out)
}

/// The number literal at `start` (digits, optionally `.` and more digits)
/// and the offset past it. Up to [`I64_DIGITS`] digits are read straight
/// into a machine integer; longer literals go through [`Rat`]'s parser.
fn number(src: &str, start: usize) -> Result<(Rat, usize), ParseError> {
    let bytes = src.as_bytes();
    let digits_from = |mut pos: usize| {
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
        pos
    };
    let int_end = digits_from(start);
    let mut end = int_end;
    if end + 1 < bytes.len() && bytes[end] == b'.' && bytes[end + 1].is_ascii_digit() {
        end = digits_from(end + 1);
    }
    let text = &src[start..end];
    // Digits only, the point (if any) left out: the literal is that
    // integer over 10^(digits after the point).
    let point = usize::from(end > int_end);
    let frac_len = end - int_end - point;
    if end - start - point <= I64_DIGITS {
        let mantissa = text
            .bytes()
            .filter(u8::is_ascii_digit)
            .fold(0i64, |acc, b| acc * 10 + i64::from(b - b'0'));
        let value = match frac_len {
            0 => Rat::from_int(mantissa.into()),
            _ => Rat::new(mantissa.into(), 10i64.pow(frac_len as u32).into()),
        };
        return Ok((value, end));
    }
    let value = text.parse().map_err(|_| ParseError {
        at: start,
        msg: format!("bad number `{text}`"),
    })?;
    Ok((value, end))
}

/// The operator or punctuation symbol `rest` starts with, longest first.
fn symbol(rest: &[u8]) -> Option<&'static str> {
    Some(match rest {
        [b'<', b'-', b'>', ..] => "<->",
        [b'-', b'>', ..] => "->",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'!', b'=', ..] => "!=",
        [b'(', ..] => "(",
        [b')', ..] => ")",
        [b',', ..] => ",",
        [b'.', ..] => ".",
        [b'&', ..] => "&",
        [b'|', ..] => "|",
        [b'!', ..] => "!",
        [b'<', ..] => "<",
        [b'>', ..] => ">",
        [b'=', ..] => "=",
        [b'+', ..] => "+",
        [b'-', ..] => "-",
        [b'/', ..] => "/",
        [b'*', ..] => "*",
        [b'^', ..] => "^",
        _ => return None,
    })
}

struct Parser<'a, 's> {
    toks: Vec<(Span, Tok<'s>)>,
    nums: Vec<Rat>,
    pos: usize,
    vars: &'a mut VarMap,
    src_len: usize,
    /// Nested productions currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'s> Parser<'_, 's> {
    fn new<'a>(src: &'s str, vars: &'a mut VarMap) -> Result<Parser<'a, 's>, ParseError> {
        let Lexed { toks, nums } = lex(src)?;
        Ok(Parser {
            toks,
            nums,
            pos: 0,
            vars,
            src_len: src.len(),
            depth: 0,
        })
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.pos).map(|&(_, t)| t)
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

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if t == s) {
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
            Some(Tok::Ident(kw @ ("exists" | "forall" | "E" | "A" | "Eadom" | "Aadom")))
                if !(matches!(kw, "E" | "A") && next_is_paren) =>
            {
                self.pos += 1;
                let exists = matches!(kw, "exists" | "E" | "Eadom");
                self.quantifier(start, exists, kw.ends_with("adom"))
            }
            Some(Tok::Ident(kw @ ("true" | "false"))) => {
                let span = self.cur_span();
                self.pos += 1;
                Ok(SpannedFormula {
                    node: if kw == "true" {
                        SpannedNode::True
                    } else {
                        SpannedNode::False
                    },
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
            let span = self.cur_span();
            self.pos += 1;
            vars.push(BoundVar {
                var: self.vars.intern(name),
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
                && !matches!(name, "Eadom" | "Aadom")
                && matches!(self.toks.get(self.pos + 1), Some((_, Tok::Sym("("))))
            {
                let name = name.to_string();
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

    /// Consumes a comparison operator, if one is next.
    fn comparison_op(&mut self) -> Option<Rel> {
        let rel = match self.peek()? {
            Tok::Sym("=") => Rel::Eq,
            Tok::Sym("!=") => Rel::Neq,
            Tok::Sym("<") => Rel::Lt,
            Tok::Sym("<=") => Rel::Le,
            Tok::Sym(">") => Rel::Gt,
            Tok::Sym(">=") => Rel::Ge,
            _ => return None,
        };
        self.pos += 1;
        Some(rel)
    }

    fn comparison(&mut self) -> Result<SpannedFormula, ParseError> {
        let start = self.at();
        let mut lhs = self.term()?;
        let mut lhs_span = self.span_from(start);
        let Some(mut rel) = self.comparison_op() else {
            return self.err("expected a comparison operator");
        };
        // Chained comparisons: a < b <= c means a < b & b <= c.
        let mut atoms = Vec::new();
        loop {
            let tstart = self.at();
            let rhs = self.term()?;
            let rhs_span = self.span_from(tstart);
            let atom = |poly| SpannedFormula {
                node: SpannedNode::Atom(crate::ast::Atom::new(poly, rel)),
                span: lhs_span.join(rhs_span),
            };
            match self.comparison_op() {
                // The last link takes its terms; a single comparison is
                // the common case.
                None if atoms.is_empty() => return Ok(atom(lhs - rhs)),
                None => {
                    atoms.push(atom(lhs - rhs));
                    return Ok(SpannedFormula {
                        node: SpannedNode::And(atoms),
                        span: self.span_from(start),
                    });
                }
                Some(next) => {
                    atoms.push(atom(&lhs - &rhs));
                    (lhs, lhs_span, rel) = (rhs, rhs_span, next);
                }
            }
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
        let exponent = match self.peek() {
            Some(Tok::Num(i)) => Some(&self.nums[i]),
            _ => None,
        };
        self.pos += 1;
        match exponent {
            Some(n) if n.is_integer() && !n.is_negative() => {
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
        let tok = self.peek();
        self.pos += 1;
        match tok {
            Some(Tok::Num(i)) => Ok(MPoly::constant(self.nums[i].clone())),
            Some(Tok::Ident(name)) => Ok(MPoly::var(self.vars.intern(name))),
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

/// Parses a formula, returning it with a fresh [`VarMap`] of its variables.
pub fn parse_formula(src: &str) -> Result<(Formula, VarMap), ParseError> {
    let mut vars = VarMap::new();
    let f = parse_formula_with(src, &mut vars)?;
    Ok((f, vars))
}

/// Parses a formula using (and extending) an existing variable map, so that
/// several formulas can share variable identities.
pub fn parse_formula_with(src: &str, vars: &mut VarMap) -> Result<Formula, ParseError> {
    Ok(parse_formula_spanned(src, vars)?.to_formula())
}

/// Parses a formula into the span-carrying parse tree (the input of
/// `cqa-analyze`), using and extending an existing variable map.
pub fn parse_formula_spanned(src: &str, vars: &mut VarMap) -> Result<SpannedFormula, ParseError> {
    let mut p = Parser::new(src, vars)?;
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(f)
}

/// Parses a polynomial term using an existing variable map.
pub fn parse_term_with(src: &str, vars: &mut VarMap) -> Result<MPoly, ParseError> {
    let mut p = Parser::new(src, vars)?;
    let t = p.term()?;
    if p.pos != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ConstraintClass;
    use cqa_arith::rat;
    use cqa_poly::Var;

    #[test]
    fn parse_simple_atom() {
        let (f, vars) = parse_formula("x < y").unwrap();
        assert_eq!(vars.len(), 2);
        assert!(matches!(f, Formula::Atom(ref a) if a.rel == Rel::Lt));
    }

    #[test]
    fn parse_connectives_and_precedence() {
        let (f, _) = parse_formula("x < 1 & y < 1 | x > 2").unwrap();
        // | binds looser than &
        assert!(matches!(f, Formula::Or(_)));
        let (g, _) = parse_formula("x < 1 & (y < 1 | x > 2)").unwrap();
        assert!(matches!(g, Formula::And(_)));
    }

    #[test]
    fn parse_quantifiers() {
        let (f, vars) = parse_formula("exists y. x + y = 1").unwrap();
        match f {
            Formula::Exists(vs, _) => assert_eq!(vs, vec![vars.get("y").unwrap()]),
            other => panic!("{other:?}"),
        }
        let (g, _) = parse_formula("E y. A z. x + y < z").unwrap();
        assert!(matches!(g, Formula::Exists(..)));
        let (h, _) = parse_formula("Eadom u. U(u) & u < x").unwrap();
        assert!(matches!(h, Formula::ExistsAdom(..)));
    }

    #[test]
    fn parse_multi_var_quantifier() {
        let (f, _) = parse_formula("exists y, z. x = y + z").unwrap();
        match f {
            Formula::Exists(vs, _) => assert_eq!(vs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_relation_atom() {
        let (f, _) = parse_formula("U(x) & x < 1").unwrap();
        let names = f.relation_names();
        assert!(names.contains("U"));
        let (g, _) = parse_formula("S(x, y + 1)").unwrap();
        match g {
            Formula::Rel { name, args } => {
                assert_eq!(name, "S");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_chained_comparison() {
        let (f, _) = parse_formula("0 <= x < y <= 1").unwrap();
        match f {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_arithmetic() {
        let mut vars = VarMap::new();
        let t = parse_term_with("2*x^2 - 3*x*y + 0.5", &mut vars).unwrap();
        let x = vars.get("x").unwrap();
        let y = vars.get("y").unwrap();
        let expect = MPoly::var(x).pow(2).scale(&rat(2, 1))
            - (MPoly::var(x) * MPoly::var(y)).scale(&rat(3, 1))
            + MPoly::constant(rat(1, 2));
        assert_eq!(t, expect);
    }

    #[test]
    fn parse_implication_and_iff() {
        let (f, _) = parse_formula("x < 0 -> x < 1").unwrap();
        // Semantically: x >= 0 | x < 1, always true for reals; check eval.
        for v in [-1i64, 0, 5] {
            assert_eq!(f.eval(&|_| rat(v, 1), &[]), Some(true));
        }
        let (g, _) = parse_formula("x < 0 <-> 0 > x").unwrap();
        for v in [-1i64, 3] {
            assert_eq!(g.eval(&|_| rat(v, 1), &[]), Some(true));
        }
    }

    #[test]
    fn parse_negation_and_constants() {
        let (f, _) = parse_formula("!(x < 1) & true").unwrap();
        assert!(matches!(f, Formula::Atom(ref a) if a.rel == Rel::Ge));
        let (g, _) = parse_formula("false | x = 0").unwrap();
        assert!(matches!(g, Formula::Atom(_)));
    }

    #[test]
    fn parse_classes() {
        assert_eq!(
            parse_formula("x < y").unwrap().0.class(),
            ConstraintClass::DenseOrder
        );
        assert_eq!(
            parse_formula("x + y < 1").unwrap().0.class(),
            ConstraintClass::Linear
        );
        assert_eq!(
            parse_formula("x*x + y < 1").unwrap().0.class(),
            ConstraintClass::Polynomial
        );
    }

    #[test]
    fn parse_grouped_formula_vs_term() {
        let (f, _) = parse_formula("(x + 1) * 2 < y").unwrap();
        assert!(matches!(f, Formula::Atom(_)));
        let (g, _) = parse_formula("(x < 1) & (y < 1)").unwrap();
        assert!(matches!(g, Formula::And(_)));
    }

    #[test]
    fn shared_varmap_across_parses() {
        let mut vars = VarMap::new();
        let f = parse_formula_with("x < 1", &mut vars).unwrap();
        let g = parse_formula_with("x > 0", &mut vars).unwrap();
        assert_eq!(f.free_vars(), g.free_vars());
        assert_eq!(vars.len(), 1);
    }

    #[test]
    fn errors() {
        assert!(parse_formula("x <").is_err());
        assert!(parse_formula("x # y").is_err());
        assert!(parse_formula("exists . x < 1").is_err());
        assert!(parse_formula("x < 1 garbage garbage").is_err());
        assert!(parse_formula("x ^ y").is_err()); // non-constant exponent
    }

    #[test]
    fn oversized_terms_are_refused_before_expansion() {
        for ok in [
            "x^64 > 0",
            "(x+1)^64 > 0",
            "x^32 * x^32 > 1",
            "2^4000 * x > 1",
        ] {
            assert!(parse_formula(ok).is_ok(), "{ok}");
        }
        for (src, what) in [
            ("x^65 > 0", "total degree"),
            ("x^32 * x^33 > 1", "total degree"),
            ("(x+1)^900 > 0", "total degree"),
            ("x^20000000 > 1/2", "exponent too large"),
            ("(2^3000)^2 * x > 1", "coefficient bits"),
            ("2^3000 * 2^3000 * x > 1", "coefficient bits"),
            ("x / 2^3000 / 2^3000 > 1", "coefficient bits"),
            ("(a+b+c+d+e+f+g+h+i+j)^64 > 0", "terms"),
        ] {
            let e = parse_formula(src).expect_err(src);
            assert!(e.msg.contains(what), "{src}: {e}");
        }
        // Multiplying through the cap check changes no accepted polynomial.
        let (f, _) = parse_formula("(x - 1/2)^3 * (2*y + 3)^2 / 7 < 1").unwrap();
        let (g, _) = parse_formula(
            "(4*x^3*y^2 - 6*x^2*y^2 + 3*x*y^2 - y^2/2 + 12*x^3*y - 18*x^2*y + 9*x*y \
             - 3*y/2 + 9*x^3 - 27*x^2/2 + 27*x/4 - 9/8) / 7 < 1",
        )
        .unwrap();
        assert_eq!(f, g);
    }

    /// The nesting shapes the depth cap covers, `n` levels deep; each
    /// reads `x > 1/2` (or its negation) when `n` is even.
    fn nested_shapes(n: usize) -> Vec<(&'static str, String)> {
        vec![
            (
                "parentheses",
                format!("{}x > 1/2{}", "(".repeat(n), ")".repeat(n)),
            ),
            (
                "term parentheses",
                format!("{}x{} > 1/2", "(".repeat(n), ")".repeat(n)),
            ),
            ("negations", format!("{}x > 1/2", "!".repeat(n))),
            ("minus signs", format!("{}x > 1/2", "- ".repeat(n))),
            (
                "quantifiers",
                (1..=n)
                    .map(|i| format!("exists y{i}. "))
                    .collect::<String>()
                    + "x > 1/2",
            ),
            ("implications", "x > 1/2 -> ".repeat(n) + "x > 1/2"),
        ]
    }

    /// Runs `f` on a thread with the 2 MiB stack a server worker gets.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_capped_before_the_stack_is() {
        on_worker_stack(|| {
            for (shape, src) in nested_shapes(MAX_NESTING) {
                assert!(parse_formula(&src).is_ok(), "{shape} at the cap");
            }
            let deeper = nested_shapes(MAX_NESTING + 1)
                .into_iter()
                .chain(nested_shapes(2_000))
                .chain([("unclosed", format!("{}x > 1/2", "(".repeat(1_000)))]);
            for (shape, src) in deeper {
                let e = parse_formula(&src).expect_err(shape);
                assert!(
                    e.msg.contains("nesting deeper than 128 levels"),
                    "{shape}: {e}"
                );
            }
        });
        // Depth is nesting, not length: a long flat formula is not refused.
        let flat = vec!["x > 1/2"; 5_000].join(" & ");
        assert!(parse_formula(&flat).is_ok());
    }

    #[test]
    fn decimal_literals_exact() {
        let (f, _) = parse_formula("x = 0.1").unwrap();
        match f {
            Formula::Atom(a) => {
                // x - 1/10
                assert_eq!(
                    a.poly.subst_rat(Var(0), &rat(1, 10)).as_constant(),
                    Some(rat(0, 1))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spanned_parse_carries_byte_spans() {
        let src = "exists y. x + y = 1 & S(x)";
        let mut vars = VarMap::new();
        let f = parse_formula_spanned(src, &mut vars).unwrap();
        // Whole formula spans the full source.
        assert_eq!(f.span, Span::new(0, src.len()));
        match &f.node {
            SpannedNode::Exists(vs, body) => {
                assert_eq!(&src[vs[0].span.start..vs[0].span.end], "y");
                match &body.node {
                    SpannedNode::And(parts) => {
                        assert_eq!(&src[parts[0].span.start..parts[0].span.end], "x + y = 1");
                        match &parts[1].node {
                            SpannedNode::Rel { name_span, .. } => {
                                assert_eq!(&src[name_span.start..name_span.end], "S");
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spanned_lowering_matches_plain_parse() {
        let sources = [
            "x < y",
            "x < 1 & y < 1 | x > 2",
            "!(x < 1) & true",
            "false | x = 0",
            "exists y, z. x = y + z",
            "0 <= x < y <= 1",
            "x < 0 -> x < 1",
            "x < 0 <-> 0 > x",
            "Eadom u. U(u) & u < x",
            "forall y. exists z. x + y < z | S(x, y)",
            "(x + 1) * 2 < y",
            "!!(x = 1)",
        ];
        for src in sources {
            let mut v1 = VarMap::new();
            let mut v2 = VarMap::new();
            let plain = parse_formula_with(src, &mut v1).unwrap();
            let spanned = parse_formula_spanned(src, &mut v2).unwrap();
            assert_eq!(spanned.to_formula(), plain, "source: {src}");
        }
    }

    /// A source generator for the oracle comparison: formulas from the
    /// grammar, then (by `mode`) kept, truncated, mutated byte-wise, or
    /// replaced by token soup.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            // xorshift64*: any seed but 0 cycles through 2^64 - 1 states.
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }

        fn space(&mut self, out: &mut String) {
            out.push_str(self.pick(&[" ", " ", " ", "", "\n", "\t ", "  "]));
        }

        fn number(&mut self, out: &mut String) {
            match self.below(6) {
                0 => out.push_str(&"9081726354".repeat(1 + self.below(4))),
                1 => {
                    let frac = "0123456789".repeat(self.below(3));
                    out.push_str(&format!("{}.{frac}{}", self.below(100), self.below(1000)));
                }
                _ => out.push_str(&self.below(100).to_string()),
            }
        }

        fn term(&mut self, depth: usize, out: &mut String) {
            if depth == 0 || self.below(3) == 0 {
                if self.below(2) == 0 {
                    self.number(out);
                } else {
                    out.push_str(self.pick(&["x", "y", "z", "x3", "u_1", "E", "A", "true"]));
                }
                return;
            }
            match self.below(7) {
                0 => {
                    out.push('-');
                    self.space(out);
                    self.term(depth - 1, out);
                }
                1 => {
                    out.push('(');
                    self.term(depth - 1, out);
                    out.push(')');
                }
                2 => {
                    self.term(depth - 1, out);
                    out.push('^');
                    out.push_str(self.pick(&["0", "1", "2", "3", "65", "x", "1.5"]));
                }
                3 => {
                    self.term(depth - 1, out);
                    out.push_str(self.pick(&[" / ", "/", " /"]));
                    self.number(out);
                }
                op => {
                    self.term(depth - 1, out);
                    self.space(out);
                    out.push_str(["+", "-", "*"][op - 4]);
                    self.space(out);
                    self.term(depth - 1, out);
                }
            }
        }

        fn formula(&mut self, depth: usize, out: &mut String) {
            if depth == 0 || self.below(4) == 0 {
                match self.below(6) {
                    0 => out.push_str(self.pick(&["true", "false"])),
                    1 => {
                        out.push_str(self.pick(&["S", "R2", "U", "E", "A"]));
                        out.push('(');
                        self.term(1, out);
                        if self.below(2) == 0 {
                            out.push_str(", ");
                            self.term(1, out);
                        }
                        out.push(')');
                    }
                    _ => {
                        self.term(2, out);
                        for _ in 0..1 + self.below(3) / 2 {
                            self.space(out);
                            out.push_str(self.pick(&["=", "!=", "<", "<=", ">", ">="]));
                            self.space(out);
                            self.term(2, out);
                        }
                    }
                }
                return;
            }
            match self.below(8) {
                0 => {
                    out.push('!');
                    self.formula(depth - 1, out);
                }
                1 => {
                    out.push('(');
                    self.formula(depth - 1, out);
                    out.push(')');
                }
                2 => {
                    out.push_str(self.pick(&["exists", "forall", "E", "A", "Eadom", "Aadom"]));
                    out.push(' ');
                    out.push_str(self.pick(&["y", "z", "y, z", "y z", "x3"]));
                    out.push_str(". ");
                    self.formula(depth - 1, out);
                }
                op => {
                    self.formula(depth - 1, out);
                    self.space(out);
                    out.push_str(["&", "|", "->", "<->", "&", "|"][op - 3]);
                    self.space(out);
                    self.formula(depth - 1, out);
                }
            }
        }

        fn source(&mut self) -> String {
            let mut src = String::new();
            self.formula(3, &mut src);
            match self.below(8) {
                // Truncated, at any byte (the generated text is ASCII).
                0 | 1 => src.truncate(self.below(src.len() + 1)),
                // One character inserted, replaced or deleted.
                2 | 3 => {
                    let at = self.below(src.len() + 1);
                    let c =
                        self.pick(&["(", ")", ".", "<", "-", ">", "=", "#", "é", "0", "x", " "]);
                    let end = (at + self.below(2)).min(src.len());
                    src.replace_range(at..end, if self.below(4) == 0 { "" } else { c });
                }
                // Token soup.
                4 => {
                    src.clear();
                    for _ in 0..self.below(24) {
                        src.push_str(self.pick(&[
                            "x", "S", "E", "exists", "Aadom", "(", ")", ",", ".", "&", "|", "!",
                            "<", ">", "=", "-", "+", "*", "/", "^", "<->", "->", "<=", "!=", "1",
                            "0.5", "7.", "@", "é", "true",
                        ]));
                        self.space(&mut src);
                    }
                }
                _ => {}
            }
            src
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The parser answers every source as the pre-borrowing parser
        /// does: the same tree with the same spans and polynomials, the
        /// same variables interned in the same order — or the same error.
        #[test]
        fn parser_matches_the_owned_token_oracle(seed in proptest::prelude::any::<u64>()) {
            let src = Gen(seed | 1).source();
            let (mut v1, mut v2) = (VarMap::new(), VarMap::new());
            for v in [&mut v1, &mut v2] {
                v.intern("z");
            }
            let got = parse_formula_spanned(&src, &mut v1);
            let want = crate::parser_oracle::parse_formula_spanned(&src, &mut v2);
            proptest::prop_assert_eq!(&got, &want, "source: {:?}", src);
            let names = |v: &VarMap| (0..v.len()).map(|i| v.name(Var(i as u32))).collect::<Vec<_>>();
            proptest::prop_assert_eq!(names(&v1), names(&v2), "source: {:?}", src);
        }
    }

    #[test]
    fn spanned_shift_moves_every_span() {
        let mut vars = VarMap::new();
        let mut f = parse_formula_spanned("x < 1 & S(y)", &mut vars).unwrap();
        let before = f.span;
        f.shift(10);
        assert_eq!(f.span, before.shift(10));
        f.visit(&mut |g| assert!(g.span.start >= 10));
    }
}
