//! The `.cqa` program surface syntax: named relations, queries, and
//! Σ-terms in one line-oriented source file.
//!
//! ```text
//! # comments start with `#`; one statement per line
//! rel   S(y)    := (0 <= y & y <= 1) | y = 4
//! query Q(x)    := exists y. S(y) & x = y + 1
//! sum   T(w)    := true | END[y. S(y)] ; xout . xout = 2*w
//! ```
//!
//! * `rel NAME(p…) := φ` — a finitely representable relation (φ must be a
//!   quantifier-free, relation-free constraint formula over the
//!   parameters).
//! * `query NAME(x…) := φ` — a first-order query with output columns `x…`.
//! * `sum NAME(w…) := φ₁ | END[y. φ₂] ; x . γ` — the paper's §5 summation
//!   term `Σ_{ρ(w⃗)} γ` with `ρ ≡ (φ₁ | END[y, φ₂])` and summand
//!   `γ(x, w⃗)`.
//!
//! Parsing keeps byte spans on every sub-formula (shifted into file
//! coordinates), so downstream passes can point diagnostics at the exact
//! source text. Syntax errors are reported as CQA000 diagnostics; a
//! malformed statement is skipped while the rest of the file still parses.

use crate::diag::{Code, Diagnostic};
use cqa_agg::{Deterministic, RangeRestricted, SumTerm};
use cqa_core::Database;
use cqa_logic::{parse_formula_spanned, BoundVar, Span, SpannedFormula, VarMap};
use cqa_poly::Var;

/// `rel NAME(p…) := φ`.
#[derive(Clone, Debug)]
pub struct RelStmt {
    /// Relation name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Parameters, in argument order.
    pub params: Vec<BoundVar>,
    /// Defining formula.
    pub body: SpannedFormula,
    /// Span of the whole statement.
    pub span: Span,
}

/// `query NAME(x…) := φ`.
#[derive(Clone, Debug)]
pub struct QueryStmt {
    /// Query name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// Output columns.
    pub params: Vec<BoundVar>,
    /// The query formula.
    pub body: SpannedFormula,
    /// Span of the whole statement.
    pub span: Span,
}

/// `sum NAME(w…) := φ₁ | END[y. φ₂] ; x . γ`.
#[derive(Clone, Debug)]
pub struct SumStmt {
    /// Term name.
    pub name: String,
    /// Span of the name.
    pub name_span: Span,
    /// The tuple variables `w⃗`.
    pub tuple_vars: Vec<BoundVar>,
    /// The filter `φ₁(w⃗)`.
    pub filter: SpannedFormula,
    /// The `END` bound variable `y`.
    pub end_var: BoundVar,
    /// The `END` body `φ₂(y)`.
    pub end_formula: SpannedFormula,
    /// The summand's output variable `x`.
    pub out_var: BoundVar,
    /// The summand `γ(x, w⃗)`.
    pub gamma: SpannedFormula,
    /// Span of the whole statement.
    pub span: Span,
}

impl SumStmt {
    /// Lowers to the evaluable [`SumTerm`] of `cqa-agg`.
    pub fn to_sum_term(&self) -> SumTerm {
        let tuple_vars: Vec<Var> = self.tuple_vars.iter().map(|b| b.var).collect();
        SumTerm {
            range: RangeRestricted {
                filter: self.filter.to_formula(),
                tuple_vars: tuple_vars.clone(),
                end_var: self.end_var.var,
                end_formula: self.end_formula.to_formula(),
            },
            gamma: Deterministic {
                out_var: self.out_var.var,
                in_vars: tuple_vars,
                formula: self.gamma.to_formula(),
            },
        }
    }
}

/// One program statement.
// Statements are parsed once and then only traversed by reference, so the
// size spread between variants (SumStmt is three formulas wide) is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Statement {
    /// A relation definition.
    Rel(RelStmt),
    /// A first-order query.
    Query(QueryStmt),
    /// A Σ-term.
    Sum(SumStmt),
}

impl Statement {
    /// The statement's name.
    pub fn name(&self) -> &str {
        match self {
            Statement::Rel(s) => &s.name,
            Statement::Query(s) => &s.name,
            Statement::Sum(s) => &s.name,
        }
    }

    /// The span of the whole statement.
    pub fn span(&self) -> Span {
        match self {
            Statement::Rel(s) => s.span,
            Statement::Query(s) => s.span,
            Statement::Sum(s) => s.span,
        }
    }
}

/// A parsed `.cqa` program: statements plus the shared variable map.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The statements, in file order.
    pub statements: Vec<Statement>,
    /// Variable names interned across the whole file.
    pub vars: VarMap,
}

impl Program {
    /// Builds a [`Database`] holding the program's relations, with the same
    /// variable interning as the program (so statement formulas evaluate
    /// directly against it).
    pub fn to_database(&self) -> Result<Database, String> {
        let mut db = Database::new();
        for i in 0..self.vars.len() {
            db.vars_mut().intern(&self.vars.name(Var(i as u32)));
        }
        for s in &self.statements {
            if let Statement::Rel(r) = s {
                db.add_fr_relation(
                    &r.name,
                    r.params.iter().map(|b| b.var).collect(),
                    r.body.to_formula(),
                )
                .map_err(|e| format!("relation `{}`: {e}", r.name))?;
            }
        }
        Ok(db)
    }
}

/// Parses a `.cqa` source file. Statements that fail to parse become
/// CQA000 diagnostics and are skipped; the rest of the file is still
/// processed.
pub fn parse_program(src: &str) -> (Program, Vec<Diagnostic>) {
    let mut vars = VarMap::new();
    let (statements, diags) = parse_statements(src, &mut vars);
    (Program { statements, vars }, diags)
}

/// [`parse_program`] against a variable map that may already hold names:
/// a later piece of a program numbers its variables exactly as it would
/// inside the whole file. Spans are relative to the start of `src`.
pub(crate) fn parse_statements(src: &str, vars: &mut VarMap) -> (Vec<Statement>, Vec<Diagnostic>) {
    let mut statements = Vec::new();
    let mut diags = Vec::new();
    let mut offset = 0;
    for line in src.split_inclusive('\n') {
        let line_start = offset;
        offset += line.len();
        let text = line.trim_end_matches(['\n', '\r']);
        let trimmed = text.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let base = line_start + (text.len() - trimmed.len());
        match parse_statement(trimmed, base, vars) {
            Ok(stmt) => statements.push(stmt),
            Err(d) => diags.push(d),
        }
    }
    (statements, diags)
}

/// A tiny cursor over one statement line; `base` converts local positions
/// to file offsets.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.s[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        let at = self.base + self.pos;
        Diagnostic::new(
            Code::Syntax,
            Span::new(at, (at + 1).min(self.base + self.s.len()).max(at)),
            msg,
        )
    }

    fn ident(&mut self) -> Result<(&'a str, Span), Diagnostic> {
        let start = self.pos;
        let rest = &self.s[start..];
        let len = rest
            .char_indices()
            .take_while(|&(i, c)| {
                c == '_'
                    || if i == 0 {
                        c.is_ascii_alphabetic()
                    } else {
                        c.is_ascii_alphanumeric()
                    }
            })
            .count();
        if len == 0 {
            return Err(self.err("expected an identifier"));
        }
        self.pos += len;
        Ok((
            &rest[..len],
            Span::new(self.base + start, self.base + start + len),
        ))
    }

    fn expect(&mut self, tok: &str) -> Result<(), Diagnostic> {
        if self.s[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{tok}`")))
        }
    }
}

/// Parses a formula slice, shifting its spans to file coordinates.
fn parse_slice(
    slice: &str,
    abs_off: usize,
    vars: &mut VarMap,
) -> Result<SpannedFormula, Diagnostic> {
    match parse_formula_spanned(slice, vars) {
        Ok(mut f) => {
            f.shift(abs_off);
            Ok(f)
        }
        Err(e) => Err(Diagnostic::new(
            Code::Syntax,
            Span::new(abs_off + e.at, abs_off + e.at + 1),
            e.msg,
        )),
    }
}

/// The identifier (and its span) filling `slice` at file offset `abs_off`,
/// ignoring surrounding whitespace.
fn lone_ident(slice: &str, abs_off: usize, what: &str) -> Result<(String, Span), Diagnostic> {
    let trimmed = slice.trim();
    let lead = slice.len() - slice.trim_start().len();
    let ok = !trimmed.is_empty()
        && trimmed.chars().enumerate().all(|(i, c)| {
            c == '_'
                || if i == 0 {
                    c.is_ascii_alphabetic()
                } else {
                    c.is_ascii_alphanumeric()
                }
        });
    if !ok {
        return Err(Diagnostic::new(
            Code::Syntax,
            Span::new(abs_off + lead, abs_off + lead + trimmed.len().max(1)),
            format!("expected {what}"),
        ));
    }
    Ok((
        trimmed.to_string(),
        Span::new(abs_off + lead, abs_off + lead + trimmed.len()),
    ))
}

fn parse_statement(stmt: &str, base: usize, vars: &mut VarMap) -> Result<Statement, Diagnostic> {
    let kw_end = stmt.find(char::is_whitespace).unwrap_or(stmt.len());
    let kw = &stmt[..kw_end];
    let span = Span::new(base, base + stmt.len());
    let mut c = Cursor {
        s: stmt,
        pos: kw_end,
        base,
    };
    if !matches!(kw, "rel" | "query" | "sum") {
        return Err(c.err(format!(
            "unknown statement keyword `{kw}` (expected `rel`, `query` or `sum`)"
        )));
    }
    c.skip_ws();
    let (name, name_span) = c.ident()?;
    let name = name.to_string();
    c.skip_ws();
    c.expect("(")?;
    let mut params: Vec<BoundVar> = Vec::new();
    loop {
        c.skip_ws();
        if c.s[c.pos..].starts_with(')') {
            c.pos += 1;
            break;
        }
        let (p, pspan) = c.ident()?;
        params.push(BoundVar {
            var: vars.intern(p),
            span: pspan,
        });
        c.skip_ws();
        if c.s[c.pos..].starts_with(',') {
            c.pos += 1;
        } else {
            c.expect(")")?;
            break;
        }
    }
    c.skip_ws();
    c.expect(":=")?;
    let body_off = c.pos;
    let body = &stmt[body_off..];
    let abs = |i: usize| base + body_off + i;

    match kw {
        "rel" => Ok(Statement::Rel(RelStmt {
            name,
            name_span,
            params,
            body: parse_slice(body, abs(0), vars)?,
            span,
        })),
        "query" => Ok(Statement::Query(QueryStmt {
            name,
            name_span,
            params,
            body: parse_slice(body, abs(0), vars)?,
            span,
        })),
        _ => {
            // sum NAME(w…) := φ₁ | END[y. φ₂] ; x . γ
            let syntax_err = |at: usize, msg: &str| {
                Diagnostic::new(
                    Code::Syntax,
                    Span::new(abs(at), abs(at) + 1),
                    msg.to_string(),
                )
            };
            let ei = body
                .find("END[")
                .ok_or_else(|| syntax_err(0, "sum statement requires an `END[y. φ]` range"))?;
            let pipe = body[..ei]
                .rfind('|')
                .ok_or_else(|| syntax_err(ei, "expected `φ | END[y. φ]`"))?;
            if !body[pipe + 1..ei].trim().is_empty() {
                return Err(syntax_err(
                    pipe + 1,
                    "unexpected text between `|` and `END[`",
                ));
            }
            let filter = parse_slice(&body[..pipe], abs(0), vars)?;
            let close = ei
                + body[ei..]
                    .find(']')
                    .ok_or_else(|| syntax_err(ei, "unclosed `END[`"))?;
            let inner = &body[ei + 4..close];
            let dot = inner
                .find('.')
                .ok_or_else(|| syntax_err(ei + 4, "expected `END[y. φ]`"))?;
            let (end_name, end_span) =
                lone_ident(&inner[..dot], abs(ei + 4), "the END binder variable")?;
            let end_var = BoundVar {
                var: vars.intern(&end_name),
                span: end_span,
            };
            let end_formula = parse_slice(&inner[dot + 1..], abs(ei + 4 + dot + 1), vars)?;
            let after = &body[close + 1..];
            let semi = after
                .find(';')
                .ok_or_else(|| syntax_err(close + 1, "expected `; x . γ` after `END[…]`"))?;
            if !after[..semi].trim().is_empty() {
                return Err(syntax_err(close + 1, "unexpected text between `]` and `;`"));
            }
            let gpart = &after[semi + 1..];
            let gdot = gpart
                .find('.')
                .ok_or_else(|| syntax_err(close + 1 + semi + 1, "expected `x . γ`"))?;
            let (out_name, out_span) = lone_ident(
                &gpart[..gdot],
                abs(close + 1 + semi + 1),
                "the summand output variable",
            )?;
            let out_var = BoundVar {
                var: vars.intern(&out_name),
                span: out_span,
            };
            let gamma = parse_slice(
                &gpart[gdot + 1..],
                abs(close + 1 + semi + 1 + gdot + 1),
                vars,
            )?;
            Ok(Statement::Sum(SumStmt {
                name,
                name_span,
                tuple_vars: params,
                filter,
                end_var,
                end_formula,
                out_var,
                gamma,
                span,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    const DEMO: &str = "\
# endpoints demo
rel S(y) := (0 <= y & y <= 0.5) | (0.75 <= y & y <= 2)
query Q(x) := exists y. S(y) & x = y + 1
sum T(w) := true | END[y. S(y)] ; xout . xout = w
";

    #[test]
    fn parses_all_statement_kinds_with_file_spans() {
        let (prog, diags) = parse_program(DEMO);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(prog.statements.len(), 3);
        assert_eq!(prog.statements[0].name(), "S");
        assert_eq!(prog.statements[2].name(), "T");
        let Statement::Sum(sum) = &prog.statements[2] else {
            panic!()
        };
        // The END body span points into the file, not the slice.
        let sp = sum.end_formula.span;
        assert_eq!(&DEMO[sp.start..sp.end], "S(y)");
        let op = sum.out_var.span;
        assert_eq!(&DEMO[op.start..op.end], "xout");
    }

    #[test]
    fn sum_statement_evaluates_from_source() {
        let (prog, diags) = parse_program(DEMO);
        assert!(diags.is_empty(), "{diags:?}");
        let db = prog.to_database().unwrap();
        let Statement::Sum(sum) = &prog.statements[2] else {
            panic!()
        };
        // Endpoints of S: 0, 1/2, 3/4, 2 → sum 13/4 (the paper's §5
        // opening example).
        assert_eq!(
            sum.to_sum_term()
                .eval_with_budget(&db, &cqa_logic::budget::EvalBudget::unlimited())
                .unwrap(),
            rat(13, 4)
        );
    }

    #[test]
    fn bad_statements_are_reported_and_skipped() {
        let src = "rel S(y) := y >= @\nquery Q(x) := S(x)\nbogus W(x) := x > 0\n";
        let (prog, diags) = parse_program(src);
        assert_eq!(prog.statements.len(), 1);
        assert_eq!(prog.statements[0].name(), "Q");
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == Code::Syntax));
    }

    #[test]
    fn sum_requires_its_shape() {
        let (_, d1) = parse_program("sum T(w) := w > 0 ; x . x = w\n");
        assert_eq!(d1.len(), 1);
        assert!(d1[0].message.contains("END["));
        let (_, d2) = parse_program("sum T(w) := true | END[y. S(y)] x . x = w\n");
        assert_eq!(d2.len(), 1);
        assert!(d2[0].message.contains(';'));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (prog, diags) = parse_program("\n# nothing\n   \n");
        assert!(diags.is_empty());
        assert!(prog.statements.is_empty());
    }
}
