//! Compiler-style diagnostics: stable codes, severities, byte-span
//! locations, and rustc-like rendering with source excerpts.

use cqa_logic::Span;

/// Stable diagnostic codes. The numeric part never changes meaning across
//  versions; retired codes are not reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// CQA000 — a statement or formula failed to parse.
    Syntax,
    /// CQA001 — a variable occurs free where no binder or parameter
    /// declares it.
    UnboundVariable,
    /// CQA002 — a quantifier rebinds a variable already in scope.
    ShadowedBinder,
    /// CQA003 — a quantifier binds a variable its body never uses.
    UnusedBinder,
    /// CQA004 — a relation atom names a relation absent from the schema.
    UnknownRelation,
    /// CQA005 — a relation atom's argument count differs from the schema
    /// arity.
    ArityMismatch,
    /// CQA006 — a Σ-term part (filter, `END` body, or summand γ) uses a
    /// variable outside its binding discipline.
    SigmaRangeUnbound,
    /// CQA007 — the summand γ is not syntactically deterministic;
    /// evaluation falls back to the QE-based semantic check.
    GammaNotCertified,
    /// CQA008 — the predicted Karpinski–Macintyre approximation formula
    /// exceeds the configured budget (the paper's Section-3 blow-up).
    KmBlowup,
    /// CQA009 — an active-domain quantifier ranges over an empty active
    /// domain (no relations in scope).
    EmptyActiveDomain,
    /// CQA010 — a relation definition is not a quantifier-free,
    /// relation-free constraint formula over its parameters.
    BadRelationDef,
    /// CQA011 — interval analysis proves the query body unsatisfiable:
    /// the query is statically empty and evaluation returns the empty
    /// answer (measure 0) without quantifier elimination.
    StaticallyEmpty,
    /// CQA012 — interval analysis proves a subformula valid (always
    /// true): the subformula contributes nothing and can be dropped.
    StaticallyTrivial,
    /// CQA013 — a free variable of a volume/SUM query carries no
    /// boundedness certificate: interval analysis cannot bound it, so
    /// the Monte Carlo sampling box cannot shrink along that dimension.
    UnboundedFreeVariable,
}

impl Code {
    /// The stable code string, e.g. `"CQA001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Syntax => "CQA000",
            Code::UnboundVariable => "CQA001",
            Code::ShadowedBinder => "CQA002",
            Code::UnusedBinder => "CQA003",
            Code::UnknownRelation => "CQA004",
            Code::ArityMismatch => "CQA005",
            Code::SigmaRangeUnbound => "CQA006",
            Code::GammaNotCertified => "CQA007",
            Code::KmBlowup => "CQA008",
            Code::EmptyActiveDomain => "CQA009",
            Code::BadRelationDef => "CQA010",
            Code::StaticallyEmpty => "CQA011",
            Code::StaticallyTrivial => "CQA012",
            Code::UnboundedFreeVariable => "CQA013",
        }
    }

    /// Every code, in numeric order — the runtime diagnostic catalog
    /// behind `cqa-lint --explain`.
    pub const ALL: [Code; 14] = [
        Code::Syntax,
        Code::UnboundVariable,
        Code::ShadowedBinder,
        Code::UnusedBinder,
        Code::UnknownRelation,
        Code::ArityMismatch,
        Code::SigmaRangeUnbound,
        Code::GammaNotCertified,
        Code::KmBlowup,
        Code::EmptyActiveDomain,
        Code::BadRelationDef,
        Code::StaticallyEmpty,
        Code::StaticallyTrivial,
        Code::UnboundedFreeVariable,
    ];

    /// Parses a code string (`"CQA011"`, case-insensitive, `CQA11` also
    /// accepted) back to the typed code.
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.trim().to_ascii_uppercase();
        let digits = s.strip_prefix("CQA")?;
        let n: u32 = digits.parse().ok()?;
        Code::ALL.iter().copied().find(|c| {
            c.as_str()
                .strip_prefix("CQA")
                .and_then(|d| d.parse::<u32>().ok())
                == Some(n)
        })
    }

    /// A one-line title for the catalog listing.
    pub fn title(self) -> &'static str {
        match self {
            Code::Syntax => "statement or formula failed to parse",
            Code::UnboundVariable => "variable occurs free with no binder or parameter",
            Code::ShadowedBinder => "quantifier rebinds a variable already in scope",
            Code::UnusedBinder => "quantifier binds a variable its body never uses",
            Code::UnknownRelation => "relation atom names a relation absent from the schema",
            Code::ArityMismatch => "relation atom argument count differs from schema arity",
            Code::SigmaRangeUnbound => "Σ-term part uses a variable outside its discipline",
            Code::GammaNotCertified => "summand γ is not syntactically deterministic",
            Code::KmBlowup => "predicted approximation formula exceeds the budget",
            Code::EmptyActiveDomain => "active-domain quantifier over an empty active domain",
            Code::BadRelationDef => "relation definition is not quantifier-free constraint",
            Code::StaticallyEmpty => "query body is statically unsatisfiable",
            Code::StaticallyTrivial => "subformula is statically valid (always true)",
            Code::UnboundedFreeVariable => "free variable has no boundedness certificate",
        }
    }

    /// The full catalog entry: what the code means, why it fires, and
    /// what to do about it.
    pub fn explain(self) -> &'static str {
        match self {
            Code::Syntax => {
                "The statement or formula could not be parsed. The rest of the \
                 program is still analyzed; fix the syntax at the reported span."
            }
            Code::UnboundVariable => {
                "A variable occurs free where no quantifier binds it and no query \
                 parameter declares it. Declare it as a parameter or bind it with \
                 `exists`/`forall`."
            }
            Code::ShadowedBinder => {
                "A quantifier rebinds a variable that an enclosing binder or \
                 parameter already declares. The inner binding wins, which is \
                 usually not what was meant; rename one of the two."
            }
            Code::UnusedBinder => {
                "A quantifier binds a variable its body never mentions. Over the \
                 reals the quantifier is then a no-op; remove it or use the \
                 variable."
            }
            Code::UnknownRelation => {
                "A relation atom names a relation the program never defines. \
                 Define it with a `rel` statement before use."
            }
            Code::ArityMismatch => {
                "A relation atom supplies a different number of arguments than \
                 the relation's definition declares."
            }
            Code::SigmaRangeUnbound => {
                "A part of a Σ-term (filter, END body, or summand γ) uses a \
                 variable outside the paper's binding discipline: filters may \
                 only use tuple variables, END bodies the end variable plus \
                 tuple variables, and γ the output variable plus tuple variables."
            }
            Code::GammaNotCertified => {
                "The summand γ is not in the functional-graph shape `out = t(w⃗)` \
                 the analyzer certifies as deterministic, so evaluation falls \
                 back to a QE-based semantic determinism check (slower, same \
                 answer)."
            }
            Code::KmBlowup => {
                "The Karpinski–Macintyre model predicts the ε-approximation \
                 formula for this query exceeds the configured atom budget — the \
                 paper's Section 3 blow-up. Consider relaxing ε or restructuring \
                 the query."
            }
            Code::EmptyActiveDomain => {
                "An active-domain quantifier ranges over an empty active domain \
                 (no relation atoms are in scope), so it quantifies over nothing: \
                 `existsadom` is false, `foralladom` is true."
            }
            Code::BadRelationDef => {
                "A relation definition must be a quantifier-free, relation-free \
                 constraint formula over its declared parameters (the paper's \
                 finitely-representable database model)."
            }
            Code::StaticallyEmpty => {
                "Interval abstract interpretation proved the query body \
                 unsatisfiable: some atom or conjunction admits no real point \
                 (e.g. `x > 2 & x < 1`). The engine answers such queries with \
                 the empty result (volume 0) without running quantifier \
                 elimination or sampling. If the query should be nonempty, the \
                 reported bounds show which constraints contradict."
            }
            Code::StaticallyTrivial => {
                "Interval abstract interpretation proved a subformula valid — \
                 true for every assignment (e.g. `x*x >= 0`). It contributes \
                 nothing to the query and can be deleted; the simplifier prunes \
                 it before elimination."
            }
            Code::UnboundedFreeVariable => {
                "A free variable of a volume/SUM query has no boundedness \
                 certificate: interval analysis derived no finite lower or upper \
                 bound, so the Monte Carlo sampling box cannot shrink along that \
                 dimension and cost estimates assume the full unit range. Add \
                 explicit range constraints if the variable is in fact bounded."
            }
        }
    }

    /// The severity this code always reports at.
    pub fn severity(self) -> Severity {
        match self {
            Code::Syntax
            | Code::UnboundVariable
            | Code::UnknownRelation
            | Code::ArityMismatch
            | Code::SigmaRangeUnbound
            | Code::BadRelationDef => Severity::Error,
            Code::ShadowedBinder
            | Code::UnusedBinder
            | Code::GammaNotCertified
            | Code::KmBlowup
            | Code::EmptyActiveDomain
            | Code::StaticallyEmpty
            | Code::StaticallyTrivial
            | Code::UnboundedFreeVariable => Severity::Warning,
        }
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but not necessarily wrong; evaluation may still succeed.
    Warning,
    /// Definitely wrong; evaluation would fail or answer the wrong
    /// question.
    Error,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: a coded, located, human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Where in the source the finding anchors (byte span).
    pub span: Span,
    /// The primary message.
    pub message: String,
    /// Secondary notes rendered below the excerpt.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Adds a secondary note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// The severity (derived from the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic rustc-style against its source text:
    ///
    /// ```text
    /// error[CQA001]: unbound variable `z`
    ///   --> queries.cqa:3:15
    ///    |
    ///  3 | query Q(x) := x = z + 1
    ///    |               ^^^^^^^^^
    /// ```
    pub fn render(&self, src: &str, filename: &str) -> String {
        let (line_no, col, line) = locate(src, self.span.start);
        let mut out = String::new();
        out.push_str(&format!(
            "{}[{}]: {}\n",
            self.severity().label(),
            self.code.as_str(),
            self.message
        ));
        out.push_str(&format!("  --> {filename}:{line_no}:{col}\n"));
        let gutter = line_no.to_string().len().max(2);
        out.push_str(&format!("{:>gutter$} |\n", ""));
        out.push_str(&format!("{line_no:>gutter$} | {line}\n"));
        let width = self
            .span
            .len()
            .max(1)
            .min(line.len().saturating_sub(col - 1).max(1));
        out.push_str(&format!(
            "{:>gutter$} | {}{}\n",
            "",
            " ".repeat(col - 1),
            "^".repeat(width)
        ));
        for note in &self.notes {
            out.push_str(&format!("{:>gutter$} = note: {note}\n", ""));
        }
        out
    }
}

/// 1-based line number, 1-based column, and the line's text at `offset`.
fn locate(src: &str, offset: usize) -> (usize, usize, &str) {
    let offset = offset.min(src.len());
    let before = &src[..offset];
    let line_no = before.matches('\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line_end = src[offset..].find('\n').map_or(src.len(), |i| offset + i);
    (line_no, offset - line_start + 1, &src[line_start..line_end])
}

/// Renders a batch of diagnostics, sorted by position then code.
pub fn render_all(diags: &[Diagnostic], src: &str, filename: &str) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| (d.span.start, d.code));
    sorted
        .iter()
        .map(|d| d.render(src, filename))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_typed() {
        assert_eq!(Code::UnboundVariable.as_str(), "CQA001");
        assert_eq!(Code::KmBlowup.as_str(), "CQA008");
        assert_eq!(Code::UnboundVariable.severity(), Severity::Error);
        assert_eq!(Code::KmBlowup.severity(), Severity::Warning);
    }

    #[test]
    fn rendering_points_at_the_span() {
        let src = "rel S(y) := y >= 0\nquery Q(x) := x = z + 1\n";
        let at = src.find("x = z").unwrap();
        let d = Diagnostic::new(
            Code::UnboundVariable,
            Span::new(at, at + 9),
            "unbound variable `z`",
        )
        .with_note("declare it as a parameter or bind it with a quantifier");
        let text = d.render(src, "queries.cqa");
        assert!(text.contains("error[CQA001]: unbound variable `z`"));
        assert!(text.contains("queries.cqa:2:15"));
        assert!(text.contains("query Q(x) := x = z + 1"));
        assert!(text.contains("^^^^^^^^^"));
        assert!(text.contains("note: declare it"));
    }

    #[test]
    fn catalog_is_complete_and_parseable() {
        assert_eq!(Code::ALL.len(), 14);
        // Numeric order is what `--explain` lists the catalog in.
        assert!(Code::ALL.windows(2).all(|w| w[0].as_str() < w[1].as_str()));
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert!(!c.title().is_empty());
            assert!(!c.explain().is_empty());
        }
        assert_eq!(Code::parse("cqa011"), Some(Code::StaticallyEmpty));
        assert_eq!(Code::parse("CQA13"), Some(Code::UnboundedFreeVariable));
        assert_eq!(Code::parse("CQA099"), None);
        assert_eq!(Code::parse("FOO"), None);
        assert_eq!(Code::StaticallyEmpty.severity(), Severity::Warning);
    }

    #[test]
    fn locate_handles_edges() {
        let (l, c, line) = locate("ab\ncd", 3);
        assert_eq!((l, c, line), (2, 1, "cd"));
        let (l, c, _) = locate("ab", 5);
        assert_eq!((l, c), (1, 3));
    }
}
