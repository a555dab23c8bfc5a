//! The multi-pass driver: parse → scope → fragment/schema → Σ-discipline →
//! cost → absint, producing one [`Analysis`] per source file or per chunk
//! of one ([`AnalyzerState`]).

use crate::absint::{self, AbsintMemo, Verdict};
use crate::cost::{self, CostParams, CostReport};
use crate::diag::{self, Code, Diagnostic, Severity};
use crate::fragment::{self, FragmentReport, Schema};
use crate::program::{parse_statements, Program, Statement, SumStmt};
use crate::scope;
use crate::sigma::{self, GammaStatus};
use cqa_core::{Database, Relation};
use cqa_logic::ir::Arena;
use cqa_logic::{Formula, Span, SpannedFormula, SpannedNode, VarMap};
use cqa_poly::Var;
use cqa_qe::SimplifyMemo;
use std::collections::HashMap;

/// Analyzer configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyzerConfig {
    /// Cost-model parameters (ε, δ, assumed database size, KM budget).
    pub cost: CostParams,
    /// Whether to run the CQA008 blow-up lint at all.
    pub check_blowup: bool,
    /// Whether to run the interval abstract-interpretation pass
    /// (CQA011–CQA013 and the planner-grade cost refinements).
    pub absint: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            cost: CostParams::default(),
            check_blowup: true,
            absint: true,
        }
    }
}

/// Per-statement findings beyond the diagnostics: what the statement is and
/// what it costs.
#[derive(Clone, Debug)]
pub struct StatementReport {
    /// Statement name.
    pub name: String,
    /// `"rel"`, `"query"` or `"sum"`.
    pub kind: &'static str,
    /// Fragment classification and measurements.
    pub fragment: FragmentReport,
    /// Cost estimate (queries and sums; relations are data, not queries).
    pub cost: Option<CostReport>,
    /// For sums: whether γ was syntactically certified.
    pub gamma: Option<GammaStatus>,
}

/// The result of analyzing one source file (or one formula).
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by position.
    pub diagnostics: Vec<Diagnostic>,
    /// One report per successfully parsed statement.
    pub reports: Vec<StatementReport>,
}

impl Analysis {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// `true` iff any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Renders every diagnostic against the source.
    pub fn render(&self, src: &str, filename: &str) -> String {
        diag::render_all(&self.diagnostics, src, filename)
    }

    fn finish(mut self) -> Analysis {
        self.diagnostics.sort_by_key(|d| (d.span.start, d.code));
        self.diagnostics.dedup();
        self
    }
}

/// Running totals over the text an [`AnalyzerState`] has accepted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Statements accepted.
    pub statements: usize,
    /// `rel` statements among them.
    pub rels: usize,
    /// `query` statements among them.
    pub queries: usize,
    /// Distinct Σ-term names (a later `sum` of the same name replaces the
    /// earlier one).
    pub sums: usize,
    /// Warnings the accepted text raises, as one pass over all of it would
    /// count them.
    pub warnings: usize,
}

/// An accepted `.cqa` program kept in analysed form, so that more text can
/// be analysed against it at the cost of that text alone.
///
/// The state owns everything later text can depend on: the variable
/// numbering, the schema, the relation [`Database`] queries expand
/// through, the Σ-terms and the running [`Totals`] — plus one [`Arena`]
/// with its simplifier and absint memos, which only ever speed later work
/// up (their entries are functions of the interned node alone). Callers
/// that evaluate queries against the program work in the same arena
/// ([`AnalyzerState::ir_mut`]), so a session holds one of each.
/// [`AnalyzerState::analyze_chunk`] is the one way in; what it returns is
/// either committed or, by being dropped, rolled back without a trace.
/// After any sequence of commits the state equals what one
/// [`analyze_source`] pass over the concatenated accepted chunks builds.
#[derive(Debug, Default)]
pub struct AnalyzerState {
    cfg: AnalyzerConfig,
    /// Names of the accepted program, in statement order.
    vars: VarMap,
    schema: Schema,
    /// The accepted relations. Its variable map is `vars` plus whatever
    /// names queries evaluated against it have interned since the last
    /// commit ([`AnalyzerState::db_vars_mut`]).
    db: Database,
    sums: HashMap<String, SumStmt>,
    totals: Totals,
    /// CQA009 warnings counted in `totals.warnings` so far. They hold only
    /// while the schema is empty — one pass over the whole text would not
    /// raise them once it declares a relation anywhere — so the commit
    /// that brings the first `rel` takes them out again.
    adom_warnings: usize,
    arena: Arena,
    memo: AbsintMemo,
    simp: SimplifyMemo,
}

impl AnalyzerState {
    /// An empty program under `cfg`.
    pub fn new(cfg: AnalyzerConfig) -> AnalyzerState {
        AnalyzerState {
            cfg,
            ..AnalyzerState::default()
        }
    }

    /// The accepted program's variable names, numbered in statement order.
    pub fn vars(&self) -> &VarMap {
        &self.vars
    }

    /// The accepted relations, for evaluating queries against.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The database's variable map, for parsing a query that is about to be
    /// evaluated against [`AnalyzerState::db`]. Names interned here are the
    /// database's alone: the program's numbering does not see them, and the
    /// next commit resets the map to the program's.
    pub fn db_vars_mut(&mut self) -> &mut VarMap {
        self.db.vars_mut()
    }

    /// The accepted Σ-term of that name.
    pub fn sum(&self, name: &str) -> Option<&SumStmt> {
        self.sums.get(name)
    }

    /// Totals over the accepted text.
    pub fn totals(&self) -> Totals {
        self.totals
    }

    /// The formula arena with its simplifier and absint memos, lent to
    /// whoever evaluates queries against [`AnalyzerState::db`]. Nodes and
    /// memo entries stay when a chunk is dropped; they are functions of the
    /// interned node alone, so they are never wrong, only unused.
    pub fn ir_mut(&mut self) -> (&mut Arena, &mut SimplifyMemo, &mut AbsintMemo) {
        (&mut self.arena, &mut self.simp, &mut self.memo)
    }

    /// Analyses one chunk of `.cqa` source — whole lines, as many
    /// statements as it holds — against the accepted program. References
    /// from one statement of the chunk to a relation a later one defines
    /// resolve, as they do inside a file. Spans in the result are relative
    /// to the start of `src`.
    pub fn analyze_chunk(&mut self, src: &str) -> PendingChunk<'_> {
        let vars_len = self.vars.len();
        let (statements, diagnostics) = parse_statements(src, &mut self.vars);
        // The chunk's relations enter the schema and the database before
        // any statement is looked at. One pass over a file has no database
        // to expand through when a definition is refused (duplicate name,
        // quantified body); neither has the chunk then, so that the two
        // keep agreeing — such a chunk cannot be committed anyway.
        //
        // A body is lowered to a `Formula` here, once: the database checks
        // that it is quantifier-free and relation-free and keeps it, and
        // the statement's own pass reads it back from there.
        let mut schema_undo: Vec<(usize, Option<usize>)> = Vec::new();
        let mut load_error = None;
        for (i, stmt) in statements.iter().enumerate() {
            let Statement::Rel(r) = stmt else { continue };
            if load_error.is_none() {
                let params = r.params.iter().map(|b| b.var).collect();
                if let Err(e) = self
                    .db
                    .add_fr_relation(&r.name, params, r.body.to_formula())
                {
                    load_error = Some(format!("relation `{}`: {e}", r.name));
                    for &(added, _) in &schema_undo {
                        self.db.remove_relation(statements[added].name());
                    }
                }
            }
            let before = self.schema.insert(r.name.clone(), r.params.len());
            schema_undo.push((i, before));
        }
        let mut analysis = Analysis {
            diagnostics,
            reports: Vec::new(),
        };
        let in_db = load_error.is_none();
        for stmt in &statements {
            self.analyze_statement(stmt, in_db, &mut analysis);
        }
        PendingChunk {
            state: self,
            statements,
            analysis: analysis.finish(),
            load_error,
            vars_len,
            schema_undo,
            committed: false,
        }
    }

    /// Passes 1–5 over one parsed statement. `in_db`: the chunk's
    /// relations all joined the database, which then holds each `rel`
    /// body, lowered and checked to be quantifier-free and relation-free.
    fn analyze_statement(&mut self, stmt: &Statement, in_db: bool, analysis: &mut Analysis) {
        let cfg = self.cfg;
        match stmt {
            Statement::Rel(r) => {
                let params: Vec<Var> = r.params.iter().map(|b| b.var).collect();
                scope::check_scopes(&r.body, &params, &self.vars, &mut analysis.diagnostics);
                let lowered;
                let body = match self.db.relation(&r.name) {
                    Some(Relation::FinitelyRepresentable { formula, .. }) if in_db => formula,
                    _ => {
                        lowered = r.body.to_formula();
                        &lowered
                    }
                };
                if !in_db && (!body.is_quantifier_free() || !body.is_relation_free()) {
                    analysis.diagnostics.push(
                        Diagnostic::new(
                            crate::diag::Code::BadRelationDef,
                            r.name_span,
                            format!(
                                "relation `{}` must be defined by a quantifier-free, \
                                 relation-free constraint formula",
                                r.name
                            ),
                        )
                        .with_note(
                            "finitely representable instances interpret schema symbols \
                             by quantifier-free formulas (paper §2)",
                        ),
                    );
                }
                let body_id = self.arena.intern(body);
                analysis.reports.push(StatementReport {
                    name: r.name.clone(),
                    kind: "rel",
                    fragment: fragment::classify_id(&self.arena, body_id),
                    cost: None,
                    gamma: None,
                });
            }
            Statement::Query(q) => {
                let params: Vec<Var> = q.params.iter().map(|b| b.var).collect();
                scope::check_scopes(&q.body, &params, &self.vars, &mut analysis.diagnostics);
                fragment::check_relations(&q.body, &self.schema, &mut analysis.diagnostics);
                fragment::check_active_domain(&q.body, &self.schema, &mut analysis.diagnostics);
                let body = q.body.to_formula();
                let body_id = self.arena.intern(&body);
                let report = fragment::classify_id(&self.arena, body_id);
                let mut cost = cost::estimate(&report, params.len(), &self.schema, &cfg.cost);
                if cfg.check_blowup {
                    cost::check_blowup(&cost, q.name_span, &mut analysis.diagnostics);
                }
                if cfg.absint {
                    // Bounds must see through relation atoms, so the
                    // verdict runs on the database-expanded body; the
                    // CQA012 walk stays on the spanned original so its
                    // findings anchor to source bytes.
                    let expanded = in_db
                        .then(|| self.db.expand(&body).ok())
                        .flatten()
                        .unwrap_or_else(|| body.clone());
                    cost = absint_query_pass(
                        &mut self.arena,
                        &mut self.memo,
                        &mut self.simp,
                        &q.name,
                        &q.body,
                        &expanded,
                        &params,
                        &self.vars,
                        cost,
                        &mut analysis.diagnostics,
                    );
                }
                analysis.reports.push(StatementReport {
                    name: q.name.clone(),
                    kind: "query",
                    fragment: report,
                    cost: Some(cost),
                    gamma: None,
                });
            }
            Statement::Sum(s) => {
                let status = sigma::check_sum(s, &self.vars, &mut analysis.diagnostics);
                for part in [&s.filter, &s.end_formula, &s.gamma] {
                    fragment::check_relations(part, &self.schema, &mut analysis.diagnostics);
                    fragment::check_active_domain(part, &self.schema, &mut analysis.diagnostics);
                }
                // Measure the whole term: filter ∧ END body ∧ γ.
                let combined = s
                    .filter
                    .to_formula()
                    .and(s.end_formula.to_formula())
                    .and(s.gamma.to_formula());
                let combined_id = self.arena.intern(&combined);
                let report = fragment::classify_id(&self.arena, combined_id);
                let cost = cost::estimate(&report, s.tuple_vars.len(), &self.schema, &cfg.cost);
                if cfg.check_blowup {
                    cost::check_blowup(&cost, s.name_span, &mut analysis.diagnostics);
                }
                analysis.reports.push(StatementReport {
                    name: s.name.clone(),
                    kind: "sum",
                    fragment: report,
                    cost: Some(cost),
                    gamma: Some(status),
                });
            }
        }
    }
}

/// One analysed chunk, not yet part of the program: the state already
/// numbers its variables and knows its relations (which is how the chunk
/// was analysed), and forgets both again when this is dropped.
/// [`PendingChunk::commit`] makes the chunk part of the program instead.
#[derive(Debug)]
pub struct PendingChunk<'a> {
    state: &'a mut AnalyzerState,
    statements: Vec<Statement>,
    analysis: Analysis,
    load_error: Option<String>,
    /// What dropping undoes: the program's variable count before the
    /// chunk, and each schema entry the chunk's relations overwrote
    /// (`None` = was absent), by the index of the `rel` statement that
    /// overwrote it. The same names are in the database unless there is a
    /// `load_error`.
    vars_len: usize,
    schema_undo: Vec<(usize, Option<usize>)>,
    committed: bool,
}

impl PendingChunk<'_> {
    /// The chunk's own findings and per-statement reports.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The chunk's statements, in source order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// Why the chunk's relations cannot join the database (a name defined
    /// twice, a definition the database refuses), if they cannot.
    pub fn load_error(&self) -> Option<&str> {
        self.load_error.as_deref()
    }

    /// The database the chunk was analysed against: the accepted relations
    /// and the chunk's own.
    pub fn db(&self) -> &Database {
        &self.state.db
    }

    /// Makes the chunk part of the accepted program and returns the new
    /// totals.
    ///
    /// # Panics
    /// If the chunk has errors or a [`PendingChunk::load_error`]: accepted
    /// text is error-free, everything above relies on it.
    pub fn commit(mut self) -> Totals {
        assert!(
            !self.analysis.has_errors() && self.load_error.is_none(),
            "only a clean chunk can be committed"
        );
        self.committed = true;
        let state = &mut *self.state;
        // The database numbers variables as the program does; names that
        // queries interned into it since the last commit go.
        let db_vars = state.db.vars_mut();
        db_vars.truncate(self.vars_len);
        for i in self.vars_len..state.vars.len() {
            db_vars.intern(&state.vars.name(Var(i as u32)));
        }
        if state.schema.is_empty() {
            state.adom_warnings += self
                .analysis
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::EmptyActiveDomain)
                .count();
        } else {
            state.totals.warnings -= std::mem::take(&mut state.adom_warnings);
        }
        state.totals.warnings += self.analysis.warning_count();
        state.totals.statements += self.statements.len();
        for stmt in std::mem::take(&mut self.statements) {
            match stmt {
                Statement::Rel(_) => state.totals.rels += 1,
                Statement::Query(_) => state.totals.queries += 1,
                Statement::Sum(s) => {
                    state.sums.insert(s.name.clone(), s);
                }
            }
        }
        state.totals.sums = state.sums.len();
        state.totals
    }

    /// The whole-file view of a chunk analysed against an empty state.
    fn into_program(mut self) -> (Program, Analysis) {
        self.committed = true;
        (
            Program {
                statements: std::mem::take(&mut self.statements),
                vars: std::mem::take(&mut self.state.vars),
            },
            std::mem::take(&mut self.analysis),
        )
    }
}

impl Drop for PendingChunk<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        self.state.vars.truncate(self.vars_len);
        for (i, before) in self.schema_undo.drain(..).rev() {
            let name = self.statements[i].name();
            if self.load_error.is_none() {
                self.state.db.remove_relation(name);
            }
            match before {
                Some(arity) => self.state.schema.insert(name.to_string(), arity),
                None => self.state.schema.remove(name),
            };
        }
    }
}

/// Analyzes a `.cqa` source file end to end: the file is the one chunk of
/// a fresh [`AnalyzerState`].
pub fn analyze_source(src: &str, cfg: &AnalyzerConfig) -> (Program, Analysis) {
    AnalyzerState::new(*cfg).analyze_chunk(src).into_program()
}

/// Pass 5 for one query: CQA011 (statically empty), CQA012 (statically
/// trivial subformula), CQA013 (no boundedness certificate for an output
/// variable), and the planner-grade cost refinements (post-pruning atom
/// count and certified box volume).
#[allow(clippy::too_many_arguments)]
fn absint_query_pass(
    arena: &mut Arena,
    memo: &mut AbsintMemo,
    simp: &mut SimplifyMemo,
    name: &str,
    spanned: &SpannedFormula,
    expanded: &Formula,
    params: &[Var],
    vars: &VarMap,
    cost: CostReport,
    diags: &mut Vec<Diagnostic>,
) -> CostReport {
    let eid = arena.intern(expanded);
    let facts = absint::analyze_id(arena, eid, memo);
    if facts.verdict == Verdict::Unsat {
        let mut d = Diagnostic::new(
            Code::StaticallyEmpty,
            spanned.span,
            format!("query `{name}` is statically empty: no real point satisfies its body"),
        )
        .with_note("the engine answers it with measure 0 without quantifier elimination");
        for v in params {
            let iv = absint::env_interval(&facts.env, *v);
            if !iv.is_top() {
                d = d.with_note(format!("derived bounds: {} ∈ {iv}", vars.name(*v)));
            }
        }
        diags.push(d);
    } else {
        for v in absint::unbounded_vars(&facts.env, params) {
            let sp = sigma::span_of_var(spanned, v);
            let sp = if sp.is_empty() { spanned.span } else { sp };
            let iv = absint::env_interval(&facts.env, v);
            diags.push(
                Diagnostic::new(
                    Code::UnboundedFreeVariable,
                    sp,
                    format!(
                        "free variable `{}` of query `{name}` has no boundedness \
                         certificate (derived bounds: {iv})",
                        vars.name(v)
                    ),
                )
                .with_note(
                    "the Monte Carlo sampling box cannot shrink along this dimension; \
                     add explicit range constraints if the variable is bounded",
                ),
            );
        }
        report_trivial_subformulas(arena, memo, spanned, diags);
    }
    let pruned = absint::prune_id(arena, eid, memo, simp);
    let pruned_atoms = arena.meta(pruned).sign_atoms;
    let vol = absint::box_volume(&facts.env, params);
    cost.with_absint(pruned_atoms, vol)
}

/// Top-down walk over the spanned body reporting *maximal* statically
/// valid subformulas (CQA012) — only nodes that carry at least one sign
/// atom, so a bare `true` never warns; a reported node's children are
/// not descended into.
fn report_trivial_subformulas(
    arena: &mut Arena,
    memo: &mut AbsintMemo,
    sf: &SpannedFormula,
    diags: &mut Vec<Diagnostic>,
) {
    let id = arena.intern(&sf.to_formula());
    if arena.meta(id).sign_atoms > 0 {
        let facts = absint::analyze_id(arena, id, memo);
        if facts.verdict == Verdict::Valid {
            diags.push(
                Diagnostic::new(
                    Code::StaticallyTrivial,
                    sf.span,
                    "subformula is statically valid (always true) and contributes nothing",
                )
                .with_note("the simplifier prunes it before elimination; consider deleting it"),
            );
            return;
        }
    }
    match &sf.node {
        SpannedNode::Not(g)
        | SpannedNode::Exists(_, g)
        | SpannedNode::Forall(_, g)
        | SpannedNode::ExistsAdom(_, g)
        | SpannedNode::ForallAdom(_, g) => report_trivial_subformulas(arena, memo, g, diags),
        SpannedNode::And(gs) | SpannedNode::Or(gs) => {
            for g in gs {
                report_trivial_subformulas(arena, memo, g, diags);
            }
        }
        _ => {}
    }
}

/// Analyzes one programmatically built formula (no spans): scope via free
/// variables, schema conformance, classification, and cost. This is the
/// entry point the bench workloads and library callers use to lint
/// queries built in code rather than parsed from `.cqa` text.
pub fn analyze_formula(
    f: &Formula,
    params: &[Var],
    schema: &Schema,
    vars: &VarMap,
    cfg: &AnalyzerConfig,
) -> Analysis {
    let mut analysis = Analysis {
        diagnostics: Vec::new(),
        reports: Vec::new(),
    };
    for v in f.free_vars() {
        if !params.contains(&v) {
            analysis.diagnostics.push(
                Diagnostic::new(
                    crate::diag::Code::UnboundVariable,
                    cqa_logic::Span::default(),
                    format!("unbound variable `{}`", vars.name(v)),
                )
                .with_note("declare it as a parameter or bind it with a quantifier"),
            );
        }
    }
    fragment::check_relations_plain(f, schema, &mut analysis.diagnostics);
    let report = fragment::classify(f);
    let mut cost = cost::estimate(&report, params.len(), schema, &cfg.cost);
    if cfg.check_blowup {
        cost::check_blowup(&cost, cqa_logic::Span::default(), &mut analysis.diagnostics);
    }
    if cfg.absint {
        // No spans and no database here: relation atoms stay opaque, and
        // every finding anchors to the default span.
        let mut arena = Arena::new();
        let mut memo = AbsintMemo::new();
        let mut simp = SimplifyMemo::new();
        let id = arena.intern(f);
        let facts = absint::analyze_id(&arena, id, &mut memo);
        if facts.verdict == Verdict::Unsat {
            analysis.diagnostics.push(Diagnostic::new(
                Code::StaticallyEmpty,
                Span::default(),
                "query is statically empty: no real point satisfies its body",
            ));
        } else {
            for v in absint::unbounded_vars(&facts.env, params) {
                analysis.diagnostics.push(Diagnostic::new(
                    Code::UnboundedFreeVariable,
                    Span::default(),
                    format!(
                        "free variable `{}` has no boundedness certificate",
                        vars.name(v)
                    ),
                ));
            }
        }
        let pruned = absint::prune_id(&mut arena, id, &mut memo, &mut simp);
        cost = cost.with_absint(
            arena.meta(pruned).sign_atoms,
            absint::box_volume(&facts.env, params),
        );
    }
    analysis.reports.push(StatementReport {
        name: "<formula>".to_string(),
        kind: "query",
        fragment: report,
        cost: Some(cost),
        gamma: None,
    });
    analysis.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use cqa_logic::parse_formula_with;

    #[test]
    fn clean_program_has_no_findings() {
        let src = "\
rel S(y) := (0 <= y & y <= 1) | y = 4
query Q(x) := exists y. S(y) & x = y + 1
sum T(w) := w > 0 | END[y. S(y)] ; x . x = 2*w
";
        let cfg = AnalyzerConfig {
            cost: CostParams {
                db_size: 4,
                budget: cqa_approx::km::KmBudget {
                    max_atoms: 1e30,
                    max_quantifiers: 1e30,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, a) = analyze_source(src, &cfg);
        assert!(a.diagnostics.is_empty(), "{}", a.render(src, "t.cqa"));
        assert_eq!(a.reports.len(), 3);
        assert_eq!(a.reports[2].gamma, Some(GammaStatus::Certified));
    }

    #[test]
    fn chunks_commit_or_vanish() {
        let mut state = AnalyzerState::default();
        // An active-domain quantifier before any relation: CQA009 counts.
        let a = state.analyze_chunk("query A(v) := 0 <= v & v <= 1 & Eadom w. w = v\n");
        let codes: Vec<Code> = a.analysis().diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::EmptyActiveDomain), "{codes:?}");
        let with_adom = a.commit().warnings;

        // Dropped: the chunk's names and its relation are gone again.
        let b = state.analyze_chunk("rel S(fresh) := 0 <= fresh\nquery Bad(x) := S(x, x)\n");
        assert!(b.analysis().has_errors());
        assert!(b.db().relation("S").is_some());
        drop(b);
        assert!(state.db().relation("S").is_none());
        assert_eq!(state.vars().get("fresh"), None);

        // A query may use a relation its own chunk defines further down,
        // and the first relation takes the CQA009 warning out of the count.
        let c = state.analyze_chunk("query Q(x) := S(x) & x <= 1\nrel S(y) := 0 <= y\n");
        assert!(!c.analysis().has_errors(), "{:?}", c.analysis().diagnostics);
        let own = c.analysis().warning_count();
        let t = c.commit();
        assert_eq!(t.warnings, with_adom - 1 + own);
        assert_eq!((t.statements, t.rels, t.queries), (3, 1, 2));

        // A name defined twice is refused by the database, not by a lint.
        let d = state.analyze_chunk("rel S(z) := z <= 2\n");
        assert!(!d.analysis().has_errors());
        assert_eq!(
            d.load_error(),
            Some("relation `S`: relation S already defined")
        );
        drop(d);
        assert_eq!(state.totals(), t);
    }

    #[test]
    fn each_pass_reports_through_the_driver() {
        let src = "\
rel S(y) := exists z. z = y
query Q(x) := x = z & Missing(x) & S(x, x)
sum T(w) := w > u | END[y. 0 <= y & y <= 1] ; x . x*x = w
";
        let (_, a) = analyze_source(src, &AnalyzerConfig::default());
        let codes: Vec<Code> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::BadRelationDef), "{codes:?}");
        assert!(codes.contains(&Code::UnboundVariable), "{codes:?}");
        assert!(codes.contains(&Code::UnknownRelation), "{codes:?}");
        assert!(codes.contains(&Code::ArityMismatch), "{codes:?}");
        assert!(codes.contains(&Code::SigmaRangeUnbound), "{codes:?}");
        assert!(codes.contains(&Code::GammaNotCertified), "{codes:?}");
        assert!(a.has_errors());
    }

    #[test]
    fn absint_pass_reports_static_verdicts() {
        let src = "\
rel S(y) := 0 <= y & y <= 1
query Empty(x) := S(x) & x > 2 & x < 1
query Trivial(x) := S(x) & x*x >= 0
query Loose(x, z) := S(x) & z > 0
";
        let (_, a) = analyze_source(src, &AnalyzerConfig::default());
        let codes: Vec<Code> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::StaticallyEmpty), "{codes:?}");
        assert!(codes.contains(&Code::StaticallyTrivial), "{codes:?}");
        assert!(codes.contains(&Code::UnboundedFreeVariable), "{codes:?}");
        // Warnings only: the program still evaluates.
        assert!(!a.has_errors());
        // Every finding carries a real span.
        for d in &a.diagnostics {
            assert!(!d.span.is_empty(), "{:?} has an empty span", d.code);
        }
        // The trivial conjunct is pruned from the planner-grade atom count
        // and the bounded query certifies a shrunken box.
        let trivial = &a.reports[2];
        assert!(trivial.cost.unwrap().pruned_atoms.unwrap() < 3);
        let empty = &a.reports[1];
        assert_eq!(empty.cost.unwrap().pruned_atoms, Some(0));
        let loose = &a.reports[3];
        assert_eq!(loose.cost.unwrap().box_volume, Some(1.0));
    }

    #[test]
    fn absint_pass_can_be_disabled() {
        let src = "query Empty(x) := x > 2 & x < 1\n";
        let cfg = AnalyzerConfig {
            absint: false,
            check_blowup: false,
            ..Default::default()
        };
        let (_, a) = analyze_source(src, &cfg);
        assert!(a.diagnostics.is_empty(), "{}", a.render(src, "t.cqa"));
        assert_eq!(a.reports[0].cost.unwrap().pruned_atoms, None);
    }

    #[test]
    fn blowup_lint_fires_on_the_paper_example() {
        let src = "\
rel U(u) := u = 0 | u = 1
query Phi(x1, x2) := U(x1) & U(x2) & exists y1 y2. x1 < y1 & y1 < x2 & 0 <= y2 & y2 <= y1
";
        let cfg = AnalyzerConfig {
            cost: CostParams {
                eps: 0.1,
                db_size: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, a) = analyze_source(src, &cfg);
        let blow = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::KmBlowup)
            .expect("expected CQA008");
        assert!(blow.message.contains("blow up"));
        let cost = a.reports[1].cost.unwrap();
        assert!(cost.km.atoms >= 1e9);
        assert!(cost.km.quantifiers >= 1e11);
    }

    #[test]
    fn formula_entry_point_lints_plain_asts() {
        let mut vars = cqa_logic::VarMap::new();
        let x = vars.intern("x");
        let f = parse_formula_with("x = z + 1 & R(x)", &mut vars).unwrap();
        let a = analyze_formula(
            &f,
            &[x],
            &Schema::new(),
            &vars,
            &AnalyzerConfig {
                check_blowup: false,
                ..Default::default()
            },
        );
        let codes: Vec<Code> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::UnboundVariable));
        assert!(codes.contains(&Code::UnknownRelation));
    }
}
