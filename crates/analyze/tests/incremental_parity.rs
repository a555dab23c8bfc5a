//! The incremental contract of [`AnalyzerState`], checked against one
//! from-scratch [`analyze_source`] pass over the same text:
//!
//! * a chunk analysed against the state gets exactly the findings and
//!   reports the pass over *accepted text + chunk* gives its statements
//!   (codes, messages, notes, order; spans shifted by the chunk's offset);
//! * after a commit the state — totals, variable numbering, relations,
//!   Σ-terms — is what the pass over the accepted text builds;
//! * a chunk that is not committed leaves the state as it was.
//!
//! Programs are random line sequences cut into random chunks: relations,
//! queries over relations defined earlier, later in the same chunk or (cut
//! permitting) only in a later one, Σ-terms, active-domain quantifiers
//! before the first `rel`, comments and blank lines, chunks without a
//! trailing newline, syntactically broken and lint-rejected lines,
//! relation names defined twice.

use cqa_analyze::{analyze_source, AnalyzerConfig, AnalyzerState, Diagnostic, Span, Statement};
use cqa_core::Database;
use cqa_logic::VarMap;
use cqa_poly::Var;
use proptest::prelude::*;

const VARS: [&str; 5] = ["x", "y", "z", "t", "u"];
const SUMS: [&str; 3] = ["T0", "T1", "T2"];

/// One line of a program, before names are resolved: `kind` picks the
/// shape, the rest picks names and constants.
type Raw = (u8, u8, u8, u8);

/// Name and arity of the relation line `i` defines, if it defines one.
fn defined(raw: &[Raw], i: usize) -> Option<(String, usize)> {
    let (kind, a, ..) = raw[i];
    match kind {
        0..=3 => Some((format!("R{}", a % 3), 1)),
        4 => Some((format!("P{}", a % 2), 2)),
        _ => None,
    }
}

/// The unary relation a query on line `i` refers to: one defined on an
/// earlier line, or on a later one (`later`), chosen by `pick`. Whether
/// that line is part of the accepted text, of the same chunk or of a chunk
/// still to come is up to the cuts.
fn unary(raw: &[Raw], i: usize, later: bool, pick: u8) -> Option<String> {
    let range = if later { i + 1..raw.len() } else { 0..i };
    let names: Vec<String> = range
        .filter_map(|j| defined(raw, j))
        .filter(|(_, arity)| *arity == 1)
        .map(|(name, _)| name)
        .collect();
    (!names.is_empty()).then(|| names[pick as usize % names.len()].clone())
}

fn lines(raw: &[Raw]) -> Vec<String> {
    (0..raw.len())
        .map(|i| {
            let (kind, a, b, c) = raw[i];
            let v = VARS[b as usize % 5];
            let w = VARS[(b as usize + 1 + c as usize % 4) % 5];
            // `R(v)` over an earlier or later relation, `true`-like bounds
            // when there is none to refer to.
            let atom = |later: bool, arg: &str| match unary(raw, i, later, a) {
                Some(r) => format!("{r}({arg})"),
                None => format!("(0 <= {arg} & {arg} <= 1)"),
            };
            match kind {
                0..=3 => format!(
                    "rel R{}({v}) := {}/8 <= {v} & {v} <= {}/8",
                    a % 3,
                    c % 4,
                    4 + c % 4
                ),
                4 => format!(
                    "rel P{}({v}, {w}) := 0 <= {v} & {v} <= {w} & {w} <= 1",
                    a % 2
                ),
                5 | 6 => format!("query Q{i}({v}) := {} & {v} >= {c}/8", atom(false, v)),
                7 => format!(
                    "query Q{i}({v}) := exists {w}. {} & {v} = {w} + 1",
                    atom(false, w)
                ),
                8 => format!("query Q{i}({v}) := {} & {v} >= {c}/8", atom(true, v)),
                9 => format!(
                    "query Q{i}({v}) := exists {w}. {} & {v} = {w} + 1",
                    atom(true, w)
                ),
                // One of each absint warning: CQA011, CQA012, CQA013.
                10 => match c % 3 {
                    0 => format!("query Q{i}({v}) := {} & {v} > 5 & {v} < 1", atom(false, v)),
                    1 => format!("query Q{i}({v}) := {} & {v}*{v} >= 0", atom(false, v)),
                    _ => format!("query Q{i}({v}, {w}) := {} & {w} > 0", atom(false, v)),
                },
                11 | 12 => {
                    format!("query A{i}({v}) := 0 <= {v} & {v} <= 1 & Eadom {w}. {w} = {v}")
                }
                13 | 14 => format!(
                    "sum {}({w}) := true | END[{v}. {}] ; xout . {} = {w}",
                    SUMS[a as usize % 3],
                    atom(false, v),
                    if c % 2 == 0 { "xout" } else { "xout*xout" }
                ),
                15 => format!("query Q{i}({v}, {w}) := 0 <= {v} & {v} <= {w} & {w} <= 1"),
                16 => format!("# note {a}"),
                17 => String::new(),
                18 => "   ".to_string(),
                // Syntax errors; the first two intern names before failing.
                19 => match c % 3 {
                    0 => format!("rel R9({v}, fresh{a} := 1"),
                    1 => format!("query Q{i}({v}) := {v} >= new{a} + @"),
                    _ => format!("bogus W({v}) := {v} > 0"),
                },
                // Lint errors: unbound variable, unknown relation, arity.
                20 => match c % 3 {
                    0 => format!("query Q{i}({v}) := {v} = stray{a} + 1"),
                    1 => format!("query Q{i}({v}) := Missing({v}) & {v} > 0"),
                    _ => format!("query Q{i}({v}) := {} & {v} > 0", atom(false, "1, 2")),
                },
                // A definition the database refuses as well.
                _ => format!("rel B{a}({v}) := exists {w}. {w} = {v}"),
            }
        })
        .collect()
}

/// Cuts the lines into chunks: a chunk ends after line `i` when `cuts[i].0`,
/// and then lacks its final newline when `cuts[i].1`.
fn chunks(lines: &[String], cuts: &[(bool, bool)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for (i, line) in lines.iter().enumerate() {
        cur.push_str(line);
        let (cut, bare) = cuts[i % cuts.len()];
        if cut || i + 1 == lines.len() {
            if !bare {
                cur.push('\n');
            }
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push('\n');
        }
    }
    out
}

fn names(vars: &VarMap) -> Vec<String> {
    (0..vars.len()).map(|i| vars.name(Var(i as u32))).collect()
}

fn relations(db: &Database) -> Vec<String> {
    db.relation_names()
        .map(|n| format!("{n}: {:?}", db.relation(n)))
        .collect()
}

/// Everything of a state a caller can observe.
fn observe(state: &AnalyzerState) -> String {
    format!(
        "{:?} | {:?} | {:?} | {:?} | {:?}",
        state.totals(),
        names(state.vars()),
        names(state.db().vars()),
        relations(state.db()),
        SUMS.map(|n| state.sum(n)),
    )
}

fn program() -> impl Strategy<Value = (Vec<Raw>, Vec<(bool, bool)>)> {
    (
        // Shapes 0–15 are well-formed statements; 19–21 are refused.
        prop::collection::vec((0u8..22, 0u8..8, 0u8..8, 0u8..8), 3..14),
        prop::collection::vec(
            (0u8..3, 0u8..4).prop_map(|(cut, bare)| (cut == 0, bare == 0)),
            14,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn chunked_analysis_equals_one_pass_over_the_accepted_text(
        program in program(),
        absint in any::<bool>(),
    ) {
        let (raw, cuts) = program;
        let cfg = AnalyzerConfig { absint, ..AnalyzerConfig::default() };
        let mut state = AnalyzerState::new(cfg);
        let mut accepted = String::new();
        for chunk in chunks(&lines(&raw), &cuts) {
            // What a query evaluated in between does: its names go into the
            // database's map only, stay through a rejection, and are gone
            // after the next commit.
            state.db_vars_mut().intern("u");
            state.db_vars_mut().intern("evaluated_only");
            let before = observe(&state);
            let mut candidate = format!("{accepted}{chunk}");
            if !candidate.ends_with('\n') {
                candidate.push('\n');
            }
            let (whole, full) = analyze_source(&candidate, &cfg);
            let pending = state.analyze_chunk(&chunk);

            // The chunk's findings are the pass's findings from the chunk's
            // offset on.
            let off = accepted.len();
            let expected: Vec<Diagnostic> = full
                .diagnostics
                .iter()
                .filter(|d| d.span.start >= off)
                .map(|d| Diagnostic {
                    span: Span::new(d.span.start - off, d.span.end - off),
                    ..d.clone()
                })
                .collect();
            prop_assert_eq!(&pending.analysis().diagnostics, &expected, "chunk {:?}", chunk);
            // Its reports are the pass's last ones.
            let reports = &pending.analysis().reports;
            prop_assert_eq!(reports.len(), pending.statements().len());
            let tail = &full.reports[full.reports.len() - reports.len()..];
            for (got, want) in reports.iter().zip(tail) {
                prop_assert_eq!(&got.name, &want.name);
                prop_assert_eq!(got.kind, want.kind);
                prop_assert_eq!(&got.fragment, &want.fragment, "{}", got.name);
                prop_assert_eq!(got.cost, want.cost, "{}", got.name);
                prop_assert_eq!(got.gamma, want.gamma, "{}", got.name);
            }

            // The accepted text is clean, so the pass's errors are the
            // chunk's, and both sides agree on whether it can be accepted.
            let whole_db = whole.to_database();
            let clean = !pending.analysis().has_errors() && pending.load_error().is_none();
            prop_assert_eq!(clean, !full.has_errors() && whole_db.is_ok());
            prop_assert_eq!(pending.load_error(), whole_db.as_ref().err().map(String::as_str));
            if !clean {
                drop(pending);
                prop_assert_eq!(observe(&state), before, "after rejecting {:?}", chunk);
                continue;
            }
            let totals = pending.commit();
            accepted = candidate;
            let count = |f: fn(&Statement) -> bool| whole.statements.iter().filter(|s| f(s)).count();
            prop_assert_eq!(totals.statements, whole.statements.len());
            prop_assert_eq!(totals.rels, count(|s| matches!(s, Statement::Rel(_))));
            prop_assert_eq!(totals.queries, count(|s| matches!(s, Statement::Query(_))));
            prop_assert_eq!(totals.warnings, full.warning_count(), "after {:?}", chunk);
            prop_assert_eq!(totals, state.totals());
            prop_assert_eq!(names(state.vars()), names(&whole.vars));
            let whole_db = whole_db.expect("checked above");
            prop_assert_eq!(names(state.db().vars()), names(whole_db.vars()));
            prop_assert_eq!(relations(state.db()), relations(&whole_db));
            // The last Σ-term of a name is the one that counts. Spans are
            // chunk-relative on one side and file-relative on the other;
            // the lowered term is what gets evaluated.
            let mut sums = 0;
            for name in SUMS {
                let want = whole.statements.iter().rev().find_map(|s| match s {
                    Statement::Sum(t) if t.name == name => Some(format!("{:?}", t.to_sum_term())),
                    _ => None,
                });
                sums += usize::from(want.is_some());
                prop_assert_eq!(
                    state.sum(name).map(|t| format!("{:?}", t.to_sum_term())),
                    want
                );
            }
            prop_assert_eq!(totals.sums, sums);
        }
    }
}
