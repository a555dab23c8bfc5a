//! Static analysis for FO+POLY+SUM programs: compiler-style diagnostics,
//! lints, and a cost/VC estimator — all before any quantifier elimination
//! runs.
//!
//! Benedikt & Libkin (PODS 1999) define the aggregate language FO+POLY+SUM
//! by *syntactic* disciplines: summation ranges must be range-restricted,
//! summands must be deterministic, relation definitions must be
//! quantifier-free constraint formulas. This crate checks those disciplines
//! statically, in five passes over the span-carrying parse tree of
//! `cqa-logic`:
//!
//! 1. **Scope** ([`scope`]) — unbound variables (CQA001), shadowed binders
//!    (CQA002), unused binders (CQA003).
//! 2. **Fragment & schema** ([`fragment`]) — FO+LIN vs FO+POLY
//!    classification, degree/atom/quantifier counts, unknown relations
//!    (CQA004), arity mismatches (CQA005), empty-active-domain quantifiers
//!    (CQA009).
//! 3. **Σ-discipline** ([`sigma`]) — range-restriction violations (CQA006)
//!    and determinism certification: summands in the functional-graph shape
//!    `x = t(w⃗)` are certified and skip the QE-based semantic check at
//!    evaluation time; the rest get a CQA007 fallback warning.
//! 4. **Cost** ([`cost`]) — Proposition 6's Goldberg–Jerrum constant and
//!    the Lemma-1 Karpinski–Macintyre blow-up model; queries whose
//!    predicted ε-approximation formula exceeds the budget get CQA008
//!    (the paper's `≥ 10⁹`-atom example, as a lint).
//! 5. **Interval abstract interpretation** ([`absint`]) — per-node interval
//!    environments and three-valued feasibility verdicts over the
//!    hash-consed IR arena; statically empty queries (CQA011), statically
//!    trivial subformulas (CQA012), and missing boundedness certificates
//!    for volume/SUM queries (CQA013), plus planner-grade box-volume and
//!    pruned-atom cost inputs.
//!
//! Programs live in `.cqa` files ([`program`]). This crate's `cqa-lint`
//! binary and `cqa-serve --preload` analyse a whole file ([`lint_file`] over
//! [`analyze_source`]), the engine piece by piece ([`AnalyzerState`]: the
//! accepted program kept in analysed form, more text analysed against it
//! and committed or rolled back) — one code path either way. Every finding is
//! a [`Diagnostic`] with a stable code, a severity, and a byte [`Span`]
//! rendered rustc-style against the source.

#![forbid(unsafe_code)]

pub mod absint;
pub mod analyzer;
pub mod cost;
pub mod diag;
pub mod fragment;
pub mod lint;
pub mod program;
pub mod scope;
pub mod sigma;

pub use absint::{analyze_id, prune_id, AbsintMemo, Env, Facts, Interval, Verdict};
pub use analyzer::{
    analyze_formula, analyze_source, Analysis, AnalyzerConfig, AnalyzerState, PendingChunk,
    StatementReport, Totals,
};
pub use cost::{check_blowup, estimate, planner_inputs, CostParams, CostReport};
pub use cqa_logic::Span;
pub use diag::{render_all, Code, Diagnostic, Severity};
pub use fragment::{
    check_active_domain, check_relations, check_relations_plain, classify, FragmentReport, Schema,
};
pub use lint::{lint_file, LintedFile};
pub use program::{parse_program, Program, QueryStmt, RelStmt, Statement, SumStmt};
pub use scope::check_scopes;
pub use sigma::{check_sum, span_of_var, GammaStatus};
