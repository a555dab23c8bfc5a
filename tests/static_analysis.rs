//! Integration tests for the `cqa-analyze` static checker: the demo
//! programs under `examples/lint/`, the acceptance lints (unbound Σ-range
//! variable, non-deterministic γ, out-of-arity relation atom, KM blow-up),
//! and the guarantee that well-formed queries used across the test suite
//! lint clean.

use constraint_agg::analyze::{
    analyze_formula, analyze_source, AnalyzerConfig, Code, GammaStatus, Schema, Statement,
};
use constraint_agg::approx::km::KmBudget;
use constraint_agg::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

fn example(name: &str) -> String {
    let path = format!("{}/examples/lint/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn permissive() -> AnalyzerConfig {
    let mut cfg = AnalyzerConfig::default();
    cfg.cost.budget = KmBudget {
        max_atoms: f64::INFINITY,
        max_quantifiers: f64::INFINITY,
    };
    cfg
}

#[test]
fn endpoints_demo_lints_clean_and_evaluates() {
    let src = example("endpoints.cqa");
    let (prog, analysis) = analyze_source(&src, &permissive());
    assert!(
        analysis.diagnostics.is_empty(),
        "{}",
        analysis.render(&src, "endpoints.cqa")
    );
    // Both Σ-terms are certified: evaluation skips the semantic QE check.
    let sums: Vec<_> = analysis
        .reports
        .iter()
        .filter(|r| r.kind == "sum")
        .collect();
    assert_eq!(sums.len(), 2);
    assert!(sums.iter().all(|r| r.gamma == Some(GammaStatus::Certified)));
    // And the program actually evaluates: endpoints 0, 1/2, 3/4, 2 → 13/4.
    let db = prog.to_database().unwrap();
    let Some(Statement::Sum(s)) = prog.statements.iter().find(|s| s.name() == "EndpointSum") else {
        panic!("EndpointSum missing")
    };
    assert_eq!(
        s.to_sum_term().eval_with_budget(&db, &unlimited()).unwrap(),
        rat(13, 4)
    );
}

#[test]
fn broken_demo_raises_every_advertised_lint() {
    let src = example("broken.cqa");
    let (_, analysis) = analyze_source(&src, &permissive());
    let codes: Vec<Code> = analysis.diagnostics.iter().map(|d| d.code).collect();
    for expected in [
        Code::UnboundVariable,       // CQA001
        Code::ShadowedBinder,        // CQA002
        Code::UnusedBinder,          // CQA003
        Code::UnknownRelation,       // CQA004
        Code::ArityMismatch,         // CQA005
        Code::SigmaRangeUnbound,     // CQA006
        Code::GammaNotCertified,     // CQA007
        Code::StaticallyEmpty,       // CQA011
        Code::StaticallyTrivial,     // CQA012
        Code::UnboundedFreeVariable, // CQA013
    ] {
        assert!(
            codes.contains(&expected),
            "missing {expected:?} in {codes:?}"
        );
    }
    assert!(analysis.has_errors());
    // Every finding carries a real span into the source.
    for d in &analysis.diagnostics {
        assert!(d.span.end > d.span.start, "empty span on {:?}", d.code);
        assert!(d.span.end <= src.len());
    }
    // Spot-check one span: the CQA006 points at the leaking filter atom.
    let leak = analysis
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SigmaRangeUnbound)
        .unwrap();
    assert_eq!(&src[leak.span.start..leak.span.end], "w > u");
}

#[test]
fn km_blowup_lint_reproduces_the_section3_example() {
    // The §3 worked example at ε = 1/10: the analyzer predicts ≥ 10⁹ atoms
    // and ≥ 10¹¹ quantifiers and raises CQA008 under the default budget.
    let src = "\
rel U(u) := u = 0 | u = 1
query Phi(x1, x2) := U(x1) & U(x2) & exists y1 y2. x1 < y1 & y1 < x2 & 0 <= y2 & y2 <= y1
";
    let mut cfg = AnalyzerConfig::default();
    cfg.cost.eps = 0.1;
    cfg.cost.db_size = 16;
    let (_, analysis) = analyze_source(src, &cfg);
    let blow = analysis
        .diagnostics
        .iter()
        .find(|d| d.code == Code::KmBlowup)
        .expect("CQA008 expected");
    assert_eq!(&src[blow.span.start..blow.span.end], "Phi");
    let cost = analysis
        .reports
        .iter()
        .find(|r| r.name == "Phi")
        .and_then(|r| r.cost)
        .unwrap();
    assert!(cost.km.atoms >= 1e9, "atoms = {:.3e}", cost.km.atoms);
    assert!(
        cost.km.quantifiers >= 1e11,
        "quantifiers = {:.3e}",
        cost.km.quantifiers
    );
}

#[test]
fn representative_wellformed_queries_lint_clean() {
    // Queries of the shapes used across tests/ (zoning, spatial analytics,
    // closure properties): all well-formed, all error-free under analysis.
    let mut db = Database::new();
    db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    db.define("Zone", &["x", "y"], "0 <= x & x <= 2 & 0 <= y & y <= 2")
        .unwrap();
    let schema: Schema = [("T".to_string(), 2), ("Zone".to_string(), 2)].into();
    for (src, params) in [
        ("exists y. T(x, y)", vec!["x"]),
        ("T(x, y) & Zone(x, y)", vec!["x", "y"]),
        ("forall u. Zone(u, y) | u > 2", vec!["y"]),
        ("exists u v. T(u, v) & x = u + v", vec!["x"]),
    ] {
        let mut vars = db.vars().clone();
        let ps: Vec<_> = params.iter().map(|p| vars.intern(p)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        let a = analyze_formula(&f, &ps, &schema, &vars, &permissive());
        assert!(!a.has_errors(), "`{src}`: {:?}", a.diagnostics);
    }
}

#[test]
fn certified_sum_skips_semantic_determinism_check() {
    // γ mentions a relation, so the semantic `is_deterministic` would
    // reject it (conservatively); the syntactic certificate lets it
    // evaluate anyway — proof that certified programs bypass the QE check.
    let src = "\
rel S(y) := y = 1 | y = 4
sum T(w) := true | END[y. S(y)] ; xout . xout = 2*w & S(w)
";
    let (prog, analysis) = analyze_source(src, &permissive());
    assert!(!analysis.has_errors(), "{}", analysis.render(src, "t.cqa"));
    assert_eq!(analysis.reports[1].gamma, Some(GammaStatus::Certified));
    let db = prog.to_database().unwrap();
    let Some(Statement::Sum(s)) = prog.statements.iter().find(|s| s.name() == "T") else {
        panic!()
    };
    let term = s.to_sum_term();
    assert!(!constraint_agg::agg::is_deterministic(&term.gamma, &unlimited()).unwrap());
    assert_eq!(
        term.eval_with_budget(&db, &unlimited()).unwrap(),
        rat(10, 1)
    );
}
