//! The analyzer wired in front of the experiment workloads: every generated
//! workload formula must lint clean (zero errors) — the acceptance gate
//! that the analyzer's under-approximations never reject well-formed
//! queries the experiments rely on. The workloads are also evaluated (the
//! shapes the retired timing benches ran are among them), so each call
//! those benches made still succeeds on their inputs.

use cqa_agg::volume_by_sweep_2d;
use cqa_analyze::{analyze_formula, AnalyzerConfig, Schema};
use cqa_approx::baselines::variable_independent_volume;
use cqa_approx::km::KmBudget;
use cqa_bench::workloads::{random_box_union, random_linear_query, random_simplex_formula};
use cqa_geom::volume;
use cqa_logic::budget::EvalBudget;
use cqa_logic::VarMap;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

fn permissive() -> AnalyzerConfig {
    let mut cfg = AnalyzerConfig::default();
    // The blow-up lint is a warning, but keep budgets out of the way so
    // this test is strictly about errors.
    cfg.cost.budget = KmBudget {
        max_atoms: f64::INFINITY,
        max_quantifiers: f64::INFINITY,
    };
    cfg
}

#[test]
fn simplex_workloads_lint_clean() {
    for seed in 0..20 {
        for dim in 1..=4 {
            let mut vars = VarMap::new();
            let (f, vs) = random_simplex_formula(dim, seed, &mut vars);
            let a = analyze_formula(&f, &vs, &Schema::new(), &vars, &permissive());
            assert!(
                !a.has_errors(),
                "dim {dim} seed {seed}: {:?}",
                a.diagnostics
            );
            assert!(volume(&f, &vs, &unlimited()).unwrap().is_positive());
        }
    }
}

#[test]
fn box_union_workloads_lint_clean() {
    for cells in 1..=4 {
        for seed in 0..20 {
            let mut vars = VarMap::new();
            let (f, vs) = random_box_union(cells, seed, &mut vars);
            let a = analyze_formula(&f, &vs, &Schema::new(), &vars, &permissive());
            assert!(
                !a.has_errors(),
                "{cells} cells, seed {seed}: {:?}",
                a.diagnostics
            );
            // Exact volume three ways: the n-D sweep, the 2-D sweep and the
            // variable-independence baseline.
            let exact = volume(&f, &vs, &unlimited()).unwrap();
            assert_eq!(volume_by_sweep_2d(&f, vs[0], vs[1]).unwrap(), exact);
            assert_eq!(variable_independent_volume(&f, &vs), Some(exact));
        }
    }
}

#[test]
fn linear_query_workloads_lint_clean_and_classify_linear() {
    for seed in 0..10 {
        let mut vars = VarMap::new();
        let f = random_linear_query(2, 2, 6, seed, &mut vars);
        let free: Vec<_> = f.free_vars().into_iter().collect();
        let a = analyze_formula(&f, &free, &Schema::new(), &vars, &permissive());
        assert!(!a.has_errors(), "seed {seed}: {:?}", a.diagnostics);
        assert_eq!(a.reports[0].fragment.fragment_name(), "FO+LIN");
        assert_eq!(a.reports[0].fragment.quantifiers, 2);
    }
    // (quantifiers, atoms, seed): both linear eliminations run to a
    // quantifier-free result.
    for (quant, atoms, seed) in [(2, 4, 4), (2, 8, 8), (1, 5, 100), (2, 5, 101), (3, 5, 102)] {
        let mut vars = VarMap::new();
        let q = random_linear_query(2, quant, atoms, seed, &mut vars);
        let unlimited = &EvalBudget::unlimited();
        assert!(cqa_qe::fourier_motzkin(&q, unlimited)
            .unwrap()
            .is_quantifier_free());
        assert!(cqa_qe::loos_weispfenning(&q, unlimited)
            .unwrap()
            .is_quantifier_free());
    }
}

#[test]
fn workload_cost_estimates_are_finite_and_positive() {
    let mut vars = VarMap::new();
    let (f, vs) = random_simplex_formula(3, 7, &mut vars);
    let a = analyze_formula(&f, &vs, &Schema::new(), &vars, &permissive());
    let cost = a.reports[0].cost.unwrap();
    assert!(cost.gj_constant.is_finite() && cost.gj_constant > 0.0);
    assert!(cost.km.atoms.is_finite() && cost.km.atoms > 0.0);
}
