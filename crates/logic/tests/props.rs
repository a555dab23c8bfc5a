//! Property tests: normal forms preserve semantics; the printer round-trips.

use cqa_logic::{display_formula, dnf, from_dnf, nnf, parse_formula_with, prenex, Formula, VarMap};
use cqa_poly::Var;
use cqa_testkit::formula::{agree_on_grid, qf_affine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nnf_preserves_semantics(f in qf_affine(2, false)) {
        agree_on_grid(&f, &nnf(&f), 2, 3)?;
    }

    #[test]
    fn dnf_preserves_semantics(f in qf_affine(2, false)) {
        let clauses = dnf(&f);
        agree_on_grid(&f, &from_dnf(&clauses), 2, 3)?;
    }

    #[test]
    fn double_negation_is_identity_semantically(f in qf_affine(2, false)) {
        agree_on_grid(&f, &f.clone().negate().negate(), 2, 3)?;
    }

    #[test]
    fn printer_round_trips(f in qf_affine(2, false)) {
        let vars = VarMap::new();
        let printed = display_formula(&f, &vars);
        let mut vars2 = VarMap::new();
        // Intern x0, x1 in the same order the fallback names use.
        vars2.intern("x0");
        vars2.intern("x1");
        let reparsed = parse_formula_with(&printed, &mut vars2).unwrap();
        agree_on_grid(&f, &reparsed, 2, 3)?;
    }

    #[test]
    fn prenex_matrix_is_quantifier_free(f in qf_affine(2, false)) {
        let q = Formula::exists(vec![Var(1)], f.clone());
        let (blocks, matrix) = prenex(&q);
        prop_assert!(matrix.is_quantifier_free());
        prop_assert!(blocks.len() <= 1);
        // Prefix variables are disjoint from free variables.
        let fv = matrix.free_vars();
        for b in &blocks {
            for v in &b.vars {
                // A renamed bound variable may occur in the matrix but not
                // collide with an original free variable index 0.
                prop_assert!(*v != Var(0) || !fv.contains(&Var(0)) || b.vars.is_empty());
            }
        }
    }
}
