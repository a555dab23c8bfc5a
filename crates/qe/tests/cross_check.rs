//! Cross-validation of the three QE engines on randomly generated formulas.
//!
//! Fourier–Motzkin, Loos–Weispfenning and Cohen–Hörmander are independent
//! implementations; on linear inputs all three must agree. Agreement is
//! checked semantically on a rational sample grid.

use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::Var;
use cqa_qe::{fourier_motzkin, hoermander, loos_weispfenning};
use cqa_testkit::formula::{agree_on_grid, qf_affine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fm_equals_lw_on_exists(body in qf_affine(3, false)) {
        let q = Formula::exists(vec![Var(2)], body);
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let lw = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        agree_on_grid(&fm, &lw, 2, 4)?;
    }

    #[test]
    fn fm_equals_lw_on_forall(body in qf_affine(3, false)) {
        let q = Formula::forall(vec![Var(2)], body);
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let lw = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        agree_on_grid(&fm, &lw, 2, 4)?;
    }

    #[test]
    fn qe_preserves_semantics(body in qf_affine(3, false)) {
        // ∃v. body evaluated by QE must match brute-force evaluation over
        // the grid extended with interval midpoints (linear formulas change
        // truth value only at atom bounds, which lie on the half-integer
        // grid for these coefficient ranges... so use a finer grid).
        let q = Formula::exists(vec![Var(2)], body.clone());
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let outer: Vec<Rat> = (-2..=2).map(|n| Rat::from(n as i64)).collect();
        // Dense witness grid for the eliminated variable.
        let witness: Vec<Rat> = (-48..=48).map(|n| Rat::new(n.into(), 6i64.into())).collect();
        for x in &outer {
            for y in &outer {
                let asg = |v: Var| match v.0 {
                    0 => x.clone(),
                    1 => y.clone(),
                    _ => unreachable!(),
                };
                let qe_truth = fm.eval(&asg, &[]).unwrap();
                let brute = witness.iter().any(|w| {
                    let asg2 = |v: Var| match v.0 {
                        0 => x.clone(),
                        1 => y.clone(),
                        _ => w.clone(),
                    };
                    body.eval(&asg2, &[]).unwrap()
                });
                // Brute force may miss a witness (finite grid) but must never
                // find one where QE says none exists.
                if brute {
                    prop_assert!(qe_truth, "witness exists but QE says unsat at ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn ch_agrees_with_fm_on_linear_sentences(body in qf_affine(3, false)) {
        // Close the formula: ∀x0 x1 ∃x2. body — a sentence all engines decide.
        let sentence = Formula::forall(
            vec![Var(0), Var(1)],
            Formula::exists(vec![Var(2)], body),
        );
        let fm = fourier_motzkin(&sentence, &EvalBudget::unlimited()).unwrap();
        let ch = hoermander(&sentence, &EvalBudget::unlimited()).unwrap();
        prop_assert_eq!(fm, ch);
    }
}
