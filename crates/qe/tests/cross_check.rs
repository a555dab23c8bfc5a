//! Cross-validation of the three QE engines on randomly generated formulas.
//!
//! Fourier–Motzkin, Loos–Weispfenning and Cohen–Hörmander are independent
//! implementations; on linear inputs all three must agree. Agreement is
//! checked semantically on a rational sample grid.

use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::{MPoly, Var};
use cqa_qe::{fourier_motzkin, hoermander, loos_weispfenning};
use proptest::prelude::*;

/// A random linear atom over up to 3 variables with small coefficients.
fn atom_strategy() -> impl Strategy<Value = Formula> {
    (prop::collection::vec(-3i64..=3, 3), -4i64..=4, 0usize..6).prop_map(|(coeffs, c, rel)| {
        let mut p = MPoly::constant(Rat::from(c));
        for (i, &a) in coeffs.iter().enumerate() {
            p = p + MPoly::var(Var(i as u32)).scale(&Rat::from(a));
        }
        use cqa_logic::Rel::*;
        let rel = [Lt, Le, Gt, Ge, Eq, Neq][rel];
        Formula::Atom(cqa_logic::Atom::new(p, rel))
    })
}

/// Random quantifier-free boolean combinations of linear atoms.
fn qf_strategy() -> impl Strategy<Value = Formula> {
    let leaf = atom_strategy();
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::negate),
        ]
    })
}

fn sample_points() -> Vec<Rat> {
    (-4..=4).map(|n| Rat::new(n.into(), 2i64.into())).collect()
}

fn agree_on_grid(a: &Formula, b: &Formula) -> Result<(), TestCaseError> {
    let vars: Vec<Var> = a.free_vars().union(&b.free_vars()).copied().collect();
    prop_assert!(
        vars.len() <= 2,
        "expected at most 2 free vars after elimination"
    );
    let samples = sample_points();
    let mut idx = vec![0usize; vars.len()];
    loop {
        let vals: Vec<Rat> = idx.iter().map(|&i| samples[i].clone()).collect();
        let asg = |v: Var| {
            vars.iter()
                .position(|&w| w == v)
                .map(|i| vals[i].clone())
                .unwrap_or_else(Rat::zero)
        };
        prop_assert_eq!(a.eval(&asg, &[]), b.eval(&asg, &[]), "at {:?}", vals);
        let mut k = 0;
        loop {
            if k == idx.len() {
                return Ok(());
            }
            idx[k] += 1;
            if idx[k] < samples.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fm_equals_lw_on_exists(body in qf_strategy()) {
        let q = Formula::exists(vec![Var(2)], body);
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let lw = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        agree_on_grid(&fm, &lw)?;
    }

    #[test]
    fn fm_equals_lw_on_forall(body in qf_strategy()) {
        let q = Formula::forall(vec![Var(2)], body);
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let lw = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        agree_on_grid(&fm, &lw)?;
    }

    #[test]
    fn qe_preserves_semantics(body in qf_strategy()) {
        // ∃v. body evaluated by QE must match brute-force evaluation over
        // the grid extended with interval midpoints (linear formulas change
        // truth value only at atom bounds, which lie on the half-integer
        // grid for these coefficient ranges... so use a finer grid).
        let q = Formula::exists(vec![Var(2)], body.clone());
        let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        let _vars = [Var(0), Var(1)];
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
    fn ch_agrees_with_fm_on_linear_sentences(body in qf_strategy()) {
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
