//! Panic-freedom and determinism of budget-governed Σ-term evaluation.
//!
//! Mirror of the QE-side properties (`cqa-qe/tests/budget_props.rs`) one
//! layer up: a random `SumTerm` under an arbitrarily small [`EvalBudget`]
//! either evaluates or returns `AggError::Budget` — it never panics — and
//! an unhit budget leaves the sum bit-identical.

use cqa_agg::{AggError, Deterministic, RangeRestricted, SumTerm};
use cqa_arith::{rat, Rat};
use cqa_core::Database;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use proptest::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

const W: Var = Var(0);
const XOUT: Var = Var(1);
const Y: Var = Var(2);

/// A union of up to three small rational intervals as the `END` body.
fn end_formula_strategy() -> impl Strategy<Value = Formula> {
    prop::collection::vec((-4i64..=4, 1i64..=4), 1..4).prop_map(|ivs| {
        let mut f = Formula::False;
        for (lo, len) in ivs {
            // lo ≤ y ≤ lo + len as polynomial constraints on Y.
            let lo_r = Rat::from(lo);
            let hi_r = Rat::from(lo + len);
            let above = Formula::Atom(Atom::new(MPoly::constant(lo_r) - MPoly::var(Y), Rel::Le));
            let below = Formula::Atom(Atom::new(MPoly::var(Y) - MPoly::constant(hi_r), Rel::Le));
            f = f.or(above.and(below));
        }
        f
    })
}

/// γ(xout, w) ≡ xout = a·w² + b·w + c — syntactically deterministic, so
/// evaluation runs the whole enumeration/application pipeline.
fn gamma_strategy() -> impl Strategy<Value = Formula> {
    (-3i64..=3, -3i64..=3, -3i64..=3).prop_map(|(a, b, c)| {
        let rhs = MPoly::var(W).pow(2).scale(&Rat::from(a))
            + MPoly::var(W).scale(&Rat::from(b))
            + MPoly::constant(Rat::from(c));
        Formula::Atom(Atom::new(MPoly::var(XOUT) - rhs, Rel::Eq))
    })
}

/// A filter on `w`: a half-line, or no restriction.
fn filter_strategy() -> impl Strategy<Value = Formula> {
    prop_oneof![
        Just(Formula::True),
        (-3i64..=3).prop_map(|t| {
            Formula::Atom(Atom::new(
                MPoly::constant(Rat::from(t)) - MPoly::var(W),
                Rel::Le,
            ))
        }),
    ]
}

fn sum_term_strategy() -> impl Strategy<Value = SumTerm> {
    (end_formula_strategy(), gamma_strategy(), filter_strategy()).prop_map(
        |(end_formula, gamma, filter)| SumTerm {
            range: RangeRestricted {
                filter,
                tuple_vars: vec![W],
                end_var: Y,
                end_formula,
            },
            gamma: Deterministic {
                out_var: XOUT,
                in_vars: vec![W],
                formula: gamma,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiny budgets: Σ-evaluation returns Ok or a typed error — never a
    /// panic — for any term and any step allowance.
    #[test]
    fn sum_eval_never_panics_under_tiny_budget(
        term in sum_term_strategy(),
        max_steps in 0u64..40,
    ) {
        let db = Database::new();
        let budget = EvalBudget::unlimited().with_max_steps(max_steps);
        let _ = term.eval_with_budget(&db, &budget);
    }

    /// An unhit budget is invisible: same Ok value or same typed error as
    /// the evaluation under `unlimited()`, bit for bit.
    #[test]
    fn unhit_budget_is_invisible(term in sum_term_strategy()) {
        let db = Database::new();
        let unbudgeted = term.eval_with_budget(&db, &unlimited());
        let budget = EvalBudget::unlimited().with_max_steps(u64::MAX / 2);
        let budgeted = term.eval_with_budget(&db, &budget);
        prop_assert_eq!(unbudgeted, budgeted);
    }

    /// Deadline budgets that already expired trip as `AggError::Budget`
    /// (not as a hang and not as a panic) on any non-trivial term.
    #[test]
    fn expired_deadline_trips_as_budget(term in sum_term_strategy()) {
        let db = Database::new();
        let budget = EvalBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .with_max_steps(u64::MAX / 2);
        match term.eval_with_budget(&db, &budget) {
            Err(AggError::Budget(_)) | Ok(_) => {}
            Err(e) => prop_assert!(
                !matches!(e, AggError::Budget(_)),
                "typed non-budget error: {e}"
            ),
        }
    }
}

/// Determinism is not only about values: the group partition order of
/// `group_aggregate` is canonical (sorted by key) whatever the budget.
#[test]
fn group_aggregate_budgeted_matches_unbudgeted() {
    let mut db = Database::new();
    db.add_finite_relation(
        "Sales",
        vec![
            vec![rat(1, 1), rat(10, 1)],
            vec![rat(2, 1), rat(5, 1)],
            vec![rat(1, 1), rat(20, 1)],
            vec![rat(2, 1), rat(7, 1)],
        ],
    )
    .unwrap();
    let r = db.vars_mut().intern("r");
    let a = db.vars_mut().intern("a");
    let q = cqa_logic::parse_formula_with("Sales(r, a)", db.vars_mut()).unwrap();
    let plain = cqa_agg::group_aggregate(
        &db,
        &q,
        &[r, a],
        &[r],
        &MPoly::var(a),
        cqa_agg::Aggregate::Sum,
        &unlimited(),
    )
    .unwrap();
    let budget = EvalBudget::unlimited().with_max_steps(u64::MAX / 2);
    let budgeted = cqa_agg::group_aggregate(
        &db,
        &q,
        &[r, a],
        &[r],
        &MPoly::var(a),
        cqa_agg::Aggregate::Sum,
        &budget,
    )
    .unwrap();
    assert_eq!(plain, budgeted);
    assert_eq!(
        plain,
        vec![(vec![rat(1, 1)], rat(30, 1)), (vec![rat(2, 1)], rat(12, 1)),]
    );
}

/// The misuse path is typed now: a `GROUP BY` column outside the output
/// columns errors instead of asserting.
#[test]
fn group_by_outside_output_is_typed_error() {
    let mut db = Database::new();
    db.add_finite_relation("U", vec![vec![rat(1, 1)]]).unwrap();
    let x = db.vars_mut().intern("x");
    let z = db.vars_mut().intern("z");
    let q = cqa_logic::parse_formula_with("U(x)", db.vars_mut()).unwrap();
    let r = cqa_agg::group_aggregate(
        &db,
        &q,
        &[x],
        &[z],
        &MPoly::var(x),
        cqa_agg::Aggregate::Count,
        &unlimited(),
    );
    assert!(matches!(r, Err(AggError::GroupByNotInOutput(_))));
}
