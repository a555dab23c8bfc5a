//! Quantifier elimination for constraint query languages.
//!
//! The closure property of FO+LIN and FO+POLY (Section 2 of Benedikt &
//! Libkin, PODS 1999) — *the output of a first-order query on a constraint
//! database is again a constraint database* — is algorithmic: it rests on
//! quantifier elimination for `⟨ℝ, +, -, 0, 1, <⟩` (Fourier–Motzkin /
//! Loos–Weispfenning) and for the real field `⟨ℝ, +, ·, 0, 1, <⟩`
//! (Tarski; here implemented via the Cohen–Hörmander sign-matrix
//! procedure). This crate provides:
//!
//! * [`fourier_motzkin`] — DNF-based elimination for linear formulas.
//! * [`loos_weispfenning`] — virtual-term-substitution elimination for
//!   linear formulas (no DNF blow-up; cross-checked against FM in tests).
//! * [`hoermander`] — complete real quantifier elimination for FO+POLY,
//!   with parametric coefficients handled by sign case-splitting.
//! * [`eliminate`] — a dispatcher choosing the cheapest applicable method.
//! * Decision utilities: [`decide_sentence`], [`is_satisfiable`],
//!   [`is_valid`], [`equivalent`], and [`simplify`].
//!
//! All algorithms are exact (rational arithmetic); costs are the honest
//! worst-case costs the paper discusses in Section 3 — `report`'s E9 checks
//! the engines agree, and `cqa-e2e` (`bench/`) measures what they cost.

#![forbid(unsafe_code)]

mod fm;
mod hoermander;
mod lw;
pub mod plan;
mod simplify;

pub use fm::{clause_obviously_empty, fm_eliminate_exists, fourier_motzkin, sample_between};
pub use hoermander::hoermander;
pub use lw::{eliminate_exists_lw, loos_weispfenning};
pub use simplify::{simplify, simplify_id, SimplifyMemo};

use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{ConstraintClass, Formula};

/// Errors from quantifier elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QeError {
    /// A linear-only method was applied to a formula that is not linear in
    /// an eliminated variable.
    NonLinear(String),
    /// The formula mentions schema relations; substitute database relation
    /// definitions first (see `cqa-core`).
    HasRelations,
    /// Active-domain quantifiers cannot be eliminated symbolically; they are
    /// evaluated against a finite instance instead.
    ActiveDomain,
    /// An eliminated matrix still contained a construct that cannot be
    /// evaluated (reported when compiling it for point evaluation, instead
    /// of silently treating unevaluable points as misses).
    Residual(String),
    /// A sentence-level decision was requested on a formula with free
    /// variables.
    NotASentence,
    /// The evaluation budget was exhausted mid-elimination; the work was
    /// cancelled cooperatively (see [`cqa_logic::budget`]).
    Budget(BudgetExceeded),
}

impl std::fmt::Display for QeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QeError::NonLinear(what) => write!(f, "formula is not linear: {what}"),
            QeError::HasRelations => write!(f, "formula mentions schema relations"),
            QeError::ActiveDomain => write!(f, "active-domain quantifier in symbolic QE"),
            QeError::Residual(what) => {
                write!(f, "eliminated matrix is not evaluable: {what}")
            }
            QeError::NotASentence => {
                write!(f, "sentence decision on a formula with free variables")
            }
            QeError::Budget(b) => write!(f, "{b}"),
        }
    }
}
impl std::error::Error for QeError {}

impl From<BudgetExceeded> for QeError {
    fn from(b: BudgetExceeded) -> QeError {
        QeError::Budget(b)
    }
}

fn check_input(f: &Formula) -> Result<(), QeError> {
    if !f.is_relation_free() {
        return Err(QeError::HasRelations);
    }
    let mut adom = false;
    f.visit(&mut |g| {
        if matches!(g, Formula::ExistsAdom(..) | Formula::ForallAdom(..)) {
            adom = true;
        }
    });
    if adom {
        return Err(QeError::ActiveDomain);
    }
    Ok(())
}

/// Eliminates all quantifiers, choosing the method by constraint class:
/// Loos–Weispfenning for dense-order and linear formulas, Cohen–Hörmander
/// for polynomial ones. Returns an equivalent quantifier-free formula.
///
/// The chosen method checks the cooperative [`EvalBudget`] in its hot loops
/// and aborts with [`QeError::Budget`] when it is exhausted; when the budget
/// is not hit, the result is the one [`EvalBudget::unlimited`] gives.
pub fn eliminate(f: &Formula, budget: &EvalBudget) -> Result<Formula, QeError> {
    match f.class() {
        ConstraintClass::DenseOrder | ConstraintClass::Linear => loos_weispfenning(f, budget),
        ConstraintClass::Polynomial => hoermander(f, budget),
    }
}

/// Decides a sentence (no free variables). Returns its truth value, or
/// [`QeError::NotASentence`] if the formula has free variables.
pub fn decide_sentence(f: &Formula, budget: &EvalBudget) -> Result<bool, QeError> {
    if !f.free_vars().is_empty() {
        return Err(QeError::NotASentence);
    }
    let qf = eliminate(f, budget)?;
    match simplify(&qf) {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        other => match fold_ground(&other) {
            Some(truth) => Ok(truth),
            None => Err(QeError::Residual(format!(
                "ground formula did not fold to a constant: {other:?}"
            ))),
        },
    }
}

/// Exactly folds a ground (variable-free), relation-free quantifier-free
/// formula to its truth value via `Rat` arithmetic. The simplifier folds
/// most constant atoms structurally, but a sentence decision must not
/// depend on simplifier coverage: any residue it leaves — e.g. a constant
/// nonlinear atom like `(3/2)² < 9/4` surviving in a shape the rewrite
/// rules miss — is decided here by direct exact evaluation instead of
/// surfacing as a spurious [`QeError::Residual`]. Returns `None` when the
/// formula is not ground or contains an unevaluable construct.
fn fold_ground(qf: &Formula) -> Option<bool> {
    if !qf.free_vars().is_empty() {
        return None;
    }
    // A ground formula evaluates under any assignment; `eval` returns
    // `None` only for schema relations and natural quantifiers, which
    // genuinely cannot be folded.
    qf.eval(&|_| cqa_arith::Rat::zero(), &[])
}

/// Is the formula satisfiable over ℝ (free variables read existentially)?
pub fn is_satisfiable(f: &Formula, budget: &EvalBudget) -> Result<bool, QeError> {
    let vars: Vec<_> = f.free_vars().into_iter().collect();
    decide_sentence(&Formula::exists(vars, f.clone()), budget)
}

/// Is the formula valid over ℝ (free variables read universally)?
pub fn is_valid(f: &Formula, budget: &EvalBudget) -> Result<bool, QeError> {
    let vars: Vec<_> = f.free_vars().into_iter().collect();
    decide_sentence(&Formula::forall(vars, f.clone()), budget)
}

/// Are two formulas equivalent over ℝ (free variables read universally)?
pub fn equivalent(f: &Formula, g: &Formula, budget: &EvalBudget) -> Result<bool, QeError> {
    let iff = f
        .clone()
        .implies(g.clone())
        .and(g.clone().implies(f.clone()));
    is_valid(&iff, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula;

    fn f(src: &str) -> Formula {
        parse_formula(src).unwrap().0
    }

    fn decide(src: &str) -> bool {
        decide_sentence(&f(src), &EvalBudget::unlimited()).unwrap()
    }

    #[test]
    fn dispatcher_picks_methods() {
        // Linear: ∃y. x < y ∧ y < 1  ⇔  x < 1 (shared VarMap for identity).
        let mut vars = cqa_logic::VarMap::new();
        let q = cqa_logic::parse_formula_with("exists y. x < y & y < 1", &mut vars).unwrap();
        let e = cqa_logic::parse_formula_with("x < 1", &mut vars).unwrap();
        let g = eliminate(&q, &EvalBudget::unlimited()).unwrap();
        assert!(equivalent(&g, &e, &EvalBudget::unlimited()).unwrap());
        // Polynomial: ∃x. x² = 2 is true
        assert!(decide("exists x. x*x = 2"));
    }

    #[test]
    fn sentence_decisions() {
        assert!(decide("forall x. x*x >= 0"));
        assert!(!decide("exists x. x*x < 0"));
        assert!(decide("exists x. 2*x = 1"));
        assert!(decide("forall x. exists y. y > x"));
        assert!(!decide("exists y. forall x. y > x"));
    }

    #[test]
    fn satisfiability_and_validity() {
        assert!(is_satisfiable(&f("x > 0 & x < 1"), &EvalBudget::unlimited()).unwrap());
        assert!(!is_satisfiable(&f("x > 1 & x < 0"), &EvalBudget::unlimited()).unwrap());
        assert!(is_valid(&f("x <= x"), &EvalBudget::unlimited()).unwrap());
        assert!(!is_valid(&f("x < 1"), &EvalBudget::unlimited()).unwrap());
    }

    #[test]
    fn ground_nonlinear_residues_fold_exactly() {
        // (3/2)²-style sentences: Hörmander + simplify normally fold these,
        // but the decision must hold even when a constant nonlinear residue
        // survives simplification — exact Rat evaluation, not an error.
        assert!(!decide("exists x. x = 3/2 & x*x < 9/4"));
        assert!(decide("exists x. x = 3/2 & x*x <= 9/4"));
        assert!(decide("exists x. x = 3/2 & x*x*x > 27/8 - 1/1000"));
        assert!(!decide("forall x. x*x != 9/4 | x = 3/2"));
    }

    #[test]
    fn fold_ground_decides_unsimplified_residues() {
        use cqa_arith::Rat;
        use cqa_logic::{Atom, Rel};
        use cqa_poly::MPoly;
        // Hand-built ground tree the simplifier never saw: ¬((3/2)² < 9/4 ∧ ⊤).
        let nine_quarters = MPoly::constant(Rat::new(9i64.into(), 4i64.into()));
        let lt = Formula::Atom(Atom::new(
            MPoly::constant(Rat::new(9i64.into(), 4i64.into())) - nine_quarters,
            Rel::Lt,
        ));
        let tree = Formula::Not(Box::new(Formula::And(vec![lt, Formula::True])));
        assert_eq!(fold_ground(&tree), Some(true));
        // Non-ground input is refused, not guessed.
        let free = f("x < 1");
        assert_eq!(fold_ground(&free), None);
    }

    #[test]
    fn relations_are_rejected() {
        assert_eq!(
            eliminate(&f("exists x. U(x)"), &EvalBudget::unlimited()),
            Err(QeError::HasRelations)
        );
    }

    #[test]
    fn adom_rejected() {
        assert_eq!(
            eliminate(&f("Eadom x. x < 1"), &EvalBudget::unlimited()),
            Err(QeError::ActiveDomain)
        );
    }
}
