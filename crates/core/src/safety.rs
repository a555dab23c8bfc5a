//! SAF safety: deciding finiteness of query outputs and enumerating them.
//!
//! FO+POLY+SUM (paper §5) only permits aggregation over sets that are
//! *guaranteed finite*. The range-restriction construct makes that a
//! syntactic guarantee, but the underlying semantic machinery — "is this
//! definable set finite, and what are its elements?" — is implemented
//! here by projecting onto each coordinate and using the one-dimensional
//! decomposition: a definable set over an o-minimal structure is finite
//! iff each of its projections is a finite union of points.

use crate::onedim::{decompose_1d, Interval1D};
use cqa_arith::Rat;
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::Formula;
use cqa_poly::{RealAlg, Var};
use cqa_qe::QeError;

/// Errors from safety analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyError {
    /// Quantifier elimination failed (relations present, etc.).
    Qe(QeError),
    /// The set is infinite — aggregation over it is unsafe.
    Infinite,
    /// The set is finite but contains an irrational algebraic point, which
    /// cannot be enumerated as rational tuples. (The paper's Theorem 3 only
    /// ever sums over rational data — endpoints of semi-*linear* sets; for
    /// semi-algebraic sets use `decompose_1d` and `RealAlg` directly.)
    IrrationalPoint,
    /// The formula mentions a free variable outside the enumeration
    /// variables — its truth would depend on an assignment nobody supplied,
    /// so enumeration would silently answer for one arbitrary assignment.
    UnboundVariable(Var),
    /// The evaluation budget was exhausted; enumeration was cancelled
    /// cooperatively (see [`cqa_logic::budget`]).
    Budget(BudgetExceeded),
}

impl std::fmt::Display for SafetyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SafetyError::Qe(e) => write!(f, "quantifier elimination failed: {e}"),
            SafetyError::Infinite => write!(f, "definable set is infinite"),
            SafetyError::IrrationalPoint => {
                write!(f, "finite set contains an irrational algebraic point")
            }
            SafetyError::UnboundVariable(v) => {
                write!(
                    f,
                    "formula has a free variable (index {}) outside the enumeration variables",
                    v.0
                )
            }
            SafetyError::Budget(b) => write!(f, "{b}"),
        }
    }
}
impl std::error::Error for SafetyError {}

impl From<QeError> for SafetyError {
    fn from(e: QeError) -> SafetyError {
        // Budget trips inside QE surface as the safety-level budget variant
        // so callers match on one place.
        match e {
            QeError::Budget(b) => SafetyError::Budget(b),
            other => SafetyError::Qe(other),
        }
    }
}

impl From<BudgetExceeded> for SafetyError {
    fn from(b: BudgetExceeded) -> SafetyError {
        SafetyError::Budget(b)
    }
}

/// Is `{x⃗ : φ(x⃗)}` finite? `φ` must be quantifier-free and
/// relation-free over the variables `vars`.
pub fn is_finite_set(f: &Formula, vars: &[Var]) -> Result<bool, SafetyError> {
    is_finite_set_with_budget(f, vars, &EvalBudget::unlimited())
}

/// [`is_finite_set`] under a cooperative [`EvalBudget`]: the per-coordinate
/// QE projections run budgeted and the check aborts with
/// [`SafetyError::Budget`] when exhausted.
pub fn is_finite_set_with_budget(
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
) -> Result<bool, SafetyError> {
    if vars.is_empty() {
        return Ok(true);
    }
    // Fast path: a single variable needs no projection at all — `f` is
    // already the one-dimensional set, so decompose it directly instead of
    // eliminating an empty quantifier block through full QE.
    if let [v] = vars {
        if f.is_quantifier_free() && f.is_relation_free() {
            let ivs = decompose_1d(f, *v).ok_or(SafetyError::Qe(QeError::HasRelations))?;
            return Ok(ivs.iter().all(Interval1D::is_point));
        }
    }
    // Finite iff the projection on each coordinate is a finite set of
    // points (o-minimality: otherwise some projection contains an
    // interval).
    for (i, &v) in vars.iter().enumerate() {
        budget.check()?;
        let others: Vec<Var> = vars
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &w)| w)
            .collect();
        let proj = cqa_qe::eliminate(&Formula::exists(others, f.clone()), budget)?;
        let ivs = decompose_1d(&proj, v).ok_or(SafetyError::Qe(QeError::HasRelations))?;
        if ivs.iter().any(|iv| !iv.is_point()) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Enumerates a finite definable set as rational tuples (sorted). Errors if
/// the set is infinite or contains irrational points.
pub fn enumerate_finite(f: &Formula, vars: &[Var]) -> Result<Vec<Vec<Rat>>, SafetyError> {
    enumerate_finite_with_budget(f, vars, &EvalBudget::unlimited())
}

/// [`enumerate_finite`] under a cooperative [`EvalBudget`]: the budget is
/// checked once per enumerated point and inside every QE projection, so an
/// enumeration that would explode aborts with [`SafetyError::Budget`].
pub fn enumerate_finite_with_budget(
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
) -> Result<Vec<Vec<Rat>>, SafetyError> {
    if vars.is_empty() {
        // A leftover free variable means the recursion (or the caller)
        // never fixed it: evaluating with a default assignment would
        // silently answer for that one arbitrary point.
        if let Some(&v) = f.free_vars().iter().next() {
            return Err(SafetyError::UnboundVariable(v));
        }
        let truth = f
            .eval(&|_| Rat::zero(), &[])
            .ok_or(SafetyError::Qe(QeError::HasRelations))?;
        return Ok(if truth { vec![Vec::new()] } else { Vec::new() });
    }
    let v = vars[0];
    let rest = &vars[1..];
    let proj = cqa_qe::eliminate(&Formula::exists(rest.to_vec(), f.clone()), budget)?;
    let ivs = decompose_1d(&proj, v).ok_or(SafetyError::Qe(QeError::HasRelations))?;
    let mut out = Vec::new();
    for iv in ivs {
        budget.check()?;
        let point = point_of(&iv)?;
        let fixed = f.subst_rat(v, &point);
        for mut tuple in enumerate_finite_with_budget(&fixed, rest, budget)? {
            tuple.insert(0, point.clone());
            out.push(tuple);
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn point_of(iv: &Interval1D) -> Result<Rat, SafetyError> {
    if !iv.is_point() {
        return Err(SafetyError::Infinite);
    }
    match &iv.lo {
        crate::onedim::Endpoint::Value(RealAlg::Rational(r), _) => Ok(r.clone()),
        crate::onedim::Endpoint::Value(_, _) => Err(SafetyError::IrrationalPoint),
        _ => unreachable!("point interval has finite endpoints"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::{parse_formula_with, VarMap};

    fn setup(src: &str, names: &[&str]) -> (Formula, Vec<Var>) {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        (f, vs)
    }

    #[test]
    fn finite_detection_1d() {
        let (f, vs) = setup("x = 1 | x = 2", &["x"]);
        assert!(is_finite_set(&f, &vs).unwrap());
        let (g, vs) = setup("0 <= x & x <= 1", &["x"]);
        assert!(!is_finite_set(&g, &vs).unwrap());
        let (h, vs) = setup("false", &["x"]);
        assert!(is_finite_set(&h, &vs).unwrap());
    }

    #[test]
    fn finite_detection_2d() {
        let (f, vs) = setup("(x = 0 | x = 1) & y = x + 1", &["x", "y"]);
        assert!(is_finite_set(&f, &vs).unwrap());
        // A segment is infinite even though its projections onto y are... no,
        // its x-projection is an interval.
        let (g, vs) = setup("y = x & 0 <= x & x <= 1", &["x", "y"]);
        assert!(!is_finite_set(&g, &vs).unwrap());
    }

    #[test]
    fn enumerate_1d() {
        let (f, vs) = setup("x = 1 | x = 2 | x = 0.5", &["x"]);
        let tuples = enumerate_finite(&f, &vs).unwrap();
        assert_eq!(
            tuples,
            vec![vec![rat(1, 2)], vec![rat(1, 1)], vec![rat(2, 1)]]
        );
    }

    #[test]
    fn enumerate_2d_product() {
        let (f, vs) = setup("(x = 0 | x = 1) & (y = 0 | y = 2)", &["x", "y"]);
        let tuples = enumerate_finite(&f, &vs).unwrap();
        assert_eq!(tuples.len(), 4);
        assert!(tuples.contains(&vec![rat(1, 1), rat(2, 1)]));
    }

    #[test]
    fn enumerate_dependent() {
        let (f, vs) = setup("(x = 1 | x = 3) & y = 2*x", &["x", "y"]);
        let tuples = enumerate_finite(&f, &vs).unwrap();
        assert_eq!(
            tuples,
            vec![vec![rat(1, 1), rat(2, 1)], vec![rat(3, 1), rat(6, 1)]]
        );
    }

    #[test]
    fn infinite_errors() {
        let (f, vs) = setup("0 <= x & x <= 1", &["x"]);
        assert_eq!(enumerate_finite(&f, &vs), Err(SafetyError::Infinite));
    }

    #[test]
    fn irrational_point_reported() {
        let (f, vs) = setup("x*x = 2 & x > 0", &["x"]);
        assert!(is_finite_set(&f, &vs).unwrap());
        assert_eq!(enumerate_finite(&f, &vs), Err(SafetyError::IrrationalPoint));
    }

    #[test]
    fn polynomial_finite_sets() {
        let (f, vs) = setup("x*x = 4", &["x"]);
        let tuples = enumerate_finite(&f, &vs).unwrap();
        assert_eq!(tuples, vec![vec![rat(-2, 1)], vec![rat(2, 1)]]);
    }

    #[test]
    fn empty_sets() {
        let (f, vs) = setup("x = 1 & x = 2", &["x"]);
        assert!(enumerate_finite(&f, &vs).unwrap().is_empty());
    }
}
