//! Classical SQL aggregates over safe (finite-output) constraint queries.
//!
//! Lemma 4 of the paper: FO+POLY+SUM expresses the cardinality of any SAF
//! query output, and the sum/average of a deterministic function over it.
//! Here the aggregates are provided directly over [`Database`] queries,
//! using [`cqa_core::enumerate_finite`] for the safety check and
//! enumeration.

use crate::lang::AggError;
use cqa_arith::Rat;
use cqa_core::{enumerate_finite_with_budget, Database};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Formula, SlotMap};
use cqa_poly::{MPoly, Var};

/// A classical aggregate operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of tuples.
    Count,
    /// Sum of the value term over all tuples.
    Sum,
    /// Average (sum / count); errors on the empty set.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

/// Evaluates `agg` of the polynomial `value` term over the (finite) output
/// of the query `q` with output columns `free`.
///
/// Errors with [`AggError::Db`] when the output is infinite (the aggregate
/// would be unsafe — exactly what the range-restriction syntax of
/// FO+POLY+SUM rules out statically) and on `AVG`/`MIN`/`MAX` of an empty
/// output.
pub fn aggregate(
    db: &Database,
    q: &Formula,
    free: &[Var],
    value: &MPoly,
    agg: Aggregate,
) -> Result<Rat, AggError> {
    aggregate_with_budget(db, q, free, value, agg, &EvalBudget::unlimited())
}

/// [`aggregate`] under a cooperative evaluation budget; returns
/// [`AggError::Budget`] when the deadline, step or atom limit trips.
pub fn aggregate_with_budget(
    db: &Database,
    q: &Formula,
    free: &[Var],
    value: &MPoly,
    agg: Aggregate,
    budget: &EvalBudget,
) -> Result<Rat, AggError> {
    let expanded = db.expand(q).map_err(|e| AggError::Db(e.to_string()))?;
    let qf = cqa_qe::eliminate(&expanded, budget)?;
    let tuples = enumerate_finite_with_budget(&qf, free, budget)?;
    let slots = SlotMap::from_vars(free);
    let values: Vec<Rat> = tuples
        .iter()
        .map(|t| value.eval(&slots.assignment(t)))
        .collect();
    match agg {
        Aggregate::Count => Ok(Rat::from(values.len() as i64)),
        Aggregate::Sum => Ok(values.into_iter().fold(Rat::zero(), |a, b| a + b)),
        Aggregate::Avg => {
            if values.is_empty() {
                return Err(AggError::Db("AVG of an empty set".into()));
            }
            let n = Rat::from(values.len() as i64);
            Ok(values.into_iter().fold(Rat::zero(), |a, b| a + b) / n)
        }
        Aggregate::Min => values
            .into_iter()
            .min()
            .ok_or_else(|| AggError::Db("MIN of an empty set".into())),
        Aggregate::Max => values
            .into_iter()
            .max()
            .ok_or_else(|| AggError::Db("MAX of an empty set".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;

    fn setup() -> (Database, Vec<Var>) {
        let mut db = Database::new();
        db.add_finite_relation("U", vec![vec![rat(1, 1)], vec![rat(2, 1)], vec![rat(7, 2)]])
            .unwrap();
        let x = db.vars_mut().intern("x");
        (db, vec![x])
    }

    #[test]
    fn count_sum_avg() {
        let (mut db, free) = setup();
        let q = parse_formula_with("U(x)", db.vars_mut()).unwrap();
        let x = free[0];
        let idty = MPoly::var(x);
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Count).unwrap(),
            rat(3, 1)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Sum).unwrap(),
            rat(13, 2)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Avg).unwrap(),
            rat(13, 6)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Min).unwrap(),
            rat(1, 1)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Max).unwrap(),
            rat(7, 2)
        );
    }

    #[test]
    fn aggregates_of_derived_values() {
        let (mut db, free) = setup();
        let q = parse_formula_with("U(x) & x >= 2", db.vars_mut()).unwrap();
        let x = free[0];
        // Σ x² over {2, 7/2} = 4 + 49/4 = 65/4.
        let sq = MPoly::var(x).pow(2);
        assert_eq!(
            aggregate(&db, &q, &free, &sq, Aggregate::Sum).unwrap(),
            rat(65, 4)
        );
    }

    #[test]
    fn unsafe_aggregate_rejected() {
        let mut db = Database::new();
        db.define("S", &["x"], "0 <= x & x <= 1").unwrap();
        let x = db.vars_mut().get("x").unwrap();
        let q = parse_formula_with("S(x)", db.vars_mut()).unwrap();
        let r = aggregate(&db, &q, &[x], &MPoly::var(x), Aggregate::Sum);
        assert!(matches!(r, Err(AggError::Db(_))));
    }

    #[test]
    fn empty_set_semantics() {
        let (mut db, free) = setup();
        let q = parse_formula_with("U(x) & x > 100", db.vars_mut()).unwrap();
        let x = free[0];
        let idty = MPoly::var(x);
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Count).unwrap(),
            rat(0, 1)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Sum).unwrap(),
            rat(0, 1)
        );
        assert!(aggregate(&db, &q, &free, &idty, Aggregate::Avg).is_err());
        assert!(aggregate(&db, &q, &free, &idty, Aggregate::Min).is_err());
    }

    #[test]
    fn multi_column_aggregates() {
        let mut db = Database::new();
        db.add_finite_relation(
            "P",
            vec![vec![rat(0, 1), rat(1, 1)], vec![rat(2, 1), rat(3, 1)]],
        )
        .unwrap();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let q = parse_formula_with("P(x, y)", db.vars_mut()).unwrap();
        // Σ (x·y) = 0 + 6.
        let prod = MPoly::var(x) * MPoly::var(y);
        assert_eq!(
            aggregate(&db, &q, &[x, y], &prod, Aggregate::Sum).unwrap(),
            rat(6, 1)
        );
    }

    #[test]
    fn aggregate_over_constraint_defined_finite_set() {
        // A finite set defined by constraints, not tuples: roots of a
        // quadratic with rational roots.
        let mut db = Database::new();
        db.define("R", &["x"], "x*x - 3*x + 2 = 0").unwrap();
        let x = db.vars_mut().get("x").unwrap();
        let q = parse_formula_with("R(x)", db.vars_mut()).unwrap();
        assert_eq!(
            aggregate(&db, &q, &[x], &MPoly::var(x), Aggregate::Sum).unwrap(),
            rat(3, 1) // 1 + 2
        );
    }
}
