//! Classical SQL aggregates over safe (finite-output) constraint queries.
//!
//! Lemma 4 of the paper: FO+POLY+SUM expresses the cardinality of any SAF
//! query output, and the sum/average of a deterministic function over it.
//! Here the aggregates are provided directly over [`Database`] queries,
//! using [`cqa_core::enumerate_finite`] for the safety check and
//! enumeration.

use crate::lang::AggError;
use cqa_arith::Rat;
use cqa_core::{enumerate_finite, Database};
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
/// output. Runs under the cooperative `budget` and returns
/// [`AggError::Budget`] when its deadline, step or atom limit trips.
pub fn aggregate(
    db: &Database,
    q: &Formula,
    free: &[Var],
    value: &MPoly,
    agg: Aggregate,
    budget: &EvalBudget,
) -> Result<Rat, AggError> {
    let qf = cqa_qe::eliminate(&db.expand(q)?, budget)?;
    let tuples = enumerate_finite(&qf, free, budget)?;
    let slots = SlotMap::from_vars(free);
    let values: Vec<Rat> = tuples
        .iter()
        .map(|t| value.eval(&slots.assignment(t)))
        .collect();
    agg.reduce(values)
}

impl Aggregate {
    /// Reduces a bag of values; `AVG`/`MIN`/`MAX` of an empty bag is an
    /// error.
    pub(crate) fn reduce(self, values: Vec<Rat>) -> Result<Rat, AggError> {
        let n = Rat::from(values.len() as i64);
        match self {
            Aggregate::Count => Ok(n),
            Aggregate::Sum => Ok(values.into_iter().fold(Rat::zero(), |a, b| a + b)),
            Aggregate::Avg => {
                if values.is_empty() {
                    return Err(AggError::Db("AVG of an empty set".into()));
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;

    fn unlimited() -> EvalBudget {
        EvalBudget::unlimited()
    }

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
        let idty = MPoly::var(free[0]);
        for (agg, want) in [
            (Aggregate::Count, rat(3, 1)),
            (Aggregate::Sum, rat(13, 2)),
            (Aggregate::Avg, rat(13, 6)),
            (Aggregate::Min, rat(1, 1)),
            (Aggregate::Max, rat(7, 2)),
        ] {
            let got = aggregate(&db, &q, &free, &idty, agg, &unlimited());
            assert_eq!(got, Ok(want), "{agg:?}");
        }
    }

    #[test]
    fn aggregates_of_derived_values() {
        let (mut db, free) = setup();
        let q = parse_formula_with("U(x) & x >= 2", db.vars_mut()).unwrap();
        let x = free[0];
        // Σ x² over {2, 7/2} = 4 + 49/4 = 65/4.
        let sq = MPoly::var(x).pow(2);
        assert_eq!(
            aggregate(&db, &q, &free, &sq, Aggregate::Sum, &unlimited()).unwrap(),
            rat(65, 4)
        );
    }

    #[test]
    fn unsafe_aggregate_rejected() {
        let mut db = Database::new();
        db.define("S", &["x"], "0 <= x & x <= 1").unwrap();
        let x = db.vars_mut().get("x").unwrap();
        let q = parse_formula_with("S(x)", db.vars_mut()).unwrap();
        let r = aggregate(&db, &q, &[x], &MPoly::var(x), Aggregate::Sum, &unlimited());
        assert!(matches!(r, Err(AggError::Db(_))));
    }

    #[test]
    fn empty_set_semantics() {
        let (mut db, free) = setup();
        let q = parse_formula_with("U(x) & x > 100", db.vars_mut()).unwrap();
        let x = free[0];
        let idty = MPoly::var(x);
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Count, &unlimited()).unwrap(),
            rat(0, 1)
        );
        assert_eq!(
            aggregate(&db, &q, &free, &idty, Aggregate::Sum, &unlimited()).unwrap(),
            rat(0, 1)
        );
        assert!(aggregate(&db, &q, &free, &idty, Aggregate::Avg, &unlimited()).is_err());
        assert!(aggregate(&db, &q, &free, &idty, Aggregate::Min, &unlimited()).is_err());
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
            aggregate(&db, &q, &[x, y], &prod, Aggregate::Sum, &unlimited()).unwrap(),
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
            aggregate(&db, &q, &[x], &MPoly::var(x), Aggregate::Sum, &unlimited()).unwrap(),
            rat(3, 1) // 1 + 2
        );
    }

    #[test]
    fn free_variable_left_out_of_the_output_is_named() {
        // `y` is free in the query but not an output column: the output
        // over `[x]` would depend on an assignment nobody supplied.
        let mut db = Database::new();
        let [x, y] = ["x", "y"].map(|n| db.vars_mut().intern(n));
        let q = parse_formula_with("x = y & y = 1", db.vars_mut()).unwrap();
        let value = MPoly::var(x);
        let r = aggregate(&db, &q, &[x], &value, Aggregate::Sum, &unlimited());
        let Err(AggError::Db(msg)) = &r else {
            panic!("expected the unbound variable, got {r:?}")
        };
        assert!(msg.contains(&format!("(index {})", y.0)), "{msg}");
        // With `y` among the output columns the same query answers.
        let r = aggregate(&db, &q, &[x, y], &value, Aggregate::Sum, &unlimited());
        assert_eq!(r, Ok(rat(1, 1)));
    }
}
