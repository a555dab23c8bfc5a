//! Grouping — the extension the paper's conclusion asks for.
//!
//! "It remains to discover … how to add grouping constructs to the
//! language." For *safe* (finite-output) queries the natural semantics is
//! SQL's: partition the output tuples by the values of the grouping
//! columns and aggregate the rest per group. Safety makes this
//! well-defined: the group keys form a finite set, so the result is again
//! a finite relation — closure is preserved.

use std::collections::BTreeMap;

use crate::aggregate::Aggregate;
use crate::lang::AggError;
use cqa_arith::Rat;
use cqa_core::{enumerate_finite, Database, SafetyError};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Formula, SlotMap};
use cqa_poly::{MPoly, Var};

/// `GROUP BY`-style aggregation: evaluates the (safe) query `q` with
/// output columns `free`, partitions tuples by the `group_by` columns
/// (which must be a subset of `free`, else
/// [`AggError::GroupByNotInOutput`]), and applies `agg` to the `value`
/// term within each group.
///
/// Returns `(key, aggregate)` pairs sorted by key. Empty groups do not
/// occur (keys come from actual tuples), so `AVG`/`MIN`/`MAX` are total.
///
/// Runs under the cooperative `budget`: one step per partitioned tuple,
/// plus whatever QE and enumeration charge.
pub fn group_aggregate(
    db: &Database,
    q: &Formula,
    free: &[Var],
    group_by: &[Var],
    value: &MPoly,
    agg: Aggregate,
    budget: &EvalBudget,
) -> Result<Vec<(Vec<Rat>, Rat)>, AggError> {
    // Resolve each grouping column to its position in the output row up
    // front; a missing column is the caller's error, not a panic.
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| {
            free.iter()
                .position(|v| v == g)
                .ok_or_else(|| AggError::GroupByNotInOutput(format!("{g:?}")))
        })
        .collect::<Result<_, _>>()?;
    let qf = cqa_qe::eliminate(&db.expand(q)?, budget)?;
    let tuples = enumerate_finite(&qf, free, budget).map_err(|e| match e {
        SafetyError::Infinite => AggError::Db("grouping over an infinite set".into()),
        e => AggError::from(e),
    })?;

    // Partition by key. The ordered map both deduplicates keys in
    // O(log #groups) per tuple and hands the groups back already sorted.
    let slots = SlotMap::from_vars(free);
    let mut groups: BTreeMap<Vec<Rat>, Vec<Rat>> = BTreeMap::new();
    for t in &tuples {
        budget.check()?;
        let key: Vec<Rat> = key_idx.iter().map(|&i| t[i].clone()).collect();
        let val = value.eval(&slots.assignment(t));
        groups.entry(key).or_default().push(val);
    }

    // Groups are created with their first value, so every reduction is
    // over a non-empty bag.
    groups
        .into_iter()
        .map(|(key, vals)| Ok((key, agg.reduce(vals)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;

    fn unlimited() -> EvalBudget {
        EvalBudget::unlimited()
    }

    /// `agg` of the amount `a` over the query `src` on the table
    /// `Sales(r, a)` (region, amount), grouped by the named columns.
    fn sales(src: &str, by: &[&str], agg: Aggregate) -> Result<Vec<(Vec<Rat>, Rat)>, AggError> {
        let mut db = Database::new();
        db.add_finite_relation(
            "Sales",
            vec![
                vec![rat(1, 1), rat(10, 1)],
                vec![rat(1, 1), rat(20, 1)],
                vec![rat(2, 1), rat(5, 1)],
                vec![rat(2, 1), rat(7, 1)],
                vec![rat(2, 1), rat(9, 1)],
                vec![rat(3, 1), rat(100, 1)],
            ],
        )
        .unwrap();
        let r = db.vars_mut().intern("r");
        let a = db.vars_mut().intern("a");
        let by: Vec<Var> = by.iter().map(|n| db.vars_mut().intern(n)).collect();
        let q = parse_formula_with(src, db.vars_mut()).unwrap();
        group_aggregate(&db, &q, &[r, a], &by, &MPoly::var(a), agg, &unlimited())
    }

    #[test]
    fn group_sums() {
        let out = sales("Sales(r, a)", &["r"], Aggregate::Sum).unwrap();
        assert_eq!(
            out,
            vec![
                (vec![rat(1, 1)], rat(30, 1)),
                (vec![rat(2, 1)], rat(21, 1)),
                (vec![rat(3, 1)], rat(100, 1)),
            ]
        );
    }

    #[test]
    fn group_counts_and_avg() {
        let counts = sales("Sales(r, a)", &["r"], Aggregate::Count).unwrap();
        assert_eq!(counts[0].1, rat(2, 1));
        assert_eq!(counts[1].1, rat(3, 1));
        let avgs = sales("Sales(r, a)", &["r"], Aggregate::Avg).unwrap();
        assert_eq!(avgs[0].1, rat(15, 1));
        assert_eq!(avgs[1].1, rat(7, 1));
    }

    #[test]
    fn grouping_respects_where_clause() {
        let out = sales("Sales(r, a) & a >= 9", &["r"], Aggregate::Max).unwrap();
        assert_eq!(
            out,
            vec![
                (vec![rat(1, 1)], rat(20, 1)),
                (vec![rat(2, 1)], rat(9, 1)),
                (vec![rat(3, 1)], rat(100, 1)),
            ]
        );
    }

    #[test]
    fn group_by_all_columns_is_identity_count() {
        let out = sales("Sales(r, a)", &["r", "a"], Aggregate::Count).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, c)| *c == rat(1, 1)));
    }

    #[test]
    fn grouping_on_constraint_derived_keys() {
        // Group keys produced by a constraint query (roots of a quadratic).
        let mut db = Database::new();
        db.define("K", &["k"], "k*k - 3*k + 2 = 0").unwrap(); // k ∈ {1, 2}
        db.add_finite_relation("V", vec![vec![rat(1, 1)], vec![rat(2, 1)], vec![rat(3, 1)]])
            .unwrap();
        let k = db.vars_mut().get("k").unwrap();
        let v = db.vars_mut().intern("v");
        // Pairs (k, v) with v > k.
        let q = parse_formula_with("K(k) & V(v) & v > k", db.vars_mut()).unwrap();
        let out = group_aggregate(
            &db,
            &q,
            &[k, v],
            &[k],
            &MPoly::var(v),
            Aggregate::Count,
            &unlimited(),
        )
        .unwrap();
        assert_eq!(
            out,
            vec![(vec![rat(1, 1)], rat(2, 1)), (vec![rat(2, 1)], rat(1, 1))]
        );
    }

    #[test]
    fn group_by_column_outside_output_is_a_typed_error() {
        let err = sales("Sales(r, a)", &["z"], Aggregate::Sum).unwrap_err();
        assert!(matches!(err, AggError::GroupByNotInOutput(_)), "{err}");
    }

    #[test]
    fn infinite_grouping_rejected() {
        let mut db = Database::new();
        db.define("S", &["x"], "0 <= x & x <= 1").unwrap();
        let x = db.vars_mut().get("x").unwrap();
        let q = parse_formula_with("S(x)", db.vars_mut()).unwrap();
        assert!(group_aggregate(
            &db,
            &q,
            &[x],
            &[x],
            &MPoly::var(x),
            Aggregate::Count,
            &unlimited()
        )
        .is_err());
    }
}
