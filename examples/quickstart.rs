//! Quickstart: constraint databases, closed querying, exact volume, and
//! SQL aggregation in five minutes.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use constraint_agg::agg::{aggregate, semilinear_volume, Aggregate};
use constraint_agg::core::{Database, Relation};
use constraint_agg::logic::{display_formula, parse_formula_with};
use constraint_agg::poly::MPoly;
use constraint_agg::prelude::*;

fn main() {
    // 1. A constraint database: relations are *formulas*, not tuples.
    let mut db = Database::new();
    db.define("Triangle", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    db.add_finite_relation(
        "Sensor",
        vec![
            vec![rat(1, 10), rat(2, 10)],
            vec![rat(3, 10), rat(3, 10)],
            vec![rat(8, 10), rat(9, 10)],
        ],
    )
    .unwrap();
    println!("relations: {:?}", db.relation_names().collect::<Vec<_>>());

    // 2. First-order querying with closure: the output of a query is again
    //    a quantifier-free constraint relation.
    let proj = db.query(&["x"], "exists y. Triangle(x, y)").unwrap();
    if let Relation::FinitelyRepresentable { formula, .. } = &proj {
        println!(
            "π_x(Triangle) = {}  (quantifier-free: {})",
            display_formula(formula, db.vars()),
            formula.is_quantifier_free()
        );
    }
    println!(
        "  1/2 ∈ π_x(Triangle)? {}   3/2? {}",
        proj.contains(&[rat(1, 2)]),
        proj.contains(&[rat(3, 2)])
    );

    // 3. Exact volume of a semi-linear relation (Theorem 3).
    let area = semilinear_volume(&db, "Triangle").unwrap();
    println!("VOLUME(Triangle) = {area} (exactly 1/2)");

    // 4. Classical aggregates over safe (finite) query outputs.
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let q = parse_formula_with("Sensor(x, y) & Triangle(x, y)", db.vars_mut()).unwrap();
    let unlimited = EvalBudget::unlimited();
    let xcoord = MPoly::var(x);
    let count = aggregate(&db, &q, &[x, y], &xcoord, Aggregate::Count, &unlimited).unwrap();
    let avg_x = aggregate(&db, &q, &[x, y], &xcoord, Aggregate::Avg, &unlimited).unwrap();
    println!("sensors inside the triangle: {count}, average x-coordinate {avg_x}");

    // 5. Exact rational arithmetic underneath it all.
    let a = rat(1, 3) + rat(1, 6);
    assert_eq!(a, rat(1, 2));
    println!("1/3 + 1/6 = {a} — no floating point was harmed");
}
