//! A GIS-flavoured scenario — the application domain that motivates the
//! paper's introduction: land-use zones as semi-linear sets, spatial
//! queries, and *aggregation* (areas, counts, averages) over them.
//!
//! ```text
//! cargo run --example gis_zoning
//! ```

use constraint_agg::agg::{aggregate, semilinear_volume, Aggregate};
use constraint_agg::core::Database;
use constraint_agg::logic::parse_formula_with;
use constraint_agg::poly::MPoly;
use constraint_agg::prelude::*;

fn main() {
    let mut db = Database::new();
    // No operation here can blow up: run each without a budget cap.
    let unlimited = EvalBudget::unlimited();

    // A town plan on the [0,10]² map, as linear-constraint zones.
    db.define(
        "Residential",
        &["x", "y"],
        "0 <= x & x <= 6 & 0 <= y & y <= 4",
    )
    .unwrap();
    db.define(
        "Park",
        &["x", "y"],
        // A triangular park overlapping the residential zone.
        "x >= 4 & y >= 2 & x + y <= 10",
    )
    .unwrap();
    db.define(
        "FloodPlain",
        &["x", "y"],
        // A diagonal strip along the river y = x.
        "y - x <= 1 & x - y <= 1 & 0 <= x & x <= 10 & 0 <= y & y <= 10",
    )
    .unwrap();
    // Wells: a classical finite relation (point data).
    db.add_finite_relation(
        "Well",
        vec![
            vec![rat(1, 1), rat(1, 1)],
            vec![rat(5, 1), rat(3, 1)],
            vec![rat(9, 1), rat(9, 1)],
            vec![rat(2, 1), rat(4, 1)],
        ],
    )
    .unwrap();

    // Exact zone areas (Theorem 3: FO+POLY+SUM computes these).
    for zone in ["Residential", "Park", "FloodPlain"] {
        let a = semilinear_volume(&db, zone).unwrap();
        println!("area({zone:<12}) = {a} ≈ {:.2}", a.to_f64());
    }

    // Spatial join: the residential area at flood risk — a first-order
    // query whose output is again a constraint relation; then its area.
    let risk = db
        .query(&["x", "y"], "Residential(x, y) & FloodPlain(x, y)")
        .unwrap();
    let constraint_agg::core::Relation::FinitelyRepresentable { params, formula } = &risk else {
        unreachable!()
    };
    let risk_area = volume(formula, params, &unlimited).unwrap();
    println!(
        "area(Residential ∩ FloodPlain) = {risk_area} ≈ {:.2}",
        risk_area.to_f64()
    );

    // Padding-style query with arithmetic in arguments: a 1-unit safety
    // buffer translated zone (constraint languages compose with terms).
    let buffered = db.query(&["x", "y"], "Park(x + 1, y)").unwrap();
    println!(
        "park shifted one unit west contains (4,3)? {}",
        buffered.contains(&[rat(4, 1), rat(3, 1)])
    );

    // Classical aggregation over point data with spatial predicates:
    // how many wells are in residential-but-not-flood areas, and their
    // average x-coordinate.
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let q = parse_formula_with(
        "Well(x, y) & Residential(x, y) & !FloodPlain(x, y)",
        db.vars_mut(),
    )
    .unwrap();
    let xcoord = MPoly::var(x);
    let n = aggregate(&db, &q, &[x, y], &xcoord, Aggregate::Count, &unlimited).unwrap();
    println!("safe residential wells: {n}");
    if !n.is_zero() {
        let ax = aggregate(&db, &q, &[x, y], &xcoord, Aggregate::Avg, &unlimited).unwrap();
        println!("  average x-coordinate: {ax}");
    }

    // The fraction of the residential zone that is parkland within reach —
    // exact rational arithmetic end to end.
    let park_in_res = db
        .query(&["x", "y"], "Residential(x, y) & Park(x, y)")
        .unwrap();
    let constraint_agg::core::Relation::FinitelyRepresentable { params, formula } = &park_in_res
    else {
        unreachable!()
    };
    let a = volume(formula, params, &unlimited).unwrap();
    let res_area = semilinear_volume(&db, "Residential").unwrap();
    println!(
        "share of residential land that is park: {} (exact)",
        &a / &res_area
    );
}
