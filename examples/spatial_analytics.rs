//! Spatial analytics with the extension features: GROUP BY over safe
//! constraint queries (the paper's §7 open question) and exact integrals /
//! averages of polynomials over semi-linear regions (the §1 motivation:
//! "ask for the average value of a polynomial over a spatial object").
//!
//! ```text
//! cargo run --release --example spatial_analytics
//! ```

use constraint_agg::agg::{average, group_aggregate, Aggregate};
use constraint_agg::core::Database;
use constraint_agg::geom::integral;
use constraint_agg::logic::{parse_formula_with, VarMap};
use constraint_agg::poly::MPoly;
use constraint_agg::prelude::*;

fn main() {
    // --- GROUP BY over a mixed finite + constraint query ------------------
    let mut db = Database::new();
    // Readings(station, value); stations 1..3.
    db.add_finite_relation(
        "Readings",
        vec![
            vec![rat(1, 1), rat(12, 1)],
            vec![rat(1, 1), rat(18, 1)],
            vec![rat(2, 1), rat(7, 1)],
            vec![rat(2, 1), rat(11, 1)],
            vec![rat(2, 1), rat(6, 1)],
            vec![rat(3, 1), rat(40, 1)],
        ],
    )
    .unwrap();
    // Valid readings are constrained by a (constraint!) relation.
    db.define("Valid", &["v"], "0 <= v & v <= 30").unwrap();

    let s = db.vars_mut().intern("s");
    let v = db.vars_mut().get("v").unwrap();
    let q = parse_formula_with("Readings(s, v) & Valid(v)", db.vars_mut()).unwrap();
    let unlimited = EvalBudget::unlimited();
    let value = MPoly::var(v);

    println!("average valid reading per station (GROUP BY s):");
    let rows = group_aggregate(&db, &q, &[s, v], &[s], &value, Aggregate::Avg, &unlimited).unwrap();
    for (key, avg) in &rows {
        println!("  station {} → AVG = {}", key[0], avg);
    }
    let counts =
        group_aggregate(&db, &q, &[s, v], &[s], &value, Aggregate::Count, &unlimited).unwrap();
    println!(
        "  (station 3's out-of-range reading is filtered: groups = {:?})",
        counts
            .iter()
            .map(|(k, c)| (k[0].to_string(), c.to_string()))
            .collect::<Vec<_>>()
    );

    // --- Exact integrals over a semi-linear region -------------------------
    // Pollution model p(x, y) = x + 2y over the triangular district
    // {x ≥ 0, y ≥ 0, x + y ≤ 2}.
    let mut vars = VarMap::new();
    let x = vars.intern("x");
    let y = vars.intern("y");
    let xy = [x, y];
    let district = parse_formula_with("x >= 0 & y >= 0 & x + y <= 2", &mut vars).unwrap();
    let p = MPoly::var(x) + MPoly::var(y).scale(&rat(2, 1));

    let total = integral(&district, &xy, &p, &unlimited).unwrap();
    let mean = average(&district, &xy, &p, &unlimited).unwrap();
    println!("\ndistrict: triangle with legs 2 (area 2)");
    println!("∫∫ (x + 2y) dA = {total} (exact rational)");
    println!("average pollution = {mean} (= total / area)");
    assert_eq!((total, mean), (rat(4, 1), rat(2, 1)));

    // Centroid: averages of the coordinate functions.
    let cx = average(&district, &xy, &MPoly::var(x), &unlimited).unwrap();
    let cy = average(&district, &xy, &MPoly::var(y), &unlimited).unwrap();
    println!("centroid = ({cx}, {cy})  — the classic (b/3, h/3)");
    assert_eq!((cx, cy), (rat(2, 3), rat(2, 3)));

    // The same sweep in any dimension: the standard 3-simplex.
    let z = vars.intern("z");
    let xyz = [x, y, z];
    let simplex =
        parse_formula_with("x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1", &mut vars).unwrap();
    let c: Vec<Rat> = xyz
        .iter()
        .map(|&v| average(&simplex, &xyz, &MPoly::var(v), &unlimited).unwrap())
        .collect();
    println!(
        "centroid of the standard 3-simplex = ({}, {}, {})",
        c[0], c[1], c[2]
    );
    assert_eq!(c, vec![rat(1, 4); 3]);

    // Second moment about the origin, over a region with a hole:
    // ∫∫_{[0,2]²} (x² + y²) = 32/3 minus ∫∫_{[1/2,3/2]²} (x² + y²) = 13/6.
    let holed = parse_formula_with(
        "0 <= x & x <= 2 & 0 <= y & y <= 2 & !(0.5 <= x & x <= 1.5 & 0.5 <= y & y <= 1.5)",
        &mut vars,
    )
    .unwrap();
    let r2 = MPoly::var(x).pow(2) + MPoly::var(y).pow(2);
    let moment = integral(&holed, &xy, &r2, &unlimited).unwrap();
    println!("\nsquare [0,2]² minus centered hole: ∫∫ (x²+y²) dA = {moment}");
    assert_eq!(moment, rat(17, 2));
}
