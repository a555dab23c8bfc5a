//! Cross-crate integration tests: the full constraint-database pipeline
//! from parsing through querying, safety, aggregation and volume.

use constraint_agg::agg::{aggregate, semilinear_volume, Aggregate, SumTerm};
use constraint_agg::agg::{Deterministic, RangeRestricted};
use constraint_agg::core::{enumerate_finite, Database, Relation};
use constraint_agg::geom::{volume, volume_in_unit_box_with_budget};
use constraint_agg::logic::budget::EvalBudget;
use constraint_agg::logic::{parse_formula_with, Formula};
use constraint_agg::poly::MPoly;
use constraint_agg::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

#[test]
fn query_then_volume_pipeline() {
    let mut db = Database::new();
    db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    db.define("Band", &["x", "y"], "y >= 0.25 & y <= 0.75")
        .unwrap();
    // The part of the triangle inside the band: a first-order join whose
    // output feeds the exact volume engine.
    let out = db.query(&["x", "y"], "T(x, y) & Band(x, y)").unwrap();
    let Relation::FinitelyRepresentable { params, formula } = &out else {
        panic!("expected constraint output");
    };
    let v = volume(formula, params, &unlimited()).unwrap();
    // Area between y = 1/4 and y = 3/4 inside the unit right triangle:
    // ∫_{1/4}^{3/4} (1 − y) dy = [y − y²/2] = (3/4 − 9/32) − (1/4 − 1/32) = 1/4.
    assert_eq!(v, rat(1, 4));
}

#[test]
fn closure_composes_across_queries() {
    let mut db = Database::new();
    db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    let first = db.query(&["x"], "exists y. T(x, y) & y >= 0.5").unwrap();
    let Relation::FinitelyRepresentable { params, formula } = first else {
        panic!()
    };
    assert!(formula.is_quantifier_free());
    db.add_fr_relation("Proj", params, formula).unwrap();
    let second = db.query(&["x"], "Proj(x) & Proj(x + 0.25)").unwrap();
    assert!(second.contains(&[rat(1, 8)]));
    assert!(!second.contains(&[rat(2, 5)])); // 2/5 + 1/4 = 13/20 > 1/2
}

#[test]
fn polynomial_pipeline_through_hoermander() {
    let mut db = Database::new();
    db.define("Disk", &["x", "y"], "x*x + y*y <= 1").unwrap();
    // Width of the disk at height y: the projection is [-1, 1] at y = 0.
    let out = db.query(&["x"], "Disk(x, 0.6)").unwrap();
    // At y = 3/5: x² ≤ 1 − 9/25 = 16/25, so |x| ≤ 4/5.
    assert!(out.contains(&[rat(4, 5)]));
    assert!(out.contains(&[rat(-4, 5)]));
    assert!(!out.contains(&[rat(9, 10)]));
}

#[test]
fn safety_gate_rejects_infinite_aggregation() {
    let mut db = Database::new();
    db.define("S", &["x"], "0 <= x & x <= 1").unwrap();
    let x = db.vars_mut().get("x").unwrap();
    let q = parse_formula_with("S(x)", db.vars_mut()).unwrap();
    assert!(aggregate(&db, &q, &[x], &MPoly::var(x), Aggregate::Sum, &unlimited()).is_err());
    // But a finite subset aggregates fine.
    let q2 = parse_formula_with("S(x) & (x = 0.25 | x = 0.75)", db.vars_mut()).unwrap();
    assert_eq!(
        aggregate(&db, &q2, &[x], &MPoly::var(x), Aggregate::Sum, &unlimited()).unwrap(),
        rat(1, 1)
    );
}

#[test]
fn sum_term_full_language_flow() {
    // Σ over pairs of endpoints of a projection, with a filter and a
    // non-trivial deterministic summand — every layer involved.
    let mut db = Database::new();
    db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
        .unwrap();
    let y = db.vars_mut().intern("yy");
    let w1 = db.vars_mut().intern("w1");
    let w2 = db.vars_mut().intern("w2");
    let v = db.vars_mut().intern("vout");
    let term = SumTerm {
        range: RangeRestricted {
            filter: parse_formula_with("w1 < w2", db.vars_mut()).unwrap(),
            tuple_vars: vec![w1, w2],
            end_var: y,
            end_formula: parse_formula_with("exists x. T(x, yy)", db.vars_mut()).unwrap(),
        },
        gamma: Deterministic {
            out_var: v,
            in_vars: vec![w1, w2],
            formula: parse_formula_with("vout = (w2 - w1) * (w2 - w1)", db.vars_mut()).unwrap(),
        },
    };
    // Endpoints of π_y(T) = [0,1]: {0, 1}; single pair (0,1): (1−0)² = 1.
    assert_eq!(term.eval_with_budget(&db, &unlimited()).unwrap(), rat(1, 1));
}

#[test]
fn finite_enumeration_through_database() {
    let mut db = Database::new();
    db.define("Q", &["x"], "x*x - 3*x + 2 = 0").unwrap();
    let x = db.vars_mut().get("x").unwrap();
    let q = parse_formula_with("Q(x)", db.vars_mut()).unwrap();
    let expanded = db.expand(&q).unwrap();
    let qf = constraint_agg::qe::eliminate(&expanded, &EvalBudget::unlimited()).unwrap();
    let tuples = enumerate_finite(&qf, &[x], &unlimited()).unwrap();
    assert_eq!(tuples, vec![vec![rat(1, 1)], vec![rat(2, 1)]]);
}

#[test]
fn volume_operators_match_paper_notation() {
    // VOL vs VOL_I on the same set: a half-plane is unbounded for VOL but
    // fine for VOL_I.
    let mut db = Database::new();
    db.define("H", &["x", "y"], "x + y <= 1").unwrap();
    let x = db.vars_mut().get("x").unwrap();
    let yv = db.vars_mut().get("y").unwrap();
    let q = parse_formula_with("H(x, y)", db.vars_mut()).unwrap();
    let f = db.expand(&q).unwrap();
    assert!(volume(&f, &[x, yv], &unlimited()).is_err());
    assert_eq!(
        volume_in_unit_box_with_budget(&f, &[x, yv], &unlimited()).unwrap(),
        rat(1, 2)
    );
}

#[test]
fn theorem3_volume_every_dimension() {
    for (dim, expect) in [
        (1usize, rat(1, 1)),
        (2, rat(1, 2)),
        (3, rat(1, 6)),
        (4, rat(1, 24)),
    ] {
        let mut db = Database::new();
        let names: Vec<String> = (0..dim).map(|i| format!("x{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let src = if dim == 1 {
            "x0 >= 0 & x0 <= 1".to_string()
        } else {
            let mut parts: Vec<String> = names.iter().map(|n| format!("{n} >= 0")).collect();
            parts.push(format!("{} <= 1", names.join(" + ")));
            parts.join(" & ")
        };
        db.define("S", &name_refs, &src).unwrap();
        assert_eq!(semilinear_volume(&db, "S").unwrap(), expect, "dim {dim}");
    }
}

#[test]
fn active_domain_and_fr_relations_mix() {
    let mut db = Database::new();
    db.define("Zone", &["x"], "0 <= x & x <= 10").unwrap();
    db.add_finite_relation(
        "P",
        vec![vec![rat(2, 1)], vec![rat(5, 1)], vec![rat(12, 1)]],
    )
    .unwrap();
    // Points inside the zone such that every active-domain element to their
    // left is also in the zone.
    let out = db
        .query(
            &["x"],
            "P(x) & Zone(x) & Aadom u. (P(u) & u < x -> Zone(u))",
        )
        .unwrap();
    assert!(out.contains(&[rat(2, 1)]));
    assert!(out.contains(&[rat(5, 1)]));
    assert!(!out.contains(&[rat(12, 1)]));
}

#[test]
fn formula_roundtrip_through_display() {
    let mut db = Database::new();
    db.define("T", &["x", "y"], "x >= 0 & y >= 0 & 2*x + 3*y <= 6")
        .unwrap();
    let out = db.query(&["x"], "exists y. T(x, y)").unwrap();
    let Relation::FinitelyRepresentable { formula, .. } = &out else {
        panic!()
    };
    let printed = constraint_agg::logic::display_formula(formula, db.vars());
    let mut vars2 = db.vars().clone();
    let reparsed = parse_formula_with(&printed, &mut vars2).unwrap();
    assert_eq!(&reparsed, formula);
}

#[test]
fn mixed_class_queries_dispatch_correctly() {
    let mut db = Database::new();
    db.define("Lin", &["x"], "0 <= x & x <= 4").unwrap();
    db.define("Par", &["x", "y"], "y = x*x").unwrap();
    // Heights of the parabola over the linear domain, at a sample point.
    let out = db
        .query(&["y"], "exists x. Lin(x) & Par(x, y) & x = 1.5")
        .unwrap();
    assert!(out.contains(&[rat(9, 4)]));
    assert!(!out.contains(&[rat(2, 1)]));
}

#[test]
fn relation_free_queries_still_work() {
    let mut db = Database::new();
    let out = db
        .query(&["x"], "exists y. x = 2*y & 0 <= y & y <= 1")
        .unwrap();
    assert!(out.contains(&[rat(2, 1)]));
    assert!(out.contains(&[rat(0, 1)]));
    assert!(!out.contains(&[rat(5, 2)]));
}

#[test]
fn empty_and_trivial_relations() {
    let mut db = Database::new();
    db.define("E", &["x"], "false").unwrap();
    db.define("A", &["x"], "true").unwrap();
    let e = db.query(&["x"], "E(x)").unwrap();
    assert!(!e.contains(&[rat(0, 1)]));
    let a = db.query(&["x"], "A(x)").unwrap();
    assert!(a.contains(&[rat(123, 1)]));
    assert_eq!(semilinear_volume(&db, "E").unwrap(), Rat::zero());
}

#[test]
fn formula_built_programmatically() {
    // Build T(x,y) ≡ 0 ≤ x ≤ 1 ∧ 0 ≤ y ≤ x without the parser.
    let mut db = Database::new();
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let f = Formula::le(MPoly::zero(), MPoly::var(x))
        .and(Formula::le(MPoly::var(x), MPoly::one()))
        .and(Formula::le(MPoly::zero(), MPoly::var(y)))
        .and(Formula::le(MPoly::var(y), MPoly::var(x)));
    db.add_fr_relation("T", vec![x, y], f).unwrap();
    assert_eq!(semilinear_volume(&db, "T").unwrap(), rat(1, 2));
}
