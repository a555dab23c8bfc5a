//! Property tests for the headline closure invariants, across crates.

use constraint_agg::core::{Database, Relation};
use constraint_agg::geom::volume;
use constraint_agg::logic::{Formula, VarMap};
use constraint_agg::poly::{MPoly, Var};
use constraint_agg::prelude::*;
use proptest::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

/// Random conjunctions of half-planes through integer points.
fn halfplane_conj() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((-3i64..=3, -3i64..=3, -6i64..=6), 1..6)
}

fn formula_of(rows: &[(i64, i64, i64)], x: Var, y: Var) -> Formula {
    let mut f = Formula::True;
    for &(a, b, c) in rows {
        if a == 0 && b == 0 {
            continue;
        }
        let poly = MPoly::var(x).scale(&Rat::from(a))
            + MPoly::var(y).scale(&Rat::from(b))
            + MPoly::constant(Rat::from(c));
        f = f.and(Formula::Atom(constraint_agg::logic::Atom::new(
            poly,
            constraint_agg::logic::Rel::Le,
        )));
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Closure: every projection query output is quantifier-free,
    /// relation-free, and linear — i.e. a semi-linear relation again.
    #[test]
    fn projection_outputs_are_semilinear(rows in halfplane_conj()) {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let f = formula_of(&rows, x, y);
        db.add_fr_relation("R", vec![x, y], f).unwrap();
        let q = Formula::exists(
            vec![y],
            Formula::Rel { name: "R".into(), args: vec![MPoly::var(x), MPoly::var(y)] },
        );
        let out = db.eval(&q, &[x], &unlimited()).unwrap();
        let Relation::FinitelyRepresentable { formula, .. } = out else { panic!() };
        prop_assert!(formula.is_quantifier_free());
        prop_assert!(formula.is_relation_free());
        prop_assert!(formula.class() <= constraint_agg::logic::ConstraintClass::Linear);
    }

    /// Projection semantics: x is in the projection iff some y-witness on a
    /// fine grid exists — one direction (witness implies membership) must
    /// hold exactly.
    #[test]
    fn projection_soundness(rows in halfplane_conj()) {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let f = formula_of(&rows, x, y);
        db.add_fr_relation("R", vec![x, y], f.clone()).unwrap();
        let q = Formula::exists(
            vec![y],
            Formula::Rel { name: "R".into(), args: vec![MPoly::var(x), MPoly::var(y)] },
        );
        let out = db.eval(&q, &[x], &unlimited()).unwrap();
        for xv in -4..=4i64 {
            for yv in -4..=4i64 {
                let asg = |v: Var| if v == x { rat(xv, 1) } else { rat(yv, 1) };
                if f.eval(&asg, &[]).unwrap() {
                    prop_assert!(out.contains(&[rat(xv, 1)]),
                        "witness ({xv},{yv}) exists but projection rejects {xv}");
                }
            }
        }
    }

    /// Volume is monotone under adding constraints and under union.
    #[test]
    fn volume_monotonicity(rows in halfplane_conj(), extra in (-3i64..=3, -3i64..=3, -6i64..=6)) {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let base = formula_of(&rows, x, y);
        let tightened = base.clone().and(formula_of(&[extra], x, y));
        // Clip to a box so volumes are finite.
        let boxf = formula_of(&[(1, 0, -5), (-1, 0, -5), (0, 1, -5), (0, -1, -5)], x, y);
        let v_base = volume(&base.clone().and(boxf.clone()), &[x, y], &unlimited()).unwrap();
        let v_tight = volume(&tightened.and(boxf), &[x, y], &unlimited()).unwrap();
        prop_assert!(v_tight <= v_base);
    }

    /// The exact volume engine agrees with brute-force grid counting to
    /// within the grid resolution.
    #[test]
    fn volume_close_to_grid_count(rows in halfplane_conj()) {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let boxf = formula_of(&[(1, 0, -3), (-1, 0, -3), (0, 1, -3), (0, -1, -3)], x, y);
        let f = formula_of(&rows, x, y).and(boxf);
        let v = volume(&f, &[x, y], &unlimited()).unwrap().to_f64();
        // 60×60 grid over [-3,3]².
        let n = 60;
        let mut hits = 0usize;
        for i in 0..n {
            for j in 0..n {
                let xv = rat(-3, 1) + rat(6, 1) * rat(2 * i as i64 + 1, 2 * n as i64);
                let yv = rat(-3, 1) + rat(6, 1) * rat(2 * j as i64 + 1, 2 * n as i64);
                let asg = |v: Var| if v == x { xv.clone() } else { yv.clone() };
                if f.eval(&asg, &[]).unwrap() {
                    hits += 1;
                }
            }
        }
        let approx = 36.0 * hits as f64 / (n * n) as f64;
        // Perimeter error bound: cells cut by up to 5 lines of length ≤ 6√2.
        prop_assert!((v - approx).abs() < 6.0, "exact {v} vs grid {approx}");
    }
}
