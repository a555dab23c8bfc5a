//! Property tests: the Lasserre volume engine against independent methods.

use cqa_arith::{rat, Rat};
use cqa_geom::{convex_hull, polygon_area, simplex_volume, volume, HPolyhedron};
use cqa_logic::budget::EvalBudget;
use cqa_poly::Var;
use proptest::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

/// Random small-integer points in the plane.
fn points_strategy() -> impl Strategy<Value = Vec<(Rat, Rat)>> {
    prop::collection::vec((-5i64..=5, -5i64..=5), 3..9).prop_map(|ps| {
        ps.into_iter()
            .map(|(x, y)| (rat(x, 1), rat(y, 1)))
            .collect()
    })
}

/// The H-polyhedron of a convex hull: one half-space per edge.
fn hull_to_hpoly(hull: &[(Rat, Rat)]) -> HPolyhedron {
    let mut p = HPolyhedron::whole(2);
    let n = hull.len();
    for i in 0..n {
        let (x1, y1) = &hull[i];
        let (x2, y2) = &hull[(i + 1) % n];
        // CCW edge (x1,y1)→(x2,y2): interior is on the left:
        // (x2-x1)(y-y1) - (y2-y1)(x-x1) ≥ 0
        // ⇔ (y2-y1)x - (x2-x1)y ≤ (y2-y1)x1 - (x2-x1)y1.
        let a = vec![y2 - y1, -(x2 - x1)];
        let b = (y2 - y1) * x1 - (x2 - x1) * y1;
        p.add_halfspace(a, b);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lasserre_matches_shoelace_on_random_hulls(pts in points_strategy()) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let hp = hull_to_hpoly(&hull);
        let vars = [Var(0), Var(1)];
        let f = hp.to_formula(&vars);
        let vol = volume(&f, &vars, &unlimited()).unwrap();
        let area = polygon_area(&hull);
        prop_assert_eq!(vol, area);
    }

    #[test]
    fn vertices_of_hull_polyhedron_match_hull(pts in points_strategy()) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let hp = hull_to_hpoly(&hull);
        let mut vs = hp.vertices();
        vs.sort();
        let mut expect: Vec<Vec<Rat>> = hull.iter().map(|(x, y)| vec![x.clone(), y.clone()]).collect();
        expect.sort();
        prop_assert_eq!(vs, expect);
    }

    #[test]
    fn random_triangle_volume_equals_simplex_formula(
        ax in -5i64..=5, ay in -5i64..=5,
        bx in -5i64..=5, by in -5i64..=5,
        cx in -5i64..=5, cy in -5i64..=5,
    ) {
        let tri = vec![
            vec![rat(ax, 1), rat(ay, 1)],
            vec![rat(bx, 1), rat(by, 1)],
            vec![rat(cx, 1), rat(cy, 1)],
        ];
        let sv = simplex_volume(&tri);
        let area = polygon_area(&[
            (rat(ax, 1), rat(ay, 1)),
            (rat(bx, 1), rat(by, 1)),
            (rat(cx, 1), rat(cy, 1)),
        ]);
        prop_assert_eq!(sv, area);
    }

    #[test]
    fn union_volume_bounded_by_sum(pts in points_strategy(), dx in -2i64..=2, dy in -2i64..=2) {
        // vol(A ∪ B) ≤ vol(A) + vol(B), with equality iff disjoint interiors.
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let a = hull_to_hpoly(&hull);
        let shifted: Vec<(Rat, Rat)> = hull
            .iter()
            .map(|(x, y)| (x + rat(dx, 1), y + rat(dy, 1)))
            .collect();
        let b = hull_to_hpoly(&shifted);
        let vars = [Var(0), Var(1)];
        let fa = a.to_formula(&vars);
        let fb = b.to_formula(&vars);
        let va = volume(&fa, &vars, &unlimited()).unwrap();
        let vb = volume(&fb, &vars, &unlimited()).unwrap();
        let vu = volume(&fa.clone().or(fb.clone()), &vars, &unlimited()).unwrap();
        prop_assert!(vu <= &va + &vb);
        prop_assert!(vu >= va.clone().max(vb.clone()));
        if dx == 0 && dy == 0 {
            prop_assert_eq!(vu, va);
        }
    }
}
