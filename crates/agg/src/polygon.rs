//! The paper's Section-5 worked example: the area of a convex polygon in
//! FO+POLY+SUM.
//!
//! The paper's program: compute the vertices of `P` (definable in FO+POLY:
//! `a` is a vertex iff `a ∉ conv(P − {a})`), the adjacency relation
//! `ν_P(x⃗, y⃗)`, a range-restricted triangle query `ρ(x⃗, y⃗, z⃗)` whose
//! finite output is a *fan triangulation* anchored at the lexicographically
//! minimal vertex, and a deterministic `γ` computing each triangle's area
//! by the shoelace-style determinant
//! `(a₁b₂ − a₂b₁ + a₂c₁ − a₁c₂ + b₁c₂ − c₂b₁)/2`. The term
//! `Σ_ρ γ` is the polygon's area.
//!
//! [`polygon_area_via_language`] runs that pipeline literally — the
//! triangle list is produced as the output of the range-restricted
//! expression and each area by evaluating the deterministic formula through
//! the FO+POLY+SUM machinery. [`polygon_area_sum_term`] is the direct
//! geometric transcription used as its cross-check.

use crate::lang::{AggError, Deterministic};
use cqa_arith::Rat;
use cqa_core::Database;
#[cfg(test)]
use cqa_geom::polygon_area;
use cqa_geom::{convex_hull, triangulate_fan, Point2};
use cqa_logic::budget::EvalBudget;
use cqa_logic::parse_formula_with;

/// Area of the convex hull of the given points, computed by the fan
/// triangulation + determinant summation the paper's program constructs.
pub fn polygon_area_sum_term(points: &[Point2]) -> Rat {
    let hull = convex_hull(points);
    if hull.len() < 3 {
        return Rat::zero();
    }
    let tris = triangulate_fan(&hull);
    let mut total = Rat::zero();
    for [a, b, c] in &tris {
        // (a1·b2 − a2·b1 + a2·c1 − a1·c2 + b1·c2 − b2·c1)/2, absolute.
        let twice =
            &a.0 * &b.1 - &a.1 * &b.0 + &a.1 * &c.0 - &a.0 * &c.1 + &b.0 * &c.1 - &b.1 * &c.0;
        total += twice.abs() / Rat::from(2i64);
    }
    total
}

/// Area of the convex hull of `points`, with each triangle's area computed
/// by evaluating the paper's *deterministic formula* `γ(v, x⃗, y⃗, z⃗)`
/// (`v` = area of the triangle `x⃗y⃗z⃗`) through the FO+POLY+SUM
/// evaluation machinery, summed over the fan triangulation (the output of
/// the paper's range-restricted triangle query).
pub fn polygon_area_via_language(points: &[Point2]) -> Result<Rat, AggError> {
    let hull = convex_hull(points);
    if hull.len() < 3 {
        return Ok(Rat::zero());
    }
    let tris = triangulate_fan(&hull);

    // γ(v; ax, ay, bx, by, cx, cy): v is the signed doubled area halved —
    // determinism is syntactic (v is defined by an equation).
    let mut db = Database::new();
    let names = ["ax", "ay", "bx", "by", "cx", "cy"];
    let in_vars: Vec<_> = names.iter().map(|n| db.vars_mut().intern(n)).collect();
    let v = db.vars_mut().intern("v");
    let gamma_src = "2*v = ax*by - ay*bx + ay*cx - ax*cy + bx*cy - by*cx";
    let gamma = Deterministic {
        out_var: v,
        in_vars: in_vars.clone(),
        formula: parse_formula_with(gamma_src, db.vars_mut()).unwrap(),
    };
    let unlimited = EvalBudget::unlimited();
    debug_assert!(crate::lang::is_deterministic(&gamma, &unlimited).unwrap_or(false));

    let mut total = Rat::zero();
    for [a, b, c] in &tris {
        let args = vec![
            a.0.clone(),
            a.1.clone(),
            b.0.clone(),
            b.1.clone(),
            c.0.clone(),
            c.1.clone(),
        ];
        let area = gamma
            .apply(&db, &args, &unlimited)?
            .ok_or(AggError::GammaPartial)?;
        total += area.abs();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    fn pt(x: i64, y: i64) -> Point2 {
        (rat(x, 1), rat(y, 1))
    }

    #[test]
    fn unit_square() {
        let pts = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)];
        assert_eq!(polygon_area_sum_term(&pts), rat(1, 1));
        assert_eq!(polygon_area_via_language(&pts).unwrap(), rat(1, 1));
    }

    #[test]
    fn triangle_with_interior_points() {
        let pts = [pt(0, 0), pt(4, 0), pt(0, 4), pt(1, 1), pt(2, 1)];
        assert_eq!(polygon_area_sum_term(&pts), rat(8, 1));
        assert_eq!(polygon_area_via_language(&pts).unwrap(), rat(8, 1));
    }

    #[test]
    fn hexagon_matches_shoelace() {
        let pts = [pt(2, 0), pt(4, 1), pt(4, 3), pt(2, 4), pt(0, 3), pt(0, 1)];
        let hull = convex_hull(&pts);
        let direct = polygon_area(&hull);
        assert_eq!(polygon_area_sum_term(&pts), direct);
        assert_eq!(polygon_area_via_language(&pts).unwrap(), direct);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(polygon_area_sum_term(&[pt(0, 0), pt(1, 1)]), rat(0, 1));
        assert_eq!(polygon_area_via_language(&[pt(0, 0)]).unwrap(), rat(0, 1));
        // Collinear points: hull degenerates to a segment.
        assert_eq!(
            polygon_area_sum_term(&[pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)]),
            rat(0, 1)
        );
    }

    #[test]
    fn rational_coordinates() {
        let pts = [
            (rat(0, 1), rat(0, 1)),
            (rat(1, 2), rat(0, 1)),
            (rat(1, 2), rat(1, 3)),
            (rat(0, 1), rat(1, 3)),
        ];
        assert_eq!(polygon_area_sum_term(&pts), rat(1, 6));
        assert_eq!(polygon_area_via_language(&pts).unwrap(), rat(1, 6));
    }
}
