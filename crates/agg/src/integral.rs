//! AVG of a polynomial over a semi-linear set.
//!
//! Section 1 of the paper motivates extending "standard aggregates such as
//! AVG … and ask[ing] for the *average* value of a polynomial over a
//! spatial object". The sweep that proves Theorem 3 integrates any
//! polynomial exactly ([`cqa_geom::integral`], in every dimension), so
//! `AVG(p over S) = ∫_S p / VOL(S)` is exact too. What this crate adds is
//! the aggregate's semantics: a null set has no average.

use crate::lang::AggError;
use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::{MPoly, Var};

/// Exact `AVG(p over S) = ∫_S p / VOL(S)` for the semi-linear set
/// `S = {vars : f}`, `f` quantifier-free linear and `p` a polynomial in
/// `vars`. Errors on null and unbounded sets.
pub fn average(f: &Formula, vars: &[Var], p: &MPoly, budget: &EvalBudget) -> Result<Rat, AggError> {
    let integral = cqa_geom::integral(f, vars, p, budget)?;
    let vol = cqa_geom::volume(f, vars, budget)?;
    if vol.is_zero() {
        return Err(AggError::Db("AVG over a null set".into()));
    }
    Ok(integral / vol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep2d;
    use cqa_arith::rat;
    use cqa_geom::{integral, VolumeError};
    use cqa_logic::{parse_formula_with, Atom, Rel, VarMap};
    use proptest::prelude::*;

    fn unlimited() -> EvalBudget {
        EvalBudget::unlimited()
    }

    fn setup(src: &str) -> (Formula, Var, Var, VarMap) {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(src, &mut vars).unwrap();
        (f, x, y, vars)
    }

    fn int2(src: &str, p: impl Fn(Var, Var) -> MPoly) -> Result<Rat, VolumeError> {
        let (f, x, y, _) = setup(src);
        integral(&f, &[x, y], &p(x, y), &unlimited())
    }

    fn avg2(src: &str, p: impl Fn(Var, Var) -> MPoly) -> Result<Rat, AggError> {
        let (f, x, y, _) = setup(src);
        average(&f, &[x, y], &p(x, y), &unlimited())
    }

    const TRIANGLE: &str = "x >= 0 & y >= 0 & x + y <= 1";
    const SQUARE: &str = "0 <= x & x <= 1 & 0 <= y & y <= 1";

    #[test]
    fn integral_of_one_is_area() {
        assert_eq!(int2(TRIANGLE, |_, _| MPoly::one()), Ok(rat(1, 2)));
    }

    #[test]
    fn moments_over_the_unit_square() {
        // ∫∫ x = 1/2, ∫∫ x·y = 1/4, ∫∫ x² = 1/3, ∫∫ (x + y)² = 7/6.
        assert_eq!(int2(SQUARE, |x, _| MPoly::var(x)), Ok(rat(1, 2)));
        let xy = |x, y| MPoly::var(x) * MPoly::var(y);
        assert_eq!(int2(SQUARE, xy), Ok(rat(1, 4)));
        assert_eq!(int2(SQUARE, |x, _| MPoly::var(x).pow(2)), Ok(rat(1, 3)));
        let sum2 = |x, y| (MPoly::var(x) + MPoly::var(y)).pow(2);
        assert_eq!(int2(SQUARE, sum2), Ok(rat(7, 6)));
    }

    #[test]
    fn centroid_and_second_moment_of_the_triangle() {
        assert_eq!(avg2(TRIANGLE, |x, _| MPoly::var(x)), Ok(rat(1, 3)));
        assert_eq!(avg2(TRIANGLE, |_, y| MPoly::var(y)), Ok(rat(1, 3)));
        // ∫₀¹ x²(1 − x) dx = 1/12.
        assert_eq!(int2(TRIANGLE, |x, _| MPoly::var(x).pow(2)), Ok(rat(1, 12)));
    }

    #[test]
    fn integral_over_a_square_with_a_hole() {
        // ∫∫_{[0,2]²} x = 4 minus ∫∫_{[0,1]²} x = 1/2.
        let src = "0 <= x & x <= 2 & 0 <= y & y <= 2 & !(0 <= x & x <= 1 & 0 <= y & y <= 1)";
        assert_eq!(int2(src, |x, _| MPoly::var(x)), Ok(rat(7, 2)));
    }

    #[test]
    fn average_shifts_with_the_set() {
        let src = "3 <= x & x <= 5 & 0 <= y & y <= 1";
        assert_eq!(avg2(src, |x, _| MPoly::var(x)), Ok(rat(4, 1)));
    }

    #[test]
    fn null_set_average_rejected() {
        assert_eq!(
            avg2("x = 1 & 0 <= y & y <= 1", |_, _| MPoly::one()),
            Err(AggError::Db("AVG over a null set".into()))
        );
    }

    #[test]
    fn centroid_of_the_standard_simplex_in_3d() {
        let mut vars = VarMap::new();
        let xs: Vec<Var> = ["x", "y", "z"].iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with("x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1", &mut vars).unwrap();
        for &v in &xs {
            assert_eq!(
                average(&f, &xs, &MPoly::var(v), &unlimited()),
                Ok(rat(1, 4))
            );
        }
    }

    /// Unbounded planar sets: the set decides, whatever the integrand, even
    /// one that vanishes on the unbounded part.
    #[test]
    fn unbounded_sets_are_errors() {
        for src in [
            "x >= 0 & 0 <= y & y <= 1",
            "x >= 0 & y >= 0 & y <= x",
            "0 <= y & y <= 1",
            "0 <= x & x <= 1 & y >= 0",
        ] {
            let ps: [fn(Var, Var) -> MPoly; 3] = [
                |_, _| MPoly::one(),
                |x, _| MPoly::var(x),
                |_, _| MPoly::zero(),
            ];
            for p in ps {
                assert_eq!(int2(src, p), Err(VolumeError::Unbounded), "{src}");
                assert_eq!(
                    avg2(src, p),
                    Err(AggError::Db("set has unbounded volume".into())),
                    "{src}"
                );
            }
        }
    }

    /// An integrand in a variable the set is not integrated over is an error
    /// that names it, on bounded and unbounded sets alike.
    #[test]
    fn a_stray_integrand_variable_is_named() {
        for src in [SQUARE, "x >= 0 & 0 <= y & y <= 1"] {
            let (f, x, y, mut vars) = setup(src);
            let z = vars.intern("z");
            let e = integral(&f, &[x, y], &MPoly::var(z), &unlimited()).unwrap_err();
            assert_eq!(e, VolumeError::StrayVariable(z));
            assert!(e.to_string().contains(&z.to_string()), "{e}");
            let e = average(&f, &[x, y], &MPoly::var(z), &unlimited()).unwrap_err();
            assert!(e.to_string().contains(&z.to_string()), "{e}");
        }
    }

    #[test]
    fn zero_variables_integrate_a_constant_at_a_point() {
        let three = MPoly::from_i64(3);
        assert_eq!(
            integral(&Formula::True, &[], &three, &unlimited()),
            Ok(rat(3, 1))
        );
        assert_eq!(
            integral(&Formula::False, &[], &three, &unlimited()),
            Ok(rat(0, 1))
        );
    }

    // ---- The oracle proptests ------------------------------------------

    /// A cell: per axis `(lo, width, drop)` — width 0 makes the cell
    /// lower-dimensional, `drop` 1 leaves out the lower bound and 2 the
    /// upper one (when allowed) — and extra rows `(coefficients, b, rel)`,
    /// where `rel` 7 is `=` (lower-dimensional again).
    type CellSpec = (Vec<(i64, i64, u8)>, Vec<(Vec<i64>, i64, u8)>);

    /// 1–`max` cells with up to `extras` extra rows each.
    fn cells(max: usize, extras: usize) -> impl Strategy<Value = Vec<CellSpec>> {
        let axis = (-2i64..=2, 0i64..=3, 0u8..12);
        let extra = (prop::collection::vec(-2i64..=2, 3), -2i64..=3, 0u8..8);
        let cell = (
            prop::collection::vec(axis, 3),
            prop::collection::vec(extra, 0..=extras),
        );
        prop::collection::vec(cell, 1..=max)
    }

    /// A polynomial of total degree ≤ 3 in up to three variables: terms
    /// `(coefficient, exponents)`, the largest exponent lowered until the
    /// degree fits.
    fn polys() -> impl Strategy<Value = Vec<(i64, Vec<u32>)>> {
        prop::collection::vec((-3i64..=3, prop::collection::vec(0u32..=3, 3)), 0..=4)
    }

    fn poly(vars: &[Var], terms: &[(i64, Vec<u32>)]) -> MPoly {
        let mut p = MPoly::zero();
        for (c, exps) in terms {
            let mut exps = exps[..vars.len()].to_vec();
            while exps.iter().sum::<u32>() > 3 {
                *exps.iter_mut().max().unwrap() -= 1;
            }
            let mut t = MPoly::from_i64(*c);
            for (&v, &e) in vars.iter().zip(&exps) {
                t = t * MPoly::var(v).pow(e);
            }
            p = p + t;
        }
        p
    }

    fn vars(n: usize) -> Vec<Var> {
        (0..n as u32).map(Var).collect()
    }

    /// A cell's formula over `vars`, bounds and right-hand sides divided by
    /// `den`; dropped bounds only when `unbounded`.
    fn cell_formula(vars: &[Var], (axes, extras): &CellSpec, den: i64, unbounded: bool) -> Formula {
        let le = |p: MPoly| Formula::Atom(Atom::new(p, Rel::Le));
        let mut cell = Formula::True;
        for (&v, &(lo, width, drop)) in vars.iter().zip(axes) {
            if !(unbounded && drop == 1) {
                cell = cell.and(le(MPoly::constant(rat(lo, den)) - MPoly::var(v)));
            }
            if !(unbounded && drop == 2) {
                cell = cell.and(le(MPoly::var(v) - MPoly::constant(rat(lo + width, den))));
            }
        }
        for (coeffs, b, rel) in extras {
            let mut p = MPoly::constant(rat(-b, den));
            for (&v, &c) in vars.iter().zip(coeffs) {
                p = p + MPoly::var(v).scale(&Rat::from(c));
            }
            let rel = [
                Rel::Le,
                Rel::Lt,
                Rel::Ge,
                Rel::Gt,
                Rel::Le,
                Rel::Ge,
                Rel::Neq,
                Rel::Eq,
            ][*rel as usize];
            cell = cell.and(Formula::Atom(Atom::new(p, rel)));
        }
        cell
    }

    fn union_formula(vars: &[Var], cells: &[CellSpec], den: i64, unbounded: bool) -> Formula {
        cells.iter().fold(Formula::False, |f, c| {
            f.or(cell_formula(vars, c, den, unbounded))
        })
    }

    /// `∫ p` over a union of boxes (per axis `(lo, hi)`, `None` for an
    /// infinite end): the boxes of positive volume cut space into a grid at
    /// their corners' coordinates, a grid box counts when its centre lies
    /// in one of them, and each counted box adds, per term, the product of
    /// 1-D antiderivatives. Unbounded when a box of positive volume has an
    /// infinite end.
    fn grid_integral(
        boxes: &[Vec<(Option<Rat>, Option<Rat>)>],
        vars: &[Var],
        p: &MPoly,
    ) -> Result<Rat, VolumeError> {
        let full: Vec<_> = boxes
            .iter()
            .filter(|b| {
                b.iter()
                    .all(|(l, h)| !matches!((l, h), (Some(l), Some(h)) if l >= h))
            })
            .collect();
        if full
            .iter()
            .flat_map(|b| b.iter())
            .any(|(l, h)| l.is_none() || h.is_none())
        {
            return Err(VolumeError::Unbounded);
        }
        let cuts: Vec<Vec<Rat>> = (0..vars.len())
            .map(|i| {
                let mut c: Vec<Rat> = full
                    .iter()
                    .flat_map(|b| [b[i].0.clone().unwrap(), b[i].1.clone().unwrap()])
                    .collect();
                c.sort();
                c.dedup();
                c
            })
            .collect();
        if cuts.iter().any(|c| c.len() < 2) {
            return Ok(Rat::zero());
        }
        let mut total = Rat::zero();
        let mut idx = vec![0usize; vars.len()];
        loop {
            let cell: Vec<(&Rat, &Rat)> = idx
                .iter()
                .zip(&cuts)
                .map(|(&k, c)| (&c[k], &c[k + 1]))
                .collect();
            let centre: Vec<Rat> = cell.iter().map(|(l, h)| l.midpoint(h)).collect();
            let inside = full.iter().any(|b| {
                b.iter()
                    .zip(&centre)
                    .all(|((l, h), c)| l.as_ref().unwrap() < c && c < h.as_ref().unwrap())
            });
            if inside {
                for (m, coeff) in p.terms() {
                    let mut term = coeff.clone();
                    for (v, (l, h)) in vars.iter().zip(&cell) {
                        let e = m.iter().find(|(w, _)| w == v).map_or(0, |&(_, e)| e) as i32;
                        term = term * (h.pow(e + 1) - l.pow(e + 1)) / Rat::from((e + 1) as i64);
                    }
                    total += term;
                }
            }
            // The next grid box, odometer order.
            let mut i = 0;
            loop {
                if i == idx.len() {
                    return Ok(total);
                }
                idx[i] += 1;
                if idx[i] + 1 < cuts[i].len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }

    /// `∫ x^α` over the standard simplex in `n` dimensions, by the Dirichlet
    /// formula `α₁!⋯αₙ! / (n + |α|)!`, summed over `p`'s terms.
    fn dirichlet(vars: &[Var], p: &MPoly) -> Rat {
        let fact = |k: u32| (1..=k as i64).fold(Rat::one(), |f, i| f * Rat::from(i));
        p.terms()
            .map(|(m, c)| {
                let alpha: u32 = m.iter().map(|&(_, e)| e).sum();
                let num = m.iter().fold(Rat::one(), |f, &(_, e)| f * fact(e));
                c * &num / fact(vars.len() as u32 + alpha)
            })
            .fold(Rat::zero(), |s, t| s + t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// (a) Bounded planar unions against the 2-D sweep of the paper's
        /// proof.
        #[test]
        fn integral_matches_the_2d_sweep(cells in cells(4, 2), terms in polys()) {
            let xy = vars(2);
            let f = union_formula(&xy, &cells, 2, false);
            let p = poly(&xy, &terms);
            prop_assert_eq!(
                integral(&f, &xy, &p, &unlimited()).map_err(AggError::from),
                sweep2d::integral(&f, xy[0], xy[1], &p)
            );
        }

        /// (b) Unions of boxes, bounded or not, in 1-D to 3-D against the
        /// grid of their corners.
        #[test]
        fn integral_matches_the_box_grid(n in 1usize..=3, cells in cells(4, 0), terms in polys()) {
            let vs = vars(n);
            let f = union_formula(&vs, &cells, 2, true);
            let boxes: Vec<Vec<(Option<Rat>, Option<Rat>)>> = cells
                .iter()
                .map(|(axes, _)| {
                    axes[..n]
                        .iter()
                        .map(|&(lo, w, drop)| {
                            ((drop != 1).then(|| rat(lo, 2)), (drop != 2).then(|| rat(lo + w, 2)))
                        })
                        .collect()
                })
                .collect();
            let p = poly(&vs, &terms);
            prop_assert_eq!(integral(&f, &vs, &p, &unlimited()), grid_integral(&boxes, &vs, &p));
        }

        /// (c) The standard simplex in 1-D to 3-D, as a union with up to
        /// three pieces of itself, against the Dirichlet integral.
        #[test]
        fn integral_matches_dirichlet_on_the_simplex(
            n in 1usize..=3,
            pieces in cells(3, 1),
            terms in polys(),
        ) {
            let vs = vars(n);
            let sum = vs.iter().fold(MPoly::zero(), |s, &v| s + MPoly::var(v));
            let simplex = vs
                .iter()
                .fold(Formula::Atom(Atom::new(sum - MPoly::one(), Rel::Le)), |f, &v| {
                    f.and(Formula::Atom(Atom::new(MPoly::var(v), Rel::Ge)))
                });
            let f = pieces.iter().fold(simplex.clone(), |f, c| {
                f.or(simplex.clone().and(cell_formula(&vs, c, 4, true)))
            });
            let p = poly(&vs, &terms);
            prop_assert_eq!(integral(&f, &vs, &p, &unlimited()), Ok(dirichlet(&vs, &p)));
        }

        /// (d) Arbitrary 3-D unions, unbounded and lower-dimensional ones
        /// included: ∫_{A∨B} = ∫_A + ∫_B − ∫_{A∧B}, or the same error.
        #[test]
        fn integral_is_additive_in_3d(a in cells(2, 2), b in cells(2, 2), terms in polys()) {
            let vs = vars(3);
            let fa = union_formula(&vs, &a, 1, true);
            let fb = union_formula(&vs, &b, 1, true);
            let p = poly(&vs, &terms);
            let int = |f: &Formula| integral(f, &vs, &p, &unlimited());
            let parts = || -> Result<Rat, VolumeError> {
                Ok(int(&fa)? + int(&fb)? - int(&fa.clone().and(fb.clone()))?)
            };
            prop_assert_eq!(int(&fa.clone().or(fb.clone())), parts());
        }
    }
}
