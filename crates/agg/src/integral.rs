//! Spatial aggregates beyond volume: exact integrals and averages of
//! polynomials over two-dimensional semi-linear sets.
//!
//! Section 1 of the paper motivates extending "standard aggregates such as
//! AVG … and ask[ing] for the *average* value of a polynomial over a
//! spatial object". For a semi-linear `S ⊆ ℝ²` and a polynomial
//! `p(x, y)`, the same sweep that proves Theorem 3 computes
//! `∫∫_S p dy dx` exactly:
//!
//! 1. the inner integral `h(x) = ∫_{S_x} p(x, y) dy` is a sum over the
//!    section's maximal intervals of exact univariate antiderivatives;
//! 2. between breakpoints of the arrangement, the section endpoints are
//!    affine in `x`, so `h` is a *polynomial* in `x` of degree at most
//!    `deg(p) + 1` on each piece;
//! 3. each piece is integrated exactly by sampling `h` at `deg + 2`
//!    rational nodes, interpolating (Lagrange, exact rational arithmetic),
//!    and integrating the interpolant.
//!
//! `AVG(p over S) = ∫∫_S p / VOL(S)` follows. Everything is exact — no
//! quadrature error, because polynomial interpolation of a polynomial *is*
//! the polynomial.

use crate::lang::AggError;
use crate::volume::volume_by_sweep_2d;
use cqa_arith::Rat;
use cqa_core::decompose_1d;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::{MPoly, RealAlg, UPoly, Var};

/// Exact `∫∫_S p(x, y) dy dx` for the semi-linear set `S = {(x,y) : f}`.
///
/// `f` must be quantifier-free linear with bounded solution set; `p` may be
/// any polynomial in `x` and `y`.
pub fn integral_over_2d(f: &Formula, x: Var, y: Var, p: &MPoly) -> Result<Rat, AggError> {
    if !f.is_relation_free() || !f.is_quantifier_free() {
        return Err(AggError::Db(
            "integral needs a quantifier-free formula".into(),
        ));
    }
    // Degree of h(x) on each piece: the antiderivative in y has degree
    // deg_y(p) + 1; substituting affine-in-x endpoints and adding the
    // x-dependence of p gives total degree ≤ deg(p) + 1.
    let degree_bound = (p.total_degree().unwrap_or(0) + 1) as usize;

    // Breakpoints: reuse the arrangement analysis of the volume sweep by
    // collecting candidate x-values the same way.
    let breaks = sweep_breakpoints(f, x, y)?;
    if breaks.len() < 2 {
        return Ok(Rat::zero());
    }

    let mut total = Rat::zero();
    for w in breaks.windows(2) {
        let (l, u) = (&w[0], &w[1]);
        if l == u {
            continue;
        }
        // Sample h at degree_bound + 1 distinct nodes inside (l, u).
        let n_nodes = degree_bound + 1;
        let width = u - l;
        let mut xs: Vec<Rat> = Vec::with_capacity(n_nodes);
        let mut hs: Vec<Rat> = Vec::with_capacity(n_nodes);
        for k in 0..n_nodes {
            // Strictly interior nodes: l + width·(k+1)/(n+1).
            let t = l + &width * Rat::new(((k + 1) as i64).into(), ((n_nodes + 1) as i64).into());
            let hval = section_integral(f, x, y, p, &t)?;
            xs.push(t);
            hs.push(hval);
        }
        let interp = lagrange_interpolate(&xs, &hs);
        total += interp.integrate_between(l, u);
    }
    Ok(total)
}

/// Exact `AVG(p over S) = ∫∫_S p / VOL(S)`. Errors on null sets.
pub fn average_over_2d(f: &Formula, x: Var, y: Var, p: &MPoly) -> Result<Rat, AggError> {
    let vol = volume_by_sweep_2d(f, x, y)?;
    if vol.is_zero() {
        return Err(AggError::Db("AVG over a null set".into()));
    }
    Ok(integral_over_2d(f, x, y, p)? / vol)
}

/// The inner integral `∫_{S_{x0}} p(x0, y) dy` (sections must be bounded).
fn section_integral(f: &Formula, x: Var, y: Var, p: &MPoly, x0: &Rat) -> Result<Rat, AggError> {
    let sec = f.subst_rat(x, x0);
    let ivs = decompose_1d(&sec, y).ok_or(AggError::NotOneDimensional)?;
    let integrand: UPoly = p
        .subst_rat(x, x0)
        .to_upoly(y)
        .ok_or(AggError::NotOneDimensional)?;
    let mut total = Rat::zero();
    for iv in ivs {
        if iv.is_point() {
            continue;
        }
        let ends = iv.finite_endpoints();
        if ends.len() != 2 {
            return Err(AggError::Db("unbounded section".into()));
        }
        let (lo, hi) = (rational_of(&ends[0])?, rational_of(&ends[1])?);
        total += integrand.integrate_between(&lo, &hi);
    }
    Ok(total)
}

fn rational_of(a: &RealAlg) -> Result<Rat, AggError> {
    a.as_rational().cloned().ok_or(AggError::IrrationalEndpoint)
}

/// Breakpoint candidates of the sweep: support endpoints, vertical lines,
/// and pairwise line intersections (same analysis as the volume sweep).
fn sweep_breakpoints(f: &Formula, x: Var, y: Var) -> Result<Vec<Rat>, AggError> {
    let shadow = Formula::exists(vec![y], f.clone());
    let proj = cqa_qe::fourier_motzkin(&shadow, &EvalBudget::unlimited())?;
    let support = decompose_1d(&proj, x).ok_or(AggError::NotOneDimensional)?;
    let mut breaks: Vec<Rat> = Vec::new();
    let mut push = |r: Rat| {
        if !breaks.contains(&r) {
            breaks.push(r);
        }
    };
    for iv in &support {
        for e in iv.finite_endpoints() {
            push(rational_of(&e)?);
        }
    }
    let mut lines: Vec<(Rat, Rat, Rat)> = Vec::new();
    let mut bad = false;
    f.visit(&mut |g| {
        if let Formula::Atom(at) = g {
            let mut a = Rat::zero();
            let mut b = Rat::zero();
            let mut c = Rat::zero();
            for (m, coeff) in at.poly.terms() {
                match m {
                    [] => c = coeff.clone(),
                    [(v, 1)] if *v == x => a = coeff.clone(),
                    [(v, 1)] if *v == y => b = coeff.clone(),
                    _ => bad = true,
                }
            }
            lines.push((a, b, c));
        }
    });
    if bad {
        return Err(AggError::Db(
            "integral needs linear atoms over (x, y)".into(),
        ));
    }
    for (i, (a1, b1, c1)) in lines.iter().enumerate() {
        if b1.is_zero() {
            if !a1.is_zero() {
                push(-(c1 / a1));
            }
            continue;
        }
        for (a2, b2, c2) in &lines[i + 1..] {
            if b2.is_zero() {
                continue;
            }
            let denom = a1 * b2 - a2 * b1;
            if !denom.is_zero() {
                push((b1 * c2 - b2 * c1) / &denom);
            }
        }
    }
    breaks.sort();
    Ok(breaks)
}

/// Exact Lagrange interpolation through `(xs[i], ys[i])`.
fn lagrange_interpolate(xs: &[Rat], ys: &[Rat]) -> UPoly {
    let n = xs.len();
    let mut acc = UPoly::zero();
    for i in 0..n {
        // Basis polynomial Π_{j≠i} (X - xs[j]) / (xs[i] - xs[j]).
        let mut basis = UPoly::one();
        let mut denom = Rat::one();
        for j in 0..n {
            if j == i {
                continue;
            }
            basis = &basis * &UPoly::from_coeffs(vec![-xs[j].clone(), Rat::one()]);
            denom = denom * (&xs[i] - &xs[j]);
        }
        acc = &acc + &basis.scale(&(&ys[i] / &denom));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::{parse_formula_with, VarMap};

    fn setup(src: &str) -> (Formula, Var, Var, VarMap) {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(src, &mut vars).unwrap();
        (f, x, y, vars)
    }

    #[test]
    fn integral_of_one_is_area() {
        let (f, x, y, _) = setup("x >= 0 & y >= 0 & x + y <= 1");
        let one = MPoly::one();
        assert_eq!(integral_over_2d(&f, x, y, &one).unwrap(), rat(1, 2));
    }

    #[test]
    fn integral_of_x_over_unit_square() {
        // ∫∫_{[0,1]²} x = 1/2; of x·y = 1/4; of x² = 1/3.
        let (f, x, y, _) = setup("0 <= x & x <= 1 & 0 <= y & y <= 1");
        assert_eq!(
            integral_over_2d(&f, x, y, &MPoly::var(x)).unwrap(),
            rat(1, 2)
        );
        let xy = MPoly::var(x) * MPoly::var(y);
        assert_eq!(integral_over_2d(&f, x, y, &xy).unwrap(), rat(1, 4));
        assert_eq!(
            integral_over_2d(&f, x, y, &MPoly::var(x).pow(2)).unwrap(),
            rat(1, 3)
        );
    }

    #[test]
    fn centroid_of_triangle() {
        // Centroid of {x,y ≥ 0, x+y ≤ 1} is (1/3, 1/3).
        let (f, x, y, _) = setup("x >= 0 & y >= 0 & x + y <= 1");
        assert_eq!(
            average_over_2d(&f, x, y, &MPoly::var(x)).unwrap(),
            rat(1, 3)
        );
        assert_eq!(
            average_over_2d(&f, x, y, &MPoly::var(y)).unwrap(),
            rat(1, 3)
        );
    }

    #[test]
    fn second_moment_of_triangle() {
        // ∫∫_T x² dy dx over the unit right triangle = ∫₀¹ x²(1−x) dx = 1/12.
        let (f, x, y, _) = setup("x >= 0 & y >= 0 & x + y <= 1");
        assert_eq!(
            integral_over_2d(&f, x, y, &MPoly::var(x).pow(2)).unwrap(),
            rat(1, 12)
        );
    }

    #[test]
    fn integral_over_union_with_hole() {
        // [0,2]² minus [0,1]²: ∫∫ x dA = ∫∫_{big} − ∫∫_{small} = 4·1 − 1/2·...
        // ∫∫_{[0,2]²} x = 2·(2²/2) = 4; ∫∫_{[0,1]²} x = 1/2 → 7/2.
        let (f, x, y, _) =
            setup("0 <= x & x <= 2 & 0 <= y & y <= 2 & !(0 <= x & x <= 1 & 0 <= y & y <= 1)");
        assert_eq!(
            integral_over_2d(&f, x, y, &MPoly::var(x)).unwrap(),
            rat(7, 2)
        );
    }

    #[test]
    fn average_shifts_with_set() {
        // Average of x over [3,5]×[0,1] is 4.
        let (f, x, y, _) = setup("3 <= x & x <= 5 & 0 <= y & y <= 1");
        assert_eq!(
            average_over_2d(&f, x, y, &MPoly::var(x)).unwrap(),
            rat(4, 1)
        );
    }

    #[test]
    fn null_set_average_rejected() {
        let (f, x, y, _) = setup("x = 1 & 0 <= y & y <= 1");
        assert!(average_over_2d(&f, x, y, &MPoly::one()).is_err());
    }

    #[test]
    fn polynomial_of_both_variables() {
        // ∫∫_{[0,1]²} (x + y)² = ∫∫ x² + 2xy + y² = 1/3 + 1/2 + 1/3 = 7/6.
        let (f, x, y, _) = setup("0 <= x & x <= 1 & 0 <= y & y <= 1");
        let s = MPoly::var(x) + MPoly::var(y);
        assert_eq!(integral_over_2d(&f, x, y, &s.pow(2)).unwrap(), rat(7, 6));
    }

    #[test]
    fn lagrange_is_exact() {
        // Interpolate y = x² − x + 2 through 3 nodes and recover it.
        let xs = [rat(0, 1), rat(1, 2), rat(2, 1)];
        let p = UPoly::from_ints(&[2, -1, 1]);
        let ys: Vec<Rat> = xs.iter().map(|x| p.eval(x)).collect();
        assert_eq!(lagrange_interpolate(&xs, &ys), p);
    }
}
