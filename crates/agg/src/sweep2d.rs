//! The 2-D sweep from the proof of the paper's Theorem 3 (§6.1), compiled
//! only for tests as an oracle for `cqa_geom::integral`: it shares nothing
//! with that sweep but the theorem. The support comes from Fourier–Motzkin,
//! every section from `decompose_1d`, and every piece is rebuilt by
//! Lagrange interpolation.
//!
//! 1. the inner integral `h(x) = ∫_{S_x} p(x, y) dy` is a sum over the
//!    section's maximal intervals of exact univariate antiderivatives;
//! 2. between breakpoints of the arrangement the section endpoints are
//!    affine in `x`, so `h` is a polynomial in `x` of degree at most
//!    `deg(p) + 1` on each piece;
//! 3. each piece is integrated exactly by sampling `h` at `deg + 2`
//!    rational nodes, interpolating, and integrating the interpolant.
//!
//! Its breakpoints are only the support's *finite* endpoints, so an
//! unbounded support yields no slab and the answer 0: the oracle is only
//! asked about bounded sets.

use crate::lang::AggError;
use cqa_arith::Rat;
use cqa_core::decompose_1d;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::{MPoly, RealAlg, UPoly, Var};

/// Exact `∫∫_S p(x, y) dy dx` for the bounded semi-linear set
/// `S = {(x,y) : f}`, `f` quantifier-free linear.
pub(crate) fn integral(f: &Formula, x: Var, y: Var, p: &MPoly) -> Result<Rat, AggError> {
    if !f.is_relation_free() || !f.is_quantifier_free() {
        return Err(AggError::Db("sweep needs a quantifier-free formula".into()));
    }
    let n_nodes = p.total_degree().unwrap_or(0) as usize + 2;
    let breaks = sweep_breakpoints(f, x, y)?;
    let mut total = Rat::zero();
    for w in breaks.windows(2) {
        let (l, u) = (&w[0], &w[1]);
        // Strictly interior nodes l + width·(k+1)/(n+1).
        let width = u - l;
        let mut xs: Vec<Rat> = Vec::with_capacity(n_nodes);
        let mut hs: Vec<Rat> = Vec::with_capacity(n_nodes);
        for k in 0..n_nodes {
            let t = l + &width * Rat::new(((k + 1) as i64).into(), ((n_nodes + 1) as i64).into());
            hs.push(section_integral(f, x, y, p, &t)?);
            xs.push(t);
        }
        total += lagrange_interpolate(&xs, &hs).integrate_between(l, u);
    }
    Ok(total)
}

/// The sweep's breakpoint candidates, sorted: the finite endpoints of the
/// support, the x-coordinates of intersections of constraint boundary
/// lines and the x-values of vertical boundary lines. Empty when the
/// support is.
fn sweep_breakpoints(f: &Formula, x: Var, y: Var) -> Result<Vec<Rat>, AggError> {
    let shadow = Formula::exists(vec![y], f.clone());
    let proj = cqa_qe::fourier_motzkin(&shadow, &EvalBudget::unlimited())?;
    let support = decompose_1d(&proj, x).ok_or(AggError::NotOneDimensional)?;
    if support.is_empty() {
        return Ok(Vec::new());
    }
    let mut breaks: Vec<Rat> = Vec::new();
    for iv in &support {
        for e in iv.finite_endpoints() {
            breaks.push(rational_of(&e)?);
        }
    }
    // Boundary lines a·x + b·y + c = 0 from the atoms.
    let mut lines: Vec<(Rat, Rat, Rat)> = Vec::new();
    let mut bad = false;
    f.visit(&mut |g| {
        if let Formula::Atom(at) = g {
            let (mut a, mut b, mut c) = (Rat::zero(), Rat::zero(), Rat::zero());
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
        return Err(AggError::Db("sweep needs linear atoms over (x, y)".into()));
    }
    for (i, (a1, b1, c1)) in lines.iter().enumerate() {
        if b1.is_zero() {
            if !a1.is_zero() {
                breaks.push(-(c1 / a1)); // vertical line
            }
            continue;
        }
        for (a2, b2, c2) in &lines[i + 1..] {
            let denom = a1 * b2 - a2 * b1;
            if !b2.is_zero() && !denom.is_zero() {
                breaks.push((b1 * c2 - b2 * c1) / &denom);
            }
        }
    }
    breaks.sort();
    breaks.dedup();
    Ok(breaks)
}

/// The inner integral `∫_{S_{x0}} p(x0, y) dy`; the section must be
/// bounded.
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

/// Exact Lagrange interpolation through `(xs[i], ys[i])`.
fn lagrange_interpolate(xs: &[Rat], ys: &[Rat]) -> UPoly {
    let mut acc = UPoly::zero();
    for (i, xi) in xs.iter().enumerate() {
        // Basis polynomial Π_{j≠i} (X − xs[j]) / (xs[i] − xs[j]).
        let mut basis = UPoly::one();
        let mut denom = Rat::one();
        for (j, xj) in xs.iter().enumerate() {
            if j != i {
                basis = &basis * &UPoly::from_coeffs(vec![-xj.clone(), Rat::one()]);
                denom = denom * (xi - xj);
            }
        }
        acc = &acc + &basis.scale(&(&ys[i] / &denom));
    }
    acc
}

#[test]
fn lagrange_is_exact() {
    // Interpolate y = x² − x + 2 through 3 nodes and recover it.
    use cqa_arith::rat;
    let xs = [rat(0, 1), rat(1, 2), rat(2, 1)];
    let p = UPoly::from_ints(&[2, -1, 1]);
    let ys: Vec<Rat> = xs.iter().map(|x| p.eval(x)).collect();
    assert_eq!(lagrange_interpolate(&xs, &ys), p);
}
