//! Random polynomials and points over `x, y, z` for the compiled kernel:
//! integer and extreme coefficients (`m/d` for odd `d`, `m·3^±700`),
//! dyadic points, and points as large as `2¹⁰⁰⁰` or as small as `2⁻¹⁰⁰⁰`.

use cqa_arith::{rat, Rat};
use cqa_poly::{MPoly, Var};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

/// The three variables every polynomial and point here ranges over.
pub const VARS: [Var; 3] = [Var(0), Var(1), Var(2)];

/// A polynomial from `(coefficient, exponents-per-variable)` terms.
fn poly_from(terms: impl IntoIterator<Item = (Rat, [u8; 3])>) -> MPoly {
    let mut p = MPoly::zero();
    for (c, es) in terms {
        let mut t = MPoly::constant(c);
        for (v, e) in VARS.iter().zip(es) {
            if e > 0 {
                t = &t * &MPoly::var(*v).pow(e as u32);
            }
        }
        p = &p + &t;
    }
    p
}

/// A coefficient of one of four kinds, equally likely: `m/d` with
/// `d ∈ {3, 5, 7, 25, 49}` (inexact in `f64`), `m·3⁻⁷⁰⁰` (its `f64` image
/// is `0.0`), `m·3⁷⁰⁰` (past `f64::MAX`, so its error bound is `∞`), or an
/// integer `m`.
pub fn extreme_coeff() -> BoxedStrategy<Rat> {
    (-255i64..=255, 0usize..5, 0u8..4)
        .prop_map(|(m, d, kind)| match kind {
            0 => rat(m, [3, 5, 7, 25, 49][d]),
            1 => &rat(m, 1) * &rat(3, 1).pow(-700),
            2 => &rat(m, 1) * &rat(3, 1).pow(700),
            _ => rat(m, 1),
        })
        .boxed()
}

/// An integer coefficient `m`, `|m| ≤ 255`.
pub fn int_coeff() -> BoxedStrategy<Rat> {
    (-255i64..=255).prop_map(|m| rat(m, 1)).boxed()
}

/// The affine polynomial `c₀ + c₁x + c₂y + c₃z` with `coeff` coefficients.
pub fn linear_poly(coeff: BoxedStrategy<Rat>) -> BoxedStrategy<MPoly> {
    let units = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]];
    vec(coeff, 4..=4)
        .prop_map(move |cs| poly_from(cs.into_iter().zip(units)))
        .boxed()
}

/// A polynomial with `coeff` coefficients: up to 4 terms, per-variable
/// degree ≤ 2 (total degree ≤ 6).
pub fn poly(coeff: BoxedStrategy<Rat>) -> BoxedStrategy<MPoly> {
    vec((coeff, (0u8..=2, 0u8..=2, 0u8..=2)), 1..=4)
        .prop_map(|ts| poly_from(ts.into_iter().map(|(c, (a, b, d))| (c, [a, b, d]))))
        .boxed()
}

/// A dyadic point: each coordinate `m / 2ˢ`, `|m| ≤ 255`, `s ≤ 4`.
/// Dyadics of this size convert to `f64` exactly, so the batch columns
/// carry zero conversion error and any disagreement is a kernel bug.
pub fn dyadic_point() -> BoxedStrategy<Vec<Rat>> {
    vec((-255i64..=255, 0u32..=4), 3..=3)
        .prop_map(|cs| cs.into_iter().map(|(m, s)| rat(m, 1i64 << s)).collect())
        .boxed()
}

/// A point whose coordinates are, equally likely, `±2¹⁰⁰⁰`, `±2⁻¹⁰⁰⁰`,
/// zero, or a small dyadic as in [`dyadic_point`]. Every one converts to
/// `f64` exactly, so the columns stay exact and the uniform bound is the
/// regime under test.
pub fn extreme_point() -> BoxedStrategy<Vec<Rat>> {
    let coord = (-255i64..=255, 0u32..=4, 0u8..4).prop_map(|(m, s, kind)| {
        let sign = rat(if m < 0 { -1 } else { 1 }, 1);
        match kind {
            0 => &sign * &rat(2, 1).pow(1000),
            1 => &sign * &rat(2, 1).pow(-1000),
            2 => rat(0, 1),
            _ => rat(m, 1i64 << s),
        }
    });
    vec(coord, 3..=3).boxed()
}

/// A dyadic coordinate from `rng`: a unit draw `m / 2⁵³` (the Monte Carlo
/// case) or, when `wild`, as often as not zero, a negative draw or
/// `±2^±600` (whose squares overflow to `∞` or underflow to `0`).
pub fn dyadic(rng: &mut TestRng, wild: bool) -> Rat {
    let unit = &rat((rng.next_u64() >> 11) as i64, 1) * &rat(2, 1).pow(-53);
    let sign = rat(1 - 2 * (rng.below(2) as i64), 1);
    match if wild { rng.below(8) } else { 7 } {
        0 => rat(0, 1),
        k @ 1..=2 => &sign * &rat(2, 1).pow(if k == 1 { 600 } else { -600 }),
        3 => -unit,
        _ => unit,
    }
}
