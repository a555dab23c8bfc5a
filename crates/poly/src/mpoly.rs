//! Sparse multivariate polynomials over ℚ.

use cqa_arith::Rat;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::upoly::UPoly;

/// A polynomial variable, identified by a small index.
///
/// The constraint-logic layer maintains the mapping from variable names to
/// indices; within `cqa-poly` variables are anonymous.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A monomial: sorted `(variable, exponent)` pairs with positive exponents.
type Monomial = Vec<(Var, u32)>;

fn mono_mul(a: &Monomial, b: &Monomial) -> Monomial {
    let mut out: Monomial = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A sparse multivariate polynomial with rational coefficients.
///
/// Invariant: the terms are strictly ascending by monomial and no stored
/// coefficient is zero, so the representation is canonical and derived
/// equality is mathematical equality. The derived `Hash` writes the length
/// and then each `(monomial, coefficient)` in ascending order: the stream an
/// ordered map of the same terms writes, which cache keys are built on.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct MPoly {
    terms: Vec<(Monomial, Rat)>,
}

/// Merges two term lists, negating `b`'s coefficients when `negate_b`.
fn merge(a: &[(Monomial, Rat)], b: &[(Monomial, Rat)], negate_b: bool) -> MPoly {
    let mut out: Vec<(Monomial, Rat)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    let b_coeff = |c: &Rat| if negate_b { -c } else { c.clone() };
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push((b[j].0.clone(), b_coeff(&b[j].1)));
                j += 1;
            }
            Ordering::Equal => {
                let s = if negate_b {
                    &a[i].1 - &b[j].1
                } else {
                    &a[i].1 + &b[j].1
                };
                if !s.is_zero() {
                    out.push((a[i].0.clone(), s));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend(b[j..].iter().map(|(m, c)| (m.clone(), b_coeff(c))));
    MPoly { terms: out }
}

impl MPoly {
    /// The zero polynomial.
    pub fn zero() -> MPoly {
        MPoly { terms: Vec::new() }
    }

    /// The constant one.
    pub fn one() -> MPoly {
        MPoly::constant(Rat::one())
    }

    /// A constant polynomial.
    pub fn constant(c: Rat) -> MPoly {
        if c.is_zero() {
            return MPoly::zero();
        }
        MPoly {
            terms: vec![(Vec::new(), c)],
        }
    }

    /// The polynomial `v`.
    pub fn var(v: Var) -> MPoly {
        MPoly {
            terms: vec![(vec![(v, 1)], Rat::one())],
        }
    }

    /// An integer constant.
    pub fn from_i64(c: i64) -> MPoly {
        MPoly::constant(Rat::from(c))
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the constant value if the polynomial is constant.
    pub fn as_constant(&self) -> Option<Rat> {
        match self.terms.as_slice() {
            [] => Some(Rat::zero()),
            [(m, c)] if m.is_empty() => Some(c.clone()),
            _ => None,
        }
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The set of variables occurring with non-zero exponent.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms
            .iter()
            .flat_map(|(m, _)| m.iter().map(|&(v, _)| v))
            .collect()
    }

    /// Degree in variable `v` (0 for polynomials not mentioning `v`,
    /// including the zero polynomial).
    pub fn degree_in(&self, v: Var) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.iter().find(|&&(w, _)| w == v).map_or(0, |&(_, e)| e))
            .max()
            .unwrap_or(0)
    }

    /// Total degree (`None` for zero).
    pub fn total_degree(&self) -> Option<u32> {
        self.terms
            .iter()
            .map(|(m, _)| m.iter().map(|&(_, e)| e).sum())
            .max()
    }

    fn add_term(&mut self, m: Monomial, c: Rat) {
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(k, _)| k.cmp(&m)) {
            Err(i) => self.terms.insert(i, (m, c)),
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: &Rat) -> MPoly {
        if s.is_zero() {
            return MPoly::zero();
        }
        MPoly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), c * s)).collect(),
        }
    }

    /// Integer power.
    pub fn pow(&self, exp: u32) -> MPoly {
        let mut acc = MPoly::one();
        for _ in 0..exp {
            acc = &acc * self;
        }
        acc
    }

    /// Full evaluation; every variable of the polynomial must be assigned.
    ///
    /// # Panics
    /// Panics if a variable is missing from `assignment`.
    pub fn eval(&self, assignment: &dyn Fn(Var) -> Rat) -> Rat {
        let mut acc = Rat::zero();
        for (m, c) in &self.terms {
            let mut t = c.clone();
            for &(v, e) in m {
                t = t * assignment(v).pow(e as i32);
            }
            acc += t;
        }
        acc
    }

    /// Evaluates with a slice of values indexed by variable number.
    pub fn eval_slice(&self, values: &[Rat]) -> Rat {
        self.eval(&|v: Var| values[v.0 as usize].clone())
    }

    /// Substitutes `v := value` (partial evaluation), returning a polynomial
    /// in the remaining variables.
    pub fn subst_rat(&self, v: Var, value: &Rat) -> MPoly {
        let mut out = MPoly::zero();
        for (m, c) in &self.terms {
            let mut coeff = c.clone();
            let mut rest: Monomial = Vec::with_capacity(m.len());
            for &(w, e) in m {
                if w == v {
                    coeff = coeff * value.pow(e as i32);
                } else {
                    rest.push((w, e));
                }
            }
            out.add_term(rest, coeff);
        }
        out
    }

    /// Substitutes `v := p` for a polynomial `p`.
    pub fn subst_poly(&self, v: Var, p: &MPoly) -> MPoly {
        let mut out = MPoly::zero();
        for (m, c) in &self.terms {
            let mut t = MPoly::constant(c.clone());
            for &(w, e) in m {
                if w == v {
                    t = &t * &p.pow(e);
                } else {
                    let mut mono = MPoly::zero();
                    mono.add_term(vec![(w, e)], Rat::one());
                    t = &t * &mono;
                }
            }
            out = &out + &t;
        }
        out
    }

    /// Partial derivative with respect to `v`.
    pub fn derivative(&self, v: Var) -> MPoly {
        let mut out = MPoly::zero();
        for (m, c) in &self.terms {
            if let Some(pos) = m.iter().position(|&(w, _)| w == v) {
                let e = m[pos].1;
                let mut rest = m.clone();
                if e == 1 {
                    rest.remove(pos);
                } else {
                    rest[pos].1 = e - 1;
                }
                out.add_term(rest, c * Rat::from(i64::from(e)));
            }
        }
        out
    }

    /// Views the polynomial as univariate in `v`: returns coefficients
    /// (polynomials in the other variables) in ascending degree, trimmed.
    pub fn as_univariate_in(&self, v: Var) -> Vec<MPoly> {
        let d = self.degree_in(v) as usize;
        let mut coeffs = vec![MPoly::zero(); d + 1];
        for (m, c) in &self.terms {
            let mut e = 0usize;
            let mut rest: Monomial = Vec::with_capacity(m.len());
            for &(w, k) in m {
                if w == v {
                    e = k as usize;
                } else {
                    rest.push((w, k));
                }
            }
            coeffs[e].add_term(rest, c.clone());
        }
        while coeffs.last().is_some_and(MPoly::is_zero) && coeffs.len() > 1 {
            coeffs.pop();
        }
        if coeffs.len() == 1 && coeffs[0].is_zero() {
            coeffs.clear();
        }
        coeffs
    }

    /// Rebuilds a polynomial from univariate-in-`v` coefficients.
    pub fn from_univariate_in(v: Var, coeffs: &[MPoly]) -> MPoly {
        let mut out = MPoly::zero();
        let xv = MPoly::var(v);
        for (e, c) in coeffs.iter().enumerate() {
            out = &out + &(c * &xv.pow(e as u32));
        }
        out
    }

    /// Converts to a dense [`UPoly`] if the polynomial involves no variable
    /// other than `v`.
    pub fn to_upoly(&self, v: Var) -> Option<UPoly> {
        let coeffs = self.as_univariate_in(v);
        let mut out = Vec::with_capacity(coeffs.len());
        for c in coeffs {
            out.push(c.as_constant()?);
        }
        Some(UPoly::from_coeffs(out))
    }

    /// Builds from a dense univariate polynomial in variable `v`.
    pub fn from_upoly(v: Var, p: &UPoly) -> MPoly {
        let mut out = MPoly::zero();
        for (e, c) in p.coeffs().iter().enumerate() {
            if e == 0 {
                out.add_term(Vec::new(), c.clone());
            } else {
                out.add_term(vec![(v, e as u32)], c.clone());
            }
        }
        out
    }

    /// Iterates over `(monomial, coefficient)` pairs in ascending monomial
    /// order; `next_back` is the leading term.
    pub fn terms(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&[(Var, u32)], &Rat)> + ExactSizeIterator {
        self.terms.iter().map(|(m, c)| (m.as_slice(), c))
    }

    /// `true` iff the polynomial has degree ≤ 1 in every variable jointly
    /// (i.e. is an affine/linear expression).
    pub fn is_affine(&self) -> bool {
        self.terms
            .iter()
            .all(|(m, _)| m.iter().map(|&(_, e)| e).sum::<u32>() <= 1)
    }
}

impl Neg for &MPoly {
    type Output = MPoly;
    fn neg(self) -> MPoly {
        MPoly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect(),
        }
    }
}
impl Neg for MPoly {
    type Output = MPoly;
    fn neg(self) -> MPoly {
        -&self
    }
}

impl Add for &MPoly {
    type Output = MPoly;
    fn add(self, other: &MPoly) -> MPoly {
        merge(&self.terms, &other.terms, false)
    }
}

impl Sub for &MPoly {
    type Output = MPoly;
    fn sub(self, other: &MPoly) -> MPoly {
        merge(&self.terms, &other.terms, true)
    }
}

impl Mul for &MPoly {
    type Output = MPoly;
    fn mul(self, other: &MPoly) -> MPoly {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((mono_mul(ma, mb), ca * cb));
            }
        }
        // Sorted, equal monomials are adjacent: sum them and drop what
        // cancels. Exact arithmetic makes the sums independent of order.
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += &next.1;
            }
            same
        });
        terms.retain(|(_, c)| !c.is_zero());
        MPoly { terms }
    }
}

macro_rules! forward_mpoly_binop {
    ($tr:ident, $m:ident) => {
        impl $tr for MPoly {
            type Output = MPoly;
            fn $m(self, other: MPoly) -> MPoly {
                (&self).$m(&other)
            }
        }
        impl $tr<&MPoly> for MPoly {
            type Output = MPoly;
            fn $m(self, other: &MPoly) -> MPoly {
                (&self).$m(other)
            }
        }
        impl $tr<MPoly> for &MPoly {
            type Output = MPoly;
            fn $m(self, other: MPoly) -> MPoly {
                self.$m(&other)
            }
        }
    };
}
forward_mpoly_binop!(Add, add);
forward_mpoly_binop!(Sub, sub);
forward_mpoly_binop!(Mul, mul);

impl fmt::Display for MPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut first = true;
        // Display highest monomials first for readability.
        for (m, c) in self.terms.iter().rev() {
            if !first {
                f.write_str(if c.is_negative() { " - " } else { " + " })?;
            } else if c.is_negative() {
                f.write_str("-")?;
            }
            first = false;
            let a = c.abs();
            if m.is_empty() {
                write!(f, "{a}")?;
            } else {
                if !a.is_one() {
                    write!(f, "{a}*")?;
                }
                let mut firstv = true;
                for &(v, e) in m {
                    if !firstv {
                        f.write_str("*")?;
                    }
                    firstv = false;
                    if e == 1 {
                        write!(f, "{v}")?;
                    } else {
                        write!(f, "{v}^{e}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    fn x() -> MPoly {
        MPoly::var(Var(0))
    }
    fn y() -> MPoly {
        MPoly::var(Var(1))
    }

    #[test]
    fn ring_ops() {
        let p = &x() + &y(); // x + y
        let q = &x() - &y(); // x - y
        let prod = &p * &q; // x^2 - y^2
        let expect = &x().pow(2) - &y().pow(2);
        assert_eq!(prod, expect);
        assert_eq!(&p + &(-&p), MPoly::zero());
    }

    #[test]
    fn canonical_zero() {
        let p = &x() - &x();
        assert!(p.is_zero());
        assert_eq!(p.num_terms(), 0);
    }

    #[test]
    fn eval() {
        // 2x^2y + 3
        let p = &MPoly::from_i64(2) * &(&x().pow(2) * &y()) + MPoly::from_i64(3);
        let v = p.eval_slice(&[rat(2, 1), rat(5, 1)]);
        assert_eq!(v, rat(43, 1));
    }

    #[test]
    fn subst_rat_partial() {
        // x*y + y^2 with y := 3 -> 3x + 9
        let p = &(&x() * &y()) + &y().pow(2);
        let q = p.subst_rat(Var(1), &rat(3, 1));
        let expect = &x().scale(&rat(3, 1)) + &MPoly::from_i64(9);
        assert_eq!(q, expect);
    }

    #[test]
    fn subst_poly() {
        // x^2 with x := y+1 -> y^2 + 2y + 1
        let p = x().pow(2);
        let q = p.subst_poly(Var(0), &(&y() + &MPoly::one()));
        let expect = &(&y().pow(2) + &y().scale(&rat(2, 1))) + &MPoly::one();
        assert_eq!(q, expect);
    }

    #[test]
    fn degrees_and_vars() {
        let p = &(&x().pow(3) * &y()) + &y().pow(2);
        assert_eq!(p.degree_in(Var(0)), 3);
        assert_eq!(p.degree_in(Var(1)), 2);
        assert_eq!(p.total_degree(), Some(4));
        assert_eq!(p.vars().len(), 2);
        assert!(MPoly::zero().total_degree().is_none());
    }

    #[test]
    fn univariate_view_roundtrip() {
        // y^2*x^2 + (y+1)*x + 7, viewed in x.
        let p = &(&(&y().pow(2) * &x().pow(2)) + &(&(&y() + &MPoly::one()) * &x()))
            + &MPoly::from_i64(7);
        let coeffs = p.as_univariate_in(Var(0));
        assert_eq!(coeffs.len(), 3);
        assert_eq!(coeffs[0], MPoly::from_i64(7));
        assert_eq!(coeffs[1], &y() + &MPoly::one());
        assert_eq!(coeffs[2], y().pow(2));
        assert_eq!(MPoly::from_univariate_in(Var(0), &coeffs), p);
    }

    #[test]
    fn derivative() {
        // d/dx (x^2 y + x) = 2xy + 1
        let p = &(&x().pow(2) * &y()) + &x();
        let d = p.derivative(Var(0));
        let expect = &(&x() * &y()).scale(&rat(2, 1)) + &MPoly::one();
        assert_eq!(d, expect);
        assert_eq!(MPoly::one().derivative(Var(0)), MPoly::zero());
    }

    #[test]
    fn upoly_conversion() {
        let p = &x().pow(2) + &MPoly::from_i64(-2);
        let u = p.to_upoly(Var(0)).unwrap();
        assert_eq!(u, UPoly::from_ints(&[-2, 0, 1]));
        assert_eq!(MPoly::from_upoly(Var(0), &u), p);
        // Mentions y: not univariate in x.
        assert!((&x() + &y()).to_upoly(Var(0)).is_none());
    }

    #[test]
    fn affine_detection() {
        assert!((&x() + &y().scale(&rat(3, 1))).is_affine());
        assert!(MPoly::from_i64(5).is_affine());
        assert!(!x().pow(2).is_affine());
        assert!(!(&x() * &y()).is_affine());
    }

    #[test]
    fn display() {
        let p = &(&x().pow(2) - &(&x() * &y()).scale(&rat(2, 1))) + &MPoly::from_i64(1);
        let s = p.to_string();
        assert!(s.contains("x0^2"));
        assert!(s.contains("2*x0*x1"));
    }
}
