//! Exact rational numbers (always-normalized fractions).

use crate::int::{Int, ParseIntError};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`
/// (with `0` represented as `0/1`). Every constructor enforces this, so
/// structural equality coincides with numeric equality.
#[derive(Clone, Debug)]
pub struct Rat {
    num: Int,
    den: Int,
}

impl Rat {
    /// Constructs `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: Int, den: Int) -> Rat {
        assert!(!den.is_zero(), "Rat with zero denominator");
        if num.is_zero() {
            return Rat::zero();
        }
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        let g = num.gcd(&den);
        if !g.is_one() {
            num = num / &g;
            den = den / &g;
        }
        Rat { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Rat {
        Rat {
            num: Int::zero(),
            den: Int::one(),
        }
    }

    /// The rational one.
    pub fn one() -> Rat {
        Rat {
            num: Int::one(),
            den: Int::one(),
        }
    }

    /// A rational from an integer.
    pub fn from_int(n: Int) -> Rat {
        Rat {
            num: n,
            den: Int::one(),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// `true` iff zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// `true` iff one.
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// `true` iff an integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse. `num/den` is already in lowest terms, so only
    /// the sign moves to the new numerator: no gcd.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        let (num, den) = if self.num.is_negative() {
            (-&self.den, -&self.num)
        } else {
            (self.den.clone(), self.num.clone())
        };
        Rat { num, den }
    }

    /// Integer power (negative exponents invert; panics on `0^-n`).
    pub fn pow(&self, exp: i32) -> Rat {
        if exp == 0 {
            return Rat::one();
        }
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let e = exp.unsigned_abs();
        Rat {
            num: base.num.pow(e),
            den: base.den.pow(e),
        }
    }

    /// Floor: largest integer `≤ self`.
    pub fn floor(&self) -> Int {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - Int::one()
        } else {
            q
        }
    }

    /// Ceiling: smallest integer `≥ self`.
    pub fn ceil(&self) -> Int {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + Int::one()
        } else {
            q
        }
    }

    /// Approximate conversion to `f64`.
    ///
    /// Exact when numerator and denominator both fit in 53 bits; otherwise
    /// the top 64 bits of each are used, giving a relative error below 2⁻⁶³.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let nb = self.num.bits();
        let db = self.den.bits();
        if nb <= 53 && db <= 53 {
            return self.num.to_f64() / self.den.to_f64();
        }
        // Scale each side down to ~63 significant bits independently and
        // re-apply the lost binary exponent afterwards.
        let ns = nb.saturating_sub(63) as u32;
        let ds = db.saturating_sub(63) as u32;
        let base = scale_down(&self.num, ns).to_f64() / scale_down(&self.den, ds).to_f64();
        base * 2f64.powi(ns as i32 - ds as i32)
    }

    /// Rational from an `f64` that must be finite (exact binary expansion).
    pub fn from_f64(v: f64) -> Option<Rat> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rat::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, e2) = if exp == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let m = Int::from(mantissa) * Int::from(sign);
        Some(if e2 >= 0 {
            Rat::from_int(m.shl(e2 as u32))
        } else {
            Rat::new(m, Int::one().shl((-e2) as u32))
        })
    }

    /// The midpoint `(self + other) / 2`.
    pub fn midpoint(&self, other: &Rat) -> Rat {
        (self + other) / Rat::from_int(Int::from(2i64))
    }

    /// Minimum of two rationals by value.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals by value.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

fn scale_down(v: &Int, shift: u32) -> Int {
    if shift == 0 {
        return v.clone();
    }
    // v / 2^shift, truncated. Division through pow of two.
    v / &Int::one().shl(shift)
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::zero()
    }
}

impl PartialEq for Rat {
    fn eq(&self, other: &Rat) -> bool {
        self.num == other.num && self.den == other.den
    }
}
impl Eq for Rat {}

impl Hash for Rat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Cross-multiply; denominators are positive so the order is preserved.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}
impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -(&self.num),
            den: self.den.clone(),
        }
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        Rat::new(
            &self.num * &other.den + &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        Rat::new(
            &self.num * &other.den - &other.num * &self.den,
            &self.den * &other.den,
        )
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        Rat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "Rat division by zero");
        Rat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_rat_binop {
    ($tr:ident, $m:ident) => {
        impl $tr for Rat {
            type Output = Rat;
            fn $m(self, other: Rat) -> Rat {
                (&self).$m(&other)
            }
        }
        impl $tr<&Rat> for Rat {
            type Output = Rat;
            fn $m(self, other: &Rat) -> Rat {
                (&self).$m(other)
            }
        }
        impl $tr<Rat> for &Rat {
            type Output = Rat;
            fn $m(self, other: Rat) -> Rat {
                self.$m(&other)
            }
        }
    };
}
forward_rat_binop!(Add, add);
forward_rat_binop!(Sub, sub);
forward_rat_binop!(Mul, mul);
forward_rat_binop!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, other: &Rat) {
        *self = &*self + other;
    }
}
impl AddAssign for Rat {
    fn add_assign(&mut self, other: Rat) {
        *self = &*self + &other;
    }
}
impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, other: &Rat) {
        *self = &*self - other;
    }
}
impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, other: &Rat) {
        *self = &*self * other;
    }
}
impl DivAssign<&Rat> for Rat {
    fn div_assign(&mut self, other: &Rat) {
        *self = &*self / other;
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from_int(Int::from(v))
    }
}
impl From<Int> for Rat {
    fn from(v: Int) -> Rat {
        Rat::from_int(v)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Rat {
    type Err = ParseIntError;

    /// Parses `"a"`, `"a/b"`, or a decimal literal `"1.25"` / `"-0.5"`.
    fn from_str(s: &str) -> Result<Rat, ParseIntError> {
        if let Some((n, d)) = s.split_once('/') {
            let num: Int = n.trim().parse()?;
            let den: Int = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseIntError(s.to_string()));
            }
            return Ok(Rat::new(num, den));
        }
        if let Some((ip, fp)) = s.split_once('.') {
            if fp.is_empty() || !fp.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseIntError(s.to_string()));
            }
            let negative = ip.trim_start().starts_with('-');
            let int_part: Int = if ip.is_empty() || ip == "-" || ip == "+" {
                Int::zero()
            } else {
                ip.parse()?
            };
            let frac_num: Int = fp.parse()?;
            let scale = Int::from(10i64).pow(fp.len() as u32);
            let frac = Rat::new(frac_num, scale);
            let base = Rat::from_int(int_part);
            return Ok(if negative { base - frac } else { base + frac });
        }
        Ok(Rat::from_int(s.parse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: i64) -> Rat {
        Rat::new(Int::from(n), Int::from(d))
    }

    #[test]
    fn normalization() {
        assert_eq!(q(2, 4), q(1, 2));
        assert_eq!(q(-2, -4), q(1, 2));
        assert_eq!(q(2, -4), q(-1, 2));
        assert_eq!(q(0, 7), Rat::zero());
        assert_eq!(q(6, 3), Rat::from(2i64));
        assert!(q(2, -4).denom().is_positive());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(q(1, 2) + q(1, 3), q(5, 6));
        assert_eq!(q(1, 2) - q(1, 3), q(1, 6));
        assert_eq!(q(2, 3) * q(3, 4), q(1, 2));
        assert_eq!(q(1, 2) / q(1, 4), Rat::from(2i64));
        assert_eq!(-q(1, 2), q(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(-1, 2) < Rat::zero());
        assert!(q(7, 2) > Rat::from(3i64));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(q(7, 2).floor(), Int::from(3i64));
        assert_eq!(q(7, 2).ceil(), Int::from(4i64));
        assert_eq!(q(-7, 2).floor(), Int::from(-4i64));
        assert_eq!(q(-7, 2).ceil(), Int::from(-3i64));
        assert_eq!(Rat::from(5i64).floor(), Int::from(5i64));
        assert_eq!(Rat::from(5i64).ceil(), Int::from(5i64));
    }

    #[test]
    fn pow_recip() {
        assert_eq!(q(2, 3).pow(2), q(4, 9));
        assert_eq!(q(2, 3).pow(-2), q(9, 4));
        assert_eq!(q(2, 3).pow(0), Rat::one());
        assert_eq!(q(2, 3).recip(), q(3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::zero().recip();
    }

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, 1.0, -1.5, 0.1, 123.456, -7.25e10] {
            let r = Rat::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v);
        }
        assert!(Rat::from_f64(f64::NAN).is_none());
        assert!(Rat::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn to_f64_large() {
        let big = Rat::new(Int::from(2i64).pow(200), Int::from(3i64).pow(100));
        let approx = big.to_f64();
        let expect = 2.0f64.powi(200) / 3.0f64.powi(100);
        assert!((approx - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn parsing() {
        assert_eq!("3/6".parse::<Rat>().unwrap(), q(1, 2));
        assert_eq!("-3/6".parse::<Rat>().unwrap(), q(-1, 2));
        assert_eq!("1.25".parse::<Rat>().unwrap(), q(5, 4));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), q(-1, 2));
        assert_eq!(".5".parse::<Rat>().unwrap(), q(1, 2));
        assert_eq!("42".parse::<Rat>().unwrap(), Rat::from(42i64));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("x".parse::<Rat>().is_err());
        assert!("1.".parse::<Rat>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(q(1, 2).to_string(), "1/2");
        assert_eq!(q(-1, 2).to_string(), "-1/2");
        assert_eq!(Rat::from(7i64).to_string(), "7");
        assert_eq!(Rat::zero().to_string(), "0");
    }

    #[test]
    fn midpoint_minmax() {
        assert_eq!(q(0, 1).midpoint(&q(1, 1)), q(1, 2));
        assert_eq!(q(1, 3).min(q(1, 2)), q(1, 3));
        assert_eq!(q(1, 3).max(q(1, 2)), q(1, 2));
    }
}
