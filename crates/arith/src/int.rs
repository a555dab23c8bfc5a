//! Signed arbitrary-precision integers.
//!
//! Representation: every value that fits an `i64` is stored inline
//! (`Small`); only the values outside that range are a sign in `{-1, +1}`
//! plus a little-endian vector of base-2³² limbs with no trailing zero limbs
//! (`Big`). A value has exactly one representation however it was computed,
//! so derived structural equality is numeric equality. Arithmetic on two
//! `Small`s runs in registers — checked `i64`, redone in `i128` on overflow —
//! and every limb-path result that fits an `i64` is demoted again, so the
//! limb path runs only while an operand is really outside `i64`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Deref, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

const BASE_BITS: u32 = 32;

/// A signed arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq)]
pub struct Int(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Every value in `i64` range, and only those.
    Small(i64),
    /// A value outside `i64` range: `sign` is `±1`, `mag` the normalized
    /// little-endian base-2³² magnitude (at least two limbs).
    Big { sign: i8, mag: Vec<u32> },
}

/// A magnitude as limbs: borrowed from a `Big`, spelled out in place for a
/// `Small`. The limb path's view of either arm, without allocating.
enum Limbs<'a> {
    Inline([u32; 2], usize),
    Heap(&'a [u32]),
}

impl Deref for Limbs<'_> {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        match self {
            Limbs::Inline(limbs, n) => &limbs[..*n],
            Limbs::Heap(mag) => mag,
        }
    }
}

// ---------------------------------------------------------------------------
// magnitude (unsigned) helpers
// ---------------------------------------------------------------------------

fn mag_trim(mag: &mut Vec<u32>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn mag_cmp(a: &[u32], b: &[u32]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: u64 = 0;
    for (i, &limb) in long.iter().enumerate() {
        let s = u64::from(limb) + u64::from(*short.get(i).unwrap_or(&0)) + carry;
        out.push(s as u32);
        carry = s >> BASE_BITS;
    }
    if carry != 0 {
        out.push(carry as u32);
    }
    out
}

/// Requires `a >= b`. Computes `a - b`.
fn mag_sub(a: &[u32], b: &[u32]) -> Vec<u32> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow: i64 = 0;
    for (i, &limb) in a.iter().enumerate() {
        let d = i64::from(limb) - i64::from(*b.get(i).unwrap_or(&0)) - borrow;
        if d < 0 {
            out.push((d + (1i64 << BASE_BITS)) as u32);
            borrow = 1;
        } else {
            out.push(d as u32);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(&mut out);
    out
}

fn mag_mul(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u32; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: u64 = 0;
        let ai = u64::from(ai);
        for (j, &bj) in b.iter().enumerate() {
            let t = ai * u64::from(bj) + u64::from(out[i + j]) + carry;
            out[i + j] = t as u32;
            carry = t >> BASE_BITS;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u64::from(out[k]) + carry;
            out[k] = t as u32;
            carry = t >> BASE_BITS;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

/// Short division: divide magnitude by a single limb. Returns (quotient, remainder).
fn mag_div_limb(a: &[u32], d: u32) -> (Vec<u32>, u32) {
    debug_assert!(d != 0);
    let d64 = u64::from(d);
    let mut out = vec![0u32; a.len()];
    let mut rem: u64 = 0;
    for i in (0..a.len()).rev() {
        let cur = (rem << BASE_BITS) | u64::from(a[i]);
        out[i] = (cur / d64) as u32;
        rem = cur % d64;
    }
    mag_trim(&mut out);
    (out, rem as u32)
}

/// Shift a magnitude left by `s < 32` bits.
fn mag_shl_small(a: &[u32], s: u32) -> Vec<u32> {
    if s == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry: u32 = 0;
    for &w in a {
        out.push((w << s) | carry);
        carry = w >> (BASE_BITS - s);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Shift a magnitude right by `s < 32` bits.
fn mag_shr_small(a: &[u32], s: u32) -> Vec<u32> {
    if s == 0 {
        return a.to_vec();
    }
    let mut out = vec![0u32; a.len()];
    let mut carry: u32 = 0;
    for i in (0..a.len()).rev() {
        out[i] = (a[i] >> s) | carry;
        carry = a[i] << (BASE_BITS - s);
    }
    mag_trim(&mut out);
    out
}

/// Knuth algorithm D. Requires `b.len() >= 2` and `a >= b`.
/// Returns (quotient, remainder) magnitudes.
fn mag_div_rem_knuth(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = b.len();
    let m = a.len() - n;
    // Normalize so that the top limb of v has its high bit set.
    let s = b[n - 1].leading_zeros();
    let v = mag_shl_small(b, s);
    let mut u = mag_shl_small(a, s);
    u.resize(a.len() + 1, 0); // ensure an extra high limb

    let mut q = vec![0u32; m + 1];
    let vtop = u64::from(v[n - 1]);
    let vsecond = u64::from(v[n - 2]);

    for j in (0..=m).rev() {
        // Estimate qhat from the top two limbs of the current remainder.
        let num = (u64::from(u[j + n]) << BASE_BITS) | u64::from(u[j + n - 1]);
        let mut qhat = num / vtop;
        let mut rhat = num % vtop;
        // Correct qhat down (at most twice).
        while qhat >= (1u64 << BASE_BITS)
            || qhat * vsecond > ((rhat << BASE_BITS) | u64::from(u[j + n - 2]))
        {
            qhat -= 1;
            rhat += vtop;
            if rhat >= (1u64 << BASE_BITS) {
                break;
            }
        }
        // Multiply and subtract: u[j..j+n+1] -= qhat * v.
        let mut borrow: i64 = 0;
        let mut carry: u64 = 0;
        for i in 0..n {
            let p = qhat * u64::from(v[i]) + carry;
            carry = p >> BASE_BITS;
            let sub = i64::from(u[j + i]) - i64::from(p as u32) - borrow;
            if sub < 0 {
                u[j + i] = (sub + (1i64 << BASE_BITS)) as u32;
                borrow = 1;
            } else {
                u[j + i] = sub as u32;
                borrow = 0;
            }
        }
        let sub = i64::from(u[j + n]) - i64::from(carry as u32) - borrow;
        let went_negative = sub < 0;
        u[j + n] = if went_negative {
            (sub + (1i64 << BASE_BITS)) as u32
        } else {
            sub as u32
        };

        if went_negative {
            // qhat was one too large: add v back.
            qhat -= 1;
            let mut carry: u64 = 0;
            for i in 0..n {
                let t = u64::from(u[j + i]) + u64::from(v[i]) + carry;
                u[j + i] = t as u32;
                carry = t >> BASE_BITS;
            }
            u[j + n] = u[j + n].wrapping_add(carry as u32);
        }
        q[j] = qhat as u32;
    }
    mag_trim(&mut q);
    let mut rem = u[..n].to_vec();
    mag_trim(&mut rem);
    (q, mag_shr_small(&rem, s))
}

/// Unsigned division with remainder.
fn mag_div_rem(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert!(!b.is_empty(), "division by zero");
    match mag_cmp(a, b) {
        Ordering::Less => (Vec::new(), a.to_vec()),
        Ordering::Equal => (vec![1], Vec::new()),
        Ordering::Greater => {
            if b.len() == 1 {
                let (q, r) = mag_div_limb(a, b[0]);
                (q, if r == 0 { Vec::new() } else { vec![r] })
            } else {
                mag_div_rem_knuth(a, b)
            }
        }
    }
}

fn mag_bits(mag: &[u32]) -> u64 {
    match mag.last() {
        None => 0,
        Some(&top) => (mag.len() as u64) * u64::from(BASE_BITS) - u64::from(top.leading_zeros()),
    }
}

fn mag_to_f64(mag: &[u32]) -> f64 {
    mag.iter()
        .rev()
        .fold(0.0, |acc, &w| acc * 4294967296.0 + f64::from(w))
}

/// Decimal text of a sign and magnitude, by repeated short division by 10⁹.
fn fmt_limbs(sign: i8, mag: &[u32]) -> String {
    if mag.is_empty() {
        return "0".to_string();
    }
    let mut mag = mag.to_vec();
    let mut chunks: Vec<u32> = Vec::new();
    while !mag.is_empty() {
        let (q, r) = mag_div_limb(&mag, 1_000_000_000);
        chunks.push(r);
        mag = q;
    }
    let mut s = String::new();
    if sign < 0 {
        s.push('-');
    }
    s.push_str(&chunks.last().unwrap().to_string());
    for c in chunks.iter().rev().skip(1) {
        s.push_str(&format!("{c:09}"));
    }
    s
}

/// Binary gcd on machine words (Stein's algorithm).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    while b != 0 {
        // min/max rather than a swap branch: the comparison is a coin flip.
        b >>= b.trailing_zeros();
        let (lo, hi) = (a.min(b), a.max(b));
        a = lo;
        b = hi - lo;
    }
    a << shift
}

/// The register path of `+`, `-` and `*`: `checked` in `i64`, `wide` in
/// `i128` when that overflows (no product or sum of two `i64`s overflows an
/// `i128`), `limbs` when either operand is `Big`.
#[inline]
fn binop(
    a: &Int,
    b: &Int,
    checked: fn(i64, i64) -> Option<i64>,
    wide: fn(i128, i128) -> i128,
    limbs: fn(&Int, &Int) -> Int,
) -> Int {
    match (&a.0, &b.0) {
        (Repr::Small(x), Repr::Small(y)) => match checked(*x, *y) {
            Some(v) => Int(Repr::Small(v)),
            None => Int::from_i128(wide(i128::from(*x), i128::from(*y))),
        },
        _ => limbs(a, b),
    }
}

// ---------------------------------------------------------------------------
// Int
// ---------------------------------------------------------------------------

impl Int {
    /// The integer zero.
    pub fn zero() -> Int {
        Int(Repr::Small(0))
    }

    /// The integer one.
    pub fn one() -> Int {
        Int(Repr::Small(1))
    }

    /// The one representation of `sign · mag`: `Small` whenever it fits.
    fn from_sign_mag(sign: i8, mut mag: Vec<u32>) -> Int {
        mag_trim(&mut mag);
        if mag.len() <= 2 {
            let m = mag
                .iter()
                .rev()
                .fold(0u64, |acc, &w| (acc << BASE_BITS) | u64::from(w));
            if let Ok(v) = i64::try_from(i128::from(sign) * i128::from(m)) {
                return Int(Repr::Small(v));
            }
        }
        Int(Repr::Big { sign, mag })
    }

    fn from_i128(v: i128) -> Int {
        match i64::try_from(v) {
            Ok(v) => Int(Repr::Small(v)),
            Err(_) => {
                let m = v.unsigned_abs();
                let mag = (0..4).map(|i| (m >> (BASE_BITS * i)) as u32).collect();
                Int::from_sign_mag(v.signum() as i8, mag)
            }
        }
    }

    /// Sign and magnitude limbs, whichever arm holds the value.
    fn parts(&self) -> (i8, Limbs<'_>) {
        match &self.0 {
            Repr::Small(v) => {
                let m = v.unsigned_abs();
                let n = (64 - m.leading_zeros()).div_ceil(BASE_BITS) as usize;
                let limbs = [m as u32, (m >> BASE_BITS) as u32];
                (v.signum() as i8, Limbs::Inline(limbs, n))
            }
            Repr::Big { sign, mag } => (*sign, Limbs::Heap(mag)),
        }
    }

    // The limb path: right for any operands, taken when one of them is
    // `Big`; the unit tests hold the register path to it.

    fn add_limbs(&self, other: &Int) -> Int {
        let ((sa, ma), (sb, mb)) = (self.parts(), other.parts());
        if sa == 0 {
            return other.clone();
        }
        if sb == 0 {
            return self.clone();
        }
        if sa == sb {
            Int::from_sign_mag(sa, mag_add(&ma, &mb))
        } else {
            match mag_cmp(&ma, &mb) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int::from_sign_mag(sa, mag_sub(&ma, &mb)),
                Ordering::Less => Int::from_sign_mag(sb, mag_sub(&mb, &ma)),
            }
        }
    }

    fn mul_limbs(&self, other: &Int) -> Int {
        let ((sa, ma), (sb, mb)) = (self.parts(), other.parts());
        Int::from_sign_mag(sa * sb, mag_mul(&ma, &mb))
    }

    fn div_rem_limbs(&self, other: &Int) -> (Int, Int) {
        let ((sa, ma), (sb, mb)) = (self.parts(), other.parts());
        let (qm, rm) = mag_div_rem(&ma, &mb);
        (Int::from_sign_mag(sa * sb, qm), Int::from_sign_mag(sa, rm))
    }

    fn cmp_limbs(&self, other: &Int) -> Ordering {
        let ((sa, ma), (sb, mb)) = (self.parts(), other.parts());
        sa.cmp(&sb).then_with(|| {
            let m = mag_cmp(&ma, &mb);
            if sa < 0 {
                m.reverse()
            } else {
                m
            }
        })
    }

    fn shl_limbs(&self, bits: u32) -> Int {
        let (sign, mag) = self.parts();
        let mut out = vec![0u32; (bits / BASE_BITS) as usize];
        out.extend(mag_shl_small(&mag, bits % BASE_BITS));
        Int::from_sign_mag(sign, out)
    }

    /// `true` iff this integer is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// `true` iff this integer is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// `true` iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// `true` iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// The sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i32,
            Repr::Big { sign, .. } => i32::from(*sign),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.0 {
            Repr::Small(v) => u64::from(64 - v.unsigned_abs().leading_zeros()),
            Repr::Big { .. } => mag_bits(&self.parts().1),
        }
    }

    /// `true` iff the integer is even.
    pub fn is_even(&self) -> bool {
        self.parts().1.first().is_none_or(|w| w % 2 == 0)
    }

    /// Truncated division with remainder: `self = q*other + r`, `|r| < |other|`,
    /// `r` has the sign of `self` (like Rust's `/` and `%` on primitives).
    pub fn div_rem(&self, other: &Int) -> (Int, Int) {
        assert!(!other.is_zero(), "Int division by zero");
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => match a.checked_div(*b) {
                // |q·b| ≤ |a|, so the remainder cannot overflow.
                Some(q) => (Int(Repr::Small(q)), Int(Repr::Small(a - q * b))),
                // i64::MIN / -1, the one quotient that leaves the range.
                None => (Int::from_i128(-i128::from(*a)), Int::zero()),
            },
            _ => self.div_rem_limbs(other),
        }
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &Int) -> Int {
        let mut a = self.abs();
        let mut b = other.abs();
        loop {
            // Euclid on limbs until both operands fit, then Stein in registers.
            if let (Repr::Small(x), Repr::Small(y)) = (&a.0, &b.0) {
                return Int::from(gcd_u64(x.unsigned_abs(), y.unsigned_abs()));
            }
            if b.is_zero() {
                return a;
            }
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
    }

    /// Least common multiple (non-negative). `lcm(0, x) == 0`.
    pub fn lcm(&self, other: &Int) -> Int {
        if self.is_zero() || other.is_zero() {
            return Int::zero();
        }
        let g = self.gcd(other);
        (self.abs() / &g) * other.abs()
    }

    /// `self` raised to the power `exp`.
    pub fn pow(&self, mut exp: u32) -> Int {
        let mut base = self.clone();
        let mut acc = Int::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Multiply by a power of two (left shift).
    pub fn shl(&self, bits: u32) -> Int {
        match self.0 {
            Repr::Small(0) => Int::zero(),
            Repr::Small(v) if self.bits() + u64::from(bits) < 64 => Int(Repr::Small(v << bits)),
            _ => self.shl_limbs(bits),
        }
    }

    /// Approximate conversion to `f64` (may overflow to ±inf).
    pub fn to_f64(&self) -> f64 {
        match self.0 {
            // One correctly rounded conversion, as the limb loop's last
            // step is for a two-limb magnitude.
            Repr::Small(v) => v as f64,
            Repr::Big { sign, ref mag } => f64::from(sign) * mag_to_f64(mag),
        }
    }

    /// Exact conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big { .. } => None,
        }
    }
}

impl Default for Int {
    fn default() -> Int {
        Int::zero()
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        Int(Repr::Small(v))
    }
}

impl From<i32> for Int {
    fn from(v: i32) -> Int {
        Int::from(i64::from(v))
    }
}

impl From<u64> for Int {
    fn from(v: u64) -> Int {
        Int::from_i128(i128::from(v))
    }
}

impl From<usize> for Int {
    fn from(v: usize) -> Int {
        Int::from(v as u64)
    }
}

/// The sign-and-limbs form, whichever arm holds the value.
impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = self.parts();
        f.debug_struct("Int")
            .field("sign", &sign)
            .field("mag", &&*mag)
            .finish()
    }
}

/// Both arms feed the byte stream of the sign-and-limbs layout — the sign
/// as an `i8`, then the length-prefixed `u32` limbs — so a value hashes the
/// same however it is stored and whichever build stored it: the query
/// cache and the warm-cache file are keyed by digests of these bytes.
impl Hash for Int {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (sign, mag) = self.parts();
        sign.hash(state);
        (*mag).hash(state);
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            _ => self.cmp_limbs(other),
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.0 {
            Repr::Small(v) => Int::from_i128(-i128::from(v)),
            Repr::Big { sign, mag } => Int::from_sign_mag(-sign, mag),
        }
    }
}
impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, other: &Int) -> Int {
        binop(self, other, i64::checked_add, |x, y| x + y, Int::add_limbs)
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, other: &Int) -> Int {
        binop(
            self,
            other,
            i64::checked_sub,
            |x, y| x - y,
            |a, b| a.add_limbs(&-b),
        )
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, other: &Int) -> Int {
        binop(self, other, i64::checked_mul, |x, y| x * y, Int::mul_limbs)
    }
}

impl Div for &Int {
    type Output = Int;
    fn div(self, other: &Int) -> Int {
        self.div_rem(other).0
    }
}

impl Rem for &Int {
    type Output = Int;
    fn rem(self, other: &Int) -> Int {
        self.div_rem(other).1
    }
}

macro_rules! forward_binop {
    ($tr:ident, $m:ident) => {
        impl $tr for Int {
            type Output = Int;
            fn $m(self, other: Int) -> Int {
                (&self).$m(&other)
            }
        }
        impl $tr<&Int> for Int {
            type Output = Int;
            fn $m(self, other: &Int) -> Int {
                (&self).$m(other)
            }
        }
        impl $tr<Int> for &Int {
            type Output = Int;
            fn $m(self, other: Int) -> Int {
                self.$m(&other)
            }
        }
    };
}
forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, other: &Int) {
        *self = &*self + other;
    }
}
impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, other: &Int) {
        *self = &*self - other;
    }
}
impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, other: &Int) {
        *self = &*self * other;
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Repr::Small(v) => write!(f, "{v}"),
            Repr::Big { sign, ref mag } => f.write_str(&fmt_limbs(sign, mag)),
        }
    }
}

/// Error returned when parsing an [`Int`] or [`Rat`](crate::Rat) fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError(pub String);

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal: {}", self.0)
    }
}
impl std::error::Error for ParseIntError {}

impl FromStr for Int {
    type Err = ParseIntError;
    fn from_str(s: &str) -> Result<Int, ParseIntError> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (-1i8, rest),
            None => (1i8, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError(s.to_string()));
        }
        let mut acc = Int::zero();
        let ten9 = Int::from(1_000_000_000i64);
        for chunk in digits.as_bytes().chunks(9) {
            // chunks are left-to-right; scale accumulated value by 10^len.
            let val: u64 = std::str::from_utf8(chunk).unwrap().parse().unwrap();
            let scale = if chunk.len() == 9 {
                ten9.clone()
            } else {
                Int::from(10u64.pow(chunk.len() as u32))
            };
            acc = acc * scale + Int::from(val);
        }
        if sign < 0 {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(i(2) + i(3), i(5));
        assert_eq!(i(-2) + i(3), i(1));
        assert_eq!(i(2) - i(3), i(-1));
        assert_eq!(i(-4) * i(-5), i(20));
        assert_eq!(i(7) / i(2), i(3));
        assert_eq!(i(7) % i(2), i(1));
        assert_eq!(i(-7) / i(2), i(-3));
        assert_eq!(i(-7) % i(2), i(-1));
        assert_eq!(i(7) / i(-2), i(-3));
    }

    #[test]
    fn zero_identities() {
        assert!(Int::zero().is_zero());
        assert_eq!(i(5) + Int::zero(), i(5));
        assert_eq!(i(5) * Int::zero(), Int::zero());
        assert_eq!(-Int::zero(), Int::zero());
        assert_eq!(i(5) - i(5), Int::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = i(1) / Int::zero();
    }

    #[test]
    fn large_multiplication() {
        // (2^64)^2 = 2^128
        let big = Int::one().shl(64);
        let sq = &big * &big;
        assert_eq!(sq, Int::one().shl(128));
        assert_eq!(sq.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn knuth_division_roundtrip() {
        let a: Int = "123456789012345678901234567890123456789".parse().unwrap();
        let b: Int = "98765432109876543210".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn division_add_back_case() {
        // Crafted to exercise the rare add-back branch: divisor with high bit
        // pattern 0x80000000_00000001-like structure.
        let a = Int::one().shl(96) - Int::one();
        let b = Int::one().shl(64) + Int::one();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
            "-987654321098765432109876543210",
        ] {
            let v: Int = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Int>().is_err());
        assert!("12a".parse::<Int>().is_err());
        assert!("-".parse::<Int>().is_err());
        assert!("1.5".parse::<Int>().is_err());
    }

    #[test]
    fn ordering() {
        assert!(i(-10) < i(-2));
        assert!(i(-2) < Int::zero());
        assert!(Int::zero() < i(3));
        assert!(i(3) < Int::one().shl(40));
        assert!(-Int::one().shl(40) < i(3));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(i(12).gcd(&i(18)), i(6));
        assert_eq!(i(-12).gcd(&i(18)), i(6));
        assert_eq!(i(0).gcd(&i(5)), i(5));
        assert_eq!(i(7).gcd(&i(0)), i(7));
        assert_eq!(i(4).lcm(&i(6)), i(12));
        assert_eq!(i(0).lcm(&i(6)), Int::zero());
    }

    #[test]
    fn pow() {
        assert_eq!(i(3).pow(0), Int::one());
        assert_eq!(i(3).pow(4), i(81));
        assert_eq!(i(-2).pow(3), i(-8));
        assert_eq!(i(2).pow(100).to_string(), "1267650600228229401496703205376");
    }

    #[test]
    fn to_f64_and_i64() {
        assert_eq!(i(42).to_f64(), 42.0);
        assert_eq!(i(-42).to_f64(), -42.0);
        assert_eq!(Int::one().shl(53).to_f64(), 9007199254740992.0);
        assert_eq!(i(i64::MAX).to_i64(), Some(i64::MAX));
        assert_eq!(i(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(Int::one().shl(64).to_i64(), None);
    }

    #[test]
    fn bits() {
        assert_eq!(Int::zero().bits(), 0);
        assert_eq!(Int::one().bits(), 1);
        assert_eq!(i(255).bits(), 8);
        assert_eq!(i(256).bits(), 9);
        assert_eq!(Int::one().shl(100).bits(), 101);
    }

    // ---- register path vs limb path ----

    use std::collections::hash_map::DefaultHasher;

    /// `±m`, built by the limb constructor rather than by arithmetic.
    fn from_u128(negative: bool, m: u128) -> Int {
        let mag = (0..4).map(|k| (m >> (32 * k)) as u32).collect();
        Int::from_sign_mag(if negative { -1 } else { 1 }, mag)
    }

    /// ±(2³¹, 2³²−1, 2³², 2⁶³−1, 2⁶³, 2⁶⁴, 2¹²⁷), each also shifted by ±1,
    /// ±2 and two random offsets, plus 0, ±1 and random values of every
    /// width up to three limbs.
    fn boundary_operands() -> Vec<Int> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut out = vec![Int::zero(), Int::one(), -Int::one()];
        let bases = [
            1u128 << 31,
            (1 << 32) - 1,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            1 << 64,
            1 << 127,
        ];
        for base in bases {
            let random = [next() % (1 << 20), next() % (1 << 40)];
            for d in [-2i128, -1, 0, 1, 2, random[0] as i128, -(random[1] as i128)] {
                let m = base.wrapping_add_signed(d);
                out.push(from_u128(false, m));
                out.push(from_u128(true, m));
            }
        }
        for width in [8, 31, 32, 33, 62, 63, 64, 65, 96] {
            let m = (u128::from(next()) << 64 | u128::from(next())) >> (128 - width);
            out.push(from_u128(next() % 2 == 0, m));
        }
        out
    }

    fn hash_of(x: &Int) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// The hash of the sign-and-limbs layout as a struct holding a
    /// `Vec<u32>` would feed it.
    fn limb_layout_hash(x: &Int) -> u64 {
        let (sign, mag) = x.parts();
        let mut h = DefaultHasher::new();
        sign.hash(&mut h);
        mag.to_vec().hash(&mut h);
        h.finish()
    }

    /// Equal values, equal representation (`Eq` is structural), and the
    /// layout's hash bytes.
    fn assert_same(got: &Int, want: &Int, what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(hash_of(got), limb_layout_hash(want), "{what}: hash");
    }

    fn neg_limbs(a: &Int) -> Int {
        let (sign, mag) = a.parts();
        Int::from_sign_mag(-sign, mag.to_vec())
    }

    fn abs_limbs(a: &Int) -> Int {
        let (sign, mag) = a.parts();
        Int::from_sign_mag(sign.abs(), mag.to_vec())
    }

    fn gcd_limbs(a: &Int, b: &Int) -> Int {
        let (mut a, mut b) = (abs_limbs(a), abs_limbs(b));
        while !b.is_zero() {
            let r = a.div_rem_limbs(&b).1;
            a = b;
            b = r;
        }
        a
    }

    #[test]
    fn register_path_matches_limb_path_on_binary_ops() {
        let ops = boundary_operands();
        for a in &ops {
            for b in &ops {
                let what = format!("{a} op {b}");
                assert_same(&(a + b), &a.add_limbs(b), &what);
                assert_same(&(a - b), &a.add_limbs(&neg_limbs(b)), &what);
                assert_same(&(a * b), &a.mul_limbs(b), &what);
                assert_eq!(a.cmp(b), a.cmp_limbs(b), "{what}");
                if !b.is_zero() {
                    let (q, r) = a.div_rem(b);
                    let (qr, rr) = a.div_rem_limbs(b);
                    assert_same(&q, &qr, &what);
                    assert_same(&r, &rr, &what);
                }
                let g = gcd_limbs(a, b);
                assert_same(&a.gcd(b), &g, &what);
                let l = if a.is_zero() || b.is_zero() {
                    Int::zero()
                } else {
                    abs_limbs(a).div_rem_limbs(&g).0.mul_limbs(&abs_limbs(b))
                };
                assert_same(&a.lcm(b), &l, &what);
            }
        }
    }

    #[test]
    fn register_path_matches_limb_path_on_unary_ops() {
        for a in boundary_operands() {
            let what = a.to_string();
            let (sign, mag) = a.parts();
            assert_same(&-&a, &neg_limbs(&a), &what);
            assert_same(&-a.clone(), &neg_limbs(&a), &what);
            assert_same(&a.abs(), &abs_limbs(&a), &what);
            assert_eq!(a.bits(), mag_bits(&mag), "{what}");
            let m = mag_to_f64(&mag);
            let f = if sign < 0 { -m } else { m };
            assert_eq!(a.to_f64().to_bits(), f.to_bits(), "{what}");
            let wide = (mag.len() <= 4)
                .then(|| {
                    mag.iter()
                        .rev()
                        .fold(0u128, |acc, &w| acc << 32 | u128::from(w))
                })
                .and_then(|m| i128::try_from(m).ok())
                .map(|m| if sign < 0 { -m } else { m });
            assert_eq!(
                a.to_i64(),
                wide.and_then(|v| i64::try_from(v).ok()),
                "{what}"
            );
            assert_eq!(a.to_string(), fmt_limbs(sign, &mag), "{what}");
            assert_same(&what.parse::<Int>().unwrap(), &a, &what);
            for k in [0, 1, 5, 31, 32, 33, 62, 63, 64, 100] {
                assert_same(&a.shl(k), &a.shl_limbs(k), &format!("{what} << {k}"));
            }
            let mut p = Int::one();
            for e in 0..5 {
                assert_same(&a.pow(e), &p, &format!("{what} ^ {e}"));
                p = p.mul_limbs(&a);
            }
        }
    }

    #[test]
    fn register_path_edge_cases() {
        let min = i(i64::MIN);
        let two63 = from_u128(false, 1 << 63);
        assert_eq!(min.div_rem(&i(-1)), (two63.clone(), Int::zero()));
        assert_eq!(&min / &i(1), min);
        assert_eq!(-&min, two63);
        assert_eq!(min.abs(), two63);
        assert_eq!(min.gcd(&Int::zero()), two63);
        assert_eq!(Int::zero().gcd(&min), two63);
        assert_eq!(min.gcd(&min), two63);
        assert!(matches!((-two63.clone()).0, Repr::Small(i64::MIN)));
        assert_eq!(Int::from(u64::MAX), from_u128(false, u128::from(u64::MAX)));
        assert_eq!(std::mem::size_of::<Int>(), 32);
    }

    #[test]
    fn results_that_fit_are_demoted() {
        // (a·b)/b leaves the range and comes back: the quotient must be the
        // inline value itself, hashing as `a` does.
        for b in [i(i64::MAX), i(i64::MIN), i(3).shl(61)] {
            for a in [i(3), i(-7), i(i64::MAX), i(i64::MIN), i(1).shl(62)] {
                let p = &a * &b;
                assert!(matches!(p.0, Repr::Big { .. }), "{a} * {b}");
                let back = &p / &b;
                assert!(matches!(back.0, Repr::Small(_)), "{a} * {b} / {b}");
                assert_eq!(back, a);
                assert_eq!(hash_of(&back), hash_of(&a));
                assert_eq!((&p + &a) - &p, a);
            }
        }
    }
}
