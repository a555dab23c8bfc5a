//! Offline stand-in for the tiny slice of the `rand` crate this workspace
//! uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, `Rng::random::<f64>()`
//! and `Rng::random_range(..)` over integer, `usize` and `f64` ranges.
//!
//! The build environment has no crates-io access, so the real `rand` cannot
//! be fetched; this crate keeps the public call sites source-compatible.
//! The generator is xoshiro256++ seeded through SplitMix64 — deterministic
//! per seed, which is all the seeded-reproducibility contract of
//! `cqa-approx::sample::Witness` requires. Statistical quality is far above
//! what the Monte-Carlo tolerances in this repo need; it is *not* a
//! cryptographic generator.
//!
//! The value stream differs from crates-io `rand` 0.9: experiments are
//! reproducible per seed *within* this shim, not across implementations.
//! One addition has no counterpart there: `Xoshiro256PlusPlus::advance`,
//! an exact jump ahead by any number of outputs, which lets a sampler
//! start partway through a seeded stream.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Seedable random generators (the one constructor this repo uses).
pub trait SeedableRng: Sized {
    /// Builds a deterministic generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The user-facing sampling interface.
pub trait Rng {
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform value of type `T` (for `f64`: uniform in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in the given range. Panics on an empty range.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }
}

/// xoshiro256++ state (Blackman & Vigna), seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256PlusPlus { s }
    }
}

/// A polynomial over GF(2) of degree < 256: coefficient `i` is bit `i % 64`
/// of word `i / 64`.
type Poly = [u64; 4];

/// The characteristic polynomial `P` of the xoshiro256 state transition,
/// a linear map on GF(2)²⁵⁶, without its leading `x²⁵⁶` term. Every state
/// sequence satisfies `P`'s recurrence, so `Tⁿ = (xⁿ mod P)(T)`.
/// Berlekamp–Massey over one state bit re-derives it (tested below).
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

const fn xor(a: Poly, b: Poly) -> Poly {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// `a·x mod P`: the shift pushes at most one bit past degree 255, and
/// `x²⁵⁶ ≡ P − x²⁵⁶`.
const fn times_x(a: Poly) -> Poly {
    let shifted = [
        a[0] << 1,
        a[1] << 1 | a[0] >> 63,
        a[2] << 1 | a[1] >> 63,
        a[3] << 1 | a[2] >> 63,
    ];
    if a[3] >> 63 == 1 {
        xor(shifted, CHAR_POLY)
    } else {
        shifted
    }
}

/// `a·t mod P` for every 4-bit polynomial `t`.
const fn nibble_multiples(a: Poly) -> [Poly; 16] {
    let mut table = [[0u64; 4]; 16];
    let mut t = 1;
    while t < 16 {
        let twice = times_x(table[t >> 1]);
        table[t] = if t & 1 == 1 { xor(twice, a) } else { twice };
        t += 1;
    }
    table
}

/// `OVERFLOW[t]` = `t·x²⁵⁶ mod P`: the four bits a shift by `x⁴` pushes
/// past degree 255, folded back.
const OVERFLOW: [Poly; 16] = nibble_multiples(CHAR_POLY);

/// `a·x⁴ mod P`.
const fn times_x4(a: Poly) -> Poly {
    let top = OVERFLOW[(a[3] >> 60) as usize];
    [
        (a[0] << 4) ^ top[0],
        (a[1] << 4 | a[0] >> 60) ^ top[1],
        (a[2] << 4 | a[1] >> 60) ^ top[2],
        (a[3] << 4 | a[2] >> 60) ^ top[3],
    ]
}

/// `a·b mod P`, Horner over `b`'s 4-bit windows from the top: the
/// accumulator is multiplied by `x⁴`, then `a·t mod P` for the window `t`
/// is added.
const fn mul_mod(a: Poly, b: Poly) -> Poly {
    let table = nibble_multiples(a);
    let mut acc = [0u64; 4];
    let mut window = 64;
    while window > 0 {
        window -= 1;
        let t = b[window / 16] >> (4 * (window % 16)) & 15;
        acc = xor(times_x4(acc), table[t as usize]);
    }
    acc
}

/// `POW2[k]` = `x^(2^k) mod P`, by repeated squaring from `x`.
const POW2: [Poly; 64] = {
    let mut table = [[0u64; 4]; 64];
    table[0][0] = 2;
    let mut k = 1;
    while k < 64 {
        table[k] = mul_mod(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

impl Xoshiro256PlusPlus {
    /// Jumps ahead `n` outputs: the state afterwards is the one `n`
    /// [`Rng::next_u64`] calls would leave, in about as much time as 256
    /// of them plus one GF(2) polynomial product per set bit of `n`.
    ///
    /// The state update is linear over GF(2), so `n` steps are the matrix
    /// power `Tⁿ`, and `Tⁿ = (xⁿ mod P)(T)` for the characteristic
    /// polynomial `P` of `T` (Haramoto et al., *Efficient Jump Ahead for
    /// F₂-Linear Random Number Generators*, 2008). `xⁿ mod P` is the
    /// product of the table entries `x^(2^k) mod P` for the set bits `k`
    /// of `n`; applying it XORs together the states of the next 256 steps
    /// whose coefficient is one.
    pub fn advance(&mut self, n: u64) {
        let mut jump = [1, 0, 0, 0];
        let mut bits = n;
        while bits != 0 {
            jump = mul_mod(jump, POW2[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
        let mut s = [0u64; 4];
        for i in 0..256 {
            let select = 0u64.wrapping_sub(jump[i / 64] >> (i % 64) & 1);
            for (acc, &w) in s.iter_mut().zip(&self.s) {
                *acc ^= w & select;
            }
            self.next_u64();
        }
        self.s = s;
    }
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The default strong generator of the real crate; here xoshiro256++.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

/// Types samplable uniformly without extra parameters (`Rng::random`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for i64 {
    fn sample<R: Rng>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}
impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}
impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits — every value is an
    /// exactly-representable dyadic rational, which
    /// `cqa-approx::sample::Witness` relies on. The 53-bit integer goes
    /// through `i64`, whose conversion is one instruction where `u64`'s is
    /// a branchy sequence on x86-64; below 2⁵³ both are exact, so the
    /// value is the same.
    fn sample<R: Rng>(rng: &mut R) -> f64 {
        ((rng.next_u64() >> 11) as i64) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a `T` can be drawn from (`Rng::random_range`).
pub trait SampleRange<T> {
    /// Draws one value in the range from `rng`.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

/// Types drawable uniformly from a bounded range. The blanket
/// [`SampleRange`] impls below are keyed on this trait so that type
/// inference links the range's element type to `random_range`'s return type
/// (e.g. `slice[rng.random_range(0..4)]` infers `usize`), matching crates-io
/// rand's behaviour.
pub trait SampleUniform: Sized {
    /// Uniform draw in `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`). Panics on an empty range.
    fn sample_between<R: Rng>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Clone> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

/// Rejection-free-enough bounded draw: modulo over a full 128-bit draw. The
/// modulo bias is ≤ span/2¹²⁸, far below anything the tests resolve.
fn bounded(rng: &mut impl Rng, span: u128) -> u128 {
    debug_assert!(span > 0);
    let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    wide % span
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: Rng>(rng: &mut R, lo: $t, hi: $t, inclusive: bool) -> $t {
                if inclusive {
                    assert!(lo <= hi, "empty range in random_range");
                } else {
                    assert!(lo < hi, "empty range in random_range");
                }
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                (lo as i128 + bounded(rng, span) as i128) as $t
            }
        }
    )*};
}
int_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_between<R: Rng>(rng: &mut R, lo: f64, hi: f64, inclusive: bool) -> f64 {
        assert!(lo < hi, "empty f64 range in random_range");
        let u: f64 = f64::sample(rng);
        let v = lo + u * (hi - lo);
        // Guard against rounding up to an excluded endpoint.
        if !inclusive && v >= hi {
            lo
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_interval_f64() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.random_range(-50i64..50);
            assert!((-50..50).contains(&v));
            let w = rng.random_range(-2i64..=2);
            assert!((-2..=2).contains(&w));
            let u = rng.random_range(0usize..4);
            assert!(u < 4);
            let f = rng.random_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn jump_ahead_equals_stepping() {
        let distances = [
            0u64,
            1,
            2,
            63,
            64,
            255,
            256,
            257,
            1_000,
            26_493 * 2,
            26_493 * 3,
            (1 << 23) * 5,
        ];
        for seed in [0, 0xC0A6] {
            for n in distances {
                let mut jumped = StdRng::seed_from_u64(seed);
                jumped.advance(n);
                let mut stepped = StdRng::seed_from_u64(seed);
                for _ in 0..n {
                    stepped.next_u64();
                }
                assert_eq!(jumped.s, stepped.s, "seed {seed} n {n}");
            }
        }
    }

    #[test]
    fn jumps_compose() {
        for (a, b) in [(0, 5), (1, 1), (300, 7_000), (1 << 40, (1 << 40) + 3)] {
            let mut twice = StdRng::seed_from_u64(5);
            twice.advance(a);
            twice.advance(b);
            let mut once = StdRng::seed_from_u64(5);
            once.advance(a + b);
            assert_eq!(twice.s, once.s, "{a} + {b}");
        }
    }

    /// The shortest linear recurrence over GF(2) that `bits` satisfies, as
    /// the connection polynomial `C` (`C[0] = 1`, `bits[i] = Σⱼ C[j]·bits[i−j]`).
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let n = bits.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        (c[0], b[0]) = (1, 1);
        let (mut len, mut shift) = (0, 1);
        for i in 0..n {
            let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 0 {
                shift += 1;
                continue;
            }
            let prev = c.clone();
            for j in shift..=n {
                c[j] ^= b[j - shift];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                b = prev;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    #[test]
    fn the_pinned_characteristic_polynomial_is_rederived() {
        // One state bit over 512 steps: twice the degree pins the minimal
        // polynomial, which is `P` itself because `P` is primitive.
        let mut rng = StdRng::seed_from_u64(17);
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                rng.next_u64();
                (rng.s[0] & 1) as u8
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "degree");
        // P(x) = x²⁵⁶ + Σⱼ C[j]·x^(256−j).
        let mut low = [0u64; 4];
        for (j, &cj) in c.iter().enumerate().skip(1) {
            let k = 256 - j;
            low[k / 64] |= u64::from(cj) << (k % 64);
        }
        assert_eq!(low, CHAR_POLY, "{low:#018x?}");
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buckets = [0usize; 10];
        for _ in 0..100_000 {
            let v: f64 = rng.random();
            buckets[(v * 10.0) as usize] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b}");
        }
    }
}
