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
