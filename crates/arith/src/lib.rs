//! Exact arbitrary-precision arithmetic for the constraint-agg workspace.
//!
//! Constraint query languages (Benedikt & Libkin, PODS 1999) require *exact*
//! computation: quantifier elimination over `⟨ℝ,+,-,0,1,<⟩` and
//! `⟨ℝ,+,*,0,1,<⟩`, vertex enumeration of polytopes, and the Theorem-3
//! volume algorithm all break under floating-point rounding. This crate
//! provides:
//!
//! * [`Int`] — a signed arbitrary-precision integer: an inline `i64` for
//!   every value in that range (arithmetic in registers, widened to `i128`
//!   on overflow), little-endian base-2³² limbs only beyond it.
//! * [`Rat`] — an always-normalized rational number (reduced fraction with
//!   positive denominator).
//!
//! Both types implement the full complement of arithmetic operators,
//! ordering, hashing, parsing and display. All operations are total except
//! division by zero, which panics (mirroring primitive integer semantics).
//!
//! The crate is dependency-free by design: the `num-*` crates are outside
//! the allowed offline set for this reproduction (see DESIGN.md), and exact
//! arithmetic is itself one of the substrates the paper presupposes.

#![forbid(unsafe_code)]

mod int;
mod rat;

pub use int::{Int, ParseIntError};
pub use rat::Rat;

/// Convenience constructor: the rational `n / d`. Panics if `d == 0`.
pub fn rat(n: i64, d: i64) -> Rat {
    Rat::new(Int::from(n), Int::from(d))
}

/// Convenience constructor: the integer rational `n`.
pub fn rint(n: i64) -> Rat {
    Rat::from_int(Int::from(n))
}
