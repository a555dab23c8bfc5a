//! FO+POLY+SUM — the aggregate constraint query language of Section 5.
//!
//! The paper's constructive answer to the aggregation problem: instead of
//! closing FO+POLY under volume (impossible — Section 4), extend it with a
//! *summation term-former over provably finite ranges*:
//!
//! * `END[y, φ(y, z⃗)]` — the endpoints of the maximal intervals composing
//!   the one-dimensional definable set `φ(D, z⃗)`; finite by o-minimality
//!   ([`cqa_core::decompose_1d`]).
//! * A *range-restricted expression* `ρ(w⃗, z⃗) ≡ (φ₁ | END[y, φ₂])` —
//!   tuples satisfying `φ₁` whose every coordinate is such an endpoint;
//!   guaranteed finite.
//! * A *deterministic formula* `γ(x, w⃗)` — a definable partial function
//!   (at most one `x` per `w⃗`; decidably checkable by QE,
//!   [`is_deterministic`]).
//! * The term `Σ_{ρ(w⃗,z⃗)} γ` — the sum of the bag `γ(ρ(D, z⃗))`.
//!
//! On top of the term-former this crate derives the classical SQL
//! aggregates over safe query outputs ([`aggregate`]), implements the
//! paper's Section-5 worked example (polygon area by triangulation,
//! [`polygon_area_sum_term`]), realizes Theorem 3 — exact volumes of
//! semi-linear databases — on the one sweep of `cqa-geom`
//! ([`semilinear_volume`], [`volume_with_fallback`]), and gives §1's AVG of a
//! polynomial over a semi-linear set ([`average`]: `cqa_geom::integral`
//! over `cqa_geom::volume`, an error on a null set).
//!
//! Every operation that runs quantifier elimination has one entry point,
//! and it takes a cooperative `&EvalBudget` last: [`end_points`],
//! [`RangeRestricted::enumerate`], [`Deterministic::apply`],
//! [`is_deterministic`], [`aggregate`] and [`group_aggregate`]. A caller
//! with no budget passes `&EvalBudget::unlimited()`. Σ keeps its old name,
//! [`SumTerm::eval_with_budget`], because the `cqa-e2e` benchmark calls it.

#![forbid(unsafe_code)]

mod aggregate;
mod grouping;
mod integral;
mod lang;
mod polygon;
#[cfg(test)]
mod sweep2d;
mod volume;

pub use aggregate::{aggregate, Aggregate};
pub use grouping::group_aggregate;
pub use integral::average;
pub use lang::{
    end_points, end_points_rational, is_deterministic, AggError, Deterministic, RangeRestricted,
    SumTerm,
};
pub use polygon::{polygon_area_sum_term, polygon_area_via_language};
pub use volume::{semilinear_volume, volume_with_fallback, VolumeOutcome, FALLBACK_DELTA};
