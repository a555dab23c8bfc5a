//! Exact polyhedral geometry for constraint databases.
//!
//! Semi-linear sets — the finitely representable instances of FO+LIN — are
//! finite boolean combinations of half-spaces. This crate supplies the
//! geometric substrate the paper's constructive results (Theorem 3, the
//! polygon-area example of Section 5, the Löwner–John remark of Section 4)
//! rest on:
//!
//! * [`Mat`]/[`solve`]/[`det`] — exact rational linear algebra.
//! * [`HPolyhedron`] — conjunctions of closed half-spaces: membership,
//!   vertex enumeration.
//! * [`integral`]/[`volume`]/[`volume_in_unit_box_with_budget`] — **exact
//!   integrals of polynomials and exact volumes over arbitrary semi-linear
//!   sets** given as quantifier-free linear formulas, by the sweep of the
//!   paper's Theorem 3 in every dimension: the DNF cells' rows, breakpoints
//!   from their hyperplane arrangement, each slab integrated exactly by an
//!   open Newton–Cotes rule with `n + deg p` nodes, sections integrated
//!   recursively down to merged 1-D intervals and the integrand's
//!   antiderivative. A volume is the integral of 1. No quantifier
//!   elimination runs. This is the engine behind the FO+POLY+SUM volume
//!   terms and the `average` of `cqa-agg`. Each takes a cooperative
//!   `&EvalBudget` last (pass `&EvalBudget::unlimited()` for none); the
//!   unit-box one keeps its `_with_budget` name because the `cqa-e2e`
//!   benchmark calls it.
//! * [`convex_hull`]/[`polygon_area`]/[`triangulate_fan`] — 2-D convex
//!   hulls, shoelace areas, fan triangulations (the paper's Section-5
//!   worked example).
//! * [`simplex_volume`] — determinant-based simplex volumes.

#![forbid(unsafe_code)]

mod hull2d;
mod linalg;
mod polyhedron;
mod volume;

pub use hull2d::{convex_hull, point_in_convex_polygon, polygon_area, triangulate_fan, Point2};
pub use linalg::{det, solve, Mat};
pub use polyhedron::HPolyhedron;
pub use volume::{integral, simplex_volume, volume, volume_in_unit_box_with_budget, VolumeError};
