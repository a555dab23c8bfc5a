//! The constraint database model of Benedikt & Libkin (PODS 1999), §2.
//!
//! A *finitely representable* (f.r.) instance interprets each schema symbol
//! as the solution set of a quantifier-free formula over a real constraint
//! signature — a semi-linear set for FO+LIN, a semi-algebraic set for
//! FO+POLY. A *finite* instance interprets symbols as finite relations.
//! Queries are first-order formulas over the schema and the signature;
//! evaluating a query means substituting each relation atom by its
//! definition and **eliminating the quantifiers**, which yields the output
//! again as a quantifier-free constraint formula — the closure property
//! that makes the model a database model at all.
//!
//! This crate provides:
//!
//! * [`Database`] — named relations (f.r. or finite) over a shared
//!   variable map, with [`Database::eval`] implementing closed query
//!   evaluation (substitution + QE) and active-domain quantifier expansion.
//! * [`decompose_1d`] — the canonical interval decomposition of a
//!   one-dimensional definable set: the finite union of points and open
//!   intervals that o-minimality guarantees. Its endpoints are exactly what
//!   the `END` operator of FO+POLY+SUM returns (see `cqa-agg`).
//! * [`enumerate_finite`] — SAF (semi-algebraic-to-finite) safety:
//!   decides whether a query output is finite and enumerates it.
//!
//! [`Database::eval`], [`is_finite_set`] and [`enumerate_finite`] each take
//! a cooperative [`budget::EvalBudget`] last; a caller with no budget
//! passes `&EvalBudget::unlimited()`.

#![forbid(unsafe_code)]

mod db;
mod onedim;
mod safety;
mod syntactic;

/// Cooperative evaluation budgets (re-exported from `cqa_logic::budget`,
/// where the type lives so the QE layer below this crate can use it too).
pub mod budget {
    pub use cqa_logic::budget::{BudgetExceeded, BudgetResource, EvalBudget, CLOCK_PERIOD};
}

pub use db::{Database, DbError, Relation};
pub use onedim::{decompose_1d, Endpoint, Interval1D};
pub use safety::{enumerate_finite, is_finite_set, SafetyError};
pub use syntactic::{is_syntactically_deterministic, is_syntactically_finite};
