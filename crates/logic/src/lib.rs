//! First-order formulas over constraint signatures.
//!
//! This crate implements the syntactic side of the constraint query
//! languages of Section 2 of Benedikt & Libkin (PODS 1999):
//!
//! * [`Formula`] — first-order formulas `FO(SC, Ω)` built from polynomial
//!   sign-condition atoms, schema-relation atoms, boolean connectives, and
//!   both *natural* (real) and *active-domain* quantifiers.
//! * [`Atom`]/[`Rel`] — atomic constraints `p(x⃗) ⋈ 0` with `⋈` one of
//!   `=, ≠, <, ≤, >, ≥`; dense-order, linear (FO+LIN) and polynomial
//!   (FO+POLY) constraint classes are distinguished by [`Formula::class`].
//! * Normal forms: negation normal form, prenex normal form, and disjunctive
//!   normal form of quantifier-free formulas (the workhorse of
//!   Fourier–Motzkin elimination in `cqa-qe`).
//! * A text [`parser`](parse_formula) and round-trippable pretty-printer, so
//!   examples and tests can write formulas the way the paper does.
//! * [`CompiledMatrix`] — a compiled evaluation kernel for quantifier-free
//!   matrices: slot-resolved variables, arena atoms, and a guarded
//!   `f64` fast path with exact rational fallback, bit-identical to
//!   [`Formula::eval`] but without the per-point interpretive overhead.
//!
//! Variables are interned [`Var`](cqa_poly::Var) indices; [`VarMap`] keeps
//! the human names.

#![forbid(unsafe_code)]

mod ast;
pub mod budget;
mod compile;
pub mod ir;
mod norm;
mod parser;
#[cfg(test)]
mod parser_oracle;
mod print;
mod span;
mod varmap;

pub use ast::{Atom, ConstraintClass, Formula, Rel};
pub use compile::{
    rat_to_f64_err, Batch, BatchResult, BatchScratch, CompileError, CompiledMatrix, LaneMask,
    LaneStats, SlotMap, BATCH_LANES,
};
pub use ir::{Arena, ArenaStats, FormulaId, TermId};
pub use norm::{dnf, from_dnf, nnf, prenex, PrenexBlock};
pub use parser::{
    parse_formula, parse_formula_spanned, parse_formula_with, parse_term_with, ParseError,
    MAX_NESTING, REQUEST_STACK_BYTES,
};
pub use print::display_formula;
pub use span::{BoundVar, Span, SpannedFormula, SpannedNode};
pub use varmap::VarMap;
