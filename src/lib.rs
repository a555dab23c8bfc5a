//! # constraint-agg
//!
//! A reproduction of **Benedikt & Libkin, "Exact and Approximate Aggregation
//! in Constraint Query Languages" (PODS 1999)** as a production-quality Rust
//! workspace. This facade crate re-exports every sub-crate under a single
//! namespace and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Layered architecture
//!
//! * [`arith`] — exact arbitrary-precision integers and rationals.
//! * [`poly`] — multivariate polynomials, Sturm sequences, real root
//!   isolation, real algebraic numbers.
//! * [`logic`] — first-order formulas over constraint signatures (dense
//!   order, FO+LIN, FO+POLY), normal forms, parser and printer.
//! * [`qe`] — quantifier elimination: Fourier–Motzkin and Loos–Weispfenning
//!   for linear constraints, Cohen–Hörmander for the real field.
//! * [`geom`] — exact polyhedral geometry: vertex enumeration, convex hulls,
//!   triangulation, and exact volumes of semi-linear sets (Theorem 3).
//! * [`core`] — the constraint database model: schemas, finitely
//!   representable instances, and closed FO+LIN / FO+POLY query evaluation.
//! * [`agg`] — the FO+POLY+SUM aggregate language of Section 5.
//! * [`approx`] — VC-dimension machinery, sample bounds, Monte Carlo
//!   ε-approximate volume (Theorem 4), and the paper's baselines.
//! * [`analyze`] — static analysis of FO+POLY+SUM programs: scope and
//!   Σ-discipline lints, fragment classification, and the Lemma-1 /
//!   Proposition-6 cost and VC estimators, with compiler-style
//!   diagnostics (`cqa-lint`).
//!
//! ## Quickstart
//!
//! ```
//! use constraint_agg::prelude::*;
//!
//! // A triangle as a linear-constraint relation: x ≥ 0, y ≥ 0, x + y ≤ 1.
//! let mut db = Database::new();
//! db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1").unwrap();
//!
//! // Closed querying: the projection is again a constraint relation.
//! let proj = db.query(&["x"], "exists y. T(x, y)").unwrap();
//! assert!(proj.contains(&[rat(1, 2)]));
//!
//! // Exact volume (area) via the Theorem-3 algorithm: 1/2.
//! let vol = semilinear_volume(&db, "T").unwrap();
//! assert_eq!(vol, rat(1, 2));
//!
//! // Each operation takes an `EvalBudget` last; `unlimited()` sets no cap.
//! let (x, y) = (db.vars_mut().intern("x"), db.vars_mut().intern("y"));
//! let f = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", db.vars_mut()).unwrap();
//! assert_eq!(volume(&f, &[x, y], &EvalBudget::unlimited()), Ok(rat(1, 2)));
//! ```

#![forbid(unsafe_code)]

pub use cqa_agg as agg;
pub use cqa_analyze as analyze;
pub use cqa_approx as approx;
pub use cqa_arith as arith;
pub use cqa_core as core;
pub use cqa_geom as geom;
pub use cqa_logic as logic;
pub use cqa_poly as poly;
pub use cqa_qe as qe;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use cqa_agg::{aggregate, semilinear_volume, Aggregate};
    pub use cqa_analyze::{analyze_source, AnalyzerConfig};
    pub use cqa_arith::{rat, rint, Int, Rat};
    pub use cqa_core::{Database, Relation};
    pub use cqa_geom::{volume, volume_in_unit_box_with_budget};
    pub use cqa_logic::budget::EvalBudget;
    pub use cqa_logic::{parse_formula, parse_formula_with, Formula, VarMap};
    pub use cqa_qe::{decide_sentence, eliminate};
}
