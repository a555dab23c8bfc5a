//! Experiment harness for the constraint-agg reproduction.
//!
//! Each `e*` function regenerates one experiment of EXPERIMENTS.md (the
//! paper has no numbered tables or figures — it is a PODS theory paper —
//! so the experiments check its quantitative claims, worked examples and
//! constructive theorems; see DESIGN.md §4 for the index). The `report`
//! binary prints them. Performance is measured end to end by `cqa-e2e`
//! (`bench/` at the repository root), not here.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod workloads;

pub use experiments::*;
