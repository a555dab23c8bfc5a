//! Approximate volume of semi-algebraic sets — the Sections 3/4/6.2 story:
//!
//! 1. the exact semi-linear engine *refuses* polynomial constraints
//!    (non-closure is real: the answer can be transcendental);
//! 2. the Theorem-4 Monte Carlo estimator answers with a uniform
//!    ε-guarantee over all parameters from a single witness sample;
//! 3. the trivial ε ≥ 1/2 approximator (Proposition 4) is the best a
//!    first-order constraint language can do by itself (Theorem 2);
//! 4. the derandomized Karpinski–Macintyre construction exists but its
//!    formulas are astronomically large (the Section-3 example).
//!
//! ```text
//! cargo run --release --example approx_volume
//! ```

use constraint_agg::approx::km::paper_example_cost;
use constraint_agg::approx::mc::UniformVolumeEstimator;
use constraint_agg::approx::par::default_threads;
use constraint_agg::approx::sample::{sample_size, Witness};
use constraint_agg::approx::trivial::trivial_volume_approximation;
use constraint_agg::core::Database;
use constraint_agg::logic::budget::EvalBudget;
use constraint_agg::logic::parse_formula_with;
use constraint_agg::prelude::*;

fn main() {
    let mut db = Database::new();
    // A parametric family of disks: φ(r; x, y) ≡ (x−½)² + (y−½)² ≤ r².
    db.define(
        "Disk",
        &["r", "x", "y"],
        "(x - 0.5)*(x - 0.5) + (y - 0.5)*(y - 0.5) <= r*r",
    )
    .unwrap();
    let r = db.vars_mut().get("r").unwrap();
    let x = db.vars_mut().get("x").unwrap();
    let y = db.vars_mut().get("y").unwrap();
    let phi = parse_formula_with("Disk(r, x, y)", db.vars_mut()).unwrap();

    // 1. Exact engine refuses: the volume πr² is not rational.
    let unlimited = EvalBudget::unlimited();
    let expanded = db.expand(&phi).unwrap();
    let refusal = volume_in_unit_box_with_budget(&expanded, &[r, x, y], &unlimited);
    println!("exact semi-linear engine on the disk family: {refusal:?}");

    // 2. Theorem 4: one sample, uniform accuracy across all radii.
    let (eps, delta, d) = (0.05, 0.1, 4.0);
    let m = sample_size(eps, delta, d);
    println!("\nTheorem 4 estimator: M(ε={eps}, δ={delta}, d={d}) = {m} witness points");
    let mut w = Witness::new(2718);
    let est =
        UniformVolumeEstimator::new(&db, &phi, &[r], &[x, y], eps, delta, d, &mut w, &unlimited)
            .expect("Cohen–Hörmander handles the polynomial atoms");
    println!(
        "  {:>6} {:>10} {:>10} {:>8}",
        "radius", "estimate", "πr²", "error"
    );
    for k in 1..=4 {
        let radius = rat(k, 10);
        let truth = std::f64::consts::PI * radius.to_f64().powi(2);
        let got = est
            .estimate(std::slice::from_ref(&radius), default_threads(), &unlimited)
            .expect("parameter arity matches")
            .to_f64();
        println!(
            "  {:>6} {:>10.4} {:>10.4} {:>8.4}",
            radius.to_string(),
            got,
            truth,
            (got - truth).abs()
        );
    }

    // 3. The trivial approximator: valid for ε ≥ 1/2 and definable in
    //    FO+LIN — and Theorem 2 says you cannot beat it uniformly.
    let mut vars2 = constraint_agg::logic::VarMap::new();
    let xs: Vec<_> = ["x", "y"].iter().map(|n| vars2.intern(n)).collect();
    for src in ["x + y <= 1", "x >= 0.99", "false"] {
        let f = parse_formula_with(src, &mut vars2).unwrap();
        let t = trivial_volume_approximation(&f, &xs).unwrap();
        println!("trivial approx of VOL_I({src}) = {t}");
    }

    // 4. Why not derandomize? The Karpinski–Macintyre formula sizes.
    println!("\nKarpinski–Macintyre construction at ε = 1/10 (lower-bound model):");
    for n in [8usize, 32] {
        let c = paper_example_cost(n, 0.1);
        println!(
            "  |U| = {n:>3}: sample {} pts, {:.2e} atoms, {:.2e} quantifiers",
            c.sample_size, c.atoms, c.quantifiers
        );
    }
    println!("  — as the paper puts it: infeasible in the constraint database context.");
}
