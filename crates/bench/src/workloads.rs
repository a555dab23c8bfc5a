//! Seeded workload generators for the experiments.

use cqa_arith::rat;
use cqa_geom::{convex_hull, Point2};
use cqa_logic::{parse_formula_with, Formula, VarMap};
use cqa_poly::Var;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random convex polygon: the hull of `n` integer points in a box.
pub fn random_convex_polygon(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point2> = (0..n.max(3))
        .map(|_| {
            (
                rat(rng.random_range(-50..50), 1),
                rat(rng.random_range(-50..50), 1),
            )
        })
        .collect();
    convex_hull(&pts)
}

/// A random bounded simplex-like region in `dim` variables:
/// `x_i ≥ lo_i` and `Σ c_i x_i ≤ b` with positive coefficients.
pub fn random_simplex_formula(dim: usize, seed: u64, vars: &mut VarMap) -> (Formula, Vec<Var>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..dim).map(|i| format!("x{i}")).collect();
    let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
    let mut parts: Vec<String> = Vec::new();
    for n in &names {
        parts.push(format!("{n} >= {}", rng.random_range(-3..1)));
    }
    let coeffs: Vec<i64> = (0..dim).map(|_| rng.random_range(1..4)).collect();
    let sum = names
        .iter()
        .zip(&coeffs)
        .map(|(n, c)| format!("{c}*{n}"))
        .collect::<Vec<_>>()
        .join(" + ");
    parts.push(format!("{sum} <= {}", rng.random_range(2..8)));
    let src = parts.join(" & ");
    (parse_formula_with(&src, vars).unwrap(), vs)
}

/// A random union of `k` axis-aligned boxes in the unit square (linear,
/// generally *not* variable independent once rotated pieces are added).
pub fn random_box_union(k: usize, seed: u64, vars: &mut VarMap) -> (Formula, Vec<Var>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = vars.intern("x");
    let y = vars.intern("y");
    let mut clauses = Vec::new();
    for _ in 0..k.max(1) {
        let x0 = rng.random_range(0..6);
        let dx = rng.random_range(1..5);
        let y0 = rng.random_range(0..6);
        let dy = rng.random_range(1..5);
        clauses.push(format!(
            "({x0} <= 10*x & 10*x <= {} & {y0} <= 10*y & 10*y <= {})",
            x0 + dx,
            y0 + dy
        ));
    }
    let src = clauses.join(" | ");
    (parse_formula_with(&src, vars).unwrap(), vec![x, y])
}

/// A random quantified linear formula with `vars` free variables, `q`
/// quantified ones, and `atoms` random atoms.
pub fn random_linear_query(
    free: usize,
    quantified: usize,
    atoms: usize,
    seed: u64,
    vars: &mut VarMap,
) -> Formula {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = free + quantified;
    let names: Vec<String> = (0..total).map(|i| format!("v{i}")).collect();
    for n in &names {
        vars.intern(n);
    }
    let mut parts = Vec::new();
    for _ in 0..atoms.max(1) {
        let mut terms = Vec::new();
        for n in &names {
            let c = rng.random_range(-2..=2);
            if c != 0 {
                terms.push(format!("{c}*{n}"));
            }
        }
        if terms.is_empty() {
            terms.push("0".to_string());
        }
        let rel = ["<", "<=", ">=", ">"][rng.random_range(0..4)];
        parts.push(format!(
            "{} {rel} {}",
            terms.join(" + "),
            rng.random_range(-3..=3)
        ));
    }
    let body = parse_formula_with(&parts.join(" & "), vars).unwrap();
    let qvars: Vec<Var> = names[free..].iter().map(|n| vars.get(n).unwrap()).collect();
    Formula::exists(qvars, body)
}
