//! Baselines the paper positions itself against.
//!
//! * **Variable independence** (Chomicki–Goldin–Kuper \[11\], discussed in
//!   §1): if the constraint representation never mixes variables inside an
//!   atom, the exact volume is expressible in the constraint language
//!   itself. The condition is syntactic, easily checked — and, as the
//!   paper notes, "too restrictive": [`is_variable_independent`] plus
//!   [`variable_independent_volume`] implement the baseline, and E8
//!   measures how rarely it applies.
//! * **Dyer–Frieze–Kannan-style randomized volume** \[15\]: polynomial-time
//!   approximation for convex bodies. We implement the practical
//!   scaffolding (rejection sampling from a bounding box, and a multiphase
//!   hit-and-run annealing estimator) as the comparison point for E11.

use crate::mc::Sweep;
use crate::sample::Witness;
use cqa_arith::Rat;
use cqa_geom::HPolyhedron;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, CompiledMatrix, Formula, Rel, SlotMap};
use cqa_poly::{MPoly, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `true` iff every atom of the (quantifier-free, relation-free) formula
/// mentions at most one variable — the variable-independence condition.
pub fn is_variable_independent(f: &Formula) -> bool {
    let mut ok = true;
    f.visit(&mut |g| {
        if let Formula::Atom(a) = g {
            if a.poly.vars().len() > 1 {
                ok = false;
            }
        }
    });
    ok
}

/// Exact volume of a variable-independent formula: the 1-D critical values
/// per axis induce a grid; each open cell is uniformly in or out, so the
/// volume is a sum of box volumes — no polyhedral machinery needed. This
/// is the \[11\] baseline; it errors (`None`) if the formula is not
/// variable-independent or a contributing cell is unbounded.
pub fn variable_independent_volume(f: &Formula, vars: &[Var]) -> Option<Rat> {
    if !is_variable_independent(f) || !f.is_quantifier_free() || !f.is_relation_free() {
        return None;
    }
    // Critical values per axis: roots of each univariate atom polynomial.
    let mut grids: Vec<Vec<Rat>> = vec![Vec::new(); vars.len()];
    let mut fail = false;
    f.visit(&mut |g| {
        if let Formula::Atom(a) = g {
            let Some(&v) = a.poly.vars().iter().next() else {
                return;
            };
            let Some(idx) = vars.iter().position(|&w| w == v) else {
                fail = true;
                return;
            };
            let Some(up) = a.poly.to_upoly(v) else {
                fail = true;
                return;
            };
            for r in cqa_poly::isolate_real_roots(&up) {
                if r.is_exact() {
                    if !grids[idx].contains(&r.lo) {
                        grids[idx].push(r.lo.clone());
                    }
                } else {
                    // Irrational critical value: outside this baseline's
                    // exact-rational scope.
                    fail = true;
                }
            }
        }
    });
    if fail {
        return None;
    }
    for g in &mut grids {
        g.sort();
    }
    // Cell sample points and widths per axis: between consecutive critical
    // values (cells at ±∞ have unbounded width — any true cell there makes
    // the volume unbounded).
    #[derive(Clone)]
    struct Cell {
        sample: Rat,
        width: Option<Rat>, // None = unbounded
    }
    let mut axes: Vec<Vec<Cell>> = Vec::with_capacity(vars.len());
    for g in &grids {
        let mut cells = Vec::new();
        if g.is_empty() {
            cells.push(Cell {
                sample: Rat::zero(),
                width: None,
            });
        } else {
            cells.push(Cell {
                sample: &g[0] - Rat::one(),
                width: None,
            });
            for (i, x) in g.iter().enumerate() {
                cells.push(Cell {
                    sample: x.clone(),
                    width: Some(Rat::zero()),
                });
                if i + 1 < g.len() {
                    cells.push(Cell {
                        sample: x.midpoint(&g[i + 1]),
                        width: Some(&g[i + 1] - x),
                    });
                }
            }
            cells.push(Cell {
                sample: g.last().unwrap() + Rat::one(),
                width: None,
            });
        }
        axes.push(cells);
    }
    // Sweep the grid through the compiled kernel (one lowering, then a
    // cheap exact evaluation per cell; compilation failure means the
    // formula is outside this baseline's scope).
    let slots = SlotMap::from_vars(vars);
    let kernel = CompiledMatrix::compile(f, &slots).ok()?;
    let mut idx = vec![0usize; vars.len()];
    let mut total = Rat::zero();
    let mut point = vec![Rat::zero(); vars.len()];
    loop {
        let mut cellvol = Some(Rat::one());
        for (ax, &i) in axes.iter().zip(&idx) {
            cellvol = match (&cellvol, &ax[i].width) {
                (Some(v), Some(w)) => Some(v * w),
                _ => None,
            };
        }
        for (c, (ax, &i)) in point.iter_mut().zip(axes.iter().zip(&idx)) {
            c.clone_from(&ax[i].sample);
        }
        if kernel.eval_rats(&point) {
            match cellvol {
                Some(v) => total += v,
                None => return None, // true on an unbounded cell
            }
        }
        // Odometer.
        let mut k = 0;
        loop {
            if k == idx.len() {
                return Some(total);
            }
            idx[k] += 1;
            if idx[k] < axes[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Rejection-sampling volume of a polyhedron from an enclosing box
/// (the naive Monte Carlo baseline): the box's volume times the fraction
/// of `samples` points `lo + (hi − lo)·u` inside `p`, for `u` the points of
/// `Witness::new(seed)`. Membership runs through the one Monte Carlo sweep
/// ([`Sweep`]) over the rows rewritten in `u`, so every hit is decided
/// exactly at the rational point.
pub fn rejection_volume(p: &HPolyhedron, lo: &[f64], hi: &[f64], samples: usize, seed: u64) -> f64 {
    let d = p.dim();
    let exact = |x: f64| Rat::from_f64(x).expect("finite box bound");
    // `a·x − b ≤ 0` at `x = lo + w∘u` is `Σ aᵢwᵢ·uᵢ + (a·lo − b) ≤ 0`.
    let atoms: Vec<Formula> = p
        .rows()
        .iter()
        .map(|(a, b)| {
            let mut poly = MPoly::constant(-b);
            for (i, c) in a.iter().enumerate() {
                let (l, w) = (exact(lo[i]), exact(hi[i]) - exact(lo[i]));
                poly = &poly + &MPoly::constant(c * &l);
                poly = &poly + &(&MPoly::constant(c * &w) * &MPoly::var(Var(i as u32)));
            }
            Formula::Atom(Atom::new(poly, Rel::Le))
        })
        .collect();
    let vars: Vec<Var> = (0..d as u32).map(Var).collect();
    let kernel = CompiledMatrix::compile(&Formula::And(atoms), &SlotMap::from_vars(&vars))
        .expect("polyhedron rows always compile");
    let sweep = Sweep {
        kernels: &[(&kernel, None)],
        params: &[],
        dim: d,
        stream: &Witness::new(seed),
    };
    let counts = sweep
        .lanes(0..samples, &EvalBudget::unlimited(), |_, _, _| {})
        .expect("an unlimited budget never trips");
    let box_vol: f64 = lo.iter().zip(hi).map(|(l, h)| h - l).product();
    box_vol * counts.hits[0] as f64 / samples as f64
}

/// A Dyer–Frieze–Kannan-flavoured multiphase estimator for convex
/// polytopes: intersect the body `K` with a geometric sequence of balls
/// `B₀ ⊂ B₁ ⊂ … ⊂ B_k ⊇ K` centered at an interior point; then
/// `vol(K) = vol(B₀) / Π ᵢ ratioᵢ`, with each
/// `ratioᵢ = vol(K∩Bᵢ₋₁)/vol(K∩Bᵢ)` estimated by hit-and-run sampling of
/// `K∩Bᵢ` (exact chord computation against the half-spaces and the ball).
/// `f64`, seeded — the E11 cost/accuracy comparison point; not a verbatim
/// implementation of \[15\]'s theoretical algorithm.
pub fn hit_and_run_volume(
    p: &HPolyhedron,
    interior: &[f64],
    samples_per_phase: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = p.dim();
    // Half-spaces as f64 rows a·x ≤ b.
    let rows: Vec<(Vec<f64>, f64)> = p
        .rows()
        .iter()
        .map(|(a, b)| (a.iter().map(Rat::to_f64).collect(), b.to_f64()))
        .collect();
    let c = interior.to_vec();
    // Inradius at c and circumradius bound via the rows (crude: use the
    // chord extents along the coordinate axes for an outer radius).
    let mut r0 = f64::MAX;
    for (a, b) in &rows {
        let norm: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            let slack = (b - dot(a, &c)) / norm;
            r0 = r0.min(slack);
        }
    }
    if r0.is_nan() || r0 <= 0.0 || r0 == f64::MAX {
        return 0.0; // interior point not strictly inside, or free space
    }
    r0 *= 0.95;
    // Outer radius: walk out along ±each axis to the body boundary.
    let mut router = r0;
    for i in 0..d {
        for sgn in [-1.0, 1.0] {
            let mut u = vec![0.0; d];
            u[i] = sgn;
            let (_, thi) = chord(&rows, &c, &u, f64::MAX, &c);
            if thi.is_finite() {
                router = router.max(thi);
            }
        }
    }
    router *= (d as f64).sqrt() * 1.05; // cover skew corners
    let phases = ((router / r0).log2().ceil() as usize).max(1);

    let ball_vol = crate::john::unit_ball_volume(d) * r0.powi(d as i32);
    let mut logvol = ball_vol.ln();
    let mut x = c.clone();
    for i in 1..=phases {
        let r_small = r0 * 2f64.powi(i as i32 - 1);
        let r_big = (r0 * 2f64.powi(i as i32)).min(router);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..samples_per_phase {
            // Hit-and-run step in K ∩ B(c, r_big).
            let mut u: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0f64..1.0)).collect();
            let norm = dot(&u, &u).sqrt();
            if norm < 1e-9 {
                continue;
            }
            for v in u.iter_mut() {
                *v /= norm;
            }
            let (tlo, thi) = chord(&rows, &x, &u, r_big, &c);
            if thi.is_nan() || tlo.is_nan() || thi <= tlo {
                continue;
            }
            let t = rng.random_range(tlo..thi);
            for (xi, ui) in x.iter_mut().zip(&u) {
                *xi += ui * t;
            }
            total += 1;
            let dist2: f64 = x.iter().zip(&c).map(|(a, b)| (a - b) * (a - b)).sum();
            if dist2 <= r_small * r_small {
                hits += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        let ratio = (hits.max(1)) as f64 / total as f64;
        logvol -= ratio.ln();
    }
    logvol.exp()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The parameter interval `[tlo, thi]` of `{x + t·u}` inside the body
/// `∩ rows ∩ B(center, r)` (`u` unit length; `r = MAX` skips the ball).
fn chord(rows: &[(Vec<f64>, f64)], x: &[f64], u: &[f64], r: f64, center: &[f64]) -> (f64, f64) {
    let mut tlo = f64::NEG_INFINITY;
    let mut thi = f64::INFINITY;
    for (a, b) in rows {
        let au = dot(a, u);
        let slack = b - dot(a, x);
        if au.abs() < 1e-12 {
            if slack < 0.0 {
                return (0.0, 0.0);
            }
            continue;
        }
        let t = slack / au;
        if au > 0.0 {
            thi = thi.min(t);
        } else {
            tlo = tlo.max(t);
        }
    }
    if r.is_finite() {
        // |x + tu − center|² = r²: t² + 2·w·u·t + |w|² − r² = 0, w = x−center.
        let w: Vec<f64> = x.iter().zip(center).map(|(a, b)| a - b).collect();
        let bq = dot(&w, u);
        let cq = dot(&w, &w) - r * r;
        let disc = bq * bq - cq;
        if disc <= 0.0 {
            return (0.0, 0.0);
        }
        let s = disc.sqrt();
        tlo = tlo.max(-bq - s);
        thi = thi.min(-bq + s);
    }
    (tlo, thi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::{parse_formula_with, VarMap};

    fn parse(src: &str, names: &[&str]) -> (Formula, Vec<Var>) {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        (parse_formula_with(src, &mut vars).unwrap(), vs)
    }

    #[test]
    fn independence_detection() {
        let (f, _) = parse("0 <= x & x <= 1 & 0 <= y & y <= 1", &["x", "y"]);
        assert!(is_variable_independent(&f));
        let (g, _) = parse("x + y <= 1", &["x", "y"]);
        assert!(!is_variable_independent(&g));
    }

    #[test]
    fn vi_volume_boxes() {
        let (f, vs) = parse("0 <= x & x <= 2 & 1 <= y & y <= 4", &["x", "y"]);
        assert_eq!(variable_independent_volume(&f, &vs), Some(rat(6, 1)));
        // Union of boxes sharing structure.
        let (g, vs) = parse(
            "(0 <= x & x <= 1 | 2 <= x & x <= 3) & 0 <= y & y <= 1",
            &["x", "y"],
        );
        assert_eq!(variable_independent_volume(&g, &vs), Some(rat(2, 1)));
    }

    #[test]
    fn vi_volume_agrees_with_exact_engine() {
        let (f, vs) = parse(
            "(0 <= x & x <= 2 & 0 <= y & y <= 2) & !(1 <= x & x <= 2 & 1 <= y & y <= 2)",
            &["x", "y"],
        );
        let vi = variable_independent_volume(&f, &vs).unwrap();
        let exact = cqa_geom::volume(&f, &vs).unwrap();
        assert_eq!(vi, exact);
        assert_eq!(vi, rat(3, 1));
    }

    #[test]
    fn vi_rejects_dependent_and_unbounded() {
        let (f, vs) = parse("x + y <= 1", &["x", "y"]);
        assert_eq!(variable_independent_volume(&f, &vs), None);
        let (g, vs) = parse("x >= 0 & 0 <= y & y <= 1", &["x", "y"]);
        assert_eq!(variable_independent_volume(&g, &vs), None);
    }

    /// The H-polyhedron of a conjunction of linear atoms.
    fn polytope(src: &str, names: &[&str]) -> HPolyhedron {
        let (f, vs) = parse(src, names);
        let Formula::And(parts) = f else {
            unreachable!()
        };
        let atoms: Vec<_> = parts
            .into_iter()
            .map(|p| match p {
                Formula::Atom(a) => a,
                _ => unreachable!(),
            })
            .collect();
        HPolyhedron::from_atoms(&atoms, &vs).unwrap()
    }

    /// The standard 4-simplex, volume 1/24.
    fn simplex4() -> HPolyhedron {
        polytope(
            "x0 >= 0 & x1 >= 0 & x2 >= 0 & x3 >= 0 & x0 + x1 + x2 + x3 <= 1",
            &["x0", "x1", "x2", "x3"],
        )
    }

    #[test]
    fn rejection_estimates_triangle() {
        let p = polytope("x >= 0 & y >= 0 & x + y <= 1", &["x", "y"]);
        let v = rejection_volume(&p, &[0.0, 0.0], &[1.0, 1.0], 20_000, 3);
        assert!((v - 0.5).abs() < 0.02, "{v}");
        let v = rejection_volume(&simplex4(), &[0.0; 4], &[1.0; 4], 10_000, 1);
        assert!((v - 1.0 / 24.0).abs() < 0.01, "{v}");
    }

    #[test]
    fn hit_and_run_ballpark() {
        let p = HPolyhedron::unit_box(2);
        let v = hit_and_run_volume(&p, &[0.5, 0.5], 6000, 7);
        assert!(v > 0.6 && v < 1.6, "{v}");
        let v = hit_and_run_volume(&simplex4(), &[0.125; 4], 10_000, 1);
        assert!(v > 1.0 / 48.0 && v < 1.0 / 12.0, "{v}");
    }
}
