//! Theorem 3: FO+POLY+SUM computes volumes of semi-linear databases.
//!
//! Two independent realizations:
//!
//! * [`semilinear_volume`] — expand the relation / query to a
//!   quantifier-free linear formula and hand it to the exact engine of
//!   `cqa-geom` (inclusion–exclusion + Lasserre).
//! * [`volume_by_sweep_2d`] — the construction from the paper's own proof
//!   of Theorem 3 (§6.1): the section length `g(x) = Σ` lengths of maximal
//!   intervals of `{y : S(x, y)}` is piecewise linear in `x`; find its
//!   breakpoints, and integrate each linear piece exactly (the
//!   `(m·u²−m·l²)/2 + b(u−l)` summands of the proof are recovered by
//!   evaluating `g` at piece midpoints). Everything in sight — END points,
//!   the finitely many breakpoints, the summation — is expressible in
//!   FO+POLY+SUM; this function is its computational content.
//!
//! The two methods cross-validate each other in the tests and in `report`'s
//! E2.

use crate::integral::{rational_of, section_integral};
use crate::lang::AggError;
use cqa_approx::mc::Sweep;
use cqa_approx::sample::{hoeffding_sample_size, Witness};
use cqa_arith::Rat;
use cqa_core::{decompose_1d, Database};
use cqa_geom::{volume, VolumeError};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{CompiledMatrix, Formula, SlotMap};
use cqa_poly::{MPoly, Var};

impl From<VolumeError> for AggError {
    fn from(e: VolumeError) -> AggError {
        match e {
            VolumeError::Budget(b) => AggError::Budget(b),
            e => AggError::Db(e.to_string()),
        }
    }
}

impl From<cqa_approx::ApproxError> for AggError {
    fn from(e: cqa_approx::ApproxError) -> AggError {
        match e {
            cqa_approx::ApproxError::Budget(b) => AggError::Budget(b),
            cqa_approx::ApproxError::Qe(q) => AggError::from(q),
            e => AggError::Db(e.to_string()),
        }
    }
}

/// Exact volume of a semi-linear relation (Theorem 3).
pub fn semilinear_volume(db: &Database, relation: &str) -> Result<Rat, AggError> {
    let rel = db
        .relation(relation)
        .ok_or_else(|| AggError::Db(format!("unknown relation {relation}")))?;
    let arity = rel.arity();
    // R(v0, …, v_{arity-1}) with canonical argument variables well above
    // anything interned in the database's map.
    let base = db.vars().len() as u32;
    let args: Vec<Var> = (0..arity as u32)
        .map(|i| Var(base + i + 1_000_000))
        .collect();
    let q = Formula::Rel {
        name: relation.to_string(),
        args: args.iter().map(|&v| MPoly::var(v)).collect(),
    };
    let unlimited = EvalBudget::unlimited();
    let qf = cqa_qe::eliminate(&db.expand(&q)?, &unlimited)?;
    Ok(volume(&qf, &args, &unlimited)?)
}

/// Exact area of a two-dimensional semi-linear set by the paper's sweep
/// construction. `f` must be quantifier-free linear with free variables
/// `x` and `y`.
pub fn volume_by_sweep_2d(f: &Formula, x: Var, y: Var) -> Result<Rat, AggError> {
    if !f.is_relation_free() || !f.is_quantifier_free() {
        return Err(AggError::Db("sweep needs a quantifier-free formula".into()));
    }
    let breaks = sweep_breakpoints(f, x, y)?;

    // Integrate piecewise: on each open piece between consecutive
    // breakpoints (clipped to the support), g is linear, so
    // ∫ g = width · g(midpoint).
    let mut total = Rat::zero();
    for w in breaks.windows(2) {
        let (l, u) = (&w[0], &w[1]);
        if l == u {
            continue;
        }
        let len = section_integral(f, x, y, &MPoly::one(), &l.midpoint(u))?;
        if !len.is_zero() {
            total += (u - l) * len;
        }
    }
    Ok(total)
}

/// The sweep's breakpoint candidates, sorted: the x-coordinates where the
/// section structure of `{(x, y) : f}` can change. These are the endpoints
/// of the support, the x-coordinates of intersections of constraint
/// boundary lines (the arrangement's vertices), and the x-values of
/// vertical boundary lines. Empty when the support is.
pub(crate) fn sweep_breakpoints(f: &Formula, x: Var, y: Var) -> Result<Vec<Rat>, AggError> {
    // Support: the projection onto x.
    let shadow = Formula::exists(vec![y], f.clone());
    let proj = cqa_qe::fourier_motzkin(&shadow, &EvalBudget::unlimited())?;
    let support = decompose_1d(&proj, x).ok_or(AggError::NotOneDimensional)?;
    if support.is_empty() {
        return Ok(Vec::new());
    }
    let mut breaks: Vec<Rat> = Vec::new();
    let mut push = |r: Rat| {
        if !breaks.contains(&r) {
            breaks.push(r);
        }
    };
    for iv in &support {
        for e in iv.finite_endpoints() {
            push(rational_of(&e)?);
        }
    }
    // Boundary lines a·x + b·y + c = 0 from the atoms.
    let mut lines: Vec<(Rat, Rat, Rat)> = Vec::new();
    let mut bad = false;
    f.visit(&mut |g| {
        if let Formula::Atom(at) = g {
            let mut a = Rat::zero();
            let mut b = Rat::zero();
            let mut c = Rat::zero();
            for (m, coeff) in at.poly.terms() {
                match m {
                    [] => c = coeff.clone(),
                    [(v, 1)] if *v == x => a = coeff.clone(),
                    [(v, 1)] if *v == y => b = coeff.clone(),
                    _ => bad = true,
                }
            }
            lines.push((a, b, c));
        }
    });
    if bad {
        return Err(AggError::Db("sweep needs linear atoms over (x, y)".into()));
    }
    for (i, (a1, b1, c1)) in lines.iter().enumerate() {
        if b1.is_zero() {
            if !a1.is_zero() {
                push(-(c1 / a1)); // vertical line
            }
            continue;
        }
        for (a2, b2, c2) in &lines[i + 1..] {
            if b2.is_zero() {
                continue;
            }
            // Intersect a1 x + b1 y + c1 = 0 with a2 x + b2 y + c2 = 0.
            let denom = a1 * b2 - a2 * b1;
            if !denom.is_zero() {
                push((b1 * c2 - b2 * c1) / &denom);
            }
        }
    }
    breaks.sort();
    Ok(breaks)
}

/// Failure probability of the Monte Carlo fallback in
/// [`volume_with_fallback`]: the (ε, δ) tag always carries this δ.
pub const FALLBACK_DELTA: f64 = 0.05;

/// Seed of the deterministic witness used by the Monte Carlo fallback, so
/// degraded answers are reproducible run to run.
const FALLBACK_SEED: u64 = 0xC0A;

/// The outcome of [`volume_with_fallback`]: either the exact volume, or —
/// when the evaluation budget tripped — a Monte Carlo estimate tagged with
/// its accuracy guarantee.
#[derive(Clone, Debug, PartialEq)]
pub enum VolumeOutcome {
    /// The exact rational volume, computed within the budget.
    Exact(Rat),
    /// The budget tripped during exact evaluation, and the query degraded
    /// to sampling: `estimate` approximates the volume of the query region
    /// intersected with the unit box `I^k` (the paper's `VOL_I` setting),
    /// with `Pr[|estimate − VOL_I| > eps] ≤ delta` by Hoeffding's
    /// inequality over `samples` uniform points.
    Approximate {
        /// The sampled estimate of `VOL_I`.
        estimate: Rat,
        /// The additive error bound `ε`.
        eps: f64,
        /// The failure probability `δ` ([`FALLBACK_DELTA`]).
        delta: f64,
        /// Number of uniform sample points drawn.
        samples: usize,
    },
}

impl VolumeOutcome {
    /// The volume value, exact or estimated.
    pub fn value(&self) -> &Rat {
        match self {
            VolumeOutcome::Exact(v) => v,
            VolumeOutcome::Approximate { estimate, .. } => estimate,
        }
    }

    /// Whether the exact path completed (no degradation happened).
    pub fn is_exact(&self) -> bool {
        matches!(self, VolumeOutcome::Exact(_))
    }
}

/// Graceful exact→approximate degradation (the tentpole contract): compute
/// the exact volume of `{v⃗ : f(v⃗)}` under the evaluation `budget`; if the
/// budget trips while integrating the quantifier-free matrix, sample that
/// matrix with the Monte Carlo sweep of Theorem 4 and return the estimate
/// tagged with its `(ε, δ)` guarantee instead of failing. A trip inside
/// quantifier elimination is returned as [`AggError::Budget`]: no
/// quantifier-free matrix exists to sample.
///
/// The fallback draws the capped Hoeffding count
/// ([`cqa_approx::sample::hoeffding_sample_size`], single fixed set — no
/// VC-dimension factor needed) from a deterministic witness, so a degraded
/// answer is reproducible and the same for every thread count. It
/// estimates the volume *within the unit box* `I^k`; for queries whose
/// region extends beyond `I^k` the exact and approximate answers measure
/// different sets — the [`VolumeOutcome::Approximate`] tag makes the switch
/// visible to callers.
///
/// Errors that are not budget trips (unknown relations, unbounded regions,
/// an `ε` outside (0, 1) or past the sample cap) are reported as errors,
/// not degraded.
pub fn volume_with_fallback(
    db: &Database,
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
    eps: f64,
) -> Result<VolumeOutcome, AggError> {
    let delta = FALLBACK_DELTA;
    let samples = hoeffding_sample_size(eps, delta)?;
    let qf = cqa_qe::eliminate(&db.expand(f)?, budget)?;
    match volume(&qf, vars, budget) {
        Ok(v) => Ok(VolumeOutcome::Exact(v)),
        Err(VolumeError::Budget(_)) => {
            let kernel = CompiledMatrix::compile(&qf, &SlotMap::from_vars(vars))
                .map_err(|e| AggError::Residual(e.to_string()))?;
            let sweep = Sweep {
                kernels: &[(&kernel, None)],
                params: &[],
                dim: vars.len(),
                stream: &Witness::new(FALLBACK_SEED),
            };
            let threads = cqa_approx::par::default_threads();
            let (counts, _) = sweep.parallel::<(), _>(
                samples,
                threads,
                &EvalBudget::unlimited(),
                |_, _, _, _| {},
            )?;
            Ok(VolumeOutcome::Approximate {
                estimate: Rat::new((counts.hits[0] as i64).into(), (samples as i64).into()),
                eps,
                delta,
                samples,
            })
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::{parse_formula_with, VarMap};

    #[test]
    fn triangle_volume_via_database() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        assert_eq!(semilinear_volume(&db, "T").unwrap(), rat(1, 2));
    }

    #[test]
    fn union_relation_volume() {
        let mut db = Database::new();
        db.define(
            "U",
            &["x", "y"],
            "(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)",
        )
        .unwrap();
        assert_eq!(semilinear_volume(&db, "U").unwrap(), rat(7, 1));
    }

    #[test]
    fn volume_of_projection_defined_relation() {
        let mut db = Database::new();
        db.define(
            "T",
            &["x", "y", "z"],
            "x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1",
        )
        .unwrap();
        assert_eq!(semilinear_volume(&db, "T").unwrap(), rat(1, 6));
    }

    #[test]
    fn unbounded_relation_errors() {
        let mut db = Database::new();
        db.define("H", &["x", "y"], "x >= 0").unwrap();
        assert!(semilinear_volume(&db, "H").is_err());
    }

    fn sweep(src: &str) -> Rat {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(src, &mut vars).unwrap();
        volume_by_sweep_2d(&f, x, y).unwrap()
    }

    #[test]
    fn sweep_matches_closed_forms() {
        assert_eq!(sweep("x >= 0 & y >= 0 & x + y <= 1"), rat(1, 2));
        assert_eq!(sweep("0 <= x & x <= 2 & 0 <= y & y <= 3"), rat(6, 1));
        // Union with overlap: 7.
        assert_eq!(
            sweep("(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)"),
            rat(7, 1)
        );
        // Diamond |x| + |y| ≤ 1 (as clauses): area 2.
        assert_eq!(
            sweep(
                "(x >= 0 & y >= 0 & x + y <= 1) | (x <= 0 & y >= 0 & y - x <= 1) \
                 | (x >= 0 & y <= 0 & x - y <= 1) | (x <= 0 & y <= 0 & 0 - x - y <= 1)"
            ),
            rat(2, 1)
        );
    }

    #[test]
    fn sweep_agrees_with_lasserre_on_sections_with_holes() {
        let src = "(0 <= x & x <= 4 & 0 <= y & y <= 4) & !(1 <= x & x <= 2 & 1 <= y & y <= 3)";
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(src, &mut vars).unwrap();
        let s = volume_by_sweep_2d(&f, x, y).unwrap();
        let l = volume(&f, &[x, y], &EvalBudget::unlimited()).unwrap();
        assert_eq!(s, l);
        assert_eq!(s, rat(14, 1)); // 16 - 2
    }

    #[test]
    fn sweep_empty_and_degenerate() {
        assert_eq!(sweep("x > 0 & x < 0"), rat(0, 1));
        assert_eq!(sweep("x = 1 & 0 <= y & y <= 5"), rat(0, 1));
    }

    #[test]
    fn paper_example_parametric_slab() {
        // §3 worked example at (x1, x2) = (0, 1): area of
        // {(y1, y2) : 0 < y1 < 1 ∧ 0 ≤ y2 ≤ y1} = (1² - 0²)/2 = 1/2.
        assert_eq!(sweep("0 < x & x < 1 & 0 <= y & y <= x"), rat(1, 2));
    }
}
