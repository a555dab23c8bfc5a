//! Theorem 3: FO+POLY+SUM computes volumes of semi-linear databases.
//!
//! [`semilinear_volume`] expands a relation to a quantifier-free linear
//! formula and hands it to the one exact sweep, `cqa-geom`'s: the
//! construction from the paper's own proof of Theorem 3 (§6.1), in n-D on
//! the DNF cells' rows. [`volume_with_fallback`] runs the same sweep under
//! a budget and degrades a trip to the Monte Carlo estimate of Theorem 4.

use crate::lang::AggError;
use cqa_approx::mc::Sweep;
use cqa_approx::sample::{hoeffding_sample_size, Witness};
use cqa_arith::Rat;
use cqa_core::Database;
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

    /// The area of `src` over `(x, y)` by the 2-D oracle, which must agree
    /// with the n-D sweep.
    fn sweep(src: &str) -> Rat {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(src, &mut vars).unwrap();
        let area = crate::sweep2d::integral(&f, x, y, &MPoly::one()).unwrap();
        assert_eq!(
            volume(&f, &[x, y], &EvalBudget::unlimited()),
            Ok(area.clone())
        );
        area
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
        // A section with a hole: 16 − 2.
        assert_eq!(
            sweep("(0 <= x & x <= 4 & 0 <= y & y <= 4) & !(1 <= x & x <= 2 & 1 <= y & y <= 3)"),
            rat(14, 1)
        );
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
