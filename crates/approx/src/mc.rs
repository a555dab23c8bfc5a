//! Theorem 4: uniform Monte Carlo approximation of `VOL_I(φ(ā, D))`.
//!
//! One sample, all parameters: because the definable family
//! `{φ(ā, D) : ā}` has VC dimension `≤ C·log|D|` (Proposition 6), a single
//! `M(ε, δ, d)`-point sample gives an `ε`-accurate empirical volume for
//! *every* parameter vector simultaneously, with probability ≥ 1 − δ.
//! That is what distinguishes Theorem 4 from naive per-query sampling —
//! and what [`UniformVolumeEstimator`] implements.

use crate::error::ApproxError;
use crate::par::{self, default_threads};
use crate::sample::{try_sample_size, Witness};
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{rat_to_f64_err, Batch, BatchScratch, CompiledMatrix, Formula, LaneStats, SlotMap};
use cqa_poly::Var;
use cqa_qe::QeError;

/// Expands relations and eliminates quantifiers (under the budget), then
/// lowers the matrix through the compiled kernel. A matrix the kernel
/// cannot lower (residual relation or quantifier) surfaces as an error
/// *here*, instead of being silently counted as a miss at every sample
/// point.
fn compile_matrix(
    db: &Database,
    phi: &Formula,
    slots: &SlotMap,
    budget: &EvalBudget,
) -> Result<(Formula, CompiledMatrix), ApproxError> {
    let expanded = db.expand(phi).map_err(|_| QeError::HasRelations)?;
    let matrix = cqa_qe::eliminate(&expanded, budget)?;
    let kernel =
        CompiledMatrix::compile(&matrix, slots).map_err(|e| QeError::Residual(e.to_string()))?;
    Ok((matrix, kernel))
}

/// A volume estimator sharing one sample across all parameter vectors.
pub struct UniformVolumeEstimator {
    /// Quantifier-free matrix of the query (relations expanded, quantifiers
    /// eliminated), over `params ∪ point_vars` — kept as the reference
    /// oracle for the compiled kernel.
    matrix: Formula,
    kernel: CompiledMatrix,
    n_params: usize,
    sample: Vec<Vec<Rat>>,
    /// Exact `f64` mirror of the (dyadic) sample coordinates.
    sample_f64: Vec<Vec<f64>>,
}

impl UniformVolumeEstimator {
    /// Builds the estimator for `φ(params; point_vars)` against `db`,
    /// drawing `M(ε, δ, d)` unit-cube points through the witness operator.
    ///
    /// `d` is the VC dimension (or an upper bound, e.g.
    /// [`crate::vc::prop6_bound`]) of the family.
    // The signature mirrors Theorem 4's data (φ, parameters, point space,
    // ε, δ, d, witness source); bundling them would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        db: &Database,
        phi: &Formula,
        params: &[Var],
        point_vars: &[Var],
        eps: f64,
        delta: f64,
        d: f64,
        witness: &mut Witness,
    ) -> Result<UniformVolumeEstimator, ApproxError> {
        Self::new_with_budget(
            db,
            phi,
            params,
            point_vars,
            eps,
            delta,
            d,
            witness,
            &EvalBudget::unlimited(),
        )
    }

    /// [`UniformVolumeEstimator::new`] under a cooperative [`EvalBudget`]:
    /// the QE/compile phase aborts with [`ApproxError::Budget`] when the
    /// budget is exhausted.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_budget(
        db: &Database,
        phi: &Formula,
        params: &[Var],
        point_vars: &[Var],
        eps: f64,
        delta: f64,
        d: f64,
        witness: &mut Witness,
        budget: &EvalBudget,
    ) -> Result<UniformVolumeEstimator, ApproxError> {
        let slots = SlotMap::new(&[params, point_vars]);
        let (matrix, kernel) = compile_matrix(db, phi, &slots, budget)?;
        let m = try_sample_size(eps, delta, d)?;
        let sample = witness.uniform_sample(m, point_vars.len());
        let sample_f64 = sample
            .iter()
            .map(|p| p.iter().map(Rat::to_f64).collect())
            .collect();
        Ok(UniformVolumeEstimator {
            matrix,
            kernel,
            n_params: params.len(),
            sample,
            sample_f64,
        })
    }

    /// Number of sample points (`M`).
    pub fn sample_len(&self) -> usize {
        self.sample.len()
    }

    /// The quantifier-free matrix over `params ∪ point_vars` (the
    /// reference oracle the compiled kernel is checked against).
    pub fn matrix(&self) -> &Formula {
        &self.matrix
    }

    /// The shared sample (exact dyadic unit-cube points).
    pub fn sample(&self) -> &[Vec<Rat>] {
        &self.sample
    }

    /// The estimated `VOL_I(φ(ā, D))`: the fraction of the shared sample
    /// falling in the set.
    pub fn estimate(&self, a: &[Rat]) -> Result<Rat, ApproxError> {
        self.estimate_with_threads(a, default_threads())
    }

    /// [`Self::estimate`] with an explicit worker count. The result is
    /// identical for every `threads` value (the sample is fixed and chunk
    /// tallies combine in chunk order).
    pub fn estimate_with_threads(&self, a: &[Rat], threads: usize) -> Result<Rat, ApproxError> {
        self.estimate_budgeted(a, threads, &EvalBudget::unlimited())
    }

    /// [`Self::estimate_with_threads`] under a cooperative [`EvalBudget`]:
    /// the budget is checked once per sample point (shared atomically
    /// across worker threads) and the scan aborts with
    /// [`ApproxError::Budget`] when it is exhausted.
    pub fn estimate_budgeted(
        &self,
        a: &[Rat],
        threads: usize,
        budget: &EvalBudget,
    ) -> Result<Rat, ApproxError> {
        if a.len() != self.n_params {
            return Err(ApproxError::ParamArity {
                expected: self.n_params,
                got: a.len(),
            });
        }
        let np = self.n_params;
        let n_slots = self.kernel.slot_count();
        let dim = n_slots - np;
        let mut param_f64 = vec![0.0f64; np];
        let mut param_err = vec![0.0f64; np];
        for (i, r) in a.iter().enumerate() {
            (param_f64[i], param_err[i]) = rat_to_f64_err(r);
        }
        let per_chunk = par::map_chunks_scratch(
            self.sample.len(),
            threads,
            || (Batch::new(n_slots), BatchScratch::new()),
            |range, _, state| -> Result<usize, BudgetExceeded> {
                let (batch, scratch) = state;
                for _ in range.clone() {
                    budget.check()?;
                }
                batch.set_len(range.len());
                // Parameters broadcast into the leading slots (with their
                // conversion error bounds), then the shared sample
                // transposes into the point columns.
                for (s, (&v, &e)) in param_f64.iter().zip(&param_err).enumerate() {
                    batch.set_uniform(s, v, e);
                }
                for d in 0..dim {
                    let col = batch.col_mut(np + d);
                    for (lane, i) in range.clone().enumerate() {
                        col[lane] = self.sample_f64[i][d];
                    }
                }
                let base = range.start;
                let batch = &*batch;
                let exact = |lane: usize, slot: usize| {
                    if slot < np {
                        a[slot].clone()
                    } else {
                        self.sample[base + lane][slot - np].clone()
                    }
                };
                Ok(self.kernel.eval_batch(batch, &exact, scratch).mask.count())
            },
        )?;
        let mut hits = 0usize;
        for h in per_chunk {
            hits += h?;
        }
        Ok(Rat::new(
            (hits as i64).into(),
            (self.sample.len() as i64).into(),
        ))
    }
}

/// One-shot Monte Carlo `VOL_I` for a closed (parameter-free) formula with
/// `m` fresh sample points.
pub fn mc_volume_in_unit_box(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    m: usize,
    witness: &mut Witness,
) -> Result<Rat, ApproxError> {
    mc_volume_in_unit_box_threads(db, phi, point_vars, m, witness, default_threads())
}

/// [`mc_volume_in_unit_box`] with an explicit worker count.
///
/// Points are drawn through per-chunk witnesses split off the caller's
/// witness ([`Witness::fork`]), so the estimate is a pure function of the
/// witness seed, `m`, and the query — identical for every `threads` value.
pub fn mc_volume_in_unit_box_threads(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    m: usize,
    witness: &mut Witness,
    threads: usize,
) -> Result<Rat, ApproxError> {
    mc_volume_in_unit_box_budgeted(
        db,
        phi,
        point_vars,
        m,
        witness,
        threads,
        &EvalBudget::unlimited(),
    )
}

/// [`mc_volume_in_unit_box_threads`] under a cooperative [`EvalBudget`]:
/// the budget governs the QE/compile phase and is checked once per sample
/// point (shared atomically across worker threads).
pub fn mc_volume_in_unit_box_budgeted(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    m: usize,
    witness: &mut Witness,
    threads: usize,
    budget: &EvalBudget,
) -> Result<Rat, ApproxError> {
    Ok(mc_volume_in_unit_box_stats(db, phi, point_vars, m, witness, threads, budget)?.0)
}

/// [`mc_volume_in_unit_box_budgeted`], additionally returning the batched
/// kernel's [`LaneStats`] — how many sample lanes the certified `f64`
/// sweep decided vs how many took the exact fallback — so callers can
/// surface the fallback rate instead of absorbing it as a silent slowdown.
///
/// This is the one Monte Carlo volume hot path: each scheduling chunk
/// fills one structure-of-arrays [`Batch`] straight from its witness
/// substream and sweeps it through [`CompiledMatrix::eval_batch`] with
/// per-worker reusable scratch. The draw order inside a chunk matches the
/// per-point loop this replaces, so estimates are bit-identical to the
/// scalar kernel's for every `threads` value.
#[allow(clippy::too_many_arguments)]
pub fn mc_volume_in_unit_box_stats(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    m: usize,
    witness: &mut Witness,
    threads: usize,
    budget: &EvalBudget,
) -> Result<(Rat, LaneStats), ApproxError> {
    let slots = SlotMap::from_vars(point_vars);
    let (_, kernel) = compile_matrix(db, phi, &slots, budget)?;
    let splitter = witness.fork();
    witness.note_applications(m);
    let dim = point_vars.len();
    let kernel = &kernel;
    let per_chunk = par::map_chunks_scratch(
        m,
        threads,
        || (Batch::new(dim), BatchScratch::new()),
        |range, chunk, state| -> Result<(usize, LaneStats), BudgetExceeded> {
            let (batch, scratch) = state;
            for _ in range.clone() {
                budget.check()?;
            }
            let mut w = splitter.chunk(chunk as u64);
            batch.set_len(range.len());
            w.fill_unit_columns(batch, 0, dim);
            let batch = &*batch;
            let exact =
                |lane: usize, slot: usize| Rat::from_f64(batch.value(slot, lane)).expect("finite");
            let r = kernel.eval_batch(batch, &exact, scratch);
            let mut stats = LaneStats::default();
            stats.add(&r);
            Ok((r.mask.count(), stats))
        },
    )?;
    let mut hits = 0usize;
    let mut stats = LaneStats::default();
    for h in per_chunk {
        let (h, s) = h?;
        hits += h;
        stats.merge(s);
    }
    Ok((Rat::new((hits as i64).into(), (m as i64).into()), stats))
}

/// Monte Carlo estimate of the *average of a polynomial over a spatial
/// object* (the §1 motivation behind Theorem 1's AVG analysis): draws `m`
/// unit-cube points, and returns `Σ p(s) / #hits` over the sample points
/// `s` falling in the set. `None` if no sample point hits the set.
pub fn mc_average_over(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    p: &cqa_poly::MPoly,
    m: usize,
    witness: &mut Witness,
) -> Result<Option<Rat>, ApproxError> {
    mc_average_over_threads(db, phi, point_vars, p, m, witness, default_threads())
}

/// [`mc_average_over`] with an explicit worker count. Chunk sums are exact
/// rationals combined in chunk order, so the result is identical for every
/// `threads` value.
pub fn mc_average_over_threads(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    p: &cqa_poly::MPoly,
    m: usize,
    witness: &mut Witness,
    threads: usize,
) -> Result<Option<Rat>, ApproxError> {
    mc_average_over_budgeted(
        db,
        phi,
        point_vars,
        p,
        m,
        witness,
        threads,
        &EvalBudget::unlimited(),
    )
}

/// [`mc_average_over_threads`] under a cooperative [`EvalBudget`]: the
/// budget governs the QE/compile phase and is checked once per sample
/// point (shared atomically across worker threads).
#[allow(clippy::too_many_arguments)]
pub fn mc_average_over_budgeted(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    p: &cqa_poly::MPoly,
    m: usize,
    witness: &mut Witness,
    threads: usize,
    budget: &EvalBudget,
) -> Result<Option<Rat>, ApproxError> {
    let slots = SlotMap::from_vars(point_vars);
    let (_, kernel) = compile_matrix(db, phi, &slots, budget)?;
    let splitter = witness.fork();
    witness.note_applications(m);
    let dim = point_vars.len();
    let kernel = &kernel;
    let slots = &slots;
    let per_chunk = par::map_chunks_scratch(
        m,
        threads,
        // Per-worker scratch: the batch, the kernel scratch, and one
        // reusable rational point buffer for the hit lanes — no per-point
        // heap allocation on the hot path.
        || (Batch::new(dim), BatchScratch::new(), vec![Rat::zero(); dim]),
        |range, chunk, state| -> Result<(usize, Rat), BudgetExceeded> {
            let (batch, scratch, pt) = state;
            for _ in range.clone() {
                budget.check()?;
            }
            let mut w = splitter.chunk(chunk as u64);
            batch.set_len(range.len());
            w.fill_unit_columns(batch, 0, dim);
            let batch = &*batch;
            let exact =
                |lane: usize, slot: usize| Rat::from_f64(batch.value(slot, lane)).expect("finite");
            let r = kernel.eval_batch(batch, &exact, scratch);
            let mut hits = 0usize;
            let mut acc = Rat::zero();
            for lane in 0..batch.len() {
                if r.mask.get(lane) {
                    hits += 1;
                    for (d, c) in pt.iter_mut().enumerate() {
                        *c = Rat::from_f64(batch.value(d, lane)).expect("finite");
                    }
                    acc += &p.eval(&slots.assignment(pt));
                }
            }
            Ok((hits, acc))
        },
    )?;
    let mut hits = 0usize;
    let mut acc = Rat::zero();
    for r in per_chunk {
        let (h, a) = r?;
        hits += h;
        acc += &a;
    }
    if hits == 0 {
        return Ok(None);
    }
    Ok(Some(acc / Rat::from(hits as i64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula_with;

    #[test]
    fn halfspace_volume_estimate() {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("x + y <= 1", db.vars_mut()).unwrap();
        let mut w = Witness::new(11);
        let v = mc_volume_in_unit_box(&db, &phi, &[x, y], 4000, &mut w).unwrap();
        assert!((v.to_f64() - 0.5).abs() < 0.05);
    }

    #[test]
    fn uniform_estimator_over_parameter_grid() {
        // φ(a; y1, y2) ≡ a < y1 < 1 ∧ 0 ≤ y2 ≤ y1: VOL_I = (1 − a²)/2.
        let mut db = Database::new();
        let a = db.vars_mut().intern("a");
        let y1 = db.vars_mut().intern("y1");
        let y2 = db.vars_mut().intern("y2");
        let phi =
            parse_formula_with("a < y1 & y1 < 1 & 0 <= y2 & y2 <= y1", db.vars_mut()).unwrap();
        for eps in [0.05, 0.2] {
            let mut w = Witness::new(23);
            let est =
                UniformVolumeEstimator::new(&db, &phi, &[a], &[y1, y2], eps, 0.1, 2.0, &mut w)
                    .unwrap();
            // Uniform accuracy over many parameter values from one sample.
            for k in 0..10 {
                let av = Rat::new(k.into(), 10i64.into());
                let truth = (1.0 - av.to_f64().powi(2)) / 2.0;
                let got = est.estimate(&[av]).unwrap().to_f64();
                assert!(
                    (got - truth).abs() < eps,
                    "ε = {eps}, a = {k}/10: {got} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn estimator_uses_bounded_sample() {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let phi = parse_formula_with("x >= 0.25", db.vars_mut()).unwrap();
        let mut w = Witness::new(5);
        let est = UniformVolumeEstimator::new(&db, &phi, &[], &[x], 0.1, 0.1, 1.0, &mut w).unwrap();
        assert_eq!(est.sample_len(), crate::sample::sample_size(0.1, 0.1, 1.0));
        let v = est.estimate(&[]).unwrap();
        assert!((v.to_f64() - 0.75).abs() < 0.1);
    }

    #[test]
    fn mc_average_matches_exact_integral() {
        // Average of x over the unit right triangle is 1/3 (exact engine:
        // cqa_agg::average_over_2d); MC should land nearby.
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", db.vars_mut()).unwrap();
        let mut w = Witness::new(31);
        let avg = mc_average_over(&db, &phi, &[x, y], &cqa_poly::MPoly::var(x), 6000, &mut w)
            .unwrap()
            .unwrap();
        assert!((avg.to_f64() - 1.0 / 3.0).abs() < 0.02, "{}", avg.to_f64());
    }

    #[test]
    fn mc_average_of_empty_region() {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let phi = parse_formula_with("x > 2", db.vars_mut()).unwrap();
        let mut w = Witness::new(1);
        assert_eq!(
            mc_average_over(&db, &phi, &[x], &cqa_poly::MPoly::var(x), 100, &mut w).unwrap(),
            None
        );
    }

    #[test]
    fn database_relation_in_estimate() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        let x = db.vars_mut().get("x").unwrap();
        let y = db.vars_mut().get("y").unwrap();
        let phi = parse_formula_with("T(x, y)", db.vars_mut()).unwrap();
        let mut w = Witness::new(99);
        let v = mc_volume_in_unit_box(&db, &phi, &[x, y], 4000, &mut w).unwrap();
        assert!((v.to_f64() - 0.5).abs() < 0.05);
    }
}
