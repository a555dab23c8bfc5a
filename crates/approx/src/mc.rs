//! Theorem 4: uniform Monte Carlo approximation of `VOL_I(φ(ā, D))`.
//!
//! One sample, all parameters: because the definable family
//! `{φ(ā, D) : ā}` has VC dimension `≤ C·log|D|` (Proposition 6), a single
//! `M(ε, δ, d)`-point sample gives an `ε`-accurate empirical volume for
//! *every* parameter vector simultaneously, with probability ≥ 1 − δ.
//! That is what distinguishes Theorem 4 from naive per-query sampling —
//! and what [`UniformVolumeEstimator`] implements.
//!
//! The same theorem is why one sampler serves the whole stack. [`Sweep`]
//! decides any number of compiled kernels over lanes `a..b` of one witness
//! stream: the stream jumps straight to draw `a·dim`, each
//! [`BATCH_LANES`]-lane batch of point columns is filled once, and every
//! kernel (behind its optional bounding box) sweeps it before the next
//! fill. `cqa-engine` answers `EXEC`, `VOLUME` and `BATCH` with
//! [`Sweep::lanes`]; [`mc_volume_in_unit_box`], [`mc_average_over`],
//! [`UniformVolumeEstimator`] and `cqa_agg::volume_with_fallback` use
//! [`Sweep::parallel`], which cuts the lanes at batch boundaries
//! ([`lane_parts`]) so every lane sees the batch the serial sweep gives it,
//! and the answer is the same for every thread count.

use crate::error::ApproxError;
use crate::par;
use crate::sample::{try_sample_size, Witness};
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{
    rat_to_f64_err, Batch, BatchScratch, CompiledMatrix, Formula, LaneMask, LaneStats, SlotMap,
    BATCH_LANES,
};
use cqa_poly::Var;
use cqa_qe::QeError;
use std::ops::Range;

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
) -> Result<CompiledMatrix, ApproxError> {
    let expanded = db.expand(phi).map_err(|_| QeError::HasRelations)?;
    let matrix = cqa_qe::eliminate(&expanded, budget)?;
    Ok(CompiledMatrix::compile(&matrix, slots).map_err(|e| QeError::Residual(e.to_string()))?)
}

/// Cuts lanes `0..samples` into at most `parts` contiguous ranges of
/// whole [`BATCH_LANES`]-lane batches, in order, their batch counts
/// differing by at most one; the last range ends at `samples`, and none
/// is empty unless `samples` is 0.
pub fn lane_parts(samples: usize, parts: usize) -> Vec<Range<usize>> {
    let batches = samples.div_ceil(BATCH_LANES);
    let parts = parts.clamp(1, batches.max(1));
    let edge = |p: usize| (p * batches / parts * BATCH_LANES).min(samples);
    (0..parts).map(|p| edge(p)..edge(p + 1)).collect()
}

/// A compiled kernel and its optional bounding box ([`Sweep::kernels`]).
pub type BoxedKernel<'a> = (&'a CompiledMatrix, Option<&'a [(f64, f64)]>);

/// What a [`Sweep`] counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Per kernel, the lanes at which it holds.
    pub hits: Vec<usize>,
    /// Lanes the certified `f64` sweep decided and lanes that re-ran
    /// exactly, over every kernel.
    pub lanes: LaneStats,
    /// Lanes a kernel's box ruled out before its sweep, over every kernel.
    pub box_skipped: u64,
}

/// The Monte Carlo sweep: `kernels`, each compiled over `params.len()`
/// parameter slots followed by `dim` point slots, decided at the points
/// of `stream`. Lane `i` is the `i`-th `dim`-coordinate point the stream
/// draws, so every kernel reads the same sample (Theorem 4), and the
/// parameters fill their columns as constants.
pub struct Sweep<'a> {
    /// The kernels, each with an optional bounding box: every point that
    /// satisfies the kernel lies in `box[s] = (lo, hi)` for each slot
    /// `s < box.len()`, so lanes outside it are misses without a sweep.
    pub kernels: &'a [BoxedKernel<'a>],
    /// The parameter values, one leading constant column each.
    pub params: &'a [Rat],
    /// Coordinates per sample point.
    pub dim: usize,
    /// The witness positioned at lane 0; the sweep reads a copy.
    pub stream: &'a Witness,
}

impl Sweep<'_> {
    /// Decides every kernel over lanes `lanes` of the stream, calling
    /// `visit(k, batch, hits)` for each batch kernel `k` sweeps, with the
    /// lanes of that batch where it holds (when the kernel has a box, the
    /// batch is the box's kept lanes, compacted in lane order).
    ///
    /// `lanes.start` must fall on a [`BATCH_LANES`] boundary: the witness
    /// jumps straight to draw `lanes.start · dim` and fills one
    /// structure-of-arrays [`Batch`] at a time from there (draws in the
    /// per-point loop's order), so every batch is the one the whole-stream
    /// sweep fills, with the same `max |x|` and so the same certified
    /// lanes. Each kernel decides every lane of a batch before the next
    /// fill, so the stream is drawn once however many kernels read it. A
    /// kernel's count depends only on the stream, the parameters and its
    /// kernel: sweeping it alone, beside others, or range by range gives
    /// the same total. The budget is checked once per batch.
    pub fn lanes<V>(
        &self,
        lanes: Range<usize>,
        budget: &EvalBudget,
        mut visit: V,
    ) -> Result<SweepCounts, BudgetExceeded>
    where
        V: FnMut(usize, &Batch, &LaneMask),
    {
        debug_assert_eq!(lanes.start % BATCH_LANES, 0, "{lanes:?}");
        let np = self.params.len();
        let mut w = self.stream.clone();
        w.advance((lanes.start * self.dim) as u64);
        let mut batch = Batch::new(np + self.dim);
        let mut sub = Batch::new(np + self.dim);
        // The parameters broadcast once, with their conversion error
        // bounds; fills only ever shorten the batch after this.
        batch.set_len(BATCH_LANES);
        for (slot, a) in self.params.iter().enumerate() {
            let (v, e) = rat_to_f64_err(a);
            batch.set_uniform(slot, v, e);
        }
        let mut scratch = BatchScratch::new();
        let mut counts = SweepCounts {
            hits: vec![0; self.kernels.len()],
            ..SweepCounts::default()
        };
        let mut done = lanes.start;
        while done < lanes.end {
            budget.check()?;
            batch.set_len((lanes.end - done).min(BATCH_LANES));
            w.fill_unit_columns(&mut batch, np, self.dim);
            for (k, &(kernel, bbox)) in self.kernels.iter().enumerate() {
                // The box certifies that every satisfying point lies inside
                // it, so lanes outside are kernel-false and skip the sweep.
                // The draws are untouched (same stream) and skipped lanes
                // contribute exactly the zero hits they would have, so the
                // count is the unfiltered sweep's. The box test builds
                // lane-mask words, and the kept lanes are compacted from
                // the words' set bits.
                let b = match bbox {
                    Some(bx) => {
                        let keep = batch.lanes_in_box(bx);
                        let kept = keep.count();
                        counts.box_skipped += (batch.len() - kept) as u64;
                        if kept == 0 {
                            continue;
                        } else if kept == batch.len() {
                            &batch
                        } else {
                            batch.compact_into(&keep, &mut sub);
                            &sub
                        }
                    }
                    None => &batch,
                };
                let exact = |lane: usize, slot: usize| match self.params.get(slot) {
                    Some(a) => a.clone(),
                    None => Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate"),
                };
                let r = kernel.eval_batch(b, &exact, &mut scratch);
                counts.hits[k] += r.mask.count();
                counts.lanes.add(&r);
                visit(k, b, &r.mask);
            }
            done += batch.len();
        }
        Ok(counts)
    }

    /// [`Sweep::lanes`] over lanes `0..samples`, cut by [`lane_parts`]
    /// into at most `threads` ranges swept side by side. Each range visits
    /// its own `A::default()` accumulator, and the accumulators come back
    /// in lane order. The counts are the serial sweep's for every
    /// `threads`. A panicking range surfaces as
    /// [`ApproxError::WorkerPanicked`]; a budget trip as
    /// [`ApproxError::Budget`] (the lowest range's).
    pub fn parallel<A, V>(
        &self,
        samples: usize,
        threads: usize,
        budget: &EvalBudget,
        visit: V,
    ) -> Result<(SweepCounts, Vec<A>), ApproxError>
    where
        A: Default + Send,
        V: Fn(&mut A, usize, &Batch, &LaneMask) + Sync,
    {
        let parts = lane_parts(samples, threads);
        let done = par::map_items(parts.len(), threads, |p| {
            let mut acc = A::default();
            let counts =
                self.lanes(parts[p].clone(), budget, |k, b, m| visit(&mut acc, k, b, m))?;
            Ok::<_, BudgetExceeded>((counts, acc))
        })?;
        let mut counts = SweepCounts {
            hits: vec![0; self.kernels.len()],
            ..SweepCounts::default()
        };
        let mut accs = Vec::with_capacity(done.len());
        for part in done {
            let (c, acc) = part?;
            for (h, ch) in counts.hits.iter_mut().zip(c.hits) {
                *h += ch;
            }
            counts.lanes.merge(c.lanes);
            counts.box_skipped += c.box_skipped;
            accs.push(acc);
        }
        Ok((counts, accs))
    }
}

/// A volume estimator sharing one sample across all parameter vectors.
pub struct UniformVolumeEstimator {
    kernel: CompiledMatrix,
    dim: usize,
    samples: usize,
    /// The witness at the sample's first draw: every estimate re-reads the
    /// same `samples` points from it.
    stream: Witness,
}

impl UniformVolumeEstimator {
    /// Builds the estimator for `φ(params; point_vars)` against `db`,
    /// lending `M(ε, δ, d)` unit-cube points from the witness operator
    /// (see [`Witness::lend`]). Relation expansion and quantifier
    /// elimination run under `budget`.
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
        budget: &EvalBudget,
    ) -> Result<UniformVolumeEstimator, ApproxError> {
        let kernel = compile_matrix(db, phi, &SlotMap::new(&[params, point_vars]), budget)?;
        let samples = try_sample_size(eps, delta, d)?;
        Ok(UniformVolumeEstimator {
            kernel,
            dim: point_vars.len(),
            samples,
            stream: witness.lend(samples, point_vars.len()),
        })
    }

    /// Number of sample points (`M`).
    pub fn sample_len(&self) -> usize {
        self.samples
    }

    /// The estimated `VOL_I(φ(ā, D))`: the fraction of the shared sample
    /// falling in the set, on up to `threads` workers (the value is the
    /// same for every `threads`), checking `budget` once per batch.
    pub fn estimate(
        &self,
        a: &[Rat],
        threads: usize,
        budget: &EvalBudget,
    ) -> Result<Rat, ApproxError> {
        let expected = self.kernel.slot_count() - self.dim;
        if a.len() != expected {
            return Err(ApproxError::ParamArity {
                expected,
                got: a.len(),
            });
        }
        let sweep = Sweep {
            kernels: &[(&self.kernel, None)],
            params: a,
            dim: self.dim,
            stream: &self.stream,
        };
        let (counts, _) =
            sweep.parallel::<(), _>(self.samples, threads, budget, |_, _, _, _| {})?;
        Ok(Rat::from(counts.hits[0] as i64) / Rat::from(self.samples as i64))
    }
}

/// One-shot Monte Carlo `VOL_I` for a closed (parameter-free) formula over
/// the next `m` points of `witness`, on up to `threads` workers (the value
/// is the same for every `threads`). `budget` governs the QE/compile
/// phase and is checked once per batch of the sweep.
pub fn mc_volume_in_unit_box(
    db: &Database,
    phi: &Formula,
    point_vars: &[Var],
    m: usize,
    witness: &mut Witness,
    threads: usize,
    budget: &EvalBudget,
) -> Result<Rat, ApproxError> {
    let kernel = compile_matrix(db, phi, &SlotMap::from_vars(point_vars), budget)?;
    let sweep = Sweep {
        kernels: &[(&kernel, None)],
        params: &[],
        dim: point_vars.len(),
        stream: &witness.lend(m, point_vars.len()),
    };
    let (counts, _) = sweep.parallel::<(), _>(m, threads, budget, |_, _, _, _| {})?;
    Ok(Rat::from(counts.hits[0] as i64) / Rat::from(m as i64))
}

/// Monte Carlo estimate of the *average of a polynomial over a spatial
/// object* (the §1 motivation behind Theorem 1's AVG analysis): over the
/// next `m` points `s` of `witness`, returns `Σ p(s) / #hits` over the
/// points falling in the set. `None` if no sample point hits the set.
/// Range sums are exact rationals, so the result is the same for every
/// `threads`; `budget` is used as in [`mc_volume_in_unit_box`].
#[allow(clippy::too_many_arguments)]
pub fn mc_average_over(
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
    let kernel = compile_matrix(db, phi, &slots, budget)?;
    let dim = point_vars.len();
    let sweep = Sweep {
        kernels: &[(&kernel, None)],
        params: &[],
        dim,
        stream: &witness.lend(m, dim),
    };
    let (counts, sums) = sweep.parallel(m, threads, budget, |acc: &mut Rat, _, batch, hits| {
        let mut pt = vec![Rat::zero(); dim];
        for lane in (0..batch.len()).filter(|&lane| hits.get(lane)) {
            for (d, c) in pt.iter_mut().enumerate() {
                *c = Rat::from_f64(batch.value(d, lane)).expect("finite");
            }
            *acc += &p.eval(&slots.assignment(&pt));
        }
    })?;
    let hits = counts.hits[0];
    if hits == 0 {
        return Ok(None);
    }
    let total = sums.iter().fold(Rat::zero(), |t, s| t + s);
    Ok(Some(total / Rat::from(hits as i64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula_with;

    fn unlimited() -> EvalBudget {
        EvalBudget::unlimited()
    }

    #[test]
    fn halfspace_volume_estimate() {
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("x + y <= 1", db.vars_mut()).unwrap();
        let mut w = Witness::new(11);
        let v = mc_volume_in_unit_box(&db, &phi, &[x, y], 4000, &mut w, 2, &unlimited()).unwrap();
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
            let est = UniformVolumeEstimator::new(
                &db,
                &phi,
                &[a],
                &[y1, y2],
                eps,
                0.1,
                2.0,
                &mut w,
                &unlimited(),
            )
            .unwrap();
            // Uniform accuracy over many parameter values from one sample.
            for k in 0..10 {
                let av = Rat::new(k.into(), 10i64.into());
                let truth = (1.0 - av.to_f64().powi(2)) / 2.0;
                let got = est.estimate(&[av], 2, &unlimited()).unwrap().to_f64();
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
        let est =
            UniformVolumeEstimator::new(&db, &phi, &[], &[x], 0.1, 0.1, 1.0, &mut w, &unlimited())
                .unwrap();
        assert_eq!(est.sample_len(), crate::sample::sample_size(0.1, 0.1, 1.0));
        let v = est.estimate(&[], 2, &unlimited()).unwrap();
        assert!((v.to_f64() - 0.75).abs() < 0.1);
    }

    #[test]
    fn mc_average_matches_exact_integral() {
        // Average of x over the unit right triangle is 1/3 (exact engine:
        // cqa_agg::average); MC should land nearby.
        let mut db = Database::new();
        let x = db.vars_mut().intern("x");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", db.vars_mut()).unwrap();
        let mut w = Witness::new(31);
        let p = cqa_poly::MPoly::var(x);
        let avg = mc_average_over(&db, &phi, &[x, y], &p, 6000, &mut w, 2, &unlimited())
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
        let p = cqa_poly::MPoly::var(x);
        assert_eq!(
            mc_average_over(&db, &phi, &[x], &p, 100, &mut w, 2, &unlimited()).unwrap(),
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
        let v = mc_volume_in_unit_box(&db, &phi, &[x, y], 4000, &mut w, 2, &unlimited()).unwrap();
        assert!((v.to_f64() - 0.5).abs() < 0.05);
    }

    #[test]
    fn lane_parts_cut_whole_batches_in_order() {
        for samples in [
            1,
            381,
            BATCH_LANES,
            BATCH_LANES + 1,
            739,
            26_493,
            4 * BATCH_LANES,
        ] {
            let batches = samples.div_ceil(BATCH_LANES);
            for parts in [1, 2, 3, 7, 64] {
                let cut = lane_parts(samples, parts);
                assert_eq!(cut.len(), parts.min(batches), "{samples} / {parts}");
                assert_eq!(cut[0].start, 0);
                assert_eq!(cut.last().unwrap().end, samples);
                for pair in cut.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{cut:?}");
                }
                let sizes: Vec<usize> = cut.iter().map(|r| r.len().div_ceil(BATCH_LANES)).collect();
                for r in &cut {
                    assert!(!r.is_empty() && r.start % BATCH_LANES == 0, "{cut:?}");
                }
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{cut:?}");
            }
        }
        let none = lane_parts(0, 2);
        assert!(none.len() == 1 && none[0] == (0..0), "{none:?}");
    }
}
