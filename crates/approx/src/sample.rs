//! Sample-size bounds and the witness operator `W`.

use cqa_arith::Rat;
use cqa_logic::BATCH_LANES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Blumer–Ehrenfeucht–Haussler–Warmuth sample size: with
/// `M > max((4/ε)·log₂(2/δ), (8d/ε)·log₂(13/ε))` uniform points, the
/// empirical fraction is within `ε` of the measure *simultaneously for
/// every set of a VC-dimension-`d` family*, with probability ≥ 1 − δ
/// (paper §3).
///
/// # Panics
/// Panics if `ε ∉ (0, 1)`, `δ ∉ (0, 1)` or `d < 0`; use
/// [`try_sample_size`] when the parameters come from untrusted input.
pub fn sample_size(eps: f64, delta: f64, d: f64) -> usize {
    match try_sample_size(eps, delta, d) {
        Ok(m) => m,
        Err(e) => panic!("sample_size: {e}"),
    }
}

/// [`sample_size`] with a typed error instead of a panic on out-of-range
/// parameters (`ε, δ ∈ (0, 1)`, `d ≥ 0`).
pub fn try_sample_size(eps: f64, delta: f64, d: f64) -> Result<usize, crate::ApproxError> {
    if !(eps > 0.0 && eps < 1.0) {
        return Err(crate::ApproxError::InvalidParameter(format!(
            "ε must lie in (0, 1), got {eps}"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(crate::ApproxError::InvalidParameter(format!(
            "δ must lie in (0, 1), got {delta}"
        )));
    }
    if d < 0.0 || d.is_nan() {
        return Err(crate::ApproxError::InvalidParameter(format!(
            "VC dimension bound must be ≥ 0, got {d}"
        )));
    }
    let a = (4.0 / eps) * (2.0 / delta).log2();
    let b = (8.0 * d / eps) * (13.0 / eps).log2();
    Ok(a.max(b).ceil() as usize + 1)
}

/// Most samples one Hoeffding count may ask for: an (ε, δ) whose count
/// passes it is refused. Sampling is never charged to an evaluation
/// budget, so this is what bounds it. The slowest kernel in the engine's
/// tests, the lens of `degraded_answers_report_their_steps`, sweeps
/// ≈ 70 ns a lane (release build, 2-vCPU x86-64 host): 2²⁴ lanes took
/// 1.2 s of the server's default 2 s timeout, 2²³ take ≈ 0.6 s (DESIGN §7).
pub const MAX_SAMPLES: usize = 1 << 23;

/// Hoeffding sample size for an additive (ε, δ) guarantee on the measure
/// of one fixed set, `⌈ln(2/δ)/2ε²⌉ + 1` — no VC-dimension factor, unlike
/// [`sample_size`]. [`crate::ApproxError::InvalidParameter`] names the
/// problem: ε or δ outside (0, 1), or a count past [`MAX_SAMPLES`]
/// (ε = 10⁻²⁰⁰ squares to 0 and would need infinitely many).
pub fn hoeffding_sample_size(eps: f64, delta: f64) -> Result<usize, crate::ApproxError> {
    let invalid = |msg| Err(crate::ApproxError::InvalidParameter(msg));
    if !(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0) {
        return invalid(format!("eps/delta must lie in (0,1), got {eps}/{delta}"));
    }
    let n = ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil().max(1.0) + 1.0;
    if n > MAX_SAMPLES as f64 {
        let shown = if n < 1e15 {
            n.to_string()
        } else {
            format!("{n:.3e}")
        };
        return invalid(format!(
            "eps/delta {eps}/{delta} need {shown} samples, over the cap of {MAX_SAMPLES}"
        ));
    }
    Ok(n as usize)
}

/// The witness (choice) operator `W` of Abiteboul–Vianu, as used in
/// Theorem 4: a seeded source of random choices. Each call is one
/// application of `W` in the paper's operation count.
#[derive(Clone)]
pub struct Witness {
    rng: StdRng,
    calls: usize,
}

impl Witness {
    /// A deterministic witness source (seeded — experiments are
    /// reproducible).
    pub fn new(seed: u64) -> Witness {
        Witness {
            rng: StdRng::seed_from_u64(seed),
            calls: 0,
        }
    }

    /// How many witness applications have been made.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Lends the next `points` points of `dim` coordinates: returns this
    /// witness as it stands, then moves it past their `points · dim` draws,
    /// counting `points` applications, as if it had drawn them itself. A
    /// sweep may re-read the lent points from the copy as often as it
    /// likes (Theorem 4 counts the sample once), and the caller's next
    /// draw is the one after them.
    pub fn lend(&mut self, points: usize, dim: usize) -> Witness {
        let start = self.clone();
        self.calls += points;
        self.advance((points * dim) as u64);
        start
    }

    /// `W y⃗.(y⃗ ∈ I^dim)`: a uniform point of the unit cube, as exact
    /// dyadic rationals (the `f64` values convert exactly).
    pub fn uniform_unit_point(&mut self, dim: usize) -> Vec<Rat> {
        self.calls += 1;
        (0..dim)
            .map(|_| Rat::from_f64(self.rng.random::<f64>()).expect("finite"))
            .collect()
    }

    /// Fills the point-variable columns of `batch` — slots `first_slot ..
    /// first_slot + dim` — with one uniform unit-cube point per active
    /// lane, straight into the structure-of-arrays buffers (no per-point
    /// allocation). Draws are made lane-major (point 0's coordinates in
    /// order, then point 1's, …), the exact sequence a per-point
    /// [`Self::uniform_unit_point`] loop would make, so batched and
    /// per-point estimators see identical samples. Counts one witness
    /// application per lane. Coordinates are exactly representable
    /// dyadics, so the filled columns are exact. The `dim` columns are
    /// borrowed once per batch, not once per draw.
    pub fn fill_unit_columns(
        &mut self,
        batch: &mut cqa_logic::Batch,
        first_slot: usize,
        dim: usize,
    ) {
        let len = batch.len();
        self.calls += len;
        let cols = batch.cols_mut(first_slot, dim);
        for lane in 0..len {
            for col in cols.chunks_exact_mut(BATCH_LANES) {
                col[lane] = self.rng.random::<f64>();
            }
        }
    }

    /// Skips the next `draws` coordinates of the stream, exactly as if
    /// they had been drawn and discarded, without counting them as witness
    /// applications: a sweep over lanes `a..b` of a `dim`-coordinate
    /// stream starts from `Witness::new(seed)` advanced by `a·dim`. Costs
    /// about as much as 256 draws plus one GF(2) polynomial product per
    /// set bit of `draws`, whatever the distance.
    pub fn advance(&mut self, draws: u64) {
        self.rng.advance(draws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_size_monotonicity() {
        let base = sample_size(0.1, 0.1, 4.0);
        assert!(sample_size(0.05, 0.1, 4.0) > base); // tighter ε
        assert!(sample_size(0.1, 0.01, 4.0) >= base); // tighter δ
        assert!(sample_size(0.1, 0.1, 8.0) > base); // richer family
    }

    #[test]
    fn sample_size_formula() {
        // d = 0 leaves only the δ term.
        let m = sample_size(0.5, 0.5, 0.0);
        assert_eq!(m, ((4.0 / 0.5) * (2.0f64 / 0.5).log2()).ceil() as usize + 1);
    }

    #[test]
    fn witness_reproducibility() {
        let (mut w1, mut w2, mut w3) = (Witness::new(7), Witness::new(7), Witness::new(8));
        for _ in 0..5 {
            let p = w1.uniform_unit_point(2);
            assert_eq!(p, w2.uniform_unit_point(2));
            assert_ne!(p, w3.uniform_unit_point(2));
        }
    }

    #[test]
    fn points_inside_unit_cube() {
        let mut w = Witness::new(42);
        for _ in 0..50 {
            for c in w.uniform_unit_point(3) {
                assert!(!c.is_negative() && c <= cqa_arith::Rat::one());
            }
        }
        assert_eq!(w.calls(), 50);
    }

    #[test]
    fn a_lent_sample_is_read_from_a_copy_and_skipped_by_the_lender() {
        let mut lender = Witness::new(9);
        let mut serial = Witness::new(9);
        let mut copy = lender.lend(3, 2);
        for _ in 0..3 {
            assert_eq!(copy.uniform_unit_point(2), serial.uniform_unit_point(2));
        }
        assert_eq!(lender.calls(), serial.calls());
        assert_eq!(lender.uniform_unit_point(2), serial.uniform_unit_point(2));
    }

    #[test]
    fn column_fill_matches_per_point_draws() {
        let mut a = Witness::new(11);
        let mut b = Witness::new(11);
        let mut batch = cqa_logic::Batch::new(3);
        batch.set_len(5);
        a.fill_unit_columns(&mut batch, 0, 3);
        for lane in 0..5 {
            for (d, c) in b.uniform_unit_point(3).iter().enumerate() {
                assert_eq!(
                    Rat::from_f64(batch.value(d, lane)).as_ref(),
                    Some(c),
                    "lane {lane}"
                );
            }
        }
        assert_eq!(a.calls(), b.calls());
    }

    #[test]
    fn an_advanced_witness_fills_batch_k_of_the_serial_stream() {
        for dim in 1..=3 {
            let mut serial = Witness::new(23);
            let mut batch = cqa_logic::Batch::new(dim);
            let mut jumped = cqa_logic::Batch::new(dim);
            batch.set_len(BATCH_LANES);
            jumped.set_len(BATCH_LANES);
            for k in 0..4 {
                serial.fill_unit_columns(&mut batch, 0, dim);
                let mut w = Witness::new(23);
                w.advance((k * dim * BATCH_LANES) as u64);
                w.fill_unit_columns(&mut jumped, 0, dim);
                for d in 0..dim {
                    assert!(batch.col(d) == jumped.col(d), "dim {dim} batch {k}");
                }
            }
        }
    }
}
