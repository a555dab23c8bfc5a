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

/// The witness (choice) operator `W` of Abiteboul–Vianu, as used in
/// Theorem 4: a seeded source of random choices. Each call is one
/// application of `W` in the paper's operation count.
pub struct Witness {
    rng: StdRng,
    seed: u64,
    streams: u64,
    calls: usize,
}

impl Witness {
    /// A deterministic witness source (seeded — experiments are
    /// reproducible).
    pub fn new(seed: u64) -> Witness {
        Witness {
            rng: StdRng::seed_from_u64(seed),
            seed,
            streams: 0,
            calls: 0,
        }
    }

    /// How many witness applications have been made.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Begins an independent family of deterministic substreams, for
    /// chunked parallel sampling.
    ///
    /// The returned splitter derives a child witness per chunk index from
    /// the base seed and a per-call stream counter alone — never from the
    /// live RNG state — so the points drawn for chunk `c` are the same for
    /// any thread count and any chunk completion order, and successive
    /// forks from the same witness yield unrelated streams.
    pub fn fork(&mut self) -> WitnessSplitter {
        self.streams += 1;
        WitnessSplitter {
            seed: self.seed,
            stream: self.streams,
        }
    }

    /// Records `n` witness applications performed through a fork on this
    /// witness's behalf (keeps the Theorem 4 operation count meaningful).
    pub(crate) fn note_applications(&mut self, n: usize) {
        self.calls += n;
    }

    /// `W y⃗.(y⃗ ∈ I^dim)`: a uniform point of the unit cube, as exact
    /// dyadic rationals (the `f64` values convert exactly).
    pub fn uniform_unit_point(&mut self, dim: usize) -> Vec<Rat> {
        self.calls += 1;
        (0..dim)
            .map(|_| Rat::from_f64(self.rng.random::<f64>()).expect("finite"))
            .collect()
    }

    /// [`Self::uniform_unit_point`] without the rational wrapping: fills
    /// `out` with the same draws as exactly-representable dyadic `f64`s
    /// (one witness application). The compiled-kernel hot path uses this to
    /// avoid constructing rationals for points that never need the exact
    /// fallback.
    pub fn uniform_unit_point_f64(&mut self, out: &mut [f64]) {
        self.calls += 1;
        for c in out.iter_mut() {
            *c = self.rng.random::<f64>();
        }
    }

    /// An entire `m`-point sample from `I^dim` (`m` witness applications —
    /// the count Theorem 4 bounds).
    pub fn uniform_sample(&mut self, m: usize, dim: usize) -> Vec<Vec<Rat>> {
        (0..m).map(|_| self.uniform_unit_point(dim)).collect()
    }

    /// Fills the point-variable columns of `batch` — slots `first_slot ..
    /// first_slot + dim` — with one uniform unit-cube point per active
    /// lane, straight into the structure-of-arrays buffers (no per-point
    /// allocation). Draws are made lane-major (point 0's coordinates in
    /// order, then point 1's, …), the exact sequence a per-point
    /// [`Self::uniform_unit_point_f64`] loop would make, so batched and
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

    /// `W x.φ(x)` over a finite set: picks one element uniformly, `None`
    /// on the empty set.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        self.calls += 1;
        if items.is_empty() {
            None
        } else {
            let i = self.rng.random_range(0..items.len());
            Some(&items[i])
        }
    }
}

/// A handle deriving per-chunk child witnesses (see [`Witness::fork`]).
/// `Copy` so worker threads can share it freely.
#[derive(Clone, Copy, Debug)]
pub struct WitnessSplitter {
    seed: u64,
    stream: u64,
}

impl WitnessSplitter {
    /// The deterministic child witness for chunk `chunk`: a pure function
    /// of `(seed, stream, chunk)`.
    pub fn chunk(&self, chunk: u64) -> Witness {
        let mut h = self
            .seed
            .wrapping_add(self.stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(chunk.wrapping_mul(0xD1B5_4A32_D192_ED03));
        // SplitMix64 finalizer: decorrelates nearby (stream, chunk) pairs.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Witness::new(h ^ (h >> 31))
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
        let mut w1 = Witness::new(7);
        let mut w2 = Witness::new(7);
        assert_eq!(w1.uniform_sample(5, 2), w2.uniform_sample(5, 2));
        let mut w3 = Witness::new(8);
        assert_ne!(w1.uniform_sample(5, 2), w3.uniform_sample(5, 2));
    }

    #[test]
    fn points_inside_unit_cube() {
        let mut w = Witness::new(42);
        for p in w.uniform_sample(50, 3) {
            for c in p {
                assert!(!c.is_negative() && c <= cqa_arith::Rat::one());
            }
        }
        assert_eq!(w.calls(), 50);
    }

    #[test]
    fn fork_chunks_are_deterministic_and_separated() {
        let mut w1 = Witness::new(9);
        let mut w2 = Witness::new(9);
        let (s1, s2) = (w1.fork(), w2.fork());
        // Same seed, same stream, same chunk → same points.
        assert_eq!(
            s1.chunk(0).uniform_sample(3, 2),
            s2.chunk(0).uniform_sample(3, 2)
        );
        // Different chunks of one stream differ.
        assert_ne!(
            s1.chunk(0).uniform_sample(3, 2),
            s1.chunk(1).uniform_sample(3, 2)
        );
        // A later fork of the same witness yields an unrelated stream.
        let s1b = w1.fork();
        assert_ne!(
            s1.chunk(0).uniform_sample(3, 2),
            s1b.chunk(0).uniform_sample(3, 2)
        );
    }

    #[test]
    fn f64_points_match_rational_points() {
        let mut a = Witness::new(4);
        let mut b = Witness::new(4);
        let p = a.uniform_unit_point(3);
        let mut q = [0.0f64; 3];
        b.uniform_unit_point_f64(&mut q);
        for (r, v) in p.iter().zip(q) {
            assert_eq!(r, &Rat::from_f64(v).unwrap());
        }
        assert_eq!(b.calls(), 1);
    }

    #[test]
    fn column_fill_matches_per_point_draws() {
        let mut a = Witness::new(11);
        let mut b = Witness::new(11);
        let mut batch = cqa_logic::Batch::new(3);
        batch.set_len(5);
        a.fill_unit_columns(&mut batch, 0, 3);
        let mut q = [0.0f64; 3];
        for lane in 0..5 {
            b.uniform_unit_point_f64(&mut q);
            for (d, &v) in q.iter().enumerate() {
                assert_eq!(batch.value(d, lane), v, "lane {lane} dim {d}");
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

    #[test]
    fn choose_from_finite_sets() {
        let mut w = Witness::new(1);
        assert!(w.choose::<i32>(&[]).is_none());
        let xs = [10, 20, 30];
        for _ in 0..10 {
            assert!(xs.contains(w.choose(&xs).unwrap()));
        }
    }
}
