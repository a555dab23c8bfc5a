//! Approximate aggregation: VC dimension, sampling, and the paper's
//! baselines (Sections 3, 4 and 6.2).
//!
//! * [`vc`] — Vapnik–Chervonenkis machinery: exact shattering decisions
//!   via quantifier elimination, empirical VC dimension of definable
//!   families over a database, the Proposition-5 family with
//!   `VCdim ≥ log|D|`, and the effective Goldberg–Jerrum constant of
//!   Proposition 6.
//! * [`sample`] — the Blumer–Ehrenfeucht–Haussler–Warmuth sample bound
//!   `M(ε, δ, d)`, the capped Hoeffding count for one fixed set, and the
//!   witness operator `W` (uniform sampling of the unit cube with exact
//!   dyadic rationals, with exact jump-ahead).
//! * [`mc`] — Theorem 4: a single shared sample approximates
//!   `VOL_I(φ(ā, D))` uniformly over all parameter vectors `ā` with
//!   probability ≥ 1 − δ. Its lane-range sweep is the one Monte Carlo
//!   sampler of the workspace: the engine's `EXEC`/`VOLUME`/`BATCH`, the
//!   library estimators and the exact→approximate fallback all call it.
//! * [`par`] — the deterministic fork–join runner the sweep (and the
//!   engine's `BATCH`) cuts its work over.
//! * [`km`] — a cost model for the Karpinski–Macintyre / Koiran
//!   derandomized approximation formulas, reproducing the Section-3 blow-up
//!   numbers (≥10⁹ atoms, ≥10¹¹ quantifiers at ε = 1/10).
//! * [`trivial`] — Proposition 4: the trivial ε ≥ 1/2 approximator that
//!   *is* definable in FO+LIN.
//! * [`separating`] — Proposition 1 / Theorem 2 made empirical:
//!   (c₁,c₂)-separating sentence candidates and the good-instance →
//!   interval-volume reduction from the proof of Theorem 2.
//! * [`john`] — the Löwner–John relative approximation for convex outputs
//!   (Section 4.3 remark), via Khachiyan's minimum-volume enclosing
//!   ellipsoid.
//! * [`baselines`] — the variable-independence exact baseline
//!   (Chomicki–Goldin–Kuper) and a Dyer–Frieze–Kannan-style randomized
//!   volume estimator (rejection and hit-and-run).

#![forbid(unsafe_code)]

pub mod baselines;
pub mod error;
pub mod john;
pub mod km;
pub mod mc;
pub mod par;
pub mod sample;
pub mod separating;
pub mod trivial;
pub mod vc;

pub use error::ApproxError;
