//! A cost model for the Karpinski–Macintyre / Koiran approximation
//! formulas (the Section-3 blow-up analysis).
//!
//! The VC-dimension-based `VOL_I^ε` of Lemma 1 is constructed by (i)
//! replacing database relations by their definitions, (ii) quantifying over
//! an `M(ε, δ, d)`-point sample of `I^m`, and (iii) derandomizing the
//! sampling à la BPP ⊆ PH with translates covering the cube. The paper's
//! point — driven home by the worked example (`≥ 10⁹` atomic subformulas
//! and `≥ 10¹¹` quantifiers already at `ε = 1/10`) — is that the resulting
//! formulas are hopeless inputs for quantifier elimination.
//!
//! This module instantiates that construction as an explicit cost model so
//! the blow-up is a number `report` (E1) and `cqa-lint` (CQA008) can print,
//! not an anecdote:
//!
//! * sample size `M = max((4/ε)log₂(2/δ), (8d/ε)log₂(13/ε))`;
//! * sample variables `M·m`, all quantified;
//! * translate count `K = M·m` (the BPP ⊆ PH covering uses ~dimension-many
//!   translates), each translate re-instantiating the `M`-point membership
//!   test;
//! * per membership test, the body formula's atoms (`s₀` after database
//!   substitution).
//!
//! Every component is a *lower* bound on the real construction of
//! [24, 25, 26], so the model's numbers under-approximate the true sizes.

use crate::sample::sample_size;
use crate::vc::goldberg_jerrum_c;

/// Estimated size of the derandomized ε-approximation formula.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmCost {
    /// VC dimension (bound) used for the sample size.
    pub vc_dim: f64,
    /// Sample size `M`.
    pub sample_size: usize,
    /// Number of quantified real variables.
    pub quantifiers: f64,
    /// Number of atomic subformulas.
    pub atoms: f64,
}

/// Cost of the Lemma-1 construction for a query whose database-substituted
/// matrix has `s0` atoms over `m` point dimensions, against a database of
/// active-domain size `n`, with accuracy `ε` and confidence `1 − δ`.
///
/// `k`, `p`, `q`, `deg` feed the Goldberg–Jerrum constant of Proposition 6
/// (point arity, max relation arity, quantifier rank, max degree).
#[allow(clippy::too_many_arguments)]
pub fn km_cost(
    eps: f64,
    delta: f64,
    m: usize,
    s0: usize,
    n: usize,
    k: u32,
    p: u32,
    q: u32,
    deg: u32,
) -> KmCost {
    let c = goldberg_jerrum_c(k, p, q, deg, s0 as u32);
    let d = c * (n.max(2) as f64).log2();
    let msize = sample_size(eps, delta, d);
    let sample_vars = (msize as f64) * (m as f64);
    let translates = sample_vars; // K ≈ M·m
    let quantifiers = translates * sample_vars + sample_vars;
    let atoms = translates * (msize as f64) * (s0 as f64);
    KmCost {
        vc_dim: d,
        sample_size: msize,
        quantifiers,
        atoms,
    }
}

/// A budget for the KM construction: how large an approximation formula a
/// caller is willing to hand to the QE engine.
///
/// The default (`10⁸` atoms, `10⁸` quantifiers) is already far beyond
/// anything `cqa-qe` finishes in practice; the point of the gate is to
/// refuse *before* materializing a hopeless formula, turning the paper's
/// Section-3 anecdote into an enforced precondition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmBudget {
    /// Maximum admissible atom count.
    pub max_atoms: f64,
    /// Maximum admissible quantifier count.
    pub max_quantifiers: f64,
}

impl Default for KmBudget {
    fn default() -> KmBudget {
        KmBudget {
            max_atoms: 1e8,
            max_quantifiers: 1e8,
        }
    }
}

/// Rejection by [`gate`]: the predicted formula exceeds the budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmBlowup {
    /// The predicted cost that tripped the gate.
    pub cost: KmCost,
    /// The budget it was measured against.
    pub budget: KmBudget,
}

impl std::fmt::Display for KmBlowup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KM approximation formula would have ~{:.2e} atoms and ~{:.2e} quantifiers \
             (budget: {:.1e} atoms, {:.1e} quantifiers)",
            self.cost.atoms,
            self.cost.quantifiers,
            self.budget.max_atoms,
            self.budget.max_quantifiers
        )
    }
}
impl std::error::Error for KmBlowup {}

/// Checks a predicted [`KmCost`] against a [`KmBudget`], returning the cost
/// on success and a [`KmBlowup`] describing the overrun otherwise.
pub fn gate(cost: KmCost, budget: KmBudget) -> Result<KmCost, KmBlowup> {
    if cost.atoms > budget.max_atoms || cost.quantifiers > budget.max_quantifiers {
        Err(KmBlowup { cost, budget })
    } else {
        Ok(cost)
    }
}

/// The Section-3 worked example: schema `U` unary over `[0,1]`, the query
///
/// `φ(x₁,x₂; y₁,y₂) ≡ U(x₁) ∧ U(x₂) ∧ x₁<y₁ ∧ y₁<x₂ ∧ 0≤y₂ ∧ y₂≤y₁`
///
/// with `|U| = n` and `ε = 1/10`. Substituting `U` yields `> 2n` atoms;
/// the paper reports ≥ 10⁹ atoms and ≥ 10¹¹ quantifiers for the resulting
/// approximation formula.
pub fn paper_example_cost(n: usize, eps: f64) -> KmCost {
    // After substituting U (n disjuncts each occurrence) the matrix has
    // 2n + 4 atoms; m = 2 point variables; query data: k = 2 point vars,
    // p = 1 (U unary), quantifier rank 0, degree 1.
    km_cost(eps, 0.25, 2, 2 * n + 4, n, 2, 1, 0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_exceeds_reported_bounds() {
        // The paper: "at least 10⁹ atomic subformulae, and at least 10¹¹
        // quantifiers" at ε = 1/10. Our under-approximating model must
        // agree for moderate database sizes.
        let cost = paper_example_cost(16, 0.1);
        assert!(cost.atoms >= 1e9, "atoms = {:.3e}", cost.atoms);
        assert!(
            cost.quantifiers >= 1e11,
            "quantifiers = {:.3e}",
            cost.quantifiers
        );
    }

    #[test]
    fn blowup_grows_with_accuracy() {
        let loose = paper_example_cost(16, 0.5);
        let tight = paper_example_cost(16, 0.05);
        assert!(tight.atoms > loose.atoms * 10.0);
        assert!(tight.sample_size > loose.sample_size);
    }

    #[test]
    fn blowup_grows_with_database() {
        let small = paper_example_cost(8, 0.1);
        let large = paper_example_cost(64, 0.1);
        assert!(large.atoms > small.atoms);
        assert!(large.vc_dim > small.vc_dim);
    }

    #[test]
    fn gate_rejects_paper_example_and_admits_tiny_queries() {
        let budget = KmBudget::default();
        // The worked example blows past any sane budget.
        let err = gate(paper_example_cost(16, 0.1), budget).unwrap_err();
        assert!(err.cost.atoms > budget.max_atoms);
        assert!(err.to_string().contains("atoms"));
        // A trivial query at loose accuracy stays within a generous budget.
        let loose = KmBudget {
            max_atoms: 1e12,
            max_quantifiers: 1e14,
        };
        assert!(gate(km_cost(0.5, 0.5, 1, 2, 2, 1, 1, 0, 1), loose).is_ok());
    }

    #[test]
    fn components_consistent() {
        let c = km_cost(0.1, 0.1, 2, 10, 10, 2, 1, 0, 1);
        assert!(c.sample_size > 0);
        assert!(c.quantifiers > c.sample_size as f64);
        assert!(c.atoms > 0.0);
    }
}
