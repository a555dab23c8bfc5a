//! Proposition 1 and Theorem 2, empirically.
//!
//! The impossibility proofs quantify over *all* formulas and cannot be run
//! verbatim; what can be run is (a) the reduction at their heart and (b) a
//! falsification sweep over a bounded family of candidate separating
//! sentences:
//!
//! * [`good_instance_volumes`] executes the Theorem-2 reduction: a *good
//!   instance* (A an initial segment of ℕ, B ⊊ A non-empty) is mapped into
//!   `[0,1]` with equidistant points; `X` is the union of intervals from a
//!   `B`-point to the next `A∖B`-point (or 1), `Y` dually. Then
//!   `VOL(X) + VOL(Y) = 1` and `VOL(X)` tracks `card(B)/card(A)` exactly as
//!   the proof requires — so an ε-approximation of these volumes would
//!   decide the (c₁,c₂)-good sentence problem, which AC⁰ circuits (and
//!   hence FO_act over any signature) cannot do.
//! * [`find_separating_sentence`] enumerates a template family of bounded
//!   FO_act sentences over `⟨U₁, U₂, <⟩` and reports whether any of them
//!   (c₁,c₂)-separates the tested cardinality profile — none does, which is
//!   the checkable shadow of Proposition 1.

use cqa_arith::Rat;
use cqa_geom::volume;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::Var;

/// A good instance: `A = {0, …, n−1}`, `B ⊆ A` given by a bit mask.
#[derive(Clone, Debug)]
pub struct GoodInstance {
    /// Size of the initial segment `A`.
    pub n: usize,
    /// Membership mask of `B` (must be non-empty and proper).
    pub b: Vec<bool>,
}

impl GoodInstance {
    /// Constructs and validates a good instance.
    pub fn new(n: usize, b: Vec<bool>) -> Option<GoodInstance> {
        if b.len() != n {
            return None;
        }
        let card = b.iter().filter(|&&x| x).count();
        if card == 0 || card == n {
            return None;
        }
        Some(GoodInstance { n, b })
    }

    /// `card(B)`.
    pub fn card_b(&self) -> usize {
        self.b.iter().filter(|&&x| x).count()
    }
}

/// Executes the Theorem-2 reduction: embeds the instance equidistantly in
/// `[0,1]` and returns `(VOL(X), VOL(Y))` — the volumes whose
/// ε-approximation would yield a (c₁,c₂)-good sentence.
pub fn good_instance_volumes(inst: &GoodInstance) -> (Rat, Rat) {
    let n = inst.n;
    // Point i ↦ i/n; interval blocks run to the next opposite-kind point,
    // or to 1 if none. Build X (from B-points) and Y (from A∖B-points)
    // as formulas over one variable, then take exact volumes.
    let v = Var(0);
    let step = Rat::new(1i64.into(), (n as i64).into());
    let mut x_set = Formula::False;
    let mut y_set = Formula::False;
    for i in 0..n {
        let here = Rat::from(i as i64) * &step;
        // Find the next index of opposite membership.
        let mut nextval: Rat = Rat::one();
        for j in i + 1..n {
            if inst.b[j] != inst.b[i] {
                nextval = Rat::from(j as i64) * &step;
                break;
            }
        }
        let lo = Formula::le(
            cqa_poly::MPoly::constant(here.clone()),
            cqa_poly::MPoly::var(v),
        );
        let hi = Formula::le(
            cqa_poly::MPoly::var(v),
            cqa_poly::MPoly::constant(nextval.clone()),
        );
        let block = lo.and(hi);
        if inst.b[i] {
            x_set = x_set.or(block);
        } else {
            y_set = y_set.or(block);
        }
    }
    // Two bounded unions of intervals: no QE blow-up to guard against.
    let unlimited = EvalBudget::unlimited();
    let vx = volume(&x_set, &[v], &unlimited).expect("bounded union of intervals");
    let vy = volume(&y_set, &[v], &unlimited).expect("bounded union of intervals");
    (vx, vy)
}

/// A bounded family of candidate FO_act sentences over `⟨U₁, U₂, <⟩`,
/// identified by template index. The family covers the boolean
/// combinations of threshold/majority-flavored two-variable active-domain
/// sentences expressible at quantifier depth ≤ 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Candidate {
    /// `∃x∈adom. U₁(x) ∧ ∀y∈adom. (U₂(y) → y < x)` — "some U₁ above all U₂".
    SomeAboveAll,
    /// `∀x∈adom. U₂(x) → ∃y∈adom. U₁(y) ∧ x < y` — "every U₂ has a U₁ above".
    EveryHasAbove,
    /// `∃x∈adom. U₁(x) ∧ ¬U₂(x)` — "U₁ not contained in U₂".
    NotSubset,
    /// `∀x∈adom. U₂(x) → U₁(x)` — "U₂ ⊆ U₁".
    Superset,
    /// `∃x∈adom. U₁(x) ∧ ∃y∈adom. U₂(y) ∧ x < y` — order pattern.
    SomePairOrdered,
    /// The negation of `SomeAboveAll`.
    NegSomeAboveAll,
}

/// All candidates.
pub const CANDIDATES: [Candidate; 6] = [
    Candidate::SomeAboveAll,
    Candidate::EveryHasAbove,
    Candidate::NotSubset,
    Candidate::Superset,
    Candidate::SomePairOrdered,
    Candidate::NegSomeAboveAll,
];

/// Evaluates a candidate on an instance `(U₁, U₂)` of rationals.
pub fn eval_candidate(c: Candidate, u1: &[Rat], u2: &[Rat]) -> bool {
    match c {
        Candidate::SomeAboveAll => u1.iter().any(|x| u2.iter().all(|y| y < x)),
        Candidate::EveryHasAbove => u2.iter().all(|x| u1.iter().any(|y| x < y)),
        Candidate::NotSubset => u1.iter().any(|x| !u2.contains(x)),
        Candidate::Superset => u2.iter().all(|x| u1.contains(x)),
        Candidate::SomePairOrdered => u1.iter().any(|x| u2.iter().any(|y| x < y)),
        Candidate::NegSomeAboveAll => !eval_candidate(Candidate::SomeAboveAll, u1, u2),
    }
}

/// Tests whether a candidate is a `(c₁, c₂)`-separating sentence on a suite
/// of instances: it must be true whenever `card(U₁) > c₁·card(U₂)` and
/// false whenever `card(U₂) > c₂·card(U₁)`. Returns the first
/// counterexample `(u1_size, u2_size, layout_tag)` if it fails.
pub fn violates_separation(
    c: Candidate,
    c1: f64,
    c2: f64,
    max_n: usize,
) -> Option<(usize, usize, &'static str)> {
    // Deterministic instance layouts: interleaved, U1-low/U2-high,
    // U1-high/U2-low.
    type Layout = fn(usize, usize) -> (Vec<Rat>, Vec<Rat>);
    let layouts: [(&str, Layout); 3] = [
        ("interleaved", |a, b| {
            let u1 = (0..a).map(|i| Rat::from(2 * i as i64)).collect();
            let u2 = (0..b).map(|i| Rat::from((2 * i + 1) as i64)).collect();
            (u1, u2)
        }),
        ("u1-low", |a, b| {
            let u1 = (0..a).map(|i| Rat::from(i as i64)).collect();
            let u2 = (0..b).map(|i| Rat::from((1000 + i) as i64)).collect();
            (u1, u2)
        }),
        ("u1-high", |a, b| {
            let u1 = (0..a).map(|i| Rat::from((1000 + i) as i64)).collect();
            let u2 = (0..b).map(|i| Rat::from(i as i64)).collect();
            (u1, u2)
        }),
    ];
    for a in 1..=max_n {
        for b in 1..=max_n {
            for (tag, make) in &layouts {
                let (u1, u2) = make(a, b);
                let val = eval_candidate(c, &u1, &u2);
                if (a as f64) > c1 * (b as f64) && !val {
                    return Some((a, b, tag));
                }
                if (b as f64) > c2 * (a as f64) && val {
                    return Some((a, b, tag));
                }
            }
        }
    }
    None
}

/// Sweeps the whole candidate family; returns the candidates that *do*
/// separate on the tested range (Proposition 1 predicts none for any
/// order-invariant family once instances may be laid out adversarially).
pub fn find_separating_sentence(c1: f64, c2: f64, max_n: usize) -> Vec<Candidate> {
    CANDIDATES
        .iter()
        .copied()
        .filter(|&c| violates_separation(c, c1, c2, max_n).is_none())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    #[test]
    fn good_instance_validation() {
        assert!(GoodInstance::new(3, vec![true, false, true]).is_some());
        assert!(GoodInstance::new(3, vec![false, false, false]).is_none()); // B empty
        assert!(GoodInstance::new(3, vec![true, true, true]).is_none()); // B = A
        assert!(GoodInstance::new(3, vec![true]).is_none()); // wrong length
    }

    #[test]
    fn reduction_volumes_partition_unit() {
        // X and Y tile [0,1]: VOL(X) + VOL(Y) = 1 (overlaps are null).
        for (n, mask) in [
            (2, vec![true, false]),
            (4, vec![true, false, true, false]),
            (5, vec![false, true, true, false, true]),
            (6, vec![true, true, false, false, true, false]),
        ] {
            let inst = GoodInstance::new(n, mask).unwrap();
            let (vx, vy) = good_instance_volumes(&inst);
            assert_eq!(&vx + &vy, Rat::one(), "n = {n}");
            assert!(vx.is_positive() && vy.is_positive());
        }
    }

    #[test]
    fn reduction_tracks_cardinality_ratio() {
        // With B = {0..k-1} as a prefix: X = [0, k/n], VOL(X) = k/n.
        let n = 8;
        for k in 1..n {
            let mask: Vec<bool> = (0..n).map(|i| i < k).collect();
            let inst = GoodInstance::new(n, mask).unwrap();
            let (vx, _) = good_instance_volumes(&inst);
            assert_eq!(vx, rat(k as i64, n as i64));
        }
    }

    #[test]
    fn no_candidate_separates() {
        // c1 = c2 = 2: every candidate in the family fails on some instance.
        let winners = find_separating_sentence(2.0, 2.0, 12);
        assert!(winners.is_empty(), "unexpected separators: {winners:?}");
        // And each failure has a concrete counterexample.
        for c in CANDIDATES {
            assert!(violates_separation(c, 2.0, 2.0, 12).is_some(), "{c:?}");
        }
    }

    #[test]
    fn candidate_semantics() {
        let u1 = [rat(5, 1), rat(6, 1)];
        let u2 = [rat(1, 1), rat(2, 1)];
        assert!(eval_candidate(Candidate::SomeAboveAll, &u1, &u2));
        assert!(!eval_candidate(Candidate::SomeAboveAll, &u2, &u1));
        assert!(eval_candidate(Candidate::NotSubset, &u1, &u2));
        assert!(!eval_candidate(Candidate::Superset, &u1, &u2));
    }
}
