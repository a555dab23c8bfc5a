//! Property tests for the Cohen–Hörmander engine: brute-force
//! cross-validation on random univariate polynomial sentences, and a pinned
//! differential corpus of parametric formulas whose outputs must not change.

use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Fnv128;
use cqa_logic::{parse_formula, Arena, Atom, Formula, Rel};
use cqa_poly::{MPoly, UPoly, Var};
use cqa_qe::{hoermander, QeError};
use cqa_testkit::corpus::{corpus_formula, lens_formula, SplitMix};
use proptest::prelude::*;
use std::hash::Hasher;

const CORPUS_SEED: u64 = 0x00c0_ffee_1999;
const CORPUS_SIZE: usize = 1_500;
const CORPUS_MAX_STEPS: u64 = 200_000;

// The digest was taken from the reference implementation: the direct
// derivation that recomputes every sign matrix under each case-split
// branch, without a memo. Steps may differ from it; outputs may not.

/// Corpus indices that trip the 200 000-step cap in the reference
/// implementation; they may finish now, and are left out of the digest.
const REFERENCE_TRIPS: &[usize] = &[574, 1058, 1139, 1227, 1286];

/// FNV-128 over (index, structural hash of the output) of every formula the
/// reference implementation finished, lens formulas last.
const GOLDEN_DIGEST: u128 = 0xa4ba_92a5_beff_e20f_6401_d575_6682_caf9;

/// FNV-128 over (index, budget steps) of every formula that finishes,
/// lens formulas last: the memo implementation's step counts, which the
/// engine reports as `steps=` and `engine.budget.steps_per_op`.
const STEPS_DIGEST: u128 = 0xf489_5417_638a_0846_033f_35b3_d3f1_4420;

/// Differential pin: every corpus formula the reference implementation
/// eliminated under the step cap must come out structurally identical, and
/// every formula that finishes must take the same number of budget steps.
#[test]
fn pinned_corpus_reproduces_every_output() {
    let mut rng = SplitMix(CORPUS_SEED);
    let mut sources: Vec<String> = (0..CORPUS_SIZE).map(|_| corpus_formula(&mut rng)).collect();
    sources.extend((0..15).map(|j| lens_formula(j, ["x", "v", "w"])));
    let mut arena = Arena::new();
    let mut digest = Fnv128::new();
    let mut steps = Fnv128::new();
    let mut trips = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        let f = parse_formula(src)
            .unwrap_or_else(|e| panic!("#{i} {src}: {e:?}"))
            .0;
        let budget = EvalBudget::unlimited().with_max_steps(CORPUS_MAX_STEPS);
        match hoermander(&f, &budget) {
            Ok(g) => {
                steps.write_u64(i as u64);
                steps.write_u64(budget.steps());
                if REFERENCE_TRIPS.contains(&i) {
                    continue;
                }
                let id = arena.intern(&g);
                digest.write_u64(i as u64);
                digest.write_u128(arena.structural_hash(id));
            }
            Err(QeError::Budget(_)) => trips.push(i),
            Err(e) => panic!("#{i} {src}: {e}"),
        }
    }
    let new_trips: Vec<&usize> = trips
        .iter()
        .filter(|i| !REFERENCE_TRIPS.contains(i))
        .collect();
    assert!(
        new_trips.is_empty(),
        "finished in the reference implementation, trip the cap now: {new_trips:?}"
    );
    assert_eq!(
        digest.finish128(),
        GOLDEN_DIGEST,
        "corpus outputs changed (digest {:#x}; trips {trips:?})",
        digest.finish128()
    );
    assert_eq!(
        steps.finish128(),
        STEPS_DIGEST,
        "corpus step counts changed (digest {:#x})",
        steps.finish128()
    );
}

fn upoly_strategy() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-4i64..=4, 1..4)
}

fn poly_of(coeffs: &[i64], v: Var) -> MPoly {
    let mut p = MPoly::zero();
    for (i, &c) in coeffs.iter().enumerate() {
        p = p + MPoly::var(v).pow(i as u32).scale(&Rat::from(c));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// ∃x. p(x) REL 0 decided by CH must agree with root isolation:
    /// the sentence is true iff some sample point (roots, midpoints
    /// between roots, beyond the root bound) satisfies it.
    #[test]
    fn exists_sign_condition_matches_root_analysis(
        coeffs in upoly_strategy(),
        rel_idx in 0usize..4,
    ) {
        let rel = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][rel_idx];
        let x = Var(0);
        let sentence = Formula::exists(
            vec![x],
            Formula::Atom(Atom::new(poly_of(&coeffs, x), rel)),
        );
        let ch = match hoermander(&sentence, &EvalBudget::unlimited()).unwrap() {
            Formula::True => true,
            Formula::False => false,
            other => panic!("not ground: {other:?}"),
        };
        // Brute force via exact evaluation on a witness set: all rational
        // sample points around the roots of p.
        let up = UPoly::from_ints(&coeffs);
        let mut samples: Vec<Rat> = vec![Rat::zero()];
        if !up.is_constant() {
            let b = up.root_bound();
            samples.push(-b.clone() - Rat::one());
            samples.push(b + Rat::one());
            let roots = cqa_poly::isolate_real_roots(&up);
            for r in &roots {
                samples.push(r.lo.clone());
                samples.push(r.hi.clone());
                samples.push(r.lo.midpoint(&r.hi));
            }
            for w in roots.windows(2) {
                samples.push(w[0].hi.midpoint(&w[1].lo));
            }
        }
        // The sampled decision can only under-approximate ∃ (rational
        // samples may miss irrational-only witnesses of equalities, but
        // for the relations used here — strict/weak inequalities — any
        // satisfiable set has rational points).
        let brute = samples.iter().any(|s| rel.sign_satisfies(up.sign_at(s)));
        prop_assert_eq!(ch, brute, "coeffs {:?} rel {:?}", coeffs, rel);
    }

    /// ∀x. p(x)² ≥ 0 — always true; ∀x. p(x) > 0 iff p has no real root
    /// and positive leading behaviour.
    #[test]
    fn forall_positivity(coeffs in upoly_strategy()) {
        let x = Var(0);
        let p = poly_of(&coeffs, x);
        let square_nonneg = Formula::forall(
            vec![x],
            Formula::Atom(Atom::new(&p * &p, Rel::Ge)),
        );
        prop_assert_eq!(hoermander(&square_nonneg, &EvalBudget::unlimited()).unwrap(), Formula::True);

        let strictly_pos =
            Formula::forall(vec![x], Formula::Atom(Atom::new(p, Rel::Gt)));
        let ch = hoermander(&strictly_pos, &EvalBudget::unlimited()).unwrap() == Formula::True;
        let up = UPoly::from_ints(&coeffs);
        let brute = if up.is_zero() {
            false
        } else if up.is_constant() {
            up.leading().is_positive()
        } else {
            cqa_poly::isolate_real_roots(&up).is_empty()
                && up.sign_at(&Rat::zero()) > 0
        };
        prop_assert_eq!(ch, brute, "coeffs {:?}", coeffs);
    }

    /// Eliminating a variable that does not occur is the identity (up to
    /// simplification): ∃y. p(x) < 0 ⇔ p(x) < 0.
    #[test]
    fn vacuous_quantifier(coeffs in upoly_strategy()) {
        let x = Var(0);
        let y = Var(1);
        let body = Formula::Atom(Atom::new(poly_of(&coeffs, x), Rel::Lt));
        let q = Formula::exists(vec![y], body.clone());
        let out = hoermander(&q, &EvalBudget::unlimited()).unwrap();
        // Semantically equal on samples.
        for v in -4..=4i64 {
            let asg = |w: Var| {
                assert_eq!(w, x);
                Rat::from(v)
            };
            prop_assert_eq!(out.eval(&asg, &[]), body.eval(&asg, &[]));
        }
    }
}
