//! Property tests for the 1-D decomposition and finiteness machinery.

use cqa_arith::{rat, Rat};
use cqa_core::budget::EvalBudget;
use cqa_core::{decompose_1d, enumerate_finite, is_finite_set, Endpoint};
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use cqa_testkit::formula::bool_tree;
use proptest::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

/// Random boolean combinations of interval constraints on one variable.
fn onedim_formula() -> impl Strategy<Value = Formula> {
    let atom = (-6i64..=6, 0usize..4).prop_map(|(c, r)| {
        let rel = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][r];
        Formula::Atom(Atom::new(
            MPoly::var(Var(0)) - MPoly::constant(Rat::from(c)),
            rel,
        ))
    });
    bool_tree(atom.boxed(), (2, 8, 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decomposition is sound: sampled points agree with direct
    /// evaluation, and intervals are sorted and disjoint.
    #[test]
    fn decomposition_agrees_with_eval(f in onedim_formula()) {
        let v = Var(0);
        let ivs = decompose_1d(&f, v).unwrap();
        // Sorted and disjoint (allowing shared open endpoints).
        for w in ivs.windows(2) {
            let hi0 = match &w[0].hi {
                Endpoint::Value(a, _) => a.approximate(&rat(1, 1000)),
                _ => continue,
            };
            let lo1 = match &w[1].lo {
                Endpoint::Value(a, _) => a.approximate(&rat(1, 1000)),
                _ => continue,
            };
            prop_assert!(hi0 <= lo1);
        }
        // Membership agreement on a fine rational grid.
        for k in -28..=28i64 {
            let x = rat(k, 4);
            let direct = f.eval(&|_| x.clone(), &[]).unwrap();
            let in_decomp = ivs.iter().any(|iv| {
                let lo_ok = match &iv.lo {
                    Endpoint::NegInf => true,
                    Endpoint::Value(a, closed) => match a.cmp_rat(&x) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => *closed,
                        std::cmp::Ordering::Greater => false,
                    },
                    Endpoint::PosInf => false,
                };
                let hi_ok = match &iv.hi {
                    Endpoint::PosInf => true,
                    Endpoint::Value(a, closed) => match a.cmp_rat(&x) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => *closed,
                        std::cmp::Ordering::Less => false,
                    },
                    Endpoint::NegInf => false,
                };
                lo_ok && hi_ok
            });
            prop_assert_eq!(direct, in_decomp, "at {} for {:?}", x, f);
        }
    }

    /// Finiteness detection is consistent with the decomposition: a 1-D set
    /// is finite iff all its intervals are points.
    #[test]
    fn finiteness_matches_decomposition(f in onedim_formula()) {
        let v = Var(0);
        let ivs = decompose_1d(&f, v).unwrap();
        let all_points = ivs.iter().all(|iv| iv.is_point());
        prop_assert_eq!(is_finite_set(&f, &[v], &unlimited()).unwrap(), all_points);
        if all_points {
            let tuples = enumerate_finite(&f, &[v], &unlimited()).unwrap();
            prop_assert_eq!(tuples.len(), ivs.len());
        }
    }
}
