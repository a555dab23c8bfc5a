//! Property tests for the cost-based planner (`cqa_qe::plan`): on random
//! quantified linear formulas the planned elimination must agree with the
//! fixed dispatch pipeline on a rational grid, warm subplan-store hits must
//! reproduce cold results bit-identically, and α-renamed quantifier blocks
//! must share one elimination through the positional canonical hash.

use cqa_arith::{rat, Rat};
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Arena;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use cqa_qe::plan::{eliminate_with_plan, plan, NoSharing, PlanInputs, SubplanStore};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A stored subplan: the eliminated matrix plus its positional params.
type StoredSubplan = (Formula, Vec<Var>);

/// An in-memory [`SubplanStore`] with a hit counter.
#[derive(Default)]
struct MapStore {
    map: Mutex<HashMap<(u128, u32), StoredSubplan>>,
    hits: AtomicU64,
}

impl SubplanStore for MapStore {
    fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)> {
        let hit = self.map.lock().unwrap().get(&(hash, dim)).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
        self.map
            .lock()
            .unwrap()
            .insert((hash, dim), (qf.clone(), params.to_vec()));
    }
}

/// Small affine atoms over `x0`, `x1`, `x2` — every relation, coefficients
/// in `[-3, 3]` — so both FM (conjunctive) and LW (wide DNF) plans occur.
fn linear_atom() -> impl Strategy<Value = Formula> {
    (prop::collection::vec(-3i64..=3, 3), -4i64..=4, 0usize..6).prop_map(|(coeffs, c, r)| {
        let rel = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge, Rel::Eq, Rel::Neq][r];
        let mut p = MPoly::constant(Rat::from(c));
        for (i, &a) in coeffs.iter().enumerate() {
            p = p + MPoly::var(Var(i as u32)).scale(&Rat::from(a));
        }
        Formula::Atom(Atom::new(p, rel))
    })
}

fn matrix() -> impl Strategy<Value = Formula> {
    linear_atom().prop_recursive(2, 6, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::negate),
        ]
    })
}

/// Quantified shapes: single and two-variable blocks, both quantifiers,
/// and a block conjoined with a quantifier-free band (the subplan-sharing
/// shape).
fn quantified() -> impl Strategy<Value = Formula> {
    (matrix(), 0usize..4).prop_map(|(m, wrap)| match wrap {
        0 => Formula::exists(vec![Var(2)], m),
        1 => Formula::forall(vec![Var(2)], m),
        2 => Formula::exists(vec![Var(1), Var(2)], m),
        _ => Formula::exists(vec![Var(2)], m.clone()).and(m),
    })
}

/// Grid agreement of two quantifier-free formulas over their free
/// variables, at half-integer rational points in `[-2, 2]`.
fn grids_agree(a: &Formula, b: &Formula) -> Result<(), TestCaseError> {
    let vars: Vec<Var> = a.free_vars().union(&b.free_vars()).copied().collect();
    let samples: Vec<Rat> = (-4..=4).map(|n| rat(n, 2)).collect();
    let mut idx = vec![0usize; vars.len()];
    loop {
        let vals: Vec<Rat> = idx.iter().map(|&i| samples[i].clone()).collect();
        let asg = |v: Var| {
            vars.iter()
                .position(|&w| w == v)
                .map(|i| vals[i].clone())
                .unwrap_or_else(Rat::zero)
        };
        prop_assert_eq!(
            a.eval(&asg, &[]),
            b.eval(&asg, &[]),
            "disagree at {:?}",
            vals
        );
        let mut k = 0;
        loop {
            if k == idx.len() {
                return Ok(());
            }
            idx[k] += 1;
            if idx[k] < samples.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn run_planned(f: &Formula, store: &dyn SubplanStore) -> Formula {
    let p = plan(f, &PlanInputs::measure(f));
    eliminate_with_plan(f, &p, &EvalBudget::unlimited(), &mut Arena::new(), store).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planned elimination — whatever method, order and pruning the
    /// planner picked — produces a quantifier-free formula that agrees
    /// with the fixed pipeline everywhere on the grid.
    #[test]
    fn planned_agrees_with_fixed_pipeline(f in quantified()) {
        let fixed = cqa_qe::eliminate(&f, &EvalBudget::unlimited()).unwrap();
        let got = run_planned(&f, &NoSharing);
        prop_assert!(got.is_quantifier_free());
        grids_agree(&got, &fixed)?;
    }

    /// Re-eliminating the same formula against a warm store serves the
    /// quantifier block from the memo and reproduces the cold result
    /// bit-identically — a hit can never change the answer.
    #[test]
    fn warm_store_hits_reproduce_cold_results(f in quantified()) {
        let store = MapStore::default();
        let cold = run_planned(&f, &store);
        let stored = store.map.lock().unwrap().len();
        let warm = run_planned(&f, &store);
        prop_assert_eq!(&warm, &cold, "hit path must be bit-identical");
        if stored > 0 {
            prop_assert!(
                store.hits.load(Ordering::Relaxed) > 0,
                "re-elimination must hit the store"
            );
        }
    }

    /// α-renaming the bound variable does not change the positional
    /// canonical hash: `∃x2.m` and `∃x3.m[x2↦x3]` share one stored
    /// elimination, and the shared result is exactly the first one's.
    #[test]
    fn alpha_renamed_blocks_share_one_elimination(m in matrix()) {
        let store = MapStore::default();
        // Normalize first: `subst_poly` constant-folds while rebuilding, so
        // an unsimplified matrix would give the renamed side a head start
        // (e.g. a constant-true disjunct collapses the whole block).
        let m = cqa_qe::simplify(&m);
        let f1 = Formula::exists(vec![Var(2)], m.clone());
        let f2 = Formula::exists(vec![Var(3)], m.subst_poly(Var(2), &MPoly::var(Var(3))));
        let r1 = run_planned(&f1, &store);
        let stored = store.map.lock().unwrap().len();
        let r2 = run_planned(&f2, &store);
        prop_assert_eq!(&r1, &r2, "renamed block must reuse the stored result");
        if stored > 0 {
            prop_assert!(
                store.hits.load(Ordering::Relaxed) > 0,
                "α-renamed block must hit the store"
            );
        }
    }
}
