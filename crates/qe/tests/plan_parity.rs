//! Property tests for the cost-based planner (`cqa_qe::plan`): on random
//! quantified linear formulas the planned elimination must agree with the
//! fixed dispatch pipeline on a rational grid, warm subplan-store hits must
//! reproduce cold results bit-identically, and α-renamed quantifier blocks
//! must share one elimination through the positional canonical hash.

use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Arena;
use cqa_logic::Formula;
use cqa_poly::{MPoly, Var};
use cqa_qe::plan::{eliminate_with_plan, plan, NoSharing, PlanInputs, SubplanStore};
use cqa_testkit::formula::Wrap::{self, *};
use cqa_testkit::formula::{affine_atom, agree_on_grid, bool_tree, wrapped};
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

/// Quantified shapes over small affine atoms in `x0`, `x1`, `x2` (so both
/// FM, conjunctive, and LW, wide DNF, plans occur): single and
/// two-variable blocks, both quantifiers, and a block conjoined with a
/// quantifier-free band (the subplan-sharing shape).
const QUANTIFIED: &[Wrap] = &[Exists(&[2]), Forall(&[2]), Exists(&[1, 2]), ExistsAnd(2)];

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
    fn planned_agrees_with_fixed_pipeline(
        f in wrapped(bool_tree(affine_atom(3, false), (2, 6, 3)), QUANTIFIED),
    ) {
        let fixed = cqa_qe::eliminate(&f, &EvalBudget::unlimited()).unwrap();
        let got = run_planned(&f, &NoSharing);
        prop_assert!(got.is_quantifier_free());
        agree_on_grid(&got, &fixed, 3, 4)?;
    }

    /// Re-eliminating the same formula against a warm store serves the
    /// quantifier block from the memo and reproduces the cold result
    /// bit-identically — a hit can never change the answer.
    #[test]
    fn warm_store_hits_reproduce_cold_results(
        f in wrapped(bool_tree(affine_atom(3, false), (2, 6, 3)), QUANTIFIED),
    ) {
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
    fn alpha_renamed_blocks_share_one_elimination(
        m in bool_tree(affine_atom(3, false), (2, 6, 3)),
    ) {
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
