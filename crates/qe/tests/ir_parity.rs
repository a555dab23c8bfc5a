//! Property tests for the hash-consed IR: interning is lossless and
//! idempotent, everything downstream — evaluation, the memoized
//! simplifier, the canonical cache key — agrees between the boxed tree
//! and the arena representation, and neither the key nor Fourier–Motzkin's
//! output depends on what else an arena holds.
//!
//! These live in `cqa-qe` (not `cqa-logic`) because the simplifier parity
//! half needs [`cqa_qe::simplify_id`], and `cqa-qe` already depends on
//! `cqa-logic` (the reverse dependency would be circular).

use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Arena;
use cqa_logic::{dnf, parse_formula_with, VarMap};
use cqa_poly::Var;
use cqa_qe::{fm_eliminate_exists, simplify, simplify_id, SimplifyMemo};
use cqa_testkit::formula::Wrap::{self, *};
use cqa_testkit::formula::{agree_on_grid, qf_affine, wrapped};
use proptest::prelude::*;

/// Formulas with quantifiers and relation atoms layered on top — extern ∘
/// intern must be lossless for every constructor, not just the ones QE
/// accepts.
const ANY: &[Wrap] = &[Exists(&[1]), Forall(&[0]), ExistsAdom(1), AndRel, Bare];

/// The FM blow-up workload through a shared arena: the DNF expansion of
/// `⋀ᵢ (y < xᵢ ∨ xᵢ < y)` has `2^m` clauses built from only `2m` distinct
/// literals, so hash-consing must store it as a dag — more intern calls
/// than nodes.
#[test]
fn fm_blowup_shares_nodes_in_the_arena() {
    const M: usize = 8;
    let literals: Vec<String> = (0..M).map(|i| format!("(y < x{i} | x{i} < y)")).collect();
    let mut vars = VarMap::new();
    let matrix = parse_formula_with(&literals.join(" & "), &mut vars).unwrap();
    let y = vars.get("y").unwrap();
    let mut arena = Arena::new();
    let qf = fm_eliminate_exists(y, &matrix, &EvalBudget::unlimited(), &mut arena, false).unwrap();
    assert!(qf.is_quantifier_free() && !qf.free_vars().contains(&y));
    let stats = arena.stats();
    assert!(
        stats.dedup_ratio() > 1.0,
        "hash-consing must find sharing on the blow-up workload: {stats:?}"
    );
}

/// Fourier–Motzkin's output is a function of its input alone: eliminating
/// in a fresh arena and in one that already holds the clause literals,
/// interned in reverse order, gives the same formula, children in the same
/// order.
#[test]
fn fm_output_does_not_depend_on_arena_history() {
    let mut vars = VarMap::new();
    let src = "(x0 < y | x1 < y) & (y < x2 | 2*y < x3) & x4 < y";
    let matrix = parse_formula_with(src, &mut vars).unwrap();
    let y = vars.get("y").unwrap();
    let budget = EvalBudget::unlimited();
    let fresh = fm_eliminate_exists(y, &matrix, &budget, &mut Arena::new(), false).unwrap();
    let mut used = Arena::new();
    for literal in dnf(&simplify(&matrix)).concat().iter().rev() {
        used.intern(literal);
    }
    let again = fm_eliminate_exists(y, &matrix, &budget, &mut used, false).unwrap();
    assert_eq!(fresh, again);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `extern(intern(f))` reconstructs `f` exactly — every constructor,
    /// including quantifiers and relation atoms.
    #[test]
    fn extern_intern_is_lossless(f in wrapped(qf_affine(2, true), ANY)) {
        let mut arena = Arena::new();
        let id = arena.intern(&f);
        prop_assert_eq!(arena.extern_formula(id), f);
    }

    /// Interning is idempotent: re-interning an externed formula yields
    /// the same id, and no new nodes are allocated.
    #[test]
    fn intern_is_idempotent(f in wrapped(qf_affine(2, true), ANY)) {
        let mut arena = Arena::new();
        let id = arena.intern(&f);
        let nodes_before = arena.stats().nodes;
        let g = arena.extern_formula(id);
        prop_assert_eq!(arena.intern(&g), id);
        prop_assert_eq!(arena.stats().nodes, nodes_before);
    }

    /// The round-trip evaluates identically to the boxed original on a
    /// rational grid.
    #[test]
    fn roundtrip_eval_parity(f in qf_affine(2, true)) {
        let mut arena = Arena::new();
        let id = arena.intern(&f);
        let g = arena.extern_formula(id);
        agree_on_grid(&f, &g, 2, 3)?;
    }

    /// The memoized id-world simplifier produces exactly the formula the
    /// boxed-tree entry point does, and both preserve semantics.
    #[test]
    fn simplify_id_matches_tree_simplify(f in qf_affine(2, true)) {
        let tree = simplify(&f);
        let mut arena = Arena::new();
        let mut memo = SimplifyMemo::new();
        let id = arena.intern(&f);
        let sid = simplify_id(&mut arena, id, &mut memo);
        let via_arena = arena.extern_formula(sid);
        prop_assert_eq!(&via_arena, &tree);
        agree_on_grid(&f, &via_arena, 2, 3)?;
    }

    /// Simplifying twice through the memo is a fixpoint in id space.
    #[test]
    fn simplify_id_is_idempotent(f in qf_affine(2, true)) {
        let mut arena = Arena::new();
        let mut memo = SimplifyMemo::new();
        let id = arena.intern(&f);
        let once = simplify_id(&mut arena, id, &mut memo);
        let twice = simplify_id(&mut arena, once, &mut memo);
        prop_assert_eq!(once, twice);
    }

    /// The canonical hash is a function of the formula, not of the arena:
    /// an arena grown in another order (g first) and a fresh arena fed the
    /// round-tripped tree agree on it, though their ids differ.
    #[test]
    fn canonical_hash_is_arena_independent(f in qf_affine(2, true), g in qf_affine(2, true)) {
        let params = [Var(0), Var(1)];
        let mut arena = Arena::new();
        let fid = arena.intern(&f);
        let gid = arena.intern(&g);
        let mut other = Arena::new();
        let gid_other = other.intern(&g);
        let fid_other = other.intern(&f);
        prop_assert_eq!(
            arena.canonical_hash_for_params(fid, &params),
            other.canonical_hash_for_params(fid_other, &params)
        );
        prop_assert_eq!(
            arena.canonical_hash_for_params(gid, &params),
            other.canonical_hash_for_params(gid_other, &params)
        );
        let mut fresh = Arena::new();
        let round_trip = fresh.intern(&arena.extern_formula(fid));
        prop_assert_eq!(
            fresh.canonical_hash_for_params(round_trip, &params),
            arena.canonical_hash_for_params(fid, &params)
        );
    }
}
