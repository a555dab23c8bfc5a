//! Idempotence of `cqa_qe::simplify`.
//!
//! The prepared-query cache in `cqa-engine` keys entries by the canonical
//! hash (`Arena::canonical_hash_for_params`) of the *simplified* formula,
//! so simplification must be a projection: `simplify(simplify(f)) ==
//! simplify(f)` structurally (not merely up to equivalence), and then the
//! key of a simplified formula is stable too. A second pass that keeps
//! rewriting would make the same query key differently depending on how
//! many times it passed through the pipeline.
//!
//! The strategy deliberately builds raw AST nodes (`And(vec)`, `Not(box)`,
//! quantifiers over unused variables, adom quantifiers) rather than going
//! through the smart constructors, so the first `simplify` pass has real
//! work to do.

use cqa_arith::Rat;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use cqa_qe::simplify;
use proptest::prelude::*;

/// A random atom `Σ cᵢ·mᵢ REL 0` over `x0..x3`, degree ≤ 2, including
/// ground atoms (no variables) so constant folding fires.
fn atom_strategy() -> impl Strategy<Value = Formula> {
    (
        prop::collection::vec((-3i64..=3, 0u32..=2, 0usize..4), 0..4),
        -2i64..=2,
        0usize..6,
    )
        .prop_map(|(terms, konst, rel_idx)| {
            let rel = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Neq, Rel::Gt, Rel::Ge][rel_idx];
            let mut p = MPoly::constant(Rat::from(konst));
            for (c, pow, v) in terms {
                p = p + MPoly::var(Var(v as u32)).pow(pow).scale(&Rat::from(c));
            }
            Formula::Atom(Atom::new(p, rel))
        })
}

/// A random formula tree built from *raw* constructors: n-ary `And`/`Or`
/// (possibly empty or single-child), `Not`, natural and active-domain
/// quantifiers (possibly binding unused variables), plus constants and
/// relation atoms.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        atom_strategy(),
        atom_strategy(),
        atom_strategy(),
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::Rel {
            name: "S".to_string(),
            args: vec![MPoly::var(Var(0))],
        }),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Formula::Or),
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (prop::collection::vec(0u32..4, 1..3), inner.clone()).prop_map(|(vs, f)| {
                Formula::Exists(vs.into_iter().map(Var).collect(), Box::new(f))
            }),
            (prop::collection::vec(0u32..4, 1..3), inner.clone()).prop_map(|(vs, f)| {
                Formula::Forall(vs.into_iter().map(Var).collect(), Box::new(f))
            }),
            (0u32..4, inner.clone()).prop_map(|(v, f)| Formula::ExistsAdom(Var(v), Box::new(f))),
            (0u32..4, inner).prop_map(|(v, f)| Formula::ForallAdom(Var(v), Box::new(f))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `simplify` is idempotent: a second pass is the structural identity.
    #[test]
    fn simplify_is_idempotent(f in formula_strategy()) {
        let once = simplify(&f);
        let twice = simplify(&once);
        prop_assert_eq!(&twice, &once, "second pass rewrote: input {:?}", f);
    }
}
