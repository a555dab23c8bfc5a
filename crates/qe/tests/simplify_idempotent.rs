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
//! work to do. Its atoms are `Σ cᵢ·mᵢ REL 0` over `x0..x3`, degree ≤ 2,
//! ground ones (no variables) included so constant folding fires.

use cqa_logic::Rel;
use cqa_qe::simplify;
use cqa_testkit::formula::{raw_formula, term_atom};
use proptest::prelude::*;

const RELS: &[Rel] = &[Rel::Lt, Rel::Le, Rel::Eq, Rel::Neq, Rel::Gt, Rel::Ge];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `simplify` is idempotent: a second pass is the structural identity.
    #[test]
    fn simplify_is_idempotent(f in raw_formula(term_atom(0..4, 4, 2, RELS))) {
        let once = simplify(&f);
        let twice = simplify(&once);
        prop_assert_eq!(&twice, &once, "second pass rewrote: input {:?}", f);
    }
}
