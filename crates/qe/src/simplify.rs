//! Bottom-up formula simplification: constant folding, duplicate removal,
//! and local contradiction/tautology detection on atoms.
//!
//! The working representation is the hash-consed IR of [`cqa_logic::ir`]:
//! [`simplify_id`] rewrites interned dags with a [`FormulaId`]-keyed memo
//! table, so a subformula that occurs a thousand times in an FM/Hörmander
//! blow-up is simplified once, and duplicate detection inside `∧`/`∨`
//! degenerates to id comparison instead of O(size) structural equality.
//! The boxed [`simplify`] entry point is a thin wrapper (intern → rewrite →
//! extern) that produces exactly the same output the tree walker used to.

use cqa_logic::ir::{Arena, FormulaId, Node, TermId};
use cqa_logic::{Formula, Rel};
use cqa_poly::Var;
use std::collections::HashMap;

/// A `FormulaId → FormulaId` memo table for [`simplify_id`]. Reusable
/// across calls against the same [`Arena`]; entries stay valid because
/// interned nodes are immutable.
#[derive(Debug, Default)]
pub struct SimplifyMemo {
    map: HashMap<FormulaId, FormulaId>,
}

impl SimplifyMemo {
    /// An empty memo table.
    pub fn new() -> SimplifyMemo {
        SimplifyMemo::default()
    }
}

/// Simplifies a formula bottom-up:
///
/// * folds ground atoms to `⊤`/`⊥`;
/// * removes duplicate conjuncts/disjuncts (structural);
/// * cancels complementary literal pairs (`p < 0 ∧ p ≥ 0` → `⊥`,
///   `p < 0 ∨ p ≥ 0` → `⊤`);
/// * normalizes atoms so the leading coefficient is positive (`-x < 0`
///   becomes `x > 0`), which makes structural duplicate detection effective.
///
/// The result is logically equivalent to the input.
pub fn simplify(f: &Formula) -> Formula {
    let mut arena = Arena::new();
    let mut memo = SimplifyMemo::new();
    let id = arena.intern(f);
    let s = simplify_id(&mut arena, id, &mut memo);
    arena.extern_formula(s)
}

/// [`simplify`] on an interned formula, memoized per node. Calling it twice
/// on the same id (or on any shared subnode) costs one hash lookup.
pub fn simplify_id(arena: &mut Arena, id: FormulaId, memo: &mut SimplifyMemo) -> FormulaId {
    if let Some(&s) = memo.map.get(&id) {
        return s;
    }
    let node = arena.node(id).clone();
    let out = simplify_node(arena, id, node, memo);
    memo.map.insert(id, out);
    out
}

fn simplify_node(
    arena: &mut Arena,
    id: FormulaId,
    node: Node,
    memo: &mut SimplifyMemo,
) -> FormulaId {
    match node {
        Node::True | Node::False => id,
        Node::Atom { poly, rel } => simplify_atom_id(arena, poly, rel),
        // Relation atoms carry no sign condition to fold, but interning has
        // already normalized them: argument polynomials are canonical
        // `MPoly`s deduplicated through the term table, so structurally
        // equal `R(…)` atoms share one id (the boxed walker used to clone
        // them verbatim, keeping every copy distinct).
        Node::Rel { .. } => id,
        Node::Not(g) => {
            let s = simplify_id(arena, g, memo);
            negate_id(arena, s)
        }
        Node::And(fs) => {
            let mut parts: Vec<FormulaId> = Vec::with_capacity(fs.len());
            for g in fs {
                let s = simplify_id(arena, g, memo);
                match arena.node(s) {
                    Node::True => {}
                    Node::False => return arena.intern_node(Node::False),
                    Node::And(hs) => {
                        for h in hs.clone() {
                            push_unique(&mut parts, h);
                        }
                    }
                    _ => push_unique(&mut parts, s),
                }
            }
            if has_complementary_pair(arena, &parts) {
                return arena.intern_node(Node::False);
            }
            match parts.len() {
                0 => arena.intern_node(Node::True),
                1 => parts[0],
                _ => arena.intern_node(Node::And(parts)),
            }
        }
        Node::Or(fs) => {
            let mut parts: Vec<FormulaId> = Vec::with_capacity(fs.len());
            for g in fs {
                let s = simplify_id(arena, g, memo);
                match arena.node(s) {
                    Node::False => {}
                    Node::True => return arena.intern_node(Node::True),
                    Node::Or(hs) => {
                        for h in hs.clone() {
                            push_unique(&mut parts, h);
                        }
                    }
                    _ => push_unique(&mut parts, s),
                }
            }
            if has_complementary_pair(arena, &parts) {
                return arena.intern_node(Node::True);
            }
            match parts.len() {
                0 => arena.intern_node(Node::False),
                1 => parts[0],
                _ => arena.intern_node(Node::Or(parts)),
            }
        }
        Node::Exists(vs, g) => {
            let s = simplify_id(arena, g, memo);
            match arena.node(s) {
                Node::True | Node::False => s,
                _ => {
                    let keep = kept_vars(arena, &vs, s);
                    mk_exists(arena, keep, s)
                }
            }
        }
        Node::Forall(vs, g) => {
            let s = simplify_id(arena, g, memo);
            match arena.node(s) {
                Node::True | Node::False => s,
                _ => {
                    let keep = kept_vars(arena, &vs, s);
                    mk_forall(arena, keep, s)
                }
            }
        }
        Node::ExistsAdom(v, g) => {
            let s = simplify_id(arena, g, memo);
            match arena.node(s) {
                Node::True | Node::False => s,
                _ => arena.intern_node(Node::ExistsAdom(v, s)),
            }
        }
        Node::ForallAdom(v, g) => {
            let s = simplify_id(arena, g, memo);
            match arena.node(s) {
                Node::True | Node::False => s,
                _ => arena.intern_node(Node::ForallAdom(v, s)),
            }
        }
    }
}

/// Quantified variables that still occur free in the (simplified) body —
/// read off the arena's cached metadata instead of re-walking the tree.
fn kept_vars(arena: &Arena, vs: &[Var], body: FormulaId) -> Vec<Var> {
    let fv = &arena.meta(body).free_vars;
    vs.iter()
        .copied()
        .filter(|v| fv.binary_search(v).is_ok())
        .collect()
}

/// Id-world mirror of [`Formula::exists`]: flattens nested blocks, drops
/// empty binders, passes constants through.
fn mk_exists(arena: &mut Arena, vars: Vec<Var>, body: FormulaId) -> FormulaId {
    if vars.is_empty() {
        return body;
    }
    match arena.node(body).clone() {
        Node::Exists(inner, b) => {
            let mut vs = vars;
            vs.extend(inner);
            arena.intern_node(Node::Exists(vs, b))
        }
        Node::True | Node::False => body,
        _ => arena.intern_node(Node::Exists(vars, body)),
    }
}

/// Id-world mirror of [`Formula::forall`].
fn mk_forall(arena: &mut Arena, vars: Vec<Var>, body: FormulaId) -> FormulaId {
    if vars.is_empty() {
        return body;
    }
    match arena.node(body).clone() {
        Node::Forall(inner, b) => {
            let mut vs = vars;
            vs.extend(inner);
            arena.intern_node(Node::Forall(vs, b))
        }
        Node::True | Node::False => body,
        _ => arena.intern_node(Node::Forall(vars, body)),
    }
}

/// Id-world mirror of [`Formula::negate`]: constants invert, double
/// negation cancels, atoms flip their relation.
pub(crate) fn negate_id(arena: &mut Arena, id: FormulaId) -> FormulaId {
    match *arena.node(id) {
        Node::True => arena.intern_node(Node::False),
        Node::False => arena.intern_node(Node::True),
        Node::Not(g) => g,
        Node::Atom { poly, rel } => arena.intern_node(Node::Atom {
            poly,
            rel: rel.negate(),
        }),
        _ => arena.intern_node(Node::Not(id)),
    }
}

pub(crate) fn simplify_atom_id(arena: &mut Arena, poly: TermId, rel: Rel) -> FormulaId {
    let (folded, lead_neg) = {
        let p = arena.term(poly);
        (
            p.as_constant().map(|c| rel.sign_satisfies(c.signum())),
            p.terms().last().map_or(1, |(_, c)| c.signum()) < 0,
        )
    };
    if let Some(truth) = folded {
        return arena.intern_node(if truth { Node::True } else { Node::False });
    }
    // Normalize: make the coefficient of the leading monomial positive.
    if lead_neg {
        let neg = -arena.term(poly);
        let poly = arena.intern_term(&neg);
        arena.intern_node(Node::Atom {
            poly,
            rel: rel.flip(),
        })
    } else {
        arena.intern_node(Node::Atom { poly, rel })
    }
}

pub(crate) fn push_unique(parts: &mut Vec<FormulaId>, f: FormulaId) {
    if !parts.contains(&f) {
        parts.push(f);
    }
}

pub(crate) fn has_complementary_pair(arena: &Arena, parts: &[FormulaId]) -> bool {
    let atom = |p: FormulaId| match arena.node(p) {
        Node::Atom { poly, rel } => Some((*poly, *rel)),
        _ => None,
    };
    parts.iter().enumerate().any(|(i, &p)| {
        atom(p).is_some_and(|(poly, rel)| {
            parts[i + 1..]
                .iter()
                .any(|&q| atom(q) == Some((poly, rel.negate())))
        })
    })
}

/// `true` iff the two relations on the same polynomial are jointly
/// unsatisfiable (conservative check used by Fourier–Motzkin clause
/// pruning).
pub(crate) fn rels_contradict(a: Rel, b: Rel) -> bool {
    use Rel::*;
    matches!(
        (a, b),
        (Eq, Neq)
            | (Neq, Eq)
            | (Eq, Lt)
            | (Lt, Eq)
            | (Eq, Gt)
            | (Gt, Eq)
            | (Lt, Gt)
            | (Gt, Lt)
            | (Lt, Ge)
            | (Ge, Lt)
            | (Gt, Le)
            | (Le, Gt)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula;

    fn s(src: &str) -> Formula {
        simplify(&parse_formula(src).unwrap().0)
    }

    #[test]
    fn ground_folding() {
        assert_eq!(s("1 < 2"), Formula::True);
        assert_eq!(s("2 < 1"), Formula::False);
        assert_eq!(s("1 < 2 & x < 1"), s("x < 1"));
        assert_eq!(s("2 < 1 | x < 1"), s("x < 1"));
        assert_eq!(s("2 < 1 & x < 1"), Formula::False);
    }

    #[test]
    fn duplicates_removed() {
        let f = s("x < 1 & x < 1 & x < 1");
        assert!(matches!(f, Formula::Atom(_)));
    }

    #[test]
    fn complementary_pairs() {
        assert_eq!(s("x < 1 & x >= 1"), Formula::False);
        assert_eq!(s("x < 1 | x >= 1"), Formula::True);
    }

    #[test]
    fn leading_sign_normalization() {
        // -x < 0 and x > 0 normalize identically.
        assert_eq!(s("0 < x"), s("-x < 0"));
        assert_eq!(s("0 - x < 0 & x > 0"), s("x > 0"));
    }

    #[test]
    fn quantifier_pruning() {
        assert_eq!(s("exists y. 1 < 2"), Formula::True);
        // unused quantified var dropped
        let f = s("exists y, z. y > x");
        match f {
            Formula::Exists(vs, _) => assert_eq!(vs.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memoized_rewrite_shares_work() {
        // The same subformula appearing many times simplifies through one
        // memo entry, and duplicate conjuncts collapse by id.
        let (f, _) = parse_formula("(0 - x < 0 & x > 0) | (0 - x < 0 & x > 0)").unwrap();
        let mut arena = Arena::new();
        let mut memo = SimplifyMemo::new();
        let id = arena.intern(&f);
        let s = simplify_id(&mut arena, id, &mut memo);
        // Both disjuncts normalize to the single atom x > 0.
        assert!(matches!(arena.node(s), Node::Atom { .. }));
        // Second call is a pure memo hit: the arena does not grow.
        let before = arena.stats().nodes;
        assert_eq!(simplify_id(&mut arena, id, &mut memo), s);
        assert_eq!(arena.stats().nodes, before);
    }

    #[test]
    fn rel_atoms_hash_cons_together() {
        let (f, _) = parse_formula("R(x + x, 1) & R(2*x, 1)").unwrap();
        let mut arena = Arena::new();
        let id = arena.intern(&f);
        // `x + x` and `2*x` are the same canonical MPoly, so the two
        // relation atoms intern to the same node and simplify drops the
        // duplicate conjunct.
        let s = simplify_id(&mut arena, id, &mut SimplifyMemo::new());
        assert!(
            matches!(arena.node(s), Node::Rel { .. }),
            "{:?}",
            arena.node(s)
        );
    }
}
