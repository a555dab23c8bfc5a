//! Syntactic safety discipline: sound, QE-free under-approximations of the
//! semantic determinism and finiteness checks.
//!
//! The FO+POLY+SUM closure argument (paper §5, Theorem 3) rests on
//! *syntactic* guarantees — a summand γ must be deterministic, a range must
//! be finite — yet deciding those properties semantically costs a full
//! quantifier elimination per query ([`is_deterministic`-style sentences,
//! `crate::is_finite_set`]). This module recognizes the paper's
//! functional-graph shape `x = t(w⃗)` and its finite-union closure
//! directly on the AST:
//!
//! * [`is_syntactically_deterministic`] — γ(x, w⃗) contains a conjunct
//!   pinning `x` to a polynomial term over w⃗ alone, so at most one output
//!   exists per input. Sound: accepted ⇒ semantically deterministic.
//! * [`is_syntactically_finite`] — every variable is pinned, directly or
//!   triangularly through already-pinned variables, in every disjunct.
//!   Sound: accepted ⇒ the defined set is finite.
//!
//! Both are *under*-approximations: rejection means "not certifiable
//! syntactically", not "unsafe" — callers fall back to the semantic check.
//! Programs that pass skip the per-query QE entirely (the fast path wired
//! into `cqa-agg`'s `SumTerm::eval_with_budget`), and `cqa-analyze` uses the
//! same functions to lint programs before any evaluation starts.

use cqa_logic::Formula;
use cqa_poly::{MPoly, Var};
use std::collections::BTreeSet;

/// Does `p = 0` pin `v` to a term over `allowed` variables only?
///
/// Requires `p` to be degree 1 in `v` with a *constant* (nonzero rational)
/// coefficient — then `p = 0` rewrites to `v = t` with
/// `vars(t) ⊆ allowed` — so the equation determines `v` everywhere, not
/// just where some leading coefficient is nonzero.
fn pins(p: &MPoly, v: Var, allowed: &BTreeSet<Var>) -> bool {
    if p.degree_in(v) != 1 {
        return false;
    }
    let coeffs = p.as_univariate_in(v);
    // coeffs = [c₀, c₁] with p = c₁·v + c₀.
    if coeffs.len() != 2 || coeffs[1].as_constant().is_none() {
        return false;
    }
    coeffs[0].vars().iter().all(|w| allowed.contains(w))
}

/// Is the conjunct `f` a *unique* pin of `v` over `allowed` — a single
/// equality atom rewriting to `v = t`? This is the determinism-grade test:
/// exactly one candidate value per assignment of `allowed`.
fn conjunct_pins_uniquely(f: &Formula, v: Var, allowed: &BTreeSet<Var>) -> bool {
    match f {
        Formula::Atom(a) if a.rel == cqa_logic::Rel::Eq => pins(&a.poly, v, allowed),
        _ => false,
    }
}

/// Is the conjunct `f` a *finite* pin of `v` over `allowed`? Accepts a
/// plain equality atom or a disjunction of equality atoms each pinning `v`
/// — finitely many candidate values still keep the set finite (but do NOT
/// keep a summand deterministic; see [`conjunct_pins_uniquely`]).
fn conjunct_pins(f: &Formula, v: Var, allowed: &BTreeSet<Var>) -> bool {
    match f {
        Formula::Atom(a) if a.rel == cqa_logic::Rel::Eq => pins(&a.poly, v, allowed),
        Formula::Or(gs) => !gs.is_empty() && gs.iter().all(|g| conjunct_pins(g, v, allowed)),
        _ => false,
    }
}

/// The conjuncts of `f` viewed as a conjunction (a non-`And` formula is a
/// single conjunct).
fn conjuncts(f: &Formula) -> &[Formula] {
    match f {
        Formula::And(gs) => gs,
        _ => std::slice::from_ref(f),
    }
}

/// Sound syntactic determinism: `true` only if γ(x, w⃗) provably defines a
/// partial function from `w⃗` to `x` — some conjunct of γ (after stripping
/// leading existential blocks) pins `x` to a polynomial term over `w⃗`
/// alone.
///
/// Accepted ⇒ `∀w⃗∀x∀x'. γ(x,w⃗) ∧ γ(x',w⃗) → x = x'` holds: the pinning
/// conjunct forces `x = t(w⃗)` in every model, and any further conjuncts
/// only shrink the graph. Unlike the semantic check this also certifies
/// summands that mention database relations (the extra atoms are
/// constraints, never sources of additional outputs).
///
/// Rejection is *not* a verdict — `x·x = w` is rejected here yet genuinely
/// non-deterministic, while `x = w ∧ R(w)` under a quantifier alternation
/// may be rejected yet fine; callers fall back to the QE-based check.
pub fn is_syntactically_deterministic(gamma: &Formula, out: Var, in_vars: &[Var]) -> bool {
    let allowed: BTreeSet<Var> = in_vars.iter().copied().collect();
    if allowed.contains(&out) {
        return false;
    }
    // Strip leading existential blocks: ∃z⃗.γ' is a function of w⃗ whenever
    // the pin inside γ' uses only w⃗ (not z⃗), which `allowed` enforces —
    // unless a block rebinds x or some wᵢ, making the inner occurrences
    // refer to the bound variable instead.
    let mut body = gamma;
    while let Formula::Exists(vs, inner) = body {
        if vs.iter().any(|v| *v == out || allowed.contains(v)) {
            return false;
        }
        body = inner;
    }
    conjuncts(body)
        .iter()
        .any(|c| conjunct_pins_uniquely(c, out, &allowed))
}

/// Sound syntactic finiteness: `true` only if `{x⃗ : f(x⃗)}` with
/// `x⃗ = vars` is provably finite — in every disjunct of `f`, every
/// variable of `vars` is pinned to a term over previously-pinned variables
/// (a triangular system), possibly through a disjunction of candidate
/// values.
///
/// `f` must be quantifier-free and relation-free over `vars` (the same
/// contract as [`crate::is_finite_set`]); anything else is rejected.
pub fn is_syntactically_finite(f: &Formula, vars: &[Var]) -> bool {
    if !f.is_quantifier_free() || !f.is_relation_free() {
        return false;
    }
    if f.free_vars().iter().any(|v| !vars.contains(v)) {
        return false;
    }
    finite_rec(f, vars)
}

fn finite_rec(f: &Formula, vars: &[Var]) -> bool {
    match f {
        Formula::False => true,
        Formula::True => vars.is_empty(),
        Formula::Or(gs) => gs.iter().all(|g| finite_rec(g, vars)),
        _ => {
            // A conjunction (or single atom): run the triangular-pin
            // fixpoint over the conjuncts.
            let cs = conjuncts(f);
            let mut pinned: BTreeSet<Var> = BTreeSet::new();
            loop {
                let next = vars.iter().copied().find(|&v| {
                    !pinned.contains(&v) && cs.iter().any(|c| conjunct_pins(c, v, &pinned))
                });
                match next {
                    Some(v) => {
                        pinned.insert(v);
                    }
                    None => break,
                }
            }
            vars.iter().all(|v| pinned.contains(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::{parse_formula_with, VarMap};

    fn setup(src: &str, names: &[&str]) -> (Formula, Vec<Var>) {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        (f, vs)
    }

    #[test]
    fn functional_graphs_are_deterministic() {
        let (f, vs) = setup("x = 2*w + 1", &["x", "w"]);
        assert!(is_syntactically_deterministic(&f, vs[0], &vs[1..]));
        // Extra conjuncts only shrink the graph.
        let (g, vs) = setup("x = w*w & w > 0", &["x", "w"]);
        assert!(is_syntactically_deterministic(&g, vs[0], &vs[1..]));
        // Relation atoms are fine too.
        let (h, vs) = setup("x = w & R(w)", &["x", "w"]);
        assert!(is_syntactically_deterministic(&h, vs[0], &vs[1..]));
        // Scaled output variable still pins (x = w/2).
        let (k, vs) = setup("2*x = w", &["x", "w"]);
        assert!(is_syntactically_deterministic(&k, vs[0], &vs[1..]));
    }

    #[test]
    fn non_functional_shapes_are_rejected() {
        // Two solutions per input.
        let (f, vs) = setup("x*x = w", &["x", "w"]);
        assert!(!is_syntactically_deterministic(&f, vs[0], &vs[1..]));
        // Coefficient of x is a variable: x undetermined where w2 = 0.
        let (g, vs) = setup("w2*x = w1", &["x", "w1", "w2"]);
        assert!(!is_syntactically_deterministic(&g, vs[0], &vs[1..]));
        // Disjunction offers two candidate outputs.
        let (h, vs) = setup("x = w | x = w + 1", &["x", "w"]);
        assert!(!is_syntactically_deterministic(&h, vs[0], &vs[1..]));
        // Pin through a quantified variable is not a function of w.
        let (k, vs) = setup("exists z. x = z & z > w", &["x", "w"]);
        assert!(!is_syntactically_deterministic(&k, vs[0], &vs[1..]));
    }

    #[test]
    fn exists_block_over_functional_body_accepted() {
        // ∃z. x = 2*w ∧ z > w: the pin ignores z.
        let (f, vs) = setup("exists z. x = 2*w & z > w", &["x", "w"]);
        assert!(is_syntactically_deterministic(&f, vs[0], &vs[1..]));
    }

    #[test]
    fn finite_shapes() {
        let (f, vs) = setup("x = 1 | x = 2", &["x"]);
        assert!(is_syntactically_finite(&f, &vs));
        let (g, vs) = setup("(x = 0 | x = 1) & y = x + 1", &["x", "y"]);
        assert!(is_syntactically_finite(&g, &vs));
        let (h, vs) = setup("false", &["x"]);
        assert!(is_syntactically_finite(&h, &vs));
        let (k, vs) = setup("x = 1 & y = 2 & x < y", &["x", "y"]);
        assert!(is_syntactically_finite(&k, &vs));
    }

    #[test]
    fn infinite_or_uncertifiable_shapes_rejected() {
        // A genuine interval.
        let (f, vs) = setup("0 <= x & x <= 1", &["x"]);
        assert!(!is_syntactically_finite(&f, &vs));
        // Finite but not syntactically recognizable (x² = 4).
        let (g, vs) = setup("x*x = 4", &["x"]);
        assert!(!is_syntactically_finite(&g, &vs));
        // y pinned, x free.
        let (h, vs) = setup("y = 1", &["x", "y"]);
        assert!(!is_syntactically_finite(&h, &vs));
        // Free variable outside vars.
        let (k, vs) = setup("x = z", &["x"]);
        assert!(!is_syntactically_finite(&k, &vs));
        // Circular pins x = y ∧ y = x do not triangularize.
        let (c, vs) = setup("x = y & y = x", &["x", "y"]);
        assert!(!is_syntactically_finite(&c, &vs));
    }

    #[test]
    fn triangular_chains() {
        let (f, vs) = setup("x = 3 & y = 2*x & z = x + y", &["x", "y", "z"]);
        assert!(is_syntactically_finite(&f, &vs));
        // Order of vars doesn't matter.
        let (g, vs) = setup("z = x + y & x = 3 & y = 2*x", &["z", "y", "x"]);
        assert!(is_syntactically_finite(&g, &vs));
    }
}
