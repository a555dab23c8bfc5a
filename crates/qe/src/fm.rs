//! Fourier–Motzkin quantifier elimination for linear formulas.
//!
//! Eliminates one real variable at a time from each DNF clause: atoms are
//! solved for the variable into lower/upper bounds (and equalities /
//! disequalities), equalities are substituted, disequalities split, and the
//! surviving bounds cross-combined. Exponential in general — this is the
//! honest cost the paper's Section 3 discussion alludes to, and what
//! `qe.eliminate_lin.us_per_op` in `cqa-e2e` measures — but exact and
//! straightforward to audit.

use crate::simplify::{rels_contradict, simplify};
use crate::QeError;
use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::{Arena, FormulaId};
use cqa_logic::{dnf, prenex, Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use std::collections::HashSet;

/// Eliminates all quantifiers from a linear (FO+LIN) formula via
/// Fourier–Motzkin. Returns an equivalent quantifier-free formula.
///
/// Errors with [`QeError::NonLinear`] if some atom is not affine in an
/// eliminated variable. Checks the cooperative [`EvalBudget`] per
/// eliminated clause and per bound combination, and gates each elimination
/// round on the intermediate formula's atom count; aborts with
/// [`QeError::Budget`] when it is exhausted.
pub fn fourier_motzkin(f: &Formula, budget: &EvalBudget) -> Result<Formula, QeError> {
    crate::check_input(f)?;
    let arena = &mut Arena::new();
    let (blocks, mut matrix) = prenex(f);
    for block in blocks.into_iter().rev() {
        for &v in block.vars.iter().rev() {
            budget.check_atoms(matrix.atom_count() as u64)?;
            if block.exists {
                matrix = eliminate_exists(v, &matrix, budget, arena)?;
            } else {
                matrix = eliminate_exists(v, &matrix.negate(), budget, arena)?.negate();
            }
        }
        matrix = simplify(&matrix);
    }
    Ok(simplify(&matrix))
}

/// Eliminates `∃v` from a quantifier-free formula.
pub(crate) fn eliminate_exists(
    v: Var,
    f: &Formula,
    budget: &EvalBudget,
    arena: &mut Arena,
) -> Result<Formula, QeError> {
    fm_eliminate_exists(v, f, budget, arena, false)
}

/// Per-variable Fourier–Motzkin entry point for the planner
/// ([`crate::plan`]): eliminates `∃v` from a quantifier-free formula. With
/// `prune` set, DNF clauses failing the cheap [`clause_obviously_empty`]
/// contradiction test are dropped *before* bound cross-combination —
/// semantics-preserving (an unsatisfiable clause contributes `⊥` to the
/// disjunction) but not necessarily bit-identical to the unpruned run, so
/// the fixed pipeline never sets it.
pub fn fm_eliminate_exists(
    v: Var,
    f: &Formula,
    budget: &EvalBudget,
    arena: &mut Arena,
    prune: bool,
) -> Result<Formula, QeError> {
    let clauses = dnf(&simplify(f));
    // The DNF cross-product repeats literals within a clause and whole
    // clauses across the expansion; intern everything and dedup by id —
    // integer comparisons instead of O(size) structural equality. Literals
    // are ordered by structural hash, not by id: ids number nodes in the
    // order the arena first saw them, and the output must not depend on
    // what else the caller's arena holds.
    let mut seen_clauses: HashSet<Vec<FormulaId>> = HashSet::new();
    let mut seen_out: HashSet<FormulaId> = HashSet::new();
    let mut out = Formula::False;
    for clause in clauses {
        budget.check()?;
        let mut ids: Vec<FormulaId> = clause.iter().map(|l| arena.intern(l)).collect();
        ids.sort_unstable_by_key(|&l| (arena.structural_hash(l), l));
        ids.dedup();
        if !seen_clauses.insert(ids.clone()) {
            continue;
        }
        let lits: Vec<Formula> = ids.iter().map(|&l| arena.extern_formula(l)).collect();
        if prune {
            let atoms: Vec<Atom> = lits
                .iter()
                .filter_map(|l| match l {
                    Formula::Atom(a) => Some(a.clone()),
                    _ => None,
                })
                .collect();
            if clause_obviously_empty(&atoms) {
                continue;
            }
        }
        let e = eliminate_clause(v, lits, budget)?;
        let eid = arena.intern(&e);
        if seen_out.insert(eid) {
            out = out.or(e);
        }
    }
    Ok(out)
}

/// One solved atom: the variable compared against a term.
#[derive(Clone, Debug)]
enum Bound {
    /// `v < t` (strict) or `v ≤ t`.
    Upper(MPoly, bool),
    /// `t < v` (strict) or `t ≤ v`.
    Lower(MPoly, bool),
    /// `v = t`.
    Equal(MPoly),
    /// `v ≠ t`.
    Unequal(MPoly),
}

/// Solves `poly REL 0` for `v`. `poly = a·v + rest` with `a` a non-zero
/// rational constant; result compares `v` against `t = -rest/a`.
fn solve_for(v: Var, atom: &Atom) -> Result<Bound, QeError> {
    let coeffs = atom.poly.as_univariate_in(v);
    if coeffs.len() != 2 {
        return Err(QeError::NonLinear(format!(
            "degree {} in eliminated variable",
            coeffs.len().saturating_sub(1)
        )));
    }
    let Some(a) = coeffs[1].as_constant() else {
        return Err(QeError::NonLinear(
            "non-constant coefficient of eliminated variable".into(),
        ));
    };
    debug_assert!(!a.is_zero());
    let t = coeffs[0].scale(&(-a.recip().clone()));
    // a·v + rest REL 0  ⇔  v REL' t, flipping REL when a < 0.
    let rel = if a.is_negative() {
        atom.rel.flip()
    } else {
        atom.rel
    };
    Ok(match rel {
        Rel::Lt => Bound::Upper(t, true),
        Rel::Le => Bound::Upper(t, false),
        Rel::Gt => Bound::Lower(t, true),
        Rel::Ge => Bound::Lower(t, false),
        Rel::Eq => Bound::Equal(t),
        Rel::Neq => Bound::Unequal(t),
    })
}

fn atom_formula(poly: MPoly, rel: Rel) -> Formula {
    let a = Atom::new(poly, rel);
    match a.as_const() {
        Some(true) => Formula::True,
        Some(false) => Formula::False,
        None => Formula::Atom(a),
    }
}

/// Eliminates `∃v` from a single conjunction of literals.
fn eliminate_clause(v: Var, clause: Vec<Formula>, budget: &EvalBudget) -> Result<Formula, QeError> {
    let mut rest = Formula::True; // conjuncts not mentioning v
    let mut bounds: Vec<Bound> = Vec::new();
    for lit in clause {
        match &lit {
            Formula::Atom(a) if a.poly.vars().contains(&v) => {
                bounds.push(solve_for(v, a)?);
            }
            Formula::Atom(_) | Formula::True => rest = rest.and(lit),
            Formula::False => return Ok(Formula::False),
            Formula::Rel { .. } | Formula::Not(_) => return Err(QeError::HasRelations),
            other => unreachable!("non-literal in DNF clause: {other:?}"),
        }
    }
    if rest == Formula::False {
        return Ok(Formula::False);
    }

    // Equalities: substitute the first into everything else.
    if let Some(pos) = bounds.iter().position(|b| matches!(b, Bound::Equal(_))) {
        let Bound::Equal(t) = bounds.swap_remove(pos) else {
            unreachable!()
        };
        let mut out = rest;
        for b in bounds {
            let conjunct = match b {
                Bound::Upper(u, true) => atom_formula(&t - &u, Rel::Lt),
                Bound::Upper(u, false) => atom_formula(&t - &u, Rel::Le),
                Bound::Lower(l, true) => atom_formula(&l - &t, Rel::Lt),
                Bound::Lower(l, false) => atom_formula(&l - &t, Rel::Le),
                Bound::Equal(t2) => atom_formula(&t - &t2, Rel::Eq),
                Bound::Unequal(t2) => atom_formula(&t - &t2, Rel::Neq),
            };
            out = out.and(conjunct);
            if out == Formula::False {
                return Ok(Formula::False);
            }
        }
        return Ok(out);
    }

    combine_bounds(rest, bounds, budget)
}

/// Cross-combines lower and upper bounds, recursively splitting any
/// remaining disequalities (`v ≠ t` ⇒ `v < t ∨ v > t`).
fn combine_bounds(
    rest: Formula,
    mut bounds: Vec<Bound>,
    budget: &EvalBudget,
) -> Result<Formula, QeError> {
    budget.check()?;
    if let Some(pos) = bounds.iter().position(|b| matches!(b, Bound::Unequal(_))) {
        let Bound::Unequal(t) = bounds.swap_remove(pos) else {
            unreachable!()
        };
        let mut less = bounds.clone();
        less.push(Bound::Upper(t.clone(), true));
        let mut greater = bounds;
        greater.push(Bound::Lower(t, true));
        let a = combine_bounds(rest.clone(), less, budget)?;
        let b = combine_bounds(rest, greater, budget)?;
        return Ok(a.or(b));
    }
    let mut lowers: Vec<(MPoly, bool)> = Vec::new();
    let mut uppers: Vec<(MPoly, bool)> = Vec::new();
    for b in bounds {
        match b {
            Bound::Lower(t, s) => lowers.push((t, s)),
            Bound::Upper(t, s) => uppers.push((t, s)),
            Bound::Equal(_) | Bound::Unequal(_) => {
                unreachable!("equalities handled before bound combination")
            }
        }
    }
    let mut out = rest;
    for (l, ls) in &lowers {
        for (u, us) in &uppers {
            let rel = if *ls || *us { Rel::Lt } else { Rel::Le };
            out = out.and(atom_formula(l - u, rel));
            if out == Formula::False {
                return Ok(Formula::False);
            }
        }
    }
    Ok(out)
}

/// Quick clause-level contradiction check: two atoms on the same polynomial
/// (or its negation) with contradictory relations. Useful as a cheap
/// pre-filter before full satisfiability checking.
pub fn clause_obviously_empty(clause: &[Atom]) -> bool {
    for (i, a) in clause.iter().enumerate() {
        for b in &clause[i + 1..] {
            if a.poly == b.poly && rels_contradict(a.rel, b.rel) {
                return true;
            }
            let zero: MPoly = &a.poly + &b.poly;
            if zero.is_zero() {
                // a.poly = -b.poly: p<0 & -p<0 etc.
                let flipped = b.rel.flip();
                if rels_contradict(a.rel, flipped) {
                    return true;
                }
            }
        }
    }
    false
}

/// Samples a rational witness for `∃v` in a satisfiable conjunction of
/// linear bounds at a given assignment of the other variables — used by the
/// geometry layer for cell sampling. Returns `None` if the bounds are
/// inconsistent at that point.
pub fn sample_between(v: Var, atoms: &[Atom], assign: &dyn Fn(Var) -> Rat) -> Option<Rat> {
    let mut lo: Option<(Rat, bool)> = None; // (value, strict)
    let mut hi: Option<(Rat, bool)> = None;
    let mut avoid: Vec<Rat> = Vec::new();
    for a in atoms {
        if !a.poly.vars().contains(&v) {
            continue;
        }
        let b = solve_for(v, a).ok()?;
        let value = |t: &MPoly| t.eval(assign);
        match b {
            Bound::Upper(t, s) => {
                let tv = value(&t);
                if hi
                    .as_ref()
                    .is_none_or(|(h, hs)| tv < *h || (tv == *h && s && !hs))
                {
                    hi = Some((tv, s));
                }
            }
            Bound::Lower(t, s) => {
                let tv = value(&t);
                if lo
                    .as_ref()
                    .is_none_or(|(l, ls)| tv > *l || (tv == *l && s && !ls))
                {
                    lo = Some((tv, s));
                }
            }
            Bound::Equal(t) => {
                let tv = value(&t);
                lo = Some((tv.clone(), false));
                hi = Some((tv, false));
            }
            Bound::Unequal(t) => avoid.push(value(&t)),
        }
    }
    let candidate = match (&lo, &hi) {
        (None, None) => Rat::zero(),
        (Some((l, _)), None) => l + Rat::one(),
        (None, Some((h, _))) => h - Rat::one(),
        (Some((l, ls)), Some((h, hs))) => {
            if l > h || (l == h && (*ls || *hs)) {
                return None;
            }
            if l == h {
                l.clone()
            } else {
                l.midpoint(h)
            }
        }
    };
    if !avoid.contains(&candidate) {
        return Some(candidate);
    }
    // Nudge toward the upper end until clear of avoided points.
    let upper = hi.map(|(h, _)| h);
    let mut c = candidate;
    loop {
        let next = match &upper {
            Some(h) => c.midpoint(h),
            None => &c + Rat::one(),
        };
        if next == c {
            return None;
        }
        if !avoid.contains(&next) {
            return Some(next);
        }
        c = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::parse_formula;

    fn f(src: &str) -> Formula {
        parse_formula(src).unwrap().0
    }

    /// Runs FM on `query` and checks semantic equivalence with `expected`,
    /// parsing both with a shared variable map.
    fn check(query: &str, expected: &str) {
        let mut vars = cqa_logic::VarMap::new();
        let q = cqa_logic::parse_formula_with(query, &mut vars).unwrap();
        let e = cqa_logic::parse_formula_with(expected, &mut vars).unwrap();
        let g = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
        agree(&g, &e);
    }

    /// Semantic equivalence on a sample grid (both formulas quantifier-free,
    /// same variables).
    fn agree(a: &Formula, b: &Formula) {
        let vars: Vec<Var> = a.free_vars().union(&b.free_vars()).copied().collect();
        let samples: Vec<Rat> = (-6..=6).map(|n| Rat::new(n.into(), 2i64.into())).collect();
        let mut idx = vec![0usize; vars.len()];
        loop {
            let vals: Vec<Rat> = idx.iter().map(|&i| samples[i].clone()).collect();
            let asg = |v: Var| {
                vars.iter()
                    .position(|&w| w == v)
                    .map(|i| vals[i].clone())
                    .unwrap_or_else(Rat::zero)
            };
            assert_eq!(
                a.eval(&asg, &[]),
                b.eval(&asg, &[]),
                "disagree at {vals:?}\n a={a:?}\n b={b:?}"
            );
            let mut k = 0;
            loop {
                if k == idx.len() {
                    return;
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

    #[test]
    fn simple_projection() {
        check("exists y. x < y & y < 1", "x < 1");
    }

    #[test]
    fn weak_and_strict_bounds() {
        check("exists y. x <= y & y < 1", "x < 1");
        check("exists y. x <= y & y <= 1", "x <= 1");
    }

    #[test]
    fn equality_substitution() {
        check("exists y. y = 2*x & y < 1", "2*x < 1");
    }

    #[test]
    fn disequality_split() {
        // ∃y. 0 < y < 1 ∧ y ≠ x  — always true (interval minus a point).
        check("exists y. 0 < y & y < 1 & y != x", "true");
        // ∃y. 0 ≤ y ≤ 0 ∧ y ≠ x  ⇔  x ≠ 0.
        check("exists y. 0 <= y & y <= 0 & y != x", "x != 0");
    }

    #[test]
    fn unbounded_directions() {
        check("exists y. x < y", "true");
        check("exists y. y < x & y > x", "false");
    }

    #[test]
    fn universal_quantifier() {
        check("forall y. y > x | y <= x", "true");
        check("forall y. y > x", "false");
    }

    #[test]
    fn alternating_quantifiers() {
        assert_eq!(
            fourier_motzkin(
                &f("forall x. exists y. y = x + 1 & y > x"),
                &EvalBudget::unlimited()
            )
            .unwrap(),
            Formula::True
        );
        assert_eq!(
            fourier_motzkin(&f("exists y. forall x. y > x"), &EvalBudget::unlimited()).unwrap(),
            Formula::False
        );
    }

    #[test]
    fn two_dim_projection() {
        // Triangle 0 ≤ y ≤ x ≤ 1 projected to x: 0 ≤ x ≤ 1.
        check("exists y. 0 <= y & y <= x & x <= 1", "0 <= x & x <= 1");
    }

    #[test]
    fn scaled_coefficients() {
        // ∃y. 2y ≤ x ∧ x ≤ 3y  ⇔  x/2 ≥ x/3-ish: ∃y between x/3 and x/2: x ≥ 0... non-empty iff x/3 ≤ x/2 iff x ≥ 0.
        check("exists y. 2*y <= x & x <= 3*y", "x >= 0");
    }

    #[test]
    fn rejects_nonlinear() {
        assert!(matches!(
            fourier_motzkin(&f("exists y. y*y < x"), &EvalBudget::unlimited()),
            Err(QeError::NonLinear(_))
        ));
    }

    #[test]
    fn disjunctive_input() {
        check(
            "exists y. (y < x & y > 0) | (y > 5 & y < x)",
            "x > 0 | x > 5",
        );
    }

    #[test]
    fn sample_between_finds_witness() {
        let (g, vars) = parse_formula("0 < y & y < 1 & y != x").unwrap();
        let y = vars.get("y").unwrap();
        let x = vars.get("x").unwrap();
        let atoms: Vec<Atom> = match g {
            Formula::And(parts) => parts
                .into_iter()
                .map(|p| match p {
                    Formula::Atom(a) => a,
                    other => panic!("{other:?}"),
                })
                .collect(),
            other => panic!("{other:?}"),
        };
        let w = sample_between(y, &atoms, &|v| {
            assert_eq!(v, x);
            Rat::new(1i64.into(), 2i64.into())
        })
        .unwrap();
        assert!(w > Rat::zero() && w < Rat::one());
        assert_ne!(w, Rat::new(1i64.into(), 2i64.into()));
    }

    #[test]
    fn clause_empty_detection() {
        let (g, _) = parse_formula("x < 0 & x > 0").unwrap();
        let atoms: Vec<Atom> = match g {
            Formula::And(parts) => parts
                .into_iter()
                .map(|p| match p {
                    Formula::Atom(a) => a,
                    _ => unreachable!(),
                })
                .collect(),
            _ => unreachable!(),
        };
        assert!(clause_obviously_empty(&atoms));
    }
}
