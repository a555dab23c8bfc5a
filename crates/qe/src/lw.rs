//! Loos–Weispfenning virtual term substitution for linear real arithmetic.
//!
//! Eliminates `∃x. φ` without converting `φ` to DNF: the satisfying set of
//! `φ` in `x` (for fixed other variables) is a finite union of intervals
//! whose endpoints come from the atoms' bound terms; it is non-empty iff `φ`
//! holds at `-∞` or at one of the *virtual test points* `t` or `t + ε` for
//! an atom bound `t`. Substituting these virtual points yields ordinary
//! linear formulas over the remaining variables.
//!
//! We use the (slightly redundant but simple and evidently complete) test
//! set `{-∞} ∪ {t, t+ε : t a bound term of an atom involving x}`; `report`'s
//! E9 cross-checks it against Fourier–Motzkin.

use crate::simplify::simplify;
use crate::QeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::{Arena, FormulaId};
use cqa_logic::{nnf, prenex, Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use std::collections::HashSet;

/// Eliminates all quantifiers from a linear (FO+LIN) formula via
/// Loos–Weispfenning virtual substitution. Checks the cooperative
/// [`EvalBudget`] per virtual test point and gates each elimination round
/// on the intermediate formula's atom count; aborts with
/// [`QeError::Budget`] when it is exhausted.
pub fn loos_weispfenning(f: &Formula, budget: &EvalBudget) -> Result<Formula, QeError> {
    crate::check_input(f)?;
    let arena = &mut Arena::new();
    let (blocks, mut matrix) = prenex(f);
    for block in blocks.into_iter().rev() {
        for &v in block.vars.iter().rev() {
            budget.check_atoms(matrix.atom_count() as u64)?;
            if block.exists {
                matrix = eliminate_exists_lw(v, &matrix, budget, arena)?;
            } else {
                matrix = eliminate_exists_lw(v, &matrix.negate(), budget, arena)?.negate();
            }
            matrix = simplify(&matrix);
        }
    }
    Ok(simplify(&matrix))
}

/// The coefficient `a` and remainder `r` of `poly = a·x + r`, where `a` must
/// be a rational constant (possibly zero).
fn linear_parts(v: Var, poly: &MPoly) -> Result<(cqa_arith::Rat, MPoly), QeError> {
    let coeffs = poly.as_univariate_in(v);
    match coeffs.len() {
        0 => Ok((cqa_arith::Rat::zero(), MPoly::zero())),
        1 => Ok((cqa_arith::Rat::zero(), coeffs[0].clone())),
        2 => {
            let a = coeffs[1].as_constant().ok_or_else(|| {
                QeError::NonLinear("non-constant coefficient of eliminated variable".into())
            })?;
            Ok((a, coeffs[0].clone()))
        }
        _ => Err(QeError::NonLinear("higher-degree occurrence".into())),
    }
}

/// Eliminates `∃v` from a quantifier-free linear formula by virtual
/// substitution. Public as the planner's ([`crate::plan`]) per-variable
/// Loos–Weispfenning entry point.
pub fn eliminate_exists_lw(
    v: Var,
    f: &Formula,
    budget: &EvalBudget,
    arena: &mut Arena,
) -> Result<Formula, QeError> {
    let f = nnf(f);
    // Gather bound terms t = -r/a for all atoms with a ≠ 0.
    let mut bounds: Vec<MPoly> = Vec::new();
    let mut err: Option<QeError> = None;
    f.visit(&mut |g| {
        if let Formula::Atom(a) = g {
            if a.poly.vars().contains(&v) {
                match linear_parts(v, &a.poly) {
                    Ok((c, r)) => {
                        if !c.is_zero() {
                            let t = r.scale(&-c.recip());
                            if !bounds.contains(&t) {
                                bounds.push(t);
                            }
                        }
                    }
                    Err(e) => err = Some(e),
                }
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    // Different test points routinely substitute to the same formula;
    // intern each disjunct and keep only the first occurrence.
    let mut seen: HashSet<FormulaId> = HashSet::new();
    let mut out = subst_minus_inf(v, &f)?;
    seen.insert(arena.intern(&out));
    for t in &bounds {
        budget.check()?;
        for cand in [f.subst_poly(v, t), subst_plus_eps(v, &f, t)?] {
            if seen.insert(arena.intern(&cand)) {
                out = out.or(cand);
            }
        }
    }
    Ok(simplify(&out))
}

/// `φ[x := -∞]`: each atom `a·x + r ⋈ 0` becomes its limiting truth value.
fn subst_minus_inf(v: Var, f: &Formula) -> Result<Formula, QeError> {
    transform_atoms(f, &|a| {
        let (c, _r) = linear_parts(v, &a.poly)?;
        if c.is_zero() {
            return Ok(Formula::Atom(a.clone()));
        }
        // As x → -∞, a·x + r → sign(-a)·∞.
        let limit_sign = -c.signum();
        Ok(if a.rel.sign_satisfies(limit_sign) {
            Formula::True
        } else {
            Formula::False
        }
        .clone())
    })
}

/// `φ[x := t + ε]` for infinitesimal ε > 0: each atom `a·x + r ⋈ 0`
/// becomes a condition on `s = a·t + r` and the sign of `a`.
fn subst_plus_eps(v: Var, f: &Formula, t: &MPoly) -> Result<Formula, QeError> {
    transform_atoms(f, &|a| {
        let (c, r) = linear_parts(v, &a.poly)?;
        if c.is_zero() {
            return Ok(Formula::Atom(a.clone()));
        }
        // Value at t + ε: s + c·ε where s = c·t + r.
        let s = &t.scale(&c) + &r;
        let cs = c.signum();
        let atom = |rel: Rel| {
            let at = Atom::new(s.clone(), rel);
            match at.as_const() {
                Some(true) => Formula::True,
                Some(false) => Formula::False,
                None => Formula::Atom(at),
            }
        };
        Ok(match a.rel {
            // s + cε = 0 never (ε infinitesimal, c ≠ 0).
            Rel::Eq => Formula::False,
            Rel::Neq => Formula::True,
            // s + cε < 0 ⇔ s < 0 ∨ (s = 0 ∧ c < 0).
            Rel::Lt => {
                if cs < 0 {
                    atom(Rel::Le)
                } else {
                    atom(Rel::Lt)
                }
            }
            Rel::Le => {
                if cs < 0 {
                    atom(Rel::Le)
                } else {
                    atom(Rel::Lt)
                }
            }
            Rel::Gt => {
                if cs > 0 {
                    atom(Rel::Ge)
                } else {
                    atom(Rel::Gt)
                }
            }
            Rel::Ge => {
                if cs > 0 {
                    atom(Rel::Ge)
                } else {
                    atom(Rel::Gt)
                }
            }
        })
    })
}

/// Rebuilds a formula, replacing each sign-condition atom via `tr`. The
/// input must be quantifier-free and in NNF (no `Not` around atoms).
fn transform_atoms(
    f: &Formula,
    tr: &dyn Fn(&Atom) -> Result<Formula, QeError>,
) -> Result<Formula, QeError> {
    Ok(match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(a) => tr(a)?,
        Formula::Rel { .. } | Formula::Not(_) => return Err(QeError::HasRelations),
        Formula::And(fs) => {
            let mut out = Formula::True;
            for g in fs {
                out = out.and(transform_atoms(g, tr)?);
            }
            out
        }
        Formula::Or(fs) => {
            let mut out = Formula::False;
            for g in fs {
                out = out.or(transform_atoms(g, tr)?);
            }
            out
        }
        _ => unreachable!("quantifier in LW matrix"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fourier_motzkin;
    use crate::testutil::{agree, f};

    /// Runs LW on `query` and checks semantic equivalence with `expected`,
    /// parsing both with a shared variable map.
    fn check(query: &str, expected: &str) {
        let mut vars = cqa_logic::VarMap::new();
        let q = cqa_logic::parse_formula_with(query, &mut vars).unwrap();
        let e = cqa_logic::parse_formula_with(expected, &mut vars).unwrap();
        let g = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
        agree(&g, &e, 6);
    }

    #[test]
    fn matches_simple_projection() {
        check("exists y. x < y & y < 1", "x < 1");
    }

    #[test]
    fn equalities() {
        check("exists y. y = 2*x & y < 1", "2*x < 1");
    }

    #[test]
    fn disequalities() {
        check("exists y. 0 < y & y < 1 & y != x", "true");
    }

    #[test]
    fn minus_infinity_case() {
        check("exists y. y < x", "true");
        check("exists y. y > x & y < x", "false");
    }

    #[test]
    fn universal_and_alternation() {
        assert_eq!(
            loos_weispfenning(&f("forall x. exists y. y > x"), &EvalBudget::unlimited()).unwrap(),
            Formula::True
        );
        assert_eq!(
            loos_weispfenning(&f("exists y. forall x. y > x"), &EvalBudget::unlimited()).unwrap(),
            Formula::False
        );
    }

    #[test]
    fn cross_check_with_fm_on_random_formulas() {
        // A deterministic batch of moderately complex formulas; LW and FM
        // must produce equivalent results.
        let cases = [
            "exists y. (x < y & y < z) | (z < y & y < x)",
            "exists y. x <= 2*y & 3*y <= z & y != 0",
            "forall y. y < x | y >= x",
            "exists y. y = x + z & y > 0",
            "exists y, w. x < y & y < w & w < z",
            "forall y. (y > x -> y >= z)",
            "exists y. 2*y + x <= 1 & y - z >= 0 | y = x",
        ];
        for src in cases {
            let q = f(src);
            let lw = loos_weispfenning(&q, &EvalBudget::unlimited()).unwrap();
            let fm = fourier_motzkin(&q, &EvalBudget::unlimited()).unwrap();
            agree(&lw, &fm, 6);
        }
    }

    #[test]
    fn atoms_without_variable_pass_through() {
        check("exists y. y > 0 & x < 3", "x < 3");
    }

    #[test]
    fn rejects_nonlinear() {
        assert!(matches!(
            loos_weispfenning(&f("exists y. y*y < x"), &EvalBudget::unlimited()),
            Err(QeError::NonLinear(_))
        ));
    }
}
