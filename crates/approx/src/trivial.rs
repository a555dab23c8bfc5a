//! Proposition 4: the trivial `ε ≥ 1/2` approximation *is* definable in
//! FO+LIN.
//!
//! "If the volume is not 0 or 1, then 1/2 is the ε-approximation." The
//! three-way case split is first-order: the set (clipped to `I^n`) has
//! volume 0 iff its interior is empty, and volume 1 iff its complement's
//! interior (inside the box) is empty — both expressible, and here decided
//! with the QE engine. Theorem 2 shows this is the best any FO+Ω language
//! can do: no `VOL_I^ε` with `ε < 1/2` is definable.

use cqa_arith::{rat, Rat};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use cqa_qe::QeError;

/// The FO+LIN-definable trivial approximator: returns 0 if the set has
/// empty interior in `I^n`, 1 if its complement does, and 1/2 otherwise.
/// Guarantees `|result − VOL_I| ≤ 1/2` with equality impossible except in
/// the exactly-resolved endpoint cases — i.e. a valid `VOL_I^ε` for every
/// `ε ≥ 1/2`.
pub fn trivial_volume_approximation(f: &Formula, vars: &[Var]) -> Result<Rat, QeError> {
    let strict = strictify(&cqa_logic::nnf(f));
    let box_open = open_unit_box(vars);
    // Interior of the set within the open box.
    let inside = strict.clone().and(box_open.clone());
    if !cqa_qe::is_satisfiable(&inside, &EvalBudget::unlimited())? {
        return Ok(Rat::zero());
    }
    // Interior of the complement within the open box.
    let outside = strictify(&cqa_logic::nnf(&f.clone().negate())).and(box_open);
    if !cqa_qe::is_satisfiable(&outside, &EvalBudget::unlimited())? {
        return Ok(Rat::one());
    }
    Ok(rat(1, 2))
}

/// Replaces every weak atom of an NNF formula with its strict version: the
/// resulting set is the "measure-theoretic interior proxy" — for linear
/// constraint sets it is non-empty iff the set has positive measure.
fn strictify(f: &Formula) -> Formula {
    match f {
        Formula::Atom(a) => {
            let rel = match a.rel {
                Rel::Le => Rel::Lt,
                Rel::Ge => Rel::Gt,
                Rel::Eq => return Formula::False,
                other => other,
            };
            Formula::Atom(Atom::new(a.poly.clone(), rel))
        }
        Formula::And(fs) => fs.iter().map(strictify).fold(Formula::True, Formula::and),
        Formula::Or(fs) => fs.iter().map(strictify).fold(Formula::False, Formula::or),
        other => other.clone(),
    }
}

fn open_unit_box(vars: &[Var]) -> Formula {
    let mut f = Formula::True;
    for &v in vars {
        f = f.and(Formula::lt(MPoly::zero(), MPoly::var(v)));
        f = f.and(Formula::lt(MPoly::var(v), MPoly::one()));
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_geom::volume_in_unit_box;
    use cqa_logic::{parse_formula_with, VarMap};

    fn approx(src: &str, names: &[&str]) -> Rat {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        trivial_volume_approximation(&f, &vs).unwrap()
    }

    #[test]
    fn endpoint_cases_resolved_exactly() {
        assert_eq!(approx("false", &["x", "y"]), Rat::zero());
        assert_eq!(approx("x = 0.5", &["x", "y"]), Rat::zero()); // null set
        assert_eq!(approx("true", &["x", "y"]), Rat::one());
        assert_eq!(approx("x >= 0", &["x", "y"]), Rat::one()); // covers the box
    }

    #[test]
    fn middle_cases_get_one_half() {
        assert_eq!(approx("x + y <= 1", &["x", "y"]), rat(1, 2));
        assert_eq!(approx("x >= 0.9", &["x", "y"]), rat(1, 2));
    }

    #[test]
    fn error_is_at_most_half() {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = ["x", "y"].iter().map(|n| vars.intern(n)).collect();
        for src in [
            "x + y <= 1",
            "x >= 0.25 & y >= 0.25",
            "x <= 0.1",
            "x = 0.5",
            "true",
            "false",
            "(x <= 0.3 & y <= 0.3) | (x >= 0.7 & y >= 0.7)",
        ] {
            let f = parse_formula_with(src, &mut vars).unwrap();
            let est = trivial_volume_approximation(&f, &vs).unwrap();
            let truth = volume_in_unit_box(&f, &vs).unwrap();
            let err = (est.clone() - truth).abs();
            assert!(err <= rat(1, 2), "{src}: est {est}, err {err}");
        }
    }
}
