//! The formula AST and its basic structural operations.

use cqa_arith::Rat;
use cqa_poly::{MPoly, Var};
use std::collections::BTreeSet;

/// Comparison relations for atomic constraints `p ⋈ 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `p = 0`
    Eq,
    /// `p ≠ 0`
    Neq,
    /// `p < 0`
    Lt,
    /// `p ≤ 0`
    Le,
    /// `p > 0`
    Gt,
    /// `p ≥ 0`
    Ge,
}

impl Rel {
    /// The relation satisfied by exactly the complementary sign set.
    pub fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Neq,
            Rel::Neq => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Le => Rel::Gt,
            Rel::Gt => Rel::Le,
            Rel::Ge => Rel::Lt,
        }
    }

    /// The relation with the two sides of the comparison swapped
    /// (`p ⋈ 0  ⇔  -p ⋈ʳ 0`).
    pub fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Neq => Rel::Neq,
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Gt => Rel::Lt,
            Rel::Ge => Rel::Le,
        }
    }

    /// Whether a value of the given sign (`-1`, `0`, `1`) satisfies the
    /// relation.
    pub fn sign_satisfies(self, sign: i32) -> bool {
        match self {
            Rel::Eq => sign == 0,
            Rel::Neq => sign != 0,
            Rel::Lt => sign < 0,
            Rel::Le => sign <= 0,
            Rel::Gt => sign > 0,
            Rel::Ge => sign >= 0,
        }
    }
}

/// An atomic constraint: a sign condition `poly ⋈ 0` on a polynomial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// The left-hand-side polynomial (compared against zero).
    pub poly: MPoly,
    /// The comparison relation.
    pub rel: Rel,
}

impl Atom {
    /// Creates `poly ⋈ 0`.
    pub fn new(poly: MPoly, rel: Rel) -> Atom {
        Atom { poly, rel }
    }

    /// Evaluates the atom at a point (total assignment of its variables).
    pub fn eval(&self, assignment: &dyn Fn(Var) -> Rat) -> bool {
        self.rel.sign_satisfies(self.poly.eval(assignment).signum())
    }

    /// `true` iff the polynomial is affine (degree ≤ 1), i.e. a linear
    /// constraint.
    pub fn is_linear(&self) -> bool {
        self.poly.is_affine()
    }

    /// Decides constant atoms (`poly` a constant): `Some(truth)` or `None`.
    pub fn as_const(&self) -> Option<bool> {
        self.poly
            .as_constant()
            .map(|c| self.rel.sign_satisfies(c.signum()))
    }
}

/// Which constraint class a formula's atoms fall into (Section 2 of the
/// paper): dense-order (`⟨ℝ,<⟩`), linear (FO+LIN) or polynomial (FO+POLY).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConstraintClass {
    /// Atoms compare variables and rational constants only: `x < y`, `x ≤ 3`.
    DenseOrder,
    /// Atoms are affine: FO+LIN.
    Linear,
    /// Atoms are arbitrary polynomials: FO+POLY.
    Polynomial,
}

/// A first-order formula over a relational schema and a real constraint
/// signature.
///
/// `And`/`Or` are n-ary for convenience (an empty `And` is `⊤`, an empty
/// `Or` is `⊥`, mirroring `True`/`False`).
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A sign-condition atom over the reals.
    Atom(Atom),
    /// A schema-relation atom `R(t₁, …, t_k)` with polynomial term
    /// arguments.
    Rel {
        /// Relation name (must match a schema symbol).
        name: String,
        /// Term arguments.
        args: Vec<MPoly>,
    },
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Natural (real) existential quantification.
    Exists(Vec<Var>, Box<Formula>),
    /// Natural (real) universal quantification.
    Forall(Vec<Var>, Box<Formula>),
    /// Active-domain existential quantification `∃x ∈ adom. φ`.
    ExistsAdom(Var, Box<Formula>),
    /// Active-domain universal quantification `∀x ∈ adom. φ`.
    ForallAdom(Var, Box<Formula>),
}

impl Formula {
    /// Conjunction of two formulas with `⊤`/`⊥` short-circuiting.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, g) => g,
            (f, Formula::True) => f,
            (Formula::And(mut fs), Formula::And(gs)) => {
                fs.extend(gs);
                Formula::And(fs)
            }
            (Formula::And(mut fs), g) => {
                fs.push(g);
                Formula::And(fs)
            }
            (f, Formula::And(mut gs)) => {
                gs.insert(0, f);
                Formula::And(gs)
            }
            (f, g) => Formula::And(vec![f, g]),
        }
    }

    /// Disjunction with `⊤`/`⊥` short-circuiting.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, g) => g,
            (f, Formula::False) => f,
            (Formula::Or(mut fs), Formula::Or(gs)) => {
                fs.extend(gs);
                Formula::Or(fs)
            }
            (Formula::Or(mut fs), g) => {
                fs.push(g);
                Formula::Or(fs)
            }
            (f, Formula::Or(mut gs)) => {
                gs.insert(0, f);
                Formula::Or(gs)
            }
            (f, g) => Formula::Or(vec![f, g]),
        }
    }

    /// Negation with double-negation and constant elimination.
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(f) => *f,
            Formula::Atom(a) => Formula::Atom(Atom::new(a.poly, a.rel.negate())),
            f => Formula::Not(Box::new(f)),
        }
    }

    /// Implication `self → other`.
    pub fn implies(self, other: Formula) -> Formula {
        self.negate().or(other)
    }

    /// Existential quantification (over the reals), flattening nested blocks.
    pub fn exists(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            return body;
        }
        match body {
            Formula::Exists(mut inner, b) => {
                let mut vs = vars;
                vs.append(&mut inner);
                Formula::Exists(vs, b)
            }
            b @ (Formula::True | Formula::False) => b,
            b => Formula::Exists(vars, Box::new(b)),
        }
    }

    /// Universal quantification (over the reals), flattening nested blocks.
    pub fn forall(vars: Vec<Var>, body: Formula) -> Formula {
        if vars.is_empty() {
            return body;
        }
        match body {
            Formula::Forall(mut inner, b) => {
                let mut vs = vars;
                vs.append(&mut inner);
                Formula::Forall(vs, b)
            }
            b @ (Formula::True | Formula::False) => b,
            b => Formula::Forall(vars, Box::new(b)),
        }
    }

    /// An equality atom `lhs = rhs`.
    pub fn eq(lhs: MPoly, rhs: MPoly) -> Formula {
        Formula::Atom(Atom::new(lhs - rhs, Rel::Eq))
    }

    /// A strict inequality `lhs < rhs`.
    pub fn lt(lhs: MPoly, rhs: MPoly) -> Formula {
        Formula::Atom(Atom::new(lhs - rhs, Rel::Lt))
    }

    /// A non-strict inequality `lhs ≤ rhs`.
    pub fn le(lhs: MPoly, rhs: MPoly) -> Formula {
        Formula::Atom(Atom::new(lhs - rhs, Rel::Le))
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<Var>, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.extend(a.poly.var_occurrences().filter(|v| !bound.contains(v))),
            Formula::Rel { args, .. } => {
                for t in args {
                    out.extend(t.var_occurrences().filter(|v| !bound.contains(v)));
                }
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            Formula::Exists(vs, f) | Formula::Forall(vs, f) => {
                let n = bound.len();
                bound.extend_from_slice(vs);
                f.collect_free(bound, out);
                bound.truncate(n);
            }
            Formula::ExistsAdom(v, f) | Formula::ForallAdom(v, f) => {
                bound.push(*v);
                f.collect_free(bound, out);
                bound.pop();
            }
        }
    }

    /// All variables, free and bound.
    pub fn all_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| match f {
            Formula::Atom(a) => out.extend(a.poly.var_occurrences()),
            Formula::Rel { args, .. } => {
                for t in args {
                    out.extend(t.var_occurrences());
                }
            }
            Formula::Exists(vs, _) | Formula::Forall(vs, _) => out.extend(vs.iter().copied()),
            Formula::ExistsAdom(v, _) | Formula::ForallAdom(v, _) => {
                out.insert(*v);
            }
            _ => {}
        });
        out
    }

    /// The smallest variable index strictly greater than every variable in
    /// the formula — a source of fresh variables.
    pub fn fresh_var(&self) -> Var {
        Var(self.all_vars().iter().map(|v| v.0 + 1).max().unwrap_or(0))
    }

    /// Visits every subformula (pre-order).
    pub fn visit(&self, f: &mut dyn FnMut(&Formula)) {
        f(self);
        match self {
            Formula::Not(g) => g.visit(f),
            Formula::And(gs) | Formula::Or(gs) => {
                for g in gs {
                    g.visit(f);
                }
            }
            Formula::Exists(_, g)
            | Formula::Forall(_, g)
            | Formula::ExistsAdom(_, g)
            | Formula::ForallAdom(_, g) => g.visit(f),
            _ => {}
        }
    }

    /// `true` iff the formula contains no quantifier of any kind.
    pub fn is_quantifier_free(&self) -> bool {
        let mut qf = true;
        self.visit(&mut |f| {
            if matches!(
                f,
                Formula::Exists(..)
                    | Formula::Forall(..)
                    | Formula::ExistsAdom(..)
                    | Formula::ForallAdom(..)
            ) {
                qf = false;
            }
        });
        qf
    }

    /// `true` iff the formula mentions no schema relations (is a pure
    /// constraint formula over the reals).
    pub fn is_relation_free(&self) -> bool {
        let mut rf = true;
        self.visit(&mut |f| {
            if matches!(f, Formula::Rel { .. }) {
                rf = false;
            }
        });
        rf
    }

    /// Names of schema relations mentioned.
    pub fn relation_names(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            if let Formula::Rel { name, .. } = f {
                out.insert(name.clone());
            }
        });
        out
    }

    /// The constraint class of the formula's real-arithmetic atoms
    /// (`DenseOrder ⊂ Linear ⊂ Polynomial`). Relation atoms don't count.
    pub fn class(&self) -> ConstraintClass {
        let mut class = ConstraintClass::DenseOrder;
        self.visit(&mut |f| {
            if let Formula::Atom(a) = f {
                let c = if !a.is_linear() {
                    ConstraintClass::Polynomial
                } else if is_order_atom(&a.poly) {
                    ConstraintClass::DenseOrder
                } else {
                    ConstraintClass::Linear
                };
                class = class.max(c);
            }
        });
        class
    }

    /// Substitutes variable `v` by a rational constant everywhere (free
    /// occurrences only).
    pub fn subst_rat(&self, v: Var, value: &Rat) -> Formula {
        self.map_polys(&|p: &MPoly| p.subst_rat(v, value), Some(v))
    }

    /// Substitutes variable `v` by a polynomial term (free occurrences only).
    ///
    /// The caller must ensure the term's variables are not captured by any
    /// quantifier in the formula (use fresh variables for bound positions;
    /// our normal-form passes guarantee this).
    pub fn subst_poly(&self, v: Var, term: &MPoly) -> Formula {
        self.map_polys(&|p: &MPoly| p.subst_poly(v, term), Some(v))
    }

    /// Applies `f` to every polynomial in the formula. If `shadow` is set,
    /// the transformation is not applied under quantifiers binding that
    /// variable.
    pub fn map_polys(&self, f: &dyn Fn(&MPoly) -> MPoly, shadow: Option<Var>) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => {
                let p = f(&a.poly);
                let atom = Atom::new(p, a.rel);
                match atom.as_const() {
                    Some(true) => Formula::True,
                    Some(false) => Formula::False,
                    None => Formula::Atom(atom),
                }
            }
            Formula::Rel { name, args } => Formula::Rel {
                name: name.clone(),
                args: args.iter().map(f).collect(),
            },
            Formula::Not(g) => g.map_polys(f, shadow).negate(),
            Formula::And(gs) => gs
                .iter()
                .map(|g| g.map_polys(f, shadow))
                .fold(Formula::True, Formula::and),
            Formula::Or(gs) => gs
                .iter()
                .map(|g| g.map_polys(f, shadow))
                .fold(Formula::False, Formula::or),
            Formula::Exists(vs, g) => {
                if shadow.is_some_and(|v| vs.contains(&v)) {
                    self.clone()
                } else {
                    Formula::exists(vs.clone(), g.map_polys(f, shadow))
                }
            }
            Formula::Forall(vs, g) => {
                if shadow.is_some_and(|v| vs.contains(&v)) {
                    self.clone()
                } else {
                    Formula::forall(vs.clone(), g.map_polys(f, shadow))
                }
            }
            Formula::ExistsAdom(v, g) => {
                if shadow == Some(*v) {
                    self.clone()
                } else {
                    Formula::ExistsAdom(*v, Box::new(g.map_polys(f, shadow)))
                }
            }
            Formula::ForallAdom(v, g) => {
                if shadow == Some(*v) {
                    self.clone()
                } else {
                    Formula::ForallAdom(*v, Box::new(g.map_polys(f, shadow)))
                }
            }
        }
    }

    /// Evaluates a formula with no schema relations at a total assignment.
    /// Natural quantifiers are *not* supported (they require quantifier
    /// elimination — see `cqa-qe`); active-domain quantifiers range over
    /// `adom`.
    ///
    /// Returns `None` if the formula contains a natural quantifier or a
    /// schema relation.
    pub fn eval(&self, assignment: &dyn Fn(Var) -> Rat, adom: &[Rat]) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => Some(a.eval(assignment)),
            Formula::Rel { .. } => None,
            Formula::Not(f) => f.eval(assignment, adom).map(|b| !b),
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval(assignment, adom)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval(assignment, adom)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Formula::Exists(..) | Formula::Forall(..) => None,
            Formula::ExistsAdom(v, f) => {
                for a in adom {
                    let g = f.subst_rat(*v, a);
                    if g.eval(assignment, adom)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Formula::ForallAdom(v, f) => {
                for a in adom {
                    let g = f.subst_rat(*v, a);
                    if !g.eval(assignment, adom)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
        }
    }

    /// Counts atomic subformulas (both kinds).
    pub fn atom_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |f| {
            if matches!(f, Formula::Atom(_) | Formula::Rel { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Counts quantified variables (with multiplicity).
    pub fn quantifier_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |f| match f {
            Formula::Exists(vs, _) | Formula::Forall(vs, _) => n += vs.len(),
            Formula::ExistsAdom(..) | Formula::ForallAdom(..) => n += 1,
            _ => {}
        });
        n
    }
}

/// `true` iff the polynomial is of the dense-order shape: `x - y` or
/// `x - c` / `c - x` or a constant, i.e. expressible over `⟨ℝ, <⟩` with
/// rational parameters.
pub(crate) fn is_order_atom(p: &MPoly) -> bool {
    if !p.is_affine() {
        return false;
    }
    let mut var_coeffs = 0usize;
    let mut ok = true;
    let mut signs = Vec::new();
    for (m, c) in p.terms() {
        if m.is_empty() {
            continue;
        }
        var_coeffs += 1;
        if c.abs().is_one() {
            signs.push(c.signum());
        } else {
            ok = false;
        }
    }
    match var_coeffs {
        0 | 1 => ok,
        2 => ok && signs.iter().sum::<i32>() == 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    fn x() -> MPoly {
        MPoly::var(Var(0))
    }
    fn y() -> MPoly {
        MPoly::var(Var(1))
    }

    #[test]
    fn connective_simplification() {
        assert_eq!(Formula::True.and(Formula::False), Formula::False);
        assert_eq!(Formula::True.or(Formula::False), Formula::True);
        assert_eq!(Formula::False.or(Formula::False), Formula::False);
        assert_eq!(Formula::True.negate(), Formula::False);
        let a = Formula::lt(x(), y());
        assert_eq!(a.clone().and(Formula::True), a);
        assert_eq!(a.clone().negate().negate(), a);
    }

    #[test]
    fn atom_negation_flips_relation() {
        let a = Formula::lt(x(), y()); // x - y < 0
        match a.negate() {
            Formula::Atom(at) => assert_eq!(at.rel, Rel::Ge),
            other => panic!("expected atom, got {other:?}"),
        }
    }

    #[test]
    fn free_vars_respect_binding() {
        // ∃y. x < y  — free: {x}
        let f = Formula::exists(vec![Var(1)], Formula::lt(x(), y()));
        let fv = f.free_vars();
        assert!(fv.contains(&Var(0)));
        assert!(!fv.contains(&Var(1)));
        assert_eq!(f.fresh_var(), Var(2));
    }

    #[test]
    fn quantifier_flattening() {
        let f = Formula::exists(
            vec![Var(0)],
            Formula::exists(vec![Var(1)], Formula::lt(x(), y())),
        );
        match f {
            Formula::Exists(vs, _) => assert_eq!(vs, vec![Var(0), Var(1)]),
            other => panic!("expected flattened exists, got {other:?}"),
        }
    }

    #[test]
    fn subst_rat_decides_ground_atoms() {
        // x < 1 with x := 0 becomes True
        let f = Formula::lt(x(), MPoly::one());
        assert_eq!(f.subst_rat(Var(0), &rat(0, 1)), Formula::True);
        assert_eq!(f.subst_rat(Var(0), &rat(2, 1)), Formula::False);
    }

    #[test]
    fn subst_does_not_touch_bound() {
        let f = Formula::exists(vec![Var(0)], Formula::lt(x(), y()));
        let g = f.subst_rat(Var(0), &rat(5, 1));
        assert_eq!(g, f);
    }

    #[test]
    fn eval_quantifier_free() {
        // x < y & y <= 1
        let f = Formula::lt(x(), y()).and(Formula::le(y(), MPoly::one()));
        let at = |vals: [i64; 2]| move |v: Var| rat(vals[v.0 as usize], 1);
        assert_eq!(f.eval(&at([0, 1]), &[]), Some(true));
        assert_eq!(f.eval(&at([1, 0]), &[]), Some(false));
        assert_eq!(f.eval(&at([0, 2]), &[]), Some(false));
    }

    #[test]
    fn eval_active_domain_quantifiers() {
        // ∃u ∈ adom. x < u
        let f = Formula::ExistsAdom(Var(1), Box::new(Formula::lt(x(), y())));
        let adom = [rat(1, 1), rat(3, 1)];
        let at = |xv: i64| {
            move |v: Var| {
                if v == Var(0) {
                    rat(xv, 1)
                } else {
                    unreachable!()
                }
            }
        };
        assert_eq!(f.eval(&at(2), &adom), Some(true));
        assert_eq!(f.eval(&at(5), &adom), Some(false));
        // ∀u ∈ adom. x < u
        let g = Formula::ForallAdom(Var(1), Box::new(Formula::lt(x(), y())));
        assert_eq!(g.eval(&at(0), &adom), Some(true));
        assert_eq!(g.eval(&at(2), &adom), Some(false));
    }

    #[test]
    fn eval_short_circuits_connectives() {
        // A satisfied Or must not evaluate a later operand whose own
        // evaluation would be None (here: a schema relation).
        let none = Formula::Rel {
            name: "R".into(),
            args: vec![x()],
        };
        let sat_or = Formula::Or(vec![Formula::True, none.clone()]);
        assert_eq!(sat_or.eval(&|_| rat(0, 1), &[]), Some(true));
        // Dually, a refuted And ignores a later unevaluable operand.
        let unsat_and = Formula::And(vec![Formula::False, none.clone()]);
        assert_eq!(unsat_and.eval(&|_| rat(0, 1), &[]), Some(false));
        // But when the earlier operands don't decide it, None still surfaces.
        let undecided = Formula::Or(vec![Formula::False, none]);
        assert_eq!(undecided.eval(&|_| rat(0, 1), &[]), None);
    }

    #[test]
    fn eval_rejects_natural_quantifier() {
        let f = Formula::exists(vec![Var(0)], Formula::lt(x(), MPoly::one()));
        assert_eq!(f.eval(&|_| rat(0, 1), &[]), None);
    }

    #[test]
    fn constraint_class_detection() {
        let order = Formula::lt(x(), y());
        assert_eq!(order.class(), ConstraintClass::DenseOrder);
        let lin = Formula::lt(x().scale(&rat(2, 1)), y());
        assert_eq!(lin.class(), ConstraintClass::Linear);
        let poly = Formula::lt(x().pow(2), y());
        assert_eq!(poly.class(), ConstraintClass::Polynomial);
        // x + y < 0 is linear but not order (same-sign coefficients)
        let sum = Formula::lt(x() + y(), MPoly::zero());
        assert_eq!(sum.class(), ConstraintClass::Linear);
    }

    #[test]
    fn relation_atoms() {
        let f = Formula::Rel {
            name: "S".into(),
            args: vec![x(), y()],
        }
        .and(Formula::lt(x(), y()));
        assert!(!f.is_relation_free());
        assert_eq!(
            f.relation_names().into_iter().collect::<Vec<_>>(),
            vec!["S".to_string()]
        );
        assert_eq!(f.atom_count(), 2);
    }

    #[test]
    fn counting() {
        let f = Formula::exists(
            vec![Var(0), Var(1)],
            Formula::lt(x(), y()).or(Formula::eq(x(), y())),
        );
        assert_eq!(f.quantifier_count(), 2);
        assert_eq!(f.atom_count(), 2);
        assert!(!f.is_quantifier_free());
        assert!(Formula::lt(x(), y()).is_quantifier_free());
    }
}
