//! Constraint databases: schemas, instances and closed query evaluation.

use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{parse_formula_with, Formula, VarMap};
use cqa_poly::{MPoly, Var};
use cqa_qe::QeError;
use std::collections::BTreeMap;

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Unknown relation name in a query.
    UnknownRelation(String),
    /// A relation atom's argument count disagrees with the schema arity.
    ArityMismatch {
        /// Relation name.
        name: String,
        /// Declared arity.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// A finitely representable definition must be quantifier-free and
    /// relation-free.
    BadDefinition(String),
    /// Quantifier elimination failed during evaluation.
    Qe(QeError),
    /// A formula failed to parse.
    Parse(String),
    /// Active-domain quantification needs at least one finite relation.
    NoActiveDomain,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            DbError::ArityMismatch {
                name,
                expected,
                got,
            } => {
                write!(
                    f,
                    "relation {name} has arity {expected}, got {got} arguments"
                )
            }
            DbError::DuplicateRelation(n) => write!(f, "relation {n} already defined"),
            DbError::BadDefinition(n) => {
                write!(
                    f,
                    "definition of {n} must be quantifier-free and relation-free"
                )
            }
            DbError::Qe(e) => write!(f, "quantifier elimination failed: {e}"),
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::NoActiveDomain => {
                write!(
                    f,
                    "active-domain quantifier over a database with no finite relation"
                )
            }
        }
    }
}
impl std::error::Error for DbError {}

impl From<QeError> for DbError {
    fn from(e: QeError) -> DbError {
        DbError::Qe(e)
    }
}

/// A relation: either finitely representable (a quantifier-free constraint
/// formula over ordered parameter variables) or a finite set of tuples.
#[derive(Clone, Debug)]
pub enum Relation {
    /// `{ x⃗ : φ(x⃗) }` with the parameter order fixed by `params`.
    FinitelyRepresentable {
        /// Parameter variables, in argument order.
        params: Vec<Var>,
        /// Quantifier-free, relation-free defining formula.
        formula: Formula,
    },
    /// An explicit finite relation.
    Finite(Vec<Vec<Rat>>),
}

impl Relation {
    /// The arity.
    pub fn arity(&self) -> usize {
        match self {
            Relation::FinitelyRepresentable { params, .. } => params.len(),
            Relation::Finite(tuples) => tuples.first().map_or(0, Vec::len),
        }
    }

    /// Membership of a rational point.
    pub fn contains(&self, point: &[Rat]) -> bool {
        match self {
            Relation::FinitelyRepresentable { params, formula } => {
                let mut f = formula.clone();
                for (v, x) in params.iter().zip(point) {
                    f = f.subst_rat(*v, x);
                }
                f.eval(&|_| Rat::zero(), &[]).unwrap_or(false)
            }
            Relation::Finite(tuples) => tuples.iter().any(|t| t == point),
        }
    }

    /// The defining formula over the given argument terms.
    fn instantiate(&self, args: &[MPoly], fresh_base: &mut u32) -> Formula {
        match self {
            Relation::FinitelyRepresentable { params, formula } => {
                // Rename the definition's variables apart, then substitute
                // the argument terms for the parameters.
                let mut f = formula.clone();
                let mut renamed_params = Vec::with_capacity(params.len());
                for v in formula.all_vars() {
                    let w = Var(*fresh_base);
                    *fresh_base += 1;
                    f = f.subst_poly(v, &MPoly::var(w));
                    if let Some(pos) = params.iter().position(|&p| p == v) {
                        renamed_params.push((pos, w));
                    }
                }
                // Parameters that do not occur in the formula impose no
                // constraint and need no substitution.
                for (pos, w) in renamed_params {
                    f = f.subst_poly(w, &args[pos]);
                }
                f
            }
            Relation::Finite(tuples) => {
                let mut out = Formula::False;
                for t in tuples {
                    let mut conj = Formula::True;
                    for (arg, val) in args.iter().zip(t) {
                        conj = conj.and(Formula::eq(arg.clone(), MPoly::constant(val.clone())));
                    }
                    out = out.or(conj);
                }
                out
            }
        }
    }
}

/// A constraint database: a shared variable map plus named relations.
#[derive(Clone, Debug, Default)]
pub struct Database {
    vars: VarMap,
    relations: BTreeMap<String, Relation>,
    /// One past the largest variable index any finitely representable
    /// definition has ever used: [`Database::expand`] renames definitions
    /// apart starting above it, without re-reading every definition on
    /// every call. Never lowered (removing a relation keeps it): any
    /// larger base renames just as well, and the renamed variables do not
    /// survive into the expansion.
    fresh_floor: u32,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The variable map shared by all definitions and queries on this
    /// database.
    pub fn vars(&self) -> &VarMap {
        &self.vars
    }

    /// Mutable access to the variable map (for composing formulas
    /// programmatically).
    pub fn vars_mut(&mut self) -> &mut VarMap {
        &mut self.vars
    }

    /// Looks up a relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Names of all relations.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Defines a finitely representable relation from a source string; the
    /// parameter order is given by `params` (interned into the shared
    /// variable map).
    ///
    /// ```
    /// # use cqa_core::Database;
    /// let mut db = Database::new();
    /// db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1").unwrap();
    /// assert_eq!(db.relation("T").unwrap().arity(), 2);
    /// ```
    pub fn define(&mut self, name: &str, params: &[&str], src: &str) -> Result<(), DbError> {
        let vs: Vec<Var> = params.iter().map(|p| self.vars.intern(p)).collect();
        let f =
            parse_formula_with(src, &mut self.vars).map_err(|e| DbError::Parse(e.to_string()))?;
        self.add_fr_relation(name, vs, f)
    }

    /// Defines a finitely representable relation from an already-built
    /// formula.
    pub fn add_fr_relation(
        &mut self,
        name: &str,
        params: Vec<Var>,
        formula: Formula,
    ) -> Result<(), DbError> {
        if self.relations.contains_key(name) {
            return Err(DbError::DuplicateRelation(name.to_string()));
        }
        if !formula.is_quantifier_free() || !formula.is_relation_free() {
            return Err(DbError::BadDefinition(name.to_string()));
        }
        // Quantifier-free, so the free variables are all of them.
        let vars = formula.free_vars();
        if vars.iter().any(|v| !params.contains(v)) {
            return Err(DbError::BadDefinition(name.to_string()));
        }
        if let Some(max) = vars.iter().map(|v| v.0 + 1).max() {
            self.fresh_floor = self.fresh_floor.max(max);
        }
        self.relations.insert(
            name.to_string(),
            Relation::FinitelyRepresentable { params, formula },
        );
        Ok(())
    }

    /// Adds a finite relation.
    pub fn add_finite_relation(
        &mut self,
        name: &str,
        tuples: Vec<Vec<Rat>>,
    ) -> Result<(), DbError> {
        if self.relations.contains_key(name) {
            return Err(DbError::DuplicateRelation(name.to_string()));
        }
        let arity = tuples.first().map_or(0, Vec::len);
        if tuples.iter().any(|t| t.len() != arity) {
            return Err(DbError::BadDefinition(name.to_string()));
        }
        self.relations
            .insert(name.to_string(), Relation::Finite(tuples));
        Ok(())
    }

    /// Removes a relation, returning its definition if it existed.
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// The active domain: every rational occurring in a finite relation.
    pub fn adom(&self) -> Vec<Rat> {
        let mut out: Vec<Rat> = Vec::new();
        for rel in self.relations.values() {
            if let Relation::Finite(tuples) = rel {
                for t in tuples {
                    for x in t {
                        if !out.contains(x) {
                            out.push(x.clone());
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Substitutes every relation atom in `q` by its definition, expanding
    /// active-domain quantifiers over [`Database::adom`]. The result is a
    /// pure constraint formula (possibly with natural quantifiers).
    pub fn expand(&self, q: &Formula) -> Result<Formula, DbError> {
        let mut fresh = q
            .all_vars()
            .iter()
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0)
            .max(self.vars.len() as u32)
            .max(self.fresh_floor);
        self.expand_rec(q, &mut fresh)
    }

    fn expand_rec(&self, q: &Formula, fresh: &mut u32) -> Result<Formula, DbError> {
        Ok(match q {
            Formula::True | Formula::False | Formula::Atom(_) => q.clone(),
            Formula::Rel { name, args } => {
                let rel = self
                    .relations
                    .get(name)
                    .ok_or_else(|| DbError::UnknownRelation(name.clone()))?;
                if rel.arity() != args.len() {
                    return Err(DbError::ArityMismatch {
                        name: name.clone(),
                        expected: rel.arity(),
                        got: args.len(),
                    });
                }
                rel.instantiate(args, fresh)
            }
            Formula::Not(g) => self.expand_rec(g, fresh)?.negate(),
            Formula::And(gs) => {
                let mut out = Formula::True;
                for g in gs {
                    out = out.and(self.expand_rec(g, fresh)?);
                }
                out
            }
            Formula::Or(gs) => {
                let mut out = Formula::False;
                for g in gs {
                    out = out.or(self.expand_rec(g, fresh)?);
                }
                out
            }
            Formula::Exists(vs, g) => Formula::exists(vs.clone(), self.expand_rec(g, fresh)?),
            Formula::Forall(vs, g) => Formula::forall(vs.clone(), self.expand_rec(g, fresh)?),
            Formula::ExistsAdom(v, g) => {
                let body = self.expand_rec(g, fresh)?;
                let mut out = Formula::False;
                for a in self.adom() {
                    out = out.or(body.subst_rat(*v, &a));
                }
                out
            }
            Formula::ForallAdom(v, g) => {
                let body = self.expand_rec(g, fresh)?;
                let mut out = Formula::True;
                for a in self.adom() {
                    out = out.and(body.subst_rat(*v, &a));
                }
                out
            }
        })
    }

    /// Evaluates a query: substitutes relation definitions, eliminates all
    /// quantifiers, and returns the output as a new finitely representable
    /// relation over `free` (the output column order) — the closure
    /// property of constraint query languages, executed. The QE phase runs
    /// under the cooperative `budget` and aborts with
    /// `DbError::Qe(QeError::Budget(..))` when it is exhausted.
    pub fn eval(
        &self,
        q: &Formula,
        free: &[Var],
        budget: &EvalBudget,
    ) -> Result<Relation, DbError> {
        let expanded = self.expand(q)?;
        let qf = cqa_qe::eliminate(&expanded, budget)?;
        Ok(Relation::FinitelyRepresentable {
            params: free.to_vec(),
            formula: cqa_qe::simplify(&qf),
        })
    }

    /// Parses and evaluates a query in one step, with no budget; the free
    /// variables are the named parameters in order.
    pub fn query(&mut self, params: &[&str], src: &str) -> Result<Relation, DbError> {
        let vs: Vec<Var> = params.iter().map(|p| self.vars.intern(p)).collect();
        let q =
            parse_formula_with(src, &mut self.vars).map_err(|e| DbError::Parse(e.to_string()))?;
        self.eval(&q, &vs, &EvalBudget::unlimited())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;

    #[test]
    fn define_and_membership() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        let t = db.relation("T").unwrap();
        assert!(t.contains(&[rat(1, 4), rat(1, 4)]));
        assert!(!t.contains(&[rat(1, 1), rat(1, 1)]));
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn expansion_does_not_depend_on_what_else_was_ever_defined() {
        let mut db = Database::new();
        db.define("S", &["y"], "0 <= y & y <= 1").unwrap();
        let x = db.vars_mut().intern("x");
        let q = Formula::Rel {
            name: "S".into(),
            args: vec![MPoly::var(x) + MPoly::var(x)],
        };
        let alone = db.expand(&q).unwrap();
        // A definition over far larger variable indices, added and removed
        // again, raises the renaming base for good; the expansion is the
        // same formula all the same.
        let (a, b) = (Var(40), Var(41));
        let wide = Formula::le(MPoly::var(a), MPoly::var(b));
        db.add_fr_relation("W", vec![a, b], wide).unwrap();
        assert_eq!(db.expand(&q).unwrap(), alone);
        assert!(db.remove_relation("W").is_some());
        assert!(db.remove_relation("W").is_none());
        assert_eq!(db.expand(&q).unwrap(), alone);
        assert!(db.add_fr_relation("W", vec![a], Formula::True).is_ok());
    }

    #[test]
    fn duplicate_and_bad_definitions() {
        let mut db = Database::new();
        db.define("T", &["x"], "x >= 0").unwrap();
        assert!(matches!(
            db.define("T", &["x"], "x < 0"),
            Err(DbError::DuplicateRelation(_))
        ));
        assert!(matches!(
            db.define("U", &["x"], "exists y. x < y"),
            Err(DbError::BadDefinition(_))
        ));
        // Free variable outside declared parameters.
        assert!(matches!(
            db.define("V", &["x"], "x < z"),
            Err(DbError::BadDefinition(_))
        ));
    }

    #[test]
    fn projection_query_is_closed() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        // π_x(T): ∃y. T(x,y) — should come back as 0 ≤ x ≤ 1.
        let out = db.query(&["x"], "exists y. T(x, y)").unwrap();
        assert!(out.contains(&[rat(1, 2)]));
        assert!(out.contains(&[rat(0, 1)]));
        assert!(out.contains(&[rat(1, 1)]));
        assert!(!out.contains(&[rat(3, 2)]));
        assert!(!out.contains(&[rat(-1, 10)]));
        // And it is again a quantifier-free constraint relation.
        match out {
            Relation::FinitelyRepresentable { formula, .. } => {
                assert!(formula.is_quantifier_free());
                assert!(formula.is_relation_free());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_and_arguments_with_terms() {
        let mut db = Database::new();
        db.define("A", &["x"], "0 <= x & x <= 2").unwrap();
        db.define("B", &["x"], "1 <= x & x <= 3").unwrap();
        let out = db.query(&["x"], "A(x) & B(x)").unwrap();
        assert!(out.contains(&[rat(3, 2)]));
        assert!(!out.contains(&[rat(1, 2)]));
        // Terms as arguments: A(x + 2) holds iff -2 ≤ x ≤ 0.
        let shifted = db.query(&["x"], "A(x + 2)").unwrap();
        assert!(shifted.contains(&[rat(-1, 1)]));
        assert!(!shifted.contains(&[rat(1, 1)]));
    }

    #[test]
    fn arity_and_unknown_errors() {
        let mut db = Database::new();
        db.define("A", &["x"], "x = 0").unwrap();
        assert!(matches!(
            db.query(&["x"], "A(x, x)"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.query(&["x"], "Z(x)"),
            Err(DbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn finite_relations_and_adom() {
        let mut db = Database::new();
        db.add_finite_relation("U", vec![vec![rat(1, 2)], vec![rat(3, 4)]])
            .unwrap();
        assert_eq!(db.adom(), vec![rat(1, 2), rat(3, 4)]);
        let u = db.relation("U").unwrap();
        assert!(u.contains(&[rat(1, 2)]));
        assert!(!u.contains(&[rat(1, 4)]));
    }

    #[test]
    fn finite_relation_in_query() {
        let mut db = Database::new();
        db.add_finite_relation("U", vec![vec![rat(1, 4)], vec![rat(1, 2)]])
            .unwrap();
        // Points of U shifted by 1.
        let out = db.query(&["x"], "U(x - 1)").unwrap();
        assert!(out.contains(&[rat(5, 4)]));
        assert!(out.contains(&[rat(3, 2)]));
        assert!(!out.contains(&[rat(1, 4)]));
    }

    #[test]
    fn active_domain_quantifiers() {
        let mut db = Database::new();
        db.add_finite_relation("U", vec![vec![rat(1, 1)], vec![rat(3, 1)]])
            .unwrap();
        // ∃u ∈ adom: U(u) ∧ x < u — satisfied iff x < 3.
        let out = db.query(&["x"], "Eadom u. U(u) & x < u").unwrap();
        assert!(out.contains(&[rat(2, 1)]));
        assert!(!out.contains(&[rat(4, 1)]));
        // ∀u ∈ adom: x < u — iff x < 1.
        let all = db.query(&["x"], "Aadom u. x < u").unwrap();
        assert!(all.contains(&[rat(0, 1)]));
        assert!(!all.contains(&[rat(2, 1)]));
    }

    #[test]
    fn polynomial_database() {
        let mut db = Database::new();
        db.define("Disk", &["x", "y"], "x*x + y*y <= 1").unwrap();
        // Projection of the disk: -1 ≤ x ≤ 1 (via Cohen–Hörmander).
        let out = db.query(&["x"], "exists y. Disk(x, y)").unwrap();
        assert!(out.contains(&[rat(0, 1)]));
        assert!(out.contains(&[rat(1, 1)]));
        assert!(out.contains(&[rat(-1, 1)]));
        assert!(!out.contains(&[rat(2, 1)]));
    }

    #[test]
    fn self_join_with_renaming_is_capture_free() {
        let mut db = Database::new();
        // S(x) ≡ 0 ≤ x ≤ 1 defined with an internal variable named `x`.
        db.define("S", &["x"], "0 <= x & x <= 1").unwrap();
        // Query reusing the same variable names in a nested way.
        let out = db
            .query(&["x"], "S(x) & (exists x. S(x) & x > 0.5)")
            .unwrap();
        assert!(out.contains(&[rat(1, 4)]));
        assert!(!out.contains(&[rat(2, 1)]));
    }

    #[test]
    fn composed_queries_stay_closed() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        let first = db.query(&["x"], "exists y. T(x, y)").unwrap();
        // Register the output as a new relation and query it again.
        let Relation::FinitelyRepresentable { params, formula } = first else {
            panic!()
        };
        db.add_fr_relation("P", params, formula).unwrap();
        let second = db.query(&["x"], "P(x) & x >= 0.5").unwrap();
        assert!(second.contains(&[rat(3, 4)]));
        assert!(!second.contains(&[rat(1, 4)]));
    }
}
