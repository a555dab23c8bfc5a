//! The FO+POLY+SUM term-former: END, range restriction, determinism and
//! summation.

use cqa_arith::Rat;
use cqa_core::{decompose_1d, Database, DbError, Endpoint, SafetyError};
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::Formula;
use cqa_poly::{RealAlg, Var};
use cqa_qe::QeError;

/// Errors from FO+POLY+SUM evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggError {
    /// Database-level failure (unknown relation, parse, …).
    Db(String),
    /// Quantifier elimination failed.
    Qe(QeError),
    /// A formula used as `END` body was not one-dimensional in the bound
    /// variable after substitution.
    NotOneDimensional,
    /// An interval endpoint is irrational; exact rational summation is
    /// impossible. (Only arises for semi-algebraic inputs; the paper's
    /// Theorem 3 concerns semi-linear inputs, whose endpoints are
    /// rational.) Use [`end_points`] and work with `RealAlg` directly, or
    /// supply an approximation precision.
    IrrationalEndpoint,
    /// The γ formula is not deterministic (more than one output for some
    /// input).
    NotDeterministic,
    /// A γ formula expected to be total was undefined at some input.
    GammaPartial,
    /// A `GROUP BY` column is not among the query's output columns.
    GroupByNotInOutput(String),
    /// An eliminated formula left a residue that could not be evaluated
    /// where a definite value was required (e.g. a ground filter instance
    /// that did not reduce to a truth value). Surfaced as a typed error
    /// instead of a panic or a silently-biased default.
    Residual(String),
    /// The evaluation budget was exhausted (deadline, step or atom limit).
    Budget(BudgetExceeded),
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::Db(m) => write!(f, "database error: {m}"),
            AggError::Qe(e) => write!(f, "quantifier elimination failed: {e}"),
            AggError::NotOneDimensional => write!(f, "END body is not one-dimensional"),
            AggError::IrrationalEndpoint => write!(f, "irrational interval endpoint"),
            AggError::NotDeterministic => write!(f, "γ formula is not deterministic"),
            AggError::GammaPartial => write!(f, "γ formula is undefined at some input"),
            AggError::GroupByNotInOutput(v) => {
                write!(f, "GROUP BY column {v} is not among the output columns")
            }
            AggError::Residual(m) => write!(f, "unevaluable residual: {m}"),
            AggError::Budget(b) => write!(f, "{b}"),
        }
    }
}
impl std::error::Error for AggError {}

impl From<QeError> for AggError {
    fn from(e: QeError) -> AggError {
        match e {
            QeError::Budget(b) => AggError::Budget(b),
            e => AggError::Qe(e),
        }
    }
}
impl From<DbError> for AggError {
    fn from(e: DbError) -> AggError {
        AggError::Db(e.to_string())
    }
}
impl From<BudgetExceeded> for AggError {
    fn from(b: BudgetExceeded) -> AggError {
        AggError::Budget(b)
    }
}
impl From<SafetyError> for AggError {
    fn from(e: SafetyError) -> AggError {
        match e {
            SafetyError::Infinite => AggError::Db("aggregate over an infinite set".into()),
            SafetyError::IrrationalPoint => AggError::IrrationalEndpoint,
            SafetyError::Qe(q) => AggError::from(q),
            SafetyError::Budget(b) => AggError::Budget(b),
            e @ SafetyError::UnboundVariable(_) => AggError::Db(e.to_string()),
        }
    }
}

/// `END[y, φ(y)]` evaluated against a database: the endpoints of the
/// maximal intervals composing `{y : φ(y)}` (after substituting relation
/// definitions and eliminating quantifiers). `φ` must have `y` as its only
/// free variable.
pub fn end_points(db: &Database, phi: &Formula, y: Var) -> Result<Vec<RealAlg>, AggError> {
    end_points_with_budget(db, phi, y, &EvalBudget::unlimited())
}

/// [`end_points`] under a cooperative evaluation budget.
pub fn end_points_with_budget(
    db: &Database,
    phi: &Formula,
    y: Var,
    budget: &EvalBudget,
) -> Result<Vec<RealAlg>, AggError> {
    let expanded = db.expand(phi)?;
    let qf = cqa_qe::eliminate(&expanded, budget)?;
    let ivs = decompose_1d(&qf, y).ok_or(AggError::NotOneDimensional)?;
    let mut out: Vec<RealAlg> = Vec::new();
    for iv in ivs {
        for e in [&iv.lo, &iv.hi] {
            if let Endpoint::Value(a, _) = e {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Rational endpoints of `END[y, φ]`, erroring on irrational ones.
pub fn end_points_rational(db: &Database, phi: &Formula, y: Var) -> Result<Vec<Rat>, AggError> {
    end_points(db, phi, y)?
        .into_iter()
        .map(|a| match a {
            RealAlg::Rational(r) => Ok(r),
            _ => Err(AggError::IrrationalEndpoint),
        })
        .collect()
}

/// A range-restricted expression `ρ(w⃗) ≡ (φ₁(w⃗) | END[y, φ₂(y)])`:
/// the tuples `w⃗` satisfying `φ₁` all of whose coordinates are endpoints
/// of the intervals composing `φ₂`. Guaranteed finite.
#[derive(Clone, Debug)]
pub struct RangeRestricted {
    /// The filter `φ₁(w⃗)`.
    pub filter: Formula,
    /// The tuple variables `w⃗` (also the free variables of `filter` that
    /// range over endpoints).
    pub tuple_vars: Vec<Var>,
    /// The `END` bound variable `y`.
    pub end_var: Var,
    /// The `END` body `φ₂(y)`.
    pub end_formula: Formula,
}

impl RangeRestricted {
    /// Enumerates `ρ(D)`: all tuples of endpoints satisfying the filter.
    /// Requires rational endpoints (semi-linear `φ₂`).
    pub fn enumerate(&self, db: &Database) -> Result<Vec<Vec<Rat>>, AggError> {
        self.enumerate_with_budget(db, &EvalBudget::unlimited())
    }

    /// [`Self::enumerate`] under a cooperative evaluation budget: one step
    /// is charged per candidate tuple (the odometer over endpoint tuples is
    /// the combinatorial blow-up here — `|END|^k` filter evaluations).
    pub fn enumerate_with_budget(
        &self,
        db: &Database,
        budget: &EvalBudget,
    ) -> Result<Vec<Vec<Rat>>, AggError> {
        let ends = end_points_with_budget(db, &self.end_formula, self.end_var, budget)?
            .into_iter()
            .map(|a| match a {
                RealAlg::Rational(r) => Ok(r),
                _ => Err(AggError::IrrationalEndpoint),
            })
            .collect::<Result<Vec<Rat>, AggError>>()?;
        let k = self.tuple_vars.len();
        let mut out = Vec::new();
        let mut idx = vec![0usize; k];
        if ends.is_empty() && k > 0 {
            return Ok(out);
        }
        loop {
            budget.check()?;
            let tuple: Vec<Rat> = idx.iter().map(|&i| ends[i].clone()).collect();
            // Evaluate the filter with relation atoms resolved by the db.
            let mut f = db.expand(&self.filter)?;
            for (v, x) in self.tuple_vars.iter().zip(&tuple) {
                f = f.subst_rat(*v, x);
            }
            let qf = cqa_qe::eliminate(&f, budget)?;
            // The substituted filter is ground and relation-free, so it
            // must evaluate to a definite truth value; a residue is a bug
            // upstream, reported as an error — not silently counted as a
            // miss (the old `unwrap_or(false)` bias).
            let truth = qf.eval(&|_| Rat::zero(), &[]).ok_or_else(|| {
                AggError::Residual(format!(
                    "ground filter instance did not reduce to a truth value: {qf:?}"
                ))
            })?;
            if truth {
                out.push(tuple);
            }
            // Odometer.
            let mut j = 0;
            loop {
                if j == k {
                    return Ok(out);
                }
                idx[j] += 1;
                if idx[j] < ends.len() {
                    break;
                }
                idx[j] = 0;
                j += 1;
            }
        }
    }
}

/// A deterministic formula `γ(x, w⃗)`: a definable partial function from
/// `w⃗` to at most one `x`.
#[derive(Clone, Debug)]
pub struct Deterministic {
    /// The output variable `x`.
    pub out_var: Var,
    /// The input variables `w⃗`.
    pub in_vars: Vec<Var>,
    /// The defining formula `γ(x, w⃗)`.
    pub formula: Formula,
}

impl Deterministic {
    /// Applies the partial function at `w⃗ = args`; `None` where undefined.
    pub fn apply(&self, db: &Database, args: &[Rat]) -> Result<Option<Rat>, AggError> {
        self.apply_with_budget(db, args, &EvalBudget::unlimited())
    }

    /// [`Self::apply`] under a cooperative evaluation budget.
    pub fn apply_with_budget(
        &self,
        db: &Database,
        args: &[Rat],
        budget: &EvalBudget,
    ) -> Result<Option<Rat>, AggError> {
        budget.check()?;
        let mut f = db.expand(&self.formula)?;
        for (v, x) in self.in_vars.iter().zip(args) {
            f = f.subst_rat(*v, x);
        }
        let qf = cqa_qe::eliminate(&f, budget)?;
        let ivs = decompose_1d(&qf, self.out_var).ok_or(AggError::NotOneDimensional)?;
        match ivs.len() {
            0 => Ok(None),
            1 if ivs[0].is_point() => match &ivs[0].lo {
                Endpoint::Value(RealAlg::Rational(r), _) => Ok(Some(r.clone())),
                Endpoint::Value(_, _) => Err(AggError::IrrationalEndpoint),
                // A point interval must carry a value endpoint; an
                // unbounded endpoint here means the decomposition is
                // inconsistent — a typed error, not a panic.
                _ => Err(AggError::Residual(
                    "point interval without a value endpoint".into(),
                )),
            },
            _ => Err(AggError::NotDeterministic),
        }
    }
}

/// Decides whether `γ(x, w⃗)` is deterministic:
/// `∀w⃗ ∀x ∀x'. γ(x, w⃗) ∧ γ(x', w⃗) → x = x'` — a sentence the QE engine
/// decides (the paper notes "it is decidable if a formula is
/// deterministic").
pub fn is_deterministic(gamma: &Deterministic) -> Result<bool, AggError> {
    is_deterministic_with_budget(gamma, &EvalBudget::unlimited())
}

/// [`is_deterministic`] under a cooperative evaluation budget (the check
/// is itself a QE problem, and so can blow up).
pub fn is_deterministic_with_budget(
    gamma: &Deterministic,
    budget: &EvalBudget,
) -> Result<bool, AggError> {
    let f = &gamma.formula;
    if !f.is_relation_free() {
        // Relation atoms are database-dependent; conservatively reject.
        return Ok(false);
    }
    let x = gamma.out_var;
    // Fresh variable for x'.
    let xp = f.fresh_var();
    let f2 = f.subst_poly(x, &cqa_poly::MPoly::var(xp));
    let claim = f.clone().and(f2).implies(Formula::eq(
        cqa_poly::MPoly::var(x),
        cqa_poly::MPoly::var(xp),
    ));
    Ok(cqa_qe::is_valid(&claim, budget)?)
}

/// The summation term `Σ_{ρ(w⃗)} γ`: the sum of the bag `γ(ρ(D))`.
#[derive(Clone, Debug)]
pub struct SumTerm {
    /// The range-restricted expression supplying the finite bag of tuples.
    pub range: RangeRestricted,
    /// The deterministic summand.
    pub gamma: Deterministic,
}

impl SumTerm {
    /// Evaluates the term against a database.
    ///
    /// Checks γ's determinism first (rejecting with
    /// [`AggError::NotDeterministic`]) — mirroring the language definition,
    /// where only deterministic formulas may be summed. Syntactically
    /// certified γ (the paper's functional-graph shape `x = t(w⃗)`,
    /// recognized by [`cqa_core::is_syntactically_deterministic`]) skips
    /// the QE-based sentence check entirely; this also admits relational γ
    /// with a pinning conjunct, which the semantic check conservatively
    /// rejects.
    pub fn eval(&self, db: &Database) -> Result<Rat, AggError> {
        self.eval_with_budget(db, &EvalBudget::unlimited())
    }

    /// [`Self::eval`] under a cooperative evaluation budget: the budget is
    /// threaded through the determinism check, the range enumeration and
    /// each per-tuple γ application, so a runaway sum returns
    /// [`AggError::Budget`] instead of hanging. When the budget is not hit
    /// the result is bit-identical to the unbudgeted one.
    pub fn eval_with_budget(&self, db: &Database, budget: &EvalBudget) -> Result<Rat, AggError> {
        let certified = cqa_core::is_syntactically_deterministic(
            &self.gamma.formula,
            self.gamma.out_var,
            &self.gamma.in_vars,
        );
        if !certified && !is_deterministic_with_budget(&self.gamma, budget)? {
            return Err(AggError::NotDeterministic);
        }
        let tuples = self.range.enumerate_with_budget(db, budget)?;
        let mut total = Rat::zero();
        for t in tuples {
            budget.check()?;
            if let Some(v) = self.gamma.apply_with_budget(db, &t, budget)? {
                total += &v;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;

    /// The paper's first example (§5): the sum of all endpoints of the
    /// intervals composing φ(D).
    #[test]
    fn sum_of_endpoints_example() {
        let mut db = Database::new();
        // S = [0, 1/2] ∪ [3/4, 2].
        db.define("S", &["y"], "(0 <= y & y <= 0.5) | (0.75 <= y & y <= 2)")
            .unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let x = db.vars_mut().intern("xout");
        let phi2 = parse_formula_with("S(y)", db.vars_mut()).unwrap();

        // γ(x, w) ≡ x = w; ρ(w) = (w = w | END[y, S(y)]).
        let term = SumTerm {
            range: RangeRestricted {
                filter: Formula::True,
                tuple_vars: vec![w],
                end_var: y,
                end_formula: phi2,
            },
            gamma: Deterministic {
                out_var: x,
                in_vars: vec![w],
                formula: parse_formula_with("xout = w", db.vars_mut()).unwrap(),
            },
        };
        // 0 + 1/2 + 3/4 + 2 = 13/4.
        assert_eq!(term.eval(&db).unwrap(), rat(13, 4));
    }

    #[test]
    fn endpoints_of_query_outputs() {
        let mut db = Database::new();
        db.define("S", &["y"], "0 <= y & y <= 1").unwrap();
        let y = db.vars_mut().intern("y");
        // φ(y) = S(y) ∧ y ≥ 1/2: endpoints {1/2, 1}.
        let phi = parse_formula_with("S(y) & y >= 0.5", db.vars_mut()).unwrap();
        let ends = end_points_rational(&db, &phi, y).unwrap();
        assert_eq!(ends, vec![rat(1, 2), rat(1, 1)]);
    }

    #[test]
    fn endpoints_through_projection() {
        let mut db = Database::new();
        db.define("T", &["x", "y"], "x >= 0 & y >= 0 & x + y <= 1")
            .unwrap();
        let x = db.vars_mut().intern("x");
        // END[x, ∃y T(x,y)] = {0, 1}.
        let phi = parse_formula_with("exists y. T(x, y)", db.vars_mut()).unwrap();
        let ends = end_points_rational(&db, &phi, x).unwrap();
        assert_eq!(ends, vec![rat(0, 1), rat(1, 1)]);
    }

    #[test]
    fn irrational_endpoints_flagged() {
        let mut db = Database::new();
        db.define("D", &["y"], "y*y <= 2").unwrap();
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("D(y)", db.vars_mut()).unwrap();
        // Exact algebraic endpoints are available...
        let ends = end_points(&db, &phi, y).unwrap();
        assert_eq!(ends.len(), 2);
        assert!((ends[1].to_f64() - std::f64::consts::SQRT_2).abs() < 1e-9);
        // ...but rational summation refuses.
        assert_eq!(
            end_points_rational(&db, &phi, y),
            Err(AggError::IrrationalEndpoint)
        );
    }

    #[test]
    fn determinism_check() {
        let mut db = Database::new();
        let _ = db.vars_mut().intern("xout");
        let _ = db.vars_mut().intern("w");
        let ok = Deterministic {
            out_var: db.vars_mut().intern("xout"),
            in_vars: vec![db.vars_mut().intern("w")],
            formula: parse_formula_with("xout = w * w + 1", db.vars_mut()).unwrap(),
        };
        assert!(is_deterministic(&ok).unwrap());
        let bad = Deterministic {
            out_var: db.vars_mut().intern("xout"),
            in_vars: vec![db.vars_mut().intern("w")],
            formula: parse_formula_with("xout * xout = w", db.vars_mut()).unwrap(),
        };
        assert!(!is_deterministic(&bad).unwrap());
    }

    #[test]
    fn sum_rejects_nondeterministic_gamma() {
        let mut db = Database::new();
        db.define("S", &["y"], "y = 1 | y = 4").unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let x = db.vars_mut().intern("xout");
        let term = SumTerm {
            range: RangeRestricted {
                filter: Formula::True,
                tuple_vars: vec![w],
                end_var: y,
                end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
            },
            gamma: Deterministic {
                out_var: x,
                in_vars: vec![w],
                formula: parse_formula_with("xout * xout = w", db.vars_mut()).unwrap(),
            },
        };
        assert_eq!(term.eval(&db), Err(AggError::NotDeterministic));
    }

    #[test]
    fn syntactic_certificate_admits_relational_gamma() {
        // γ ≡ (xout = 2*w ∧ S(w)) mentions a relation, so the QE-based
        // `is_deterministic` conservatively rejects it — but the pinning
        // conjunct `xout = 2*w` certifies it syntactically, so the sum
        // evaluates instead of erroring. This also witnesses that certified
        // programs bypass the semantic check.
        let mut db = Database::new();
        db.define("S", &["y"], "y = 1 | y = 4").unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let x = db.vars_mut().intern("xout");
        let gamma = Deterministic {
            out_var: x,
            in_vars: vec![w],
            formula: parse_formula_with("xout = 2*w & S(w)", db.vars_mut()).unwrap(),
        };
        assert!(!is_deterministic(&gamma).unwrap());
        let term = SumTerm {
            range: RangeRestricted {
                filter: Formula::True,
                tuple_vars: vec![w],
                end_var: y,
                end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
            },
            gamma,
        };
        // Endpoints {1, 4}; both satisfy S; γ doubles them: 2 + 8 = 10.
        assert_eq!(term.eval(&db).unwrap(), rat(10, 1));
    }

    #[test]
    fn filtered_ranges() {
        let mut db = Database::new();
        db.define("S", &["y"], "(1 <= y & y <= 2) | y = 5").unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let x = db.vars_mut().intern("xout");
        // Only endpoints above 1.5: {2, 5}; γ doubles them: 4 + 10 = 14.
        let term = SumTerm {
            range: RangeRestricted {
                filter: parse_formula_with("w > 1.5", db.vars_mut()).unwrap(),
                tuple_vars: vec![w],
                end_var: y,
                end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
            },
            gamma: Deterministic {
                out_var: x,
                in_vars: vec![w],
                formula: parse_formula_with("xout = 2 * w", db.vars_mut()).unwrap(),
            },
        };
        assert_eq!(term.eval(&db).unwrap(), rat(14, 1));
    }

    #[test]
    fn pairs_of_endpoints() {
        let mut db = Database::new();
        db.define("S", &["y"], "0 <= y & y <= 1").unwrap();
        let y = db.vars_mut().intern("y");
        let w1 = db.vars_mut().intern("w1");
        let w2 = db.vars_mut().intern("w2");
        let x = db.vars_mut().intern("xout");
        // All ordered pairs (w1, w2) with w1 < w2 of endpoints {0,1}: only
        // (0,1); γ = w2 - w1 = 1.
        let term = SumTerm {
            range: RangeRestricted {
                filter: parse_formula_with("w1 < w2", db.vars_mut()).unwrap(),
                tuple_vars: vec![w1, w2],
                end_var: y,
                end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
            },
            gamma: Deterministic {
                out_var: x,
                in_vars: vec![w1, w2],
                formula: parse_formula_with("xout = w2 - w1", db.vars_mut()).unwrap(),
            },
        };
        assert_eq!(term.eval(&db).unwrap(), rat(1, 1));
    }

    #[test]
    fn gamma_partiality() {
        let mut db = Database::new();
        db.define("S", &["y"], "y = 1 | y = 2").unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let x = db.vars_mut().intern("xout");
        // γ defined only for w > 1.5: sums only the endpoint 2 → 2.
        let term = SumTerm {
            range: RangeRestricted {
                filter: Formula::True,
                tuple_vars: vec![w],
                end_var: y,
                end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
            },
            gamma: Deterministic {
                out_var: x,
                in_vars: vec![w],
                formula: parse_formula_with("xout = w & w > 1.5", db.vars_mut()).unwrap(),
            },
        };
        assert_eq!(term.eval(&db).unwrap(), rat(2, 1));
    }

    #[test]
    fn quantified_filters_decide_exactly_after_elimination() {
        let mut db = Database::new();
        db.define("S", &["y"], "0 <= y & y <= 1").unwrap();
        let y = db.vars_mut().intern("y");
        let w = db.vars_mut().intern("w");
        let rr = RangeRestricted {
            filter: parse_formula_with("exists z. w < z & z < 1", db.vars_mut()).unwrap(),
            tuple_vars: vec![w],
            end_var: y,
            end_formula: parse_formula_with("S(y)", db.vars_mut()).unwrap(),
        };
        // Endpoints {0, 1}; only w = 0 leaves room below 1. The filter goes
        // through QE per tuple, and any residue it left would now surface
        // as a typed `AggError::Residual` — never a silent miss.
        assert_eq!(rr.enumerate(&db).unwrap(), vec![vec![rat(0, 1)]]);
    }

    #[test]
    fn residual_errors_are_typed_and_described() {
        let e = AggError::Residual("ground filter instance did not reduce".into());
        assert!(e.to_string().starts_with("unevaluable residual:"), "{e}");
        // Residues are their own variant, distinguishable from the generic
        // database error a caller might otherwise retry.
        assert_ne!(
            e,
            AggError::Db("ground filter instance did not reduce".into())
        );
    }

    #[test]
    fn partial_gamma_application_is_typed_not_a_panic() {
        let mut db = Database::new();
        let w = db.vars_mut().intern("w");
        let v = db.vars_mut().intern("v");
        // v² = w has no real solution at w = −1: the application is partial.
        let gamma = Deterministic {
            out_var: v,
            in_vars: vec![w],
            formula: parse_formula_with("v*v = w", db.vars_mut()).unwrap(),
        };
        assert_eq!(gamma.apply(&db, &[rat(-1, 1)]).unwrap(), None);
        // Callers that require totality (the polygon-area pipeline) surface
        // the miss as the typed `AggError::GammaPartial`, never a panic.
        let e = gamma
            .apply(&db, &[rat(-1, 1)])
            .unwrap()
            .ok_or(AggError::GammaPartial);
        assert!(matches!(e, Err(AggError::GammaPartial)));
    }
}
