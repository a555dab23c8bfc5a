//! Cost-based quantifier-elimination planning and cross-query subplan
//! sharing.
//!
//! The fixed [`crate::eliminate`] pipeline dispatches on constraint class
//! alone: Loos–Weispfenning for everything linear, Cohen–Hörmander for
//! polynomials — Fourier–Motzkin is never chosen, variables are eliminated
//! in reverse binding order, and every query pays for its own elimination
//! even when two prepared queries differ only in a quantifier-free band
//! around a shared quantified core. This module adds the planner the
//! Giusti–Heintz line of work calls for (see PAPERS.md): per query it
//! chooses
//!
//! * the **elimination method** — FM when the matrix's estimated DNF is
//!   small (conjunctive matrices cost one clause and FM's
//!   equality-substitution and bound cross-combination are then optimal),
//!   LW when the DNF estimate blows past the budget (virtual substitution
//!   never expands to DNF), Hörmander for polynomial formulas (whole
//!   formula, exactly the fixed pipeline — see the parity note below);
//! * the **variable elimination order** inside each quantifier block —
//!   equality-bearing variables first (they substitute away for free),
//!   then ascending `lowers × uppers` product, the classic FM min-growth
//!   heuristic;
//! * **early DNF pruning** — clauses failing the cheap
//!   [`crate::clause_obviously_empty`] contradiction test are dropped
//!   before bound cross-combination.
//!
//! The plan is computed from [`PlanInputs`] — the static analyzer's cost
//! model (atom and quantifier counts, Prop-6 VC bound) refined by the
//! interval abstract interpretation (post-pruning atom count, certified
//! box volume) — so planning costs O(formula), never a trial elimination.
//!
//! **Subplan sharing.** [`eliminate_with_plan`] eliminates innermost
//! quantifier blocks first and memoizes each block's quantifier-free
//! result under the canonical 128-bit hash of the quantified subformula,
//! positional over its free variables in ascending `Var` order (see
//! [`cqa_logic::ir::Arena::subplan_hash`]). A [`SubplanStore`] supplied by
//! the caller (the engine backs it with the shared prepared-query cache)
//! makes the memo cross-query and cross-session: structurally overlapping
//! prepared queries pay for the shared core's elimination once. Equal
//! canonical hashes imply logical equivalence (up to the 2⁻¹²⁸ digest
//! collision), and replacing a quantified subformula by an equivalent
//! quantifier-free one is semantics-preserving, so a hit is sound; the
//! stored result's parameters are renamed positionally onto the
//! requester's (two-phase, through fresh variables, so overlapping
//! from/to sets cannot capture).
//!
//! **Parity contract.** Planned answers must be bit-identical to the
//! fixed pipeline's. For linear formulas every method/order/pruning choice
//! produces a *logically equivalent* quantifier-free formula, and both
//! exact volume (a semantic integral) and Monte Carlo membership (per-point
//! evaluation) are functions of the semantics, not the syntax. Polynomial
//! formulas are the one place a sub-formula-wise elimination could change
//! the *constraint class* of the output (and with it the engine's
//! exact-vs-approximate path), so the plan degenerates to the fixed
//! whole-formula Hörmander run there — no sub-splitting, no sharing.

use crate::simplify::simplify;
use crate::{fm, hoermander, lw, QeError};
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Arena;
use cqa_logic::{ConstraintClass, Formula, Rel};
use cqa_poly::{MPoly, Var};

/// The elimination method a plan commits to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// DNF-based Fourier–Motzkin: per-variable bound cross-combination.
    FourierMotzkin,
    /// Loos–Weispfenning virtual term substitution (no DNF expansion).
    LoosWeispfenning,
    /// Cohen–Hörmander sign matrices, whole-formula (polynomial inputs).
    Hoermander,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::FourierMotzkin => "fm",
            Method::LoosWeispfenning => "lw",
            Method::Hoermander => "ch",
        })
    }
}

/// Planner inputs from the static cost model and the interval analysis.
/// Everything is optional except the raw formula measurements: the planner
/// degrades gracefully to structure-only heuristics when the analyzer did
/// not run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanInputs {
    /// Atom count of the (relation-expanded) formula.
    pub atoms: u64,
    /// Real-quantifier count.
    pub quantifiers: u64,
    /// Atoms surviving interval-certified pruning of statically decided
    /// subformulas (`None` when the absint pass did not run). A survival
    /// ratio below 1 means DNF clauses will collapse, which buys FM a
    /// proportionally larger clause budget.
    pub pruned_atoms: Option<u64>,
    /// Volume of the interval-certified bounding box clamped to the unit
    /// cube (`None` when unavailable). A small box predicts mostly-empty
    /// clauses, favouring early DNF pruning.
    pub box_volume: Option<f64>,
    /// Proposition-6 VC bound from the analyzer's cost report, recorded
    /// for diagnostics (`None` outside the analyzer pipeline).
    pub vc_bound: Option<f64>,
}

impl PlanInputs {
    /// Measures `f` directly — the fallback when no analyzer report is
    /// available (ad-hoc `VOLUME` requests, tests).
    pub fn measure(f: &Formula) -> PlanInputs {
        PlanInputs {
            atoms: f.atom_count() as u64,
            quantifiers: f.quantifier_count() as u64,
            ..PlanInputs::default()
        }
    }
}

/// A committed elimination plan for one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QePlan {
    /// The elimination method.
    pub method: Method,
    /// Whether DNF clauses are pre-filtered through
    /// [`crate::clause_obviously_empty`] (FM only).
    pub prune_dnf: bool,
    /// The estimated DNF clause count that drove the FM-vs-LW choice
    /// (capped at [`CLAUSE_CAP`]).
    pub est_clauses: u64,
    /// Whether sub-formula elimination results are shared through the
    /// [`SubplanStore`] (disabled for polynomial formulas — see the
    /// module-level parity contract).
    pub shared: bool,
}

impl QePlan {
    /// Compact single-token rendering for `PREPARE` responses and logs,
    /// e.g. `fm,clauses=2,prune=on,shared=on`.
    pub fn describe(&self) -> String {
        format!(
            "{},clauses={},prune={},shared={}",
            self.method,
            self.est_clauses,
            if self.prune_dnf { "on" } else { "off" },
            if self.shared { "on" } else { "off" },
        )
    }
}

/// Saturation cap for the DNF clause estimate: past this the estimate only
/// needs to say "way past any FM budget".
pub const CLAUSE_CAP: u64 = 1 << 20;

/// Base FM clause budget: matrices estimated at or below this many DNF
/// clauses take Fourier–Motzkin, larger ones take Loos–Weispfenning. The
/// absint survival ratio scales it (certified pruning collapses clauses
/// before the cross-product pays for them).
pub const FM_CLAUSE_BUDGET: u64 = 8;

/// Estimated DNF clause count: products over `∧`, sums over `∨`, saturating
/// at [`CLAUSE_CAP`]. Negations are counted as their bodies — crude, but
/// the estimate only has to rank matrices, not count cells.
fn est_clauses(f: &Formula) -> u64 {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Rel { .. } => 1,
        Formula::Not(g) => est_clauses(g),
        Formula::And(fs) => fs
            .iter()
            .map(est_clauses)
            .fold(1u64, |a, b| a.saturating_mul(b))
            .min(CLAUSE_CAP),
        Formula::Or(fs) => fs
            .iter()
            .map(est_clauses)
            .fold(0u64, |a, b| a.saturating_add(b))
            .min(CLAUSE_CAP),
        Formula::Exists(_, g)
        | Formula::Forall(_, g)
        | Formula::ExistsAdom(_, g)
        | Formula::ForallAdom(_, g) => est_clauses(g),
    }
}

/// Chooses the elimination plan for `f` from its structure and the
/// analyzer's cost inputs. Pure and cheap: O(|f|), no elimination runs.
pub fn plan(f: &Formula, inputs: &PlanInputs) -> QePlan {
    if f.class() == ConstraintClass::Polynomial {
        // Whole-formula Hörmander, exactly the fixed pipeline: splitting a
        // polynomial formula at quantifier boundaries could change the
        // output's constraint class and with it the caller's
        // exact-vs-approximate path.
        return QePlan {
            method: Method::Hoermander,
            prune_dnf: false,
            est_clauses: est_clauses(f),
            shared: false,
        };
    }
    let est = est_clauses(f);
    // Certified pruning shrinks clauses before FM cross-combines them:
    // scale the clause budget by the (ceiled) inverse survival ratio.
    let survivors = inputs
        .pruned_atoms
        .unwrap_or(inputs.atoms)
        .min(inputs.atoms)
        .max(1);
    let scale = inputs.atoms.max(1).div_ceil(survivors);
    let budget = FM_CLAUSE_BUDGET.saturating_mul(scale.max(1));
    let method = if est <= budget {
        Method::FourierMotzkin
    } else {
        Method::LoosWeispfenning
    };
    // Clause pruning only pays when there is more than one clause to prune
    // — or when the certified box is strictly smaller than the unit cube,
    // which predicts clauses that are empty over the sampled region.
    let prune_dnf =
        method == Method::FourierMotzkin && (est > 1 || inputs.box_volume.is_some_and(|v| v < 1.0));
    QePlan {
        method,
        prune_dnf,
        est_clauses: est,
        shared: true,
    }
}

/// Cross-query memo of quantifier-block elimination results, keyed by the
/// canonical hash of the quantified subformula (positional over its free
/// variables in ascending `Var` order) plus the free-variable count. The
/// engine backs this with its shared prepared-query cache; tests use a
/// `HashMap`. Implementations must be internally synchronized (`&self`
/// methods) — the engine's store is hit from many worker threads.
pub trait SubplanStore {
    /// Returns the stored quantifier-free result and the parameter list it
    /// was stored under, if present.
    fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)>;
    /// Stores an elimination result under its key. Losing a race (another
    /// thread stored first) is fine — both results are equivalent.
    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]);
}

/// A [`SubplanStore`] that never hits: planning without sharing.
pub struct NoSharing;

impl SubplanStore for NoSharing {
    fn lookup(&self, _hash: u128, _dim: u32) -> Option<(Formula, Vec<Var>)> {
        None
    }
    fn store(&self, _hash: u128, _dim: u32, _qf: &Formula, _params: &[Var]) {}
}

/// Renames `from[i] ↦ to[i]` in a quantifier-free formula, two-phase
/// through fresh variables so overlapping `from`/`to` sets cannot capture
/// (`[x↦y, y↦x]` must swap, not collapse). Used to re-base a stored
/// subplan result onto the requesting query's variables; positions line up
/// because both sides hash positionally over the same canonical order.
pub fn rename_positional(qf: &Formula, from: &[Var], to: &[Var]) -> Formula {
    debug_assert_eq!(from.len(), to.len());
    if from == to {
        return qf.clone();
    }
    let base = qf
        .all_vars()
        .iter()
        .map(|v| v.0)
        .chain(from.iter().map(|v| v.0))
        .chain(to.iter().map(|v| v.0))
        .max()
        .map_or(0, |m| m + 1);
    let mut g = qf.clone();
    for (i, v) in from.iter().enumerate() {
        g = g.subst_poly(*v, &MPoly::var(Var(base + i as u32)));
    }
    for (i, v) in to.iter().enumerate() {
        g = g.subst_poly(Var(base + i as u32), &MPoly::var(*v));
    }
    g
}

/// Orders a quantifier block for elimination: equality-bearing variables
/// first (substitution removes them without any cross-combination), then
/// ascending `max(1, lowers) × max(1, uppers) + 2·disequalities` — the
/// number of atoms the next FM round can produce. Ties keep the block's
/// original order, so the plan is deterministic.
pub fn order_block(vars: &[Var], matrix: &Formula) -> Vec<Var> {
    let mut scored: Vec<(u64, usize, Var)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (var_score(v, matrix), i, v))
        .collect();
    scored.sort_by_key(|&(score, i, _)| (score, i));
    scored.into_iter().map(|(_, _, v)| v).collect()
}

/// The FM growth score of eliminating `v` from `matrix` now.
fn var_score(v: Var, matrix: &Formula) -> u64 {
    let (mut lowers, mut uppers, mut eqs, mut neqs) = (0u64, 0u64, 0u64, 0u64);
    let mut opaque = 0u64; // non-affine or parametric occurrences
    matrix.visit(&mut |g| {
        if let Formula::Atom(a) = g {
            if !a.poly.vars().contains(&v) {
                return;
            }
            let coeffs = a.poly.as_univariate_in(v);
            let Some(c) = (coeffs.len() == 2)
                .then(|| coeffs[1].as_constant())
                .flatten()
            else {
                opaque += 1;
                return;
            };
            let rel = if c.is_negative() { a.rel.flip() } else { a.rel };
            match rel {
                Rel::Lt | Rel::Le => uppers += 1,
                Rel::Gt | Rel::Ge => lowers += 1,
                Rel::Eq => eqs += 1,
                Rel::Neq => neqs += 1,
            }
        }
    });
    if eqs > 0 && opaque == 0 {
        0
    } else {
        lowers.max(1) * uppers.max(1) + 2 * neqs + 100 * opaque
    }
}

/// Eliminates all quantifiers from `f` per `plan`, memoizing quantifier
/// blocks through `store`. Equivalent to the fixed dispatcher
/// ([`crate::eliminate`], the parity reference): for every
/// input both produce logically equivalent quantifier-free output, and for
/// polynomial inputs the *identical* output (the plan defers to
/// whole-formula Hörmander there).
pub fn eliminate_with_plan(
    f: &Formula,
    plan: &QePlan,
    budget: &EvalBudget,
    arena: &mut Arena,
    store: &dyn SubplanStore,
) -> Result<Formula, QeError> {
    crate::check_input(f)?;
    match plan.method {
        Method::Hoermander => hoermander(f, budget),
        _ => {
            let out = eliminate_rec(f, plan, budget, arena, store)?;
            Ok(simplify(&out))
        }
    }
}

/// Innermost-first recursive elimination: quantifier-free subtrees pass
/// through, boolean connectives rebuild over recursed children, and each
/// quantifier block over a (now) quantifier-free body goes through the
/// subplan store.
fn eliminate_rec(
    f: &Formula,
    plan: &QePlan,
    budget: &EvalBudget,
    arena: &mut Arena,
    store: &dyn SubplanStore,
) -> Result<Formula, QeError> {
    budget.check()?;
    if f.is_quantifier_free() {
        return Ok(f.clone());
    }
    match f {
        Formula::And(fs) => {
            let mut out = Formula::True;
            for g in fs {
                out = out.and(eliminate_rec(g, plan, budget, arena, store)?);
            }
            Ok(out)
        }
        Formula::Or(fs) => {
            let mut out = Formula::False;
            for g in fs {
                out = out.or(eliminate_rec(g, plan, budget, arena, store)?);
            }
            Ok(out)
        }
        Formula::Not(g) => Ok(eliminate_rec(g, plan, budget, arena, store)?.negate()),
        Formula::Exists(vs, body) | Formula::Forall(vs, body) => {
            let exists = matches!(f, Formula::Exists(..));
            let body_qf = eliminate_rec(body, plan, budget, arena, store)?;
            let sub = if exists {
                Formula::exists(vs.clone(), body_qf)
            } else {
                Formula::forall(vs.clone(), body_qf)
            };
            if sub.is_quantifier_free() {
                // The body collapsed to a constant; the quantifier is gone.
                return Ok(sub);
            }
            eliminate_block(&sub, plan, budget, arena, store)
        }
        // True/False/Atom are quantifier-free (handled above); Rel and
        // active-domain quantifiers are rejected by check_input.
        other => Err(QeError::Residual(format!(
            "unplannable node in elimination walk: {other:?}"
        ))),
    }
}

/// Eliminates one quantifier block over a quantifier-free body, consulting
/// the subplan store first.
fn eliminate_block(
    sub: &Formula,
    plan: &QePlan,
    budget: &EvalBudget,
    arena: &mut Arena,
    store: &dyn SubplanStore,
) -> Result<Formula, QeError> {
    let (hash, params) = if plan.shared {
        let sid = arena.intern(sub);
        let (hash, params) = arena.subplan_hash(sid);
        if let Some((qf, stored_params)) = store.lookup(hash, params.len() as u32) {
            if stored_params.len() == params.len() {
                return Ok(rename_positional(&qf, &stored_params, &params));
            }
        }
        (hash, params)
    } else {
        (0, Vec::new())
    };
    let (exists, vars, body) = match sub {
        Formula::Exists(vs, b) => (true, vs, b.as_ref()),
        Formula::Forall(vs, b) => (false, vs, b.as_ref()),
        other => {
            return Err(QeError::Residual(format!(
                "eliminate_block on a non-block: {other:?}"
            )))
        }
    };
    // ∀x⃗. φ ⇔ ¬∃x⃗. ¬φ — negate once around the whole block.
    let mut matrix = if exists {
        body.clone()
    } else {
        body.clone().negate()
    };
    for v in order_block(vars, &matrix) {
        budget.check_atoms(matrix.atom_count() as u64)?;
        matrix = match plan.method {
            Method::FourierMotzkin => {
                fm::fm_eliminate_exists(v, &matrix, budget, arena, plan.prune_dnf)?
            }
            Method::LoosWeispfenning => lw::eliminate_exists_lw(v, &matrix, budget, arena)?,
            Method::Hoermander => unreachable!("Hörmander plans never sub-split"),
        };
        matrix = simplify(&matrix);
    }
    let out = simplify(&if exists { matrix } else { matrix.negate() });
    if plan.shared {
        store.store(hash, params.len() as u32, &out, &params);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::Rat;
    use cqa_logic::parse_formula_with;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// A stored subplan: the eliminated matrix plus its positional params.
    type StoredSubplan = (Formula, Vec<Var>);

    /// An in-memory store with a hit counter, for tests.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<(u128, u32), StoredSubplan>>,
        hits: std::sync::atomic::AtomicU64,
    }

    impl SubplanStore for MapStore {
        fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)> {
            let hit = self.map.lock().unwrap().get(&(hash, dim)).cloned();
            if hit.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        }
        fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
            self.map
                .lock()
                .unwrap()
                .insert((hash, dim), (qf.clone(), params.to_vec()));
        }
    }

    fn planned(src: &str, vars: &mut cqa_logic::VarMap, store: &dyn SubplanStore) -> Formula {
        let f = parse_formula_with(src, vars).unwrap();
        let p = plan(&f, &PlanInputs::measure(&f));
        eliminate_with_plan(&f, &p, &EvalBudget::unlimited(), &mut Arena::new(), store).unwrap()
    }

    /// Grid agreement of two quantifier-free formulas.
    fn agree(a: &Formula, b: &Formula) {
        let vars: Vec<Var> = a.free_vars().union(&b.free_vars()).copied().collect();
        let samples: Vec<Rat> = (-4..=4).map(|n| Rat::new(n.into(), 2i64.into())).collect();
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
    fn conjunctive_matrices_take_fm_disjunctive_take_lw() {
        let mut vm = cqa_logic::VarMap::new();
        let conj = parse_formula_with("exists y. x < y & y < 1 & y < z", &mut vm).unwrap();
        let p = plan(&conj, &PlanInputs::measure(&conj));
        assert_eq!(p.method, Method::FourierMotzkin);
        assert!(p.shared);
        // 2^10 clauses blows any FM budget.
        let wide = {
            let parts: Vec<String> = (0..10)
                .map(|i| format!("(x < {i} | x > {})", i + 10))
                .collect();
            format!("exists y. y < x & {}", parts.join(" & "))
        };
        let wide = parse_formula_with(&wide, &mut vm).unwrap();
        let p = plan(&wide, &PlanInputs::measure(&wide));
        assert_eq!(p.method, Method::LoosWeispfenning);
    }

    #[test]
    fn polynomial_plans_defer_to_whole_formula_hoermander() {
        let mut vm = cqa_logic::VarMap::new();
        let f = parse_formula_with("exists y. y*y < x", &mut vm).unwrap();
        let p = plan(&f, &PlanInputs::measure(&f));
        assert_eq!(p.method, Method::Hoermander);
        assert!(!p.shared);
        let planned = eliminate_with_plan(
            &f,
            &p,
            &EvalBudget::unlimited(),
            &mut Arena::new(),
            &NoSharing,
        )
        .unwrap();
        let fixed = crate::eliminate(&f, &EvalBudget::unlimited()).unwrap();
        assert_eq!(planned, fixed, "polynomial path must be the fixed pipeline");
    }

    #[test]
    fn pruning_certificate_scales_the_fm_budget() {
        let mut vm = cqa_logic::VarMap::new();
        // 2^5 = 32 clauses: over the base budget of 8 ...
        let src = {
            let parts: Vec<String> = (0..5)
                .map(|i| format!("(x < {i} | x > {})", i + 10))
                .collect();
            format!("exists y. y < x & {}", parts.join(" & "))
        };
        let f = parse_formula_with(&src, &mut vm).unwrap();
        assert_eq!(
            plan(&f, &PlanInputs::measure(&f)).method,
            Method::LoosWeispfenning
        );
        // ... but a certificate that pruning keeps 2 of 11 atoms scales the
        // budget past the estimate.
        let inputs = PlanInputs {
            pruned_atoms: Some(2),
            ..PlanInputs::measure(&f)
        };
        assert_eq!(plan(&f, &inputs).method, Method::FourierMotzkin);
    }

    #[test]
    fn planned_matches_fixed_pipeline_semantically() {
        let cases = [
            "exists y. x < y & y < 1",
            "exists y. (x < y & y < z) | (z < y & y < x)",
            "forall y. y > x | y <= x",
            "exists y, w. x < y & y < w & w < z",
            "(exists y. x < y & y < 1) & (exists u. u < x & 0 < u)",
            "forall y. (y > x -> y >= z)",
            "exists y. y = x + z & y > 0",
        ];
        for src in cases {
            // Fresh VarMaps line up: both assign ids in first-appearance
            // order over the same source.
            let mut vm = cqa_logic::VarMap::new();
            let f = parse_formula_with(src, &mut vm).unwrap();
            let fixed = crate::eliminate(&f, &EvalBudget::unlimited()).unwrap();
            let got = planned(src, &mut cqa_logic::VarMap::new(), &NoSharing);
            agree(&got, &fixed);
        }
    }

    #[test]
    fn overlapping_queries_share_subplans() {
        let store = MapStore::default();
        let mut vm = cqa_logic::VarMap::new();
        let core = "(exists a, b. x < a & a < b & b < x + 1 & 2*a < b + x)";
        let q1 = format!("{core} & 0 <= x & x <= 1/2");
        let q2 = format!("{core} & 1/2 <= x & x <= 1");
        let r1 = planned(&q1, &mut vm, &store);
        assert_eq!(store.hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        let r2 = planned(&q2, &mut vm, &store);
        assert_eq!(
            store.hits.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "second query must reuse the core's elimination"
        );
        // Both agree with the fixed pipeline.
        let f1 = parse_formula_with(&q1, &mut vm).unwrap();
        let f2 = parse_formula_with(&q2, &mut vm).unwrap();
        let unlimited = &EvalBudget::unlimited();
        agree(&r1, &crate::eliminate(&f1, unlimited).unwrap());
        agree(&r2, &crate::eliminate(&f2, unlimited).unwrap());
    }

    #[test]
    fn shared_hits_are_deterministic() {
        // Running the same query list twice against fresh stores produces
        // bit-identical formulas — the memo cannot leak nondeterminism.
        let run = || {
            let store = MapStore::default();
            let mut vm = cqa_logic::VarMap::new();
            let core = "(exists a. x < a & a < x + 1 & a < 2)";
            let qs = [
                format!("{core} & 0 <= x"),
                format!("{core} & x <= 1"),
                format!("{core} & 1/4 <= x & x <= 3/4"),
            ];
            qs.iter()
                .map(|q| planned(q, &mut vm, &store))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rename_positional_swaps_without_capture() {
        let mut vm = cqa_logic::VarMap::new();
        let f = parse_formula_with("x < y", &mut vm).unwrap();
        let x = vm.get("x").unwrap();
        let y = vm.get("y").unwrap();
        let swapped = rename_positional(&f, &[x, y], &[y, x]);
        let expect = parse_formula_with("y < x", &mut vm).unwrap();
        agree(&swapped, &expect);
    }

    #[test]
    fn order_block_prefers_equalities_then_low_growth() {
        let mut vm = cqa_logic::VarMap::new();
        let m = parse_formula_with("b = x + 1 & a > 0 & a > x & a < 1 & a < b & c < a", &mut vm)
            .unwrap();
        let a = vm.get("a").unwrap();
        let b = vm.get("b").unwrap();
        let c = vm.get("c").unwrap();
        let order = order_block(&[a, b, c], &m);
        assert_eq!(order[0], b, "equality-bearing variable goes first");
        assert_eq!(order[1], c, "one-sided variable before two-sided");
        assert_eq!(order[2], a);
    }

    #[test]
    fn forall_blocks_eliminate_through_negation() {
        let got = planned(
            "forall y. y > x | y <= x",
            &mut cqa_logic::VarMap::new(),
            &NoSharing,
        );
        assert_eq!(got, Formula::True);
        let got = planned("forall y. y > x", &mut cqa_logic::VarMap::new(), &NoSharing);
        assert_eq!(got, Formula::False);
    }
}
