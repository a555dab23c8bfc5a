//! The absint soundness contract, checked against the FM/LW quantifier
//! elimination oracle over the same random-formula family `ir_parity.rs`
//! uses:
//!
//! * `Verdict::Unsat` ⇒ the formula is unsatisfiable (QE agrees);
//! * `Verdict::Valid` ⇒ the formula is valid (QE agrees);
//! * the derived interval environment contains every satisfying point of
//!   a rational evaluation grid;
//! * conjunction only narrows environments (monotonicity).
//!
//! Plus fixed regressions for the open/closed endpoint rounding that the
//! random generator is unlikely to pin down exactly.

use cqa_analyze::absint::{self, env_interval, AbsintMemo, Interval, Verdict};
use cqa_arith::{rat, Rat};
use cqa_logic::budget::EvalBudget;
use cqa_logic::ir::Arena;
use cqa_logic::{parse_formula_with, Atom, Formula, Rel, VarMap};
use cqa_poly::{MPoly, Var};
use proptest::prelude::*;

/// Quantifier-free formulas over `x0`, `x1` with small affine and
/// quadratic atoms — the same distribution as `ir_parity.rs`.
fn qf_formula() -> impl Strategy<Value = Formula> {
    let atom = (
        prop::collection::vec(-3i64..=3, 2),
        -4i64..=4,
        0usize..6,
        0u8..2,
    )
        .prop_map(|(coeffs, c, r, square)| {
            let square = square == 1;
            let rel = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge, Rel::Eq, Rel::Neq][r];
            let mut p = MPoly::constant(Rat::from(c));
            for (i, &a) in coeffs.iter().enumerate() {
                p = p + MPoly::var(Var(i as u32)).scale(&Rat::from(a));
            }
            if square {
                p = p + MPoly::var(Var(0)) * MPoly::var(Var(0));
            }
            Formula::Atom(Atom::new(p, rel))
        });
    atom.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::negate),
        ]
    })
}

/// The QF family with real quantifiers layered on top — the verdict must
/// stay sound through projection.
fn quantified_formula() -> impl Strategy<Value = Formula> {
    (qf_formula(), 0usize..3).prop_map(|(f, wrap)| match wrap {
        0 => Formula::exists(vec![Var(1)], f),
        1 => Formula::forall(vec![Var(0)], f),
        _ => f,
    })
}

fn facts_of(f: &Formula) -> cqa_analyze::Facts {
    let mut arena = Arena::new();
    let id = arena.intern(f);
    let mut memo = AbsintMemo::new();
    absint::analyze_id(&arena, id, &mut memo)
}

fn parse(src: &str) -> (Formula, VarMap) {
    let mut vars = VarMap::new();
    let f = parse_formula_with(src, &mut vars).expect(src);
    (f, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No statically-unsat verdict on a satisfiable formula, and no
    /// statically-valid verdict on a falsifiable one — the QE decision
    /// procedure is the ground truth.
    #[test]
    fn verdicts_agree_with_the_qe_oracle(f in quantified_formula()) {
        match facts_of(&f).verdict {
            Verdict::Unsat => {
                prop_assert!(
                    !cqa_qe::is_satisfiable(&f, &EvalBudget::unlimited()).expect("oracle"),
                    "absint said Unsat but QE found {:?} satisfiable", f
                );
            }
            Verdict::Valid => {
                prop_assert!(
                    cqa_qe::is_valid(&f, &EvalBudget::unlimited()).expect("oracle"),
                    "absint said Valid but QE found {:?} falsifiable", f
                );
            }
            Verdict::Unknown => {}
        }
    }

    /// The derived box contains every satisfying point of the half-integer
    /// grid: bounds are certificates, never heuristics.
    #[test]
    fn derived_boxes_contain_every_satisfying_grid_point(f in qf_formula()) {
        let facts = facts_of(&f);
        for x in -6..=6i64 {
            for y in -6..=6i64 {
                let asg = |v: Var| if v == Var(0) { rat(x, 2) } else { rat(y, 2) };
                if f.eval(&asg, &[]) == Some(true) {
                    prop_assert!(
                        facts.verdict != Verdict::Unsat,
                        "({x}/2, {y}/2) satisfies a statically-unsat {f:?}"
                    );
                    for (v, r) in [(Var(0), rat(x, 2)), (Var(1), rat(y, 2))] {
                        prop_assert!(
                            env_interval(&facts.env, v).contains(&r),
                            "box {} for {v:?} excludes the satisfying value {r} of {f:?}",
                            env_interval(&facts.env, v)
                        );
                    }
                }
            }
        }
    }

    /// Conjunction is monotone: adding a conjunct can only narrow the
    /// per-variable intervals, never widen them.
    #[test]
    fn conjunction_only_narrows_environments(f in qf_formula(), g in qf_formula()) {
        let fg = facts_of(&f.clone().and(g));
        let f_only = facts_of(&f);
        if fg.verdict == Verdict::Unsat {
            return Ok(()); // empty set: trivially inside every box
        }
        for v in [Var(0), Var(1)] {
            let narrow = env_interval(&fg.env, v);
            let wide = env_interval(&f_only.env, v);
            prop_assert!(
                narrow.subset_of(&wide),
                "conjunction widened {v:?}: {narrow} ⊄ {wide}"
            );
        }
    }

    /// Pruning preserves satisfiability/validity verdicts of the oracle:
    /// replacing decided subformulas by ⊥/⊤ is equivalence-preserving.
    #[test]
    fn pruning_preserves_the_grid_semantics(f in qf_formula()) {
        let mut arena = Arena::new();
        let id = arena.intern(&f);
        let mut memo = AbsintMemo::new();
        let mut simp = cqa_qe::SimplifyMemo::new();
        let pruned = absint::prune_id(&mut arena, id, &mut memo, &mut simp);
        let g = arena.extern_formula(pruned);
        for x in -6..=6i64 {
            for y in -6..=6i64 {
                let asg = |v: Var| if v == Var(0) { rat(x, 2) } else { rat(y, 2) };
                prop_assert_eq!(
                    f.eval(&asg, &[]),
                    g.eval(&asg, &[]),
                    "at ({}/2, {}/2)",
                    x,
                    y
                );
            }
        }
    }
}

#[test]
fn strict_endpoints_meet_to_empty() {
    // Open/open, open/closed, and closed/closed meets at a shared
    // endpoint — only the fully closed pair keeps the point.
    let (f, _) = parse("x < 1 & x > 1");
    assert_eq!(facts_of(&f).verdict, Verdict::Unsat);
    let (f, _) = parse("x < 1 & x >= 1");
    assert_eq!(facts_of(&f).verdict, Verdict::Unsat);
    let (f, vars) = parse("x <= 1 & x >= 1");
    let facts = facts_of(&f);
    assert_ne!(facts.verdict, Verdict::Unsat, "the point x = 1 survives");
    let x = vars.get("x").unwrap();
    assert_eq!(
        env_interval(&facts.env, x),
        Interval::closed(rat(1, 1), rat(1, 1))
    );
}

#[test]
fn scaled_bounds_round_exactly() {
    // 2x ≥ 1 pins x to the exact rational 1/2 with a *closed* endpoint;
    // 2x > 1 must keep it open.
    let (f, vars) = parse("2*x >= 1");
    let x = vars.get("x").unwrap();
    let iv = env_interval(&facts_of(&f).env, x);
    assert_eq!(iv.lo, Some(rat(1, 2)));
    assert!(!iv.lo_open);
    let (f, vars) = parse("2*x > 1");
    let x = vars.get("x").unwrap();
    let iv = env_interval(&facts_of(&f).env, x);
    assert_eq!(iv.lo, Some(rat(1, 2)));
    assert!(iv.lo_open);
}

#[test]
fn even_powers_decide_sign_conditions() {
    let (f, _) = parse("x*x < 0");
    assert_eq!(facts_of(&f).verdict, Verdict::Unsat);
    let (f, _) = parse("x*x >= 0");
    assert_eq!(facts_of(&f).verdict, Verdict::Valid);
    let (f, _) = parse("x*x + 1 <= 0");
    assert_eq!(facts_of(&f).verdict, Verdict::Unsat);
}

#[test]
fn outer_f64_conversion_never_excludes_endpoints() {
    // 1/3 and 1/10 are not exactly representable; the f64 outer box must
    // straddle them on the correct side.
    let (f, vars) = parse("3*x >= 1 & 10*x <= 1 | (3*x >= 1 & x <= 1/2)");
    let x = vars.get("x").unwrap();
    let facts = facts_of(&f);
    let (lo, hi) = env_interval(&facts.env, x).outer_f64();
    assert!(Rat::from_f64(lo).unwrap() <= rat(1, 3));
    assert!(Rat::from_f64(hi).unwrap() >= rat(1, 2));
}

#[test]
fn quantifier_projection_drops_only_bound_variables() {
    let (f, vars) = parse("exists y. (1/4 <= y & y <= 3/4) & x = y + 1");
    let facts = facts_of(&f);
    let x = vars.get("x").unwrap();
    let y = vars.get("y").unwrap();
    assert_eq!(
        env_interval(&facts.env, x),
        Interval::closed(rat(5, 4), rat(7, 4))
    );
    assert!(!facts.env.contains_key(&y));
}
