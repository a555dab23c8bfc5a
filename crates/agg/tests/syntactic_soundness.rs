//! Soundness of the syntactic safety discipline against the semantic
//! oracles: whatever `cqa_core::is_syntactically_deterministic` /
//! `is_syntactically_finite` accept, the QE-based semantic checks
//! (`cqa_agg::is_deterministic`, `cqa_core::is_finite_set`) must accept
//! too. The syntactic checks are *under*-approximations — rejections are
//! allowed, false acceptances are not, because certified Σ-programs skip
//! the semantic check entirely at evaluation time.

use cqa_agg::{is_deterministic, Deterministic};
use cqa_arith::Rat;
use cqa_core::{is_finite_set, is_syntactically_deterministic, is_syntactically_finite};
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use proptest::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

const X: Var = Var(0);
const W: Var = Var(1);
const Y: Var = Var(2);
const Z: Var = Var(3);

/// A random small *linear* polynomial c₀ + cₓ·x + c_w·w + c_z·z.  Kept
/// linear deliberately: the semantic oracle closes γ(x,w) ∧ γ(x′,w) → x = x′
/// under three universal quantifiers, and Cohen–Hörmander on random
/// degree-2 instances of that sentence is minutes-per-case; the linear
/// fragment exercises the same certificate logic at property-test speed.
fn poly_xw() -> impl Strategy<Value = MPoly> {
    (-3i64..=3, -3i64..=3, -3i64..=3, -2i64..=2).prop_map(|(c0, cx, cw, cz)| {
        MPoly::constant(Rat::from(c0))
            + MPoly::var(X) * MPoly::constant(Rat::from(cx))
            + MPoly::var(W) * MPoly::constant(Rat::from(cw))
            + MPoly::var(Z) * MPoly::constant(Rat::from(cz))
    })
}

/// An explicit pin `c·x = t(w)` (the functional-graph shape), so the
/// generator produces syntactically-accepted candidates often enough for
/// the property to be non-vacuous.
fn pin_atom() -> impl Strategy<Value = Formula> {
    (1i64..=3, -3i64..=3, -2i64..=2).prop_map(|(cx, cw, c0)| {
        Formula::Atom(Atom::new(
            MPoly::var(X) * MPoly::constant(Rat::from(cx))
                - MPoly::var(W) * MPoly::constant(Rat::from(cw))
                - MPoly::constant(Rat::from(c0)),
            Rel::Eq,
        ))
    })
}

/// Random candidate summands γ(x, w): pins, arbitrary sign conditions,
/// conjunctions, disjunctions, and leading ∃z blocks.
fn gamma() -> impl Strategy<Value = Formula> {
    // The shim's `prop_oneof!` has no weight syntax; bias toward pins by
    // listing the pin arm twice.
    let atom = prop_oneof![
        pin_atom(),
        pin_atom(),
        (poly_xw(), 0usize..6).prop_map(|(p, r)| {
            let rel = [Rel::Eq, Rel::Neq, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][r];
            Formula::Atom(Atom::new(p, rel))
        }),
    ];
    atom.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|f| Formula::exists(vec![Z], f)),
        ]
    })
}

/// Random QF relation-free formulas over (x, y) for the finiteness
/// property, again biased toward pins so acceptance occurs.
fn finite_candidate() -> impl Strategy<Value = Formula> {
    let pin_x = (-3i64..=3).prop_map(|c| {
        Formula::Atom(Atom::new(
            MPoly::var(X) - MPoly::constant(Rat::from(c)),
            Rel::Eq,
        ))
    });
    let pin_y_of_x = (-2i64..=2, -2i64..=2).prop_map(|(a, b)| {
        Formula::Atom(Atom::new(
            MPoly::var(Y)
                - MPoly::var(X) * MPoly::constant(Rat::from(a))
                - MPoly::constant(Rat::from(b)),
            Rel::Eq,
        ))
    });
    let ineq = (-3i64..=3, 0usize..4).prop_map(|(c, r)| {
        let rel = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge][r];
        Formula::Atom(Atom::new(
            MPoly::var(X) - MPoly::constant(Rat::from(c)),
            rel,
        ))
    });
    let atom = prop_oneof![pin_x, pin_y_of_x, ineq];
    atom.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Syntactic determinism is sound: an accepted γ passes the QE-based
    /// semantic check `∀w∀x∀x′. γ(x,w) ∧ γ(x′,w) → x = x′`.
    #[test]
    fn syntactic_determinism_implies_semantic(g in gamma()) {
        if is_syntactically_deterministic(&g, X, &[W]) {
            let det = Deterministic { out_var: X, in_vars: vec![W], formula: g.clone() };
            let semantic = is_deterministic(&det, &unlimited()).unwrap();
            prop_assert!(
                semantic,
                "syntactically accepted but semantically non-deterministic: {g:?}"
            );
        }
    }

    /// Syntactic finiteness is sound: an accepted formula defines a finite
    /// set according to the projection-based semantic check.
    #[test]
    fn syntactic_finiteness_implies_semantic(f in finite_candidate()) {
        let vars = [X, Y];
        if is_syntactically_finite(&f, &vars) {
            let semantic = is_finite_set(&f, &vars, &unlimited()).unwrap();
            prop_assert!(
                semantic,
                "syntactically accepted but semantically infinite: {f:?}"
            );
        }
    }
}

/// The property above is vacuous if the generator never produces accepted
/// candidates; these fixed shapes pin down that acceptance actually
/// happens.
#[test]
fn acceptance_is_not_vacuous() {
    // 2x = 3w + 1 — a pin.
    let pin = Formula::Atom(Atom::new(
        MPoly::var(X) * MPoly::constant(Rat::from(2))
            - MPoly::var(W) * MPoly::constant(Rat::from(3))
            - MPoly::constant(Rat::from(1)),
        Rel::Eq,
    ));
    assert!(is_syntactically_deterministic(&pin, X, &[W]));
    // ∃z. pin ∧ z > w.
    let guarded = Formula::exists(
        vec![Z],
        pin.clone().and(Formula::Atom(Atom::new(
            MPoly::var(Z) - MPoly::var(W),
            Rel::Gt,
        ))),
    );
    assert!(is_syntactically_deterministic(&guarded, X, &[W]));
    // (x = 1 ∨ x = 2) ∧ y = x + 1 is accepted as finite.
    let fx = |c: i64| {
        Formula::Atom(Atom::new(
            MPoly::var(X) - MPoly::constant(Rat::from(c)),
            Rel::Eq,
        ))
    };
    let fy = Formula::Atom(Atom::new(
        MPoly::var(Y) - MPoly::var(X) - MPoly::constant(Rat::from(1)),
        Rel::Eq,
    ));
    let f = fx(1).or(fx(2)).and(fy);
    assert!(is_syntactically_finite(&f, &[X, Y]));
}
