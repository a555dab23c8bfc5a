//! Property tests for the compiled evaluation kernel. On random
//! quantifier-free formulas and random dyadic points, the tree-walking
//! interpreter [`Formula::eval`] is the reference, and both kernel entry
//! points must agree with it exactly: [`CompiledMatrix::eval_rats`] (exact
//! arithmetic per point) and [`CompiledMatrix::eval_batch`] (the certified
//! `f64` structure-of-arrays sweep), lane by lane — including at
//! sign-boundary points engineered to defeat the `f64` sweep and force the
//! per-lane exact fallback, and regardless of how the lanes are split into
//! sub-batches.

use cqa_arith::{rat, Rat};
use cqa_logic::{Atom, Batch, BatchScratch, CompiledMatrix, Formula, Rel, SlotMap};
use cqa_poly::{MPoly, Var};
use proptest::collection::vec;
use proptest::prelude::*;

const VARS: [Var; 3] = [Var(0), Var(1), Var(2)];

fn rel_of(i: u8) -> Rel {
    match i % 6 {
        0 => Rel::Eq,
        1 => Rel::Neq,
        2 => Rel::Lt,
        3 => Rel::Le,
        4 => Rel::Gt,
        _ => Rel::Ge,
    }
}

/// A polynomial from `(coefficient, exponents-per-variable)` terms.
fn poly_from(terms: &[(i64, [u8; 3])]) -> MPoly {
    let mut p = MPoly::zero();
    for (c, es) in terms {
        let mut t = MPoly::constant(rat(*c, 1));
        for (v, &e) in VARS.iter().zip(es) {
            if e > 0 {
                t = &t * &MPoly::var(*v).pow(e as u32);
            }
        }
        p = &p + &t;
    }
    p
}

/// A random affine polynomial `c₀ + c₁x + c₂y + c₃z` — exercises the
/// degree-1 dot-product specialization of the batch sweep.
fn linear_poly() -> impl Strategy<Value = MPoly> {
    (-255i64..=255, -255i64..=255, -255i64..=255, -255i64..=255).prop_map(|(c0, c1, c2, c3)| {
        poly_from(&[
            (c0, [0, 0, 0]),
            (c1, [1, 0, 0]),
            (c2, [0, 1, 0]),
            (c3, [0, 0, 1]),
        ])
    })
}

/// A random polynomial: up to 4 terms, per-variable degree ≤ 2.
fn poly() -> impl Strategy<Value = MPoly> {
    vec((-255i64..=255, (0u8..=2, 0u8..=2, 0u8..=2)), 1..=4).prop_map(|ts| {
        poly_from(
            &ts.iter()
                .map(|&(c, (a, b, d))| (c, [a, b, d]))
                .collect::<Vec<_>>(),
        )
    })
}

/// A random quantifier-free, relation-free formula over `VARS`.
fn formula(atom_poly: BoxedStrategy<MPoly>) -> BoxedStrategy<Formula> {
    let atom = (atom_poly, 0u8..6)
        .prop_map(|(p, r)| Formula::Atom(Atom::new(p, rel_of(r))))
        .boxed();
    let leaf = prop_oneof![atom, Just(Formula::True), Just(Formula::False)];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            vec(inner.clone(), 1..=3).prop_map(Formula::And),
            vec(inner, 1..=3).prop_map(Formula::Or),
        ]
    })
}

/// A random dyadic point: each coordinate `m / 2ˢ`, `|m| ≤ 255`, `s ≤ 4`.
/// Dyadics of this size convert to `f64` exactly, so the batch columns
/// carry zero conversion error and any disagreement is a kernel bug.
fn dyadic_point() -> impl Strategy<Value = Vec<Rat>> {
    vec((-255i64..=255, 0u32..=4), 3..=3)
        .prop_map(|cs| cs.into_iter().map(|(m, s)| rat(m, 1i64 << s)).collect())
}

/// Loads `points` (one per lane) into a fresh 3-slot batch.
fn load_batch(points: &[Vec<Rat>]) -> Batch {
    let mut batch = Batch::new(VARS.len());
    batch.set_len(points.len());
    for slot in 0..VARS.len() {
        let col: Vec<Rat> = points.iter().map(|p| p[slot].clone()).collect();
        batch.set_col_rats(slot, &col);
    }
    batch
}

/// Checks `eval_rats` at every point and every lane of `eval_batch`
/// against the interpreter, then re-checks that splitting the same lanes
/// into sub-batches of `chunk` lanes decides each lane identically.
/// Returns how many lanes of the whole-batch call took the exact fallback.
fn check_parity(f: &Formula, points: &[Vec<Rat>], chunk: usize) -> Result<usize, TestCaseError> {
    let slots = SlotMap::from_vars(&VARS);
    let kernel = CompiledMatrix::compile(f, &slots).expect("QF relation-free formula compiles");
    let mut scratch = BatchScratch::new();

    let batch = load_batch(points);
    let exact = |lane: usize, slot: usize| points[lane][slot].clone();
    let whole = kernel.eval_batch(&batch, &exact, &mut scratch);
    prop_assert_eq!(
        whole.fast_lanes + whole.exact_lanes,
        points.len(),
        "every lane is accounted for"
    );

    let mut oracle = Vec::with_capacity(points.len());
    for (lane, point) in points.iter().enumerate() {
        let want = f
            .eval(&slots.assignment(point), &[])
            .expect("total assignment decides");
        prop_assert_eq!(
            kernel.eval_rats(point),
            want,
            "eval_rats vs interpreter at {:?}",
            point
        );
        prop_assert_eq!(
            whole.mask.get(lane),
            want,
            "lane {} of {:?} disagrees with the interpreter",
            lane,
            point
        );
        oracle.push(want);
    }

    // Sub-batch identity: the same scratch, reused across chunks of any
    // size, must decide each lane exactly as the single whole-batch call.
    for (c, block) in points.chunks(chunk).enumerate() {
        let sub = load_batch(block);
        let base = c * chunk;
        let sub_exact = |lane: usize, slot: usize| points[base + lane][slot].clone();
        let r = kernel.eval_batch(&sub, &sub_exact, &mut scratch);
        for lane in 0..block.len() {
            prop_assert_eq!(
                r.mask.get(lane),
                oracle[base + lane],
                "chunked lane {} (chunk size {}) disagrees",
                base + lane,
                chunk
            );
        }
    }
    Ok(whole.exact_lanes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linear_formulas_agree_with_interpreter(
        f in formula(linear_poly().boxed()),
        points in vec(dyadic_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }

    #[test]
    fn polynomial_formulas_agree_with_interpreter(
        f in formula(poly().boxed()),
        points in vec(dyadic_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }

    /// Sign-boundary stress: shift a random polynomial by its own value at
    /// one of the batch points, so `p − p(pt)` is exactly zero in that
    /// lane. The certified sweep can never certify sign 0 with a nonzero
    /// error bound, so that lane must take the exact fallback — and every
    /// lane must still agree with the interpreter, for every relation.
    #[test]
    fn boundary_points_agree_via_exact_fallback(
        p in poly(),
        points in vec(dyadic_point(), 1..=8),
        pick in 0usize..64,
        r in 0u8..6,
        chunk in 1usize..=5,
    ) {
        let slots = SlotMap::from_vars(&VARS);
        let pt = &points[pick % points.len()];
        let value = p.eval(&slots.assignment(pt));
        let shifted = &p - &MPoly::constant(value);
        let atom = Atom::new(shifted, rel_of(r));
        let folded = atom.as_const().is_some();
        let f = Formula::Atom(atom);
        // The shifted polynomial is zero at `pt`, so only the relations
        // satisfied by sign 0 hold there.
        let expect = rel_of(r).sign_satisfies(0);
        prop_assert_eq!(f.eval(&slots.assignment(pt), &[]), Some(expect));
        let exact_lanes = check_parity(&f, &points, chunk)?;
        // The zero-valued lane is uncertifiable unless the whole shifted
        // polynomial canonicalized away (then the atom folds to a constant
        // and every lane is trivially decided by the empty sweep).
        if !folded {
            prop_assert!(
                exact_lanes >= 1,
                "boundary lane should take the exact fallback"
            );
        }
    }

    /// Inexact broadcast columns (e.g. a parameter like 1/3 whose `f64`
    /// conversion carries error) must route through the guarded sweep and
    /// still match the interpreter lane for lane.
    #[test]
    fn inexact_columns_take_guarded_sweep_and_agree(
        f in formula(linear_poly().boxed()),
        points in vec(dyadic_point(), 1..=8),
        num in -20i64..=20,
    ) {
        // Replace slot 0 with `num/3` everywhere: a non-dyadic rational,
        // so its column carries a nonzero conversion-error bound.
        let third = rat(num, 3);
        let points: Vec<Vec<Rat>> = points
            .into_iter()
            .map(|mut p| {
                p[0] = third.clone();
                p
            })
            .collect();
        check_parity(&f, &points, points.len())?;
    }
}
