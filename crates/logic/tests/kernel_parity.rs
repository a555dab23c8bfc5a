//! Property tests for the compiled evaluation kernel. On random
//! quantifier-free formulas and random dyadic points, the tree-walking
//! interpreter [`Formula::eval`] is the reference, and both kernel entry
//! points must agree with it exactly: [`CompiledMatrix::eval_rats`] (exact
//! arithmetic per point) and [`CompiledMatrix::eval_batch`] (the certified
//! `f64` structure-of-arrays sweep), lane by lane — including at
//! sign-boundary points engineered to defeat the `f64` sweep and force the
//! per-lane exact fallback, and regardless of how the lanes are split into
//! sub-batches. A second family draws coefficients whose `f64` image is
//! inexact (`m/d` for odd `d`), underflows to zero (`3⁻⁷⁰⁰`) or overflows
//! (`3⁷⁰⁰`), at points as large as `2¹⁰⁰⁰` and as small as `2⁻¹⁰⁰⁰`: the
//! regime where the uniform error bound must carry the coefficients'
//! conversion error.

use cqa_arith::{rat, Rat};
use cqa_logic::{Atom, Batch, BatchScratch, CompiledMatrix, Formula, Rel, SlotMap};
use cqa_poly::MPoly;
use cqa_testkit::kernel::{
    dyadic, dyadic_point, extreme_coeff, extreme_point, int_coeff, linear_poly, poly, VARS,
};
use cqa_testkit::wire::fnv64;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

const RELS: [Rel; 6] = [Rel::Eq, Rel::Neq, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge];

/// A random quantifier-free, relation-free formula over `VARS`.
fn formula(atom_poly: BoxedStrategy<MPoly>) -> BoxedStrategy<Formula> {
    let atom = (atom_poly, 0u8..6)
        .prop_map(|(p, r)| Formula::Atom(Atom::new(p, RELS[usize::from(r)])))
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
        f in formula(linear_poly(int_coeff())),
        points in vec(dyadic_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }

    #[test]
    fn polynomial_formulas_agree_with_interpreter(
        f in formula(poly(int_coeff())),
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
        p in poly(int_coeff()),
        points in vec(dyadic_point(), 1..=8),
        pick in 0usize..64,
        r in 0u8..6,
        chunk in 1usize..=5,
    ) {
        let slots = SlotMap::from_vars(&VARS);
        let pt = &points[pick % points.len()];
        let atom = Atom::new(zero_at(&p, pt), RELS[usize::from(r)]);
        let folded = atom.as_const().is_some();
        let f = Formula::Atom(atom);
        // The shifted polynomial is zero at `pt`, so only the relations
        // satisfied by sign 0 hold there.
        let expect = RELS[usize::from(r)].sign_satisfies(0);
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
        f in formula(linear_poly(int_coeff())),
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

/// Shifts `p` by its own value at `pt`, so the result is exactly zero there.
fn zero_at(p: &MPoly, pt: &[Rat]) -> MPoly {
    let value = p.eval(&SlotMap::from_vars(&VARS).assignment(pt));
    p - &MPoly::constant(value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Affine atoms with inexact, underflowing and overflowing
    /// coefficients under the uniform bound.
    #[test]
    fn extreme_linear_coefficients_agree_with_interpreter(
        f in formula(linear_poly(extreme_coeff())),
        points in vec(extreme_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }

    #[test]
    fn extreme_polynomial_coefficients_agree_with_interpreter(
        f in formula(poly(extreme_coeff())),
        points in vec(extreme_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }
}

proptest! {
    // Exact arithmetic on 3⁷⁰⁰-sized shifts at 2¹⁰⁰⁰-sized points is slow
    // in an unoptimised build; a quarter of the cases keeps this under 15 s.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sign-boundary lanes under extreme coefficients: the polynomial is
    /// shifted to vanish at one lane (the shift is a huge or non-dyadic
    /// constant as often as not), and every lane must still agree.
    #[test]
    fn extreme_boundary_points_agree_via_exact_fallback(
        p in poly(extreme_coeff()),
        points in vec(extreme_point(), 1..=8),
        pick in 0usize..64,
        r in 0u8..6,
        chunk in 1usize..=5,
    ) {
        let atom = Atom::new(zero_at(&p, &points[pick % points.len()]), RELS[usize::from(r)]);
        check_parity(&Formula::Atom(atom), &points, chunk)?;
    }

    /// Inexact columns under extreme coefficients and magnitudes: slot 0
    /// holds `num/3` times `2¹⁰⁰⁰`, `2⁻¹⁰⁰⁰` or 1 in every lane, so the
    /// atoms that read it take the guarded per-lane sweep, whose error
    /// bounds must survive products that underflow.
    #[test]
    fn extreme_inexact_columns_take_guarded_sweep_and_agree(
        f in formula(poly(extreme_coeff())),
        points in vec(extreme_point(), 1..=8),
        num in -20i64..=20,
        scale in -1i32..=1,
    ) {
        let third = &rat(num, 3) * &rat(2, 1).pow(1000 * scale);
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

/// The certified lane sets of the exact-input sweep, pinned: each batch's
/// root mask, the lanes whose decision needed exact arithmetic, and its
/// fast/exact lane counts, folded into one FNV-1a digest. The corpus is
/// the four warm region shapes (disk, annulus, boxed disk, half ball) of
/// radius `1/k` for k ∈ {5, 6, 7}, whose bounds are not dyadic, and 24
/// formulas over [`poly`]'s polynomials (total degree up to 6), each over
/// batches of every ragged length around a 64-lane word and the 512-lane
/// batch. Two batches in three hold unit draws only; the rest are wild,
/// and their `∞` lanes under `∞` bounds sit exactly on the certification
/// threshold. A change to which lanes the `f64` sweep certifies — a mask
/// built from `≥` instead of `>` or `≤` instead of `<`, a dropped tail
/// lane — moves the digest.
#[test]
fn certified_lane_sets_are_pinned() {
    let mut rng = TestRng::deterministic(0x5eed);
    let mut names = cqa_logic::VarMap::new();
    let dist2 = "(x - 7/16)*(x - 7/16) + (y - 9/16)*(y - 9/16)";
    let mut corpus: Vec<Formula> = [5, 6, 7]
        .iter()
        .flat_map(|k| {
            [
                format!("{dist2} <= 1/{}", k * k),
                format!("{dist2} <= 1/{} & {dist2} >= 1/{}", k * k, 4 * k * k),
                format!(
                    "{dist2} <= 1/{} & 5/16 <= x & x <= 9/16 & 7/16 <= y & y <= 11/16",
                    4 * k * k
                ),
                format!("{dist2} + (z - 8/16)*(z - 8/16) <= 1/{} & z <= 8/16", k * k),
            ]
        })
        .map(|src| cqa_logic::parse_formula_with(&src, &mut names).expect("shape parses"))
        .collect();
    assert_eq!(["x", "y", "z"].map(|n| names.get(n)), VARS.map(Some));
    let polys = formula(poly(int_coeff()));
    corpus.extend((0..24).map(|_| polys.generate(&mut rng)));
    let mut bytes = Vec::new();
    let mut scratch = BatchScratch::new();
    for (i, f) in corpus.iter().enumerate() {
        let kernel = CompiledMatrix::compile(f, &SlotMap::from_vars(&VARS)).expect("compiles");
        for (j, len) in [1, 7, 8, 9, 63, 64, 65, 511, 512].into_iter().enumerate() {
            let wild = (i + j) % 3 == 2;
            let points: Vec<Vec<Rat>> = (0..len)
                .map(|_| (0..3).map(|_| dyadic(&mut rng, wild)).collect())
                .collect();
            let called = vec![std::cell::Cell::new(false); len];
            let exact_at = |lane: usize, slot: usize| {
                called[lane].set(true);
                points[lane][slot].clone()
            };
            let r = kernel.eval_batch(&load_batch(&points), &exact_at, &mut scratch);
            for (lane, was_called) in called.iter().enumerate() {
                bytes.push(u8::from(r.mask.get(lane)) | u8::from(was_called.get()) << 1);
            }
            for n in [r.fast_lanes, r.exact_lanes] {
                bytes.extend((n as u64).to_le_bytes());
            }
        }
    }
    let h = fnv64(bytes);
    assert_eq!(h, 0x23e9_e6a4_5620_2a27, "{h:#018x}");
}
