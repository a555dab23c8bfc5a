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
use cqa_poly::{MPoly, Var};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;

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
fn poly_from(terms: &[(Rat, [u8; 3])]) -> MPoly {
    let mut p = MPoly::zero();
    for (c, es) in terms {
        let mut t = MPoly::constant(c.clone());
        for (v, &e) in VARS.iter().zip(es) {
            if e > 0 {
                t = &t * &MPoly::var(*v).pow(e as u32);
            }
        }
        p = &p + &t;
    }
    p
}

/// A coefficient of one of four kinds, equally likely: `m/d` with
/// `d ∈ {3, 5, 7, 25, 49}` (inexact in `f64`), `m·3⁻⁷⁰⁰` (its `f64` image
/// is `0.0`), `m·3⁷⁰⁰` (past `f64::MAX`, so its error bound is `∞`), or an
/// integer `m`.
fn extreme_coeff() -> impl Strategy<Value = Rat> {
    (-255i64..=255, 0usize..5, 0u8..4).prop_map(|(m, d, kind)| match kind {
        0 => rat(m, [3, 5, 7, 25, 49][d]),
        1 => &rat(m, 1) * &rat(3, 1).pow(-700),
        2 => &rat(m, 1) * &rat(3, 1).pow(700),
        _ => rat(m, 1),
    })
}

/// An integer coefficient `m`, `|m| ≤ 255`.
fn int_coeff() -> impl Strategy<Value = Rat> {
    (-255i64..=255).prop_map(|m| rat(m, 1))
}

/// The affine polynomial `c₀ + c₁x + c₂y + c₃z` of four coefficients.
fn affine(cs: Vec<Rat>) -> MPoly {
    let units = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]];
    poly_from(&cs.into_iter().zip(units).collect::<Vec<_>>())
}

/// A random polynomial with `coeff` coefficients: up to 4 terms,
/// per-variable degree ≤ 2 (total degree ≤ 6).
fn poly_with(coeff: impl Strategy<Value = Rat>) -> impl Strategy<Value = MPoly> {
    vec((coeff, (0u8..=2, 0u8..=2, 0u8..=2)), 1..=4).prop_map(|ts| {
        poly_from(
            &ts.into_iter()
                .map(|(c, (a, b, d))| (c, [a, b, d]))
                .collect::<Vec<_>>(),
        )
    })
}

/// A random affine polynomial with [`extreme_coeff`] coefficients.
fn extreme_linear_poly() -> impl Strategy<Value = MPoly> {
    vec(extreme_coeff(), 4..=4).prop_map(affine)
}

/// A random polynomial with [`extreme_coeff`] coefficients.
fn extreme_poly() -> impl Strategy<Value = MPoly> {
    poly_with(extreme_coeff())
}

/// A random point whose coordinates are, equally likely, `±2¹⁰⁰⁰`,
/// `±2⁻¹⁰⁰⁰`, zero, or a small dyadic as in [`dyadic_point`]. Every one
/// converts to `f64` exactly, so the columns stay exact and the uniform
/// bound is the regime under test.
fn extreme_point() -> impl Strategy<Value = Vec<Rat>> {
    let coord = (-255i64..=255, 0u32..=4, 0u8..4).prop_map(|(m, s, kind)| {
        let sign = rat(if m < 0 { -1 } else { 1 }, 1);
        match kind {
            0 => &sign * &rat(2, 1).pow(1000),
            1 => &sign * &rat(2, 1).pow(-1000),
            2 => rat(0, 1),
            _ => rat(m, 1i64 << s),
        }
    });
    vec(coord, 3..=3)
}

/// A random affine polynomial with integer coefficients — exercises the
/// degree-1 atoms of the batch sweep.
fn linear_poly() -> impl Strategy<Value = MPoly> {
    vec(int_coeff(), 4..=4).prop_map(affine)
}

/// A random polynomial with integer coefficients.
fn poly() -> impl Strategy<Value = MPoly> {
    poly_with(int_coeff())
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
        let atom = Atom::new(zero_at(&p, pt), rel_of(r));
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
        f in formula(extreme_linear_poly().boxed()),
        points in vec(extreme_point(), 1..=12),
        chunk in 1usize..=5,
    ) {
        check_parity(&f, &points, chunk)?;
    }

    #[test]
    fn extreme_polynomial_coefficients_agree_with_interpreter(
        f in formula(extreme_poly().boxed()),
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
        p in extreme_poly(),
        points in vec(extreme_point(), 1..=8),
        pick in 0usize..64,
        r in 0u8..6,
        chunk in 1usize..=5,
    ) {
        let atom = Atom::new(zero_at(&p, &points[pick % points.len()]), rel_of(r));
        check_parity(&Formula::Atom(atom), &points, chunk)?;
    }

    /// Inexact columns under extreme coefficients and magnitudes: slot 0
    /// holds `num/3` times `2¹⁰⁰⁰`, `2⁻¹⁰⁰⁰` or 1 in every lane, so the
    /// atoms that read it take the guarded per-lane sweep, whose error
    /// bounds must survive products that underflow.
    #[test]
    fn extreme_inexact_columns_take_guarded_sweep_and_agree(
        f in formula(extreme_poly().boxed()),
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

/// A dyadic coordinate from `rng`, a SplitMix64 stream: a unit draw
/// `m / 2⁵³` (the Monte Carlo case) or, in a `wild` batch, as often as
/// not zero, a negative draw or `±2^±600` (whose squares overflow to `∞`
/// or underflow to `0`).
fn dyadic(rng: &mut TestRng, wild: bool) -> Rat {
    let unit = &rat((rng.next_u64() >> 11) as i64, 1) * &rat(2, 1).pow(-53);
    let sign = rat(1 - 2 * (rng.below(2) as i64), 1);
    match if wild { rng.below(8) } else { 7 } {
        0 => rat(0, 1),
        k @ 1..=2 => &sign * &rat(2, 1).pow(if k == 1 { 600 } else { -600 }),
        3 => -unit,
        _ => unit,
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
    let polys = formula(poly().boxed());
    corpus.extend((0..24).map(|_| polys.generate(&mut rng)));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
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
                fnv(&[u8::from(r.mask.get(lane)) | u8::from(was_called.get()) << 1]);
            }
            for n in [r.fast_lanes, r.exact_lanes] {
                fnv(&(n as u64).to_le_bytes());
            }
        }
    }
    assert_eq!(h, 0x23e9_e6a4_5620_2a27, "{h:#018x}");
}
