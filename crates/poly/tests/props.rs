//! Property-based tests for polynomial arithmetic and root isolation.

use cqa_arith::{rat, Rat};
use cqa_poly::{isolate_real_roots, MPoly, UPoly, Var};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn upoly_strategy() -> impl Strategy<Value = UPoly> {
    prop::collection::vec(-20i64..=20, 0..6).prop_map(|cs| UPoly::from_ints(&cs))
}

fn small_rat() -> impl Strategy<Value = Rat> {
    (-50i64..=50, 1i64..=10).prop_map(|(n, d)| rat(n, d))
}

/// The reference `MPoly`: an ordered map from monomial (ascending
/// `(variable, exponent)` pairs, every exponent positive) to a non-zero
/// coefficient.
type Model = BTreeMap<Mono, Rat>;
type Mono = Vec<(Var, u32)>;

/// Terms `c·x0^e0·x1^e1·x2^e2` with small coefficients, so that sums and
/// products cancel often.
fn terms_strategy() -> impl Strategy<Value = Vec<(i64, i64, u32, u32, u32)>> {
    prop::collection::vec((-3i64..=3, 1i64..=2, 0u32..3, 0u32..3, 0u32..3), 0..6)
}

fn add_model_term(m: &mut Model, mono: Mono, c: Rat) {
    let s = m.get(&mono).cloned().unwrap_or_else(Rat::zero) + c;
    if s.is_zero() {
        m.remove(&mono);
    } else {
        m.insert(mono, s);
    }
}

/// The same terms as an `MPoly`, built with the ring operations, and as a
/// model.
fn build(terms: &[(i64, i64, u32, u32, u32)]) -> (MPoly, Model) {
    let mut p = MPoly::zero();
    let mut m = Model::new();
    for &(n, d, e0, e1, e2) in terms {
        let c = rat(n, d);
        let exps = [e0, e1, e2];
        let mut mono = MPoly::one();
        for (i, &e) in exps.iter().enumerate() {
            mono = mono * MPoly::var(Var(i as u32)).pow(e);
        }
        p = p + mono.scale(&c);
        let key = (0..3)
            .filter(|&i| exps[i] > 0)
            .map(|i| (Var(i as u32), exps[i]))
            .collect();
        add_model_term(&mut m, key, c);
    }
    (p, m)
}

/// `p`'s terms, checked to be strictly ascending with no zero coefficient.
fn terms_of(p: &MPoly) -> Result<Vec<(Mono, Rat)>, TestCaseError> {
    let ts: Vec<(Mono, Rat)> = p.terms().map(|(m, c)| (m.to_vec(), c.clone())).collect();
    for w in ts.windows(2) {
        prop_assert!(w[0].0 < w[1].0, "terms out of order: {:?}", p);
    }
    prop_assert!(
        ts.iter().all(|(_, c)| !c.is_zero()),
        "a zero coefficient: {:?}",
        p
    );
    Ok(ts)
}

fn agrees(p: &MPoly, m: &Model) -> Result<(), TestCaseError> {
    let want: Vec<(Mono, Rat)> = m.iter().map(|(k, c)| (k.clone(), c.clone())).collect();
    prop_assert_eq!(terms_of(p)?, want);
    Ok(())
}

fn model_map(m: &Model, f: impl Fn(&[(Var, u32)], &Rat) -> Option<(Mono, Rat)>) -> Model {
    let mut out = Model::new();
    for (k, c) in m {
        if let Some((k2, c2)) = f(k, c) {
            add_model_term(&mut out, k2, c2);
        }
    }
    out
}

fn model_mul(a: &Model, b: &Model) -> Model {
    let mut out = Model::new();
    for (ka, ca) in a {
        for (kb, cb) in b {
            let mut exps: BTreeMap<Var, u32> = ka.iter().copied().collect();
            for &(v, e) in kb {
                *exps.entry(v).or_insert(0) += e;
            }
            add_model_term(&mut out, exps.into_iter().collect(), ca * cb);
        }
    }
    out
}

/// `k` without variable `v`, and `v`'s exponent in it.
fn split_off(k: &[(Var, u32)], v: Var) -> (Mono, u32) {
    let e = k.iter().find(|&&(w, _)| w == v).map_or(0, |&(_, e)| e);
    (k.iter().copied().filter(|&(w, _)| w != v).collect(), e)
}

proptest! {
    #[test]
    fn mpoly_agrees_with_an_ordered_map_model(
        a in terms_strategy(),
        b in terms_strategy(),
        s in small_rat(),
        v in 0u32..3,
    ) {
        let ((p, pm), (q, qm)) = (build(&a), build(&b));
        let v = Var(v);
        agrees(&p, &pm)?;
        let mut sum = pm.clone();
        let mut diff = pm.clone();
        for (k, c) in &qm {
            add_model_term(&mut sum, k.clone(), c.clone());
            add_model_term(&mut diff, k.clone(), -c);
        }
        agrees(&(&p + &q), &sum)?;
        agrees(&(&p - &q), &diff)?;
        agrees(&-&p, &model_map(&pm, |k, c| Some((k.to_vec(), -c))))?;
        agrees(&(&p * &q), &model_mul(&pm, &qm))?;
        agrees(&p.scale(&s), &model_map(&pm, |k, c| Some((k.to_vec(), c * &s))))?;
        agrees(
            &p.subst_rat(v, &s),
            &model_map(&pm, |k, c| {
                let (rest, e) = split_off(k, v);
                Some((rest, c * s.pow(e as i32)))
            }),
        )?;
        agrees(
            &p.derivative(v),
            &model_map(&pm, |k, c| {
                let e = split_off(k, v).1;
                (e > 0).then(|| {
                    let k2 = k
                        .iter()
                        .filter_map(|&(w, f)| if w != v { Some((w, f)) } else { (f > 1).then_some((w, f - 1)) })
                        .collect();
                    (k2, c * Rat::from(i64::from(e)))
                })
            }),
        )?;
        let coeffs = p.as_univariate_in(v);
        let degree = pm.keys().map(|k| split_off(k, v).1 as usize).max();
        prop_assert_eq!(coeffs.len(), degree.map_or(0, |d| d + 1));
        for (i, c) in coeffs.iter().enumerate() {
            let want = model_map(&pm, |k, c| {
                let (rest, e) = split_off(k, v);
                (e as usize == i).then(|| (rest, c.clone()))
            });
            agrees(c, &want)?;
        }
    }

    #[test]
    fn upoly_ring_axioms(a in upoly_strategy(), b in upoly_strategy(), c in upoly_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) * &c, &(&a * &c) + &(&b * &c));
    }

    #[test]
    fn upoly_div_rem_identity(a in upoly_strategy(), b in upoly_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a);
        prop_assert!(r.degree() < b.degree() || r.is_zero());
    }

    #[test]
    fn upoly_eval_homomorphism(a in upoly_strategy(), b in upoly_strategy(), x in small_rat()) {
        prop_assert_eq!((&a * &b).eval(&x), a.eval(&x) * b.eval(&x));
        prop_assert_eq!((&a + &b).eval(&x), a.eval(&x) + b.eval(&x));
    }

    #[test]
    fn gcd_divides(a in upoly_strategy(), b in upoly_strategy()) {
        prop_assume!(!a.is_zero() || !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.div_rem(&g).1.is_zero());
        prop_assert!(b.div_rem(&g).1.is_zero());
    }

    #[test]
    fn isolated_roots_are_roots(a in upoly_strategy()) {
        prop_assume!(!a.is_zero());
        let sf = a.squarefree();
        let roots = isolate_real_roots(&a);
        // Intervals sorted, disjoint interiors, and each bracketing a sign
        // change (or an exact rational root).
        for w in roots.windows(2) {
            prop_assert!(w[0].hi <= w[1].lo);
        }
        for iv in &roots {
            if iv.is_exact() {
                prop_assert_eq!(a.sign_at(&iv.lo), 0);
            } else {
                let slo = sf.sign_at(&iv.lo);
                let shi = sf.sign_at(&iv.hi);
                prop_assert!(slo != 0 && shi != 0 && slo != shi);
            }
        }
        // Every integer sign change of the square-free part is captured.
        let mut covered = 0usize;
        let b = sf.root_bound();
        let lo = b.clone().floor();
        let seq = sf.sturm_sequence();
        let total = UPoly::count_roots_between(
            &seq,
            &Rat::from_int(-(lo.clone()) - cqa_arith::Int::one()),
            &Rat::from_int(lo + cqa_arith::Int::one()),
        );
        covered += roots.len();
        prop_assert_eq!(covered, total);
    }

    #[test]
    fn integrate_linearity(a in upoly_strategy(), b in upoly_strategy(), lo in small_rat(), hi in small_rat()) {
        prop_assume!(lo <= hi);
        let s = (&a + &b).integrate_between(&lo, &hi);
        let parts = a.integrate_between(&lo, &hi) + b.integrate_between(&lo, &hi);
        prop_assert_eq!(s, parts);
    }

    #[test]
    fn mpoly_subst_matches_eval(c0 in -9i64..9, c1 in -9i64..9, c2 in -9i64..9, x in small_rat(), y in small_rat()) {
        // p = c0 + c1*x + c2*x*y
        let p = MPoly::from_i64(c0)
            + MPoly::var(Var(0)).scale(&Rat::from(c1))
            + (MPoly::var(Var(0)) * MPoly::var(Var(1))).scale(&Rat::from(c2));
        let direct = p.eval_slice(&[x.clone(), y.clone()]);
        let staged = p.subst_rat(Var(0), &x).subst_rat(Var(1), &y).as_constant().unwrap();
        prop_assert_eq!(direct, staged);
    }

    #[test]
    fn mpoly_univariate_view_roundtrip(c in prop::collection::vec((-9i64..9, 0u32..3, 0u32..3), 0..6)) {
        let mut p = MPoly::zero();
        for (k, ex, ey) in c {
            let term = MPoly::var(Var(0)).pow(ex) * MPoly::var(Var(1)).pow(ey);
            p = p + term.scale(&Rat::from(k));
        }
        let coeffs = p.as_univariate_in(Var(0));
        prop_assert_eq!(MPoly::from_univariate_in(Var(0), &coeffs), p);
    }
}
