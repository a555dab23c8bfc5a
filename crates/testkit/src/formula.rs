//! Random formulas: affine and monomial atoms, boolean trees over them,
//! quantifier wrappers, and agreement of two formulas on a rational grid.

use cqa_arith::{rat, Rat};
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use proptest::collection::vec;
use proptest::prelude::*;
use std::ops::Range;

/// The relation order of [`affine_atom`]: `<, ≤, >, ≥, =, ≠`.
pub const RELS: [Rel; 6] = [Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge, Rel::Eq, Rel::Neq];

/// `c + Σ aᵢ·xᵢ REL 0` over `x0..x{vars-1}`, `aᵢ ∈ [-3, 3]`, `c ∈ [-4, 4]`,
/// any of [`RELS`]. With `square`, one more draw adds `x0²` half the time.
pub fn affine_atom(vars: usize, square: bool) -> BoxedStrategy<Formula> {
    // Without `square` the fourth draw is `Just(0)`, which takes nothing
    // from the stream.
    let square = if square {
        (0u8..2).boxed()
    } else {
        Just(0).boxed()
    };
    (vec(-3i64..=3, vars), -4i64..=4, 0usize..6, square)
        .prop_map(|(coeffs, c, r, square)| {
            let mut p = MPoly::constant(Rat::from(c));
            for (i, &a) in coeffs.iter().enumerate() {
                p = p + MPoly::var(Var(i as u32)).scale(&Rat::from(a));
            }
            if square == 1 {
                p = p + MPoly::var(Var(0)) * MPoly::var(Var(0));
            }
            Formula::Atom(Atom::new(p, RELS[r]))
        })
        .boxed()
}

/// `k + Σ c·x_v^e REL 0`: `terms` monomials with `c ∈ [-3, 3]`,
/// `e ≤ degree` and `v < vars`, a constant `k ∈ [-2, 2]`, one of `rels`.
pub fn term_atom(
    terms: Range<usize>,
    vars: usize,
    degree: u32,
    rels: &'static [Rel],
) -> BoxedStrategy<Formula> {
    let term = (-3i64..=3, 0u32..=degree, 0usize..vars);
    (vec(term, terms), -2i64..=2, 0usize..rels.len())
        .prop_map(move |(ts, k, r)| {
            let mut p = MPoly::constant(Rat::from(k));
            for (c, e, v) in ts {
                p = p + MPoly::var(Var(v as u32)).pow(e).scale(&Rat::from(c));
            }
            Formula::Atom(Atom::new(p, rels[r]))
        })
        .boxed()
}

/// `atom`s under binary `∧`, `∨` and `¬`, nested as `prop_recursive`'s
/// `(depth, size, branch)` allows.
pub fn bool_tree(atom: BoxedStrategy<Formula>, shape: (u32, u32, u32)) -> BoxedStrategy<Formula> {
    let (depth, size, branch) = shape;
    atom.prop_recursive(depth, size, branch, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::negate),
        ]
    })
}

/// Quantifier-free formulas over `x0..x{vars-1}`: [`affine_atom`]s in a
/// depth-2 [`bool_tree`].
pub fn qf_affine(vars: usize, square: bool) -> BoxedStrategy<Formula> {
    bool_tree(affine_atom(vars, square), (2, 8, 3))
}

/// One way [`wrapped`] closes a formula `f`.
#[derive(Clone, Copy, Debug)]
pub enum Wrap {
    /// `∃ x_v… . f`.
    Exists(&'static [u32]),
    /// `∀ x_v… . f`.
    Forall(&'static [u32]),
    /// `∃adom x_v . f`.
    ExistsAdom(u32),
    /// `f ∧ R(x0, 2·x1)`.
    AndRel,
    /// `(∃ x_v . f) ∧ f`: a block beside a quantifier-free band.
    ExistsAnd(u32),
    /// `f` itself.
    Bare,
}

impl Wrap {
    fn apply(self, f: Formula) -> Formula {
        let vars = |vs: &[u32]| vs.iter().map(|&v| Var(v)).collect();
        match self {
            Wrap::Exists(vs) => Formula::exists(vars(vs), f),
            Wrap::Forall(vs) => Formula::forall(vars(vs), f),
            Wrap::ExistsAdom(v) => Formula::ExistsAdom(Var(v), Box::new(f)),
            Wrap::AndRel => f.and(Formula::Rel {
                name: "R".into(),
                args: vec![MPoly::var(Var(0)), MPoly::var(Var(1)).scale(&rat(2, 1))],
            }),
            Wrap::ExistsAnd(v) => Formula::exists(vec![Var(v)], f.clone()).and(f),
            Wrap::Bare => f,
        }
    }
}

/// `inner` closed by one of `wraps`, uniformly.
pub fn wrapped(inner: BoxedStrategy<Formula>, wraps: &'static [Wrap]) -> BoxedStrategy<Formula> {
    (inner, 0..wraps.len())
        .prop_map(move |(f, w)| wraps[w].apply(f))
        .boxed()
}

/// `inner` under a chain of zero to two `∃ x_v`, `v < vars`.
pub fn exists_chain(inner: BoxedStrategy<Formula>, vars: u32) -> BoxedStrategy<Formula> {
    (inner, vec(0u32..vars, 0..3))
        .prop_map(|(f, vs)| {
            vs.into_iter()
                .fold(f, |f, v| Formula::exists(vec![Var(v)], f))
        })
        .boxed()
}

/// Trees of raw constructors over `atom`, `⊤`, `⊥` and `S(x0)`: n-ary
/// `And`/`Or` (possibly empty or single-child), `Not`, and natural and
/// active-domain quantifiers over `x0..x3`, possibly binding unused
/// variables — input a smart constructor would already have normalised.
pub fn raw_formula(atom: BoxedStrategy<Formula>) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        atom.clone(),
        atom.clone(),
        atom,
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::Rel {
            name: "S".to_string(),
            args: vec![MPoly::var(Var(0))],
        }),
    ];
    let block = || vec(0u32..4, 1..3).prop_map(|vs| vs.into_iter().map(Var).collect::<Vec<_>>());
    leaf.prop_recursive(4, 24, 3, move |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Formula::And),
            vec(inner.clone(), 0..4).prop_map(Formula::Or),
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (block(), inner.clone()).prop_map(|(vs, f)| Formula::Exists(vs, Box::new(f))),
            (block(), inner.clone()).prop_map(|(vs, f)| Formula::Forall(vs, Box::new(f))),
            (0u32..4, inner.clone()).prop_map(|(v, f)| Formula::ExistsAdom(Var(v), Box::new(f))),
            (0u32..4, inner).prop_map(|(v, f)| Formula::ForallAdom(Var(v), Box::new(f))),
        ]
    })
}

/// `a` and `b` evaluate alike at every point of the grid `{-h/2, …, h/2}`
/// over their free variables, of which there are at most `max_vars`.
pub fn agree_on_grid(a: &Formula, b: &Formula, max_vars: usize, h: i64) -> TestCaseResult {
    let vars: Vec<Var> = a.free_vars().union(&b.free_vars()).copied().collect();
    prop_assert!(vars.len() <= max_vars, "free variables {:?}", vars);
    let samples: Vec<Rat> = (-h..=h).map(|n| rat(n, 2)).collect();
    let mut idx = vec![0usize; vars.len()];
    loop {
        let vals: Vec<Rat> = idx.iter().map(|&i| samples[i].clone()).collect();
        let asg = |v: Var| {
            let i = vars.iter().position(|&w| w == v);
            i.map_or_else(Rat::zero, |i| vals[i].clone())
        };
        prop_assert_eq!(a.eval(&asg, &[]), b.eval(&asg, &[]), "at {:?}", vals);
        let Some(k) = idx.iter().position(|&i| i + 1 < samples.len()) else {
            return Ok(());
        };
        idx[k] += 1;
        idx[..k].fill(0);
    }
}
