//! Cohen–Hörmander quantifier elimination for the real field.
//!
//! Tarski's theorem says `⟨ℝ, +, ·, 0, 1, <⟩` admits quantifier
//! elimination; this module implements the Cohen–Hörmander *sign matrix*
//! procedure (following the presentation in Harrison, *Handbook of
//! Practical Logic and Automated Reasoning*, §5.9), which is the simplest
//! complete algorithm: to eliminate `∃x` from a boolean combination of sign
//! conditions on polynomials `p₁ … p_s` in `x`, recursively compute the
//! complete **sign matrix** of the family — the signs of every `pᵢ` on
//! every root of every `pⱼ` and on the open intervals between them — and
//! check whether some row satisfies the body.
//!
//! The key recursion: the sign of `p` at a root of `q` equals the sign of
//! the (sign-corrected pseudo-)remainder `p mod q` there, so the matrix for
//! `{p, q₁ … }` with `p` of maximal degree reduces to the matrix for
//! `{p', q₁ …} ∪ {p mod p', p mod q₁ …}`, a family of smaller degree
//! multiset; the roots of `p` are then interpolated between sign changes
//! using the derivative `p'`.
//!
//! Coefficients of the eliminated variable are polynomials in the remaining
//! (parameter) variables; whenever a sign decision on such a coefficient is
//! needed, the algorithm **case-splits**, emitting the sign condition into
//! the output formula and continuing under the corresponding assumption.
//! This is what makes the procedure a genuine *parametric* QE rather than
//! just a decision procedure — the closure property of FO+POLY made
//! executable.
//!
//! Complexity is non-elementary in the worst case; the paper (Section 3)
//! leans on exactly this cost when arguing that QE-based approximate volume
//! operators are impractical, and `qe.hoermander.us_per_op` in `cqa-e2e`
//! measures it.

use crate::simplify::simplify;
use crate::QeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{nnf, prenex, Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};

/// A polynomial in the eliminated variable: coefficients (ascending degree)
/// are polynomials in the parameters.
type XPoly = Vec<MPoly>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sign {
    Zero,
    Pos,
    Neg,
}

impl Sign {
    fn as_i8(self) -> i8 {
        match self {
            Sign::Zero => 0,
            Sign::Pos => 1,
            Sign::Neg => -1,
        }
    }
    fn flip_if(self, negative: bool) -> Sign {
        if !negative {
            return self;
        }
        match self {
            Sign::Zero => Sign::Zero,
            Sign::Pos => Sign::Neg,
            Sign::Neg => Sign::Pos,
        }
    }
}

/// A context of sign assumptions on parameter polynomials, normalized to
/// monic form so that positive scalings share one entry.
#[derive(Clone, Default)]
struct Ctx {
    entries: Vec<(MPoly, Sign)>,
}

/// Normalizes `p = c·q` with `q` monic in the term order; returns
/// `(q, c_is_negative)`, or `None` for the zero polynomial (which has no
/// leading coefficient — callers treat it as the constant 0).
fn normalize(p: &MPoly) -> Option<(MPoly, bool)> {
    let c = p.terms().last().map(|(_, c)| c.clone())?;
    Some((p.scale(&c.recip()), c.is_negative()))
}

impl Ctx {
    fn findsign(&self, p: &MPoly) -> Option<Sign> {
        if let Some(c) = p.as_constant() {
            return Some(match c.signum() {
                0 => Sign::Zero,
                s if s > 0 => Sign::Pos,
                _ => Sign::Neg,
            });
        }
        let Some((q, neg)) = normalize(p) else {
            return Some(Sign::Zero); // structurally zero polynomial
        };
        self.entries
            .iter()
            .find(|(r, _)| *r == q)
            .map(|&(_, s)| s.flip_if(neg))
    }

    fn assert_sign(&self, p: &MPoly, s: Sign) -> Ctx {
        // The zero polynomial already has sign Zero; nothing to record.
        let Some((q, neg)) = normalize(p) else {
            return self.clone();
        };
        let mut next = self.clone();
        next.entries.retain(|(r, _)| *r != q);
        next.entries.push((q, s.flip_if(neg)));
        next
    }
}

/// Inconsistency marker: a branch whose sign assumptions are contradictory
/// produces garbage inferences; such branches contribute `⊥`.
struct Inconsistent;

type Cont<'a> = dyn FnMut(&[Vec<i8>]) -> Formula + 'a;

/// Case-splits on the sign of `head`, invoking `k` once per feasible sign
/// with the extended context, and guarding unknown branches with the
/// corresponding atom.
fn split3(
    ctx: &Ctx,
    head: &MPoly,
    k: &mut dyn FnMut(&Ctx, Sign) -> Result<Formula, QeError>,
) -> Result<Formula, QeError> {
    match ctx.findsign(head) {
        Some(s) => k(ctx, s),
        None => {
            let mut out = Formula::False;
            for (s, rel) in [
                (Sign::Zero, Rel::Eq),
                (Sign::Pos, Rel::Gt),
                (Sign::Neg, Rel::Lt),
            ] {
                let guard = Formula::Atom(Atom::new(head.clone(), rel));
                let branch = k(&ctx.assert_sign(head, s), s)?;
                out = out.or(guard.and(branch));
            }
            Ok(out)
        }
    }
}

fn xtrim(p: &[MPoly]) -> XPoly {
    let mut q = p.to_vec();
    while q.last().is_some_and(MPoly::is_zero) {
        q.pop();
    }
    q
}

fn xderiv(p: &[MPoly]) -> XPoly {
    p.iter()
        .enumerate()
        .skip(1)
        .map(|(i, c)| c.scale(&cqa_arith::Rat::from(i as i64)))
        .collect()
}

fn xneg(p: &[MPoly]) -> XPoly {
    p.iter().map(|c| -c).collect()
}

/// Pseudo-division: computes `(k, r)` with `lc(q)^k · p = Q·q + r` and
/// `deg r < deg q` (structurally).
fn pdivide(p: &[MPoly], q: &[MPoly]) -> (u32, XPoly) {
    let dq = q.len() - 1;
    let lq = q.last().unwrap();
    let mut r = xtrim(p);
    let mut k = 0u32;
    while r.len() > dq {
        let dr = r.len() - 1;
        let lr = r.last().unwrap().clone();
        // r := lq·r - lr·q·x^(dr-dq)
        let mut next: Vec<MPoly> = r.iter().map(|c| c * lq).collect();
        for (j, c) in q.iter().enumerate() {
            let idx = dr - dq + j;
            next[idx] = &next[idx] - &(c * &lr);
        }
        debug_assert!(next.last().unwrap().is_zero());
        next.pop();
        r = xtrim(&next);
        k += 1;
    }
    (k, r)
}

/// The remainder of `p` by `q`, sign-corrected so that at every root of `q`
/// (in any context consistent with `ctx`), `sign(result) = sign(p)`.
fn pdivide_pos(ctx: &Ctx, p: &[MPoly], q: &[MPoly]) -> XPoly {
    let (k, r) = pdivide(p, q);
    if k % 2 == 0 {
        return r;
    }
    match ctx.findsign(q.last().unwrap()) {
        Some(Sign::Pos) => r,
        Some(Sign::Neg) => xneg(&r),
        other => unreachable!("head sign of divisor must be known, got {other:?}"),
    }
}

/// Ensures every polynomial's head coefficient has a known sign in the
/// context: zero heads are beheaded, constants recorded via `delconst`, and
/// non-constants accumulated in `dun` for the matrix computation.
///
/// This is the doubly-exponential blow-up point of the whole procedure, so
/// the cooperative budget is checked at every entry.
fn casesplit(
    ctx: &Ctx,
    dun: &[XPoly],
    todo: &[XPoly],
    budget: &EvalBudget,
    cont: &mut Cont<'_>,
) -> Result<Formula, QeError> {
    budget.check()?;
    let Some((p0, rest)) = todo.split_first() else {
        return matrix_build(ctx, dun, budget, cont);
    };
    let p = xtrim(p0);
    if p.is_empty() {
        return delconst(ctx, dun, 0, rest, budget, cont);
    }
    let head = p.last().unwrap().clone();
    split3(ctx, &head, &mut |ctx2, s| match s {
        Sign::Zero => {
            let mut q = p.clone();
            q.pop();
            let mut todo2 = vec![q];
            todo2.extend_from_slice(rest);
            casesplit(ctx2, dun, &todo2, budget, cont)
        }
        s => {
            if p.len() == 1 {
                delconst(ctx2, dun, s.as_i8(), rest, budget, cont)
            } else {
                let mut dun2 = dun.to_vec();
                dun2.push(p.clone());
                casesplit(ctx2, &dun2, rest, budget, cont)
            }
        }
    })
}

/// Records a (sign-known) constant polynomial: its sign column is inserted
/// into every matrix row at the position the polynomial occupies.
fn delconst(
    ctx: &Ctx,
    dun: &[XPoly],
    sign: i8,
    rest: &[XPoly],
    budget: &EvalBudget,
    cont: &mut Cont<'_>,
) -> Result<Formula, QeError> {
    let idx = dun.len();
    let mut cont2 = |rows: &[Vec<i8>]| {
        let rows2: Vec<Vec<i8>> = rows
            .iter()
            .map(|r| {
                let mut r2 = r.clone();
                r2.insert(idx, sign);
                r2
            })
            .collect();
        cont(&rows2)
    };
    casesplit(ctx, dun, rest, budget, &mut cont2)
}

/// Computes the sign matrix for non-constant polynomials with sign-known
/// non-zero heads, and feeds its rows (alternating interval, point,
/// interval, …) to the continuation.
fn matrix_build(
    ctx: &Ctx,
    pols: &[XPoly],
    budget: &EvalBudget,
    cont: &mut Cont<'_>,
) -> Result<Formula, QeError> {
    if pols.is_empty() {
        return Ok(cont(&[vec![]]));
    }
    // Pick a polynomial of maximal degree.
    let i = (0..pols.len()).max_by_key(|&j| pols[j].len()).unwrap();
    let p = &pols[i];
    let p_prime = xderiv(p);
    let mut qs: Vec<XPoly> = vec![p_prime];
    for (j, q) in pols.iter().enumerate() {
        if j != i {
            qs.push(q.clone());
        }
    }
    let rs: Vec<XPoly> = qs.iter().map(|q| pdivide_pos(ctx, p, q)).collect();
    let l = qs.len();
    let mut cont2 = |rows: &[Vec<i8>]| -> Formula {
        match dedmatrix(rows, l) {
            Err(Inconsistent) => Formula::False,
            Ok(ded) => {
                // ded rows: [p, p', pols-minus-p…]; drop p', reinsert p at i.
                let rows2: Vec<Vec<i8>> = ded
                    .iter()
                    .map(|r| {
                        let mut rest: Vec<i8> = r[2..].to_vec();
                        rest.insert(i, r[0]);
                        rest
                    })
                    .collect();
                cont(&rows2)
            }
        }
    };
    let mut all = qs;
    all.extend(rs);
    casesplit(ctx, &[], &all, budget, &mut cont2)
}

/// Given the sign matrix of `qs ++ rs` (2·l columns, rows alternating
/// interval/point), deduces the matrix of `[p] ++ qs`: the sign of `p` at
/// each root point comes from the matching remainder; its signs on
/// intervals and its own roots are interpolated via `p' = qs[0]`.
fn dedmatrix(rows: &[Vec<i8>], l: usize) -> Result<Vec<Vec<i8>>, Inconsistent> {
    debug_assert!(rows.len() % 2 == 1);
    // Step 1: p's sign at q-root points; drop the remainder columns.
    // (kind: false = interval, true = point)
    struct Row {
        psign: Option<i8>,
        qsigns: Vec<i8>,
    }
    let mut rs1: Vec<Row> = Vec::with_capacity(rows.len());
    for (idx, r) in rows.iter().enumerate() {
        let qsigns = r[..l].to_vec();
        let rsigns = &r[l..2 * l];
        let point = idx % 2 == 1;
        let mut psign = None;
        if point {
            for j in 0..l {
                if qsigns[j] == 0 {
                    match psign {
                        None => psign = Some(rsigns[j]),
                        Some(s) if s != rsigns[j] => return Err(Inconsistent),
                        _ => {}
                    }
                }
            }
        }
        let _ = point;
        rs1.push(Row { psign, qsigns });
    }
    // Step 2: condense — remove point rows that are roots of no q (they were
    // roots only of remainders) and merge the surrounding intervals.
    let mut rs2: Vec<Row> = Vec::with_capacity(rs1.len());
    let mut it = rs1.into_iter();
    rs2.push(it.next().unwrap()); // leading interval
    while let Some(pt) = it.next() {
        let iv = it
            .next()
            .expect("point row must be followed by an interval");
        if pt.psign.is_some() {
            rs2.push(pt);
            rs2.push(iv);
        } else {
            // Merging intervals across a non-root point: signs must agree.
            if rs2.last().unwrap().qsigns != iv.qsigns {
                return Err(Inconsistent);
            }
        }
    }
    // Step 3: interpolate p's signs on intervals, inserting p's own roots.
    // Sign of p at ±∞ from p' (= column 0): sign p(-∞) = -sign p'(-∞),
    // sign p(+∞) = +sign p'(+∞).
    let n = rs2.len();
    let mut out: Vec<Vec<i8>> = Vec::with_capacity(n + 2);
    for k in (0..n).step_by(2) {
        let d = rs2[k].qsigns[0]; // p' sign on this interval
        if d == 0 {
            return Err(Inconsistent);
        }
        let sl = if k == 0 {
            -d
        } else {
            rs2[k - 1].psign.unwrap()
        };
        let sr = if k == n - 1 {
            d
        } else {
            rs2[k + 1].psign.unwrap()
        };
        let qsigns = &rs2[k].qsigns;
        let push_iv = |out: &mut Vec<Vec<i8>>, s: i8| {
            let mut row = Vec::with_capacity(1 + qsigns.len());
            row.push(s);
            row.extend_from_slice(qsigns);
            out.push(row);
        };
        match (sl, sr) {
            (0, 0) => return Err(Inconsistent),
            (0, sr) => {
                // Leaving a root moving right: p takes the sign of p'.
                if sr != d {
                    return Err(Inconsistent);
                }
                push_iv(&mut out, d);
            }
            (sl, 0) => {
                // Approaching a root from the left: p has sign -p'.
                if sl != -d {
                    return Err(Inconsistent);
                }
                push_iv(&mut out, -d);
            }
            (sl, sr) if sl == sr => push_iv(&mut out, sl),
            (sl, sr) => {
                // Sign change: exactly one root of p inside (p monotone).
                push_iv(&mut out, sl);
                let mut root = Vec::with_capacity(1 + qsigns.len());
                root.push(0);
                root.extend_from_slice(qsigns);
                out.push(root);
                push_iv(&mut out, sr);
            }
        }
        if k + 1 < n {
            let pt = &rs2[k + 1];
            let mut row = Vec::with_capacity(1 + pt.qsigns.len());
            row.push(pt.psign.unwrap());
            row.extend_from_slice(&pt.qsigns);
            out.push(row);
        }
    }
    Ok(out)
}

/// Evaluates the (NNF, relation-free, quantifier-free) body under a sign
/// assignment for its atom polynomials.
fn eval_with_signs(f: &Formula, polys: &[MPoly], row: &[i8]) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(a) => {
            let idx = polys
                .iter()
                .position(|p| *p == a.poly)
                .expect("atom polynomial not catalogued");
            a.rel.sign_satisfies(i32::from(row[idx]))
        }
        Formula::And(fs) => fs.iter().all(|g| eval_with_signs(g, polys, row)),
        Formula::Or(fs) => fs.iter().any(|g| eval_with_signs(g, polys, row)),
        other => unreachable!("unexpected connective in CH body: {other:?}"),
    }
}

/// Eliminates `∃v` from a quantifier-free, relation-free formula.
pub(crate) fn eliminate_exists_ch(
    v: Var,
    f: &Formula,
    budget: &EvalBudget,
) -> Result<Formula, QeError> {
    let f = nnf(f);
    let mut polys: Vec<MPoly> = Vec::new();
    let mut bad = false;
    f.visit(&mut |g| match g {
        Formula::Atom(a) if !polys.contains(&a.poly) => {
            polys.push(a.poly.clone());
        }
        Formula::Rel { .. } | Formula::Not(_) => bad = true,
        _ => {}
    });
    if bad {
        return Err(QeError::HasRelations);
    }
    if polys.is_empty() {
        return Ok(f);
    }
    let xpolys: Vec<XPoly> = polys.iter().map(|p| p.as_univariate_in(v)).collect();
    let mut cont = |rows: &[Vec<i8>]| -> Formula {
        if rows.iter().any(|row| eval_with_signs(&f, &polys, row)) {
            Formula::True
        } else {
            Formula::False
        }
    };
    let qf = casesplit(&Ctx::default(), &[], &xpolys, budget, &mut cont)?;
    Ok(simplify(&qf))
}

/// Eliminates all quantifiers from an FO+POLY formula via Cohen–Hörmander,
/// returning an equivalent quantifier-free formula over the free variables.
/// The cooperative [`EvalBudget`] is checked at every `casesplit` node (the
/// doubly-exponential blow-up point) and each elimination round is gated on
/// the intermediate formula's atom count; aborts with [`QeError::Budget`]
/// when it is exhausted.
pub fn hoermander(f: &Formula, budget: &EvalBudget) -> Result<Formula, QeError> {
    crate::check_input(f)?;
    let (blocks, mut matrix) = prenex(f);
    for block in blocks.into_iter().rev() {
        for &v in block.vars.iter().rev() {
            budget.check_atoms(matrix.atom_count() as u64)?;
            if block.exists {
                matrix = eliminate_exists_ch(v, &matrix, budget)?;
            } else {
                matrix = eliminate_exists_ch(v, &matrix.negate(), budget)?.negate();
            }
            matrix = simplify(&matrix);
        }
    }
    Ok(simplify(&matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::Rat;
    use cqa_logic::parse_formula;

    fn f(src: &str) -> Formula {
        parse_formula(src).unwrap().0
    }

    fn decide(src: &str) -> bool {
        match hoermander(&f(src), &EvalBudget::unlimited()).unwrap() {
            Formula::True => true,
            Formula::False => false,
            other => panic!("not ground: {other:?}"),
        }
    }

    #[test]
    fn univariate_sentences() {
        assert!(decide("exists x. x*x = 2"));
        assert!(decide("exists x. x*x - 2 = 0"));
        assert!(!decide("exists x. x*x = -1"));
        assert!(decide("forall x. x*x >= 0"));
        assert!(decide("exists x. x*x*x = -8"));
        assert!(decide("exists x. x*x - 3*x + 2 = 0"));
        assert!(!decide("exists x. x*x - 3*x + 2 = 0 & x > 5"));
        assert!(decide("exists x. x*x - 3*x + 2 = 0 & x > 1.5"));
    }

    #[test]
    fn root_counting_flavours() {
        // (x-1)(x-2)(x-3) has a root in (2.5, 3.5) but none in (3.5, 4).
        assert!(decide(
            "exists x. x*x*x - 6*x*x + 11*x - 6 = 0 & 2.5 < x & x < 3.5"
        ));
        assert!(!decide(
            "exists x. x*x*x - 6*x*x + 11*x - 6 = 0 & 3.5 < x & x < 4"
        ));
        // x³ − 3x + 1 has two positive roots (≈ 0.35 and ≈ 1.53).
        assert!(decide("exists x. x*x*x - 3*x + 1 = 0 & x > 0"));
    }

    #[test]
    fn alternating_quantifiers() {
        assert!(decide("forall x. exists y. y*y*y = x"));
        assert!(!decide("forall x. exists y. y*y = x"));
        assert!(decide("forall x. exists y. y > x*x"));
        assert!(!decide("exists y. forall x. y > x*x"));
        assert!(decide("exists y. forall x. x*x + 1 > y"));
    }

    #[test]
    fn discriminant_emerges() {
        // ∃x. x² + b·x + 1 = 0 over parameter b ⇔ b² - 4 ≥ 0.
        let g = hoermander(&f("exists x. x*x + b*x + 1 = 0"), &EvalBudget::unlimited()).unwrap();
        assert!(!g.free_vars().is_empty());
        for (bval, expect) in [
            (-3i64, true),
            (-2, true),
            (0, false),
            (1, false),
            (2, true),
            (5, true),
        ] {
            let asg = |_| Rat::from(bval);
            assert_eq!(g.eval(&asg, &[]), Some(expect), "b = {bval}");
        }
    }

    #[test]
    fn parametric_linear_inside_poly_engine() {
        // ∃x. a·x = 1 ⇔ a ≠ 0.
        let g = hoermander(&f("exists x. a*x = 1"), &EvalBudget::unlimited()).unwrap();
        for (a, expect) in [(0i64, false), (2, true), (-3, true)] {
            assert_eq!(g.eval(&|_| Rat::from(a), &[]), Some(expect), "a = {a}");
        }
    }

    #[test]
    fn positivstellensatz_like() {
        assert!(decide("forall x. x*x - 2*x + 1 >= 0")); // (x-1)^2
        assert!(!decide("forall x. x*x - 2*x + 1 > 0")); // fails at x=1
        assert!(decide("forall x, y. x*x + y*y >= 2*x*y")); // (x-y)^2 >= 0
    }

    #[test]
    fn mixed_polynomials() {
        // Circle and line intersect: ∃x,y. x²+y²=1 ∧ y=x ⇔ true.
        assert!(decide("exists x, y. x*x + y*y = 1 & y = x"));
        // Circle and far line don't: y = x + 3 misses the unit circle.
        assert!(!decide("exists x, y. x*x + y*y = 1 & y = x + 3"));
    }

    #[test]
    fn structurally_zero_atoms_are_handled() {
        // A constant-folded atom over the zero polynomial (`0 ≤ 0`, `0 < 0`)
        // used to panic in sign normalization; it now has sign Zero and the
        // sentence decides.
        let zero = cqa_poly::MPoly::constant(Rat::from(0i64));
        let mut vars = cqa_logic::VarMap::new();
        let body = cqa_logic::parse_formula_with("x*x = 2", &mut vars).unwrap();
        let x = vars.intern("x");
        let tautology = Formula::Atom(cqa_logic::Atom::new(zero.clone(), cqa_logic::Rel::Le));
        let absurdity = Formula::Atom(cqa_logic::Atom::new(zero, cqa_logic::Rel::Lt));
        let t = Formula::exists(vec![x], tautology.and(body.clone()));
        let f_ = Formula::exists(vec![x], absurdity.and(body));
        let unlimited = &EvalBudget::unlimited();
        assert_eq!(hoermander(&t, unlimited).unwrap(), Formula::True);
        assert_eq!(hoermander(&f_, unlimited).unwrap(), Formula::False);
    }

    #[test]
    fn strict_vs_weak() {
        assert!(decide("exists x. x*x < 0.0001"));
        assert!(!decide("exists x. x*x < 0 | x*x + 1 <= 0"));
        assert!(decide("exists x. x*x <= 0"));
    }
}
