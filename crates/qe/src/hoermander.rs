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
//! **Each family's matrices are derived once.** Under every undecided
//! parameter sign the recursion asks for the sign matrix of the same
//! polynomial families again (a lens query asks for 10 families 553 times).
//! So within one `∃`-elimination the first request for a family derives its
//! matrices under *no* sign assumptions and stores them in a memo as a
//! decision tree over the parameter signs the derivation had to decide
//! (`Split(poly, [zero, pos, neg])` on the head of `poly`, `Rows`,
//! `Inconsistent`). A derivation first decides the head of every divisor
//! (`p'` and the rest of the family), so that remainders can be
//! sign-corrected; a build, knowing nothing, splits on them with an
//! `Inconsistent` zero branch. A real caller always knows those heads are
//! non-zero, so replay never emits a guard for them, and no beheaded
//! zero-branch derivation enters the tree. Every request, the first
//! included, then *replays* the tree under the caller's context: a known
//! sign follows one child, an unknown one emits the same three guarded
//! branches a direct derivation would, leaves feed the caller's
//! continuation. So the output is the formula the direct derivation
//! builds, streamed the same way. `casesplit`, `delconst` and the matrix
//! derivation are generic over what they build ([`Output`]): the output
//! formula or a memo tree, by one code path.
//!
//! A cap and a lifetime keep the memo from costing more than it saves. A
//! build is abandoned once its rows plus split nodes pass [`BUILD_CAP`]
//! (checked at every split, not only at leaves); from then on that family
//! is derived directly under each caller's context. And the memo belongs
//! to one elimination and is dropped with it; the polynomials its keys,
//! trees and work lists hold are shared (`Rc`), not cloned. The cooperative
//! budget counts one step per `casesplit` entry — in memo builds as in
//! direct derivations — plus one per replayed tree node.
//!
//! **Nothing on the split path is copied.** A sign context records each
//! decided head once, made monic, in an `Rc` that the three contexts a
//! split creates share. A lookup tests `p = c·q` term by term against each
//! entry `q`, with `c` the head coefficient of `p`, so it allocates
//! nothing. Each elimination resolves its body's atoms to sign-matrix
//! columns once, before the first row, and returns simplified output; since
//! `simplify` is a projection, [`hoermander`] simplifies again only after
//! negating a ∀-block's result.
//!
//! Complexity is non-elementary in the worst case; the paper (Section 3)
//! leans on exactly this cost when arguing that QE-based approximate volume
//! operators are impractical, and `qe.hoermander.us_per_op` in `cqa-e2e`
//! measures it.

use crate::simplify::simplify;
use crate::QeError;
use cqa_arith::Rat;
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{nnf, prenex, Atom, Formula, Rel};
use cqa_poly::{MPoly, Var};
use std::collections::HashMap;
use std::rc::Rc;

/// A polynomial in the eliminated variable: coefficients (ascending degree)
/// are polynomials in the parameters.
type XPoly = Vec<MPoly>;

/// Nodes (matrix rows plus split nodes) a memo build may create before it is
/// abandoned and its family derived under each caller's context instead.
const BUILD_CAP: usize = 1024;

/// Declaration order is the order of a split's branches (`as usize` indexes
/// a [`Tree::Split`]'s children).
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

/// A context of sign assumptions on non-constant parameter polynomials,
/// each normalized to monic form (leading coefficient 1) so that positive
/// scalings share one entry. The polynomials are shared between a context
/// and the contexts extended from it.
#[derive(Clone, Default)]
struct Ctx {
    entries: Vec<(Rc<MPoly>, Sign)>,
}

/// `true` iff `p = c·q` term by term, for monic `q` and `c` the leading
/// coefficient of `p`.
fn is_multiple(p: &MPoly, c: &Rat, q: &MPoly) -> bool {
    p.num_terms() == q.num_terms()
        && p.terms().zip(q.terms()).all(|((mp, _), (mq, _))| mp == mq)
        && p.terms()
            .zip(q.terms())
            .all(|((_, cp), (_, cq))| *cp == c * cq)
}

impl Ctx {
    /// The sign of `p` if it is a constant or a scaling of an entry.
    fn findsign(&self, p: &MPoly) -> Option<Sign> {
        if let Some(c) = p.as_constant() {
            return Some(match c.signum() {
                0 => Sign::Zero,
                s if s > 0 => Sign::Pos,
                _ => Sign::Neg,
            });
        }
        let (_, c) = p.terms().next_back()?;
        self.entries
            .iter()
            .find(|(q, _)| is_multiple(p, c, q))
            .map(|&(_, s)| s.flip_if(c.is_negative()))
    }

    /// This context and `p`'s sign `s`, for a non-constant `p` whose sign
    /// the context does not know; `q` is `p` made monic.
    fn with(&self, q: &Rc<MPoly>, s: Sign) -> Ctx {
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.extend(self.entries.iter().cloned());
        entries.push((Rc::clone(q), s));
        Ctx { entries }
    }
}

/// Inconsistency marker: a branch whose sign assumptions are contradictory
/// produces garbage inferences; such branches contribute `⊥`.
struct Inconsistent;

/// Why a derivation stopped before its end.
enum Halt {
    /// The caller's budget ran out: the whole elimination stops.
    Budget(QeError),
    /// The innermost memo build outgrew [`BUILD_CAP`]: only it stops.
    Abandon,
}

impl From<BudgetExceeded> for Halt {
    fn from(b: BudgetExceeded) -> Halt {
        Halt::Budget(b.into())
    }
}

/// What a derivation produces: the output formula itself, streamed, or a
/// family's memo [`Tree`]. The continuation makes the leaves; this makes
/// the rest.
trait Output: Sized {
    /// A branch whose sign assumptions are contradictory.
    fn inconsistent() -> Self;
    /// The zero, positive and negative branches on the undecided head
    /// coefficient of `poly`.
    fn split(poly: &Rc<XPoly>, branches: [Self; 3]) -> Self;
}

impl Output for Formula {
    fn inconsistent() -> Formula {
        Formula::False
    }

    /// Guards each branch with the sign condition it assumed.
    fn split(poly: &Rc<XPoly>, branches: [Formula; 3]) -> Formula {
        let head = head(poly);
        let mut out = Formula::False;
        for (rel, branch) in [Rel::Eq, Rel::Gt, Rel::Lt].into_iter().zip(branches) {
            let guard = Formula::Atom(Atom::new(head.clone(), rel));
            out = out.or(guard.and(branch));
        }
        out
    }
}

/// A family's sign matrices as a decision tree over the parameter signs
/// their derivation had to decide, built once under no assumptions.
enum Tree {
    /// Children for the head of the polynomial zero, positive, negative.
    Split(Rc<XPoly>, Box<[Tree; 3]>),
    Rows(Vec<Vec<i8>>),
    Inconsistent,
}

impl Output for Tree {
    fn inconsistent() -> Tree {
        Tree::Inconsistent
    }

    fn split(poly: &Rc<XPoly>, branches: [Tree; 3]) -> Tree {
        Tree::Split(Rc::clone(poly), Box::new(branches))
    }
}

/// Receives each sign matrix (rows alternating interval, point, interval,
/// …) a derivation reaches and makes that leaf of the output.
type Cont<'c, O> = dyn FnMut(&mut Elim<'_>, &[Vec<i8>]) -> Result<O, Halt> + 'c;

/// The state of one `∃`-elimination: its budget and its family memo.
struct Elim<'b> {
    budget: &'b EvalBudget,
    /// Each family's tree; `None` once its build passed [`BUILD_CAP`].
    memo: HashMap<Vec<Rc<XPoly>>, Option<Rc<Tree>>>,
    /// Nodes created so far by each memo build in progress, innermost last.
    builds: Vec<usize>,
}

/// The head (leading) coefficient of a trimmed, non-empty polynomial.
fn head(p: &[MPoly]) -> &MPoly {
    p.last().expect("a trimmed polynomial with a head")
}

fn xtrim(p: &Rc<XPoly>) -> Rc<XPoly> {
    let n = p.len() - p.iter().rev().take_while(|c| c.is_zero()).count();
    if n == p.len() {
        Rc::clone(p)
    } else {
        Rc::new(p[..n].to_vec())
    }
}

fn xderiv(p: &[MPoly]) -> XPoly {
    p.iter()
        .enumerate()
        .skip(1)
        .map(|(i, c)| c.scale(&Rat::from(i as i64)))
        .collect()
}

fn xneg(p: &[MPoly]) -> XPoly {
    p.iter().map(|c| -c).collect()
}

/// Pseudo-division: computes `(k, r)` with `lc(q)^k · p = Q·q + r` and
/// `deg r < deg q` (structurally).
fn pdivide(p: &[MPoly], q: &[MPoly]) -> (u32, XPoly) {
    let dq = q.len() - 1;
    let lq = head(q);
    let mut r = p.to_vec();
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
        while next.last().is_some_and(MPoly::is_zero) {
            next.pop();
        }
        r = next;
        k += 1;
    }
    (k, r)
}

impl Elim<'_> {
    /// Counts `n` new nodes against the innermost build in progress, if any.
    fn charge(&mut self, n: usize) -> Result<(), Halt> {
        if let Some(nodes) = self.builds.last_mut() {
            *nodes += n;
            if *nodes > BUILD_CAP {
                return Err(Halt::Abandon);
            }
        }
        Ok(())
    }

    /// Case-splits on the sign of `poly`'s head coefficient: one call of
    /// `k` when the context knows it, otherwise one per sign under the
    /// extended context, joined by [`Output::split`].
    fn split3<O: Output>(
        &mut self,
        ctx: &Ctx,
        poly: &Rc<XPoly>,
        k: &mut dyn FnMut(&mut Self, &Ctx, Sign) -> Result<O, Halt>,
    ) -> Result<O, Halt> {
        let head = head(poly);
        if let Some(s) = ctx.findsign(head) {
            return k(self, ctx, s);
        }
        self.charge(1)?;
        // `findsign` knows every constant, so `head` is non-constant here.
        let c = head.terms().next_back().expect("a non-zero head").1;
        let q = Rc::new(head.scale(&c.recip()));
        let flip = c.is_negative();
        let zero = k(self, &ctx.with(&q, Sign::Zero), Sign::Zero)?;
        let pos = k(self, &ctx.with(&q, Sign::Pos.flip_if(flip)), Sign::Pos)?;
        let neg = k(self, &ctx.with(&q, Sign::Neg.flip_if(flip)), Sign::Neg)?;
        Ok(O::split(poly, [zero, pos, neg]))
    }

    /// Ensures every polynomial's head coefficient has a known sign in the
    /// context: zero heads are beheaded, constants recorded via `delconst`,
    /// and non-constants accumulated in `dun` for the matrix computation.
    ///
    /// This is the doubly-exponential blow-up point of the whole procedure,
    /// so the cooperative budget is checked at every entry.
    fn casesplit<O: Output>(
        &mut self,
        ctx: &Ctx,
        dun: &[Rc<XPoly>],
        todo: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        self.budget.check()?;
        let Some((p0, rest)) = todo.split_first() else {
            return self.matrix(ctx, dun, cont);
        };
        let p = xtrim(p0);
        if p.is_empty() {
            return self.delconst(ctx, dun, 0, rest, cont);
        }
        self.split3(ctx, &p, &mut |el, ctx2, s| match s {
            Sign::Zero => {
                let mut todo2 = vec![Rc::new(p[..p.len() - 1].to_vec())];
                todo2.extend_from_slice(rest);
                el.casesplit(ctx2, dun, &todo2, cont)
            }
            s if p.len() == 1 => el.delconst(ctx2, dun, s.as_i8(), rest, cont),
            _ => {
                let mut dun2 = dun.to_vec();
                dun2.push(Rc::clone(&p));
                el.casesplit(ctx2, &dun2, rest, cont)
            }
        })
    }

    /// Records a (sign-known) constant polynomial: its sign column is
    /// inserted into every matrix row at the position the polynomial
    /// occupies.
    fn delconst<O: Output>(
        &mut self,
        ctx: &Ctx,
        dun: &[Rc<XPoly>],
        sign: i8,
        rest: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        let idx = dun.len();
        let mut cont2 = |el: &mut Elim<'_>, rows: &[Vec<i8>]| {
            let rows2: Vec<Vec<i8>> = rows
                .iter()
                .map(|r| {
                    let mut r2 = r.clone();
                    r2.insert(idx, sign);
                    r2
                })
                .collect();
            cont(el, &rows2)
        };
        self.casesplit(ctx, dun, rest, &mut cont2)
    }

    /// Feeds the sign matrix of `pols` (non-constant, heads known and
    /// non-zero in `ctx`) to the continuation. The family's memo tree is
    /// built on first use and replayed under `ctx`; a family whose build
    /// was abandoned is derived under `ctx` directly.
    fn matrix<O: Output>(
        &mut self,
        ctx: &Ctx,
        pols: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        if pols.is_empty() {
            return cont(self, &[vec![]]);
        }
        let tree = match self.memo.get(pols) {
            Some(Some(tree)) => Rc::clone(tree),
            Some(None) => return self.derive(ctx, pols, cont),
            None => {
                self.builds.push(0);
                let built = self.derive(&Ctx::default(), pols, &mut |el, rows| {
                    el.charge(rows.len())?;
                    Ok(Tree::Rows(rows.to_vec()))
                });
                self.builds.pop();
                match built {
                    Ok(tree) => {
                        let tree = Rc::new(tree);
                        self.memo.insert(pols.to_vec(), Some(Rc::clone(&tree)));
                        tree
                    }
                    Err(Halt::Abandon) => {
                        self.memo.insert(pols.to_vec(), None);
                        return self.derive(ctx, pols, cont);
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        self.replay(ctx, &tree, cont)
    }

    /// Walks a memo tree under `ctx`: a sign the context knows follows one
    /// child, an unknown one splits as [`Elim::split3`] does, and leaves
    /// feed the continuation. Every node visited is one budget step.
    fn replay<O: Output>(
        &mut self,
        ctx: &Ctx,
        tree: &Tree,
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        self.budget.check()?;
        match tree {
            Tree::Inconsistent => Ok(O::inconsistent()),
            Tree::Rows(rows) => cont(self, rows),
            Tree::Split(poly, children) => self.split3(ctx, poly, &mut |el, ctx2, s| {
                el.replay(ctx2, &children[s as usize], cont)
            }),
        }
    }

    /// Derives the sign matrix of `pols` under `ctx`: with `p` of maximal
    /// degree, from the matrix of `p'`, the other polynomials and the
    /// remainders of `p` by each of them. Every divisor's head is decided
    /// first (a caller's context knows them all; a memo build splits on
    /// them, zero being inconsistent), so each remainder can be
    /// sign-corrected to agree with `p` at the divisor's roots.
    fn derive<O: Output>(
        &mut self,
        ctx: &Ctx,
        pols: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        // Pick a polynomial of maximal degree.
        let i = (0..pols.len()).max_by_key(|&j| pols[j].len()).unwrap();
        let p = &pols[i];
        let mut qs: Vec<Rc<XPoly>> = vec![Rc::new(xderiv(p))];
        qs.extend(
            pols.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| Rc::clone(q)),
        );
        let divisions: Vec<(u32, Rc<XPoly>)> = qs
            .iter()
            .map(|q| {
                let (k, r) = pdivide(p, q);
                (k, Rc::new(r))
            })
            .collect();
        let l = qs.len();
        let mut cont2 = |el: &mut Elim<'_>, rows: &[Vec<i8>]| match dedmatrix(rows, l) {
            Err(Inconsistent) => Ok(O::inconsistent()),
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
                cont(el, &rows2)
            }
        };
        self.decide_heads(ctx, &qs, &mut |el, ctx2| {
            let mut all = qs.clone();
            for (q, (k, r)) in qs.iter().zip(&divisions) {
                // lc(q)^k · p ≡ r at q's roots: flip r when that factor is
                // negative.
                let flip = k % 2 == 1 && ctx2.findsign(head(q)) == Some(Sign::Neg);
                all.push(if flip { Rc::new(xneg(r)) } else { Rc::clone(r) });
            }
            el.casesplit(ctx2, &[], &all, &mut cont2)
        })
    }

    /// Decides the head sign of each of `qs` in turn, then calls `k`; a
    /// zero head contradicts `derive`'s precondition and is inconsistent.
    fn decide_heads<O: Output>(
        &mut self,
        ctx: &Ctx,
        qs: &[Rc<XPoly>],
        k: &mut dyn FnMut(&mut Self, &Ctx) -> Result<O, Halt>,
    ) -> Result<O, Halt> {
        let Some((q, rest)) = qs.split_first() else {
            return k(self, ctx);
        };
        self.split3(ctx, q, &mut |el, ctx2, s| match s {
            Sign::Zero => Ok(O::inconsistent()),
            _ => el.decide_heads(ctx2, rest, k),
        })
    }
}

/// Given the sign matrix of `qs ++ rs` (2·l columns, rows alternating
/// interval/point), deduces the matrix of `[p] ++ qs`: the sign of `p` at
/// each root point comes from the matching remainder; its signs on
/// intervals and its own roots are interpolated via `p' = qs[0]`.
fn dedmatrix(rows: &[Vec<i8>], l: usize) -> Result<Vec<Vec<i8>>, Inconsistent> {
    debug_assert!(rows.len() % 2 == 1);
    // Step 1: p's sign at q-root points; drop the remainder columns.
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

/// The (NNF, relation-free, quantifier-free) body of an elimination with
/// each atom resolved to its polynomial's sign-matrix column.
enum Body {
    Const(bool),
    Atom(usize, Rel),
    And(Vec<Body>),
    Or(Vec<Body>),
}

impl Body {
    /// Resolves `f`'s atoms, cataloguing each distinct polynomial in
    /// `polys` in first-occurrence order.
    fn resolve(f: &Formula, polys: &mut Vec<MPoly>) -> Result<Body, QeError> {
        let all = |fs: &[Formula], polys: &mut Vec<MPoly>| -> Result<Vec<Body>, QeError> {
            fs.iter().map(|g| Body::resolve(g, polys)).collect()
        };
        Ok(match f {
            Formula::True => Body::Const(true),
            Formula::False => Body::Const(false),
            Formula::Atom(a) => {
                let col = polys.iter().position(|p| *p == a.poly).unwrap_or_else(|| {
                    polys.push(a.poly.clone());
                    polys.len() - 1
                });
                Body::Atom(col, a.rel)
            }
            Formula::And(fs) => Body::And(all(fs, polys)?),
            Formula::Or(fs) => Body::Or(all(fs, polys)?),
            Formula::Rel { .. } | Formula::Not(_) => return Err(QeError::HasRelations),
            other => unreachable!("unexpected connective in CH body: {other:?}"),
        })
    }

    /// The body's truth under one sign-matrix row.
    fn eval(&self, row: &[i8]) -> bool {
        match self {
            Body::Const(b) => *b,
            Body::Atom(col, rel) => rel.sign_satisfies(i32::from(row[*col])),
            Body::And(bs) => bs.iter().all(|b| b.eval(row)),
            Body::Or(bs) => bs.iter().any(|b| b.eval(row)),
        }
    }
}

/// Eliminates `∃v` from a quantifier-free, relation-free formula; the
/// result is simplified.
pub(crate) fn eliminate_exists_ch(
    v: Var,
    f: &Formula,
    budget: &EvalBudget,
) -> Result<Formula, QeError> {
    let f = nnf(f);
    let mut polys: Vec<MPoly> = Vec::new();
    let body = Body::resolve(&f, &mut polys)?;
    if polys.is_empty() {
        return Ok(simplify(&f));
    }
    let xpolys: Vec<Rc<XPoly>> = polys
        .iter()
        .map(|p| Rc::new(p.as_univariate_in(v)))
        .collect();
    let mut elim = Elim {
        budget,
        memo: HashMap::new(),
        builds: Vec::new(),
    };
    let mut cont = |_: &mut Elim<'_>, rows: &[Vec<i8>]| {
        Ok(if rows.iter().any(|row| body.eval(row)) {
            Formula::True
        } else {
            Formula::False
        })
    };
    let qf = match elim.casesplit(&Ctx::default(), &[], &xpolys, &mut cont) {
        Ok(qf) => qf,
        Err(Halt::Budget(e)) => return Err(e),
        Err(Halt::Abandon) => unreachable!("abandoned outside any memo build"),
    };
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
    if blocks.iter().all(|b| b.vars.is_empty()) {
        return Ok(simplify(&matrix));
    }
    // Each elimination's output is already simplified, and `simplify` is a
    // projection; only a negated one needs another pass.
    for block in blocks.into_iter().rev() {
        for &v in block.vars.iter().rev() {
            budget.check_atoms(matrix.atom_count() as u64)?;
            matrix = if block.exists {
                eliminate_exists_ch(v, &matrix, budget)?
            } else {
                simplify(&eliminate_exists_ch(v, &matrix.negate(), budget)?.negate())
            };
        }
    }
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
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
    fn a_scaled_lookup_finds_the_monic_entry() {
        let (a, b) = (MPoly::var(Var(1)), MPoly::var(Var(2)));
        // Leading term −2·b: the head is the last term in monomial order.
        let p = &(&a * &a) - &b.scale(&Rat::from(2i64));
        let q = Rc::new(p.scale(&Rat::from(-2i64).recip()));
        let ratio = &(&a * &a) + &b.scale(&Rat::from(2i64));
        for s in [Sign::Zero, Sign::Pos, Sign::Neg] {
            let ctx = Ctx::default().with(&q, s);
            for c in [rat(3, 1), rat(-1, 1), rat(1, 7), rat(-5, 2)] {
                assert_eq!(
                    ctx.findsign(&q.scale(&c)),
                    Some(s.flip_if(c.is_negative())),
                    "{c}"
                );
            }
            assert_eq!(ctx.findsign(&p), Some(s.flip_if(true)));
            // The same monomials in another ratio, and another polynomial.
            assert_eq!(ctx.findsign(&ratio), None);
            assert_eq!(ctx.findsign(&(&p + &MPoly::one())), None);
        }
    }

    #[test]
    fn strict_vs_weak() {
        assert!(decide("exists x. x*x < 0.0001"));
        assert!(!decide("exists x. x*x < 0 | x*x + 1 <= 0"));
        assert!(decide("exists x. x*x <= 0"));
    }
}
