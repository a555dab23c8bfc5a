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
//! polynomial families again. So within one `∃`-elimination the first
//! request for a family derives its matrices under *no* sign assumptions and
//! stores them in a memo as a decision tree over the parameter signs the
//! derivation had to decide (`Split(poly, [zero, pos, neg])` on the head of
//! `poly`, `Rows`, `Inconsistent`). A derivation first decides the head of
//! every divisor (`p'` and the rest of the family), so that remainders can
//! be sign-corrected; a build, knowing nothing, splits on them with an
//! `Inconsistent` zero branch. A real caller always knows those heads are
//! non-zero, so replay never emits a guard for them, and no beheaded
//! zero-branch derivation enters the tree. Every request, the first
//! included, then *replays* the tree under the caller's context: a known
//! sign follows one child, an unknown one emits the same three guarded
//! branches a direct derivation would, leaves feed the caller's
//! continuation. So the output is the formula the direct derivation builds,
//! streamed the same way. `casesplit`, `delconst` and the matrix derivation
//! are generic over what they build ([`Output`]): the output formula or a
//! memo tree, by one code path.
//!
//! A cap and a lifetime keep the memo from costing more than it saves. A
//! build is abandoned once its rows plus split nodes pass [`BUILD_CAP`]
//! (checked at every split, not only at leaves); from then on that family
//! is derived directly under each caller's context. And the memo belongs
//! to one elimination and is dropped with it; the polynomials its keys,
//! trees and work lists hold are shared (`Rc`), not cloned. The cooperative
//! budget counts one step per `casesplit` entry — in memo builds as in
//! direct derivations — plus one per replayed tree node. The recursion's
//! nesting is capped too: past [`MAX_DEPTH`] open levels an elimination
//! trips `BudgetResource::Depth`, so a derivation too deep for a request
//! thread's stack ends in a budget error instead of a stack overflow.
//!
//! **Nothing on the split path is copied.** A sign context records each
//! decided head once, made monic, in an `Rc` that the three contexts a
//! split creates share. A lookup tests `p = c·q` term by term against each
//! entry `q`, with `c` the head coefficient of `p`, so it allocates
//! nothing. A sign matrix ([`Matrix`]) is one row-major `Vec<i8>` with a
//! width, not a `Vec` per row: `delconst` writes the widened matrix in one
//! pass, and `dedmatrix` indexes its input's rows in place and writes its
//! output straight in the caller's column order.
//!
//! **One arena per call.** [`hoermander`] interns the prenex matrix into an
//! [`Arena`] that lives for the whole call, and every elimination works on
//! its nodes. It resolves its body's atoms to sign-matrix columns by
//! [`TermId`], reading the negation normal form off the previous
//! elimination's nodes, and writes its own output next to them: each split
//! polynomial's three guards are interned once, and each split's node is
//! built already simplified, by `simplify`'s own rules, from its branches'
//! nodes, which are simplified already. So no elimination runs a separate
//! simplify pass; only a ∀-block's negated result is simplified again, and
//! the result is externed once, at the end.
//!
//! Complexity is non-elementary in the worst case; the paper (Section 3)
//! leans on exactly this cost when arguing that QE-based approximate volume
//! operators are impractical, and `qe.hoermander.us_per_op` in `cqa-e2e`
//! measures it.

use crate::simplify::{
    has_complementary_pair, negate_id, push_unique, simplify, simplify_atom_id, simplify_id,
    SimplifyMemo,
};
use crate::QeError;
use cqa_arith::Rat;
use cqa_logic::budget::{BudgetExceeded, BudgetResource, EvalBudget};
use cqa_logic::ir::{Arena, FormulaId, Node, TermId};
use cqa_logic::{prenex, Formula, Rel};
use cqa_poly::{MPoly, Var};
use std::collections::HashMap;
use std::rc::Rc;

/// A polynomial in the eliminated variable: coefficients (ascending degree)
/// are polynomials in the parameters.
type XPoly = Vec<MPoly>;

/// Nodes (matrix rows plus split nodes) a memo build may create before it is
/// abandoned and its family derived under each caller's context instead.
const BUILD_CAP: usize = 1024;

/// Stack one nesting level of the derivation costs, with a 2× margin:
/// ≈ 400 B in a release build and ≈ 2.8 KiB in an unoptimised one, measured
/// as the smallest thread stack on which formulas 1 000 to 25 000 levels
/// deep still finish.
const STACK_PER_LEVEL: usize = if cfg!(debug_assertions) { 5_600 } else { 800 };

/// Nesting levels one elimination may stack: entries of `casesplit`,
/// `decide_heads` and `replay` that have not returned. The recursion then
/// fits in [`cqa_logic::REQUEST_STACK_BYTES`] with 1 MiB left to the layers
/// above it: 2 918 levels in a release build, 416 in an unoptimised one.
/// The pinned corpus's deepest finished elimination takes 110.
const MAX_DEPTH: usize = (cqa_logic::REQUEST_STACK_BYTES - (1 << 20)) / STACK_PER_LEVEL;

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

/// A sign matrix: `rows` rows of `width` signs (`-1`, `0`, `1`), one column
/// per polynomial of the family, stored row-major in one buffer. Rows
/// alternate interval, point, interval, … from −∞ to +∞.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Matrix {
    width: usize,
    rows: usize,
    signs: Vec<i8>,
}

impl Matrix {
    /// An empty matrix with room for `rows` rows.
    fn with_capacity(width: usize, rows: usize) -> Matrix {
        Matrix {
            width,
            rows: 0,
            signs: Vec::with_capacity(width * rows),
        }
    }

    fn row(&self, i: usize) -> &[i8] {
        &self.signs[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[i8]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Appends the row `others` with `s` inserted at column `at`.
    fn push_with(&mut self, others: &[i8], at: usize, s: i8) {
        debug_assert_eq!(others.len() + 1, self.width);
        self.signs.extend_from_slice(&others[..at]);
        self.signs.push(s);
        self.signs.extend_from_slice(&others[at..]);
        self.rows += 1;
    }
}

/// Inconsistency marker: a branch whose sign assumptions are contradictory
/// produces garbage inferences; such branches contribute `⊥`.
#[derive(Debug, PartialEq, Eq)]
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

/// What a derivation produces: the output formula's node in the call's
/// arena, streamed, or a family's memo [`Tree`]. The continuation makes the
/// leaves; this makes the rest.
trait Output: Sized {
    /// A branch whose sign assumptions are contradictory.
    fn inconsistent(el: &mut Elim<'_>) -> Self;
    /// The zero, positive and negative branches on the undecided head
    /// coefficient of `poly`.
    fn split(el: &mut Elim<'_>, poly: &Rc<XPoly>, branches: [Self; 3]) -> Self;
}

impl Output for FormulaId {
    fn inconsistent(el: &mut Elim<'_>) -> FormulaId {
        el.arena.intern_node(Node::False)
    }

    /// Guards each branch with the sign condition it assumed and joins the
    /// guarded branches, as `simplify` would rewrite `Formula::or` of
    /// `guard.and(branch)`: every branch node is already simplified, so the
    /// split's node is built simplified, from them alone. A conjunction
    /// takes the guard as its first conjunct, flattened into the branch's
    /// conjuncts, and is `⊥` on a complementary pair; the disjunction drops
    /// `⊥`s and repeats, is `⊤` on a complementary pair, and one surviving
    /// branch is not wrapped.
    fn split(el: &mut Elim<'_>, poly: &Rc<XPoly>, branches: [FormulaId; 3]) -> FormulaId {
        let guards = el.guards(poly);
        let arena = &mut *el.arena;
        let mut parts = Vec::with_capacity(3);
        for (guard, branch) in guards.into_iter().zip(branches) {
            let mut conj = vec![guard];
            match arena.node(branch) {
                Node::False => continue,
                Node::True => {}
                Node::And(fs) => conj.extend(fs.iter().filter(|&&f| f != guard)),
                _ if branch == guard => {}
                _ => conj.push(branch),
            }
            let guarded = match conj.len() {
                1 => guard,
                _ if has_complementary_pair(arena, &conj) => continue,
                _ => arena.intern_node(Node::And(conj)),
            };
            push_unique(&mut parts, guarded);
        }
        if has_complementary_pair(arena, &parts) {
            return arena.intern_node(Node::True);
        }
        match parts.len() {
            0 => arena.intern_node(Node::False),
            1 => parts[0],
            _ => arena.intern_node(Node::Or(parts)),
        }
    }
}

/// A family's sign matrices as a decision tree over the parameter signs
/// their derivation had to decide, built once under no assumptions.
enum Tree {
    /// Children for the head of the polynomial zero, positive, negative.
    Split(Rc<XPoly>, Box<[Tree; 3]>),
    Rows(Matrix),
    Inconsistent,
}

impl Output for Tree {
    fn inconsistent(_: &mut Elim<'_>) -> Tree {
        Tree::Inconsistent
    }

    fn split(_: &mut Elim<'_>, poly: &Rc<XPoly>, branches: [Tree; 3]) -> Tree {
        Tree::Split(Rc::clone(poly), Box::new(branches))
    }
}

/// Receives each sign matrix a derivation reaches and makes that leaf of
/// the output.
type Cont<'c, O> = dyn FnMut(&mut Elim<'_>, &Matrix) -> Result<O, Halt> + 'c;

/// The state of one `∃`-elimination: its budget, the arena its output is
/// built in, its family memo and its nesting depth.
struct Elim<'a> {
    budget: &'a EvalBudget,
    arena: &'a mut Arena,
    /// Each family's tree; `None` once its build passed [`BUILD_CAP`].
    memo: HashMap<Vec<Rc<XPoly>>, Option<Rc<Tree>>>,
    /// Nodes created so far by each memo build in progress, innermost last.
    builds: Vec<usize>,
    /// Recursive entries that have not returned (see [`MAX_DEPTH`]).
    depth: usize,
    /// The simplified guards `head = 0`, `head > 0`, `head < 0` of each
    /// polynomial the output has split on, by address; the entry holds the
    /// polynomial, so the address is not reused while it stands.
    guards: HashMap<*const XPoly, (Rc<XPoly>, [FormulaId; 3])>,
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
    /// The guards on the head coefficient of `poly`, in branch order and
    /// simplified (leading coefficient positive). A memo tree's split nodes
    /// and a family's polynomials are shared, so each head is interned once
    /// however many contexts split on it.
    fn guards(&mut self, poly: &Rc<XPoly>) -> [FormulaId; 3] {
        if let Some((_, guards)) = self.guards.get(&Rc::as_ptr(poly)) {
            return *guards;
        }
        let head = self.arena.intern_term(head(poly));
        let guards = [Rel::Eq, Rel::Gt, Rel::Lt].map(|rel| simplify_atom_id(self.arena, head, rel));
        self.guards
            .insert(Rc::as_ptr(poly), (Rc::clone(poly), guards));
        guards
    }

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

    /// Opens one level of the recursion, unless [`MAX_DEPTH`] levels are
    /// already open: a derivation nested that deep would overflow the
    /// request thread's stack, so it trips the budget instead. The caller
    /// closes the level once the call returns, whatever it returns.
    fn enter(&mut self) -> Result<(), Halt> {
        if self.depth >= MAX_DEPTH {
            return Err(Halt::Budget(QeError::Budget(BudgetExceeded {
                resource: BudgetResource::Depth,
                steps: self.budget.steps(),
            })));
        }
        self.depth += 1;
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
        Ok(O::split(self, poly, [zero, pos, neg]))
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
        self.enter()?;
        let out = self.casesplit_open(ctx, dun, todo, cont);
        self.depth -= 1;
        out
    }

    /// [`Elim::casesplit`] inside its level.
    fn casesplit_open<O: Output>(
        &mut self,
        ctx: &Ctx,
        dun: &[Rc<XPoly>],
        todo: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
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
    /// inserted into every matrix at the position the polynomial occupies.
    fn delconst<O: Output>(
        &mut self,
        ctx: &Ctx,
        dun: &[Rc<XPoly>],
        sign: i8,
        rest: &[Rc<XPoly>],
        cont: &mut Cont<'_, O>,
    ) -> Result<O, Halt> {
        let idx = dun.len();
        let mut cont2 = |el: &mut Elim<'_>, m: &Matrix| {
            let mut wide = Matrix::with_capacity(m.width + 1, m.rows);
            for row in m.iter() {
                wide.push_with(row, idx, sign);
            }
            cont(el, &wide)
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
            let one_row = Matrix {
                width: 0,
                rows: 1,
                signs: Vec::new(),
            };
            return cont(self, &one_row);
        }
        let tree = match self.memo.get(pols) {
            Some(Some(tree)) => Rc::clone(tree),
            Some(None) => return self.derive(ctx, pols, cont),
            None => {
                self.builds.push(0);
                let built = self.derive(&Ctx::default(), pols, &mut |el, m| {
                    el.charge(m.rows)?;
                    Ok(Tree::Rows(m.clone()))
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
        self.enter()?;
        let out = match tree {
            Tree::Inconsistent => Ok(O::inconsistent(self)),
            Tree::Rows(m) => cont(self, m),
            Tree::Split(poly, children) => self.split3(ctx, poly, &mut |el, ctx2, s| {
                el.replay(ctx2, &children[s as usize], cont)
            }),
        };
        self.depth -= 1;
        out
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
        let mut cont2 = |el: &mut Elim<'_>, m: &Matrix| match dedmatrix(m, l, i) {
            Err(Inconsistent) => Ok(O::inconsistent(el)),
            Ok(ded) => cont(el, &ded),
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
        self.enter()?;
        let out = self.split3(ctx, q, &mut |el, ctx2, s| match s {
            Sign::Zero => Ok(O::inconsistent(el)),
            _ => el.decide_heads(ctx2, rest, k),
        });
        self.depth -= 1;
        out
    }
}

/// p's sign at a point row of the matrix of `qs ++ rs`: the sign of the
/// remainder by any `q` vanishing there (they must agree), `None` when no
/// `q` vanishes there.
fn point_sign(row: &[i8], l: usize) -> Result<Option<i8>, Inconsistent> {
    let (qsigns, rsigns) = row.split_at(l);
    let mut psign = None;
    for (&q, &r) in qsigns.iter().zip(rsigns) {
        if q == 0 {
            match psign {
                None => psign = Some(r),
                Some(s) if s != r => return Err(Inconsistent),
                _ => {}
            }
        }
    }
    Ok(psign)
}

/// Given the sign matrix of `qs ++ rs` (2·l columns, rows alternating
/// interval/point), deduces the matrix of `p` and `qs[1..]`, with `p` at
/// column `at`: the sign of `p` at each root point comes from the matching
/// remainder; its signs on intervals and its own roots are interpolated via
/// `p' = qs[0]`, whose column is dropped. Point rows that are roots of no
/// `q` (only of remainders) are condensed away, and the intervals around
/// them merged; rows are indexed in place, never copied.
fn dedmatrix(m: &Matrix, l: usize, at: usize) -> Result<Matrix, Inconsistent> {
    debug_assert!(m.rows % 2 == 1 && m.width == 2 * l);
    let mut out = Matrix::with_capacity(l, m.rows + 2);
    // The condensed interval in hand (the first row of its merged run) and
    // p's sign at the kept point to its left (`None` at −∞).
    let (mut k, mut left) = (0, None);
    loop {
        let qsigns = &m.row(k)[..l];
        // The next point that is a root of some q; merging intervals across
        // the others requires equal signs.
        let mut j = k + 1;
        let right = loop {
            if j == m.rows {
                break None;
            }
            if let Some(s) = point_sign(m.row(j), l)? {
                break Some(s);
            }
            if m.row(j + 1)[..l] != *qsigns {
                return Err(Inconsistent);
            }
            j += 2;
        };
        // Sign of p at ±∞ from p' (= column 0): sign p(-∞) = -sign p'(-∞),
        // sign p(+∞) = +sign p'(+∞).
        let d = qsigns[0];
        if d == 0 {
            return Err(Inconsistent);
        }
        let others = &qsigns[1..];
        match (left.unwrap_or(-d), right.unwrap_or(d)) {
            (0, 0) => return Err(Inconsistent),
            (0, sr) => {
                // Leaving a root moving right: p takes the sign of p'.
                if sr != d {
                    return Err(Inconsistent);
                }
                out.push_with(others, at, d);
            }
            (sl, 0) => {
                // Approaching a root from the left: p has sign -p'.
                if sl != -d {
                    return Err(Inconsistent);
                }
                out.push_with(others, at, -d);
            }
            (sl, sr) if sl == sr => out.push_with(others, at, sl),
            (sl, sr) => {
                // Sign change: exactly one root of p inside (p monotone).
                out.push_with(others, at, sl);
                out.push_with(others, at, 0);
                out.push_with(others, at, sr);
            }
        }
        let Some(s) = right else {
            return Ok(out);
        };
        out.push_with(&m.row(j)[1..l], at, s);
        (k, left) = (j + 1, Some(s));
    }
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
    /// Resolves the atoms of `nnf(id)` (of `nnf(¬id)` when `neg`), reading
    /// the NNF off the arena without building it, and catalogues each
    /// distinct polynomial in `cols` in first-occurrence order. `nnf`
    /// folds a conjunction with a `⊥` conjunct (a disjunction with a `⊤`
    /// disjunct) to that constant and drops `⊤` conjuncts (`⊥` disjuncts);
    /// so does this, and the atoms of a folded subformula take no column.
    fn resolve(
        arena: &Arena,
        id: FormulaId,
        neg: bool,
        cols: &mut Vec<TermId>,
    ) -> Result<Body, QeError> {
        Ok(match arena.node(id) {
            Node::True => Body::Const(!neg),
            Node::False => Body::Const(neg),
            Node::Atom { poly, rel } => {
                let col = cols.iter().position(|t| t == poly).unwrap_or_else(|| {
                    cols.push(*poly);
                    cols.len() - 1
                });
                Body::Atom(col, if neg { rel.negate() } else { *rel })
            }
            Node::Not(g) => Body::resolve(arena, *g, !neg, cols)?,
            node @ (Node::And(fs) | Node::Or(fs)) => {
                // De Morgan: under negation a conjunction is a disjunction.
                let conj = matches!(node, Node::And(_)) != neg;
                let mark = cols.len();
                let mut parts = Vec::with_capacity(fs.len());
                for &g in fs {
                    match Body::resolve(arena, g, neg, cols)? {
                        Body::Const(b) if b == conj => {}
                        Body::Const(b) => {
                            cols.truncate(mark);
                            return Ok(Body::Const(b));
                        }
                        b => parts.push(b),
                    }
                }
                match (parts.is_empty(), conj) {
                    (true, _) => Body::Const(conj),
                    (false, true) => Body::And(parts),
                    (false, false) => Body::Or(parts),
                }
            }
            Node::Rel { .. } => return Err(QeError::HasRelations),
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

/// Eliminates `∃v` from the quantifier-free, relation-free formula `id`
/// (from its negation when `neg`), building the output in `arena`. The
/// result is what `simplify` makes of the formula the derivation denotes,
/// built simplified split by split.
fn eliminate_exists(
    arena: &mut Arena,
    v: Var,
    id: FormulaId,
    neg: bool,
    budget: &EvalBudget,
) -> Result<FormulaId, QeError> {
    let mut cols: Vec<TermId> = Vec::new();
    let body = Body::resolve(arena, id, neg, &mut cols)?;
    if let Body::Const(b) = body {
        return Ok(arena.intern_node(if b { Node::True } else { Node::False }));
    }
    let xpolys: Vec<Rc<XPoly>> = cols
        .iter()
        .map(|&t| Rc::new(arena.term(t).as_univariate_in(v)))
        .collect();
    let mut elim = Elim {
        budget,
        arena: &mut *arena,
        memo: HashMap::new(),
        builds: Vec::new(),
        depth: 0,
        guards: HashMap::new(),
    };
    let mut cont = |el: &mut Elim<'_>, m: &Matrix| {
        let holds = m.iter().any(|row| body.eval(row));
        Ok(el
            .arena
            .intern_node(if holds { Node::True } else { Node::False }))
    };
    match elim.casesplit(&Ctx::default(), &[], &xpolys, &mut cont) {
        Ok(qf) => Ok(qf),
        Err(Halt::Budget(e)) => Err(e),
        Err(Halt::Abandon) => unreachable!("abandoned outside any memo build"),
    }
}

/// Eliminates all quantifiers from an FO+POLY formula via Cohen–Hörmander,
/// returning an equivalent quantifier-free formula over the free variables.
/// The cooperative [`EvalBudget`] is checked at every `casesplit` node (the
/// doubly-exponential blow-up point), each elimination round is gated on
/// the intermediate formula's atom count, and a derivation nested deeper
/// than a request thread's stack allows trips
/// [`BudgetResource::Depth`]; aborts with [`QeError::Budget`] when any of
/// them is exhausted.
pub fn hoermander(f: &Formula, budget: &EvalBudget) -> Result<Formula, QeError> {
    crate::check_input(f)?;
    let (blocks, matrix) = prenex(f);
    if blocks.iter().all(|b| b.vars.is_empty()) {
        return Ok(simplify(&matrix));
    }
    // One arena for the whole call: each elimination reads its body from
    // the previous one's output nodes and writes its own next to them.
    let mut arena = Arena::new();
    let mut simplified = SimplifyMemo::new();
    let mut matrix = arena.intern(&matrix);
    // Each elimination's output is already simplified, and `simplify` is a
    // projection; only a negated one needs another pass.
    for block in blocks.into_iter().rev() {
        for &v in block.vars.iter().rev() {
            budget.check_atoms(arena.meta(matrix).atom_count())?;
            let out = eliminate_exists(&mut arena, v, matrix, !block.exists, budget)?;
            matrix = if block.exists {
                out
            } else {
                let negated = negate_id(&mut arena, out);
                simplify_id(&mut arena, negated, &mut simplified)
            };
        }
    }
    Ok(arena.extern_formula(matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::f;
    use cqa_arith::rat;
    use proptest::prelude::*;

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

    /// The row-per-`Vec` deduction `dedmatrix` replaced, kept as its
    /// oracle: it returns the rows of `[p, p', qs[1..]]`.
    fn dedmatrix_oracle(rows: &[Vec<i8>], l: usize) -> Result<Vec<Vec<i8>>, Inconsistent> {
        struct Row {
            psign: Option<i8>,
            qsigns: Vec<i8>,
        }
        let mut rs1: Vec<Row> = Vec::with_capacity(rows.len());
        for (idx, r) in rows.iter().enumerate() {
            let qsigns = r[..l].to_vec();
            let rsigns = &r[l..2 * l];
            let mut psign = None;
            if idx % 2 == 1 {
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
        let mut rs2: Vec<Row> = Vec::with_capacity(rs1.len());
        let mut it = rs1.into_iter();
        rs2.push(it.next().unwrap());
        while let Some(pt) = it.next() {
            let iv = it.next().unwrap();
            if pt.psign.is_some() {
                rs2.push(pt);
                rs2.push(iv);
            } else if rs2.last().unwrap().qsigns != iv.qsigns {
                return Err(Inconsistent);
            }
        }
        let n = rs2.len();
        let mut out: Vec<Vec<i8>> = Vec::with_capacity(n + 2);
        let row = |s: i8, qsigns: &[i8]| {
            let mut row = vec![s];
            row.extend_from_slice(qsigns);
            row
        };
        for k in (0..n).step_by(2) {
            let d = rs2[k].qsigns[0];
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
            match (sl, sr) {
                (0, 0) => return Err(Inconsistent),
                (0, sr) if sr != d => return Err(Inconsistent),
                (0, _) => out.push(row(d, qsigns)),
                (sl, 0) if sl != -d => return Err(Inconsistent),
                (_, 0) => out.push(row(-d, qsigns)),
                (sl, sr) if sl == sr => out.push(row(sl, qsigns)),
                (sl, sr) => {
                    out.push(row(sl, qsigns));
                    out.push(row(0, qsigns));
                    out.push(row(sr, qsigns));
                }
            }
            if k + 1 < n {
                out.push(row(rs2[k + 1].psign.unwrap(), &rs2[k + 1].qsigns));
            }
        }
        Ok(out)
    }

    /// A sign matrix of `qs ++ rs` (`l` columns each) with `points` point
    /// rows. Mode 0 draws every sign at random, so it is nearly always
    /// inconsistent. The other modes draw what a derivation can meet: a `q`
    /// is non-zero on intervals and changes sign only at its roots, and
    /// where some `q` vanishes every such remainder carries `p`'s sign,
    /// mostly one that `p' = qs[0]` allows. Mode 2 then overwrites one sign
    /// and mode 3 two, at random.
    fn sign_matrix(l: usize, points: usize, seed: u64, mode: u8) -> Vec<Vec<i8>> {
        let mut state = seed;
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let sign = |below: &mut dyn FnMut(u64) -> u64| below(3) as i8 - 1;
        let rows = 2 * points + 1;
        if mode == 0 {
            return (0..rows)
                .map(|_| (0..2 * l).map(|_| sign(&mut below)).collect())
                .collect();
        }
        let mut q: Vec<i8> = (0..l).map(|_| [1, -1][below(2) as usize]).collect();
        // p's sign at the last kept point (−∞: the sign p' forces there).
        let mut left = -q[0];
        let mut out = Vec::with_capacity(rows);
        let interval = |q: &[i8], below: &mut dyn FnMut(u64) -> u64| -> Vec<i8> {
            let mut row = q.to_vec();
            row.extend((0..q.len()).map(|_| below(3) as i8 - 1));
            row
        };
        out.push(interval(&q, &mut below));
        for _ in 0..points {
            let roots: Vec<bool> = (0..l).map(|_| below(3) == 0).collect();
            let d = q[0];
            let allowed: &[i8] = match left {
                0 => &[d],
                s if s == -d => &[-d, 0, d],
                _ => &[d, -d],
            };
            let s = if below(4) == 0 {
                sign(&mut below)
            } else {
                allowed[below(allowed.len() as u64) as usize]
            };
            let mut row: Vec<i8> = (0..l).map(|j| if roots[j] { 0 } else { q[j] }).collect();
            for &root in &roots {
                row.push(if root { s } else { sign(&mut below) });
            }
            out.push(row);
            if roots.contains(&true) {
                left = s;
            }
            for j in 0..l {
                if roots[j] && below(2) == 0 {
                    q[j] = -q[j];
                }
            }
            out.push(interval(&q, &mut below));
        }
        for _ in 1..mode {
            let (r, c) = (below(rows as u64) as usize, below(2 * l as u64) as usize);
            out[r][c] = sign(&mut below);
        }
        out
    }

    fn flat(rows: &[Vec<i8>], width: usize) -> Matrix {
        Matrix {
            width,
            rows: rows.len(),
            signs: rows.concat(),
        }
    }

    /// The oracle's rows in `dedmatrix`'s column order: `p'` dropped and
    /// `p` moved to column `at`.
    fn reordered(rows: &[Vec<i8>], at: usize) -> Vec<Vec<i8>> {
        rows.iter()
            .map(|r| {
                let mut rest = r[2..].to_vec();
                rest.insert(at, r[0]);
                rest
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dedmatrix_matches_its_oracle(
            case in (1usize..4, 0usize..5, any::<u64>(), 0u8..4)
        ) {
            let (l, points, seed, mode) = case;
            let rows = sign_matrix(l, points, seed, mode);
            let want = dedmatrix_oracle(&rows, l);
            for at in 0..l {
                let got = dedmatrix(&flat(&rows, 2 * l), l, at);
                match &want {
                    Err(Inconsistent) => prop_assert_eq!(&got, &Err(Inconsistent)),
                    Ok(want) => {
                        let got = got.map(|m| m.iter().map(<[i8]>::to_vec).collect::<Vec<_>>());
                        prop_assert_eq!(got, Ok(reordered(want, at)));
                    }
                }
            }
        }
    }

    /// The proptest's generator reaches both outcomes, and deductions that
    /// condense points away and insert roots of `p`.
    #[test]
    fn dedmatrix_generator_covers_both_outcomes() {
        let (mut ok, mut condensed, mut rooted, mut inconsistent) = (0, 0, 0, 0);
        for seed in 0..256u64 {
            let (l, points, mode) = (1 + seed as usize % 3, seed as usize % 5, (seed % 4) as u8);
            let rows = sign_matrix(l, points, seed, mode);
            match dedmatrix_oracle(&rows, l) {
                Ok(out) => {
                    ok += 1;
                    condensed += usize::from(out.len() < rows.len());
                    rooted += usize::from(out.len() > rows.len());
                }
                Err(Inconsistent) => inconsistent += 1,
            }
        }
        assert!(
            ok >= 64 && inconsistent >= 64,
            "{ok} consistent, {inconsistent} not"
        );
        assert!(
            condensed >= 16 && rooted >= 16,
            "{condensed} condensed, {rooted} rooted"
        );
    }
}
