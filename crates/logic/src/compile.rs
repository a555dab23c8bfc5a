//! A compiled evaluation kernel for quantifier-free constraint formulas.
//!
//! [`Formula::eval`] re-walks the AST at every point: each atom lookup
//! traverses a `BTreeMap`, every variable read clones a [`Rat`], and all
//! arithmetic is arbitrary precision. Monte Carlo volume estimation
//! (Theorem 4) evaluates the same matrix at tens of thousands of sample
//! points, so that interpretive overhead dominates the whole workload.
//!
//! [`CompiledMatrix`] lowers a quantifier-free, relation-free formula once
//! into a flat program:
//!
//! * every [`Var`] is resolved at compile time to a dense *slot* index via a
//!   [`SlotMap`] (parameters first, then point variables), eliminating the
//!   per-lookup linear scans;
//! * atoms live in an arena as coefficient/exponent vectors in the
//!   canonical sorted term order, evaluated by fused multiply–add loops;
//! * the boolean structure is flattened into a node arena with contiguous
//!   child ranges, evaluated with short-circuiting `all`/`any`.
//!
//! **Exactness.** Batched evaluation is dual-path: each atom is first
//! evaluated in `f64` alongside a conservative absolute-error bound; the
//! sign is trusted only when the bound excludes zero-crossing. Otherwise
//! the atom falls back to exact [`Rat`] arithmetic. The result is therefore
//! *bit-identical* to the exact tree walk — the float path is an exactness
//! filter, not an approximation. Sample points drawn through `cqa-approx`'s
//! witness operator are dyadic rationals that convert to `f64` without
//! error, so the fallback triggers only near true sign boundaries.
//! Per-point evaluation ([`CompiledMatrix::eval_rats`]) has no float path
//! at all: it is the exact reference the batched kernel is tested against.
//!
//! **Batched evaluation.** The Monte Carlo estimators never ask for one
//! point: they sweep the same matrix over thousands. [`Batch`] lays a chunk
//! of up to [`BATCH_LANES`] points out as structure-of-arrays columns (one
//! contiguous `f64` column per slot), and [`CompiledMatrix::eval_batch`]
//! evaluates every atom across the whole chunk with flat coefficient
//! sweeps — auto-vectorizable inner loops over contiguous lanes, one fused
//! pass per term, and a certified per-atom error bound. The boolean program
//! then runs on per-chunk certified-sign/undecided bitmasks ([`LaneMask`]),
//! short-circuiting whole subtrees once every lane is decided; only the
//! lanes whose sign the `f64` sweep could not certify re-run through the
//! exact [`Rat`] path, so the batched result is bit-for-bit the same as
//! deciding each point with [`CompiledMatrix::eval_rats`], the
//! exact-arithmetic-only reference.

use crate::ast::{Formula, Rel};
use crate::ir::{Arena, FormulaId, Node};
use cqa_arith::Rat;
use cqa_poly::{MPoly, Var};
use std::collections::HashMap;
use std::fmt;

/// Why a formula cannot be lowered to a [`CompiledMatrix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The formula contains a quantifier (natural or active-domain); run
    /// quantifier elimination (`cqa-qe`) first.
    Quantifier,
    /// The formula mentions a schema relation; expand relation definitions
    /// (`cqa-core`) first.
    Relation(String),
    /// An atom mentions a variable with no slot in the [`SlotMap`].
    UnboundVar(Var),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Quantifier => {
                write!(
                    f,
                    "formula contains a quantifier; eliminate quantifiers first"
                )
            }
            CompileError::Relation(name) => {
                write!(
                    f,
                    "formula mentions schema relation {name}; expand relations first"
                )
            }
            CompileError::UnboundVar(v) => {
                write!(f, "variable {v} has no assigned slot")
            }
        }
    }
}
impl std::error::Error for CompileError {}

/// A compile-time mapping from [`Var`]s to dense slot indices.
///
/// This is the one shared slot-resolution point for every evaluator that
/// pairs a variable list with a value tuple (the kernel, aggregates,
/// baselines) — replacing the per-variable `iter().position(..)` closures
/// that used to be copy-pasted at each call site.
#[derive(Clone, Debug)]
pub struct SlotMap {
    vars: Vec<Var>,
}

impl SlotMap {
    /// Slots for the concatenation of the groups, in order (convention:
    /// parameters first, then point variables).
    ///
    /// # Panics
    /// Panics if a variable appears twice.
    pub fn new(groups: &[&[Var]]) -> SlotMap {
        let mut vars = Vec::new();
        for g in groups {
            for &v in *g {
                assert!(
                    !vars.contains(&v),
                    "duplicate variable {v} across slot groups"
                );
                vars.push(v);
            }
        }
        SlotMap { vars }
    }

    /// Slots for a single variable list.
    pub fn from_vars(vars: &[Var]) -> SlotMap {
        SlotMap::new(&[vars])
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The variables in slot order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The slot of `v`, if any.
    pub fn slot(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// A total assignment reading slot values from `values` (variables
    /// without a slot read as zero, matching the historical behaviour of
    /// the inline closures this replaces).
    pub fn assignment<'a>(&'a self, values: &'a [Rat]) -> impl Fn(Var) -> Rat + 'a {
        debug_assert_eq!(values.len(), self.vars.len());
        move |v: Var| {
            self.slot(v)
                .map(|i| values[i].clone())
                .unwrap_or_else(Rat::zero)
        }
    }
}

// ---------------------------------------------------------------------------
// guarded f64 arithmetic
// ---------------------------------------------------------------------------

/// Relative rounding bound per f64 operation (2⁻⁵², ≥ 2× the true unit
/// roundoff — deliberately generous).
const UNIT: f64 = 2.220_446_049_250_313e-16;
/// Multiplicative padding covering the rounding of the error-bound
/// computation itself (a handful of f64 operations, each < 2⁻⁵² relative).
const PAD: f64 = 1.0 + 1e-9;

/// Generous relative inflation for the batch sweep's *uniform* per-chunk
/// error bound: it absorbs the rounding slack between each lane's true
/// Σ|term| and the column-max estimate computed in `f64`. Far larger than
/// needed — inflating a ~1e-16-relative bound by 1e-6 costs essentially
/// nothing in extra fallbacks and keeps the conservativeness argument
/// one-line.
const PAD2: f64 = 1.0 + 1e-6;

/// `(a ± ea) + (b ± eb)`: the computed sum and a bound on its distance from
/// the true real sum.
#[inline]
fn add_err(a: f64, ea: f64, b: f64, eb: f64) -> (f64, f64) {
    let v = a + b;
    (v, (ea + eb + v.abs() * UNIT) * PAD)
}

/// `(a ± ea) · (b ± eb)`: `|xy − ab| ≤ |a|eb + |b|ea + ea·eb` plus the
/// rounding of the product itself. Below the normal range rounding is
/// absolute, not relative (`2⁻¹⁰⁰⁰ · 2⁻¹⁰⁰⁰` is `0.0`, and so would be its
/// relative bound), so the bound carries `MIN_POSITIVE` on top: it is
/// never zero, and a computed zero is never certified.
#[inline]
fn mul_err(a: f64, ea: f64, b: f64, eb: f64) -> (f64, f64) {
    let v = a * b;
    (
        v,
        (a.abs() * eb + b.abs() * ea + ea * eb + v.abs() * UNIT) * PAD + f64::MIN_POSITIVE,
    )
}

/// The `f64` image of a rational plus a bound on the conversion error
/// (`0.0` exactly when the rational is a representable dyadic — e.g. every
/// witness-operator sample coordinate).
pub fn rat_to_f64_err(r: &Rat) -> (f64, f64) {
    let v = r.to_f64();
    if !v.is_finite() {
        return (0.0, f64::INFINITY);
    }
    match Rat::from_f64(v) {
        Some(back) if back == *r => (v, 0.0),
        Some(back) => {
            let d = (r - &back).abs().to_f64();
            (v, d * PAD + f64::MIN_POSITIVE)
        }
        None => (0.0, f64::INFINITY),
    }
}

// ---------------------------------------------------------------------------
// compiled atoms
// ---------------------------------------------------------------------------

/// One polynomial term: coefficient and `(slot, exponent)` factors.
#[derive(Clone, Debug)]
struct Term {
    coeff: Rat,
    coeff_f64: f64,
    coeff_err: f64,
    /// Sorted by slot; exponents ≥ 1.
    powers: Vec<(u32, u32)>,
    /// `powers` flattened to one slot per unit of degree (`x²y` is
    /// `[x, x, y]`): the multiplication order of every sweep.
    factors: Vec<u32>,
}

/// A sign-condition atom with slot-resolved polynomial.
#[derive(Clone, Debug)]
struct CompiledAtom {
    rel: Rel,
    terms: Vec<Term>,
    /// Certified relative rounding factor for the batched exact-input
    /// sweep: when the slot columns are exact, the computed lane value
    /// differs from the value of the `f64` coefficients' polynomial by at
    /// most `gamma · Σ|computed terms|` (see [`CompiledAtom::batch_masks`]).
    gamma: f64,
}

impl CompiledAtom {
    fn compile(poly: &MPoly, rel: Rel, slots: &SlotMap) -> Result<CompiledAtom, CompileError> {
        let mut terms = Vec::with_capacity(poly.num_terms());
        for (mono, coeff) in poly.terms() {
            let mut powers = Vec::with_capacity(mono.len());
            for &(v, e) in mono {
                let slot = slots.slot(v).ok_or(CompileError::UnboundVar(v))? as u32;
                powers.push((slot, e));
            }
            powers.sort_unstable();
            let (coeff_f64, coeff_err) = rat_to_f64_err(coeff);
            let factors = powers
                .iter()
                .flat_map(|&(slot, e)| std::iter::repeat_n(slot, e as usize))
                .collect();
            terms.push(Term {
                coeff: coeff.clone(),
                coeff_f64,
                coeff_err,
                powers,
                factors,
            });
        }
        // One multiplication per exponent unit plus one addition per term,
        // each contributing ≤ UNIT relative rounding (UNIT is itself ≥ 2×
        // the true unit roundoff); +2 and PAD absorb the second-order
        // cross terms and the rounding of the bound computation.
        let kmax = terms.iter().map(|t| t.factors.len()).max().unwrap_or(0);
        let gamma = (kmax + terms.len() + 2) as f64 * UNIT * PAD;
        Ok(CompiledAtom { rel, terms, gamma })
    }

    /// The polynomial's sign by exact rational evaluation.
    fn sign_exact(&self, exact: &dyn Fn(usize) -> Rat) -> i32 {
        let mut acc = Rat::zero();
        for t in &self.terms {
            let mut term = t.coeff.clone();
            for &(slot, exp) in &t.powers {
                term = &term * &exact(slot as usize).pow(exp as i32);
            }
            acc += term;
        }
        acc.signum()
    }
}

// ---------------------------------------------------------------------------
// the flat boolean program
// ---------------------------------------------------------------------------

/// A node of the flattened boolean program. `And`/`Or` children are
/// contiguous in the shared child-index arena.
#[derive(Clone, Copy, Debug)]
enum Op {
    True,
    False,
    Atom(u32),
    Not(u32),
    And { start: u32, end: u32 },
    Or { start: u32, end: u32 },
}

/// A quantifier-free, relation-free formula lowered to a flat,
/// slot-indexed program with dual `f64`/exact evaluation.
#[derive(Clone, Debug)]
pub struct CompiledMatrix {
    atoms: Vec<CompiledAtom>,
    nodes: Vec<Op>,
    children: Vec<u32>,
    root: u32,
    n_slots: usize,
}

impl CompiledMatrix {
    /// Lowers `f` with variables resolved through `slots`, by way of a
    /// scratch [`Arena`]: [`CompiledMatrix::compile_arena`] of `f`
    /// interned, so a subformula repeated in `f` compiles once.
    ///
    /// Rejects formulas that [`Formula::eval`] could not decide either —
    /// quantifiers of any kind and schema relations — so an unevaluable
    /// matrix surfaces here, at construction, instead of silently biasing
    /// a downstream estimate.
    pub fn compile(f: &Formula, slots: &SlotMap) -> Result<CompiledMatrix, CompileError> {
        let mut arena = Arena::new();
        let id = arena.intern(f);
        CompiledMatrix::compile_arena(&arena, id, slots)
    }

    /// Lowers an interned formula dag, memoized per [`FormulaId`]: a
    /// subformula shared `k` times in the denoted tree compiles to **one**
    /// program node (and its atom enters the arena once), so the program is
    /// O(dag size), not O(tree size).
    pub fn compile_arena(
        arena: &Arena,
        id: FormulaId,
        slots: &SlotMap,
    ) -> Result<CompiledMatrix, CompileError> {
        let mut m = CompiledMatrix {
            atoms: Vec::new(),
            nodes: Vec::new(),
            children: Vec::new(),
            root: 0,
            n_slots: slots.len(),
        };
        let mut memo: HashMap<FormulaId, u32> = HashMap::new();
        m.root = m.lower_id(arena, id, slots, &mut memo)?;
        Ok(m)
    }

    /// Number of value slots an evaluation must supply.
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }

    /// Number of distinct atoms in the arena.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    fn push(&mut self, op: Op) -> u32 {
        self.nodes.push(op);
        (self.nodes.len() - 1) as u32
    }

    fn lower_id(
        &mut self,
        arena: &Arena,
        id: FormulaId,
        slots: &SlotMap,
        memo: &mut HashMap<FormulaId, u32>,
    ) -> Result<u32, CompileError> {
        if let Some(&n) = memo.get(&id) {
            return Ok(n);
        }
        let n = match arena.node(id) {
            Node::True => self.push(Op::True),
            Node::False => self.push(Op::False),
            Node::Atom { poly, rel } => {
                let p = arena.term(*poly);
                match p.as_constant() {
                    Some(c) if rel.sign_satisfies(c.signum()) => self.push(Op::True),
                    Some(_) => self.push(Op::False),
                    None => {
                        let atom = CompiledAtom::compile(p, *rel, slots)?;
                        self.atoms.push(atom);
                        let idx = (self.atoms.len() - 1) as u32;
                        self.push(Op::Atom(idx))
                    }
                }
            }
            Node::Rel { name, .. } => {
                return Err(CompileError::Relation(arena.rel_name(*name).to_string()))
            }
            Node::Not(g) => {
                let c = self.lower_id(arena, *g, slots, memo)?;
                self.push(Op::Not(c))
            }
            Node::And(fs) | Node::Or(fs) => {
                let is_and = matches!(arena.node(id), Node::And(_));
                let kids: Vec<u32> = fs
                    .iter()
                    .map(|&g| self.lower_id(arena, g, slots, memo))
                    .collect::<Result<_, _>>()?;
                let start = self.children.len() as u32;
                self.children.extend_from_slice(&kids);
                let end = self.children.len() as u32;
                self.push(if is_and {
                    Op::And { start, end }
                } else {
                    Op::Or { start, end }
                })
            }
            Node::Exists(..) | Node::Forall(..) | Node::ExistsAdom(..) | Node::ForallAdom(..) => {
                return Err(CompileError::Quantifier)
            }
        };
        memo.insert(id, n);
        Ok(n)
    }

    /// Evaluates at exact rational slot values, deciding every atom by
    /// exact rational arithmetic alone. No `f64` code runs here, so this
    /// is an independent reference for [`CompiledMatrix::eval_batch`].
    pub fn eval_rats(&self, values: &[Rat]) -> bool {
        assert_eq!(values.len(), self.n_slots, "slot value count mismatch");
        self.exact_node(self.root, values)
    }

    fn exact_node(&self, node: u32, values: &[Rat]) -> bool {
        match self.nodes[node as usize] {
            Op::True => true,
            Op::False => false,
            Op::Atom(i) => {
                let a = &self.atoms[i as usize];
                a.rel
                    .sign_satisfies(a.sign_exact(&|slot| values[slot].clone()))
            }
            Op::Not(c) => !self.exact_node(c, values),
            Op::And { start, end } => self.children[start as usize..end as usize]
                .iter()
                .all(|&c| self.exact_node(c, values)),
            Op::Or { start, end } => self.children[start as usize..end as usize]
                .iter()
                .any(|&c| self.exact_node(c, values)),
        }
    }
}

// ---------------------------------------------------------------------------
// batched (structure-of-arrays) evaluation
// ---------------------------------------------------------------------------

/// Number of point lanes in one [`Batch`] — the structure-of-arrays unit
/// the Monte Carlo estimators sweep. `cqa-approx` schedules its work in
/// chunks of exactly this size, so one scheduling chunk is one batch.
pub const BATCH_LANES: usize = 512;

/// Words per lane bitmask.
const BATCH_WORDS: usize = BATCH_LANES / 64;

/// A [`BATCH_LANES`]-wide bitmask over the lanes of a [`Batch`]. Bits at
/// or above the batch length are always zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneMask {
    words: [u64; BATCH_WORDS],
}

impl LaneMask {
    /// The all-zero mask.
    pub const fn empty() -> LaneMask {
        LaneMask {
            words: [0; BATCH_WORDS],
        }
    }

    /// Ones at every lane below `len`.
    fn full(len: usize) -> LaneMask {
        debug_assert!(len <= BATCH_LANES);
        let mut m = LaneMask::empty();
        for (i, w) in m.words.iter_mut().enumerate() {
            let lo = i * 64;
            if len >= lo + 64 {
                *w = !0;
            } else if len > lo {
                *w = (1u64 << (len - lo)) - 1;
            }
        }
        m
    }

    /// Whether lane `lane` is set.
    pub fn get(&self, lane: usize) -> bool {
        self.words[lane / 64] >> (lane % 64) & 1 == 1
    }

    fn set(&mut self, lane: usize) {
        self.words[lane / 64] |= 1u64 << (lane % 64);
    }

    /// Number of set lanes.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn and(self, o: LaneMask) -> LaneMask {
        let mut m = self;
        for (w, ow) in m.words.iter_mut().zip(o.words) {
            *w &= ow;
        }
        m
    }

    fn or(self, o: LaneMask) -> LaneMask {
        let mut m = self;
        for (w, ow) in m.words.iter_mut().zip(o.words) {
            *w |= ow;
        }
        m
    }
}

/// A chunk of up to [`BATCH_LANES`] evaluation points in column-major
/// (structure-of-arrays) layout: one contiguous `f64` value column and one
/// error column per slot, plus a per-slot exactness flag. Fillers must set
/// the length first ([`Batch::set_len`]) and then populate every slot
/// column; lanes beyond the length are ignored.
#[derive(Clone, Debug)]
pub struct Batch {
    n_slots: usize,
    len: usize,
    /// `n_slots × BATCH_LANES`, column-major by slot.
    values: Vec<f64>,
    errs: Vec<f64>,
    /// Per slot: the error column is known all-zero, so the column holds
    /// the slot values *exactly* (e.g. dyadic witness samples).
    exact: Vec<bool>,
}

impl Batch {
    /// An empty batch with `n_slots` value columns.
    pub fn new(n_slots: usize) -> Batch {
        Batch {
            n_slots,
            len: 0,
            values: vec![0.0; n_slots * BATCH_LANES],
            errs: vec![0.0; n_slots * BATCH_LANES],
            exact: vec![true; n_slots],
        }
    }

    /// Number of slot columns.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of active lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no lanes are active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the number of active lanes (≤ [`BATCH_LANES`]). Call before
    /// filling columns; lane contents are *not* cleared.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= BATCH_LANES, "batch of {len} lanes exceeds capacity");
        self.len = len;
    }

    /// The value column of `slot` for direct filling, marking the slot
    /// exact (error zero) — the contract for dyadic witness samples.
    pub fn col_mut(&mut self, slot: usize) -> &mut [f64] {
        let len = self.len;
        &mut self.cols_mut(slot, 1)[..len]
    }

    /// The value columns of slots `first .. first + n` for direct filling,
    /// back to back: slot `first + d`'s column starts at `d ·`
    /// [`BATCH_LANES`], and only its first [`Batch::len`] lanes are read.
    /// Marks every one exact, as [`Batch::col_mut`] does for one slot.
    pub fn cols_mut(&mut self, first: usize, n: usize) -> &mut [f64] {
        for slot in first..first + n {
            if !self.exact[slot] {
                self.err_range_mut(slot).fill(0.0);
                self.exact[slot] = true;
            }
        }
        &mut self.values[first * BATCH_LANES..(first + n) * BATCH_LANES]
    }

    /// Broadcasts one value (e.g. a query parameter) into every lane of
    /// `slot`, with a per-lane absolute error bound.
    pub fn set_uniform(&mut self, slot: usize, value: f64, err: f64) {
        self.values[slot * BATCH_LANES..][..self.len].fill(value);
        self.err_range_mut(slot).fill(err);
        self.exact[slot] = err == 0.0;
    }

    /// Fills the column of `slot` from exact rational values via
    /// [`rat_to_f64_err`], recording per-lane conversion error bounds.
    ///
    /// # Panics
    /// Panics if `vals.len()` differs from the batch length.
    pub fn set_col_rats(&mut self, slot: usize, vals: &[Rat]) {
        assert_eq!(vals.len(), self.len, "column length mismatch");
        let mut all_exact = true;
        for (lane, r) in vals.iter().enumerate() {
            let (v, e) = rat_to_f64_err(r);
            self.values[slot * BATCH_LANES + lane] = v;
            self.errs[slot * BATCH_LANES + lane] = e;
            all_exact &= e == 0.0;
        }
        self.exact[slot] = all_exact;
    }

    /// The `f64` value of `slot` at `lane`.
    pub fn value(&self, slot: usize, lane: usize) -> f64 {
        debug_assert!(lane < self.len);
        self.values[slot * BATCH_LANES + lane]
    }

    /// The value column of `slot`: its first [`Batch::len`] lanes.
    pub fn col(&self, slot: usize) -> &[f64] {
        &self.values[slot * BATCH_LANES..][..self.len]
    }

    /// The lanes at which slot `d`'s value lies in `bx[d] = (lo, hi)`,
    /// closed at both ends, for every `d < bx.len()`. Each 64-lane word is
    /// built the way `sign_masks` builds its words: the two comparisons'
    /// all-ones-or-zero mask selects the lane's bit from a table, so the
    /// pass has no branch and vectorizes, and slots fold in with one `&`
    /// per word.
    pub fn lanes_in_box(&self, bx: &[(f64, f64)]) -> LaneMask {
        let mut m = LaneMask::full(self.len);
        for (slot, &(lo, hi)) in bx.iter().enumerate() {
            for (word, chunk) in m.words.iter_mut().zip(self.col(slot).chunks(64)) {
                let mut inside = 0u64;
                for (&v, &bit) in chunk.iter().zip(&LANE_BIT) {
                    inside |= bit & 0u64.wrapping_sub(((v >= lo) & (v <= hi)) as u64);
                }
                *word &= inside;
            }
        }
        m
    }

    /// Copies the lanes of `keep` into `out`, in lane order and back to
    /// back: `out` gets `keep.count()` lanes and every slot's value and
    /// error column. The kept lane indices come from the mask's set bits,
    /// a word at a time.
    ///
    /// # Panics
    /// Panics if the batches' slot counts differ.
    pub fn compact_into(&self, keep: &LaneMask, out: &mut Batch) {
        assert_eq!(self.n_slots, out.n_slots, "batch slot count mismatch");
        let mut lanes = [0u16; BATCH_LANES];
        let mut kept = 0;
        for (w, &word) in keep.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                lanes[kept] = (w * 64) as u16 + bits.trailing_zeros() as u16;
                kept += 1;
                bits &= bits - 1;
            }
        }
        let lanes = &lanes[..kept];
        debug_assert!(lanes.last().is_none_or(|&l| usize::from(l) < self.len));
        out.len = kept;
        for slot in 0..self.n_slots {
            let at = slot * BATCH_LANES;
            for (o, &lane) in out.values[at..].iter_mut().zip(lanes) {
                *o = self.values[at + lane as usize];
            }
            if self.exact[slot] {
                if !out.exact[slot] {
                    out.err_range_mut(slot).fill(0.0);
                }
            } else {
                for (o, &lane) in out.errs[at..].iter_mut().zip(lanes) {
                    *o = self.errs[at + lane as usize];
                }
            }
            out.exact[slot] = self.exact[slot];
        }
    }

    fn err_col(&self, slot: usize) -> &[f64] {
        &self.errs[slot * BATCH_LANES..][..self.len]
    }

    fn err_range_mut(&mut self, slot: usize) -> &mut [f64] {
        &mut self.errs[slot * BATCH_LANES..][..BATCH_LANES]
    }
}

/// Flat per-lane working buffers for the atom sweeps.
#[derive(Debug, Default)]
struct LaneBufs {
    /// Current term value / error per lane.
    tv: Vec<f64>,
    te: Vec<f64>,
    /// Accumulated polynomial value / error per lane.
    accv: Vec<f64>,
    acce: Vec<f64>,
}

/// Reusable scratch for [`CompiledMatrix::eval_batch`]: lane buffers, the
/// per-atom sign plane, and the per-node mask memo. One scratch per worker
/// thread; `eval_batch` resizes it to the kernel on every call, so a single
/// scratch serves kernels of any shape with no per-batch allocation once
/// warm.
#[derive(Debug, Default)]
pub struct BatchScratch {
    bufs: LaneBufs,
    /// Per slot: `max |value|` over the batch's lanes (exact columns
    /// only) — the shared ingredient of every atom's uniform error bound.
    col_max: Vec<f64>,
    /// Per node: memoized `(true-lanes, false-lanes)` masks.
    node_memo: Vec<Option<(LaneMask, LaneMask)>>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn reset(&mut self, m: &CompiledMatrix, batch: &Batch) {
        let b = &mut self.bufs;
        for buf in [&mut b.tv, &mut b.te, &mut b.accv, &mut b.acce] {
            buf.resize(BATCH_LANES, 0.0);
        }
        self.col_max.clear();
        for slot in 0..batch.n_slots() {
            self.col_max.push(if batch.exact[slot] {
                abs_max(batch.col(slot))
            } else {
                // Inexact columns route through the guarded sweep, which
                // carries its own per-lane error column.
                f64::NAN
            });
        }
        self.node_memo.clear();
        self.node_memo.resize(m.nodes.len(), None);
    }
}

/// `max |x|` over `xs` (0 when empty), folded into eight independent
/// accumulators so the loop vectorizes. The max ignores NaN and is
/// otherwise order-free, so the value is the sequential
/// `fold(0.0, f64::max)`'s.
fn abs_max(xs: &[f64]) -> f64 {
    // `f64::max`, spelled as the select one `maxpd` computes: both keep
    // the accumulator when the lane is NaN.
    let max = |m: f64, x: f64| if x > m { x } else { m };
    let mut m = [0.0f64; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        for (m, &x) in m.iter_mut().zip(c) {
            *m = max(*m, x.abs());
        }
    }
    for &x in chunks.remainder() {
        m[0] = max(m[0], x.abs());
    }
    m.into_iter().fold(0.0, max)
}

/// Outcome of one [`CompiledMatrix::eval_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Lanes at which the matrix holds.
    pub mask: LaneMask,
    /// Lanes fully decided by the certified `f64` mask sweep.
    pub fast_lanes: usize,
    /// Lanes that re-ran through the exact rational path.
    pub exact_lanes: usize,
}

/// Lane counters accumulated across many [`CompiledMatrix::eval_batch`]
/// calls: how many sample lanes the certified `f64` sweep decided outright
/// vs how many re-ran through the exact rational path. A rising fallback
/// rate turns a silent slowdown into a visible number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Lanes decided by the certified fast path.
    pub fast: u64,
    /// Lanes that took the exact fallback.
    pub exact: u64,
}

impl LaneStats {
    /// Folds one batch outcome in.
    pub fn add(&mut self, r: &BatchResult) {
        self.fast += r.fast_lanes as u64;
        self.exact += r.exact_lanes as u64;
    }

    /// Merges another accumulator in.
    pub fn merge(&mut self, o: LaneStats) {
        self.fast += o.fast;
        self.exact += o.exact;
    }
}

/// `LANE_BIT[b]` = bit `b` of a 64-lane mask word.
const LANE_BIT: [u64; 64] = {
    let mut bits = [0u64; 64];
    let mut b = 0;
    while b < 64 {
        bits[b] = 1 << b;
        b += 1;
    }
    bits
};

/// The certified `(true-lanes, false-lanes)` masks of lane values `vals`
/// under per-lane error bounds `err(lane)`: a lane is certified positive
/// when `v > err` and negative when `v < −err`, and decided by the
/// relation's verdict on that sign. NaN-safe: a poisoned value or bound
/// fails both comparisons and the lane stays undecided; so does an `∞`
/// value under an `∞` bound. A bound is never zero, so neither is a
/// decided value.
///
/// Each 64-lane word is built from the two comparisons alone, with no
/// branch and no per-lane sign logic: a comparison's all-ones-or-zero
/// mask selects the lane's bit from [`LANE_BIT`] (a load, not a
/// variable shift, so the pass vectorizes). The relation's verdict then
/// picks the positive and negative words apart once per word.
#[inline(always)]
fn sign_masks(
    vals: &[f64],
    err: impl Fn(usize) -> f64,
    sat_pos: bool,
    sat_neg: bool,
) -> (LaneMask, LaneMask) {
    let (mut t, mut f) = (LaneMask::empty(), LaneMask::empty());
    // All ones where a certified sign satisfies the relation.
    let (sp, sn) = (
        0u64.wrapping_sub(sat_pos as u64),
        0u64.wrapping_sub(sat_neg as u64),
    );
    for (w, chunk) in vals.chunks(64).enumerate() {
        let (mut pos, mut neg) = (0u64, 0u64);
        for (b, (&v, &bit)) in chunk.iter().zip(&LANE_BIT).enumerate() {
            let e = err(w * 64 + b);
            pos |= bit & 0u64.wrapping_sub((v > e) as u64);
            neg |= bit & 0u64.wrapping_sub((v < -e) as u64);
        }
        t.words[w] = (pos & sp) | (neg & sn);
        f.words[w] = (pos & !sp) | (neg & !sn);
    }
    (t, f)
}

/// One fused lane pass of a term's contribution, `acc ← acc +
/// ((c·f₁)·f₂)·…`: the factor columns multiplied in `factors` order, the
/// product added last — on the `FIRST` pass to `init` rather than to the
/// accumulator, which that pass only writes. The certified lane sets
/// pinned in `kernel_parity` hold every lane to this operation order.
/// Terms of degree ≤ 2 take one pass; each further factor one more
/// multiply pass through `tv`.
#[inline(always)]
fn term_pass<const FIRST: bool>(
    acc: &mut [f64],
    tv: &mut [f64],
    init: f64,
    c: f64,
    factors: &[u32],
    batch: &Batch,
) {
    let add = |a: &mut f64, v: f64| *a = if FIRST { init } else { *a } + v;
    match factors {
        [] => acc.iter_mut().for_each(|a| add(a, c)),
        [s1] => {
            for (a, &x) in acc.iter_mut().zip(batch.col(*s1 as usize)) {
                add(a, c * x);
            }
        }
        [s1, s2] => {
            let (xs, ys) = (batch.col(*s1 as usize), batch.col(*s2 as usize));
            for ((a, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
                add(a, (c * x) * y);
            }
        }
        [s1, s2, mid @ .., last] => {
            let (xs, ys) = (batch.col(*s1 as usize), batch.col(*s2 as usize));
            for ((v, &x), &y) in tv.iter_mut().zip(xs).zip(ys) {
                *v = (c * x) * y;
            }
            for &s in mid {
                for (v, &x) in tv.iter_mut().zip(batch.col(s as usize)) {
                    *v *= x;
                }
            }
            for ((a, &v), &x) in acc.iter_mut().zip(tv.iter()).zip(batch.col(*last as usize)) {
                add(a, v * x);
            }
        }
    }
}

impl CompiledAtom {
    /// Sweeps this atom across all active lanes of `batch`, returning the
    /// certified `(true-lanes, false-lanes)` masks for its relation.
    ///
    /// Two regimes, chosen by the inputs alone. When every referenced slot
    /// column is exact, the value column is accumulated with flat
    /// multiply/add lane loops and certified against a *uniform* per-chunk
    /// error bound built from the per-slot column maxima in `col_max`:
    ///
    /// ```text
    /// e = (Σ_t |ĉ_t|·Π max|col|^exp) · PAD2 · gamma
    ///   + (Σ_t err_t·Π max|col|^exp) · PAD2 + MIN_POSITIVE
    /// ```
    ///
    /// where `ĉ_t` is the `f64` coefficient and `err_t` its conversion
    /// error ([`CompiledAtom::coeff_slack`]). The first sum dominates every
    /// lane's Σ|computed term| (PAD2 absorbs the rounding in forming it),
    /// so it bounds the rounding of the sweep against the `f64`
    /// coefficients' polynomial; the second bounds how far the exact
    /// coefficients' polynomial lies from that one. Both are one scalar
    /// per atom instead of a second accumulated column, and the
    /// `MIN_POSITIVE` covers absolute rounding slop in the subnormal range,
    /// where relative bounds fail (so an exactly-zero value is never
    /// certified here; those lanes take the exact path). Each term is one
    /// fused lane pass `acc ← acc + (c·x)·y` (a `term_pass`), plus one
    /// multiply pass per factor past the second; the constant term sorts
    /// first and is the first pass's initial value, so an affine atom costs
    /// one pass per variable. Otherwise — some input column carries
    /// per-lane error — the sweep carries a full error column through
    /// [`mul_err`]/[`add_err`], term by term: the coefficient and its
    /// conversion error, times each factor in turn, added to the sum.
    ///
    /// Either way every certified sign is the true sign, so downstream
    /// results are bit-identical to the exact tree walk. The sweep emits
    /// the relation's `(true-lanes, false-lanes)` masks directly — an
    /// unset lane in both masks is uncertified and re-runs exactly.
    fn batch_masks(
        &self,
        batch: &Batch,
        bufs: &mut LaneBufs,
        col_max: &[f64],
        len: usize,
    ) -> (LaneMask, LaneMask) {
        debug_assert_eq!(len, batch.len());
        // `true`-mask membership per certified sign of the polynomial.
        let sat_neg = self.rel.sign_satisfies(-1);
        let sat_pos = self.rel.sign_satisfies(1);
        let exact_inputs = self
            .terms
            .iter()
            .all(|t| t.powers.iter().all(|&(s, _)| batch.exact[s as usize]));
        let accv = &mut bufs.accv[..len];
        if exact_inputs {
            let mut sum_abs = 0.0f64;
            // The accumulator's value before the first pass: the constant
            // term, which sorts first, rides in on the next term's pass.
            let mut init = 0.0f64;
            let mut passes = 0;
            let tv = &mut bufs.tv[..len];
            for t in &self.terms {
                let mut tmax = t.coeff_f64.abs();
                for &(slot, exp) in &t.powers {
                    tmax *= col_max[slot as usize].powi(exp as i32);
                }
                sum_abs += tmax;
                if passes == 0 && t.factors.is_empty() {
                    init = 0.0 + t.coeff_f64;
                } else if passes == 0 {
                    term_pass::<true>(accv, tv, init, t.coeff_f64, &t.factors, batch);
                    passes += 1;
                } else {
                    term_pass::<false>(accv, tv, init, t.coeff_f64, &t.factors, batch);
                }
            }
            if passes == 0 {
                accv.fill(init);
            }
            // An ∞ coefficient error over an all-zero column makes `e`
            // NaN (`∞·0`), which certifies no lane (see [`sign_masks`]).
            // `e > 0` always, so an exactly-zero lane is never certified.
            let e =
                sum_abs * PAD2 * self.gamma + self.coeff_slack(col_max) * PAD2 + f64::MIN_POSITIVE;
            sign_masks(accv, |_| e, sat_pos, sat_neg)
        } else {
            let acce = &mut bufs.acce[..len];
            accv.fill(0.0);
            acce.fill(0.0);
            let tv = &mut bufs.tv[..len];
            let te = &mut bufs.te[..len];
            for t in &self.terms {
                tv.fill(t.coeff_f64);
                te.fill(t.coeff_err);
                for &(slot, exp) in &t.powers {
                    let xs = batch.col(slot as usize);
                    let xe = batch.err_col(slot as usize);
                    for _ in 0..exp {
                        for ((v, e), (&x, &xerr)) in
                            tv.iter_mut().zip(te.iter_mut()).zip(xs.iter().zip(xe))
                        {
                            (*v, *e) = mul_err(*v, *e, x, xerr);
                        }
                    }
                }
                for ((a, ae), (&v, &e)) in accv
                    .iter_mut()
                    .zip(acce.iter_mut())
                    .zip(tv.iter().zip(te.iter()))
                {
                    (*a, *ae) = add_err(*a, *ae, v, e);
                }
            }
            sign_masks(accv, |lane| acce[lane], sat_pos, sat_neg)
        }
    }

    /// `Σ_t err_t · Π max|col|^exp` over the terms whose coefficient does
    /// not convert to `f64` exactly: a bound, over every lane of an
    /// exact-input batch, on how far the exact coefficients move the value
    /// from the `f64` coefficients' one. `gamma`'s slack covers an ordinary
    /// coefficient's ≤ 2⁻⁵³ relative error, but not one that underflows to
    /// `0.0` (`3⁻⁷⁰⁰·x` at `x = 2¹⁰⁰⁰` is ≈ 2⁻¹¹⁰, while its `f64` term is
    /// 0); this term does. Zero for exact coefficients.
    fn coeff_slack(&self, col_max: &[f64]) -> f64 {
        let mut slack = 0.0f64;
        for t in self.terms.iter().filter(|t| t.coeff_err != 0.0) {
            let mut m = t.coeff_err;
            for &(slot, exp) in &t.powers {
                m *= col_max[slot as usize].powi(exp as i32);
            }
            slack += m;
        }
        slack
    }
}

impl CompiledMatrix {
    /// Evaluates the matrix at every active lane of `batch` in one sweep.
    ///
    /// Atoms are evaluated lazily as whole columns ([`CompiledAtom::
    /// batch_masks`]); the boolean program then runs on per-node
    /// `(true-lanes, false-lanes)` [`LaneMask`] pairs in three-valued
    /// logic, short-circuiting an entire subtree (and the atom sweeps
    /// under it) once every lane of a conjunction is false or of a
    /// disjunction true. Lanes still undecided at the root — the atoms'
    /// error bounds admitted a sign flip — re-run individually, found word
    /// by word with `trailing_zeros` rather than by testing every lane:
    /// memoized node masks answer what the sweep certified, and the
    /// uncertified atoms fall back to `exact(lane, slot)` rational
    /// evaluation, so the returned mask is bit-identical to per-point
    /// [`CompiledMatrix::eval_rats`] at the same exact slot values.
    ///
    /// `scratch` is reusable across calls and kernels; one per worker
    /// thread.
    pub fn eval_batch(
        &self,
        batch: &Batch,
        exact: &dyn Fn(usize, usize) -> Rat,
        scratch: &mut BatchScratch,
    ) -> BatchResult {
        assert_eq!(batch.n_slots(), self.n_slots, "batch slot count mismatch");
        let len = batch.len();
        scratch.reset(self, batch);
        let (t, f) = self.batch_node(self.root, batch, scratch);
        let decided = t.or(f);
        let mut mask = t;
        let mut exact_lanes = 0;
        for (w, (&all, &dec)) in LaneMask::full(len)
            .words
            .iter()
            .zip(&decided.words)
            .enumerate()
        {
            let mut undecided = all & !dec;
            while undecided != 0 {
                let lane = w * 64 + undecided.trailing_zeros() as usize;
                undecided &= undecided - 1;
                exact_lanes += 1;
                if self.lane_node(self.root, lane, scratch, exact) {
                    mask.set(lane);
                }
            }
        }
        BatchResult {
            mask,
            fast_lanes: len - exact_lanes,
            exact_lanes,
        }
    }

    /// Three-valued mask evaluation of `node`: lanes certainly true and
    /// lanes certainly false (disjoint; the remainder is undecided).
    /// Memoized per node, so dag-shared subprograms sweep once.
    fn batch_node(&self, node: u32, batch: &Batch, sc: &mut BatchScratch) -> (LaneMask, LaneMask) {
        if let Some(r) = sc.node_memo[node as usize] {
            return r;
        }
        let len = batch.len();
        let r = match self.nodes[node as usize] {
            Op::True => (LaneMask::full(len), LaneMask::empty()),
            Op::False => (LaneMask::empty(), LaneMask::full(len)),
            Op::Atom(i) => {
                self.atoms[i as usize].batch_masks(batch, &mut sc.bufs, &sc.col_max, len)
            }
            Op::Not(c) => {
                let (t, f) = self.batch_node(c, batch, sc);
                (f, t)
            }
            op @ (Op::And { start, end } | Op::Or { start, end }) => {
                // De Morgan: an `Or` is an `And` with every child's true
                // and false masks swapped, and its own swapped back.
                let swap = |(t, f), or| if or { (f, t) } else { (t, f) };
                let or = matches!(op, Op::Or { .. });
                let (mut all, mut any) = (LaneMask::full(len), LaneMask::empty());
                for i in start as usize..end as usize {
                    let (c_all, c_any) = swap(self.batch_node(self.children[i], batch, sc), or);
                    all = all.and(c_all);
                    any = any.or(c_any);
                    if any.count() == len {
                        // Every lane already false (of an `Or`: true):
                        // skip the remaining subtrees (and their atom
                        // sweeps) entirely.
                        break;
                    }
                }
                swap((all, any), or)
            }
        };
        sc.node_memo[node as usize] = Some(r);
        r
    }

    /// Scalar evaluation of one undecided lane, reusing the batch sweep's
    /// work: memoized node masks decide shared subtrees and certified
    /// atoms instantly; only uncertified atoms pay the exact rational
    /// evaluation.
    ///
    /// Every node reached here was swept: the root was, and an `And`
    /// (`Or`) stops sweeping its children only once every lane is false
    /// (true) — so a lane still undecided at a node was swept in all of
    /// its children. (An atom that had not been would still be decided
    /// right, by exact arithmetic.)
    fn lane_node(
        &self,
        node: u32,
        lane: usize,
        sc: &BatchScratch,
        exact: &dyn Fn(usize, usize) -> Rat,
    ) -> bool {
        if let Some((t, f)) = sc.node_memo[node as usize] {
            if t.get(lane) {
                return true;
            }
            if f.get(lane) {
                return false;
            }
        }
        match self.nodes[node as usize] {
            Op::True => true,
            Op::False => false,
            Op::Atom(i) => {
                let a = &self.atoms[i as usize];
                a.rel
                    .sign_satisfies(a.sign_exact(&|slot| exact(lane, slot)))
            }
            Op::Not(c) => !self.lane_node(c, lane, sc, exact),
            Op::And { start, end } => self.children[start as usize..end as usize]
                .iter()
                .all(|&c| self.lane_node(c, lane, sc, exact)),
            Op::Or { start, end } => self.children[start as usize..end as usize]
                .iter()
                .any(|&c| self.lane_node(c, lane, sc, exact)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_formula_with;
    use crate::VarMap;
    use cqa_arith::rat;

    fn compile(src: &str, names: &[&str]) -> (CompiledMatrix, SlotMap, Formula) {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        let slots = SlotMap::from_vars(&vs);
        let m = CompiledMatrix::compile(&f, &slots).unwrap();
        (m, slots, f)
    }

    /// One point through both evaluators: the exact reference and a
    /// one-lane batch, which must agree.
    fn eval_both(m: &CompiledMatrix, pt: &[Rat]) -> bool {
        let (got, _) = batch_points(m, &[pt.to_vec()]);
        assert_eq!(got[0], m.eval_rats(pt), "batch vs eval_rats at {pt:?}");
        got[0]
    }

    #[test]
    fn boundary_points_use_exact_fallback() {
        // x + y = 1 exactly on the boundary: the float bound cannot certify
        // a nonzero sign, so the exact path must decide — correctly.
        let (m, _, _) = compile("x + y <= 1", &["x", "y"]);
        assert!(eval_both(&m, &[rat(1, 3), rat(2, 3)]));
        let (strict, _, _) = compile("x + y < 1", &["x", "y"]);
        assert!(!eval_both(&strict, &[rat(1, 3), rat(2, 3)]));
        // Non-dyadic values force conversion error > 0 on every slot.
        assert!(eval_both(&strict, &[rat(1, 3), rat(1, 3)]));
    }

    #[test]
    fn constant_atoms_fold() {
        let (m, _, _) = compile("1 < 2 & x >= 0", &["x"]);
        assert_eq!(m.atom_count(), 1);
        assert!(m.eval_rats(&[rat(0, 1)]));
    }

    #[test]
    fn rejects_quantifiers_relations_and_unbound_vars() {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let slots = SlotMap::from_vars(&[x]);
        let q = parse_formula_with("exists y. x < y", &mut vars).unwrap();
        assert_eq!(
            CompiledMatrix::compile(&q, &slots).unwrap_err(),
            CompileError::Quantifier
        );
        let r = parse_formula_with("T(x)", &mut vars).unwrap();
        assert_eq!(
            CompiledMatrix::compile(&r, &slots).unwrap_err(),
            CompileError::Relation("T".into())
        );
        let y = vars.get("y").unwrap();
        let u = parse_formula_with("x < y", &mut vars).unwrap();
        assert_eq!(
            CompiledMatrix::compile(&u, &slots).unwrap_err(),
            CompileError::UnboundVar(y)
        );
    }

    #[test]
    fn slot_map_resolution() {
        let (p, q, r) = (Var(3), Var(7), Var(1));
        let slots = SlotMap::new(&[&[p, q], &[r]]);
        assert_eq!(slots.len(), 3);
        assert_eq!(slots.slot(q), Some(1));
        assert_eq!(slots.slot(r), Some(2));
        assert_eq!(slots.slot(Var(0)), None);
        let vals = vec![rat(1, 1), rat(2, 1), rat(3, 1)];
        let asg = slots.assignment(&vals);
        assert_eq!(asg(r), rat(3, 1));
        assert_eq!(asg(Var(9)), rat(0, 1));
    }

    #[test]
    fn conversion_error_is_zero_for_dyadics() {
        let (_, e) = rat_to_f64_err(&rat(3, 8));
        assert_eq!(e, 0.0);
        let (_, e) = rat_to_f64_err(&rat(1, 3));
        assert!(e > 0.0 && e < 1e-15);
    }

    #[test]
    fn arena_compile_memoizes_shared_nodes() {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let f = parse_formula_with("(x < 1 & x > 0) | (x < 1 & x > 0) | x < 1", &mut vars).unwrap();
        let slots = SlotMap::from_vars(&[x]);
        let dag = CompiledMatrix::compile(&f, &slots).unwrap();
        // The repeated conjunction and the repeated atoms compile once:
        // two atoms of the tree's five, one `And`, one `Or`.
        assert_eq!((dag.atom_count(), dag.nodes.len()), (2, 4));
        for xn in -4..=4 {
            let vals = vec![rat(xn, 2)];
            let want = f.eval(&slots.assignment(&vals), &[]).unwrap();
            assert_eq!(dag.eval_rats(&vals), want, "x = {xn}/2");
        }
    }

    #[test]
    fn huge_values_fall_back_exactly() {
        // 10^200 · x − 1 > 0 at x = 10⁻²⁰⁰ + tiny: f64 overflows/loses the
        // signal; the exact path must still decide correctly.
        let ten200 = rat(10, 1).pow(200);
        let x = Var(0);
        let poly = MPoly::var(x).scale(&ten200) - MPoly::one();
        let f = Formula::Atom(crate::Atom::new(poly, Rel::Gt));
        let slots = SlotMap::from_vars(&[x]);
        let m = CompiledMatrix::compile(&f, &slots).unwrap();
        let eps = &ten200.recip() + &rat(10, 1).pow(-300);
        assert!(eval_both(&m, &[eps]));
        assert!(!eval_both(&m, &[ten200.recip()]));
    }

    /// Evaluates `pts` through one batch, returning per-point booleans and
    /// the batch result.
    fn batch_points(m: &CompiledMatrix, pts: &[Vec<Rat>]) -> (Vec<bool>, BatchResult) {
        let mut batch = Batch::new(m.slot_count());
        batch.set_len(pts.len());
        for slot in 0..m.slot_count() {
            let col: Vec<Rat> = pts.iter().map(|p| p[slot].clone()).collect();
            batch.set_col_rats(slot, &col);
        }
        let mut scratch = BatchScratch::new();
        let exact = |lane: usize, slot: usize| pts[lane][slot].clone();
        let r = m.eval_batch(&batch, &exact, &mut scratch);
        ((0..pts.len()).map(|l| r.mask.get(l)).collect(), r)
    }

    #[test]
    fn lane_mask_basics() {
        let mut m = LaneMask::empty();
        assert_eq!(m.count(), 0);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(511);
        assert_eq!(m.count(), 4);
        assert!(m.get(64) && !m.get(65));
        assert_eq!(LaneMask::full(0), LaneMask::empty());
        assert_eq!(LaneMask::full(BATCH_LANES).count(), BATCH_LANES);
        let f = LaneMask::full(70);
        assert_eq!(f.count(), 70);
        assert!(f.get(69) && !f.get(70));
        assert_eq!(f.and(m).count(), 3);
        assert_eq!(f.or(m), f.or(m).or(m));
    }

    #[test]
    fn box_lanes_and_compaction_match_a_per_lane_loop() {
        // Lanes on both closed ends, just outside them, and a short tail.
        let len = 300;
        let mut batch = Batch::new(3);
        batch.set_len(len);
        for slot in 0..2 {
            let col = batch.col_mut(slot);
            for (lane, v) in col.iter_mut().enumerate() {
                *v = ((lane * (7 + slot) + slot) % 41) as f64 / 40.0;
            }
        }
        let third: Vec<Rat> = (0..len as i64)
            .map(|l| Rat::new(l.into(), 3.into()))
            .collect();
        batch.set_col_rats(2, &third);
        let bx = [(0.25, 0.75), (0.0, 0.5)];
        let keep = batch.lanes_in_box(&bx);
        let want: Vec<usize> = (0..len)
            .filter(|&l| {
                bx.iter()
                    .enumerate()
                    .all(|(d, &(lo, hi))| (lo..=hi).contains(&batch.value(d, l)))
            })
            .collect();
        assert_eq!((0..len).filter(|&l| keep.get(l)).collect::<Vec<_>>(), want);
        let mut out = Batch::new(3);
        out.set_len(BATCH_LANES);
        out.set_col_rats(0, &vec![Rat::new(1.into(), 3.into()); BATCH_LANES]);
        batch.compact_into(&keep, &mut out);
        assert_eq!(out.len(), want.len());
        for slot in 0..3 {
            assert_eq!(out.exact[slot], batch.exact[slot], "slot {slot}");
            for (i, &l) in want.iter().enumerate() {
                assert_eq!(out.value(slot, i), batch.value(slot, l));
                assert_eq!(out.err_col(slot)[i], batch.err_col(slot)[l]);
            }
        }
    }

    #[test]
    fn batch_and_eval_rats_agree_with_interpreter_on_grid() {
        let (m, slots, f) = compile(
            "(x + y <= 1 | x*x + y*y < 1) & !(x = y) | 2*x - 3*y >= 1",
            &["x", "y"],
        );
        let pts: Vec<Vec<Rat>> = (-6..=6)
            .flat_map(|xn| (-6..=6).map(move |yn| vec![rat(xn, 4), rat(yn, 4)]))
            .collect();
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(r.fast_lanes + r.exact_lanes, pts.len());
        for (pt, got) in pts.iter().zip(got) {
            let want = f.eval(&slots.assignment(pt), &[]).unwrap();
            assert_eq!((got, m.eval_rats(pt)), (want, want), "at {pt:?}");
        }
    }

    #[test]
    fn batch_boundary_lane_takes_exact_fallback() {
        let (m, _, _) = compile("x + y <= 1", &["x", "y"]);
        // Lane 1 sits exactly on the boundary: the sweep cannot certify a
        // zero with a nonzero error column, so exactly that lane re-runs
        // through the exact rational path — and still decides true.
        let pts = vec![
            vec![rat(1, 8), rat(1, 4)],
            vec![rat(1, 4), rat(3, 4)],
            vec![rat(7, 8), rat(7, 8)],
        ];
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(got, vec![true, true, false]);
        assert_eq!(r.exact_lanes, 1);
        assert_eq!(r.fast_lanes, 2);
    }

    #[test]
    fn batch_uniform_inexact_param_uses_guarded_sweep() {
        // Slot 0 is a broadcast parameter a = 1/3 with conversion error:
        // the guarded sweep must carry the error column and the strict
        // comparison a < x must still be decided exactly at x = 1/3.
        let (m, _, _) = compile("a < x", &["a", "x"]);
        let a = rat(1, 3);
        let xs = [rat(1, 3), rat(1, 2), rat(1, 4)];
        let mut batch = Batch::new(2);
        batch.set_len(xs.len());
        let (af, ae) = rat_to_f64_err(&a);
        assert!(ae > 0.0);
        batch.set_uniform(0, af, ae);
        batch.set_col_rats(1, &xs);
        let mut scratch = BatchScratch::new();
        let exact = |lane: usize, slot: usize| {
            if slot == 0 {
                a.clone()
            } else {
                xs[lane].clone()
            }
        };
        let r = m.eval_batch(&batch, &exact, &mut scratch);
        assert!(!r.mask.get(0), "1/3 < 1/3 is false");
        assert!(r.mask.get(1));
        assert!(!r.mask.get(2));
        assert!(r.exact_lanes >= 1, "boundary lane must go exact");
    }

    #[test]
    fn batch_scratch_reuse_across_kernels() {
        let (m1, _, _) = compile("x + y <= 1", &["x", "y"]);
        let (m2, _, _) = compile("x*x + y*y < 1 & x > 0 & y > 0", &["x", "y"]);
        let pts: Vec<Vec<Rat>> = (0..20).map(|i| vec![rat(i, 20), rat(19 - i, 17)]).collect();
        let mut scratch = BatchScratch::new();
        for m in [&m1, &m2, &m1] {
            let mut batch = Batch::new(2);
            batch.set_len(pts.len());
            for slot in 0..2 {
                let col: Vec<Rat> = pts.iter().map(|p| p[slot].clone()).collect();
                batch.set_col_rats(slot, &col);
            }
            let exact = |lane: usize, slot: usize| pts[lane][slot].clone();
            let r = m.eval_batch(&batch, &exact, &mut scratch);
            for (lane, pt) in pts.iter().enumerate() {
                assert_eq!(r.mask.get(lane), m.eval_rats(pt), "at {pt:?}");
            }
        }
    }

    /// A one-atom kernel over slots `x, y` from an explicit polynomial.
    fn atom_kernel(poly: MPoly, rel: Rel) -> CompiledMatrix {
        let f = Formula::Atom(crate::Atom::new(poly, rel));
        CompiledMatrix::compile(&f, &SlotMap::from_vars(&[Var(0), Var(1)])).unwrap()
    }

    #[test]
    fn underflowing_coefficient_is_carried_by_the_uniform_bound() {
        // 3⁻⁷⁰⁰ converts to 0.0, so the f64 sweep computes only y. At
        // x = 2¹⁰⁰⁰ the true first term is ≈ 2⁻¹¹⁰, far above |y| = 2⁻¹³³:
        // the atom holds. Without the coefficient term the uniform bound
        // is ≈ 2⁻¹⁸³ and would certify that lane false.
        let c = rat(3, 1).pow(-700);
        assert_eq!(rat_to_f64_err(&c).0, 0.0);
        let m = atom_kernel(MPoly::var(Var(0)).scale(&c) + MPoly::var(Var(1)), Rel::Gt);
        let pts = vec![
            vec![rat(2, 1).pow(1000), -rat(2, 1).pow(-133)],
            vec![rat(1, 2), rat(2, 1).pow(-140)],
            vec![rat(0, 1), -rat(2, 1).pow(-140)],
        ];
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(got, vec![true, true, false]);
        // The term widens the bound to ≈ 2⁻²² (3⁻⁷⁰⁰'s error bound is
        // MIN_POSITIVE = 2⁻¹⁰²², times the 2¹⁰⁰⁰ column max), so no lane
        // of this batch is certified.
        assert_eq!((r.fast_lanes, r.exact_lanes), (0, 3));
        // With ordinary columns the same atom stays on the fast path.
        let pts = vec![vec![rat(1, 2), rat(1, 4)], vec![rat(1, 4), -rat(1, 8)]];
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(got, vec![true, false]);
        assert_eq!((r.fast_lanes, r.exact_lanes), (2, 0));
    }

    #[test]
    fn infinite_coefficient_error_over_a_zero_column_goes_exact() {
        // 3⁷⁰⁰ is past f64::MAX: its image is 0.0 with an ∞ error bound.
        // Over an all-zero x column the bound's term is ∞·0 = NaN, which
        // certifies nothing, so every lane is decided exactly.
        let c = rat(3, 1).pow(700);
        assert_eq!(rat_to_f64_err(&c), (0.0, f64::INFINITY));
        let m = atom_kernel(MPoly::var(Var(0)).scale(&c) + MPoly::var(Var(1)), Rel::Ge);
        let pts = vec![
            vec![rat(0, 1), rat(1, 4)],
            vec![rat(0, 1), -rat(1, 4)],
            vec![rat(0, 1), rat(0, 1)],
        ];
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(got, vec![true, false, true]);
        assert_eq!((r.fast_lanes, r.exact_lanes), (0, 3));
        // A nonzero x column makes the bound ∞: still nothing certified.
        let pts = vec![vec![rat(1, 2), -rat(1, 4)], vec![-rat(1, 2), rat(1, 4)]];
        let (got, r) = batch_points(&m, &pts);
        assert_eq!(got, vec![true, false]);
        assert_eq!(r.exact_lanes, 2);
    }

    #[test]
    fn subnormal_rounding_certifies_no_sign() {
        // At x = 2⁻⁶⁰⁰ and y = z = w = 2⁻⁴⁷⁷ the three terms are 13/8,
        // −19/8 and 5/8 of 2⁻¹⁰⁷⁴, which round to 2, −2 and 1 of it: the
        // f64 sum is +2⁻¹⁰⁷⁴ while the true one is −2⁻¹⁰⁷⁷. Every relative
        // bound underflows to 0 here, so only an absolute one is sound.
        let (m, _, _) = compile("13*x*y - 19*x*z + 5*x*w > 0", &["x", "y", "z", "w"]);
        let tiny = rat(2, 1).pow(-477);
        let lane = vec![rat(2, 1).pow(-600), tiny.clone(), tiny.clone(), tiny];
        // Alone, the lane's columns are exact (the uniform bound); beside
        // a lane with x = 1/3, column x is not (the guarded sweep).
        let inexact = vec![rat(1, 3), rat(1, 2), rat(1, 2), rat(1, 2)];
        for pts in [vec![lane.clone()], vec![lane, inexact]] {
            let (got, r) = batch_points(&m, &pts);
            assert!(!got[0], "the true sum is negative");
            assert_eq!(got, pts.iter().map(|p| m.eval_rats(p)).collect::<Vec<_>>());
            assert!(r.exact_lanes >= 1, "lane 0 must go exact");
        }
    }

    #[test]
    fn non_dyadic_coefficients_over_exact_columns_stay_fast() {
        // 1/25 is inexact in f64, but the columns are exact: the uniform
        // regime certifies every lane off the circle.
        let (m, _, _) = compile(
            "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/25",
            &["x", "y"],
        );
        let pts: Vec<Vec<Rat>> = (0..16).map(|i| vec![rat(i, 16), rat(15 - i, 32)]).collect();
        let (got, r) = batch_points(&m, &pts);
        for (pt, got) in pts.iter().zip(got) {
            assert_eq!(got, m.eval_rats(pt), "at {pt:?}");
        }
        assert_eq!(r.exact_lanes, 0);
    }

    #[test]
    fn batch_empty_is_empty() {
        let (m, _, _) = compile("x >= 0", &["x"]);
        let (got, r) = batch_points(&m, &[]);
        assert!(got.is_empty());
        assert_eq!(r, BatchResult::default());
    }
}
