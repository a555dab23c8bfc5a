//! Exact volumes and integrals over semi-linear sets by the sweep in the
//! proof of the paper's Theorem 3 (§6.1), in every dimension, on the DNF
//! cells' rows `a·x ≤ b`:
//!
//! 1. **breakpoints** on `x₁` are the `x₁`-values of the flats of the
//!    cells' hyperplane arrangement on which `x₁` is constant — every point
//!    where `n` hyperplanes meet, every hyperplane `x₁ = c` and, from 3-D
//!    on, every meet of fewer hyperplanes inside some `x₁ = c`;
//! 2. on an open slab between breakpoints the integral of a polynomial `p`
//!    over the section `{x₁ = t}` is a polynomial of degree
//!    `< n + deg p` in `t`, so the `(n + deg p)`-node *open* Newton–Cotes
//!    rule integrates it exactly, and a null piece on a breakpoint never
//!    counts;
//! 3. a section is the rows and `p` with `x₁ := t` substituted; in 1-D the
//!    intervals are sorted and merged, and each merged piece adds the
//!    difference of `p`'s antiderivative at its ends.
//!
//! A volume is the integral of `p = 1`; `cqa-agg`'s `average` divides the
//! one by the other (§1's "average value of a polynomial over a spatial
//! object").
//!
//! Strictness and disequalities only matter on null sets and are dropped;
//! a constant row is decided at once (`0 ≤ 0` holds, `0 ≤ −1` empties its
//! cell). Unclipped, the set is [`VolumeError::Unbounded`] exactly when an
//! outer slab has a section of positive measure or a 1-D section holds an
//! infinite interval of positive length; the set decides this, never `p`.
//! No quantifier elimination runs.

use crate::linalg::{det, solve, Mat};
use crate::polyhedron::HPolyhedron;
use cqa_arith::{rat, Rat};
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{dnf, Formula};
use cqa_poly::{MPoly, Var};
use std::borrow::Cow;

/// Errors from exact volume computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// The set has infinite volume.
    Unbounded,
    /// The formula is not a quantifier-free linear constraint formula over
    /// the given variables (eliminate quantifiers first; polynomial
    /// constraints have no semi-linear volume algorithm — see the paper's
    /// non-closure discussion and the Monte Carlo approximator in
    /// `cqa-approx`).
    NotSemiLinear,
    /// The formula mentions schema relations; substitute definitions first.
    HasRelations,
    /// The integrand mentions a variable that is not a coordinate of the
    /// space integrated over.
    StrayVariable(Var),
    /// The evaluation budget was exhausted mid-computation; the work was
    /// cancelled cooperatively (see [`cqa_logic::budget`]).
    Budget(BudgetExceeded),
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::Unbounded => write!(f, "set has unbounded volume"),
            VolumeError::NotSemiLinear => write!(f, "formula is not quantifier-free linear"),
            VolumeError::HasRelations => write!(f, "formula mentions schema relations"),
            VolumeError::StrayVariable(v) => {
                write!(f, "integrand mentions {v}, which is not integrated over")
            }
            VolumeError::Budget(b) => write!(f, "{b}"),
        }
    }
}
impl std::error::Error for VolumeError {}

impl From<BudgetExceeded> for VolumeError {
    fn from(b: BudgetExceeded) -> VolumeError {
        VolumeError::Budget(b)
    }
}

/// The volume of the simplex with the given `n+1` vertices in ℝⁿ:
/// `|det(v₁-v₀, …, v_n-v₀)| / n!`.
///
/// # Panics
/// Panics unless exactly `n+1` vertices of dimension `n` are supplied.
pub fn simplex_volume(vertices: &[Vec<Rat>]) -> Rat {
    let n = vertices.len() - 1;
    assert!(
        n >= 1 && vertices.iter().all(|v| v.len() == n),
        "simplex needs n+1 points in ℝⁿ"
    );
    let rows: Vec<Vec<Rat>> = vertices[1..]
        .iter()
        .map(|v| v.iter().zip(&vertices[0]).map(|(a, b)| a - b).collect())
        .collect();
    let mut d = det(&Mat::from_rows(rows)).abs();
    for k in 2..=n {
        d = d / Rat::from(k as i64);
    }
    d
}

/// Exact volume of the semi-linear set defined by a quantifier-free linear
/// formula over the variable ordering `vars` (the ambient space is
/// `ℝ^vars.len()`): its [`integral`] of `p = 1`, budgeted as that is.
pub fn volume(f: &Formula, vars: &[Var], budget: &EvalBudget) -> Result<Rat, VolumeError> {
    sweep(f, vars, &MPoly::one(), false, budget)
}

/// Exact `∫ p` over the semi-linear set defined by a quantifier-free linear
/// formula over the variable ordering `vars`, for a polynomial `p` in
/// `vars` (another variable is [`VolumeError::StrayVariable`]). The set
/// decides [`VolumeError::Unbounded`], whatever `p` is. With no variables
/// the answer is `p` where `f` holds and 0 where it does not. The sweep
/// checks the cooperative `budget` once per DNF cell, once per set of
/// normals its breakpoint search tries and once per section of dimension
/// ≥ 2 it integrates, and aborts with [`VolumeError::Budget`] when it is
/// exhausted; when it is not hit, the result does not depend on it.
pub fn integral(
    f: &Formula,
    vars: &[Var],
    p: &MPoly,
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    sweep(f, vars, p, false, budget)
}

/// Exact volume of the set intersected with the unit box `[0,1]ⁿ` — the
/// `VOL_I` operator of the paper (Section 2). Never unbounded. Budgeted as
/// [`volume`] is.
pub fn volume_in_unit_box_with_budget(
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    sweep(f, vars, &MPoly::one(), true, budget)
}

/// A row `a·x ≤ b`.
type Row = (Vec<Rat>, Rat);

fn sweep(
    f: &Formula,
    vars: &[Var],
    p: &MPoly,
    clip: bool,
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    if !f.is_relation_free() {
        return Err(VolumeError::HasRelations);
    }
    if !f.is_quantifier_free() {
        return Err(VolumeError::NotSemiLinear);
    }
    if let Some(v) = p.vars().into_iter().find(|v| !vars.contains(v)) {
        return Err(VolumeError::StrayVariable(v));
    }
    if vars.is_empty() {
        // 0-dimensional space: a point, where the constant p is ⊤'s
        // integral and ⊥'s is 0.
        return match f.eval(&|_| Rat::zero(), &[]) {
            Some(true) => Ok(p.as_constant().expect("no variables")),
            Some(false) => Ok(Rat::zero()),
            None => Err(VolumeError::NotSemiLinear),
        };
    }
    let cells = dnf_cells(f, vars, clip, budget)?;
    let n = vars.len();
    let mut flats = vec![Vec::new(); n + 1];
    for (k, sets) in flats.iter_mut().enumerate().skip(2) {
        // The rows of a section over the last k coordinates have the
        // cells' normals cut to those coordinates, scaled.
        let mut normals: Vec<Vec<Rat>> = Vec::new();
        for (a, _) in cells.iter().flatten() {
            match pencil(&a[n - k..]) {
                Some((normal, _)) if !normals.contains(&normal) => normals.push(normal),
                _ => {}
            }
        }
        flat_sets(&normals, &[], budget, sets)?;
    }
    let sweep = Sweep {
        weights: (0..=n + degree(p)).map(open_newton_cotes).collect(),
        flats,
        vars,
        one: MPoly::one(),
        clipped: clip,
        budget,
    };
    sweep.integrate(&cells, n, p)
}

/// The total degree of `p`, 0 for the zero polynomial.
fn degree(p: &MPoly) -> usize {
    p.total_degree().unwrap_or(0) as usize
}

/// The DNF cells of `f` over `vars` (see [`cell_of`]), each with the unit
/// box's rows when `clip`; empty and repeated cells are dropped.
fn dnf_cells(
    f: &Formula,
    vars: &[Var],
    clip: bool,
    budget: &EvalBudget,
) -> Result<Vec<Vec<Row>>, VolumeError> {
    let unit_box = HPolyhedron::unit_box(if clip { vars.len() } else { 0 });
    let mut cells: Vec<Vec<Row>> = Vec::new();
    for clause in dnf(f) {
        budget.check()?;
        let mut atoms = Vec::with_capacity(clause.len());
        let mut holds = true;
        for lit in clause {
            let Formula::Atom(a) = lit else {
                return Err(VolumeError::HasRelations);
            };
            // A constant atom is decided exactly: `0 < 0` and `0 ≠ 0` are
            // empty, not null.
            match a.as_const() {
                Some(h) => holds &= h,
                None => atoms.push(a),
            }
        }
        let p = HPolyhedron::from_atoms(&atoms, vars).ok_or(VolumeError::NotSemiLinear)?;
        if !holds {
            continue;
        }
        if let Some(cell) = cell_of(p.rows().iter().chain(unit_box.rows()).cloned()) {
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
    }
    Ok(cells)
}

/// A cell from its rows: each scaled so that its first non-zero
/// coefficient is ±1, then sorted and deduplicated. A constant row `0 ≤ b`
/// is decided: dropped when `b ≥ 0`, and `None` (an empty cell) otherwise.
fn cell_of(rows: impl IntoIterator<Item = Row>) -> Option<Vec<Row>> {
    let mut cell: Vec<Row> = Vec::new();
    for (a, b) in rows {
        match a.iter().find(|c| !c.is_zero()).map(Rat::abs) {
            None if b.is_negative() => return None,
            None => {}
            Some(s) => cell.push((a.iter().map(|c| c / &s).collect(), b / s)),
        }
    }
    cell.sort();
    cell.dedup();
    Some(cell)
}

/// What stays fixed through one sweep.
struct Sweep<'a> {
    /// `weights[k]`: the [`open_newton_cotes`] weights with `k` nodes.
    weights: Vec<Vec<Rat>>,
    /// `flats[k]`: the [`flat_sets`] of the normals of `k`-dimensional
    /// sections.
    flats: Vec<Vec<FlatSet>>,
    /// The coordinates: a `k`-dimensional section is over the last `k`.
    vars: &'a [Var],
    /// The integrand 1, with which the outer slabs measure the set.
    one: MPoly,
    /// Every cell carries the unit box's rows, so every coordinate lies in
    /// `[0, 1]` and every cell is bounded.
    clipped: bool,
    budget: &'a EvalBudget,
}

impl Sweep<'_> {
    /// `∫ p` over the union of `cells`, whose rows have `n ≥ 1`
    /// coefficients, for a polynomial `p` in the last `n` coordinates.
    fn integrate(&self, cells: &[Vec<Row>], n: usize, p: &MPoly) -> Result<Rat, VolumeError> {
        if cells.is_empty() {
            return Ok(Rat::zero());
        }
        if n == 1 {
            // A sort and a merge: charged to the slab that asked for it.
            return union_integral(cells, self.vars[self.vars.len() - 1], p);
        }
        self.budget.check()?;
        let breaks = self.breakpoints(cells, n);
        if !self.clipped {
            // Whether a cell's section has positive measure does not change
            // across a slab, so one node decides each outer slab. It
            // measures the set: a p that vanishes there hides nothing.
            let outer = match (breaks.first(), breaks.last()) {
                (Some(lo), Some(hi)) => vec![lo - Rat::one(), hi + Rat::one()],
                _ => vec![Rat::zero()],
            };
            for t in &outer {
                if !self.section(cells, t, n, &self.one)?.is_zero() {
                    return Err(VolumeError::Unbounded);
                }
            }
        }
        let weights = &self.weights[n + degree(p)];
        let mut total = Rat::zero();
        for slab in breaks.windows(2) {
            let width = &slab[1] - &slab[0];
            let step = &width / &Rat::from((weights.len() + 1) as i64);
            let mut t = slab[0].clone();
            let mut sum = Rat::zero();
            for w in weights {
                t += &step;
                sum += w * &self.section(cells, &t, n, p)?;
            }
            total += width * sum;
        }
        Ok(total)
    }

    /// `∫ p` over the union's section at `x₁ = t`: the cells' rows and `p`
    /// with `x₁ := t` substituted.
    fn section(
        &self,
        cells: &[Vec<Row>],
        t: &Rat,
        n: usize,
        p: &MPoly,
    ) -> Result<Rat, VolumeError> {
        let sections: Vec<Vec<Row>> = cells
            .iter()
            .filter_map(|cell| cell_of(cell.iter().map(|(a, b)| (a[1..].to_vec(), b - &a[0] * t))))
            .collect();
        let x1 = self.vars[self.vars.len() - n];
        let p = match p.degree_in(x1) {
            0 => Cow::Borrowed(p),
            _ => Cow::Owned(p.subst_rat(x1, t)),
        };
        self.integrate(&sections, n - 1, &p)
    }

    /// The sorted, distinct breakpoints on `x₁` (those in `[0, 1]` when
    /// clipped): a hyperplane `x₁ = c` gives `c`, and each of
    /// `flats[n]`'s sets gives `Σ λₛ·bₛ` for every choice of one
    /// hyperplane `aₛ·x = bₛ` per normal, when the cells have them all.
    fn breakpoints(&self, cells: &[Vec<Row>], n: usize) -> Vec<Rat> {
        let mut breaks: Vec<Rat> = Vec::new();
        // Parallel hyperplanes: a normal and its distinct offsets.
        let mut pencils: Vec<(Vec<Rat>, Vec<Rat>)> = Vec::new();
        for (a, b) in cells.iter().flatten() {
            let Some((normal, lead)) = pencil(a) else {
                breaks.push(b / &a[0]);
                continue;
            };
            let offset = b / lead;
            match pencils.iter_mut().find(|(m, _)| *m == normal) {
                Some((_, offsets)) if !offsets.contains(&offset) => offsets.push(offset),
                Some(_) => {}
                None => pencils.push((normal, vec![offset])),
            }
        }
        for (normals, lambda) in &self.flats[n] {
            let mut values = vec![Rat::zero()];
            for (m, l) in normals.iter().zip(lambda) {
                let Some((_, offsets)) = pencils.iter().find(|(p, _)| p == m) else {
                    values.clear();
                    break;
                };
                values = values
                    .iter()
                    .flat_map(|v| offsets.iter().map(move |b| v + &(l * b)))
                    .collect();
            }
            breaks.extend(values);
        }
        breaks.sort();
        breaks.dedup();
        if self.clipped {
            breaks.retain(|t| !t.is_negative() && *t <= Rat::one());
        }
        breaks
    }
}

/// A set of linearly independent normals whose span holds `e₁`, with the
/// `λ` of `e₁ = Σ λₛ·aₛ`: on the flat `{aₛ·x = bₛ}`, `x₁ = Σ λₛ·bₛ`.
type FlatSet = (Vec<Vec<Rat>>, Vec<Rat>);

/// The normal of the hyperplane `a·x = b` scaled to lead with +1, and the
/// scale; `None` when the hyperplane is `x₁ = c` (or `a` is zero).
fn pencil(a: &[Rat]) -> Option<(Vec<Rat>, &Rat)> {
    if a[1..].iter().all(Rat::is_zero) {
        return None;
    }
    let lead = a.iter().find(|c| !c.is_zero())?;
    Some((a.iter().map(|c| c / lead).collect(), lead))
}

/// Depth first over the sets of `normals`, added to `set`, that are
/// linearly independent; a set whose span holds `e₁` goes to `out`, and the
/// search stops there (a larger set fixes `x₁` at the same values). One
/// budget step per set tried.
fn flat_sets(
    normals: &[Vec<Rat>],
    set: &[&Vec<Rat>],
    budget: &EvalBudget,
    out: &mut Vec<FlatSet>,
) -> Result<(), VolumeError> {
    let dot = |a: &[Rat], c: &[Rat]| a.iter().zip(c).fold(Rat::zero(), |s, (x, y)| s + x * y);
    for (i, normal) in normals.iter().enumerate() {
        budget.check()?;
        let set = [set, &[normal]].concat();
        // Normal equations for the λ whose Σ λₛ·aₛ is the projection of e₁
        // on the span; singular when the normals are dependent.
        let gram = set.iter().map(|a| set.iter().map(|c| dot(a, c)).collect());
        let lead: Vec<Rat> = set.iter().map(|a| a[0].clone()).collect();
        let Some(lambda) = solve(&Mat::from_rows(gram.collect()), &lead) else {
            continue;
        };
        let coord = |j: usize| {
            let column: Vec<Rat> = set.iter().map(|a| a[j].clone()).collect();
            dot(&lambda, &column)
        };
        if coord(0).is_one() && (1..normal.len()).all(|j| coord(j).is_zero()) {
            out.push((set.into_iter().cloned().collect(), lambda));
        } else {
            flat_sets(&normals[i + 1..], &set, budget, out)?;
        }
    }
    Ok(())
}

/// `∫ p` over the union of 1-D cells (rows `±x ≤ b`) for a polynomial `p`
/// in `x`: each cell is an interval, the intervals are sorted by left end
/// and merged, and each merged piece `[l, h]` adds `P(h) − P(l)` for `p`'s
/// antiderivative `P` (a constant `p` scales the length).
fn union_integral(cells: &[Vec<Row>], x: Var, p: &MPoly) -> Result<Rat, VolumeError> {
    let mut spans: Vec<(Rat, Rat)> = Vec::with_capacity(cells.len());
    for cell in cells {
        let ends = |sign: bool| cell.iter().filter(move |(a, _)| a[0].is_positive() == sign);
        let hi = ends(true).map(|(_, b)| b.clone()).min();
        let lo = ends(false).map(|(_, b)| -b).max();
        match (lo, hi) {
            (Some(l), Some(h)) if l < h => spans.push((l, h)),
            (Some(_), Some(_)) => {}
            // An interval with an infinite end has positive length.
            _ => return Err(VolumeError::Unbounded),
        }
    }
    spans.sort();
    let (scale, density) = match p.as_constant() {
        Some(c) => (c, None),
        None => {
            let q = p
                .to_upoly(x)
                .expect("a section substitutes the other coordinates");
            (Rat::one(), Some(q))
        }
    };
    let (mut total, mut reach) = (Rat::zero(), None::<Rat>);
    for (l, h) in spans {
        let from = reach.map_or(l.clone(), |r| r.max(l));
        if from < h {
            total += match &density {
                Some(q) => q.integrate_between(&from, &h),
                None => &h - &from,
            };
        }
        reach = Some(from.max(h));
    }
    Ok(scale * total)
}

/// The `k`-node open Newton–Cotes weights on `[0, 1]`, nodes at `i/(k+1)`
/// for `i = 1..=k`: exact for every polynomial of degree < `k`, from the
/// moment equations `Σᵢ wᵢ·nodeᵢʲ = 1/(j+1)`, `j < k`. Empty for `k < 2`,
/// which the sweep never integrates with.
fn open_newton_cotes(k: usize) -> Vec<Rat> {
    if k < 2 {
        return Vec::new();
    }
    let nodes: Vec<Rat> = (1..=k).map(|i| rat(i as i64, (k + 1) as i64)).collect();
    let rows = (0..k).map(|j| nodes.iter().map(|x| x.pow(j as i32)).collect());
    let moments: Vec<Rat> = (0..k).map(|j| rat(1, (j + 1) as i64)).collect();
    solve(&Mat::from_rows(rows.collect()), &moments).expect("distinct nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_logic::{parse_formula_with, Atom, Rel, VarMap};
    use cqa_poly::MPoly;
    use proptest::prelude::*;

    fn unlimited() -> EvalBudget {
        EvalBudget::unlimited()
    }

    fn vol(src: &str, var_names: &[&str]) -> Result<Rat, VolumeError> {
        let mut vars = VarMap::new();
        // Intern in caller order so the ambient dimension is explicit.
        let vs: Vec<Var> = var_names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        volume(&f, &vs, &unlimited())
    }

    fn vol_box(src: &str, var_names: &[&str]) -> Result<Rat, VolumeError> {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = var_names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        volume_in_unit_box_with_budget(&f, &vs, &unlimited())
    }

    /// Inclusion–exclusion over the DNF cells with Lasserre's facet
    /// recursion for each intersection: the algorithm the sweep replaced,
    /// kept as its reference. An intersection counts when a QE probe finds
    /// its open interior non-empty, and such an intersection with a
    /// non-zero recession direction makes the union unbounded.
    fn oracle(f: &Formula, vars: &[Var], clip: bool) -> Result<Rat, VolumeError> {
        let cells = dnf_cells(f, vars, clip, &unlimited())?;
        let n = vars.len();
        let mut total = Rat::zero();
        for mask in 1u32..(1 << cells.len()) {
            let rows: Vec<Row> = cells
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .flat_map(|(_, c)| c.iter().cloned())
                .collect();
            if !satisfiable(rows.iter().map(|(a, b)| atom(a, b, Rel::Lt))) {
                continue;
            }
            let recedes = |i: usize, rel: Rel| {
                let mut axis = vec![Rat::zero(); n];
                axis[i] = Rat::one();
                let cone = rows.iter().map(|(a, _)| atom(a, &Rat::zero(), Rel::Le));
                satisfiable(cone.chain([atom(&axis, &Rat::zero(), rel)]))
            };
            if (0..n).any(|i| recedes(i, Rel::Lt) || recedes(i, Rel::Gt)) {
                return Err(VolumeError::Unbounded);
            }
            let v = lasserre(&rows, n);
            if mask.count_ones() % 2 == 1 {
                total += v;
            } else {
                total = total - v;
            }
        }
        Ok(total)
    }

    /// `a·x − b REL 0` over `Var(0), Var(1), …`.
    fn atom(a: &[Rat], b: &Rat, rel: Rel) -> Formula {
        let mut poly = MPoly::constant(-b.clone());
        for (i, c) in a.iter().enumerate() {
            poly = poly + MPoly::var(Var(i as u32)).scale(c);
        }
        Formula::Atom(Atom::new(poly, rel))
    }

    fn satisfiable(atoms: impl Iterator<Item = Formula>) -> bool {
        let f = atoms.fold(Formula::True, Formula::and);
        cqa_qe::is_satisfiable(&f, &unlimited()).unwrap()
    }

    /// Lasserre's recursion on a *bounded* system `a·x ≤ b` in `n ≥ 1`
    /// variables: `vol(P) = (1/n) Σᵢ bᵢ · vol(Qᵢ)/|a_{i,jᵢ}|`, where `Qᵢ`
    /// is the facet `P ∩ {aᵢ·x = bᵢ}` written in the coordinates left after
    /// eliminating a pivot `jᵢ`. Rows are scale-normalized and deduplicated
    /// first: a duplicated constraint would have its facet counted twice.
    fn lasserre(rows_in: &[Row], n: usize) -> Rat {
        let mut rows: Vec<Row> = Vec::with_capacity(rows_in.len());
        for (a, b) in rows_in {
            match a.iter().find(|c| !c.is_zero()) {
                None => {
                    if b.is_negative() {
                        return Rat::zero(); // 0 ≤ b < 0: empty system
                    }
                }
                Some(c) => {
                    let s = c.abs().recip();
                    let row = (a.iter().map(|x| x * &s).collect(), b * &s);
                    if !rows.contains(&row) {
                        rows.push(row);
                    }
                }
            }
        }
        if n == 1 {
            let mut lo: Option<Rat> = None;
            let mut hi: Option<Rat> = None;
            for (a, b) in &rows {
                let t = b / &a[0];
                if a[0].is_positive() {
                    if hi.as_ref().is_none_or(|h| t < *h) {
                        hi = Some(t);
                    }
                } else if lo.as_ref().is_none_or(|l| t > *l) {
                    lo = Some(t);
                }
            }
            return match (lo, hi) {
                (Some(l), Some(h)) if l < h => h - l,
                _ => Rat::zero(),
            };
        }
        let mut total = Rat::zero();
        for (i, (a, b)) in rows.iter().enumerate() {
            let j = a.iter().position(|c| !c.is_zero()).unwrap();
            let aj = &a[j];
            // c·x ≤ d with x_j = (b − Σ_{l≠j} a_l x_l)/a_j substituted.
            let sub_rows: Vec<Row> = rows
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .map(|(_, (c, d))| {
                    let factor = &c[j] / aj;
                    let new_c = (0..a.len())
                        .filter(|&l| l != j)
                        .map(|l| &c[l] - &(&factor * &a[l]))
                        .collect();
                    (new_c, d - &(&factor * b))
                })
                .collect();
            let facet_vol = lasserre(&sub_rows, n - 1);
            if !facet_vol.is_zero() {
                total += b * &facet_vol / aj.abs();
            }
        }
        total / Rat::from(n as i64)
    }

    /// A cell: per axis `(lo, width, drop)` — width 0 makes the cell
    /// lower-dimensional, `drop` 1 leaves out the lower bound and 2 the
    /// upper one — and extra rows `(coefficients, b, rel)`, where `rel` 7
    /// is `=` (lower-dimensional again).
    type CellSpec = (Vec<(i64, i64, u8)>, Vec<(Vec<i64>, i64, u8)>);

    fn unions(lo: std::ops::RangeInclusive<i64>) -> impl Strategy<Value = (usize, Vec<CellSpec>)> {
        let axis = (lo.clone(), 0i64..=4, 0u8..12);
        let extra = (prop::collection::vec(-2i64..=2, 3), lo, 0u8..8);
        let cell = (
            prop::collection::vec(axis, 3),
            prop::collection::vec(extra, 0..=2),
        );
        (1usize..=3, prop::collection::vec(cell, 1..=4))
    }

    /// The union of the cells over `n` variables, bounds and right-hand
    /// sides divided by `den`; dropped bounds only when `unbounded`.
    fn union_formula(
        n: usize,
        cells: &[CellSpec],
        den: i64,
        unbounded: bool,
    ) -> (Formula, Vec<Var>) {
        let vars: Vec<Var> = (0..n as u32).map(Var).collect();
        let le = |p: MPoly| Formula::Atom(Atom::new(p, Rel::Le));
        let mut f = Formula::False;
        for (axes, extras) in cells {
            let mut cell = Formula::True;
            for (&v, &(lo, width, drop)) in vars.iter().zip(axes) {
                let hi = lo + width;
                if !(unbounded && drop == 1) {
                    cell = cell.and(le(MPoly::constant(rat(lo, den)) - MPoly::var(v)));
                }
                if !(unbounded && drop == 2) {
                    cell = cell.and(le(MPoly::var(v) - MPoly::constant(rat(hi, den))));
                }
            }
            for (coeffs, b, rel) in extras {
                let mut p = MPoly::constant(rat(-b, den));
                for (&v, &c) in vars.iter().zip(coeffs) {
                    p = p + MPoly::var(v).scale(&Rat::from(c));
                }
                let rel = [
                    Rel::Le,
                    Rel::Lt,
                    Rel::Ge,
                    Rel::Gt,
                    Rel::Le,
                    Rel::Ge,
                    Rel::Neq,
                    Rel::Eq,
                ][*rel as usize];
                cell = cell.and(Formula::Atom(Atom::new(p, rel)));
            }
            f = f.or(cell);
        }
        (f, vars)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sweep_matches_inclusion_exclusion(case in unions(-2..=3)) {
            let (n, cells) = case;
            let (f, vars) = union_formula(n, &cells, 1, true);
            prop_assert_eq!(volume(&f, &vars, &unlimited()), oracle(&f, &vars, false));
        }

        #[test]
        fn sweep_matches_inclusion_exclusion_in_the_unit_box(case in unions(-1..=3)) {
            let (n, cells) = case;
            let (f, vars) = union_formula(n, &cells, 4, false);
            prop_assert_eq!(
                volume_in_unit_box_with_budget(&f, &vars, &unlimited()),
                oracle(&f, &vars, true)
            );
        }
    }

    #[test]
    fn intervals() {
        assert_eq!(vol("0 <= x & x <= 1", &["x"]).unwrap(), rat(1, 1));
        assert_eq!(vol("0 < x & x < 1", &["x"]).unwrap(), rat(1, 1));
        assert_eq!(vol("1 <= x & x <= 0", &["x"]).unwrap(), rat(0, 1));
        assert_eq!(vol("x = 5", &["x"]).unwrap(), rat(0, 1));
        assert!(matches!(vol("x >= 0", &["x"]), Err(VolumeError::Unbounded)));
    }

    #[test]
    fn constant_true_atoms_keep_their_cell() {
        assert_eq!(
            vol("0 <= x & x <= 1/2 & 0 <= 0", &["x"]).unwrap(),
            rat(1, 2)
        );
        assert_eq!(
            vol("0 <= x & x <= 1/2 & x - x <= 0", &["x"]).unwrap(),
            rat(1, 2)
        );
        assert_eq!(vol_box("0 <= x & 0 <= 0", &["x", "y"]).unwrap(), rat(1, 1));
        // A constant-false atom still empties its cell, and only that one.
        assert_eq!(
            vol("(0 <= x & x <= 1/2 & 1 <= 0) | (2 <= x & x <= 3)", &["x"]).unwrap(),
            rat(1, 1)
        );
        // Strict and ≠ constant atoms too: `0 < 0` is empty, not null.
        assert_eq!(
            vol(
                "(0 <= x & x <= 1/2 & x - x < 0) | (2 <= x & x <= 3)",
                &["x"]
            )
            .unwrap(),
            rat(1, 1)
        );
        assert_eq!(
            vol(
                "(0 <= x & x <= 1/2 & x - x != 0) | (2 <= x & x <= 3)",
                &["x"]
            )
            .unwrap(),
            rat(1, 1)
        );
    }

    #[test]
    fn union_of_intervals_with_overlap() {
        // [0,2] ∪ [1,3] has length 3, not 4.
        let v = vol("(0 <= x & x <= 2) | (1 <= x & x <= 3)", &["x"]).unwrap();
        assert_eq!(v, rat(3, 1));
        // Disjoint pieces add.
        let w = vol("(0 <= x & x <= 1) | (2 <= x & x <= 4)", &["x"]).unwrap();
        assert_eq!(w, rat(3, 1));
    }

    #[test]
    fn triangle_area() {
        let v = vol("x >= 0 & y >= 0 & x + y <= 1", &["x", "y"]).unwrap();
        assert_eq!(v, rat(1, 2));
    }

    #[test]
    fn square_and_shifted_square() {
        assert_eq!(
            vol("0 <= x & x <= 1 & 0 <= y & y <= 1", &["x", "y"]).unwrap(),
            rat(1, 1)
        );
        assert_eq!(
            vol("1 <= x & x <= 3 & -1 <= y & y <= 2", &["x", "y"]).unwrap(),
            rat(6, 1)
        );
    }

    #[test]
    fn simplex_volumes_by_dimension() {
        // Standard simplex volume 1/n!.
        assert_eq!(
            vol(
                "x >= 0 & y >= 0 & z >= 0 & x + y + z <= 1",
                &["x", "y", "z"]
            )
            .unwrap(),
            rat(1, 6)
        );
        assert_eq!(
            vol(
                "x >= 0 & y >= 0 & z >= 0 & w >= 0 & x + y + z + w <= 1",
                &["x", "y", "z", "w"]
            )
            .unwrap(),
            rat(1, 24)
        );
    }

    #[test]
    fn cross_polytope() {
        // |x| + |y| ≤ 1 as a union of four cells: area 2.
        let src = "(x >= 0 & y >= 0 & x + y <= 1) | (x <= 0 & y >= 0 & y - x <= 1) \
                   | (x >= 0 & y <= 0 & x - y <= 1) | (x <= 0 & y <= 0 & 0 - x - y <= 1)";
        assert_eq!(vol(src, &["x", "y"]).unwrap(), rat(2, 1));
    }

    #[test]
    fn overlapping_squares_2d() {
        // [0,2]² ∪ [1,3]² = 4 + 4 - 1 = 7.
        let src = "(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)";
        assert_eq!(vol(src, &["x", "y"]).unwrap(), rat(7, 1));
    }

    #[test]
    fn lower_dimensional_pieces_are_null() {
        // A segment inside the plane plus a unit square: area still 1.
        let src = "(x = 0 & 0 <= y & y <= 5) | (0 <= x & x <= 1 & 0 <= y & y <= 1)";
        assert_eq!(vol(src, &["x", "y"]).unwrap(), rat(1, 1));
        // The diagonal line y = x alone: measure zero even though unbounded
        // in every coordinate.
        assert_eq!(
            vol("y = x & 0 <= x & x <= 1", &["x", "y"]).unwrap(),
            rat(0, 1)
        );
    }

    #[test]
    fn disequalities_ignored() {
        let v = vol("0 <= x & x <= 1 & x != 0.5", &["x"]).unwrap();
        assert_eq!(v, rat(1, 1));
    }

    #[test]
    fn unit_box_clipping() {
        // Half-plane x ≥ 1/2 clipped to the unit square: area 1/2.
        assert_eq!(vol_box("x >= 0.5", &["x", "y"]).unwrap(), rat(1, 2));
        // Whole space clipped: 1.
        assert_eq!(vol_box("true", &["x", "y"]).unwrap(), rat(1, 1));
        // Paper Section 3 example: x1 < y1 < x2, 0 ≤ y2 ≤ y1 with
        // (x1, x2) = (0, 1): volume (x2² - x1²)/2 = 1/2.
        assert_eq!(
            vol_box("0 < y1 & y1 < 1 & 0 <= y2 & y2 <= y1", &["y1", "y2"]).unwrap(),
            rat(1, 2)
        );
    }

    #[test]
    fn paper_example_volume_formula() {
        // VOL_I(φ(a, b, U)) = (b² - a²)/2 for the Section-3 query: check at
        // (a, b) = (1/4, 3/4): (9/16 - 1/16)/2 = 1/4.
        let v = vol_box("0.25 < y1 & y1 < 0.75 & 0 <= y2 & y2 <= y1", &["y1", "y2"]).unwrap();
        assert_eq!(v, rat(1, 4));
    }

    #[test]
    fn simplex_volume_determinant() {
        // Unit triangle.
        let tri = vec![
            vec![rat(0, 1), rat(0, 1)],
            vec![rat(1, 1), rat(0, 1)],
            vec![rat(0, 1), rat(1, 1)],
        ];
        assert_eq!(simplex_volume(&tri), rat(1, 2));
        // Unit tetrahedron.
        let tet = vec![
            vec![rat(0, 1), rat(0, 1), rat(0, 1)],
            vec![rat(1, 1), rat(0, 1), rat(0, 1)],
            vec![rat(0, 1), rat(1, 1), rat(0, 1)],
            vec![rat(0, 1), rat(0, 1), rat(1, 1)],
        ];
        assert_eq!(simplex_volume(&tet), rat(1, 6));
        // Degenerate: zero volume.
        let degen = vec![
            vec![rat(0, 1), rat(0, 1)],
            vec![rat(1, 1), rat(1, 1)],
            vec![rat(2, 1), rat(2, 1)],
        ];
        assert_eq!(simplex_volume(&degen), rat(0, 1));
    }

    #[test]
    fn twenty_one_intervals_have_volume_twenty_one() {
        // 21 pairwise-distinct disjoint intervals: more DNF cells than
        // inclusion–exclusion ever enumerated (it stopped at 20); the sweep
        // merges them.
        let src = (0..21)
            .map(|i| format!("({} <= x & x <= {})", 2 * i, 2 * i + 1))
            .collect::<Vec<_>>()
            .join(" | ");
        assert_eq!(vol(&src, &["x"]).unwrap(), rat(21, 1));
    }

    #[test]
    fn unbounded_cells_without_vertices() {
        // A strip along the diagonal: every section has length 1, on
        // every slab out to infinity.
        assert_eq!(
            vol("0 <= y - x & y - x <= 1", &["x", "y"]),
            Err(VolumeError::Unbounded)
        );
        // A wedge times a line: no three facet planes meet, and x is
        // constant (0) only on the wedge's edge, which is the one
        // breakpoint; every section beyond it is unbounded in z.
        assert_eq!(
            vol("x + y >= 0 & x - y >= 0", &["x", "y", "z"]),
            Err(VolumeError::Unbounded)
        );
        // Lower-dimensional and unbounded is still null.
        assert_eq!(vol("y = x", &["x", "y"]).unwrap(), rat(0, 1));
        assert_eq!(vol("x = 0", &["x", "y"]).unwrap(), rat(0, 1));
    }

    #[test]
    fn budget_trips_during_the_sweep() {
        // 16 overlapping squares. An already-expired deadline trips on the
        // first cooperative check.
        let src = (0..16)
            .map(|i| format!("({i} <= x & x <= {hi} & {i} <= y & y <= {hi})", hi = i + 8))
            .collect::<Vec<_>>()
            .join(" | ");
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let f = parse_formula_with(&src, &mut vars).unwrap();
        let budget = EvalBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            volume(&f, &[x, y], &budget),
            Err(VolumeError::Budget(_))
        ));
        // An unhit budget is invisible: same value as the unbudgeted run on
        // a small instance.
        let small = parse_formula_with(
            "(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)",
            &mut vars,
        )
        .unwrap();
        let roomy = EvalBudget::unlimited().with_max_steps(u64::MAX / 2);
        assert_eq!(
            volume(&small, &[x, y], &roomy),
            volume(&small, &[x, y], &unlimited())
        );
    }

    #[test]
    fn zero_dimensional() {
        assert_eq!(vol("true", &[]).unwrap(), rat(1, 1));
        assert_eq!(vol("false", &[]).unwrap(), rat(0, 1));
    }

    #[test]
    fn quantified_input_rejected() {
        let mut vars = VarMap::new();
        let x = vars.intern("x");
        let f = parse_formula_with("exists y. x < y & y < 1", &mut vars).unwrap();
        assert_eq!(
            volume(&f, &[x], &unlimited()),
            Err(VolumeError::NotSemiLinear)
        );
    }

    #[test]
    fn nonlinear_rejected() {
        assert_eq!(vol("x*x <= 1", &["x"]), Err(VolumeError::NotSemiLinear));
    }
}
