//! Exact volumes of semi-linear sets.
//!
//! The paper's Theorem 3 shows FO+POLY+SUM expresses the volume of any
//! semi-linear database. The computational content is implemented here:
//!
//! 1. the quantifier-free linear formula is put in DNF — a finite union of
//!    convex cells;
//! 2. the union volume is computed by inclusion–exclusion over the cells
//!    (intersections of convex cells are convex);
//! 3. each convex cell's volume is computed exactly by **Lasserre's facet
//!    recursion**: for `P = {x : aᵢ·x ≤ bᵢ}` bounded and `n ≥ 1`,
//!    `vol(P) = (1/n) Σᵢ bᵢ · vol(Qᵢ)/|a_{i,jᵢ}|` where `Qᵢ` is the facet
//!    `P ∩ {aᵢ·x = bᵢ}` written in the coordinates obtained by eliminating
//!    a pivot `jᵢ`. All arithmetic is rational; Euclidean facet norms
//!    cancel.
//!
//! Strict vs. non-strict inequalities and disequalities differ on measure
//! zero and are normalized away. Lower-dimensional cells (detected by
//! open-interior unsatisfiability) contribute zero. A genuinely unbounded
//! full-dimensional cell yields [`VolumeError::Unbounded`].

use crate::linalg::{det, Mat};
use crate::polyhedron::HPolyhedron;
use cqa_arith::Rat;
use cqa_logic::budget::{BudgetExceeded, EvalBudget};
use cqa_logic::{dnf, Atom, Formula, Rel};
use cqa_poly::Var;

/// Inclusion–exclusion enumerates `2^m − 1` cell intersections; beyond this
/// many DNF cells the exact engine refuses (typed, not a panic) — use the
/// Monte Carlo approximator in `cqa-approx` instead.
pub const MAX_DNF_CELLS: usize = 20;

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
    /// The DNF has more than [`MAX_DNF_CELLS`] cells: the `2^m`
    /// inclusion–exclusion would be astronomically large.
    TooManyCells(usize),
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
            VolumeError::TooManyCells(m) => {
                write!(f, "too many DNF cells for inclusion–exclusion ({m})")
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
/// `ℝ^vars.len()`).
pub fn volume(f: &Formula, vars: &[Var]) -> Result<Rat, VolumeError> {
    volume_with_budget(f, vars, &EvalBudget::unlimited())
}

/// [`volume`] under a cooperative [`EvalBudget`]: the inclusion–exclusion
/// loop and the per-cell satisfiability probes check the budget and abort
/// with [`VolumeError::Budget`] when it is exhausted. When the budget is
/// not hit, the result is bit-identical to [`volume`].
pub fn volume_with_budget(
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    volume_impl(f, vars, None, budget)
}

/// Exact volume of the set intersected with the unit box `[0,1]ⁿ` — the
/// `VOL_I` operator of the paper (Section 2). Never unbounded.
pub fn volume_in_unit_box(f: &Formula, vars: &[Var]) -> Result<Rat, VolumeError> {
    volume_in_unit_box_with_budget(f, vars, &EvalBudget::unlimited())
}

/// [`volume_in_unit_box`] under a cooperative [`EvalBudget`].
pub fn volume_in_unit_box_with_budget(
    f: &Formula,
    vars: &[Var],
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    volume_impl(f, vars, Some(HPolyhedron::unit_box(vars.len())), budget)
}

fn volume_impl(
    f: &Formula,
    vars: &[Var],
    clip: Option<HPolyhedron>,
    budget: &EvalBudget,
) -> Result<Rat, VolumeError> {
    if !f.is_relation_free() {
        return Err(VolumeError::HasRelations);
    }
    if !f.is_quantifier_free() {
        return Err(VolumeError::NotSemiLinear);
    }
    if vars.is_empty() {
        // 0-dimensional space: volume of a point set under counting measure
        // conventions — treat ⊤ as 1, ⊥ as 0.
        return match f.eval(&|_| Rat::zero(), &[]) {
            Some(true) => Ok(Rat::one()),
            Some(false) => Ok(Rat::zero()),
            None => Err(VolumeError::NotSemiLinear),
        };
    }

    // DNF cells as closed polyhedra.
    let mut cells: Vec<HPolyhedron> = Vec::new();
    for clause in dnf(f) {
        budget.check()?;
        let mut atoms: Vec<Atom> = Vec::with_capacity(clause.len());
        for lit in clause {
            match lit {
                Formula::Atom(a) => atoms.push(a),
                Formula::True => {}
                Formula::False => {
                    atoms.clear();
                    atoms.push(Atom::new(cqa_poly::MPoly::one(), Rel::Lt));
                    break;
                }
                _ => return Err(VolumeError::HasRelations),
            }
        }
        let mut p = HPolyhedron::from_atoms(&atoms, vars).ok_or(VolumeError::NotSemiLinear)?;
        if let Some(c) = &clip {
            p = p.intersect(c);
        }
        if !cells.contains(&p) {
            cells.push(p);
        }
    }
    if cells.is_empty() {
        return Ok(Rat::zero());
    }

    // Inclusion–exclusion over non-empty subsets of cells.
    let m = cells.len();
    if m >= MAX_DNF_CELLS {
        return Err(VolumeError::TooManyCells(m));
    }
    let mut total = Rat::zero();
    for mask in 1u32..(1 << m) {
        budget.check()?;
        let mut inter: Option<HPolyhedron> = None;
        for (i, cell) in cells.iter().enumerate() {
            if mask & (1 << i) != 0 {
                inter = Some(match inter {
                    None => cell.clone(),
                    Some(p) => p.intersect(cell),
                });
            }
        }
        let p = inter.unwrap();
        let v = convex_volume(&p, vars, budget)?;
        if mask.count_ones() % 2 == 1 {
            total += v;
        } else {
            total = total - v;
        }
    }
    Ok(total)
}

/// Volume of one convex cell.
fn convex_volume(p: &HPolyhedron, vars: &[Var], budget: &EvalBudget) -> Result<Rat, VolumeError> {
    // Lower-dimensional (or empty) cells have volume zero: test whether the
    // open interior is satisfiable.
    let mut open = Formula::True;
    for (a, b) in p.rows() {
        let mut poly = cqa_poly::MPoly::constant(-b.clone());
        for (i, coeff) in a.iter().enumerate() {
            poly = poly + cqa_poly::MPoly::var(vars[i]).scale(coeff);
        }
        open = open.and(Formula::Atom(Atom::new(poly, Rel::Lt)));
    }
    match cqa_qe::is_satisfiable(&open, budget) {
        Ok(false) => return Ok(Rat::zero()),
        Ok(true) => {}
        Err(cqa_qe::QeError::Budget(b)) => return Err(VolumeError::Budget(b)),
        Err(_) => return Err(VolumeError::NotSemiLinear),
    }
    if !p.is_bounded(vars) {
        return Err(VolumeError::Unbounded);
    }
    Ok(lasserre(p.rows(), p.dim()))
}

/// Lasserre's recursion on a *bounded* system `a·x ≤ b` in `n ≥ 1`
/// variables. (Boundedness of the top-level cell implies boundedness of
/// every facet subproblem.)
///
/// Rows are scale-normalized and deduplicated first: Lasserre's formula is
/// `(1/n) Σᵢ bᵢ · ∂V/∂bᵢ`-shaped, and a duplicated constraint would have
/// its facet counted twice (the true partial derivative of a redundant
/// duplicate is zero).
fn lasserre(rows_in: &[(Vec<Rat>, Rat)], n: usize) -> Rat {
    let mut rows: Vec<(Vec<Rat>, Rat)> = Vec::with_capacity(rows_in.len());
    for (a, b) in rows_in {
        match a.iter().find(|c| !c.is_zero()) {
            None => {
                if b.is_negative() {
                    return Rat::zero(); // 0 ≤ b < 0: empty system
                }
            }
            Some(c) => {
                let s = c.abs().recip();
                let na: Vec<Rat> = a.iter().map(|x| x * &s).collect();
                let nb = b * &s;
                let row = (na, nb);
                if !rows.contains(&row) {
                    rows.push(row);
                }
            }
        }
    }
    let rows = &rows[..];
    if n == 1 {
        let mut lo: Option<Rat> = None;
        let mut hi: Option<Rat> = None;
        for (a, b) in rows {
            let c = &a[0];
            debug_assert!(!c.is_zero(), "zero rows removed by normalization");
            let t = b / c;
            if c.is_positive() {
                if hi.as_ref().is_none_or(|h| t < *h) {
                    hi = Some(t);
                }
            } else if lo.as_ref().is_none_or(|l| t > *l) {
                lo = Some(t);
            }
        }
        return match (lo, hi) {
            (Some(l), Some(h)) if l < h => h - l,
            (Some(_), Some(_)) => Rat::zero(),
            // Unbounded directions cannot occur for facets of a bounded
            // top-level cell; returning 0 keeps the function total.
            _ => Rat::zero(),
        };
    }
    let mut total = Rat::zero();
    for (i, (a, b)) in rows.iter().enumerate() {
        // Pivot coordinate (rows are normalized: some coefficient is non-zero).
        let j = a.iter().position(|c| !c.is_zero()).unwrap();
        // Substitute x_j = (b - Σ_{k≠j} a_k x_k)/a_j into the other rows.
        let aj = &a[j];
        let mut sub_rows: Vec<(Vec<Rat>, Rat)> = Vec::with_capacity(rows.len() - 1);
        for (k, (c, d)) in rows.iter().enumerate() {
            if k == i {
                continue;
            }
            // c·x ≤ d with x_j replaced:
            // Σ_{l≠j} (c_l - c_j·a_l/a_j) x_l ≤ d - c_j·b/a_j.
            let cj = &c[j];
            let factor = cj / aj;
            let mut new_c: Vec<Rat> = Vec::with_capacity(a.len() - 1);
            for l in 0..a.len() {
                if l == j {
                    continue;
                }
                new_c.push(&c[l] - &(&factor * &a[l]));
            }
            let new_d = d - &(&factor * b);
            sub_rows.push((new_c, new_d));
        }
        let facet_vol = lasserre(&sub_rows, n - 1);
        if !facet_vol.is_zero() {
            total += b * &facet_vol / aj.abs();
        }
    }
    total / Rat::from(n as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::{parse_formula_with, VarMap};

    fn vol(src: &str, var_names: &[&str]) -> Result<Rat, VolumeError> {
        let mut vars = VarMap::new();
        // Intern in caller order so the ambient dimension is explicit.
        let vs: Vec<Var> = var_names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        volume(&f, &vs)
    }

    fn vol_box(src: &str, var_names: &[&str]) -> Result<Rat, VolumeError> {
        let mut vars = VarMap::new();
        let vs: Vec<Var> = var_names.iter().map(|n| vars.intern(n)).collect();
        let f = parse_formula_with(src, &mut vars).unwrap();
        volume_in_unit_box(&f, &vs)
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
    fn too_many_cells_is_typed_error() {
        // 21 pairwise-distinct disjoint intervals: more DNF cells than
        // inclusion–exclusion will enumerate. Used to be an assert! panic;
        // now a typed error.
        let src = (0..21)
            .map(|i| format!("({} <= x & x <= {})", 2 * i, 2 * i + 1))
            .collect::<Vec<_>>()
            .join(" | ");
        assert_eq!(vol(&src, &["x"]), Err(VolumeError::TooManyCells(21)));
    }

    #[test]
    fn budget_trips_during_inclusion_exclusion() {
        // 16 overlapping squares: 2^16 − 1 intersections, each with a QE
        // satisfiability probe. An already-expired deadline trips on the
        // first cooperative check instead of grinding through them.
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
            volume_with_budget(&f, &[x, y], &budget),
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
            volume_with_budget(&small, &[x, y], &roomy),
            volume(&small, &[x, y])
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
        assert_eq!(volume(&f, &[x]), Err(VolumeError::NotSemiLinear));
    }

    #[test]
    fn nonlinear_rejected() {
        assert_eq!(vol("x*x <= 1", &["x"]), Err(VolumeError::NotSemiLinear));
    }
}
