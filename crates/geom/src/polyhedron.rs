//! Convex polyhedra in H-representation (conjunctions of half-spaces).

use crate::linalg::{solve, Mat};
use cqa_arith::Rat;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{Atom, Formula, Rel};
use cqa_poly::Var;

/// A convex polyhedron `{ x ∈ ℝⁿ : A·x ≤ b }` (closed; strictness is a
/// measure-zero matter and is normalized away on construction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HPolyhedron {
    dim: usize,
    /// Rows `(a, b)` meaning `a·x ≤ b`.
    rows: Vec<(Vec<Rat>, Rat)>,
}

impl HPolyhedron {
    /// The whole space `ℝⁿ` (no constraints).
    pub fn whole(dim: usize) -> HPolyhedron {
        HPolyhedron {
            dim,
            rows: Vec::new(),
        }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraint rows `(a, b)` with meaning `a·x ≤ b`.
    pub fn rows(&self) -> &[(Vec<Rat>, Rat)] {
        &self.rows
    }

    /// Adds the half-space `a·x ≤ b`.
    pub fn add_halfspace(&mut self, a: Vec<Rat>, b: Rat) {
        assert_eq!(a.len(), self.dim, "half-space dimension mismatch");
        self.rows.push((a, b));
    }

    /// The unit box `[0,1]ⁿ`.
    pub fn unit_box(dim: usize) -> HPolyhedron {
        let mut p = HPolyhedron::whole(dim);
        for i in 0..dim {
            let mut pos = vec![Rat::zero(); dim];
            pos[i] = Rat::one();
            p.add_halfspace(pos.clone(), Rat::one()); // x_i ≤ 1
            let neg: Vec<Rat> = pos.into_iter().map(|c| -c).collect();
            p.add_halfspace(neg, Rat::zero()); // -x_i ≤ 0
        }
        p
    }

    /// Builds the closed polyhedron of a conjunction of *linear* atoms over
    /// the given variable ordering. Strict inequalities are closed,
    /// equalities become two half-spaces, and disequalities are dropped
    /// (all measure-zero adjustments). Returns `None` if an atom is not
    /// affine or mentions a variable outside `vars`.
    pub fn from_atoms(atoms: &[Atom], vars: &[Var]) -> Option<HPolyhedron> {
        let mut p = HPolyhedron::whole(vars.len());
        for atom in atoms {
            if !atom.poly.is_affine() {
                return None;
            }
            let mut a = vec![Rat::zero(); vars.len()];
            let mut c = Rat::zero();
            for (m, coeff) in atom.poly.terms() {
                match m {
                    [] => c = coeff.clone(),
                    [(v, 1)] => {
                        let idx = vars.iter().position(|w| w == v)?;
                        a[idx] = coeff.clone();
                    }
                    _ => return None,
                }
            }
            // atom: a·x + c REL 0.
            match atom.rel {
                Rel::Lt | Rel::Le => p.add_halfspace(a, -c),
                Rel::Gt | Rel::Ge => {
                    let neg: Vec<Rat> = a.into_iter().map(|x| -x).collect();
                    p.add_halfspace(neg, c);
                }
                Rel::Eq => {
                    let neg: Vec<Rat> = a.iter().map(|x| -x).collect();
                    p.add_halfspace(a, -c.clone());
                    p.add_halfspace(neg, c);
                }
                Rel::Neq => {}
            }
        }
        Some(p)
    }

    /// The conjunction formula of this polyhedron over the variable order.
    pub fn to_formula(&self, vars: &[Var]) -> Formula {
        let mut f = Formula::True;
        for (a, b) in &self.rows {
            let mut poly = cqa_poly::MPoly::constant(-b.clone());
            for (i, coeff) in a.iter().enumerate() {
                poly = poly + cqa_poly::MPoly::var(vars[i]).scale(coeff);
            }
            f = f.and(Formula::Atom(Atom::new(poly, Rel::Le)));
        }
        f
    }

    /// Intersection (same dimension).
    pub fn intersect(&self, other: &HPolyhedron) -> HPolyhedron {
        assert_eq!(self.dim, other.dim);
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        HPolyhedron {
            dim: self.dim,
            rows,
        }
    }

    /// Membership test.
    pub fn contains(&self, point: &[Rat]) -> bool {
        assert_eq!(point.len(), self.dim);
        self.rows.iter().all(|(a, b)| {
            let lhs: Rat = a
                .iter()
                .zip(point)
                .fold(Rat::zero(), |acc, (c, x)| acc + c * x);
            lhs <= *b
        })
    }

    /// Enumerates the vertices (basic feasible solutions): every affinely
    /// independent choice of `dim` constraints solved as equalities whose
    /// solution satisfies all constraints. Exponential in the number of
    /// constraints; intended for the small instances of the paper's
    /// examples.
    pub fn vertices(&self) -> Vec<Vec<Rat>> {
        let n = self.dim;
        let m = self.rows.len();
        let mut out: Vec<Vec<Rat>> = Vec::new();
        if m < n || n == 0 {
            return out;
        }
        let mut choice: Vec<usize> = (0..n).collect();
        loop {
            // Solve the chosen subsystem.
            let mat = Mat::from_rows(choice.iter().map(|&i| self.rows[i].0.clone()).collect());
            let rhs: Vec<Rat> = choice.iter().map(|&i| self.rows[i].1.clone()).collect();
            if let Some(x) = solve(&mat, &rhs) {
                if self.contains(&x) && !out.contains(&x) {
                    out.push(x);
                }
            }
            // Next combination.
            let mut k = n;
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                if choice[k] < m - (n - k) {
                    choice[k] += 1;
                    for j in k + 1..n {
                        choice[j] = choice[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// Exact per-coordinate bounds `(min, max)` of the polyhedron, or `None`
    /// for a coordinate unbounded in that direction. Returns `None`
    /// overall if the polyhedron is empty.
    ///
    /// Computed by Fourier–Motzkin projection onto each axis, under no
    /// budget — also when a budgeted exact volume calls it (DESIGN.md §7).
    pub fn coordinate_bounds(&self, vars: &[Var]) -> Option<Vec<(Option<Rat>, Option<Rat>)>> {
        assert_eq!(vars.len(), self.dim);
        let f = self.to_formula(vars);
        let unlimited = EvalBudget::unlimited();
        if !cqa_qe::is_satisfiable(&f, &unlimited).ok()? {
            return None;
        }
        let mut out = Vec::with_capacity(self.dim);
        for (i, &v) in vars.iter().enumerate() {
            let others: Vec<Var> = vars
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &w)| w)
                .collect();
            let proj =
                cqa_qe::fourier_motzkin(&Formula::exists(others, f.clone()), &unlimited).ok()?;
            out.push(interval_of_1d(&proj, v));
        }
        Some(out)
    }

    /// `true` iff the polyhedron is bounded (requires non-emptiness; an
    /// empty polyhedron reports bounded).
    pub fn is_bounded(&self, vars: &[Var]) -> bool {
        match self.coordinate_bounds(vars) {
            None => true, // empty
            Some(bounds) => bounds.iter().all(|(lo, hi)| lo.is_some() && hi.is_some()),
        }
    }
}

/// Extracts `(min, max)` of a satisfiable one-variable conjunction-of-bounds
/// formula produced by projection. `None` marks an unbounded direction.
fn interval_of_1d(f: &Formula, v: Var) -> (Option<Rat>, Option<Rat>) {
    let mut lo: Option<Rat> = None;
    let mut hi: Option<Rat> = None;
    let clauses = cqa_logic::dnf(f);
    let mut first = true;
    for clause in clauses {
        let mut clo: Option<Rat> = None;
        let mut chi: Option<Rat> = None;
        let mut feasible = true;
        for lit in &clause {
            let Formula::Atom(a) = lit else { continue };
            let coeffs = a.poly.as_univariate_in(v);
            if coeffs.len() != 2 {
                continue;
            }
            let (Some(c), Some(r)) = (coeffs[1].as_constant(), coeffs[0].as_constant()) else {
                continue;
            };
            let t = -(r / &c);
            let rel = if c.is_negative() { a.rel.flip() } else { a.rel };
            match rel {
                Rel::Lt | Rel::Le => {
                    if chi.as_ref().is_none_or(|h| t < *h) {
                        chi = Some(t);
                    }
                }
                Rel::Gt | Rel::Ge => {
                    if clo.as_ref().is_none_or(|l| t > *l) {
                        clo = Some(t);
                    }
                }
                Rel::Eq => {
                    clo = Some(t.clone());
                    chi = Some(t);
                }
                Rel::Neq => {}
            }
        }
        if let (Some(l), Some(h)) = (&clo, &chi) {
            if l > h {
                feasible = false;
            }
        }
        if !feasible {
            continue;
        }
        if first {
            lo = clo;
            hi = chi;
            first = false;
        } else {
            lo = match (lo, clo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            };
            hi = match (hi, chi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;
    use cqa_logic::VarMap;

    fn triangle() -> (HPolyhedron, Vec<Var>) {
        // x ≥ 0, y ≥ 0, x + y ≤ 1.
        let mut vars = VarMap::new();
        let f = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", &mut vars).unwrap();
        let vs = vec![vars.get("x").unwrap(), vars.get("y").unwrap()];
        let atoms = match f {
            Formula::And(parts) => parts
                .into_iter()
                .map(|p| match p {
                    Formula::Atom(a) => a,
                    other => panic!("{other:?}"),
                })
                .collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
        (HPolyhedron::from_atoms(&atoms, &vs).unwrap(), vs)
    }

    #[test]
    fn membership() {
        let (p, _) = triangle();
        assert!(p.contains(&[rat(1, 4), rat(1, 4)]));
        assert!(p.contains(&[rat(0, 1), rat(0, 1)]));
        assert!(!p.contains(&[rat(3, 4), rat(3, 4)]));
        assert!(!p.contains(&[rat(-1, 10), rat(0, 1)]));
    }

    #[test]
    fn vertex_enumeration() {
        let (p, _) = triangle();
        let mut vs = p.vertices();
        vs.sort();
        assert_eq!(
            vs,
            vec![
                vec![rat(0, 1), rat(0, 1)],
                vec![rat(0, 1), rat(1, 1)],
                vec![rat(1, 1), rat(0, 1)],
            ]
        );
    }

    #[test]
    fn unit_box_vertices() {
        let p = HPolyhedron::unit_box(3);
        assert_eq!(p.vertices().len(), 8);
    }

    #[test]
    fn bounds_and_boundedness() {
        let (p, vs) = triangle();
        let bounds = p.coordinate_bounds(&vs).unwrap();
        assert_eq!(bounds[0], (Some(rat(0, 1)), Some(rat(1, 1))));
        assert_eq!(bounds[1], (Some(rat(0, 1)), Some(rat(1, 1))));
        assert!(p.is_bounded(&vs));

        // Half-plane: unbounded.
        let mut h = HPolyhedron::whole(2);
        h.add_halfspace(vec![rat(1, 1), rat(0, 1)], rat(0, 1)); // x ≤ 0
        assert!(!h.is_bounded(&vs));
    }

    #[test]
    fn intersection() {
        let (p, vs) = triangle();
        let box2 = HPolyhedron::unit_box(2);
        let q = p.intersect(&box2);
        assert!(q.contains(&[rat(1, 4), rat(1, 4)]));
        assert!(q.is_bounded(&vs));
    }

    #[test]
    fn equality_atoms_become_two_halfspaces() {
        let mut vars = VarMap::new();
        let f = parse_formula_with("x = 1", &mut vars).unwrap();
        let v = vec![vars.get("x").unwrap()];
        let Formula::Atom(a) = f else { panic!() };
        let p = HPolyhedron::from_atoms(&[a], &v).unwrap();
        assert_eq!(p.rows().len(), 2);
        assert!(p.contains(&[rat(1, 1)]));
        assert!(!p.contains(&[rat(2, 1)]));
    }

    #[test]
    fn nonlinear_rejected() {
        let mut vars = VarMap::new();
        let f = parse_formula_with("x*x <= 1", &mut vars).unwrap();
        let v = vec![vars.get("x").unwrap()];
        let Formula::Atom(a) = f else { panic!() };
        assert!(HPolyhedron::from_atoms(&[a], &v).is_none());
    }

    #[test]
    fn empty_polyhedron_bounds() {
        let mut p = HPolyhedron::whole(1);
        p.add_halfspace(vec![rat(1, 1)], rat(0, 1)); // x ≤ 0
        p.add_halfspace(vec![rat(-1, 1)], rat(-1, 1)); // x ≥ 1
        let vars = vec![Var(0)];
        assert!(p.coordinate_bounds(&vars).is_none());
        assert!(p.vertices().is_empty() || !p.contains(&p.vertices()[0]));
    }
}
