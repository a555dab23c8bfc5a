//! Convex polyhedra in H-representation (conjunctions of half-spaces).

use crate::linalg::{solve, Mat};
use cqa_arith::Rat;
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
    fn empty_polyhedron_has_no_vertices() {
        let mut p = HPolyhedron::whole(1);
        p.add_halfspace(vec![rat(1, 1)], rat(0, 1)); // x ≤ 0
        p.add_halfspace(vec![rat(-1, 1)], rat(-1, 1)); // x ≥ 1
        assert!(p.vertices().is_empty());
    }
}
