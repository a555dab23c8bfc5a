//! Vapnik–Chervonenkis dimension of definable families.
//!
//! For a query `φ(x⃗, y⃗)` and database `D`, the definable family is
//! `F_φ(D) = { φ(ā, D) : ā }` — the sets of `y⃗`-points carved out as the
//! parameters range over the reals. The paper uses its VC dimension in both
//! directions: Proposition 5 exhibits a quantifier-free query with
//! `VCdim(F_φ(D_n)) ≥ log |D_n|`, and Proposition 6 bounds it above by
//! `C·log|D|` with an effective `C` (Goldberg–Jerrum).

use cqa_arith::Rat;
use cqa_core::Database;
use cqa_logic::budget::EvalBudget;
use cqa_logic::Formula;
use cqa_poly::Var;
use cqa_qe::QeError;

/// Decides *exactly*, via quantifier elimination, whether the definable
/// family of `φ(params; point_vars)` (with relations resolved against `db`)
/// shatters the finite point set `points`: for every subset `S` there must
/// exist parameters `ā` with `φ(ā, p)` for `p ∈ S` and `¬φ(ā, p)` for
/// `p ∉ S`.
pub fn shatters(
    db: &Database,
    phi: &Formula,
    params: &[Var],
    point_vars: &[Var],
    points: &[Vec<Rat>],
) -> Result<bool, QeError> {
    let expanded = db.expand(phi).map_err(|_| QeError::HasRelations)?;
    for mask in 0u32..(1 << points.len()) {
        let mut body = Formula::True;
        for (i, p) in points.iter().enumerate() {
            let mut inst = expanded.clone();
            for (v, x) in point_vars.iter().zip(p) {
                inst = inst.subst_rat(*v, x);
            }
            if mask & (1 << i) != 0 {
                body = body.and(inst);
            } else {
                body = body.and(inst.negate());
            }
        }
        let witness = Formula::exists(params.to_vec(), body);
        if !cqa_qe::decide_sentence(&witness, &EvalBudget::unlimited())? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The largest subset of `candidates` shattered by the family (exact, via
/// QE). Exponential in the candidate count; meant for the small instances
/// of E4.
pub fn vc_dimension_on(
    db: &Database,
    phi: &Formula,
    params: &[Var],
    point_vars: &[Var],
    candidates: &[Vec<Rat>],
) -> Result<usize, QeError> {
    let n = candidates.len();
    let mut best = 0;
    // Try subset sizes from large to small; stop at the first shattered.
    for size in (1..=n).rev() {
        if size <= best {
            break;
        }
        let mut choice: Vec<usize> = (0..size).collect();
        'combos: loop {
            let subset: Vec<Vec<Rat>> = choice.iter().map(|&i| candidates[i].clone()).collect();
            if shatters(db, phi, params, point_vars, &subset)? {
                best = size;
                break 'combos;
            }
            let mut k = size;
            loop {
                if k == 0 {
                    break 'combos;
                }
                k -= 1;
                if choice[k] < n - (size - k) {
                    choice[k] += 1;
                    for j in k + 1..size {
                        choice[j] = choice[j - 1] + 1;
                    }
                    break;
                }
            }
        }
        if best == size {
            break;
        }
    }
    Ok(best)
}

/// Empirical shattering for families parameterized over a *finite* pool
/// (e.g. the active domain), avoiding QE: returns true iff every subset of
/// `points` is cut out by some parameter tuple in `pool`.
pub fn shatters_over_pool(
    member: &dyn Fn(&[Rat], &[Rat]) -> bool,
    pool: &[Vec<Rat>],
    points: &[Vec<Rat>],
) -> bool {
    let n = points.len();
    let mut seen = vec![false; 1usize << n];
    let mut remaining = 1usize << n;
    for a in pool {
        let mut mask = 0usize;
        for (i, p) in points.iter().enumerate() {
            if member(a, p) {
                mask |= 1 << i;
            }
        }
        if !seen[mask] {
            seen[mask] = true;
            remaining -= 1;
            if remaining == 0 {
                return true;
            }
        }
    }
    false
}

/// The Proposition-5 witness: the quantifier-free query `φ(x, y) ≡ R(x, y)`
/// over the bit-test database
/// `D_k = { (m, i) : 0 ≤ m < 2ᵏ, 0 ≤ i < k, bit i of m is set }`.
/// The family `{φ(m, D)}` shatters `{0, …, k−1}`, so
/// `VCdim(F_φ(D_k)) ≥ k ≥ log |D_k| − log k + 1 ≥ log |adom(D_k)| · (1−o(1))`;
/// the paper states the clean form `VCdim ≥ log |D|`.
pub fn bit_test_database(k: u32) -> (Database, usize) {
    let mut db = Database::new();
    let mut tuples = Vec::new();
    for m in 0u64..(1 << k) {
        for i in 0..k {
            if m & (1 << i) != 0 {
                tuples.push(vec![Rat::from(m as i64), Rat::from(i as i64)]);
            }
        }
    }
    let size = tuples.len();
    db.add_finite_relation("R", tuples).unwrap();
    (db, size)
}

/// Checks that the bit-test family shatters `{0, …, k−1}` using the active
/// domain as the parameter pool (no QE needed: the query is
/// quantifier-free and relational).
pub fn bit_test_shatters(k: u32) -> bool {
    let (db, _) = bit_test_database(k);
    let member = |a: &[Rat], p: &[Rat]| -> bool {
        let rel = db.relation("R").unwrap();
        rel.contains(&[a[0].clone(), p[0].clone()])
    };
    let pool: Vec<Vec<Rat>> = (0u64..(1 << k))
        .map(|m| vec![Rat::from(m as i64)])
        .collect();
    let points: Vec<Vec<Rat>> = (0..k).map(|i| vec![Rat::from(i as i64)]).collect();
    shatters_over_pool(&member, &pool, &points)
}

/// The effective constant of Proposition 6 for active-semantics FO+POLY
/// queries (via the Goldberg–Jerrum VC bounds):
/// `C = 16·k·(p+q)·(log₂(8·e·d·p·s) + 1)`, where `k` = number of point
/// variables, `q` = quantifier rank, `p` = maximal relation arity,
/// `d` = maximal polynomial degree, `s` = number of atomic subformulas.
pub fn goldberg_jerrum_c(k: u32, p: u32, q: u32, d: u32, s: u32) -> f64 {
    let inner = 8.0 * std::f64::consts::E * f64::from(d) * f64::from(p) * f64::from(s);
    16.0 * f64::from(k) * f64::from(p + q) * (inner.log2() + 1.0)
}

/// Proposition 6 upper bound: `VCdim(F_φ(D)) < C·log₂|D|`.
pub fn prop6_bound(c: f64, db_size: usize) -> f64 {
    c * (db_size.max(2) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_arith::rat;
    use cqa_logic::parse_formula_with;

    #[test]
    fn halflines_shatter_one_point_not_two() {
        // φ(a; y) ≡ y ≤ a: thresholds shatter any single point but no pair.
        let mut db = Database::new();
        let a = db.vars_mut().intern("a");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("y <= a", db.vars_mut()).unwrap();
        let single = vec![vec![rat(0, 1)]];
        assert!(shatters(&db, &phi, &[a], &[y], &single).unwrap());
        let pair = vec![vec![rat(0, 1)], vec![rat(1, 1)]];
        assert!(!shatters(&db, &phi, &[a], &[y], &pair).unwrap());
        let cands = vec![vec![rat(0, 1)], vec![rat(1, 1)], vec![rat(2, 1)]];
        assert_eq!(vc_dimension_on(&db, &phi, &[a], &[y], &cands).unwrap(), 1);
    }

    #[test]
    fn intervals_have_vc_dimension_two() {
        // φ(a, b; y) ≡ a ≤ y ≤ b.
        let mut db = Database::new();
        let a = db.vars_mut().intern("a");
        let b = db.vars_mut().intern("b");
        let y = db.vars_mut().intern("y");
        let phi = parse_formula_with("a <= y & y <= b", db.vars_mut()).unwrap();
        let one = vec![vec![rat(0, 1)]];
        assert!(shatters(&db, &phi, &[a, b], &[y], &one).unwrap());
        let two = vec![vec![rat(0, 1)], vec![rat(1, 1)]];
        assert!(shatters(&db, &phi, &[a, b], &[y], &two).unwrap());
        let three = vec![vec![rat(0, 1)], vec![rat(1, 1)], vec![rat(2, 1)]];
        assert!(!shatters(&db, &phi, &[a, b], &[y], &three).unwrap());
        assert_eq!(
            vc_dimension_on(&db, &phi, &[a, b], &[y], &three).unwrap(),
            2
        );
    }

    #[test]
    fn prop5_family_shatters_log_many() {
        for k in 1..=5 {
            assert!(bit_test_shatters(k), "k = {k}");
        }
    }

    #[test]
    fn prop5_exceeds_log_db() {
        // VCdim ≥ k while |D| = k·2^(k-1): k ≥ log2(|D|) − log2(k) + 1.
        let k = 4u32;
        let (_, size) = bit_test_database(k);
        assert_eq!(size, (k as usize) << (k - 1)); // k·2^(k−1)
        let vc_lower = k as f64;
        assert!(vc_lower >= (size as f64).log2() - (k as f64).log2() + 1.0 - 1e-9);
    }

    #[test]
    fn goldberg_jerrum_is_modest() {
        let c = goldberg_jerrum_c(2, 2, 1, 1, 8);
        assert!(c > 0.0 && c < 1e4);
        assert!(prop6_bound(c, 100) > c);
    }

    #[test]
    fn pool_shattering() {
        // Pool {0,1,2,3} as 2-bit masks, membership = bit test: shatters 2 points.
        let member = |a: &[Rat], p: &[Rat]| {
            let m = a[0].numer().to_i64().unwrap();
            let i = p[0].numer().to_i64().unwrap();
            m & (1 << i) != 0
        };
        let pool: Vec<Vec<Rat>> = (0..4).map(|m| vec![rat(m, 1)]).collect();
        let pts: Vec<Vec<Rat>> = (0..2).map(|i| vec![rat(i, 1)]).collect();
        assert!(shatters_over_pool(&member, &pool, &pts));
        let three: Vec<Vec<Rat>> = (0..3).map(|i| vec![rat(i, 1)]).collect();
        assert!(!shatters_over_pool(&member, &pool, &three));
    }
}
