//! The seeded-reproducibility contract under threading: every Monte Carlo
//! entry point returns *bit-identical* results for any worker count,
//! because each worker sweeps a range of whole batches of the one sample
//! stream, reached by exact jump-ahead, and range tallies combine with
//! exact rational arithmetic.

use cqa_approx::mc::{mc_average_over, mc_volume_in_unit_box, UniformVolumeEstimator};
use cqa_approx::sample::Witness;
use cqa_arith::{rat, Rat};
use cqa_core::Database;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{parse_formula_with, Formula};
use cqa_poly::{MPoly, Var};

const THREADS: [usize; 3] = [1, 2, 8];

fn triangle(db: &mut Database) -> (Formula, Vec<Var>) {
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let f = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", db.vars_mut()).unwrap();
    (f, vec![x, y])
}

#[test]
fn volume_identical_across_thread_counts() {
    // m = 1500 spans several 512-point batches, so > 1 worker really runs.
    let mut db = Database::new();
    let (f, vs) = triangle(&mut db);
    let runs: Vec<Rat> = THREADS
        .iter()
        .map(|&t| {
            let mut w = Witness::new(2024);
            mc_volume_in_unit_box(&db, &f, &vs, 1500, &mut w, t, &EvalBudget::unlimited()).unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    // And the estimate is a real one: the triangle has volume 1/2.
    assert!((runs[0].to_f64() - 0.5).abs() < 0.05, "{:?}", runs[0]);
}

#[test]
fn average_identical_across_thread_counts() {
    let mut db = Database::new();
    let (f, vs) = triangle(&mut db);
    let p = MPoly::var(vs[0]); // E[x] over the triangle = 1/3
    let runs: Vec<Rat> = THREADS
        .iter()
        .map(|&t| {
            let mut w = Witness::new(77);
            mc_average_over(&db, &f, &vs, &p, 1500, &mut w, t, &EvalBudget::unlimited())
                .unwrap()
                .unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    assert!((runs[0].to_f64() - 1.0 / 3.0).abs() < 0.05, "{:?}", runs[0]);
}

#[test]
fn shared_sample_estimates_identical_across_thread_counts() {
    // Parametric family: [0, a] × [0, 1]; VOL = a on the unit cube.
    let mut db = Database::new();
    let a = db.vars_mut().intern("a");
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let f = parse_formula_with("x >= 0 & x <= a & y >= 0 & y <= 1", db.vars_mut()).unwrap();
    let mut w = Witness::new(5);
    let unlimited = EvalBudget::unlimited();
    let est =
        UniformVolumeEstimator::new(&db, &f, &[a], &[x, y], 0.05, 0.1, 3.0, &mut w, &unlimited)
            .unwrap();
    assert!(est.sample_len() > 512, "need multiple batches");
    for av in [rat(1, 4), rat(1, 2), rat(3, 4)] {
        let base = est
            .estimate(std::slice::from_ref(&av), 1, &unlimited)
            .unwrap();
        for t in [2, 8] {
            assert_eq!(
                Ok(base.clone()),
                est.estimate(std::slice::from_ref(&av), t, &unlimited),
                "threads = {t}"
            );
        }
        assert!((base.to_f64() - av.to_f64()).abs() < 0.05);
    }
}
