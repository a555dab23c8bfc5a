//! The paper's quantitative claims, as assertions.
//!
//! Each test pins down a number or behaviour the paper states. The heavier
//! statistical experiments (E1, E3, E11) run in full from the `report`
//! binary; here we run their fast counterparts plus every exactly-checkable
//! claim.

use constraint_agg::agg::polygon_area_sum_term;
use constraint_agg::approx::km::paper_example_cost;
use constraint_agg::approx::sample::sample_size;
use constraint_agg::approx::separating::{
    find_separating_sentence, good_instance_volumes, GoodInstance,
};
use constraint_agg::approx::trivial::trivial_volume_approximation;
use constraint_agg::approx::vc::{bit_test_database, bit_test_shatters};
use constraint_agg::core::Database;
use constraint_agg::geom::{polygon_area, volume, volume_in_unit_box_with_budget};
use constraint_agg::logic::{parse_formula_with, VarMap};
use constraint_agg::poly::Var;
use constraint_agg::prelude::*;

fn unlimited() -> EvalBudget {
    EvalBudget::unlimited()
}

/// §3 worked example: `VOL_I(φ(a, b, U)) = (b² − a²)/2`.
#[test]
fn section3_example_volume_formula() {
    for (a, b) in [(0i64, 1i64), (1, 2), (1, 3)] {
        let mut vars = VarMap::new();
        let y1 = vars.intern("y1");
        let y2 = vars.intern("y2");
        let src = format!("{a}/4 < y1 & y1 < {b}/4 & 0 <= y2 & y2 <= y1");
        let f = parse_formula_with(&src, &mut vars).unwrap();
        let v = volume_in_unit_box_with_budget(&f, &[y1, y2], &unlimited()).unwrap();
        let expect = (rat(b, 4).pow(2) - rat(a, 4).pow(2)) / rat(2, 1);
        assert_eq!(v, expect, "a={a}/4 b={b}/4");
    }
}

/// §3: the Karpinski–Macintyre construction needs ≥ 10⁹ atoms and ≥ 10¹¹
/// quantifiers at ε = 1/10 (our cost model under-approximates the real
/// construction and still exceeds both bounds).
#[test]
fn section3_blowup_numbers() {
    let c = paper_example_cost(16, 0.1);
    assert!(c.atoms >= 1e9);
    assert!(c.quantifiers >= 1e11);
}

/// §2: FO+LIN and FO+POLY are not closed under VOL_I — the arctan set.
/// Our exact engine refuses polynomial inputs; and indeed the true value
/// π/4 is irrational, so no exact rational answer exists.
#[test]
fn non_closure_arctan() {
    let mut vars = VarMap::new();
    let y = vars.intern("y");
    let z = vars.intern("z");
    let f = parse_formula_with("0 <= y & y <= 1 & 0 <= z & z + z*y*y <= 1", &mut vars).unwrap();
    assert!(volume(&f, &[y, z], &unlimited()).is_err());
}

/// Proposition 4: the trivial approximator achieves error ≤ 1/2 on every
/// instance, resolving volume-0 and volume-1 cases exactly.
#[test]
fn proposition4_trivial_approximation() {
    let mut vars = VarMap::new();
    let vs: Vec<Var> = ["x", "y"].iter().map(|n| vars.intern(n)).collect();
    for src in [
        "x <= y",
        "x >= 1",
        "true",
        "x = 0.25",
        "x >= 0.125 & y <= 0.875",
    ] {
        let f = parse_formula_with(src, &mut vars).unwrap();
        let est = trivial_volume_approximation(&f, &vs).unwrap();
        let truth = volume_in_unit_box_with_budget(&f, &vs, &unlimited()).unwrap();
        assert!((est - truth).abs() <= rat(1, 2), "{src}");
    }
}

/// Proposition 1 (empirical shadow): no candidate in the bounded FO_act
/// template family is a (2,2)-separating sentence.
#[test]
fn proposition1_no_separating_sentence() {
    assert!(find_separating_sentence(2.0, 2.0, 10).is_empty());
}

/// Theorem 2's reduction: good instances map to interval families whose
/// volumes encode the cardinality ratio exactly.
#[test]
fn theorem2_reduction_encodes_ratio() {
    let inst = GoodInstance::new(10, (0..10).map(|i| i % 3 == 0).collect()).unwrap();
    let (vx, vy) = good_instance_volumes(&inst);
    assert_eq!(&vx + &vy, Rat::one());
    assert!(vx.is_positive());
}

/// Proposition 5: the bit-test family shatters a log-size set.
#[test]
fn proposition5_vc_lower_bound() {
    for k in 1..=5u32 {
        assert!(bit_test_shatters(k));
        let (_, size) = bit_test_database(k);
        assert_eq!(size, (k as usize) << (k - 1));
    }
}

/// §3 sample bound: the BEHW formula is monotone the right way around and
/// matches the stated max form.
#[test]
fn sample_bound_shape() {
    let m1 = sample_size(0.1, 0.1, 4.0);
    let m2 = sample_size(0.1, 0.1, 8.0);
    assert!(m2 >= 2 * m1 - 2, "linear growth in d");
    let tiny_d = sample_size(0.25, 0.25, 0.0);
    let expect = ((4.0 / 0.25) * (2.0f64 / 0.25).log2()).ceil() as usize + 1;
    assert_eq!(tiny_d, expect);
}

/// Theorem 3 sanity on a database of the paper's own favourite shape: the
/// area of a union of two overlapping boxes through the language pipeline.
#[test]
fn theorem3_union_volume() {
    let mut db = Database::new();
    db.define(
        "U",
        &["x", "y"],
        "(0 <= x & x <= 2 & 0 <= y & y <= 2) | (1 <= x & x <= 3 & 1 <= y & y <= 3)",
    )
    .unwrap();
    assert_eq!(
        constraint_agg::agg::semilinear_volume(&db, "U").unwrap(),
        rat(7, 1)
    );
}

/// The fast experiment suite (assertions embedded in each table builder).
#[test]
fn experiment_tables_fast_subset() {
    for id in ["e2", "e4", "e6", "e7", "e8", "e12"] {
        let table = cqa_bench::run_one(id).expect("known experiment");
        assert!(!table.is_empty(), "{id} produced no output");
    }
    // E6's identity also on the larger hulls (8–64 sample points).
    for n in [8usize, 16, 32, 64] {
        let poly = cqa_bench::workloads::random_convex_polygon(n, n as u64);
        assert_eq!(polygon_area_sum_term(&poly), polygon_area(&poly), "{n}");
    }
}
