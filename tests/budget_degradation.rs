//! End-to-end contract of the budget subsystem: a blow-up query under a
//! deadline returns a typed `BudgetExceeded` *promptly*, and
//! `volume_with_fallback` degrades a budget-tripping volume query to a
//! Monte Carlo estimate tagged with its (ε, δ) guarantee instead of
//! failing.
//!
//! Two distinct trips are exercised, matching where degradation can and
//! cannot help. A *QE* blow-up (the `explosive` query) trips the budget
//! typed and fast, but no estimator can rescue it — Monte Carlo membership
//! tests need the same elimination the budget just cancelled. A trip in
//! the *exact volume* (`overlapping_squares` under a step cap that its
//! elimination fits under) is exactly where the fallback earns its keep:
//! sampling the quantifier-free matrix is cheap.

use constraint_agg::agg::{volume_with_fallback, AggError, VolumeOutcome, FALLBACK_DELTA};
use constraint_agg::arith::{rat, Rat};
use constraint_agg::core::Database;
use constraint_agg::logic::budget::{BudgetResource, EvalBudget};
use constraint_agg::logic::{parse_formula_with, Atom, Formula, Rel};
use constraint_agg::poly::{MPoly, Var};
use constraint_agg::qe::{eliminate, QeError};
use std::time::{Duration, Instant};

/// Four existential quantifiers over degree-2/3 polynomial atoms: the
/// Cohen–Hörmander case split on this takes far longer than any test
/// deadline (the same query as `examples/lint/blowup.cqa`).
fn explosive(db: &mut Database) -> (constraint_agg::logic::Formula, Vec<Var>) {
    let x = db.vars_mut().intern("x");
    let f = parse_formula_with(
        "exists a. exists b. exists c. exists d. \
         (a*a + b*b + c*c + d*d <= x & a*b + b*c + c*d >= x*x \
          & a + b + c + d = x & a*a*b <= c + d)",
        db.vars_mut(),
    )
    .unwrap();
    (f, vec![x])
}

#[test]
fn explosive_qe_returns_budget_error_within_deadline() {
    let mut db = Database::new();
    let (f, _) = explosive(&mut db);
    let deadline = Duration::from_millis(50);
    let budget = EvalBudget::unlimited().with_deadline(deadline);
    let start = Instant::now();
    let r = eliminate(&f, &budget);
    let elapsed = start.elapsed();
    match r {
        Err(QeError::Budget(b)) => {
            assert_eq!(b.resource, BudgetResource::Deadline);
            assert!(b.steps > 0, "checks must have been exercised");
        }
        other => panic!("expected a budget trip, got {other:?}"),
    }
    // Cooperative cancellation is coarse (the clock is probed every
    // CLOCK_PERIOD steps), but must still be responsive: well under a
    // second for a 50 ms deadline even on a slow machine.
    assert!(
        elapsed < Duration::from_secs(5),
        "budget trip took {elapsed:?}"
    );
}

#[test]
fn explosive_max_steps_trips_as_steps_resource() {
    let mut db = Database::new();
    let (f, _) = explosive(&mut db);
    let budget = EvalBudget::unlimited().with_max_steps(100);
    match eliminate(&f, &budget) {
        Err(QeError::Budget(b)) => assert_eq!(b.resource, BudgetResource::Steps),
        other => panic!("expected a step-budget trip, got {other:?}"),
    }
}

/// A quantifier-free union of 16 pairwise-overlapping squares inside the
/// unit box. QE has nothing to eliminate and takes no budget step, so the
/// *exact volume* is where the steps go: one per DNF cell, then the
/// sweep's. The Monte Carlo fallback only evaluates the quantifier-free
/// matrix at sample points, which is cheap.
fn overlapping_squares(db: &mut Database) -> (Formula, Vec<Var>) {
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let le = |p: MPoly| Formula::Atom(Atom::new(p, Rel::Le));
    let mut f = Formula::False;
    for i in 0..16i64 {
        let lo = Rat::new(i.into(), 32i64.into());
        let hi = &lo + &rat(1, 2);
        let cell = le(MPoly::constant(lo.clone()) - MPoly::var(x))
            .and(le(MPoly::var(x) - MPoly::constant(hi.clone())))
            .and(le(MPoly::constant(lo) - MPoly::var(y)))
            .and(le(MPoly::var(y) - MPoly::constant(hi)));
        f = f.or(cell);
    }
    (f, vec![x, y])
}

/// A step cap that [`overlapping_squares`]' exact volume exceeds
/// (asserted below).
const VOLUME_TRIP_STEPS: u64 = 8;

/// A budget capped at [`VOLUME_TRIP_STEPS`], after checking that
/// eliminating `f` fits under that cap: a trip under it comes from the
/// volume phase.
fn volume_trip_budget(f: &Formula) -> EvalBudget {
    let capped = || EvalBudget::unlimited().with_max_steps(VOLUME_TRIP_STEPS);
    let qe = eliminate(f, &capped());
    assert!(qe.is_ok(), "elimination must fit under the cap: {qe:?}");
    capped()
}

#[test]
fn volume_with_fallback_degrades_to_tagged_mc_estimate() {
    let mut db = Database::new();
    let (f, vars) = overlapping_squares(&mut db);
    // Without the cap the exact volume finishes, past the cap.
    let roomy = EvalBudget::unlimited();
    let exact = volume_with_fallback(&db, &f, &vars, &roomy, 0.1).unwrap();
    assert_eq!(exact, VolumeOutcome::Exact(rat(721, 1024)));
    assert!(roomy.steps() > VOLUME_TRIP_STEPS, "{} steps", roomy.steps());
    let budget = volume_trip_budget(&f);
    let eps = 0.1;
    let outcome = volume_with_fallback(&db, &f, &vars, &budget, eps).unwrap();
    match outcome {
        VolumeOutcome::Approximate {
            estimate,
            eps: tag_eps,
            delta,
            samples,
        } => {
            assert_eq!(tag_eps, eps);
            assert_eq!(delta, FALLBACK_DELTA);
            // Hoeffding count for a single fixed set.
            let expect = ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize + 1;
            assert_eq!(samples, expect);
            // A volume estimate over the unit box lies in [0, 1].
            let v = estimate.to_f64();
            assert!((0.0..=1.0).contains(&v), "estimate {v}");
        }
        VolumeOutcome::Exact(v) => panic!("expected degradation, got exact {v:?}"),
    }
}

#[test]
fn volume_with_fallback_stays_exact_when_budget_allows() {
    let mut db = Database::new();
    let x = db.vars_mut().intern("x");
    let y = db.vars_mut().intern("y");
    let f = parse_formula_with("x >= 0 & y >= 0 & x + y <= 1", db.vars_mut()).unwrap();
    let outcome = volume_with_fallback(&db, &f, &[x, y], &EvalBudget::unlimited(), 0.1).unwrap();
    assert!(outcome.is_exact());
    assert_eq!(*outcome.value(), constraint_agg::arith::rat(1, 2));
}

#[test]
fn volume_with_fallback_rejects_bad_eps() {
    let mut db = Database::new();
    let x = db.vars_mut().intern("x");
    let f = parse_formula_with("0 <= x & x <= 1", db.vars_mut()).unwrap();
    assert!(volume_with_fallback(&db, &f, &[x], &EvalBudget::unlimited(), 0.0).is_err());
    assert!(volume_with_fallback(&db, &f, &[x], &EvalBudget::unlimited(), 1.5).is_err());
}

#[test]
fn volume_with_fallback_returns_a_qe_trip_and_degrades_a_volume_trip() {
    // QE trips: there is no quantifier-free matrix to sample, so the trip
    // comes back typed, and promptly.
    let mut db = Database::new();
    let (f, vars) = explosive(&mut db);
    let budget = EvalBudget::unlimited().with_deadline(Duration::from_millis(50));
    let start = Instant::now();
    let r = volume_with_fallback(&db, &f, &vars, &budget, 0.1);
    let elapsed = start.elapsed();
    assert!(matches!(r, Err(AggError::Budget(_))), "{r:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "budget trip took {elapsed:?}"
    );
    // The exact volume trips: the matrix QE left behind is sampled.
    let mut db = Database::new();
    let (f, vars) = overlapping_squares(&mut db);
    let budget = volume_trip_budget(&f);
    let outcome = volume_with_fallback(&db, &f, &vars, &budget, 0.1).unwrap();
    assert!(!outcome.is_exact(), "{outcome:?}");
}

#[test]
fn volume_with_fallback_refuses_a_sample_count_past_the_cap() {
    // ε = 10⁻²⁰⁰ squares to 0: its Hoeffding count is infinite, and used to
    // wrap to 0 samples and panic on a zero denominator.
    let mut db = Database::new();
    let (f, vars) = overlapping_squares(&mut db);
    let budget = volume_trip_budget(&f);
    let r = volume_with_fallback(&db, &f, &vars, &budget, 1e-200);
    match r {
        Err(AggError::Db(msg)) => assert!(msg.contains("over the cap"), "{msg}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}
