//! Tests of the generators against the engine, in-process and untimed:
//! determinism, seed-insensitivity, and that no seed can draw a region
//! whose fixed-seed Monte Carlo estimate misses its closed form.

use crate::check::check;
use crate::gen::*;
use crate::replay::frame_command;
use crate::wire::{engine_config, Tally};
use cqa_engine::{Engine, EngineStats};

/// Runs the plan's set-up and one round through `Engine::dispatch`,
/// checking every response.
fn one_round(plan: &mut Plan) -> (Tally, Engine) {
    let engine = Engine::new(engine_config());
    let mut session = engine.open_session();
    let mut tally = Tally::default();
    for req in &plan.setup {
        let resp = engine.dispatch(&mut session, frame_command(&req.text));
        tally.record(req, &resp, false);
    }
    for i in plan.next_round() {
        let req = &plan.pool[i];
        let resp = engine.dispatch(&mut session, frame_command(&req.text));
        tally.record(req, &resp, true);
    }
    (tally, engine)
}

fn texts(plan: &Plan) -> Vec<&str> {
    plan.setup
        .iter()
        .chain(&plan.pool)
        .map(|r| r.text.as_str())
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_requests() {
    for w in Workload::ALL {
        let (mut a, mut b) = (Plan::new(w, 7), Plan::new(w, 7));
        assert_eq!(texts(&a), texts(&b), "{}", w.name());
        assert_eq!(a.next_round(), b.next_round(), "{}", w.name());
        let other = Plan::new(w, 8);
        assert_ne!(texts(&a), texts(&other), "{}: seed 8 must differ", w.name());
        assert_eq!(
            texts(&a).len(),
            texts(&other).len(),
            "{}: but not in shape",
            w.name()
        );
    }
}

#[test]
fn expected_answer_arithmetic() {
    assert_eq!(Frac::new(2, 20).to_string(), "1/10");
    assert_eq!(Frac::new(6, 3).to_string(), "2");
    assert_eq!(Frac::new(1, -2).to_string(), "-1/2");
    assert_eq!(Frac::new(1, 2).add(Frac::new(1, 3)), Frac::new(5, 6));
    assert_eq!(Frac::new(1, 2).sub(Frac::new(1, 3)), Frac::new(1, 6));
    assert_eq!(Frac::new(2, 3).mul(Frac::new(3, 4)), Frac::new(1, 2));
    assert_eq!(Frac::new(1, 2).max(Frac::new(2, 3)), Frac::new(2, 3));
    // [0.1, 0.3] × [0.2, 0.5] ∪ [0.2, 0.6] × [0.4, 0.7] = 0.06 + 0.12 − 0.01.
    let area = Frac::new(6, 100)
        .add(Frac::new(12, 100))
        .sub(Frac::new(1, 100));
    assert_eq!(area.to_string(), "17/100");
    // Lemma 1 at the engine's default and at warm_batch's ε = δ.
    assert_eq!(hoeffding_samples(0.05, 0.05), 739);
    assert_eq!(hoeffding_samples(0.01, 0.01), 26_493);
}

#[test]
fn every_workload_answers_as_constructed_for_seeds_1_to_10() {
    for w in Workload::ALL {
        let mut shape: Vec<[f64; 4]> = Vec::new();
        for seed in 1..=10 {
            let mut plan = Plan::new(w, seed);
            let (tally, engine) = one_round(&mut plan);
            assert_eq!(
                tally.failed,
                0,
                "{} seed {seed}: {:?}",
                w.name(),
                tally.reasons
            );
            let snap = engine.cache.snapshot();
            assert_eq!(snap.evictions, 0, "{} seed {seed}", w.name());
            if w.is_cold() {
                // No two queries of a cold round share a canonical key.
                assert_eq!(snap.hits, 0, "{} seed {seed}", w.name());
                assert_eq!(
                    snap.misses as usize,
                    plan.queries(),
                    "{} seed {seed}",
                    w.name()
                );
            } else {
                assert_eq!(
                    snap.misses as usize,
                    plan.queries(),
                    "{} seed {seed}",
                    w.name()
                );
                assert_eq!(snap.hits, tally.round_ops, "{} seed {seed}", w.name());
            }
            let ops = tally.round_ops as f64;
            let swept = EngineStats::get(&engine.stats.batch_fast_lanes)
                + EngineStats::get(&engine.stats.batch_exact_lanes);
            shape.push([
                tally.steps as f64 / ops,
                plan.round_bytes() as f64,
                tally.samples as f64 / ops,
                swept as f64 / ops,
            ]);
        }
        // A seed changes magnitudes, names and order: never the work.
        let what = [
            "steps_per_op",
            "bytes per round",
            "samples_per_op",
            "kernel lanes per op",
        ];
        for (i, what) in what.into_iter().enumerate() {
            let v = shape.iter().map(|s| s[i]);
            let (lo, hi) = v.fold((f64::MAX, f64::MIN), |a, x| (a.0.min(x), a.1.max(x)));
            assert!(
                hi == 0.0 || (hi - lo) / hi <= 0.02,
                "{} {what}: {shape:?}",
                w.name()
            );
        }
    }
}

/// Prepares and runs `queries` on a fresh engine, asserting that every
/// estimate lies within ε of its closed form.
fn assert_within_eps(queries: &[Query], eps: f64, what: &str) {
    let engine = Engine::new(engine_config());
    let mut session = engine.open_session();
    for (i, q) in queries.iter().enumerate() {
        let Answer::Approx(Volume::Closed(volume)) = q.answer else {
            panic!("{what}: closed forms only");
        };
        let name = format!("q{i}");
        assert!(
            engine.prepare(&mut session, &name, &q.src).is_ok(),
            "{}",
            q.src
        );
        let resp = engine.exec(&mut session, &name, Some(eps), Some(eps));
        let expect = Expect::Approx {
            volume: Volume::Closed(volume),
            eps,
            delta: eps,
            cache: "miss",
        };
        if let Err(why) = check(&resp, &expect) {
            panic!("{what}: {why} for {}", q.src);
        }
    }
}

#[test]
fn no_coefficient_choice_misses_its_closed_form() {
    // The engine samples with a fixed seed, so an estimate is a function of
    // the region alone, and the regions a seed can draw are few: sweep them
    // all.
    let names = Names::for_test();
    for o0 in 0..5 {
        for o1 in 0..5 {
            for o2 in 0..3 {
                let o = [o0, o1, o2];
                let what = format!("offsets {o:?}");
                assert_within_eps(&regions(8, o, &names), DEFAULT_EPS, &what);
                assert_within_eps(&regions(2, o, &names), BATCH_EPS, &what);
                if o2 < 2 {
                    assert_within_eps(&quadratic_queries(o, &names), DEFAULT_EPS, &what);
                }
                if o2 == 0 {
                    assert_within_eps(&decided_queries([o0, o1], &names), DEFAULT_EPS, &what);
                }
            }
        }
    }
}
