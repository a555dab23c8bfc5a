//! Satellite: concurrent cache-correctness stress test.
//!
//! N client threads share one [`Engine`] and issue interleaved
//! `PREPARE`/`EXEC` of overlapping and distinct queries. Every answer —
//! exact or degraded Monte Carlo — must be **bit-identical** to the one a
//! single-threaded engine produces: the cache may change *when* work
//! happens, never *what* comes out.

use cqa_engine::{Engine, EngineConfig};
use cqa_testkit::wire::{answer_part, QUERIES};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

fn run_queries(engine: &Engine, order: &[usize]) -> Vec<(String, String)> {
    let mut session = engine.open_session();
    let mut out = Vec::new();
    for &i in order {
        let (name, src) = QUERIES[i];
        let r = engine.prepare(&mut session, name, src);
        assert!(r.is_ok(), "{r:?}");
        let r = engine.exec(&mut session, name, None, None);
        assert!(r.is_ok(), "{r:?}");
        out.push((name.to_string(), answer_part(&r.header)));
    }
    out
}

#[test]
fn concurrent_answers_are_bit_identical_to_single_threaded() {
    // Reference: one engine, one thread, every query once.
    let reference = Engine::new(EngineConfig::default());
    let baseline: HashMap<String, String> = run_queries(&reference, &[0, 1, 2, 3, 4, 5])
        .into_iter()
        .collect();

    // Stress: 8 threads, each running a different interleaving several
    // times — same-query collisions (cache races) and distinct queries
    // (eviction/bookkeeping races) both occur.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mut results = Vec::new();
                for round in 0..4 {
                    let order: Vec<usize> = (0..QUERIES.len())
                        .map(|i| (i + t + round) % QUERIES.len())
                        .collect();
                    results.extend(run_queries(&engine, &order));
                }
                results
            })
        })
        .collect();

    let mut checked = 0usize;
    for h in handles {
        for (name, answer) in h.join().expect("stress thread") {
            assert_eq!(
                baseline[&name], answer,
                "query `{name}` diverged under concurrency"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 8 * 4 * QUERIES.len());

    // The whole point of the shared cache: most of those EXECs were hits.
    let snap = engine.cache.snapshot();
    assert_eq!(snap.hits + snap.misses, (8 * 4 * QUERIES.len()) as u64);
    // Worst case every thread misses each key once before the first
    // insert lands (8 × |Q|); everything after that must hit.
    assert!(
        snap.misses <= (8 * QUERIES.len()) as u64,
        "expected near-universal cache hits, got {snap:?}"
    );
    assert!(snap.hits > 0, "{snap:?}");
}
