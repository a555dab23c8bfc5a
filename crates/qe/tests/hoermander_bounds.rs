//! Resource bounds of the Cohen–Hörmander engine on three probes whose
//! elimination does not finish in reasonable time: a step cap must trip,
//! a deadline must stop the work promptly, and neither run may grow the
//! peak resident set by much (the per-elimination sign-matrix memo is
//! capped and dies with its elimination). And on formulas whose derivation
//! nests deeper than a request thread's stack holds: the depth cap must
//! trip before the stack runs out.
//!
//! One memory-hungry `#[test]` only, so the binary's VmHWM is that test's
//! own; the depth probes stop within a few thousand steps and allocate
//! little.

use cqa_logic::budget::{BudgetResource, EvalBudget};
use cqa_logic::{parse_formula, REQUEST_STACK_BYTES};
use cqa_qe::{hoermander, QeError};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const PROBES: [&str; 3] = [
    // Two quantifiers over mixed-degree atoms: the output formula itself
    // grows without bound.
    "exists y. exists z. ((x*a - x*y - 2*y*z >= -2) | (y + 3 + 2*z*z - y*x >= -2))",
    // One quantifier, degree 7: a long remainder chain.
    "exists y. y^7 - 3*y^2*x + x*y - 1 = 0 & 0 < x & x < 1",
    // Three quantifiers over a product: many families, many memo builds.
    "exists y. exists z. exists w. x*y*z*w > 1 & y*y + z*z + w*w < 1",
];

/// Peak resident set size of this process, in KiB (`None` off Linux).
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `hoermander` on a worker thread, so that a run that ignores its
/// budget fails the test instead of hanging it; returns the error the run
/// ended with and the time the call itself took.
fn run(src: &'static str, budget: EvalBudget, patience: Duration) -> (QeError, Duration) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let f = parse_formula(src).unwrap().0;
        let start = Instant::now();
        let out = hoermander(&f, &budget);
        tx.send((out, start.elapsed())).unwrap();
    });
    let answer = rx.recv_timeout(patience);
    if answer.is_ok() {
        worker.join().unwrap();
    }
    match answer {
        Ok((Err(e), took)) => (e, took),
        Ok((Ok(_), _)) => panic!("{src}: finished; it is meant to exhaust its budget"),
        Err(_) => panic!("{src}: no answer within {patience:?}"),
    }
}

#[test]
fn probes_respect_step_cap_deadline_and_memory() {
    let hwm_before = vm_hwm_kib();
    for src in PROBES {
        let budget = EvalBudget::unlimited().with_max_steps(100_000);
        match run(src, budget, Duration::from_secs(120)) {
            (QeError::Budget(b), _) => assert_eq!(b.resource, BudgetResource::Steps, "{src}"),
            (e, _) => panic!("{src}: {e}"),
        }
    }
    let deadline = Duration::from_millis(50);
    for src in PROBES {
        let budget = EvalBudget::unlimited().with_deadline(deadline);
        let (e, took) = run(src, budget, Duration::from_secs(30));
        assert!(
            matches!(e, QeError::Budget(b) if b.resource == BudgetResource::Deadline),
            "{src}: {e}"
        );
        // Unoptimised builds may run long between two clock reads.
        if !cfg!(debug_assertions) {
            assert!(
                took <= deadline + Duration::from_millis(5),
                "{src}: returned {:?} after its {deadline:?} deadline",
                took - deadline
            );
        }
    }
    // P1's memory is its output formula, which grows with every step; P2's
    // and P3's is the sign-matrix memo, which the build cap keeps flat (an
    // uncapped memo grows past 12 MiB by 500 000 steps on each), so they
    // run longer.
    for src in &PROBES[1..] {
        let budget = EvalBudget::unlimited().with_max_steps(500_000);
        match run(src, budget, Duration::from_secs(300)) {
            (QeError::Budget(b), _) => assert_eq!(b.resource, BudgetResource::Steps, "{src}"),
            (e, _) => panic!("{src}: {e}"),
        }
    }
    if let (Some(before), Some(after)) = (hwm_before, vm_hwm_kib()) {
        assert!(
            after - before <= 12 * 1024,
            "peak RSS grew by {} KiB over the probes",
            after - before
        );
    }
}

/// Formulas whose derivation nests 17 000 to 300 000 levels deep: the first
/// finishes in 13 666 steps, but on a stack of ≈ 7 MiB, more than twice what
/// a request thread has; it used to abort the server. The last never
/// finishes, and nests deeper with every step.
const DEEP: [&str; 3] = [
    "exists y. exists z. ((-3*y*y - 3*z + 2*y = 1) & (-z*z < -3) | (2*y*y - z = 0))",
    "exists y. exists z. ((y*y - 3*z + 2*y = 1) & (z*z > 3) | (2*y*y - z = 1))",
    "exists y. exists z. ((-3*y*y - 3*z + 2*y = 1) & (-z*z*z < -3) | (2*y*y - z = 0))",
];

/// On a thread of exactly a request's stack, each deep derivation trips the
/// depth cap instead of overflowing, long before the step cap; the thread
/// then decides a small sentence as usual.
#[test]
fn derivations_too_deep_for_a_request_stack_trip_the_depth_cap() {
    thread::Builder::new()
        .stack_size(REQUEST_STACK_BYTES)
        .spawn(|| {
            for src in DEEP {
                let f = parse_formula(src).unwrap().0;
                let budget = EvalBudget::unlimited().with_max_steps(200_000);
                match hoermander(&f, &budget) {
                    Err(QeError::Budget(b)) => {
                        assert_eq!(b.resource, BudgetResource::Depth, "{src}");
                        assert!(b.steps < 20_000, "{src}: tripped after {} steps", b.steps);
                    }
                    other => panic!("{src}: {other:?}"),
                }
            }
            let f = parse_formula("exists x. x*x = 2").unwrap().0;
            let out = hoermander(&f, &EvalBudget::unlimited());
            assert_eq!(out, Ok(cqa_logic::Formula::True));
        })
        .unwrap()
        .join()
        .unwrap();
}
