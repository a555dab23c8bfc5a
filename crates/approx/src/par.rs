//! A minimal deterministic fork–join runner over indexed work items.
//!
//! Monte Carlo estimation (Theorem 4) is embarrassingly parallel, but the
//! seeded-reproducibility contract of [`crate::sample::Witness`] demands
//! that results not depend on scheduling. The invariants here guarantee
//! that:
//!
//! * the work is a list of items `0..n`, each a pure function of its
//!   index; for a sweep an item is one lane range of
//!   [`crate::mc::lane_parts`], which reads its own stretch of the one
//!   sample stream by exact jump-ahead — not any shared mutable RNG;
//! * results are returned **in index order**, whatever order workers
//!   finished them in.
//!
//! Consequently any fold over the results is thread-count invariant.
//! Threading is `std::thread::scope` only — no external runtime.
//! [`map_items`] is the one worker loop: each item runs under
//! `catch_unwind`, so a panicking work closure surfaces as a typed
//! [`ApproxError::WorkerPanicked`] instead of aborting the process — one poisoned
//! item cannot kill a long-running service. [`run_items`] (which
//! `cqa-engine` uses to answer a `BATCH`'s cached specs side by side)
//! re-raises it on the caller instead.

use crate::ApproxError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The default worker count: the machine's available parallelism, read
/// once per process (on Linux the lookup opens cgroup files, which a
/// per-request caller should not pay for every time).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Runs `work(i)` for every item `i` in `0..n` on up to `threads` workers,
/// returning the results in index order. Results must depend only on the
/// index, never on which worker ran the item — that is what keeps the
/// output identical for every `threads` value.
///
/// Dispatch never oversubscribes: the worker count is capped at the item
/// count, the single-worker and single-item cases run inline on the
/// caller's thread with no scope at all, and when threads are spawned the
/// caller participates as one of the workers (`threads` workers =
/// `threads − 1` spawns).
///
/// Every item runs under `catch_unwind`: a panicking closure yields
/// [`ApproxError::WorkerPanicked`] (lowest failed index) instead of
/// tearing down the process; the remaining items still run to completion.
pub fn map_items<T, F>(n: usize, threads: usize, work: F) -> Result<Vec<T>, ApproxError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    // One worker's loop: pull items off the shared counter until drained.
    let run_worker = || {
        let mut out: Vec<(usize, Result<T, ApproxError>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = catch_unwind(AssertUnwindSafe(|| work(i)));
            out.push((
                i,
                r.map_err(|payload| ApproxError::WorkerPanicked {
                    chunk: i,
                    message: panic_message(payload),
                }),
            ));
        }
        out
    };
    let workers = threads.clamp(1, n.max(1));
    let mut tagged: Vec<(usize, Result<T, ApproxError>)> = if workers == 1 {
        run_worker()
    } else {
        std::thread::scope(|s| {
            // Helpers answer `BATCH` specs too, so they get a request
            // thread's stack whatever `RUST_MIN_STACK` says.
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    std::thread::Builder::new()
                        .stack_size(cqa_logic::REQUEST_STACK_BYTES)
                        .spawn_scoped(s, run_worker)
                        .expect("failed to spawn a fork-join helper")
                })
                .collect();
            let mut all = run_worker();
            for h in handles {
                match h.join() {
                    Ok(v) => all.extend(v),
                    // catch_unwind already contains work panics; a join
                    // failure would mean the panic escaped (e.g. raised
                    // while dropping the payload). Surface it, don't abort.
                    Err(payload) => all.push((
                        usize::MAX,
                        Err(ApproxError::WorkerPanicked {
                            chunk: usize::MAX,
                            message: panic_message(payload),
                        }),
                    )),
                }
            }
            all
        })
    };
    // Workers finish in any order; the index puts every result back in
    // its place.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// `work(i)` for every `i` in `0..n` on up to `threads` workers, results in
/// index order, as [`map_items`] returns them. A panicking item is
/// re-raised on the calling thread once every other item has finished, so
/// a caller's own `catch_unwind` sees it exactly as if the work had run
/// serially there.
pub fn run_items<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match map_items(n, threads, work) {
        Ok(v) => v,
        Err(ApproxError::WorkerPanicked { message, .. }) => {
            std::panic::resume_unwind(Box::new(message))
        }
        Err(e) => unreachable!("map_items fails only on a panic: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn panicking_chunk_is_contained() {
        for t in [1, 4] {
            let err = map_items(4, t, |i| {
                if i == 2 {
                    panic!("poisoned item");
                }
                i
            })
            .unwrap_err();
            let ApproxError::WorkerPanicked { chunk, message } = err else {
                panic!("{err:?}");
            };
            assert_eq!(chunk, 2, "threads = {t}");
            assert!(message.contains("poisoned item"));
        }
    }

    #[test]
    fn items_come_back_in_index_order_for_every_thread_count() {
        let n = 12;
        let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * i)).collect();
        for t in [1, 2, 3, 16] {
            // With two or more workers, item 0 finishes last: it waits for
            // item n − 1, which another worker has to run. Results written
            // back in completion order would put it at the end.
            let last_done = AtomicBool::new(false);
            let got = run_items(n, t, |i| {
                if i == 0 && t > 1 {
                    while !last_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                if i == n - 1 {
                    last_done.store(true, Ordering::Release);
                }
                (i, i * i)
            });
            assert_eq!(got, expected, "threads = {t}");
        }
        assert!(run_items(0, 4, |i| i).is_empty());
    }

    #[test]
    fn a_panicking_item_is_reraised_on_the_caller() {
        for t in [1, 3] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_items(5, t, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 2 {
                        panic!("item {i} failed");
                    }
                    i
                })
            }))
            .unwrap_err();
            assert_eq!(panic_message(caught), "item 2 failed", "threads = {t}");
            // The other items still ran before the panic resumed.
            assert_eq!(ran.load(Ordering::Relaxed), 5, "threads = {t}");
        }
    }

    #[test]
    fn lowest_failed_chunk_reported() {
        let err = map_items(6, 3, |i| {
            if i >= 1 {
                panic!("item {i}");
            }
            i
        })
        .unwrap_err();
        assert!(
            matches!(err, ApproxError::WorkerPanicked { chunk: 1, .. }),
            "{err:?}"
        );
    }
}
