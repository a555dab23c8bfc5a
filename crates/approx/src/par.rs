//! A minimal deterministic fork–join runner over indexed work items.
//!
//! Monte Carlo estimation (Theorem 4) is embarrassingly parallel, but the
//! seeded-reproducibility contract of [`crate::sample::Witness`] demands
//! that results not depend on scheduling. The invariants here guarantee
//! that:
//!
//! * the work is a list of items `0..n`, each a pure function of its
//!   index; for sample scans an item is a fixed-size chunk ([`CHUNK`]), so
//!   the chunking of `0..n` is a pure function of `n`, never of the
//!   worker count;
//! * results are returned **in index order**, whatever order workers
//!   finished them in;
//! * per-chunk randomness comes from [`crate::sample::WitnessSplitter`],
//!   keyed by chunk index — not from any shared mutable RNG.
//!
//! Consequently `run_chunks(n, 1, work)` and `run_chunks(n, 64, work)`
//! return identical vectors, and any fold over them is thread-count
//! invariant. Threading is `std::thread::scope` only — no external
//! runtime. [`map_items_scratch`] is the one worker loop; the chunked
//! entry points and [`run_items`] (which `cqa-engine` uses to answer a
//! `BATCH`'s cached specs side by side) are views of it.
//!
//! [`map_chunks`] is the fallible entry point: each chunk runs under
//! `catch_unwind`, so a panicking work closure surfaces as a typed
//! [`ChunkPanicked`] error instead of aborting the process — one poisoned
//! chunk cannot kill a long-running service.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Items per chunk. Small enough to load-balance a few thousand Monte
/// Carlo points across workers, large enough to amortize dispatch — and
/// exactly one [`cqa_logic::BATCH_LANES`]-lane batch of the vectorized
/// kernel, so a scheduling chunk maps 1:1 onto a kernel batch.
pub const CHUNK: usize = cqa_logic::BATCH_LANES;

/// The item range of chunk `c` within `0..n`.
fn chunk_range(c: usize, n: usize) -> std::ops::Range<usize> {
    let start = c * CHUNK;
    start..((start + CHUNK).min(n))
}

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

/// A chunk's (or item's) work closure panicked. The panic was caught
/// inside the worker — the process, the other workers, and the other
/// chunks all survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPanicked {
    /// Index of the failed chunk or item. If several failed, the lowest
    /// index is reported (deterministic for any thread count).
    pub chunk: usize,
    /// The panic payload, if it was a string; `"<non-string panic>"`
    /// otherwise.
    pub message: String,
}

impl std::fmt::Display for ChunkPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} panicked: {}", self.chunk, self.message)
    }
}
impl std::error::Error for ChunkPanicked {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Runs `work(range, chunk_index)` for every [`CHUNK`]-sized slice of
/// `0..n` on up to `threads` workers, returning the results in chunk
/// order. The output is identical for every `threads` value.
///
/// Every chunk runs under `catch_unwind`: a panicking closure yields
/// `Err(ChunkPanicked)` (lowest failed chunk) instead of tearing down the
/// process; the remaining chunks still run to completion.
pub fn map_chunks<T, F>(n: usize, threads: usize, work: F) -> Result<Vec<T>, ChunkPanicked>
where
    T: Send,
    F: Fn(std::ops::Range<usize>, usize) -> T + Sync,
{
    map_chunks_scratch(n, threads, || (), |r, c, ()| work(r, c))
}

/// [`map_chunks`] with per-worker scratch state: every worker builds one
/// `S` via `mk_scratch` and threads it mutably through all the chunks it
/// pulls, so reusable buffers (e.g. a [`cqa_logic::Batch`] +
/// [`cqa_logic::BatchScratch`] pair) are allocated once per worker instead
/// of once per chunk. Results must depend only on `(range, chunk_index)`;
/// see [`map_items_scratch`], which this runs over the chunk indices.
pub fn map_chunks_scratch<T, S, M, F>(
    n: usize,
    threads: usize,
    mk_scratch: M,
    work: F,
) -> Result<Vec<T>, ChunkPanicked>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(std::ops::Range<usize>, usize, &mut S) -> T + Sync,
{
    map_items_scratch(n.div_ceil(CHUNK), threads, mk_scratch, |c, scratch| {
        work(chunk_range(c, n), c, scratch)
    })
}

/// Runs `work(i, scratch)` for every item `i` in `0..n` on up to `threads`
/// workers, returning the results in index order. Every worker builds one
/// `S` via `mk_scratch` and threads it mutably through all the items it
/// pulls. Scratch is working memory, not an accumulator: results must
/// depend only on the index, never on which worker ran the item — that is
/// what keeps the output identical for every `threads` value.
///
/// Dispatch never oversubscribes: the worker count is capped at the item
/// count, the single-worker and single-item cases run inline on the
/// caller's thread with no scope at all, and when threads are spawned the
/// caller participates as one of the workers (`threads` workers =
/// `threads − 1` spawns).
///
/// Every item runs under `catch_unwind`: a panicking closure yields
/// `Err(ChunkPanicked)` (lowest failed index) instead of tearing down the
/// process; the remaining items still run to completion.
pub fn map_items_scratch<T, S, M, F>(
    n: usize,
    threads: usize,
    mk_scratch: M,
    work: F,
) -> Result<Vec<T>, ChunkPanicked>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    // One worker's loop: pull items off the shared counter until drained.
    // A caught panic poisons the scratch (the closure may have died midway
    // through mutating it), so it is rebuilt before the next item.
    let run_worker = || {
        let mut scratch = mk_scratch();
        let mut out: Vec<(usize, Result<T, ChunkPanicked>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = catch_unwind(AssertUnwindSafe(|| work(i, &mut scratch)));
            out.push((
                i,
                r.map_err(|payload| {
                    scratch = mk_scratch();
                    ChunkPanicked {
                        chunk: i,
                        message: panic_message(payload),
                    }
                }),
            ));
        }
        out
    };
    let workers = threads.clamp(1, n.max(1));
    let mut tagged: Vec<(usize, Result<T, ChunkPanicked>)> = if workers == 1 {
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
                        Err(ChunkPanicked {
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

/// Infallible variant of [`map_chunks`] for work closures that cannot
/// panic; if one does anyway, the panic is re-raised on the calling thread
/// (ordinary unwinding, not a process abort).
pub fn run_chunks<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>, usize) -> T + Sync,
{
    run_items(n.div_ceil(CHUNK), threads, |c| work(chunk_range(c, n), c))
}

/// `work(i)` for every `i` in `0..n` on up to `threads` workers, results in
/// index order ([`map_items_scratch`] without scratch). A panicking item is
/// re-raised on the calling thread once every other item has finished, so
/// a caller's own `catch_unwind` sees it exactly as if the work had run
/// serially there.
pub fn run_items<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match map_items_scratch(n, threads, || (), |i, ()| work(i)) {
        Ok(v) => v,
        Err(e) => std::panic::resume_unwind(Box::new(e.message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn covers_all_items_once() {
        let n = 3 * CHUNK + 17;
        let per_chunk = run_chunks(n, 4, |r, _| r.len());
        assert_eq!(per_chunk.iter().sum::<usize>(), n);
        assert_eq!(per_chunk.len(), 4);
    }

    #[test]
    fn order_and_results_independent_of_thread_count() {
        let n = 5 * CHUNK + 3;
        let work = |r: std::ops::Range<usize>, c: usize| (c, r.start, r.end);
        let one = run_chunks(n, 1, work);
        for t in [2, 3, 8, 64] {
            assert_eq!(run_chunks(n, t, work), one, "threads = {t}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(run_chunks(0, 4, |r, _| r.len()).is_empty());
    }

    #[test]
    fn panicking_chunk_is_contained() {
        let n = 4 * CHUNK;
        for t in [1, 4] {
            let err = map_chunks(n, t, |r, c| {
                if c == 2 {
                    panic!("poisoned chunk");
                }
                r.len()
            })
            .unwrap_err();
            assert_eq!(err.chunk, 2, "threads = {t}");
            assert!(err.message.contains("poisoned chunk"));
        }
    }

    #[test]
    fn scratch_is_reused_per_worker_and_results_stay_deterministic() {
        let n = 6 * CHUNK + 5;
        let one = run_chunks(n, 1, |r, c| (c, r.len()));
        for t in [1, 2, 3, 16] {
            let allocs = AtomicUsize::new(0);
            let got = map_chunks_scratch(
                n,
                t,
                || {
                    allocs.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |r, c, scratch| {
                    // Scratch persists across the chunks a worker pulls;
                    // results must not depend on its accumulated contents.
                    scratch.push(c);
                    (c, r.len())
                },
            )
            .unwrap();
            assert_eq!(got, one, "threads = {t}");
            // One scratch per worker, workers capped at the chunk count.
            let workers = t.min(n.div_ceil(CHUNK));
            assert!(
                allocs.load(Ordering::Relaxed) <= workers,
                "threads = {t}: {} scratches for {workers} workers",
                allocs.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn scratch_rebuilt_after_poisoned_chunk() {
        let n = 4 * CHUNK;
        // Sequential single worker: chunk 1 panics mid-mutation; chunks 2/3
        // must see a fresh scratch, not the poisoned one.
        let err = map_chunks_scratch(
            n,
            1,
            || 0usize,
            |_, c, scratch| {
                assert_eq!(*scratch, 0, "chunk {c} saw poisoned scratch");
                *scratch = 1;
                if c == 1 {
                    panic!("poisoned chunk");
                }
                *scratch = 0;
                c
            },
        )
        .unwrap_err();
        assert_eq!(err.chunk, 1);
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
        let n = 6 * CHUNK;
        let err = map_chunks(n, 3, |_, c| {
            if c >= 1 {
                panic!("chunk {c}");
            }
            c
        })
        .unwrap_err();
        assert_eq!(err.chunk, 1);
    }
}
