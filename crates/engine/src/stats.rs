//! Service counters and hand-rolled fixed-bucket latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (µs) of the latency buckets; one overflow bucket follows.
/// Roughly logarithmic: 10 µs … 3 s, so a warm `EXEC` (≈ 20 µs) and an
/// incremental `LOAD` (≈ 14 µs) land in a bucket of their own.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000,
];

/// A fixed-bucket latency histogram (no allocation after construction,
/// relaxed atomics — counters, not synchronization).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&hi| us <= hi)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// One-line rendering: `count=.. mean_us=.. | <=100us:3 <=1ms:1 >3s:0`.
    /// Empty buckets are omitted.
    pub fn render(&self) -> String {
        let mut out = format!("count={} mean_us={}", self.count(), self.mean_us());
        let mut any = false;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if !any {
                out.push_str(" |");
                any = true;
            }
            if i < LATENCY_BUCKETS_US.len() {
                out.push_str(&format!(" <={}us:{n}", LATENCY_BUCKETS_US[i]));
            } else {
                out.push_str(&format!(
                    " >{}us:{n}",
                    LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1]
                ));
            }
        }
        out
    }
}

/// Global service counters, shared by every session and worker.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Commands dispatched (all kinds).
    pub commands: AtomicU64,
    /// Commands currently executing.
    pub in_flight: AtomicU64,
    /// Sessions ever opened.
    pub sessions: AtomicU64,
    /// Requests that died on an exhausted [`cqa_logic::budget::EvalBudget`].
    pub over_budget: AtomicU64,
    /// `LOAD`/`PREPARE` requests rejected by the static-analysis gate.
    pub lint_rejected: AtomicU64,
    /// Statements the static-analysis gate went through, accepted or not:
    /// each statement of a `LOAD`, a `PREPARE`'s one, a `PERSIST` replay's.
    /// The gate sees a statement once, so n single-statement `LOAD`s and m
    /// `PREPARE`s read n + m whatever the sessions already hold.
    pub analyzed_statements: AtomicU64,
    /// Connections rejected because the session limit was reached.
    pub rejected_conns: AtomicU64,
    /// Connections currently open (reactor-registered, not yet closed).
    pub open_conns: AtomicU64,
    /// Inner executions run through `BATCH` bodies (each spec line counts
    /// once, successes and failures alike).
    pub batch_execs: AtomicU64,
    /// Response writes that failed because the client vanished mid-reply
    /// (broken pipe / reset). Each one is a session closed cleanly where
    /// an unwrap would have panicked the worker.
    pub write_errors: AtomicU64,
    /// Replies the reactor front end's workers queued on their
    /// connections' output buffers: one per request frame answered.
    pub net_replies: AtomicU64,
    /// `write` calls on reactor connections that moved bytes, the greeting
    /// included. A worker writes when its connection's queue runs dry,
    /// when 64 KiB are buffered or when the frame closes the connection;
    /// the reactor writes whatever waits on each pass, so a pipelined
    /// burst costs about one write per reactor pass it spans, not one per
    /// reply.
    pub net_writes: AtomicU64,
    /// Worker iterations that caught a connection-handler panic and kept
    /// the worker alive (the pool never shrinks on a poisoned request).
    pub worker_panics: AtomicU64,
    /// Answers that degraded from exact to (ε, δ) Monte Carlo.
    pub degraded: AtomicU64,
    /// Distinct formula nodes resident across all session IR arenas
    /// (arena occupancy; sessions report deltas after each command).
    pub ir_nodes: AtomicU64,
    /// Distinct polynomial terms resident across all session IR arenas.
    pub ir_terms: AtomicU64,
    /// Total node intern requests served across all session arenas; the
    /// ratio `ir_intern_calls / ir_nodes` is the hash-consing dedup ratio.
    pub ir_intern_calls: AtomicU64,
    /// Monte Carlo sample lanes decided by the batched kernel's certified
    /// `f64` fast path.
    pub batch_fast_lanes: AtomicU64,
    /// Monte Carlo sample lanes that fell back to exact rational
    /// evaluation. `batch_exact_lanes / (batch_fast_lanes +
    /// batch_exact_lanes)` is the fallback rate; a climb means sample
    /// points are landing near sign boundaries and the kernel is quietly
    /// doing big-rational work.
    pub batch_exact_lanes: AtomicU64,
    /// Monte Carlo sample streams drawn: one per sampled `EXEC` or
    /// `VOLUME`, one per `(dim, samples)` group of a `BATCH` however many
    /// specs it answers and however many threads split its lanes.
    pub mc_streams: AtomicU64,
    /// Sample lanes drawn across those streams: a lane counts once however
    /// many kernels sweep it.
    pub mc_sampled_lanes: AtomicU64,
    /// `BATCH` specs answered from another spec's sweep: a spec whose
    /// cached entry an earlier spec of its group already sweeps.
    pub mc_shared: AtomicU64,
    /// Cache misses answered without quantifier elimination because the
    /// interval analysis proved the query statically unsatisfiable.
    pub absint_unsat_skips: AtomicU64,
    /// Cache misses answered without quantifier elimination because the
    /// interval analysis proved the query statically valid.
    pub absint_valid_skips: AtomicU64,
    /// Monte Carlo sample lanes that skipped kernel evaluation because
    /// they fell outside the interval-certified bounding box (the lanes
    /// are provably misses; skipping them leaves estimates bit-identical).
    pub absint_box_skipped_lanes: AtomicU64,
    /// Cold eliminations the planner routed to Fourier–Motzkin.
    pub plan_fm: AtomicU64,
    /// Cold eliminations the planner routed to Loos–Weispfenning.
    pub plan_lw: AtomicU64,
    /// Cold eliminations the planner routed to whole-formula
    /// Cohen–Hörmander (polynomial queries; never sub-split or shared).
    pub plan_ch: AtomicU64,
    /// Per-command latency histograms, indexed by
    /// [`crate::CommandKind`] discriminant.
    pub latency: [Histogram; super::protocol::N_COMMAND_KINDS],
}

impl EngineStats {
    /// Relaxed load of a counter — convenience for reporting.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::default();
        h.record(5);
        h.record(20);
        h.record(50);
        h.record(150);
        h.record(5_000_000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_us(), (5 + 20 + 50 + 150 + 5_000_000) / 5);
        let s = h.render();
        assert!(s.contains("<=10us:1"), "{s}");
        assert!(s.contains("<=30us:1"), "{s}");
        assert!(s.contains("<=100us:1"), "{s}");
        assert!(s.contains("<=300us:1"), "{s}");
        assert!(s.contains(">3000000us:1"), "{s}");
    }

    #[test]
    fn empty_histogram_renders_cleanly() {
        let h = Histogram::default();
        assert_eq!(h.render(), "count=0 mean_us=0");
    }
}
