//! `cqa-engine` — a concurrent constraint-query service.
//!
//! Everything below `cqa-engine` is a one-shot library call: parse a
//! formula, eliminate its quantifiers, integrate. This crate turns the
//! workspace into a *servable system*, the shape Giusti–Heintz–Kuijpers
//! give geometric-query evaluation: quantifier elimination is the
//! dominant, **reusable** artifact of constraint-query evaluation, so a
//! long-lived process that caches QE output across requests amortizes the
//! doubly-exponential part of the work the way a prepared-statement cache
//! amortizes SQL planning.
//!
//! The pieces:
//!
//! * [`Engine`] — the shared state: a concurrent prepared-query cache
//!   ([`QueryCache`], keyed by the 128-bit canonical hash
//!   [`cqa_logic::Arena::canonical_hash_for_params`] reads off the
//!   interned, relation-expanded, simplified formula) memoizing QE output,
//!   compiled [`cqa_logic::CompiledMatrix`] kernels, and analyzer
//!   verdicts, with LRU eviction under a byte budget; plus service
//!   counters and latency histograms ([`EngineStats`]).
//! * [`Session`] — per-connection state: the analysed program its `LOAD`s
//!   built ([`cqa_analyze::AnalyzerState`], which owns the session's
//!   [`cqa_core::Database`]; a `LOAD` or `PREPARE` is analysed against it
//!   at the cost of its own text), plus named prepared queries.
//! * [`Command`]/[`Response`] — a hand-rolled, newline-delimited text
//!   protocol (`LOAD`, `PREPARE`, `EXEC`, `VOLUME`, `SUM`, `STATS`,
//!   `CLOSE`, `SHUTDOWN`); std-only, no serialization dependencies.
//! * [`Storage`] — the durable layer ([`storage`]): a fsync-on-commit
//!   write-ahead log of `LOAD` merges, periodic snapshot compaction,
//!   replay-on-boot recovery, and a warm-start file that persists the
//!   prepared-query/subplan cache across restarts (sessions opt in with
//!   `PERSIST <db>`).
//! * [`serve`] — the event-driven front end (`net`): a reactor thread
//!   parks every open connection on non-blocking sockets and assembles
//!   complete request frames, a fixed worker pool executes them, so N
//!   idle sessions cost zero worker threads; admission is a max-sessions
//!   limit (`ERR busy` beyond it), the protocol pipelines (responses
//!   tagged and written in request order, `BATCH` amortizing one round
//!   trip over many `EXEC`s), and every request runs under a per-request
//!   [`cqa_logic::budget::EvalBudget`] so a slow query cannot wedge a
//!   worker forever.
//!
//! Answers are tagged `status=exact` or `status=approx eps=… delta=…`:
//! when the exact path is infeasible (budget trip, or a semi-algebraic
//! region the exact integrator cannot triangulate) the engine degrades to
//! the deterministic Monte Carlo estimator over the cached compiled
//! kernel and says so, following Dreier–Rossmanith's view of (ε, δ)
//! answers as first-class responses.

#![forbid(unsafe_code)]

mod cache;
mod engine;
mod net;
mod protocol;
mod stats;
pub mod storage;

pub use cache::{CacheEntry, CacheKey, CacheSnapshot, QueryCache, WarmSlot, DEFAULT_CACHE_SHARDS};
pub use engine::{Engine, EngineConfig, Session, MAX_SAMPLES, MC_SEED};
pub use net::{serve, spawn_server, ServerHandle};
pub use protocol::{parse_command, read_response, split_tag, Command, CommandKind, Response};
pub use stats::{EngineStats, Histogram, LATENCY_BUCKETS_US};
pub use storage::{Storage, StorageError, StorageStats};
