//! The engine core: session state and command execution.

use crate::cache::{formula_bytes, CacheEntry, CacheKey, QueryCache, DEFAULT_CACHE_SHARDS};
use crate::protocol::{parse_exec_args, Command, Response};
use crate::stats::EngineStats;
use crate::storage::{Storage, StorageError};
use cqa_agg::AggError;
use cqa_analyze::{AnalyzerState, PendingChunk, Statement};
use cqa_approx::mc::{lane_parts, Sweep};
use cqa_approx::par;
use cqa_approx::sample::{hoeffding_sample_size, Witness};
use cqa_approx::ApproxError;
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_geom::VolumeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{
    parse_formula_with, ArenaStats, CompiledMatrix, ConstraintClass, Formula, SlotMap, VarMap,
};
use cqa_poly::Var;
use cqa_qe::QeError;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the deterministic witness behind every degraded (ε, δ) answer:
/// approximate responses are reproducible across requests, sessions and
/// servers (and bit-identical under any concurrency level).
pub const MC_SEED: u64 = 0xC0A_5E55;

/// Most samples one degraded answer may draw: an (ε, δ) whose Hoeffding
/// count passes it is refused with `ERR exec` before any cache lookup.
pub use cqa_approx::sample::MAX_SAMPLES;

/// Engine configuration (server-wide).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads executing commands: how many commands execute at
    /// once. Open connections are bounded by `max_sessions`, not by this;
    /// an idle session costs no worker.
    pub workers: usize,
    /// Maximum concurrently open sessions; the accept path answers
    /// `ERR busy` beyond this.
    pub max_sessions: usize,
    /// Prepared-query cache byte budget.
    pub cache_bytes: usize,
    /// Number of independent cache lock domains (rounded to a power of
    /// two). Answers and the warm-start file are shard-count-independent;
    /// only contention changes.
    pub cache_shards: usize,
    /// Per-request wall-clock budget (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// Per-request cooperative step cap (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Default ε for degraded (ε, δ) answers.
    pub default_eps: f64,
    /// Default δ for degraded (ε, δ) answers.
    pub default_delta: f64,
    /// Idle reaping: a connection with nothing queued, running or
    /// buffered (no request, no reply, no body under assembly) that has
    /// sent nothing for this long is closed, so it cannot hold a session
    /// slot forever.
    pub idle_timeout: Duration,
    /// Write-stall limit: a connection whose buffered output has not
    /// drained for this long is dropped and counted in `write_errors`.
    pub write_timeout: Duration,
    /// Maximum bytes accepted for one dot-terminated request body
    /// (`LOAD`/`BATCH`); larger bodies answer `ERR proto body too large`.
    pub max_body_bytes: usize,
    /// Program source `LOAD`ed into every fresh session (`cqa-serve
    /// --preload`). Must be analyzer-clean — the server validates it at
    /// startup before accepting connections.
    pub preload: Option<String>,
    /// Data directory for durable storage (WAL + snapshot + cache
    /// warm-start). `None` keeps the engine fully in-memory; `Some` turns
    /// on the `PERSIST` wire surface (construct via
    /// [`Engine::with_storage`] so recovery runs before any connection).
    pub data_dir: Option<std::path::PathBuf>,
    /// Compaction cadence: after this many WAL records the durable
    /// sources are folded into a fresh snapshot and the log truncated.
    pub snapshot_every: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            max_sessions: 1024,
            cache_bytes: 8 << 20,
            cache_shards: DEFAULT_CACHE_SHARDS,
            timeout: Some(Duration::from_millis(2_000)),
            max_steps: None,
            default_eps: 0.05,
            default_delta: 0.05,
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            preload: None,
            data_dir: None,
            snapshot_every: 64,
        }
    }
}

/// A named prepared query. The formula is re-parsed against the session's
/// current variable interning at `EXEC` time (parsing is micro-cheap; the
/// expensive artifacts — QE output and compiled kernel — live in the
/// shared cache under the canonical key). After the first `EXEC`, the
/// canonical cache key itself is memoized alongside the source — warm
/// repeats skip parse/expand/simplify entirely and go straight to the
/// shared cache — guarded by the session's database generation so any
/// `LOAD` (which can redefine relations the query expands) invalidates it.
#[derive(Clone, Debug)]
pub struct Prepared {
    src: String,
    params: Vec<String>,
    /// `(db_gen, key)` from the last full `EXEC` of this query.
    memo: Option<(u64, CacheKey)>,
}

/// Per-connection state: the analysed program the session's `LOAD`s
/// have built (its relation database and Σ-terms live in there) and named
/// prepared queries. Sessions are owned by one worker thread at a time;
/// all cross-session sharing goes through the [`Engine`]'s cache and stats.
#[derive(Default)]
pub struct Session {
    /// Everything accepted `LOAD`s have brought, in analysed form: a
    /// `LOAD` or `PREPARE` is analysed against it, not together with the
    /// text behind it. Its formula arena and memos are the session's only
    /// ones: the analysis gate interns there, and so does every `EXEC` and
    /// `VOLUME` — the expanded request formula and its QE output — so
    /// repeated requests share structure and each memoized rewrite runs
    /// once per distinct node.
    program: AnalyzerState,
    /// Prepared queries by name.
    prepared: HashMap<String, Prepared>,
    /// Bumped on every successful `LOAD` (the only operation that changes
    /// the database); prepared-query memos are valid only for the
    /// generation they were computed under.
    db_gen: u64,
    /// Arena counters as of the last flush into the engine-wide `STATS`
    /// aggregates (sessions report monotone deltas after each command).
    reported: ArenaStats,
    /// When `Some(name)`, the session is attached (via `PERSIST`) to the
    /// named durable database: every accepted `LOAD` is WAL-committed
    /// before the session mutates.
    durable: Option<String>,
}

impl Session {
    /// The session database (primarily for tests).
    pub fn db(&self) -> &Database {
        self.program.db()
    }
}

/// The shared engine: configuration, prepared-query cache, counters.
pub struct Engine {
    /// Service configuration.
    pub cfg: EngineConfig,
    /// The shared prepared-query cache.
    pub cache: QueryCache,
    /// Service counters and latency histograms.
    pub stats: EngineStats,
    /// The durable layer, when the engine was opened with a data
    /// directory ([`Engine::with_storage`]); `None` = in-memory only.
    pub storage: Option<Arc<Storage>>,
    started: Instant,
}

/// The planner's [`cqa_qe::plan::SubplanStore`] backed by the shared
/// [`QueryCache`]: quantifier-block QE results live in the cache's subplan
/// namespace (kind-separated from whole-query entries, so the two can
/// never collide — see `cache.rs`), making elimination sharing cross-query
/// *and* cross-session.
struct CacheSubplans<'a> {
    cache: &'a QueryCache,
}

impl cqa_qe::plan::SubplanStore for CacheSubplans<'_> {
    fn lookup(&self, hash: u128, dim: u32) -> Option<(Formula, Vec<Var>)> {
        self.cache
            .get_subplan(CacheKey { hash, dim })
            .map(|e| (e.qf.clone(), e.params.clone()))
    }

    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
        self.cache.insert_subplan(
            CacheKey { hash, dim },
            crate::cache::SubplanEntry {
                qf: qf.clone(),
                params: params.to_vec(),
                bytes: formula_bytes(qf),
            },
        );
    }
}

/// A requested (ε, δ) and the Hoeffding sample count that honours it,
/// checked by [`Engine::sample_count`].
#[derive(Clone, Copy, Debug)]
struct Accuracy {
    eps: f64,
    delta: f64,
    samples: usize,
}

impl Accuracy {
    fn new(eps: f64, delta: f64) -> Result<Accuracy, Response> {
        match Engine::sample_count(eps, delta) {
            Ok(samples) => Ok(Accuracy {
                eps,
                delta,
                samples,
            }),
            Err(msg) => Err(Response::err("exec", msg)),
        }
    }
}

/// How an `EXEC`/`VOLUME` answer was produced.
enum Answer {
    Exact(Rat),
    Approx {
        estimate: Rat,
        acc: Accuracy,
        reason: &'static str,
    },
}

/// A Monte Carlo answer: `hits` of `acc.samples` lanes fell inside.
fn mc_answer(hits: usize, acc: Accuracy, reason: &'static str) -> Answer {
    Answer::Approx {
        estimate: Rat::new((hits as i64).into(), (acc.samples as i64).into()),
        acc,
        reason,
    }
}

/// An `EXEC` the memoized-key fast path found in the cache: everything its
/// answer still needs, none of it borrowed from the session, so a `BATCH`
/// can answer several of them on other threads.
struct WarmExec {
    entry: Arc<CacheEntry>,
    dim: usize,
    acc: Accuracy,
}

impl Engine {
    /// A fresh engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cache: QueryCache::with_shards(cfg.cache_bytes, cfg.cache_shards),
            stats: EngineStats::default(),
            cfg,
            storage: None,
            started: Instant::now(),
        }
    }

    /// A fresh engine with recovery run: when `cfg.data_dir` is set, the
    /// data directory is opened and replayed (snapshot, then WAL, torn
    /// tail truncated) and the cache warm-start file loaded — all before
    /// this returns, so by the time a server built on this engine accepts
    /// its first connection every durable database is recovered and the
    /// prepared-query cache is warm. With no `data_dir` this is exactly
    /// [`Engine::new`].
    pub fn with_storage(cfg: EngineConfig) -> Result<Engine, StorageError> {
        let mut engine = Engine::new(cfg);
        if let Some(dir) = engine.cfg.data_dir.clone() {
            let storage = Arc::new(Storage::open(&dir, engine.cfg.snapshot_every)?);
            storage.load_warm(&engine.cache);
            engine.storage = Some(storage);
        }
        Ok(engine)
    }

    /// Opens a session (counted in `STATS`), pre-`LOAD`ing the configured
    /// preamble program when one is set.
    pub fn open_session(&self) -> Session {
        self.stats.sessions.fetch_add(1, Ordering::Relaxed);
        let mut session = Session::default();
        if let Some(src) = &self.cfg.preload {
            let r = self.load(&mut session, src);
            debug_assert!(r.is_ok(), "preload must be validated at startup: {r:?}");
        }
        session
    }

    /// A fresh per-request budget from the configured caps.
    pub fn request_budget(&self) -> EvalBudget {
        let mut b = EvalBudget::unlimited();
        if let Some(t) = self.cfg.timeout {
            b = b.with_deadline(t);
        }
        if let Some(n) = self.cfg.max_steps {
            b = b.with_max_steps(n);
        }
        b
    }

    /// Executes one command against a session, recording latency,
    /// in-flight and command counters. `CLOSE`/`SHUTDOWN` only produce
    /// their acknowledgement here; the connection/listener layer acts on
    /// them.
    pub fn dispatch(&self, session: &mut Session, cmd: Command) -> Response {
        let kind = cmd.kind();
        self.stats.commands.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let resp = match cmd {
            Command::Load { program: None } => {
                Response::err("proto", "LOAD body missing (connection layer bug)")
            }
            Command::Load { program: Some(src) } => self.load(session, &src),
            Command::Prepare { name, query } => self.prepare(session, &name, &query),
            Command::Exec { name, eps, delta } => self.exec(session, &name, eps, delta),
            Command::Batch { specs: None } => {
                Response::err("proto", "BATCH body missing (connection layer bug)")
            }
            Command::Batch { specs: Some(text) } => self.batch(session, &text),
            Command::Volume { query } => self.volume(session, &query),
            Command::Sum { name } => self.sum(session, &name),
            Command::Persist { name } => self.persist(session, &name),
            Command::Stats => self.render_stats(),
            Command::Close => Response::ok("CLOSE goodbye"),
            Command::Shutdown => {
                // Last chance to persist the cache before the process goes
                // away (crash-killed processes rely on the per-miss
                // flushes instead).
                self.flush_warm();
                Response::ok("SHUTDOWN stopping")
            }
        };
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.latency[kind.index()].record(us);
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.flush_arena_stats(session);
        resp
    }

    /// Adds the session arena's counter growth since the last flush to the
    /// engine-wide IR aggregates — what the analysis gate interned as well
    /// as what the answer path did. Arena counters are monotone, so the
    /// deltas are non-negative and the aggregates never double-count.
    fn flush_arena_stats(&self, session: &mut Session) {
        let now = session.program.ir_mut().0.stats();
        let last = session.reported;
        self.stats
            .ir_nodes
            .fetch_add(now.nodes - last.nodes, Ordering::Relaxed);
        self.stats
            .ir_terms
            .fetch_add(now.terms - last.terms, Ordering::Relaxed);
        self.stats
            .ir_intern_calls
            .fetch_add(now.intern_calls - last.intern_calls, Ordering::Relaxed);
        session.reported = now;
    }

    /// The static-analysis gate behind `LOAD`, `PREPARE` and `PERSIST`:
    /// analyses `src` against the session's program and counts the
    /// statements it went through. The caller commits the chunk or drops it.
    fn gate<'s>(&self, program: &'s mut AnalyzerState, src: &str) -> PendingChunk<'s> {
        let chunk = program.analyze_chunk(src);
        self.stats
            .analyzed_statements
            .fetch_add(chunk.analysis().reports.len() as u64, Ordering::Relaxed);
        chunk
    }

    /// `LOAD`: run the program text through the full static-analysis
    /// gate against what the session already holds, and only on a clean
    /// report make it part of the session. A rejected `LOAD` leaves the
    /// session unchanged.
    pub fn load(&self, session: &mut Session, src: &str) -> Response {
        match self.load_inner(session, src, true) {
            Ok((_, resp)) | Err(resp) => resp,
        }
    }

    /// The `LOAD` core. `commit` distinguishes a fresh client `LOAD`
    /// (WAL-committed when the session is durable) from a `PERSIST`
    /// replay of already-logged history (which must not be re-logged).
    /// On success, hands back the number of statements the session
    /// program now holds alongside the acknowledgement.
    fn load_inner(
        &self,
        session: &mut Session,
        src: &str,
        commit: bool,
    ) -> Result<(usize, Response), Response> {
        let chunk = self.gate(&mut session.program, src);
        let analysis = chunk.analysis();
        if analysis.has_errors() {
            self.stats.lint_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Response::err(
                "lint",
                format!(
                    "{} error(s), {} warning(s); session unchanged",
                    analysis.error_count(),
                    analysis.warning_count()
                ),
            )
            .with_body(&analysis.render(src, "LOAD")));
        }
        if let Some(e) = chunk.load_error() {
            return Err(Response::err("load", e));
        }
        // Durable sessions commit before they apply: the accepted chunk
        // (newline-terminated, since storage concatenates chunks verbatim
        // on replay) is WAL-appended and fsync'd first, and a failed
        // append leaves the session untouched — the mutation then exists
        // either everywhere or nowhere.
        if commit {
            if let (Some(name), Some(storage)) = (&session.durable, &self.storage) {
                let text = if src.ends_with('\n') {
                    Cow::Borrowed(src)
                } else {
                    Cow::Owned(format!("{src}\n"))
                };
                if let Err(e) = storage.append_load(name, &text) {
                    return Err(Response::err(
                        "storage",
                        format!("commit failed, session unchanged: {e}"),
                    ));
                }
            }
        }
        let t = chunk.commit();
        session.db_gen += 1;
        Ok((
            t.statements,
            Response::ok(format!(
                "LOAD statements={} rels={} queries={} sums={} warnings={}",
                t.statements, t.rels, t.queries, t.sums, t.warnings
            )),
        ))
    }

    /// `PREPARE`: validate the formula through the same analyzer gate as a
    /// `query` statement (scope, schema, fragment), and store it under the
    /// name. The output columns are the free variables in name order.
    pub fn prepare(&self, session: &mut Session, name: &str, query: &str) -> Response {
        // The statement a PREPARE stands for lists its output columns, so
        // they have to be known before it can be written down: a parse of
        // the bare formula, in a map of its own, finds them.
        let mut probe = VarMap::new();
        let f = match parse_formula_with(query, &mut probe) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        // Name-sorted parameter order: session-independent, so the cache
        // key (positional over params) is shared across sessions that
        // interned the variables in different orders.
        let mut params: Vec<String> = f.free_vars().into_iter().map(|v| probe.name(v)).collect();
        params.sort();
        // Run the full static gate on that one synthetic `query` statement
        // against the session's program. The chunk is never committed:
        // dropping it leaves no name of the query behind.
        let stmt = format!("query __prep_{name}({}) := {query}\n", params.join(", "));
        let chunk = self.gate(&mut session.program, &stmt);
        let analysis = chunk.analysis();
        if analysis.has_errors() {
            self.stats.lint_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::err(
                "lint",
                format!("{} error(s); not prepared", analysis.error_count()),
            )
            .with_body(&analysis.render(&stmt, "PREPARE"));
        }
        let report = analysis.reports.last();
        let fragment = report.map_or("FO", |r| r.fragment.fragment_name());
        // Report the elimination plan the cold EXEC will follow: the
        // analyzer's cost model (with absint refinements when present) fed
        // through the planner. Purely informational — EXEC re-plans on the
        // session's own interning — but it lets clients see method/sharing
        // decisions at PREPARE time.
        let expanded = match chunk.statements().last() {
            Some(Statement::Query(q)) => chunk.db().expand(&q.body.to_formula()).ok(),
            _ => None,
        };
        let plan_tag = expanded.map_or_else(String::new, |expanded| {
            let inputs = report
                .and_then(|r| {
                    r.cost
                        .as_ref()
                        .map(|c| cqa_analyze::planner_inputs(&r.fragment, c))
                })
                .unwrap_or_else(|| cqa_qe::plan::PlanInputs::measure(&expanded));
            format!(
                " plan={}",
                cqa_qe::plan::plan(&expanded, &inputs).describe()
            )
        });
        drop(chunk);
        session.prepared.insert(
            name.to_string(),
            Prepared {
                src: query.to_string(),
                params: params.clone(),
                memo: None,
            },
        );
        Response::ok(format!(
            "PREPARE {name} params={} fragment={fragment}{plan_tag}",
            if params.is_empty() {
                "-".to_string()
            } else {
                params.join(",")
            }
        ))
    }

    /// `PERSIST`: attach this session to the named durable database,
    /// replaying its recovered source through the ordinary `LOAD` gate.
    /// Must precede any `LOAD` in the session (attachment is a *base*,
    /// not a merge), and a session attaches at most once. Subsequent
    /// accepted `LOAD`s are WAL-committed before they apply.
    pub fn persist(&self, session: &mut Session, name: &str) -> Response {
        let Some(storage) = &self.storage else {
            return Response::err(
                "storage",
                "durable storage is disabled (start cqa-serve with --data-dir)",
            );
        };
        if let Some(attached) = &session.durable {
            return Response::err(
                "storage",
                format!("session is already attached to durable database `{attached}`"),
            );
        }
        // Every accepted LOAD bumps the generation, an empty one included.
        if session.db_gen > 0 {
            return Response::err(
                "storage",
                "session already has loaded state; PERSIST must come before LOAD",
            );
        }
        let src = storage.database(name);
        let statements = if src.is_empty() {
            0
        } else {
            // Replay recovered history through the same LOAD path that
            // accepted it originally, as one chunk — the program is a pure
            // function of this source, so the rebuild is bit-identical. No
            // re-commit: this text is already in the snapshot/WAL.
            match self.load_inner(session, &src, false) {
                Ok((statements, _)) => statements,
                Err(r) => {
                    return Response::err(
                        "storage",
                        format!("recovered source failed to replay: {}", r.header),
                    )
                }
            }
        };
        session.durable = Some(name.to_string());
        Response::ok(format!("PERSIST {name} statements={statements}"))
    }

    /// `EXEC`: run a prepared query as a `VOL_I` request (volume of the
    /// defined region within the unit box, the paper's §2 operator),
    /// through the shared QE cache.
    pub fn exec(
        &self,
        session: &mut Session,
        name: &str,
        eps: Option<f64>,
        delta: Option<f64>,
    ) -> Response {
        let eps = eps.unwrap_or(self.cfg.default_eps);
        let delta = delta.unwrap_or(self.cfg.default_delta);
        match self.exec_fast(session, name, eps, delta) {
            Ok(warm) => self.eval_warm(&warm, name),
            Err(missed) => self.exec_full(session, name, eps, delta, missed),
        }
    }

    /// The warm fast path of `EXEC`: the canonical key of this prepared
    /// query is memoized and no LOAD has rebuilt the database since, so
    /// parse, relation expansion, and simplification would reproduce the
    /// same key — go straight to the shared cache. A hit is the whole
    /// answer's input. Anything else needs the full pipeline, which
    /// re-memoizes: an unknown name, no memo, an out-of-range or over-cap
    /// ε/δ (which must error through the normal path) — `Err(None)` — or an
    /// eviction, `Err(Some(key))`: that key has been looked up and missed
    /// once, and must not be counted twice.
    fn exec_fast(
        &self,
        session: &Session,
        name: &str,
        eps: f64,
        delta: f64,
    ) -> Result<WarmExec, Option<CacheKey>> {
        let Some((db_gen, key)) = session.prepared.get(name).and_then(|p| p.memo) else {
            return Err(None);
        };
        let Ok(acc) = Accuracy::new(eps, delta) else {
            return Err(None);
        };
        if db_gen != session.db_gen {
            return Err(None);
        }
        match self.cache.get(key) {
            Some(entry) => Ok(WarmExec {
                entry,
                dim: key.dim as usize,
                acc,
            }),
            None => Err(Some(key)),
        }
    }

    /// Answers a warm `EXEC` under a fresh request budget. It reads only
    /// the cache entry, so its header is the same on whichever thread it
    /// runs.
    fn eval_warm(&self, warm: &WarmExec, name: &str) -> Response {
        let budget = self.request_budget();
        self.eval_entry(
            &warm.entry,
            warm.dim,
            warm.acc,
            &budget,
            "EXEC",
            name,
            "hit",
        )
    }

    /// The full `EXEC` pipeline: re-parse the prepared source against the
    /// session, answer it, and memoize its canonical key. `missed` is the
    /// key the fast path already looked up in vain, if any.
    fn exec_full(
        &self,
        session: &mut Session,
        name: &str,
        eps: f64,
        delta: f64,
        missed: Option<CacheKey>,
    ) -> Response {
        let Some(prep) = session.prepared.get(name) else {
            return Response::err("exec", format!("no prepared query `{name}` (use PREPARE)"));
        };
        let prep = prep.clone();
        let f = match parse_formula_with(&prep.src, session.program.db_vars_mut()) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let vars: Vec<Var> = prep
            .params
            .iter()
            .map(|p| session.program.db_vars_mut().intern(p))
            .collect();
        let mut memo_key = None;
        let resp = self.answer(
            session,
            &f,
            &vars,
            eps,
            delta,
            "EXEC",
            name,
            Some((&mut memo_key, missed)),
        );
        if let Some(key) = memo_key {
            let db_gen = session.db_gen;
            if let Some(p) = session.prepared.get_mut(name) {
                p.memo = Some((db_gen, key));
            }
        }
        resp
    }

    /// `BATCH`: every `name [eps [delta]]` spec line answered as its own
    /// `EXEC`, one payload line per spec (the inner EXEC's header). One
    /// round trip amortizes over the whole body; a failing spec contributes
    /// its `ERR` header and counts in `errors=` without aborting the rest —
    /// the line-per-spec pairing must stay positional.
    ///
    /// Two phases. First, in spec order on this thread, each spec goes
    /// through the memoized-key fast path — exactly the cache lookups a
    /// lone `EXEC` would make, in the same order — and a spec that needs
    /// the session (a miss, a cold query, a bad spec) runs the full
    /// pipeline right there. Then the warm specs are answered side by side
    /// on up to `available_parallelism` threads, this one included.
    ///
    /// Every sampled answer reads the stream `Witness::new(MC_SEED)` draws
    /// for its dimension, and Theorem 4's sample is uniform over every
    /// parameter vector, so one stream serves every kernel of a dimension
    /// and sample count at once, and a kernel's hit count is a function of
    /// that stream and the kernel alone. Phase 2 therefore groups the warm
    /// polynomial specs by `(dim, samples)` and, within a group, by cached
    /// entry: specs that share an entry share one hit count, and each
    /// renders its own header from it. Each group's lanes are cut at batch
    /// boundaries into at most as many ranges as there are threads
    /// (`lane_parts`); a range sweeps every distinct kernel of its group
    /// over its own stretch of the stream (`mc_over_kernels`), and
    /// the hits of a kernel are summed over the ranges. The ranges fall on
    /// the serial loop's batches, so every lane is decided exactly as there
    /// and the body is the serial loop's, byte for byte, whatever the
    /// thread count. A warm linear spec (exact volume) is a unit of its
    /// own. A panic in any unit resumes on this thread, as a serial one
    /// would.
    pub fn batch(&self, session: &mut Session, specs: &str) -> Response {
        enum Spec {
            Answered(Response),
            Warm(WarmExec, String),
        }
        /// The distinct kernels of one `(dim, samples)` group.
        struct Group<'a> {
            dim: usize,
            samples: usize,
            kernels: Vec<&'a CacheEntry>,
        }
        enum Unit {
            /// A linear spec's exact volume, by index into `warm`.
            Exact(usize),
            /// One lane range of a group.
            Lanes(usize, Range<usize>),
        }
        enum Done {
            Answer(Response),
            Hits(usize, Vec<usize>),
        }
        let specs: Vec<Spec> = specs
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| match parse_exec_args("BATCH", line.trim()) {
                Ok((name, eps, delta)) => {
                    let eps = eps.unwrap_or(self.cfg.default_eps);
                    let delta = delta.unwrap_or(self.cfg.default_delta);
                    match self.exec_fast(session, &name, eps, delta) {
                        Ok(warm) => Spec::Warm(warm, name),
                        Err(missed) => {
                            Spec::Answered(self.exec_full(session, &name, eps, delta, missed))
                        }
                    }
                }
                Err(e) => Spec::Answered(Response::err("proto", e)),
            })
            .collect();
        let warm: Vec<(&WarmExec, &str)> = specs
            .iter()
            .filter_map(|s| match s {
                Spec::Warm(w, name) => Some((w, name.as_str())),
                Spec::Answered(_) => None,
            })
            .collect();
        // Per warm spec, where its answer comes from: its own exact unit
        // (`None`), or kernel `k` of group `g`.
        let mut groups: Vec<Group> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        let mut sources: Vec<Option<(usize, usize)>> = Vec::with_capacity(warm.len());
        let mut shared = 0u64;
        for (i, (w, _)) in warm.iter().enumerate() {
            if w.entry.class != ConstraintClass::Polynomial {
                units.push(Unit::Exact(i));
                sources.push(None);
                continue;
            }
            let key = (w.dim, w.acc.samples);
            let g = match groups.iter().position(|g| (g.dim, g.samples) == key) {
                Some(g) => g,
                None => {
                    groups.push(Group {
                        dim: w.dim,
                        samples: w.acc.samples,
                        kernels: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let kernels = &mut groups[g].kernels;
            let k = match kernels.iter().position(|&e| std::ptr::eq(e, &*w.entry)) {
                Some(k) => {
                    shared += 1;
                    k
                }
                None => {
                    kernels.push(&w.entry);
                    kernels.len() - 1
                }
            };
            sources.push(Some((g, k)));
        }
        let threads = par::default_threads();
        for (g, group) in groups.iter().enumerate() {
            units.extend(
                lane_parts(group.samples, threads)
                    .into_iter()
                    .map(|lanes| Unit::Lanes(g, lanes)),
            );
        }
        let done = par::run_items(units.len(), threads, |u| match &units[u] {
            &Unit::Exact(i) => Done::Answer(self.eval_warm(warm[i].0, warm[i].1)),
            Unit::Lanes(g, lanes) => {
                let group = &groups[*g];
                Done::Hits(
                    *g,
                    self.mc_over_kernels(&group.kernels, group.dim, lanes.clone()),
                )
            }
        });
        let mut exact = Vec::new();
        let mut hits: Vec<Vec<usize>> = groups.iter().map(|g| vec![0; g.kernels.len()]).collect();
        for d in done {
            match d {
                Done::Answer(r) => exact.push(r),
                Done::Hits(g, part) => {
                    for (sum, h) in hits[g].iter_mut().zip(part) {
                        *sum += h;
                    }
                }
            }
        }
        self.stats.mc_shared.fetch_add(shared, Ordering::Relaxed);
        let mut exact = exact.into_iter();
        let answers: Vec<Response> = warm
            .iter()
            .zip(sources)
            .map(|(&(w, name), source)| match source {
                None => exact.next().expect("one answer per exact unit"),
                Some((g, k)) => {
                    let answer = mc_answer(hits[g][k], w.acc, "nonlinear");
                    self.render_answer(Ok(answer), "EXEC", name, "hit", &self.request_budget())
                }
            })
            .collect();
        let mut answers = answers.into_iter();
        let mut errors = 0usize;
        let body: Vec<String> = specs
            .into_iter()
            .map(|s| {
                let r = match s {
                    Spec::Answered(r) => r,
                    Spec::Warm(..) => answers.next().expect("one answer per warm spec"),
                };
                errors += usize::from(!r.is_ok());
                r.header
            })
            .collect();
        self.stats
            .batch_execs
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        let mut resp = Response::ok(format!("BATCH n={} errors={errors}", body.len()));
        resp.body = body;
        resp
    }

    /// `VOLUME`: one-shot `VOL_I` of an ad-hoc formula (still cached — two
    /// sessions asking for the volume of the same region share the QE).
    pub fn volume(&self, session: &mut Session, query: &str) -> Response {
        let f = match parse_formula_with(query, session.program.db_vars_mut()) {
            Ok(f) => f,
            Err(e) => return Response::err("parse", e.to_string()),
        };
        let mut vars: Vec<Var> = f.free_vars().into_iter().collect();
        vars.sort_by_key(|v| session.db().vars().name(*v));
        let (eps, delta) = (self.cfg.default_eps, self.cfg.default_delta);
        self.answer(session, &f, &vars, eps, delta, "VOLUME", "-", None)
    }

    /// `SUM`: evaluate a loaded Σ-term under the request budget.
    pub fn sum(&self, session: &mut Session, name: &str) -> Response {
        let Some(stmt) = session.program.sum(name) else {
            return Response::err("sum", format!("no loaded sum statement `{name}`"));
        };
        let budget = self.request_budget();
        match stmt.to_sum_term().eval_with_budget(session.db(), &budget) {
            Ok(v) => Response::ok(format!("SUM {name} value={v} steps={}", budget.steps())),
            Err(AggError::Budget(b)) => {
                self.stats.over_budget.fetch_add(1, Ordering::Relaxed);
                Response::err("budget", b.to_string())
            }
            Err(e) => Response::err("sum", e.to_string()),
        }
    }

    /// The shared `EXEC`/`VOLUME` evaluation path. See the module docs of
    /// [`crate`] for the exact→approximate policy. An `EXEC` passes `memo`:
    /// the slot its canonical key is written to, and the key its fast path
    /// already missed on (looked up at most once per request).
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &self,
        session: &mut Session,
        f: &Formula,
        vars: &[Var],
        eps: f64,
        delta: f64,
        verb: &str,
        name: &str,
        memo: Option<(&mut Option<CacheKey>, Option<CacheKey>)>,
    ) -> Response {
        let acc = match Accuracy::new(eps, delta) {
            Ok(acc) => acc,
            Err(resp) => return resp,
        };
        let budget = self.request_budget();
        let expanded = match session.db().expand(f) {
            Ok(x) => x,
            Err(e) => return Response::err("exec", e.to_string()),
        };
        // Intern and simplify on ids: the memoized rewrite is shared across
        // requests of this session, and the warm path never renders a
        // string — the cache key is the 128-bit canonical hash read off
        // the interned node.
        let (arena, simp, absint) = session.program.ir_mut();
        let fid = arena.intern(&expanded);
        let sid = cqa_qe::simplify_id(arena, fid, simp);
        // Positional over the name-sorted params: two sessions that
        // interned the same query's variables in different orders still
        // share one cache slot.
        let key = CacheKey {
            hash: arena.canonical_hash_for_params(sid, vars),
            dim: vars.len() as u32,
        };
        let mut missed = None;
        if let Some((slot, fast_miss)) = memo {
            *slot = Some(key);
            missed = fast_miss;
        }
        let cached = if missed == Some(key) {
            None
        } else {
            self.cache.get(key)
        };
        let (entry, cache_tag) = match cached {
            Some(e) => (Some(e), "hit"),
            None => {
                // Cold path: consult the absint verdict first — a
                // statically decided query needs no elimination at all,
                // and its certified bounding box (if any) rides along in
                // the cache entry to prefilter Monte Carlo lanes.
                let facts = cqa_analyze::analyze_id(arena, sid, absint);
                // Answer-path gate: substituting ⊥/⊤ for the QE output is
                // only taken where eliminating the query would land on
                // the same answer path — non-polynomial queries (FM keeps
                // them non-polynomial, so the result is integrated exactly
                // and 0/1 is the volume either way) and quantifier-free
                // ones (elimination is a no-op, so the same Monte Carlo
                // sweep runs and the ⊥/⊤ kernel decides each lane
                // identically). A quantified polynomial query could drop
                // class during elimination, so it keeps paying QE. This
                // keeps every answer equal to what eliminate-then-
                // integrate gives (`reference_answer` in the tests below).
                let sid_class = arena.meta(sid).class;
                let skip_safe =
                    sid_class != ConstraintClass::Polynomial || arena.meta(sid).quantifier_free;
                let static_qf = match facts.verdict {
                    cqa_analyze::Verdict::Unsat if skip_safe => {
                        self.stats
                            .absint_unsat_skips
                            .fetch_add(1, Ordering::Relaxed);
                        Some(Formula::False)
                    }
                    cqa_analyze::Verdict::Valid if skip_safe => {
                        self.stats
                            .absint_valid_skips
                            .fetch_add(1, Ordering::Relaxed);
                        Some(Formula::True)
                    }
                    _ => None,
                };
                let static_skip = static_qf.is_some();
                let mc_box = cqa_analyze::absint::unit_box(&facts.env, vars);
                let eliminated = match static_qf {
                    Some(qf) => Ok(qf),
                    None => {
                        // Planned elimination: method/order/pruning chosen
                        // from the static measurements plus the absint
                        // certificates, with quantifier-block results
                        // memoized in the shared cache's subplan namespace.
                        // Certified pruning survivors refine the FM clause
                        // budget; the prune itself is memoized per node, so
                        // this is cheap on repeats.
                        let pid = cqa_analyze::prune_id(arena, sid, absint, simp);
                        let meta = arena.meta(sid);
                        let inputs = cqa_qe::plan::PlanInputs {
                            atoms: meta.atom_count(),
                            quantifiers: meta.quantifiers,
                            pruned_atoms: Some(arena.meta(pid).atom_count()),
                            box_volume: Some(cqa_analyze::absint::box_volume(&facts.env, vars)),
                            vc_bound: None,
                        };
                        let simplified = arena.extern_formula(sid);
                        let qeplan = cqa_qe::plan::plan(&simplified, &inputs);
                        match qeplan.method {
                            cqa_qe::plan::Method::FourierMotzkin => &self.stats.plan_fm,
                            cqa_qe::plan::Method::LoosWeispfenning => &self.stats.plan_lw,
                            cqa_qe::plan::Method::Hoermander => &self.stats.plan_ch,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        cqa_qe::plan::eliminate_with_plan(
                            &simplified,
                            &qeplan,
                            &budget,
                            arena,
                            &CacheSubplans { cache: &self.cache },
                        )
                    }
                };
                match eliminated {
                    // Every elimination method returns simplified output,
                    // and a static ⊥/⊤ is already simplified.
                    Ok(qf) => {
                        let qf_id = arena.intern(&qf);
                        let kernel = match CompiledMatrix::compile_arena(
                            arena,
                            qf_id,
                            &SlotMap::from_vars(vars),
                        ) {
                            Ok(k) => k,
                            Err(e) => {
                                return Response::err(
                                    "exec",
                                    format!("eliminated matrix is not compilable: {e:?}"),
                                )
                            }
                        };
                        // A static ⊥/⊤ substitution keeps the original
                        // query's class so the exact-vs-MC decision below
                        // is the one eliminating the query would reach.
                        let class = if static_skip {
                            sid_class
                        } else {
                            arena.meta(qf_id).class
                        };
                        let fragment = match class {
                            ConstraintClass::Polynomial => "FO+POLY",
                            _ => "FO+LIN",
                        };
                        // Key bytes are charged by the cache itself.
                        let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
                        let entry = self.cache.insert(
                            key,
                            CacheEntry {
                                qf,
                                qf_vars: vars.to_vec(),
                                kernel,
                                class,
                                fragment,
                                bytes,
                                mc_box,
                            },
                        );
                        // A cold miss just paid for elimination — the
                        // expensive artifact the warm file exists to save.
                        // Flushing here (not only at SHUTDOWN) is what
                        // makes warm-start survive a SIGKILL.
                        self.flush_warm();
                        (Some(entry), "miss")
                    }
                    Err(QeError::Budget(_)) => (None, "miss"),
                    Err(e) => return Response::err("qe", e.to_string()),
                }
            }
        };
        match &entry {
            Some(entry) => self.eval_entry(entry, vars.len(), acc, &budget, verb, name, cache_tag),
            // QE itself blew the budget: no quantifier-free form exists to
            // integrate or sample, so decide membership point by point
            // (each ground instance is vastly cheaper than parametric QE),
            // under the same budget: see `mc_pointwise` for which trips
            // this answers.
            None => {
                let simplified = arena.extern_formula(sid);
                let answer = self.mc_pointwise(&simplified, vars, acc, &budget);
                self.render_answer(answer, verb, name, cache_tag, &budget)
            }
        }
    }

    /// Evaluates a cached entry — exact triangulating integration when the
    /// quantifier-free form is linear, seeded Monte Carlo over the
    /// compiled kernel otherwise — and renders the response. Shared by the
    /// full [`Self::answer`] pipeline and the memoized-key `EXEC` fast
    /// path; both must produce bit-identical output for the same entry.
    #[allow(clippy::too_many_arguments)]
    fn eval_entry(
        &self,
        entry: &Arc<CacheEntry>,
        dim: usize,
        acc: Accuracy,
        budget: &EvalBudget,
        verb: &str,
        name: &str,
        cache_tag: &str,
    ) -> Response {
        let sampled = |reason| {
            let hits = self.mc_over_kernels(&[entry], dim, 0..acc.samples)[0];
            Ok(mc_answer(hits, acc, reason))
        };
        let answer = if entry.class == ConstraintClass::Polynomial {
            // Semi-algebraic output: the exact triangulating integrator
            // does not apply; degrade to MC over the cached kernel.
            sampled("nonlinear")
        } else {
            match cqa_geom::volume_in_unit_box_with_budget(&entry.qf, &entry.qf_vars, budget) {
                Ok(v) => Ok(Answer::Exact(v)),
                Err(VolumeError::Budget(_)) => sampled("volume-budget"),
                Err(e) => return Response::err("volume", e.to_string()),
            }
        };
        self.render_answer(answer, verb, name, cache_tag, budget)
    }

    /// Formats an exact/approximate answer into the wire response header.
    fn render_answer(
        &self,
        answer: Result<Answer, Response>,
        verb: &str,
        name: &str,
        cache_tag: &str,
        budget: &EvalBudget,
    ) -> Response {
        match answer {
            Ok(Answer::Exact(v)) => Response::ok(format!(
                "{verb} {name} status=exact value={v} cache={cache_tag} steps={}",
                budget.steps()
            )),
            Ok(Answer::Approx {
                estimate,
                acc,
                reason,
            }) => {
                self.stats.degraded.fetch_add(1, Ordering::Relaxed);
                Response::ok(format!(
                    "{verb} {name} status=approx value={estimate} eps={} delta={} \
                     samples={} reason={reason} cache={cache_tag} steps={}",
                    acc.eps,
                    acc.delta,
                    acc.samples,
                    budget.steps()
                ))
            }
            Err(resp) => resp,
        }
    }

    /// Best-effort warm-file flush (no-op for in-memory engines).
    fn flush_warm(&self) {
        if let Some(storage) = &self.storage {
            storage.flush_warm(&self.cache);
        }
    }

    /// Hoeffding sample size for an additive (ε, δ) guarantee on `VOL_I`
    /// ([`hoeffding_sample_size`]); what says which (ε, δ) a request may ask
    /// for. `Err` is the text of `ERR exec`: ε or δ outside (0, 1), or a
    /// count past [`MAX_SAMPLES`].
    pub fn sample_count(eps: f64, delta: f64) -> Result<usize, String> {
        hoeffding_sample_size(eps, delta).map_err(|e| match e {
            ApproxError::InvalidParameter(msg) => msg,
            e => e.to_string(),
        })
    }

    /// Deterministic Monte Carlo `VOL_I` hit counts of every entry's cached
    /// kernel, behind its absint box, over lanes `lanes` of one sample
    /// stream: `samples` points of `dim` coordinates from
    /// `Witness::new(MC_SEED)` make lanes `0..samples`, and `EXEC`/`VOLUME`
    /// sweep all of them. `lanes.start` must fall on a batch boundary; an
    /// entry's count is the same whether it is swept alone, beside others,
    /// or range by range ([`Sweep::lanes`]). Nothing is charged to the
    /// request budget. Fast/exact/box-skipped lane counts and the lanes
    /// drawn feed the service counters behind `STATS`; the range that
    /// starts a stream counts it.
    fn mc_over_kernels(
        &self,
        entries: &[&CacheEntry],
        dim: usize,
        lanes: Range<usize>,
    ) -> Vec<usize> {
        let kernels: Vec<_> = entries
            .iter()
            .map(|e| (&e.kernel, e.mc_box.as_deref()))
            .collect();
        let sweep = Sweep {
            kernels: &kernels,
            params: &[],
            dim,
            stream: &Witness::new(MC_SEED),
        };
        let counts = sweep
            .lanes(lanes.clone(), &EvalBudget::unlimited(), |_, _, _| {})
            .expect("an unlimited budget never trips");
        let s = &self.stats;
        s.absint_box_skipped_lanes
            .fetch_add(counts.box_skipped, Ordering::Relaxed);
        s.batch_fast_lanes
            .fetch_add(counts.lanes.fast, Ordering::Relaxed);
        s.batch_exact_lanes
            .fetch_add(counts.lanes.exact, Ordering::Relaxed);
        s.mc_streams
            .fetch_add(u64::from(lanes.start == 0), Ordering::Relaxed);
        s.mc_sampled_lanes
            .fetch_add(lanes.len() as u64, Ordering::Relaxed);
        counts.hits
    }

    /// Last-resort degraded path when parametric QE itself exceeded the
    /// budget: decide membership of each sample point by substituting it
    /// and deciding the resulting ground sentence, all under the same
    /// request budget. If even the ground decisions blow the budget the
    /// request fails with `ERR budget` (counted in `over_budget`).
    ///
    /// That is what a step-cap or deadline trip during QE answers: the
    /// budget those trips exhausted is this one, so its first check fails
    /// on the step cap, and its first clock probe, at most `CLOCK_PERIOD`
    /// steps in, on the deadline. Only a `Depth` trip, which Hörmander
    /// raises without exhausting the budget, can reach `reason=qe-budget`,
    /// when the ground instances fit under the depth cap. The ROADMAP item
    /// "certified answers where QE runs out" replaces this path.
    fn mc_pointwise(
        &self,
        f: &Formula,
        vars: &[Var],
        acc: Accuracy,
        budget: &EvalBudget,
    ) -> Result<Answer, Response> {
        let samples = acc.samples;
        let mut w = Witness::new(MC_SEED);
        let mut hits = 0usize;
        for _ in 0..samples {
            let point = w.uniform_unit_point(vars.len());
            let mut ground = f.clone();
            for (v, c) in vars.iter().zip(&point) {
                ground = ground.subst_rat(*v, c);
            }
            match cqa_qe::decide_sentence(&ground, budget) {
                Ok(true) => hits += 1,
                Ok(false) => {}
                Err(QeError::Budget(b)) => {
                    self.stats.over_budget.fetch_add(1, Ordering::Relaxed);
                    return Err(Response::err("budget", b.to_string()));
                }
                Err(e) => return Err(Response::err("qe", e.to_string())),
            }
        }
        Ok(Answer::Approx {
            estimate: Rat::new((hits as i64).into(), (samples as i64).into()),
            acc,
            reason: "qe-budget",
        })
    }

    /// `STATS`: cache counters, hit rate, per-command latency histograms,
    /// in-flight and rejection counts.
    pub fn render_stats(&self) -> Response {
        let cache = self.cache.snapshot();
        let s = &self.stats;
        let mut resp = Response::ok(format!(
            "STATS uptime_us={}",
            self.started.elapsed().as_micros()
        ));
        resp.body.push(format!(
            "sessions={} commands={} in_flight={} open_conns={} batch_execs={}",
            EngineStats::get(&s.sessions),
            EngineStats::get(&s.commands),
            EngineStats::get(&s.in_flight),
            EngineStats::get(&s.open_conns),
            EngineStats::get(&s.batch_execs),
        ));
        resp.body.push(format!(
            "cache entries={} bytes={} budget_bytes={} shards={} hits={} misses={} \
             hit_rate={:.3} evictions={} poison_recoveries={}",
            cache.entries,
            cache.bytes,
            cache.byte_budget,
            cache.shards,
            cache.hits,
            cache.misses,
            cache.hit_rate(),
            cache.evictions,
            cache.poison_recoveries,
        ));
        resp.body.push(format!(
            "over_budget={} lint_rejected={} rejected_conns={} degraded={} write_errors={} \
             worker_panics={}",
            EngineStats::get(&s.over_budget),
            EngineStats::get(&s.lint_rejected),
            EngineStats::get(&s.rejected_conns),
            EngineStats::get(&s.degraded),
            EngineStats::get(&s.write_errors),
            EngineStats::get(&s.worker_panics),
        ));
        resp.body.push(format!(
            "net replies={} writes={}",
            EngineStats::get(&s.net_replies),
            EngineStats::get(&s.net_writes),
        ));
        let (nodes, terms, calls) = (
            EngineStats::get(&s.ir_nodes),
            EngineStats::get(&s.ir_terms),
            EngineStats::get(&s.ir_intern_calls),
        );
        resp.body.push(format!(
            "ir nodes={nodes} terms={terms} intern_calls={calls} dedup_ratio={:.3}",
            if nodes == 0 {
                1.0
            } else {
                calls as f64 / nodes as f64
            }
        ));
        let (fast, exact) = (
            EngineStats::get(&s.batch_fast_lanes),
            EngineStats::get(&s.batch_exact_lanes),
        );
        resp.body.push(format!(
            "kernel fast_lanes={fast} exact_lanes={exact} fallback_rate={:.4}",
            if fast + exact == 0 {
                0.0
            } else {
                exact as f64 / (fast + exact) as f64
            }
        ));
        resp.body.push(format!(
            "mc streams={} sampled_lanes={} shared={}",
            EngineStats::get(&s.mc_streams),
            EngineStats::get(&s.mc_sampled_lanes),
            EngineStats::get(&s.mc_shared),
        ));
        resp.body.push(format!(
            "analyze statements={}",
            EngineStats::get(&s.analyzed_statements),
        ));
        resp.body.push(format!(
            "absint unsat_skips={} valid_skips={} box_skipped_lanes={}",
            EngineStats::get(&s.absint_unsat_skips),
            EngineStats::get(&s.absint_valid_skips),
            EngineStats::get(&s.absint_box_skipped_lanes),
        ));
        resp.body.push(format!(
            "plan fm={} lw={} ch={} subplan_hits={} subplan_misses={}",
            EngineStats::get(&s.plan_fm),
            EngineStats::get(&s.plan_lw),
            EngineStats::get(&s.plan_ch),
            cache.subplan_hits,
            cache.subplan_misses,
        ));
        if let Some(storage) = &self.storage {
            let st = storage.stats();
            resp.body.push(format!(
                "wal records={} bytes={} replayed={} torn_bytes={} snapshots={} snapshot_errors={}",
                EngineStats::get(&st.wal_records),
                EngineStats::get(&st.wal_bytes),
                EngineStats::get(&st.replayed_records),
                EngineStats::get(&st.torn_bytes),
                EngineStats::get(&st.snapshots),
                EngineStats::get(&st.snapshot_errors),
            ));
            resp.body.push(format!(
                "warm loaded={} skipped={} flushes={} errors={}",
                EngineStats::get(&st.warm_loaded),
                EngineStats::get(&st.warm_skipped),
                EngineStats::get(&st.warm_flushes),
                EngineStats::get(&st.warm_errors),
            ));
        }
        for kind in [
            crate::protocol::CommandKind::Load,
            crate::protocol::CommandKind::Prepare,
            crate::protocol::CommandKind::Exec,
            crate::protocol::CommandKind::Batch,
            crate::protocol::CommandKind::Volume,
            crate::protocol::CommandKind::Sum,
            crate::protocol::CommandKind::Persist,
            crate::protocol::CommandKind::Stats,
            crate::protocol::CommandKind::Close,
            crate::protocol::CommandKind::Shutdown,
        ] {
            let h = &s.latency[kind.index()];
            if h.count() > 0 {
                resp.body
                    .push(format!("latency {} {}", kind.name(), h.render()));
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    const PROGRAM: &str = "\
rel S(y) := (0 <= y & y <= 0.5) | (0.75 <= y & y <= 2)
sum EndpointSum(w) := true | END[y. S(y)] ; xout . xout = w
";

    #[test]
    fn load_prepare_exec_roundtrip() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.dispatch(
            &mut s,
            Command::Load {
                program: Some(PROGRAM.into()),
            },
        );
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("rels=1"), "{r:?}");
        let r = e.prepare(&mut s, "band", "S(x) & x <= 1");
        assert!(r.is_ok(), "{r:?}");
        // VOL_I of S ∩ [0,1] = [0, 1/2] ∪ [3/4, 1] → 3/4.
        let r = e.exec(&mut s, "band", None, None);
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("status=exact value=3/4"), "{r:?}");
        assert!(r.header.contains("cache=miss"), "{r:?}");
        // Second EXEC hits the cache, same answer.
        let r = e.exec(&mut s, "band", None, None);
        assert!(r.header.contains("status=exact value=3/4"), "{r:?}");
        assert!(r.header.contains("cache=hit"), "{r:?}");
        assert_eq!(e.cache.snapshot().hits, 1);
    }

    #[test]
    fn load_gate_rejects_and_preserves_session() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.load(&mut s, PROGRAM).is_ok());
        let bad = e.load(&mut s, "query Bad(x) := x = zz + 1\n");
        assert!(!bad.is_ok(), "{bad:?}");
        assert!(bad.header.starts_with("ERR lint"), "{bad:?}");
        assert!(!bad.body.is_empty(), "diagnostics travel in the body");
        // The session still works with its pre-rejection state.
        let r = e.sum(&mut s, "EndpointSum");
        assert!(r.header.contains("value=13/4"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.lint_rejected), 1);
    }

    #[test]
    fn rejected_requests_list_only_their_own_findings() {
        let e = engine();
        let mut s = e.open_session();
        // A session that already holds three CQA008 warnings.
        let r = e.load(
            &mut s,
            "rel S(y) := (0 <= y & y <= 0.5) | (0.75 <= y & y <= 2)\n\
             query Above(x) := S(x) & x >= 0.5\n\
             sum EndpointSum(w) := true | END[y. S(y)] ; xout . xout = w\n\
             sum DoubledAbove(w) := w >= 0.5 | END[y. S(y)] ; xout . xout = 2*w\n",
        );
        assert!(r.header.ends_with("sums=2 warnings=3"), "{r:?}");
        // Where a reply's findings point: every `--> VERB:line:col` of it.
        let anchors = |r: &Response| -> Vec<String> {
            r.body
                .iter()
                .filter_map(|l| l.trim().strip_prefix("--> ").map(str::to_string))
                .collect()
        };

        let r = e.prepare(&mut s, "bad", "Missing(q) & q > 0");
        assert_eq!(r.header, "ERR lint 1 error(s); not prepared");
        // The synthetic statement is line 1 of what was analysed, and its
        // own two warnings are the only company the error has.
        assert_eq!(
            anchors(&r),
            ["PREPARE:1:7", "PREPARE:1:24", "PREPARE:1:24"],
            "{r:?}"
        );
        let body = r.body.join("\n");
        assert!(
            body.contains("error[CQA004]: unknown relation `Missing`"),
            "{body}"
        );
        assert!(
            body.contains("1 | query __prep_bad(q) := Missing(q) & q > 0"),
            "{body}"
        );

        let r = e.load(&mut s, "# a comment\nquery Bad(x) := x = zz + 1\n");
        assert_eq!(
            r.header,
            "ERR lint 1 error(s), 2 warning(s); session unchanged"
        );
        // Lines count from the start of the text this request sent.
        assert_eq!(anchors(&r), ["LOAD:2:7", "LOAD:2:17", "LOAD:2:17"], "{r:?}");
        assert!(r
            .body
            .join("\n")
            .contains("error[CQA001]: unbound variable `zz`"));
    }

    #[test]
    fn the_gate_sees_every_statement_once() {
        let e = engine();
        let mut s = e.open_session();
        for i in 0..2000 {
            let r = e.load(&mut s, &format!("rel H{i}(x) := x <= {i}/2000\n"));
            assert!(r.is_ok(), "{r:?}");
        }
        assert!(
            e.load(&mut s, "")
                .header
                .contains("statements=2000 rels=2000"),
            "an empty LOAD analyses nothing"
        );
        for i in 0..50 {
            let r = e.prepare(&mut s, "q", &format!("H{i}(x) & x >= 0"));
            assert!(r.is_ok(), "{r:?}");
        }
        // n + m — re-analysing the session would read n(n+1)/2 + m(n+1).
        assert_eq!(EngineStats::get(&e.stats.analyzed_statements), 2050);
        let stats = e.render_stats().body.join("\n");
        assert!(stats.contains("analyze statements=2050"), "{stats}");
    }

    #[test]
    fn requests_that_commit_nothing_leave_no_trace() {
        // One session sees the noise, the other does not; both engines are
        // fresh, so `cache=` agrees too.
        let drive = |noise: bool| {
            let e = engine();
            let mut s = e.open_session();
            let mut seen = Vec::new();
            let expect = |r: Response, header: &str| {
                assert!(r.header.starts_with(header), "{r:?}");
            };
            // An active-domain quantifier before the first `rel`: its
            // CQA009 warning leaves the count when S arrives.
            seen.push(e.load(&mut s, "query A(v) := 0 <= v & v <= 1 & Eadom w. w = v\n"));
            if noise {
                // A sound relation rides along with the error: it goes too.
                expect(
                    e.load(
                        &mut s,
                        "rel Gone(g) := g >= 0\nquery Bad(fresh) := fresh = stray + 1\n",
                    ),
                    "ERR lint 1 error(s)",
                );
            }
            seen.push(e.load(&mut s, PROGRAM));
            if noise {
                // A Σ-term rides along with the duplicate: it must not stay.
                expect(
                    e.load(
                        &mut s,
                        "sum T(w) := true | END[y. S(y)] ; xout . xout = w\n\
                         rel S(other) := other >= 0\n",
                    ),
                    "ERR load relation `S`: relation S already defined",
                );
                expect(
                    e.prepare(&mut s, "n1", "exists k. S(k) & m < k & 0 <= m"),
                    "OK PREPARE n1 params=m",
                );
                expect(e.exec(&mut s, "n1", None, None), "OK EXEC n1");
                expect(
                    e.prepare(&mut s, "n2", "Missing(j) & j > 0"),
                    "ERR lint 1 error(s)",
                );
                expect(e.prepare(&mut s, "n3", "j >= @"), "ERR parse");
                expect(e.sum(&mut s, "T"), "ERR sum no loaded sum statement `T`");
            }
            seen.push(e.load(
                &mut s,
                "query Later(p) := S(p) & p >= 1\nrel B(b) := 0 <= b & b <= 1\n",
            ));
            seen.push(e.prepare(&mut s, "band", "exists c. S(c) & B(x) & x < c"));
            seen.push(e.exec(&mut s, "band", None, None));
            seen.push(e.sum(&mut s, "EndpointSum"));
            let vars = s.db().vars();
            let names: Vec<String> = (0..vars.len()).map(|i| vars.name(Var(i as u32))).collect();
            let rels: Vec<String> = s.db().relation_names().map(str::to_string).collect();
            let headers: Vec<String> = seen.into_iter().map(|r| r.header).collect();
            (headers, names, rels)
        };
        let (clean, noisy) = (drive(false), drive(true));
        assert_eq!(clean, noisy);
        let headers = clean.0;
        assert!(
            headers[0].ends_with("queries=1 sums=0 warnings=3"),
            "{headers:?}"
        );
        assert!(
            headers[1].ends_with("rels=1 queries=1 sums=1 warnings=3"),
            "{headers:?}"
        );
        assert!(
            headers[4].contains("status=exact") && headers[4].contains("steps="),
            "{headers:?}"
        );
        assert!(headers[5].contains("value=13/4"), "{headers:?}");
    }

    #[test]
    fn prepare_gate_rejects_unknown_relation() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.prepare(&mut s, "bad", "Missing(x) & x > 0");
        assert!(r.header.starts_with("ERR lint"), "{r:?}");
    }

    #[test]
    fn nonlinear_query_degrades_with_tag() {
        let e = engine();
        let mut s = e.open_session();
        let r = e.prepare(&mut s, "disk", "x*x + y*y <= 1");
        assert!(r.is_ok(), "{r:?}");
        let r = e.exec(&mut s, "disk", Some(0.05), None);
        assert!(r.is_ok(), "{r:?}");
        assert!(r.header.contains("status=approx"), "{r:?}");
        assert!(r.header.contains("eps=0.05"), "{r:?}");
        assert!(r.header.contains("reason=nonlinear"), "{r:?}");
        // Quarter disk: VOL_I ≈ π/4 ≈ 0.785; ε = 0.05 ⇒ the estimate is
        // inside [0.70, 0.87] unless we hit the δ failure slice.
        let val = r
            .header
            .split("value=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap();
        let (n, d) = val.split_once('/').expect("rational");
        let x: f64 = n.parse::<f64>().unwrap() / d.parse::<f64>().unwrap();
        assert!((0.70..=0.87).contains(&x), "VOL_I estimate {x} off");
        assert_eq!(EngineStats::get(&e.stats.degraded), 1);
        // The batched kernel swept every sample lane and counted it.
        let lanes = EngineStats::get(&e.stats.batch_fast_lanes)
            + EngineStats::get(&e.stats.batch_exact_lanes);
        let samples: u64 = r
            .header
            .split("samples=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(lanes, samples);
    }

    #[test]
    fn degraded_answers_report_their_steps() {
        // A quantified polynomial query pays for Hörmander, then samples:
        // its approx header says how many budget steps that took, as an
        // exact header does; served from the cache, it took none.
        let e = engine();
        let mut s = e.open_session();
        let q = "exists v. x*x + v*v <= 1/2 & v >= x*x - 1/4";
        assert!(e.prepare(&mut s, "lens", q).is_ok());
        let steps = |r: &Response| -> Option<u64> {
            let n = r
                .header
                .split_whitespace()
                .find_map(|t| t.strip_prefix("steps="));
            n.map(|n| n.parse().unwrap())
        };
        let cold = e.exec(&mut s, "lens", None, None);
        assert!(cold.header.contains("status=approx"), "{cold:?}");
        assert!(cold.header.contains("cache=miss"), "{cold:?}");
        assert!(steps(&cold).is_some_and(|n| n > 0), "{cold:?}");
        let warm = e.exec(&mut s, "lens", None, None);
        assert!(warm.header.contains("cache=hit"), "{warm:?}");
        assert_eq!(steps(&warm), Some(0), "{warm:?}");
    }

    #[test]
    fn absint_skips_qe_for_statically_empty_queries() {
        let e = engine();
        let mut s = e.open_session();
        // The contradiction is invisible to the simplifier but trivial
        // for interval propagation: x > 2 ∧ x < 1.
        let r = e.prepare(
            &mut s,
            "empty",
            "(exists y. x < y & y < 2*x) & x > 2 & x < 1",
        );
        assert!(r.is_ok(), "{r:?}");
        let r = e.exec(&mut s, "empty", None, None);
        assert!(r.header.contains("status=exact value=0"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_unsat_skips), 1);
        // Valid queries take the mirror path.
        assert!(e.prepare(&mut s, "full", "x < 2 | 1 > 0").is_ok());
        let r = e.exec(&mut s, "full", None, None);
        assert!(r.header.contains("status=exact value=1"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_valid_skips), 1);
        // A statically-valid *polynomial* matrix still degrades to Monte
        // Carlo — the class gate keeps the answer path identical to the
        // un-analyzed engine — but skips elimination.
        assert!(e.prepare(&mut s, "poly", "x*x >= 0 | x < 0").is_ok());
        let r = e.exec(&mut s, "poly", None, None);
        assert!(r.header.contains("status=approx value=1"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.absint_valid_skips), 2);
    }

    /// What the layers below the engine say the `VOL_I` answer to `query`
    /// is, built only from their public entry points: relation expansion,
    /// the fixed QE dispatcher, then exact integration for linear output —
    /// or, for polynomial output, the exact-arithmetic kernel reference
    /// over the engine's sample stream. No cache, arena, simplifier,
    /// absint, planner or `f64` kernel is involved.
    fn reference_answer(db: &Database, query: &str, eps: f64, delta: f64) -> String {
        let mut db = db.clone();
        let f = parse_formula_with(query, db.vars_mut()).unwrap();
        let mut vars: Vec<Var> = f.free_vars().into_iter().collect();
        vars.sort_by_key(|v| db.vars().name(*v));
        let expanded = db.expand(&f).unwrap();
        let qf = cqa_qe::eliminate(&expanded, &EvalBudget::unlimited()).unwrap();
        if qf.class() != ConstraintClass::Polynomial {
            let v = cqa_geom::volume_in_unit_box_with_budget(&qf, &vars, &EvalBudget::unlimited())
                .unwrap();
            return format!("status=exact value={v}");
        }
        let kernel = CompiledMatrix::compile(&qf, &SlotMap::from_vars(&vars)).unwrap();
        let samples = Engine::sample_count(eps, delta).unwrap();
        let mut w = Witness::new(MC_SEED);
        let hits = (0..samples)
            .filter(|_| kernel.eval_rats(&w.uniform_unit_point(vars.len())))
            .count();
        let estimate = Rat::new((hits as i64).into(), (samples as i64).into());
        format!(
            "status=approx value={estimate} eps={eps} delta={delta} samples={samples} \
             reason=nonlinear"
        )
    }

    /// The answer a response header carries — `status`, `value` and, when
    /// degraded, `eps`, `delta`, `samples`, `reason` — without the tokens
    /// that depend on how it was served (verb, name, `cache=`, `steps=`).
    fn answer_of(header: &str) -> String {
        const KEYS: [&str; 6] = ["status=", "value=", "eps=", "delta=", "samples=", "reason="];
        header
            .split_whitespace()
            .filter(|t| KEYS.iter().any(|k| t.starts_with(k)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn answers_match_the_layer_reference() {
        // (query, eps, share of sampled lanes the absint box prefilter must
        // discard as (min, max); `None` where the case does not pin it).
        let cases = [
            ("S(x) & x <= 1", 0.05, None),
            // Polynomial, quantifier-free: nothing bounds the quarter
            // disk, so the prefilter must stay out of the way.
            ("x*x + y*y <= 1", 0.05, Some((0.0, 0.0))),
            // Polynomial, quantified.
            ("exists y. y*y < x", 0.05, None),
            // Statically empty.
            ("(exists y. x < y & y < 1) & x > 2", 0.05, None),
            // Statically valid polynomial.
            ("x*x >= 0", 0.05, None),
            // Linear, quantified.
            ("1/4 <= x & x <= 3/4 & exists y. y < x", 0.05, None),
            // Multi-variable ∃-block.
            (
                "(exists u, v. x < u & u < v & v < x + 1/2) & 0 <= x & x <= 1",
                0.05,
                None,
            ),
            ("forall y. y > x | y <= x", 0.05, None),
            (
                "exists y. (x < y & y < 1/2) | (3/4 < y & y < x)",
                0.05,
                None,
            ),
            // The disk only intersects [2/5, 3/5]²: the box certificate
            // discards 24/25 of the unit-box lanes up front, and the hit
            // count is still the unfiltered one.
            (
                "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/100 \
                 & 2/5 <= x & x <= 3/5 & 2/5 <= y & y <= 3/5",
                0.02,
                Some((0.5, 1.0)),
            ),
        ];
        for (query, eps, box_skip) in cases {
            let e = engine();
            let mut s = e.open_session();
            assert!(e.load(&mut s, PROGRAM).is_ok());
            assert!(e.prepare(&mut s, "q", query).is_ok(), "{query}");
            let r = e.exec(&mut s, "q", Some(eps), None);
            assert!(r.is_ok(), "{query}: {r:?}");
            assert_eq!(
                answer_of(&r.header),
                reference_answer(s.db(), query, eps, e.cfg.default_delta),
                "{query}"
            );
            if let Some((min, max)) = box_skip {
                let skipped = EngineStats::get(&e.stats.absint_box_skipped_lanes);
                let evaluated = EngineStats::get(&e.stats.batch_fast_lanes)
                    + EngineStats::get(&e.stats.batch_exact_lanes);
                let share = skipped as f64 / (skipped + evaluated) as f64;
                assert!(
                    (min..=max).contains(&share),
                    "{query}: {skipped} of {} lanes skipped",
                    skipped + evaluated
                );
            }
        }
    }

    #[test]
    fn overlapping_prepared_queries_share_subplans() {
        let e = engine();
        let mut s = e.open_session();
        let core = "(exists u, v. x < u & u < v & v < x + 1)";
        assert!(e
            .prepare(&mut s, "lo", &format!("{core} & 0 <= x & x <= 1/2"))
            .is_ok());
        assert!(e
            .prepare(&mut s, "hi", &format!("{core} & 1/2 <= x & x <= 1"))
            .is_ok());
        let r = e.exec(&mut s, "lo", None, None);
        assert!(r.header.contains("status=exact value=1/2"), "{r:?}");
        assert_eq!(e.cache.snapshot().subplan_hits, 0, "first run is cold");
        let r = e.exec(&mut s, "hi", None, None);
        assert!(r.header.contains("status=exact value=1/2"), "{r:?}");
        let snap = e.cache.snapshot();
        assert!(
            snap.subplan_hits >= 1,
            "second query must reuse the shared core's elimination: {snap:?}"
        );
        assert_eq!(snap.misses, 2, "both whole-query lookups were cold");
        // The plan is visible at PREPARE time.
        let r = e.prepare(&mut s, "again", &format!("{core} & x >= 0"));
        assert!(r.header.contains(" plan=fm"), "{r:?}");
        assert!(r.header.contains("shared=on"), "{r:?}");
    }

    #[test]
    fn stats_report_covers_planner_counters() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "q", "exists y. x < y & y < 1").is_ok());
        e.exec(&mut s, "q", None, None);
        assert_eq!(EngineStats::get(&e.stats.plan_fm), 1);
        let r = e.render_stats();
        let body = r.body.join("\n");
        assert!(body.contains("plan fm=1"), "{body}");
        assert!(body.contains("subplan_hits="), "{body}");
    }

    #[test]
    fn batch_runs_specs_in_order_and_counts_errors() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "half", "0 <= x & x <= 1/2").is_ok());
        assert!(e.prepare(&mut s, "quarter", "0 <= x & x <= 1/4").is_ok());
        let r = e.dispatch(
            &mut s,
            Command::Batch {
                specs: Some("half\nquarter 0.1 0.1\nmissing\n1bad\n".into()),
            },
        );
        assert_eq!(r.header, "OK BATCH n=4 errors=2", "{r:?}");
        assert_eq!(r.body.len(), 4);
        assert!(
            r.body[0].contains("EXEC half status=exact value=1/2"),
            "{r:?}"
        );
        assert!(
            r.body[1].contains("EXEC quarter status=exact value=1/4"),
            "{r:?}"
        );
        assert!(r.body[2].starts_with("ERR exec"), "{r:?}");
        assert!(r.body[3].starts_with("ERR proto"), "{r:?}");
        assert_eq!(EngineStats::get(&e.stats.batch_execs), 4);
        // A batched EXEC is bit-identical to the serial command.
        let serial = e.exec(&mut s, "half", None, None);
        assert_eq!(answer_of(&serial.header), answer_of(&r.body[0]));
    }

    #[test]
    fn batch_fan_out_is_a_pure_reordering_of_work() {
        // Warm polynomial and linear hits, a box-prefiltered hit, a cold
        // miss, a name twice, an unknown name, a malformed spec, an
        // out-of-range ε and a spec over the sample cap.
        let specs = "disk\nband\nlens 0.02 0.1\ncold\nspot 0.02\ndisk\nhalf 0.2\n\
                     nosuch\n1bad\nband 2\ndisk 0.00005 0.5\nlens\nhalf\n";
        let twin = || {
            let e = engine();
            let mut s = e.open_session();
            assert!(e.load(&mut s, PROGRAM).is_ok());
            for (name, q) in [
                ("disk", "x*x + y*y <= 1"),
                ("band", "S(x) & x <= 1"),
                ("half", "0 <= x & x <= 1/2"),
                ("lens", "exists v. x*x + v*v <= 1/2 & v >= x*x - 1/4"),
                (
                    "spot",
                    "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/100 \
                     & 2/5 <= x & x <= 3/5 & 2/5 <= y & y <= 3/5",
                ),
                ("cold", "0 <= x & x <= 1/3"),
            ] {
                assert!(e.prepare(&mut s, name, q).is_ok(), "{name}");
                if name != "cold" {
                    assert!(e.exec(&mut s, name, None, None).is_ok(), "{name}");
                }
            }
            (e, s)
        };
        let counters = |e: &Engine| {
            let c = e.cache.snapshot();
            let s = &e.stats;
            [
                c.hits,
                c.misses,
                EngineStats::get(&s.degraded),
                EngineStats::get(&s.batch_fast_lanes),
                EngineStats::get(&s.batch_exact_lanes),
                EngineStats::get(&s.absint_box_skipped_lanes),
            ]
        };
        let (batched, mut s1) = twin();
        let r = batched.dispatch(
            &mut s1,
            Command::Batch {
                specs: Some(specs.into()),
            },
        );
        let (lone, mut s2) = twin();
        let headers: Vec<String> = specs
            .lines()
            .map(|line| match parse_exec_args("BATCH", line) {
                Ok((name, eps, delta)) => lone.exec(&mut s2, &name, eps, delta).header,
                Err(e) => Response::err("proto", e).header,
            })
            .collect();
        // The lanes a `BATCH` sweeps are those of each distinct spec once:
        // the second `disk` shares the first one's sweep.
        let (once, mut s3) = twin();
        let mut seen = std::collections::HashSet::new();
        for line in specs.lines().filter(|l| seen.insert(*l)) {
            if let Ok((name, eps, delta)) = parse_exec_args("BATCH", line) {
                once.exec(&mut s3, &name, eps, delta);
            }
        }
        assert_eq!(r.header, "OK BATCH n=13 errors=4", "{r:?}");
        assert_eq!(r.body, headers);
        assert!(r.body[3].contains("cache=miss"), "{r:?}");
        assert!(r.body[10].contains("over the cap"), "{r:?}");
        let [b, l, o] = [&batched, &lone, &once].map(counters);
        assert_eq!(b[..3], l[..3]);
        assert_eq!(b[3..], o[3..]);
        assert_eq!(EngineStats::get(&batched.stats.batch_execs), 13);
        assert_eq!(EngineStats::get(&batched.stats.mc_shared), 1);
    }

    #[test]
    fn answers_do_not_depend_on_the_thread_count() {
        // The five warm regions of `tests/goldens.rs`: non-dyadic
        // constants, a box that skips most lanes and one that skips half.
        let dist2 = "(x - 7/16)*(x - 7/16) + (y - 9/16)*(y - 9/16)";
        let regions = [
            ("disk", format!("{dist2} <= 1/36")),
            ("annulus", format!("{dist2} <= 1/49 & {dist2} >= 1/196")),
            (
                "boxed",
                format!("{dist2} <= 1/100 & 5/16 <= x & x <= 9/16 & 7/16 <= y & y <= 11/16"),
            ),
            (
                "half",
                format!("{dist2} + (z - 8/16)*(z - 8/16) <= 1/36 & z <= 8/16"),
            ),
            ("fifth", format!("{dist2} <= 1/25")),
        ];
        let e = engine();
        let mut s = e.open_session();
        let mut warm = Vec::new();
        for (name, src) in &regions {
            assert!(e.prepare(&mut s, name, src).is_ok(), "{name}");
            assert!(e.exec(&mut s, name, None, None).is_ok(), "{name}");
            let Ok(w) = e.exec_fast(&s, name, 0.01, 0.01) else {
                panic!("{name} is not warm");
            };
            warm.push(w);
        }
        let counters = |e: &Engine| {
            let st = &e.stats;
            [
                EngineStats::get(&st.batch_fast_lanes),
                EngineStats::get(&st.batch_exact_lanes),
                EngineStats::get(&st.absint_box_skipped_lanes),
                EngineStats::get(&st.mc_streams),
                EngineStats::get(&st.mc_sampled_lanes),
            ]
        };
        for dim in [2, 3] {
            let entries: Vec<&CacheEntry> = warm
                .iter()
                .filter(|w| w.dim == dim)
                .map(|w| &*w.entry)
                .collect();
            let samples = warm[0].acc.samples;
            let sweep = |parts: usize| {
                let before = counters(&e);
                let mut hits = vec![0; entries.len()];
                for lanes in lane_parts(samples, parts) {
                    for (sum, h) in hits.iter_mut().zip(e.mc_over_kernels(&entries, dim, lanes)) {
                        *sum += h;
                    }
                }
                let after = counters(&e);
                (hits, [0, 1, 2, 3, 4].map(|i| after[i] - before[i]))
            };
            let one = sweep(1);
            assert_eq!(one.1[3..], [1, samples as u64]);
            for parts in [2, 3, 7, 64] {
                assert_eq!(sweep(parts), one, "dim {dim}, {parts} parts");
            }
        }
    }

    #[test]
    fn an_evicted_memo_counts_one_miss() {
        // One lock domain too small for two entries: each insert evicts
        // the other query.
        let e = Engine::new(EngineConfig {
            cache_bytes: 1,
            cache_shards: 1,
            ..EngineConfig::default()
        });
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "a", "0 <= x & x <= 1/2").is_ok());
        assert!(e.prepare(&mut s, "b", "0 <= x & x <= 1/4").is_ok());
        assert!(e.exec(&mut s, "a", None, None).is_ok());
        assert!(e.exec(&mut s, "b", None, None).is_ok());
        let before = e.cache.snapshot();
        assert!(before.evictions >= 1, "{before:?}");
        let r = e.exec(&mut s, "a", None, None);
        assert!(r.header.contains("value=1/2 cache=miss"), "{r:?}");
        let after = e.cache.snapshot();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
        // So does a BATCH spec: `b` was evicted just now.
        let r = e.batch(&mut s, "b\n");
        assert!(r.body[0].contains("value=1/4 cache=miss"), "{r:?}");
        assert_eq!(e.cache.snapshot().misses, after.misses + 1);
    }

    #[test]
    fn sample_counts_past_the_cap_are_refused_before_the_cache() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "d", "x*x + y*y < 1/4").is_ok());
        let disk = |e: &Engine, s: &mut Session, eps: f64, delta: f64| {
            e.exec(s, "d", Some(eps), Some(delta)).header
        };
        // The answer this query had before the cap existed, byte for byte.
        let golden = "OK EXEC d status=approx value=1716/8831 eps=0.01 delta=0.01 \
                      samples=26493 reason=nonlinear cache=miss steps=0";
        assert_eq!(disk(&e, &mut s, 0.01, 0.01), golden);
        let lookups = |e: &Engine| {
            let c = e.cache.snapshot();
            c.hits + c.misses
        };
        // 0.00005 used to sweep 277 258 874 lanes for seconds past any
        // timeout; 1e-200 squares to 0, wrapped the count to 0 and panicked.
        for (eps, count) in [(0.00005, "277258874"), (1e-200, "inf")] {
            let before = lookups(&e);
            let t0 = Instant::now();
            let r = disk(&e, &mut s, eps, 0.5);
            assert!(t0.elapsed() < Duration::from_secs(5), "{r}");
            assert!(r.starts_with("ERR exec eps/delta "), "{r}");
            assert!(
                r.ends_with(&format!(
                    "need {count} samples, over the cap of {MAX_SAMPLES}"
                )),
                "{r}"
            );
            assert_eq!(lookups(&e), before, "refused before any cache lookup");
            assert_eq!(disk(&e, &mut s, 0.01, 0.01), golden.replace("miss", "hit"));
        }
        // The count on the cap is still answered.
        assert_eq!(Engine::sample_count(0.000_3, 0.5), Ok(7_701_637));
        assert!(Engine::sample_count(0.000_2, 0.5).is_err());
        // VOLUME samples at the configured defaults, held to the same cap.
        let tiny = Engine::new(EngineConfig {
            default_eps: 0.000_01,
            ..EngineConfig::default()
        });
        let mut t = tiny.open_session();
        let r = tiny.volume(&mut t, "x > 1/2");
        assert!(r.header.contains("over the cap"), "{r:?}");
    }

    /// A Hörmander derivation that nests deeper than a worker's stack holds
    /// (≈ 7 MiB for this sentence) trips the depth cap: `ERR budget`, and
    /// the same engine answers the next request.
    #[test]
    fn a_derivation_too_deep_for_the_stack_answers_err_budget() {
        let deep = "exists y. exists z. ((-3*y*y - 3*z + 2*y = 1) & (-z*z < -3) | (2*y*y - z = 0))";
        std::thread::Builder::new()
            .stack_size(cqa_logic::REQUEST_STACK_BYTES)
            .spawn(move || {
                let e = engine();
                let mut s = e.open_session();
                let mut volume = |query: &str| {
                    let query = query.to_string();
                    e.dispatch(&mut s, Command::Volume { query })
                };
                let r = volume(deep);
                assert!(r.header.starts_with("ERR budget"), "{r:?}");
                assert!(r.header.contains("nesting limit"), "{r:?}");
                let next = volume("x > 1/2");
                assert_eq!(answer_of(&next.header), "status=exact value=1/2");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_nesting_answers_err_parse_and_the_server_lives_on() {
        let n = cqa_logic::MAX_NESTING;
        let at_cap = [
            format!("{}x > 1/2{}", "(".repeat(n), ")".repeat(n)),
            format!("{}x{} > 1/2", "(".repeat(n), ")".repeat(n)),
            format!("{}x > 1/2", "!".repeat(n)),
            format!("{}x > 1/2", "- ".repeat(n)),
            (1..=n)
                .map(|i| format!("exists y{i}. "))
                .collect::<String>()
                + "x > 1/2",
            "x > 1/2 -> ".repeat(n) + "x > 1/2",
        ];
        let probes = [
            format!("{}x > 1/2{}", "(".repeat(1_000), ")".repeat(1_000)),
            format!("{}x > 1/2", "(".repeat(1_000)),
            (1..=2_000)
                .map(|i| format!("exists y{i}. "))
                .collect::<String>()
                + "x > 1/2",
            format!("{}x > 1/2", "!".repeat(2_000)),
            "x > 1/2 -> ".repeat(2_000) + "x > 1/2",
        ];
        // A server worker's stack: the parser used to overflow it.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let e = engine();
                let mut s = e.open_session();
                let mut volume = |query: &str| {
                    let query = query.to_string();
                    e.dispatch(&mut s, Command::Volume { query })
                };
                for q in &at_cap {
                    let r = volume(q);
                    assert!(
                        r.is_ok() || r.header.starts_with("ERR budget"),
                        "{}: {r:?}",
                        &q[..20]
                    );
                }
                for q in &probes {
                    let r = volume(q);
                    assert!(r.header.starts_with("ERR parse"), "{}: {r:?}", &q[..20]);
                    assert!(r.header.contains("nesting deeper than 128"), "{r:?}");
                    let next = volume("x > 1/2");
                    assert_eq!(answer_of(&next.header), "status=exact value=1/2");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn sentence_queries_use_counting_measure() {
        let e = engine();
        let mut s = e.open_session();
        assert!(e.prepare(&mut s, "yes", "exists x. x > 3").is_ok());
        let r = e.exec(&mut s, "yes", None, None);
        assert!(r.header.contains("status=exact value=1"), "{r:?}");
    }

    #[test]
    fn stats_report_covers_cache_and_latency() {
        let e = engine();
        let mut s = e.open_session();
        e.prepare(&mut s, "q", "0 <= x & x <= 1");
        e.dispatch(
            &mut s,
            Command::Exec {
                name: "q".into(),
                eps: None,
                delta: None,
            },
        );
        let r = e.render_stats();
        assert!(r.is_ok());
        let body = r.body.join("\n");
        assert!(body.contains("cache entries=1"), "{body}");
        assert!(body.contains("latency EXEC"), "{body}");
        assert!(body.contains("ir nodes="), "{body}");
        assert!(body.contains("kernel fast_lanes="), "{body}");
        // The EXEC went through dispatch, so the session's arena growth
        // was flushed into the engine-wide aggregates.
        assert!(EngineStats::get(&e.stats.ir_nodes) > 0);
        assert!(EngineStats::get(&e.stats.ir_intern_calls) >= EngineStats::get(&e.stats.ir_nodes));
    }

    #[test]
    fn stats_ir_counters_see_the_analysis_gate() {
        // The gate interns into the session's one arena, so a session that
        // only LOADs and PREPAREs already reports IR nodes.
        let e = engine();
        let mut s = e.open_session();
        let nodes = || EngineStats::get(&e.stats.ir_nodes);
        let program = Some(PROGRAM.to_string());
        assert!(e.dispatch(&mut s, Command::Load { program }).is_ok());
        let after_load = nodes();
        assert!(after_load > 0);
        let (name, query) = ("q".to_string(), "S(x) & x <= 1".to_string());
        assert!(e.dispatch(&mut s, Command::Prepare { name, query }).is_ok());
        assert!(nodes() > after_load, "{after_load} → {}", nodes());
        let stats = e.render_stats().body.join("\n");
        assert!(stats.contains(&format!("ir nodes={} ", nodes())), "{stats}");
    }
}
