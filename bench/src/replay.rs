//! The in-process replays of the traced run.
//!
//! The same rounds go through the engine three ways. Over the wire, for the
//! wire-side numbers. Through [`Engine::dispatch`], for what a request costs
//! without the network. And through the *staged replay* here, which calls
//! the same public functions in the order `Engine::answer` does with a span
//! around each call — the benchmark times every layer from outside; spans
//! inside the engine are a later change. The staged replay must give the
//! same `status`, `value` and `samples` as `Engine::dispatch` for every
//! request, or the run fails.

use crate::check::field;
use crate::gen::{Plan, Request};
use crate::trace::{span, Tracer};
use cqa_analyze::{analyze_source, AbsintMemo, AnalyzerConfig, Statement, SumStmt, Verdict};
use cqa_approx::sample::Witness;
use cqa_arith::Rat;
use cqa_core::Database;
use cqa_engine::{
    parse_command, CacheEntry, CacheKey, Command, Engine, EngineConfig, Response, Session, MC_SEED,
};
use cqa_geom::VolumeError;
use cqa_logic::budget::EvalBudget;
use cqa_logic::{
    parse_formula_with, Arena, Batch, BatchScratch, CompiledMatrix, ConstraintClass, Formula,
    LaneStats, SlotMap, BATCH_LANES,
};
use cqa_poly::Var;
use cqa_qe::plan::{Method, PlanInputs, SubplanStore};
use cqa_qe::{QeError, SimplifyMemo};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The command a request frame carries, body attached — what the reactor
/// hands a worker.
pub fn frame_command(text: &str) -> Command {
    let (line, rest) = text.split_once('\n').expect("a frame ends its line");
    let body = || rest.strip_suffix(".\n").expect("a body ends with a dot");
    match parse_command(line).expect("generated frames parse") {
        Command::Load { program: None } => Command::Load {
            program: Some(body().to_string()),
        },
        Command::Batch { specs: None } => Command::Batch {
            specs: Some(body().to_string()),
        },
        cmd => cmd,
    }
}

/// What an `EXEC` answered, as far as the two replays must agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub status: String,
    pub value: String,
    pub samples: Option<String>,
}

impl Outcome {
    /// Reads the outcome off an `EXEC` header (a response header or a
    /// `BATCH` payload line).
    pub fn of_header(h: &str) -> Option<Outcome> {
        Some(Outcome {
            status: field(h, "status")?.to_string(),
            value: field(h, "value")?.to_string(),
            samples: field(h, "samples").map(str::to_string),
        })
    }

    /// The `EXEC` outcomes of a response, in order.
    pub fn of_response(resp: &Response) -> Vec<Outcome> {
        if resp.header.starts_with("OK BATCH") {
            resp.body
                .iter()
                .filter_map(|l| Self::of_header(l))
                .collect()
        } else {
            Self::of_header(&resp.header).into_iter().collect()
        }
    }
}

/// The rounds through `Engine::dispatch`: per-frame and per-round times,
/// the responses (for the protocol timing and the fidelity check) and the
/// total time of the round frames.
pub struct DispatchReplay<'a> {
    plan: &'a Plan,
    cfg: &'a EngineConfig,
    state: (Engine, Session),
    pub frame_ns: Vec<u64>,
    pub round_walls_s: Vec<f64>,
    pub responses: Vec<Response>,
    pub total_ns: u64,
}

impl<'a> DispatchReplay<'a> {
    /// A fresh engine and session with the plan's set-up frames run
    /// (untimed).
    fn boot(plan: &Plan, cfg: &EngineConfig) -> (Engine, Session) {
        let engine = Engine::new(cfg.clone());
        let mut session = engine.open_session();
        for req in &plan.setup {
            engine.dispatch(&mut session, frame_command(&req.text));
        }
        (engine, session)
    }

    pub fn new(plan: &'a Plan, cfg: &'a EngineConfig) -> DispatchReplay<'a> {
        DispatchReplay {
            plan,
            cfg,
            state: Self::boot(plan, cfg),
            frame_ns: Vec::new(),
            round_walls_s: Vec::new(),
            responses: Vec::new(),
            total_ns: 0,
        }
    }

    /// Replaces engine and session by fresh ones, as a cold round does.
    pub fn reboot(&mut self) {
        self.state = Self::boot(self.plan, self.cfg);
    }

    pub fn round(&mut self, round: &[usize]) {
        let (engine, session) = &mut self.state;
        let before = self.total_ns;
        for &i in round {
            let cmd = frame_command(&self.plan.pool[i].text);
            let t = Instant::now();
            let resp = engine.dispatch(session, cmd);
            let ns = t.elapsed().as_nanos() as u64;
            self.frame_ns.push(ns);
            self.total_ns += ns;
            self.responses.push(resp);
        }
        self.round_walls_s
            .push((self.total_ns - before) as f64 / 1e9);
    }
}

/// Counts the staged replay makes where the work happens.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StagedCounts {
    /// Statements the analyzer went through (`LOAD` and `PREPARE`).
    pub statements: u64,
    /// Lanes drawn by the sampler and lanes the kernel evaluated.
    pub sampled_lanes: u64,
    pub kernel_lanes: u64,
    /// Atoms of the quantifier-free forms that elimination produced.
    pub out_atoms: u64,
}

/// A prepared query of the replay session (the engine's `Prepared`).
#[derive(Clone)]
struct Prepared {
    src: String,
    params: Vec<String>,
    memo: Option<(u64, CacheKey)>,
}

/// A quantifier block's eliminated form and the parameters it is stored under.
type Block = (Formula, Vec<Var>);

/// Quantifier-block results by canonical hash. The engine keeps these in
/// `QueryCache::{get,insert}_subplan`, but the entry type those take is not
/// exported, so the replay keeps them in a map of its own and times it
/// under the same layer name.
struct Subplans<'a> {
    tracer: &'a RefCell<Tracer>,
    map: RefCell<HashMap<(u128, u32), Block>>,
}

impl SubplanStore for Subplans<'_> {
    fn lookup(&self, hash: u128, dim: u32) -> Option<Block> {
        span(self.tracer, "engine.cache.subplan", || {
            self.map.borrow().get(&(hash, dim)).cloned()
        })
    }

    fn store(&self, hash: u128, dim: u32, qf: &Formula, params: &[Var]) {
        span(self.tracer, "engine.cache.subplan", || {
            self.map
                .borrow_mut()
                .insert((hash, dim), (qf.clone(), params.to_vec()));
        })
    }
}

/// The engine's estimate of a formula's resident size (`formula_bytes`,
/// which the engine does not export).
fn formula_bytes(f: &Formula) -> usize {
    let mut bytes = 0usize;
    f.visit(&mut |g| {
        bytes += 48;
        if let Formula::Atom(a) = g {
            bytes += 96 * a.poly.num_terms().max(1);
        }
    });
    bytes
}

/// The staged replay: the state of one engine and one session, and the
/// public functions of every layer called in `Engine`'s order.
pub struct Staged<'a> {
    tracer: &'a RefCell<Tracer>,
    /// Only its configuration, its cache and its request budget are used:
    /// every command is carried out by the functions below.
    engine: Engine,
    subplans: Subplans<'a>,
    loaded_src: String,
    db: Database,
    db_gen: u64,
    sums: HashMap<String, SumStmt>,
    prepared: HashMap<String, Prepared>,
    arena: Arena,
    simp: SimplifyMemo,
    absint: AbsintMemo,
    pub counts: StagedCounts,
    sampled: Cell<u64>,
    swept: Cell<u64>,
}

impl<'a> Staged<'a> {
    pub fn new(tracer: &'a RefCell<Tracer>, cfg: &EngineConfig) -> Staged<'a> {
        Staged {
            tracer,
            engine: Engine::new(cfg.clone()),
            subplans: Subplans {
                tracer,
                map: RefCell::new(HashMap::new()),
            },
            loaded_src: String::new(),
            db: Database::default(),
            db_gen: 0,
            sums: HashMap::new(),
            prepared: HashMap::new(),
            arena: Arena::new(),
            simp: SimplifyMemo::default(),
            absint: AbsintMemo::new(),
            counts: StagedCounts::default(),
            sampled: Cell::new(0),
            swept: Cell::new(0),
        }
    }

    /// Runs one frame under a root span and returns the `EXEC` outcomes it
    /// produced (none for `LOAD`, `PREPARE` and `SUM`).
    pub fn run(&mut self, req: &Request) -> Result<Vec<Outcome>, String> {
        let tracer = self.tracer;
        tracer.borrow_mut().next_request();
        let out = span(tracer, "engine.dispatch", || {
            match frame_command(&req.text) {
                Command::Load { program } => self.load(&program.expect("body")).map(|()| vec![]),
                Command::Prepare { name, query } => self.prepare(&name, &query).map(|()| vec![]),
                Command::Exec { name, eps, delta } => self.exec(&name, eps, delta).map(|o| vec![o]),
                Command::Batch { specs } => specs
                    .expect("body")
                    .lines()
                    .map(|line| {
                        let mut p = line.split_whitespace();
                        let name = p.next().ok_or("empty BATCH spec")?;
                        let mut num = || p.next().map(|t| t.parse::<f64>().expect("numeric"));
                        let (eps, delta) = (num(), num());
                        self.exec(name, eps, delta)
                    })
                    .collect(),
                Command::Sum { name } => self.sum(&name).map(|_| vec![]),
                other => Err(format!("the workloads send no {other:?}")),
            }
        });
        self.counts.sampled_lanes = self.sampled.get();
        self.counts.kernel_lanes = self.swept.get();
        out
    }

    /// `Engine::load`: analyse the accumulated source, rebuild the database.
    fn load(&mut self, src: &str) -> Result<(), String> {
        let mut candidate = self.loaded_src.clone();
        candidate.push_str(src);
        if !candidate.ends_with('\n') {
            candidate.push('\n');
        }
        let (program, db) = span(self.tracer, "analyze.load", || {
            let (program, analysis) = analyze_source(&candidate, &AnalyzerConfig::default());
            if analysis.has_errors() {
                return Err("LOAD rejected by the analyzer".to_string());
            }
            let db = program.to_database()?;
            Ok((program, db))
        })?;
        self.counts.statements += program.statements.len() as u64;
        self.sums.clear();
        for stmt in &program.statements {
            if let Statement::Sum(s) = stmt {
                self.sums.insert(s.name.clone(), s.clone());
            }
        }
        self.db = db;
        self.db_gen += 1;
        self.loaded_src = candidate;
        Ok(())
    }

    /// `Engine::prepare`: probe-parse, run the analyzer gate on the session
    /// source plus the query, plan for the `plan=` tag, store the query.
    fn prepare(&mut self, name: &str, query: &str) -> Result<(), String> {
        let mut probe = self.db.vars().clone();
        let f = span(self.tracer, "logic.parser", || {
            parse_formula_with(query, &mut probe)
        })
        .map_err(|e| e.to_string())?;
        let mut params: Vec<String> = f.free_vars().into_iter().map(|v| probe.name(v)).collect();
        params.sort();
        let mut candidate = self.loaded_src.clone();
        candidate.push_str(&format!(
            "query __prep_{name}({}) := {query}\n",
            params.join(", ")
        ));
        let analysis = span(self.tracer, "analyze.load", || {
            analyze_source(&candidate, &AnalyzerConfig::default()).1
        });
        if analysis.has_errors() {
            return Err(format!("PREPARE {name} rejected by the analyzer"));
        }
        self.counts.statements += analysis.reports.len() as u64;
        if let Ok(expanded) = span(self.tracer, "core.expand", || self.db.expand(&f)) {
            span(self.tracer, "qe.plan", || {
                let inputs = analysis
                    .reports
                    .last()
                    .and_then(|r| {
                        r.cost
                            .as_ref()
                            .map(|c| cqa_analyze::planner_inputs(&r.fragment, c))
                    })
                    .unwrap_or_else(|| PlanInputs::measure(&expanded));
                cqa_qe::plan::plan(&expanded, &inputs).describe()
            });
        }
        self.prepared.insert(
            name.to_string(),
            Prepared {
                src: query.to_string(),
                params,
                memo: None,
            },
        );
        Ok(())
    }

    /// `Engine::sum`.
    fn sum(&mut self, name: &str) -> Result<String, String> {
        let stmt = self.sums.get(name).ok_or("no such sum")?;
        let budget = self.engine.request_budget();
        span(self.tracer, "agg.sum", || {
            stmt.to_sum_term().eval_with_budget(&self.db, &budget)
        })
        .map(|v| v.to_string())
        .map_err(|e| e.to_string())
    }

    /// `Engine::exec` and `Engine::answer`.
    fn exec(
        &mut self,
        name: &str,
        eps: Option<f64>,
        delta: Option<f64>,
    ) -> Result<Outcome, String> {
        let tracer = self.tracer;
        let prep = self
            .prepared
            .get(name)
            .ok_or_else(|| format!("no prepared query `{name}`"))?
            .clone();
        let eps = eps.unwrap_or(self.engine.cfg.default_eps);
        let delta = delta.unwrap_or(self.engine.cfg.default_delta);
        // The memoized-key fast path of a warm EXEC.
        if let Some((db_gen, key)) = prep.memo {
            if db_gen == self.db_gen {
                if let Some(entry) = span(tracer, "engine.cache.get", || self.engine.cache.get(key))
                {
                    let budget = self.engine.request_budget();
                    return self.eval_entry(&entry, key.dim as usize, eps, delta, &budget);
                }
            }
        }
        let f = span(tracer, "logic.parser", || {
            parse_formula_with(&prep.src, self.db.vars_mut())
        })
        .map_err(|e| e.to_string())?;
        let vars: Vec<Var> = prep
            .params
            .iter()
            .map(|p| self.db.vars_mut().intern(p))
            .collect();
        let budget = self.engine.request_budget();
        let expanded =
            span(tracer, "core.expand", || self.db.expand(&f)).map_err(|e| e.to_string())?;
        let fid = span(tracer, "logic.ir.intern", || self.arena.intern(&expanded));
        let sid = span(tracer, "qe.simplify", || {
            cqa_qe::simplify_id(&mut self.arena, fid, &mut self.simp)
        });
        let key = span(tracer, "logic.ir.key", || CacheKey {
            hash: self.arena.canonical_hash_for_params(sid, &vars),
            dim: vars.len() as u32,
        });
        if let Some(p) = self.prepared.get_mut(name) {
            p.memo = Some((self.db_gen, key));
        }
        let entry = match span(tracer, "engine.cache.get", || self.engine.cache.get(key)) {
            Some(e) => e,
            None => self.eliminate_and_insert(sid, key, &vars, &budget)?,
        };
        self.eval_entry(&entry, vars.len(), eps, delta, &budget)
    }

    /// The cold path of `Engine::answer`: abstract interpretation, plan,
    /// elimination, kernel compilation, cache insert.
    fn eliminate_and_insert(
        &mut self,
        sid: cqa_logic::FormulaId,
        key: CacheKey,
        vars: &[Var],
        budget: &EvalBudget,
    ) -> Result<Arc<CacheEntry>, String> {
        let tracer = self.tracer;
        let facts = span(tracer, "analyze.absint", || {
            cqa_analyze::analyze_id(&self.arena, sid, &mut self.absint)
        });
        let sid_class = self.arena.meta(sid).class;
        let skip_safe =
            sid_class != ConstraintClass::Polynomial || self.arena.meta(sid).quantifier_free;
        let static_qf = match facts.verdict {
            Verdict::Unsat if skip_safe => Some(Formula::False),
            Verdict::Valid if skip_safe => Some(Formula::True),
            _ => None,
        };
        let static_skip = static_qf.is_some();
        let mc_box = span(tracer, "analyze.absint", || {
            cqa_analyze::absint::unit_box(&facts.env, vars)
        });
        let qf = match static_qf {
            Some(qf) => qf,
            None => {
                let meta = self.arena.meta(sid);
                let mut inputs = PlanInputs {
                    atoms: meta.atom_count(),
                    quantifiers: meta.quantifiers,
                    pruned_atoms: None,
                    box_volume: None,
                    vc_bound: None,
                };
                span(tracer, "analyze.absint", || {
                    inputs.box_volume = Some(cqa_analyze::absint::box_volume(&facts.env, vars));
                    let pid = cqa_analyze::prune_id(
                        &mut self.arena,
                        sid,
                        &mut self.absint,
                        &mut self.simp,
                    );
                    inputs.pruned_atoms = Some(self.arena.meta(pid).atom_count());
                });
                let simplified = span(tracer, "logic.ir.extern", || self.arena.extern_formula(sid));
                let qeplan = span(tracer, "qe.plan", || {
                    cqa_qe::plan::plan(&simplified, &inputs)
                });
                let layer = match qeplan.method {
                    Method::Hoermander => "qe.hoermander",
                    Method::FourierMotzkin | Method::LoosWeispfenning => "qe.eliminate_lin",
                };
                let eliminated = span(tracer, layer, || {
                    cqa_qe::plan::eliminate_with_plan(
                        &simplified,
                        &qeplan,
                        budget,
                        &mut self.arena,
                        &self.subplans,
                    )
                });
                match eliminated {
                    Ok(qf) => qf,
                    Err(QeError::Budget(b)) => return Err(format!("QE over budget: {b}")),
                    Err(e) => return Err(e.to_string()),
                }
            }
        };
        self.counts.out_atoms += qf.atom_count() as u64;
        let qf_id = span(tracer, "logic.ir.intern", || self.arena.intern(&qf));
        let qf_id = span(tracer, "qe.simplify", || {
            cqa_qe::simplify_id(&mut self.arena, qf_id, &mut self.simp)
        });
        let kernel = span(tracer, "logic.compile", || {
            CompiledMatrix::compile_arena(&self.arena, qf_id, &SlotMap::from_vars(vars))
        })
        .map_err(|e| format!("eliminated matrix is not compilable: {e:?}"))?;
        let qf = span(tracer, "logic.ir.extern", || {
            self.arena.extern_formula(qf_id)
        });
        let class = if static_skip {
            sid_class
        } else {
            self.arena.meta(qf_id).class
        };
        let bytes = formula_bytes(&qf) + 64 * kernel.atom_count();
        Ok(span(tracer, "engine.cache.insert", || {
            self.engine.cache.insert(
                key,
                CacheEntry {
                    qf,
                    qf_vars: vars.to_vec(),
                    kernel,
                    class,
                    fragment: match class {
                        ConstraintClass::Polynomial => "FO+POLY",
                        _ => "FO+LIN",
                    },
                    bytes,
                    mc_box,
                },
            )
        }))
    }

    /// `Engine::eval_entry`: exact volume for a linear form, the sampled
    /// kernel sweep for a polynomial one.
    fn eval_entry(
        &self,
        entry: &Arc<CacheEntry>,
        dim: usize,
        eps: f64,
        delta: f64,
        budget: &EvalBudget,
    ) -> Result<Outcome, String> {
        if entry.class != ConstraintClass::Polynomial {
            let volume = span(self.tracer, "geom.volume", || {
                cqa_geom::volume_in_unit_box_with_budget(&entry.qf, &entry.qf_vars, budget)
            });
            match volume {
                Ok(v) => {
                    return Ok(Outcome {
                        status: "exact".into(),
                        value: v.to_string(),
                        samples: None,
                    })
                }
                Err(VolumeError::Budget(_)) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(self.mc_over_kernel(entry, dim, eps, delta))
    }

    /// `Engine::mc_over_kernel`: the same draws in the same order, the same
    /// box prefilter, the same kernel calls.
    fn mc_over_kernel(&self, entry: &CacheEntry, dim: usize, eps: f64, delta: f64) -> Outcome {
        let samples = crate::gen::hoeffding_samples(eps, delta);
        let mut w = Witness::new(MC_SEED);
        let mut batch = Batch::new(dim);
        let mut sub = Batch::new(dim);
        let mut keep: Vec<usize> = Vec::new();
        let mut scratch = BatchScratch::new();
        let mut hits = 0usize;
        let mut lanes = LaneStats::default();
        let mut done = 0usize;
        while done < samples {
            batch.set_len((samples - done).min(BATCH_LANES));
            span(self.tracer, "approx.sample", || {
                w.fill_unit_columns(&mut batch, 0, dim)
            });
            let swept = match entry.mc_box.as_deref() {
                Some(bx) => {
                    keep.clear();
                    keep.extend((0..batch.len()).filter(|&lane| {
                        (0..dim).all(|d| {
                            let v = batch.value(d, lane);
                            v >= bx[d].0 && v <= bx[d].1
                        })
                    }));
                    if keep.is_empty() {
                        None
                    } else if keep.len() == batch.len() {
                        Some(&batch)
                    } else {
                        sub.set_len(keep.len());
                        for d in 0..dim {
                            let col = sub.col_mut(d);
                            for (j, &lane) in keep.iter().enumerate() {
                                col[j] = batch.value(d, lane);
                            }
                        }
                        Some(&sub)
                    }
                }
                None => Some(&batch),
            };
            if let Some(b) = swept {
                let exact = |lane: usize, slot: usize| {
                    Rat::from_f64(b.value(slot, lane)).expect("finite sample coordinate")
                };
                let r = span(self.tracer, "logic.kernel", || {
                    entry.kernel.eval_batch(b, &exact, &mut scratch)
                });
                hits += r.mask.count();
                lanes.add(&r);
            }
            done += batch.len();
        }
        self.sampled.set(self.sampled.get() + samples as u64);
        self.swept.set(self.swept.get() + lanes.fast + lanes.exact);
        Outcome {
            status: "approx".into(),
            value: Rat::new((hits as i64).into(), (samples as i64).into()).to_string(),
            samples: Some(samples.to_string()),
        }
    }
}

/// The rounds through the staged replay, and what they add up to.
pub struct StagedReplay<'a> {
    plan: &'a Plan,
    cfg: &'a EngineConfig,
    tracer: &'a RefCell<Tracer>,
    staged: Staged<'a>,
    /// The `EXEC` outcomes of every round frame, in order.
    pub outcomes: Vec<Vec<Outcome>>,
    /// Counts over the round frames.
    pub counts: StagedCounts,
    /// Statements analysed over the whole pass, set-up included.
    pub statements: u64,
    /// Wall time of the round frames.
    pub total_ns: u64,
    /// By request number (from 1): whether the request was a round frame.
    pub is_round: Vec<bool>,
}

impl<'a> StagedReplay<'a> {
    pub fn new(
        plan: &'a Plan,
        cfg: &'a EngineConfig,
        tracer: &'a RefCell<Tracer>,
    ) -> Result<StagedReplay<'a>, String> {
        let mut replay = StagedReplay {
            plan,
            cfg,
            tracer,
            staged: Staged::new(tracer, cfg),
            outcomes: Vec::new(),
            counts: StagedCounts::default(),
            statements: 0,
            total_ns: 0,
            is_round: vec![false],
        };
        replay.set_up()?;
        Ok(replay)
    }

    fn set_up(&mut self) -> Result<(), String> {
        for req in &self.plan.setup {
            self.is_round.push(false);
            self.staged.run(req)?;
        }
        self.statements += self.staged.counts.statements;
        Ok(())
    }

    /// Replaces the replay's engine and session state by fresh ones, as a
    /// cold round does.
    pub fn reboot(&mut self) -> Result<(), String> {
        self.staged = Staged::new(self.tracer, self.cfg);
        self.set_up()
    }

    pub fn round(&mut self, round: &[usize]) -> Result<(), String> {
        let before = self.staged.counts;
        let t = Instant::now();
        for &i in round {
            self.is_round.push(true);
            self.outcomes.push(self.staged.run(&self.plan.pool[i])?);
        }
        self.total_ns += t.elapsed().as_nanos() as u64;
        let after = self.staged.counts;
        self.statements += after.statements - before.statements;
        self.counts.sampled_lanes += after.sampled_lanes - before.sampled_lanes;
        self.counts.kernel_lanes += after.kernel_lanes - before.kernel_lanes;
        self.counts.out_atoms += after.out_atoms - before.out_atoms;
        Ok(())
    }
}
