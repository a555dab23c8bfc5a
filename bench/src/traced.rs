//! The `--trace 1` run: a short wire pass of fixed rounds, the same rounds
//! through `Engine::dispatch` and through the staged replay, and the
//! per-layer metrics read off them.

use crate::gen::Plan;
use crate::replay::{DispatchReplay, Outcome, StagedReplay};
use crate::stats::{percentile_sorted, pool_undisturbed};
use crate::trace::{self_times, write_jsonl, Tracer};
use crate::wire::{self, Tally};
use crate::Metric;
use cqa_arith::Rat;
use cqa_engine::{parse_command, read_response};
use cqa_logic::{parse_formula, Batch, BatchScratch, CompiledMatrix, SlotMap, BATCH_LANES};
use cqa_poly::{isolate_real_roots, UPoly};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Rounds of the traced run, the same for every pass.
const TRACED_ROUNDS: usize = 20;

/// Where the spans go: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The layer a span name belongs to in the share table: the name up to its
/// second dot (`logic.ir.intern` → `logic.ir`).
fn layer(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

/// Median time of `f` in nanoseconds over repetitions filling about 30 ms.
fn canary_ns(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 30 || times.len() < 5 {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&times)
}

/// `arith.rat_dot_ns`: one multiply-add of a fixed dot product of
/// single-limb rationals.
fn rat_dot_ns() -> f64 {
    // Power-of-two denominators keep the running sum in one limb too.
    const N: i64 = 64;
    let a: Vec<Rat> = (1..=N)
        .map(|i| Rat::new((3 * i + 1).into(), 8.into()))
        .collect();
    let b: Vec<Rat> = (1..=N)
        .map(|i| Rat::new((5 * i - 2).into(), 16.into()))
        .collect();
    canary_ns(|| {
        let mut acc = Rat::zero();
        for (x, y) in a.iter().zip(&b) {
            acc += x.clone() * y.clone();
        }
        black_box(acc);
    }) / N as f64
}

/// `poly.sturm_isolate_us`: real-root isolation of a fixed sextic with four
/// rational and two irrational roots.
fn sturm_isolate_us() -> f64 {
    // (x − 1)(x − 2)(x − 3)(2x + 1)(x² − 2)
    let p = UPoly::from_ints(&[12, 2, -38, 21, 12, -11, 2]);
    assert_eq!(
        isolate_real_roots(&p).len(),
        6,
        "the sextic has six real roots"
    );
    canary_ns(|| {
        black_box(isolate_real_roots(black_box(&p)));
    }) / 1e3
}

/// `logic.kernel.exact_ns_per_lane`: the batch kernel on E17's columns,
/// where every sample sits on the boundary `x + y = 1` and every lane
/// falls back to exact arithmetic.
fn kernel_exact_ns_per_lane() -> f64 {
    let (f, vars) = parse_formula("x + y <= 1").expect("parses");
    let vs = [vars.get("x").expect("x"), vars.get("y").expect("y")];
    let kernel = CompiledMatrix::compile(&f, &SlotMap::from_vars(&vs)).expect("compiles");
    let mut batch = Batch::new(2);
    batch.set_len(BATCH_LANES);
    for lane in 0..BATCH_LANES {
        let x = lane as f64 / BATCH_LANES as f64;
        batch.col_mut(0)[lane] = x;
        batch.col_mut(1)[lane] = 1.0 - x;
    }
    let mut scratch = BatchScratch::new();
    let b = &batch;
    let exact = |lane: usize, slot: usize| Rat::from_f64(b.value(slot, lane)).expect("finite");
    let r = kernel.eval_batch(b, &exact, &mut scratch);
    assert_eq!(
        r.mask.count(),
        BATCH_LANES,
        "every boundary lane satisfies <="
    );
    canary_ns(|| {
        black_box(kernel.eval_batch(b, &exact, &mut scratch).mask.count());
    }) / BATCH_LANES as f64
}

/// Parse, render and re-read every frame of the rounds: the protocol
/// layer's share of a request, in nanoseconds over all frames.
fn protocol_ns(plan: &Plan, rounds: &[Vec<usize>], responses: &[cqa_engine::Response]) -> u64 {
    let frames = rounds.iter().flatten().map(|&i| &plan.pool[i]);
    let t = Instant::now();
    for (req, resp) in frames.zip(responses) {
        let line = req.text.lines().next().expect("a command line");
        black_box(parse_command(line)).expect("parses");
        let mut bytes = Vec::with_capacity(128);
        resp.write_to(&mut bytes).expect("writes to memory");
        black_box(read_response(&mut &bytes[..])).expect("reads back");
    }
    t.elapsed().as_nanos() as u64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced passes and returns the per-layer metrics.
pub fn run(plan: &mut Plan) -> io::Result<(Vec<Metric>, Tally)> {
    let workload = plan.workload;
    let rounds: Vec<Vec<usize>> = (0..TRACED_ROUNDS).map(|_| plan.next_round()).collect();
    let ops: u64 = rounds
        .iter()
        .flatten()
        .map(|&i| u64::from(plan.pool[i].ops))
        .sum();

    // Pass 1: over the wire.
    let mut wire_run = wire::run(plan, 0.0, Some(&rounds))?;
    let mut tally = std::mem::take(&mut wire_run.tally);
    // The median frame of the undisturbed rounds, here and through
    // `Engine::dispatch` below: the difference of two medians is the
    // network's share only if the machine ran both at one speed.
    let mut quiet = pool_undisturbed(&wire_run.round_walls_s, &wire_run.latencies_ns);
    quiet.sort_unstable();
    let wire_p50 = f64::from(percentile_sorted(&quiet, 50.0)) / 1e3;
    wire_run.latencies_ns.sort_unstable();
    let wire_p99 = f64::from(percentile_sorted(&wire_run.latencies_ns, 99.0)) / 1e3;
    let c = wire_run.counters;

    // Passes 2 to 4, round by round so that a slow phase of the machine
    // falls on all three alike: Engine::dispatch, the staged replay without
    // spans, the staged replay with them.
    let cfg = wire::engine_config();
    let fail = |e: String| io::Error::other(format!("staged replay: {e}"));
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let mut dispatched = DispatchReplay::new(plan, &cfg);
    let mut untraced = StagedReplay::new(plan, &cfg, &off).map_err(fail)?;
    let mut staged = StagedReplay::new(plan, &cfg, &on).map_err(fail)?;
    for (n, round) in rounds.iter().enumerate() {
        if workload.is_cold() && n > 0 {
            dispatched.reboot();
            untraced.reboot().map_err(fail)?;
            staged.reboot().map_err(fail)?;
        }
        dispatched.round(round);
        untraced.round(round).map_err(fail)?;
        staged.round(round).map_err(fail)?;
    }
    let mut frame_ns = pool_undisturbed(&dispatched.round_walls_s, &dispatched.frame_ns);
    frame_ns.sort_unstable();
    let dispatch_p50_us = percentile_sorted(&frame_ns, 50.0) as f64 / 1e3;
    let tracer = on.borrow();
    let spans = &tracer.spans;

    // Fidelity: the replay answers what Engine::dispatch answers.
    let want: Vec<Vec<Outcome>> = dispatched
        .responses
        .iter()
        .map(Outcome::of_response)
        .collect();
    for (n, (got, want)) in staged.outcomes.iter().zip(&want).enumerate() {
        tally.attempted += 1;
        if got != want {
            tally.failed += 1;
            if tally.reasons.len() < 5 {
                tally.reasons.push(format!(
                    "frame {n}: staged replay {got:?}, dispatch {want:?}"
                ));
            }
        }
    }

    // Self time per span name: over the round frames for the per-operation
    // metrics, over set-up as well for the statement-loading rate.
    let by_name = self_times(spans, |s| staged.is_round[s.request as usize]);
    let all_by_name = self_times(spans, |_| true);
    let self_ns = |name: &str| by_name.get(name).map_or(0, |v| v.0);
    let calls = |name: &str| by_name.get(name).map_or(0, |v| v.1);
    let us_per_op = |name: &str| self_ns(name) as f64 / 1e3 / ops as f64;
    let staged_ns: u64 = by_name
        .iter()
        .filter(|(name, _)| **name != "engine.dispatch")
        .map(|(_, v)| v.0)
        .sum();

    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace_{}.jsonl", workload.name());
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    write_jsonl(spans, &mut file)?;
    io::Write::flush(&mut file)?;
    eprintln!("cqa-e2e: {} spans written to {path}", spans.len());

    // The layer-share table.
    let mut shares: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, (ns, _)) in &by_name {
        *shares.entry(layer(name)).or_default() += ns;
    }
    let total: u64 = shares.values().sum();
    println!("layer shares of traced self time, {}:", workload.name());
    let mut rows: Vec<_> = shares.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in rows {
        println!("  {name:<18} {:>6.2} %", 100.0 * ns as f64 / total as f64);
    }

    let coverage = staged_ns as f64 / dispatched.total_ns as f64;
    if workload.is_cold() && coverage < 0.9 {
        tally.failed += 1;
        tally
            .reasons
            .push(format!("trace.coverage {coverage:.3} is below 0.9"));
    }
    let lanes = c.fast_lanes + c.exact_lanes;
    let load = all_by_name.get("analyze.load").map_or(0, |v| v.0);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("engine.net.us_per_op", wire_p50 - dispatch_p50_us, "us"),
        m(
            "engine.protocol.us_per_op",
            protocol_ns(plan, &rounds, &dispatched.responses) as f64 / 1e3 / ops as f64,
            "us",
        ),
        m(
            "engine.cache.get_ns",
            ratio(self_ns("engine.cache.get"), calls("engine.cache.get")),
            "ns",
        ),
        m(
            "engine.cache.insert_us",
            ratio(self_ns("engine.cache.insert"), calls("engine.cache.insert")) / 1e3,
            "us",
        ),
        m(
            "engine.cache.hit_rate",
            ratio(c.hits, c.hits + c.misses),
            "ratio",
        ),
        m("engine.cache.evictions", c.evictions as f64, "count"),
        m("engine.cache.bytes", c.cache_bytes as f64, "B"),
        m(
            "engine.dispatch.us_per_op",
            dispatched.total_ns as f64 / 1e3 / ops as f64,
            "us",
        ),
        m(
            "engine.cpu_us_per_op",
            tally.round_cpu_s * 1e6 / ops as f64,
            "us",
        ),
        m("engine.lat_p99_us", wire_p99, "us"),
        m(
            "engine.approx_frac",
            ratio(tally.approx, tally.execs),
            "ratio",
        ),
        m(
            "engine.budget.steps_per_op",
            ratio(tally.steps, tally.round_ops),
            "count",
        ),
        m(
            "approx.samples_per_op",
            ratio(tally.samples, tally.round_ops),
            "count",
        ),
        m("logic.parser.us_per_op", us_per_op("logic.parser"), "us"),
        m("core.expand.us_per_op", us_per_op("core.expand"), "us"),
        m(
            "logic.ir.intern_us_per_op",
            us_per_op("logic.ir.intern"),
            "us",
        ),
        m("logic.ir.key_us_per_op", us_per_op("logic.ir.key"), "us"),
        m(
            "logic.ir.extern_us_per_op",
            us_per_op("logic.ir.extern"),
            "us",
        ),
        m(
            "logic.ir.extern_calls_per_op",
            ratio(calls("logic.ir.extern"), ops),
            "count",
        ),
        m(
            "logic.ir.nodes",
            ratio(c.ir_nodes, TRACED_ROUNDS as u64),
            "count",
        ),
        m("qe.simplify.us_per_op", us_per_op("qe.simplify"), "us"),
        m(
            "analyze.absint.us_per_op",
            us_per_op("analyze.absint"),
            "us",
        ),
        m(
            "analyze.absint.skip_rate",
            ratio(c.unsat_skips + c.valid_skips, c.misses),
            "ratio",
        ),
        m(
            "analyze.absint.box_skipped_lane_frac",
            ratio(c.box_skipped_lanes, lanes + c.box_skipped_lanes),
            "ratio",
        ),
        m("qe.plan.us_per_op", us_per_op("qe.plan"), "us"),
        m(
            "qe.plan.subplan_hit_rate",
            ratio(c.subplan_hits, c.subplan_hits + c.subplan_misses),
            "ratio",
        ),
        m(
            "qe.eliminate_lin.us_per_op",
            us_per_op("qe.eliminate_lin"),
            "us",
        ),
        m(
            "qe.out_atoms_per_op",
            ratio(staged.counts.out_atoms, ops),
            "count",
        ),
        m("qe.hoermander.us_per_op", us_per_op("qe.hoermander"), "us"),
        m("logic.compile.us_per_op", us_per_op("logic.compile"), "us"),
        m("geom.volume.us_per_op", us_per_op("geom.volume"), "us"),
        m("agg.sum.us_per_op", us_per_op("agg.sum"), "us"),
        m(
            "approx.sample.ns_per_lane",
            ratio(self_ns("approx.sample"), staged.counts.sampled_lanes),
            "ns",
        ),
        m(
            "logic.kernel.ns_per_lane",
            ratio(self_ns("logic.kernel"), staged.counts.kernel_lanes),
            "ns",
        ),
        m(
            "logic.kernel.fallback_rate",
            ratio(c.exact_lanes, lanes),
            "ratio",
        ),
        m("arith.rat_dot_ns", rat_dot_ns(), "ns"),
        m("poly.sturm_isolate_us", sturm_isolate_us(), "us"),
        m(
            "logic.kernel.exact_ns_per_lane",
            kernel_exact_ns_per_lane(),
            "ns",
        ),
        m(
            "analyze.load.us_per_stmt",
            ratio(load, staged.statements) / 1e3,
            "us",
        ),
        m("trace.coverage", coverage, "ratio"),
        m(
            "trace.overhead_frac",
            staged.total_ns as f64 / untraced.total_ns as f64 - 1.0,
            "ratio",
        ),
    ];
    Ok((metrics, tally))
}
