//! The transcript differential: seeded request scripts run through
//! [`Engine::dispatch`], every request and reply printed as it would cross
//! the wire.

use crate::corpus::{corpus_formula, lens_formula, SplitMix};
use crate::wire::tmpdir;
use cqa_engine::{parse_command, Command, Engine, EngineConfig, Session};
use std::io::Write;

/// What a script exercises; script `i` is of kind `i % 6`.
const KINDS: [&str; 6] = ["program", "poly", "budget", "preload", "persist", "probes"];

/// The transcript of `count` scripts drawn from `seed`. Script `i` runs on
/// fresh engines (a `persist` script on two, one after the other, over one
/// temporary data directory removed afterwards), serially, on one thread
/// of [`cqa_logic::REQUEST_STACK_BYTES`] as the server's workers are.
/// Nothing in it depends on time: no engine has a deadline, every script
/// has a step cap, and `STATS` is never sent.
pub fn transcript(seed: u64, count: u64) -> String {
    let run = move || {
        let mut out = Vec::new();
        for i in 0..count {
            let mut rng = SplitMix(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
            script(i, &mut rng, &mut out);
        }
        String::from_utf8(out).expect("replies are UTF-8")
    };
    std::thread::Builder::new()
        .stack_size(cqa_logic::REQUEST_STACK_BYTES)
        .spawn(run)
        .expect("spawn the transcript thread")
        .join()
        .expect("a script panicked")
}

/// One engine life: an engine, a session on it, and the transcript.
struct Life<'a> {
    engine: Engine,
    session: Session,
    out: &'a mut Vec<u8>,
}

impl<'a> Life<'a> {
    fn new(cfg: &EngineConfig, out: &'a mut Vec<u8>) -> Life<'a> {
        let engine = Engine::with_storage(cfg.clone()).expect("storage opens");
        let session = engine.open_session();
        Life {
            engine,
            session,
            out,
        }
    }

    /// Sends a request: its first line is the command line and, for `LOAD`
    /// and `BATCH`, the rest is the dot-terminated body.
    fn send(&mut self, request: &str) {
        let (line, body) = match request.split_once('\n') {
            Some((line, body)) => (line, Some(body.to_string())),
            None => (request, None),
        };
        for l in request.lines().chain(body.as_ref().map(|_| ".")) {
            writeln!(self.out, "> {l}").unwrap();
        }
        let cmd = match parse_command(line).expect(line) {
            Command::Load { program: None } => Command::Load { program: body },
            Command::Batch { specs: None } => Command::Batch { specs: body },
            cmd => cmd,
        };
        let resp = self.engine.dispatch(&mut self.session, cmd);
        resp.write_to(self.out).unwrap();
    }
}

/// `lo <= v & v <= hi` with endpoints `k/d` in the unit interval.
fn interval(rng: &mut SplitMix, v: &str) -> String {
    let d = *rng.pick(&[4, 5, 7, 12, 67]);
    let lo = rng.below(d);
    let hi = lo + 1 + rng.below(d - lo);
    format!("{lo}/{d} <= {v} & {v} <= {hi}/{d}")
}

/// A fraction `k/d` in `(0, 1)`.
fn frac(rng: &mut SplitMix) -> String {
    let d = *rng.pick(&[3u64, 8, 25, 36, 49]);
    format!("{}/{d}", 1 + rng.below(d - 1))
}

/// `PREPARE`s of the linear `a` (over `S`) and `b` (a projection of `B`)
/// and the polynomial `d` (a disk meeting `B`), then an `EXEC` of each of
/// `names` at the default and at a drawn (ε, δ).
fn prepare_exec(life: &mut Life, rng: &mut SplitMix, names: &[&str]) {
    life.send(&format!("PREPARE a S(x) & x >= {}", frac(rng)));
    life.send("PREPARE b exists y. (B(x, y) & y <= x)");
    life.send(&format!("PREPARE d B(x, y) & x*x + y*y <= {}", frac(rng)));
    for name in names {
        let (eps, delta) = (rng.pick(&[0.1, 0.05, 0.02]), rng.pick(&[0.1, 0.05]));
        life.send(&format!("EXEC {name}"));
        life.send(&format!("EXEC {name} {eps} {delta}"));
    }
}

/// A `BATCH` of `names`, each twice at (0.1, 0.1) and once at the default,
/// with an unknown name, an (ε, δ) past the sample cap and a malformed
/// spec among them.
fn batch(life: &mut Life, names: &[&str]) {
    let coarse: String = names.iter().map(|n| format!("\n{n} 0.1 0.1")).collect();
    let (plain, first) = (names.join("\n"), names[0]);
    life.send(&format!(
        "BATCH{coarse}\n{plain}\nnope\n{first} 0.00005 0.5\nd x{coarse}"
    ));
}

fn script(i: u64, rng: &mut SplitMix, out: &mut Vec<u8>) {
    let kind = KINDS[(i % 6) as usize];
    let caps: [u64; 4] = if kind == "budget" {
        [2, 5, 12, 40]
    } else {
        [20_000, 200_000, 20_000, 200_000]
    };
    let max_steps = *rng.pick(&caps);
    writeln!(out, "# script {i} {kind} max_steps={max_steps}").unwrap();
    // A 1-D union `S`, a box `B`, a query and a Σ-term over `S`'s endpoints.
    let (c, k) = (frac(rng), 1 + rng.below(3));
    let [s1, s2, by] = ["y"; 3].map(|v| interval(rng, v));
    let load = format!(
        "LOAD\nrel S(y) := ({s1}) | ({s2})\nrel B(x, y) := {} & {by}\nquery Q(x) := S(x) & x >= {c}\n\
         sum T(w) := w >= {c} | END[y. S(y)] ; xout . xout = {k}*w",
        interval(rng, "x")
    );
    let mut cfg = EngineConfig {
        timeout: None,
        max_steps: Some(max_steps),
        preload: (kind == "preload").then(|| load["LOAD\n".len()..].to_string()),
        ..EngineConfig::default()
    };
    let dir = tmpdir(&format!("transcript-{:x}", rng.0));
    if kind == "persist" {
        cfg.data_dir = Some(dir.clone());
    }
    let mut life = Life::new(&cfg, out);
    match kind {
        "program" | "budget" => {
            life.send(&load);
            life.send(&format!("LOAD rel S(y) := {}", interval(rng, "z")));
            prepare_exec(&mut life, rng, &["a", "b", "d", "a"]);
            life.send("SUM T");
            life.send(&format!("VOLUME S(x) | (B(x, y) & x + y <= {})", frac(rng)));
            life.send(&format!(
                "VOLUME exists y. B(x, y) & y >= {} * x",
                frac(rng)
            ));
            batch(&mut life, &["a", "d", "b"]);
        }
        "poly" => {
            for _ in 0..2 {
                life.send(&format!("VOLUME {}", corpus_formula(rng)));
            }
            let lens = lens_formula(rng.below(15), ["x", "v", "w"]);
            life.send(&format!("PREPARE lens {lens}"));
            life.send(&load);
            prepare_exec(&mut life, rng, &["lens", "d"]);
            batch(&mut life, &["d", "lens"]);
        }
        "preload" => {
            prepare_exec(&mut life, rng, &["a", "d"]);
            life.send("SUM T");
            life.session = life.engine.open_session();
            prepare_exec(&mut life, rng, &["a", "d"]);
        }
        "persist" => {
            life.send("PERSIST main");
            life.send(&load);
            prepare_exec(&mut life, rng, &["a", "d"]);
            drop(life);
            writeln!(out, "# restart").unwrap();
            let mut life = Life::new(&cfg, out);
            life.send("PERSIST main");
            prepare_exec(&mut life, rng, &["a", "b", "d"]);
            life.send("SUM T");
            drop(life);
            let _ = std::fs::remove_dir_all(&dir);
        }
        _ => {
            // The parser's nesting cap: past it, and just inside it.
            let x = format!("x > {}", frac(rng));
            let nest = |n| format!("{}{x}{}", "(".repeat(n), ")".repeat(n));
            let chain = |n| {
                (1..=n)
                    .map(|i| format!("exists y{i}. "))
                    .collect::<String>()
                    + &x
            };
            for q in [nest(1_000), chain(2_000), nest(127), chain(127), x.clone()] {
                life.send(&format!("VOLUME {q}"));
            }
            life.send(&format!("PREPARE deep {}", nest(1_000)));
            life.send(&format!("PREPARE p {x}"));
            life.send("BATCH\ndeep\np\np 0.1 0.1");
        }
    }
}
