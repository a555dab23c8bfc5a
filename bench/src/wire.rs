//! The wire path: an in-process engine behind `spawn_server`, driven
//! closed-loop over loopback TCP from this one thread, on one connection,
//! with one request frame in flight.

use crate::check::{check, field};
use crate::gen::{Plan, Request};
use cqa_engine::{
    read_response, spawn_server, Engine, EngineConfig, EngineStats, Response, ServerHandle,
};
use std::cell::Cell;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh boots timed for the `setup_s` of a warm workload: the fastest
/// quarter is three of them.
const WARM_SETUP_PASSES: usize = 12;

/// The engine every workload runs against: the defaults, a request timeout
/// no query of the benchmark comes near, and one worker. With one frame in
/// flight a second worker never runs beside the first; it only made the peak
/// resident set depend on which of the two workers' malloc arenas happened
/// to serve the set-up (6.0 or 7.8 MiB, run by run).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        timeout: Some(Duration::from_secs(60)),
        ..EngineConfig::default()
    }
}

/// A running server. Dropping it — on a normal return, a failed check or a
/// panic — sends `SHUTDOWN` and joins the serving thread, so no thread or
/// socket outlives a run.
pub struct Server {
    engine: Arc<Engine>,
    handle: Option<ServerHandle>,
}

impl Server {
    pub fn boot() -> io::Result<Server> {
        let engine = Arc::new(Engine::new(engine_config()));
        let handle = spawn_server(Arc::clone(&engine))?;
        Ok(Server {
            engine,
            handle: Some(handle),
        })
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server is running").addr()
    }

    /// Stops the server and reports how the serving thread ended.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        // On a connection of its own: the client's may be mid-frame.
        let ask = || Client::connect(handle.addr()).and_then(|mut c| c.call("SHUTDOWN\n"));
        let mut asked = ask();
        for _ in 0..2 {
            if asked.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            asked = ask();
        }
        // The serving thread ends only once it has read a SHUTDOWN: joining
        // one that never got it would hang. The error ends the run instead.
        asked?;
        handle.join()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The one client connection.
pub struct Client {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Client {
    /// Connects and reads the greeting.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let mut c = Client {
            r: BufReader::new(w.try_clone()?),
            w,
        };
        let greeting = c.recv()?;
        if !greeting.is_ok() {
            return Err(io::Error::other(format!("refused: {}", greeting.header)));
        }
        Ok(c)
    }

    pub fn send(&mut self, frame: &str) -> io::Result<()> {
        self.w.write_all(frame.as_bytes())
    }

    pub fn recv(&mut self) -> io::Result<Response> {
        read_response(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    /// One round trip: send, then read to the last byte of the reply.
    pub fn call(&mut self, frame: &str) -> io::Result<Response> {
        self.send(frame)?;
        self.recv()
    }
}

/// Requests attempted and failed, with the first few reasons, and what the
/// response headers of the round frames add up to.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// Completed requests of round frames.
    pub round_ops: u64,
    /// `EXEC` answers of round frames, and those tagged `status=approx`.
    pub execs: u64,
    pub approx: u64,
    /// Sums of the `steps=` and `samples=` fields of round frames.
    pub steps: u64,
    pub samples: u64,
    /// Process CPU time spent while rounds ran, in seconds.
    pub round_cpu_s: f64,
}

impl Tally {
    pub fn record(&mut self, req: &Request, resp: &Response, in_round: bool) {
        self.attempted += u64::from(req.ops);
        if let Err(why) = check(resp, &req.expect) {
            // A failed BATCH fails all its EXECs: no finer count is owed.
            self.failed += u64::from(req.ops);
            if self.reasons.len() < 5 {
                self.reasons.push(why);
            }
        }
        if in_round {
            self.round_ops += u64::from(req.ops);
            let batch = resp.header.starts_with("OK BATCH");
            let lines = std::iter::once(&resp.header).chain(&resp.body);
            for h in lines.skip(usize::from(batch)) {
                let number = |key| field(h, key).and_then(|v| v.parse::<u64>().ok());
                self.steps += number("steps").unwrap_or(0);
                self.samples += number("samples").unwrap_or(0);
                if let Some(status) = field(h, "status") {
                    self.execs += 1;
                    self.approx += u64::from(status == "approx");
                }
                if !batch {
                    break;
                }
            }
        }
    }
}

/// The engine's public counters that the per-layer metrics read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub subplan_hits: u64,
    pub subplan_misses: u64,
    /// Estimated resident bytes of the cache at the last reading.
    pub cache_bytes: u64,
    pub ir_nodes: u64,
    pub fast_lanes: u64,
    pub exact_lanes: u64,
    pub unsat_skips: u64,
    pub valid_skips: u64,
    pub box_skipped_lanes: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let (snap, s) = (engine.cache.snapshot(), &engine.stats);
        Counters {
            hits: snap.hits,
            misses: snap.misses,
            evictions: snap.evictions,
            subplan_hits: snap.subplan_hits,
            subplan_misses: snap.subplan_misses,
            cache_bytes: snap.bytes as u64,
            ir_nodes: EngineStats::get(&s.ir_nodes),
            fast_lanes: EngineStats::get(&s.batch_fast_lanes),
            exact_lanes: EngineStats::get(&s.batch_exact_lanes),
            unsat_skips: EngineStats::get(&s.absint_unsat_skips),
            valid_skips: EngineStats::get(&s.absint_valid_skips),
            box_skipped_lanes: EngineStats::get(&s.absint_box_skipped_lanes),
        }
    }

    /// Adds what `engine` counted since `before` was read.
    fn absorb(&mut self, engine: &Engine, before: Counters) {
        let now = Counters::read(engine);
        self.hits += now.hits - before.hits;
        self.misses += now.misses - before.misses;
        self.evictions += now.evictions - before.evictions;
        self.subplan_hits += now.subplan_hits - before.subplan_hits;
        self.subplan_misses += now.subplan_misses - before.subplan_misses;
        self.cache_bytes = now.cache_bytes;
        self.ir_nodes += now.ir_nodes - before.ir_nodes;
        self.fast_lanes += now.fast_lanes - before.fast_lanes;
        self.exact_lanes += now.exact_lanes - before.exact_lanes;
        self.unsat_skips += now.unsat_skips - before.unsat_skips;
        self.valid_skips += now.valid_skips - before.valid_skips;
        self.box_skipped_lanes += now.box_skipped_lanes - before.box_skipped_lanes;
    }
}

/// Boots a server, connects, and sends the plan's set-up frames pipelined —
/// all frames written, then all replies read, so the time is the server's
/// work and not a count of reactor wake-ups. Returns the time from boot to
/// the last set-up reply.
pub fn set_up(plan: &Plan, tally: &mut Tally) -> io::Result<(Server, Client, f64)> {
    let t0 = Instant::now();
    let server = Server::boot()?;
    let mut client = Client::connect(server.addr())?;
    let frames: String = plan.setup.iter().map(|r| r.text.as_str()).collect();
    client.send(&frames)?;
    for req in &plan.setup {
        let resp = client.recv()?;
        tally.record(req, &resp, false);
    }
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// What the timed phase measured. Every round of a run sends the same
/// number of frames and completes the same number of requests.
#[derive(Default)]
pub struct WireRun {
    /// Boot → last set-up reply of every set-up pass, in seconds.
    pub setups_s: Vec<f64>,
    /// Wall time of every timed round, in seconds.
    pub round_walls_s: Vec<f64>,
    /// Completed requests of one round.
    pub round_ops: u32,
    /// Send → last-byte latency of every frame of the timed rounds, round
    /// after round, in nanoseconds (a `u32` holds 4.29 s; no frame of any
    /// workload takes a tenth of that).
    pub latencies_ns: Vec<u32>,
    pub tally: Tally,
    /// What the engines counted during the timed rounds.
    pub counters: Counters,
}

impl WireRun {
    /// Sends one round closed-loop. A timed round adds its wall time, its
    /// frames' latencies, its response counts and the process CPU time it
    /// took; the warm-up round is only checked.
    fn round(
        &mut self,
        plan: &Plan,
        indices: &[usize],
        client: &mut Client,
        timed: bool,
    ) -> io::Result<()> {
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        for &i in indices {
            let req = &plan.pool[i];
            let sent = Instant::now();
            let resp = client.call(&req.text)?;
            let ns = sent.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
            self.tally.record(req, &resp, timed);
            if timed {
                self.latencies_ns.push(ns);
            }
        }
        if timed {
            self.round_walls_s.push(t0.elapsed().as_secs_f64());
            self.tally.round_cpu_s += cpu_seconds()? - cpu0;
        }
        Ok(())
    }
}

/// Runs the workload: set-up, one untimed warm-up round, then timed rounds
/// — the rounds of `fixed` when given, else whole rounds drawn from the
/// plan until `seconds` have passed.
pub fn run(plan: &mut Plan, seconds: f64, fixed: Option<&[Vec<usize>]>) -> io::Result<WireRun> {
    let mut run = WireRun::default();
    let t0 = Cell::new(Instant::now());
    let next = |plan: &mut Plan, done: usize| match fixed {
        Some(rounds) => rounds.get(done).cloned(),
        None => (t0.get().elapsed().as_secs_f64() < seconds).then(|| plan.next_round()),
    };
    let warm_up = match fixed {
        Some(rounds) => rounds[0].clone(),
        None => plan.next_round(),
    };
    run.round_ops = warm_up.iter().map(|&i| plan.pool[i].ops).sum();
    if plan.workload.is_cold() {
        // Warm-up: one whole round, set-up included, timed by nobody.
        let (server, mut client, _) = set_up(plan, &mut run.tally)?;
        run.round(plan, &warm_up, &mut client, false)?;
        server.stop()?;
        t0.set(Instant::now());
        while let Some(ix) = next(plan, run.round_walls_s.len()) {
            let (server, mut client, s) = set_up(plan, &mut run.tally)?;
            run.setups_s.push(s);
            run.round(plan, &ix, &mut client, true)?;
            run.counters.absorb(server.engine(), Counters::default());
            server.stop()?;
        }
    } else {
        let (server, mut client, s) = set_up(plan, &mut run.tally)?;
        run.setups_s.push(s);
        run.round(plan, &warm_up, &mut client, false)?;
        let before = Counters::read(server.engine());
        t0.set(Instant::now());
        while let Some(ix) = next(plan, run.round_walls_s.len()) {
            run.round(plan, &ix, &mut client, true)?;
            // The other set-up passes boot servers of their own between
            // rounds, spread over the run: the machine's speed moves in
            // phases of seconds, and passes bunched at the start would all
            // sit in one of them.
            let passes = run.setups_s.len();
            let due = seconds * passes as f64 / WARM_SETUP_PASSES as f64;
            if passes < WARM_SETUP_PASSES && t0.get().elapsed().as_secs_f64() >= due {
                let (other, _, s) = set_up(plan, &mut run.tally)?;
                run.setups_s.push(s);
                other.stop()?;
            }
        }
        run.counters.absorb(server.engine(), before);
        server.stop()?;
    }
    // Every workload fits the cache; an eviction means it no longer does.
    if run.counters.evictions > 0 {
        run.tally.failed += 1;
        let why = format!("{} cache evictions", run.counters.evictions);
        run.tally.reasons.push(why);
    }
    Ok(run)
}

/// User and system CPU time of this process so far, threads that have
/// exited included, in seconds (`/proc/self/stat`, in ticks of 10 ms).
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name may hold spaces; the numbers follow its `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<u64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    match ticks[..] {
        [user, system] => Ok((user + system) as f64 / 100.0),
        _ => Err(io::Error::other("no utime/stime in /proc/self/stat")),
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
