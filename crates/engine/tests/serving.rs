//! End-to-end tests for the event-driven serving layer: pipelining
//! order/parity, shard-count bit-identity, idle-session scalability, the
//! non-blocking busy path, pipelined-burst latency on both front ends,
//! body caps over the wire, the parse caps on oversized terms,
//! warm-file shard-independence, a shared-stream `BATCH` that answers
//! what lone `EXEC`s do, and reply coalescing: a pipelined `LOAD` burst
//! answered in a few socket writes, and a ready reply that does not wait
//! behind a slow frame.

use cqa_engine::{parse_command, read_response, Command, Engine, EngineConfig};
use cqa_testkit::wire::{dispatch, strip, tmpdir, Client, QUERIES};
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pipelining soundness: a client fires a random command sequence
    /// without waiting for responses. Responses must come back exactly one
    /// per request, in request order (checked by `@k` tags), and each
    /// answer must be bit-identical to dispatching the same sequence
    /// serially on a fresh single-threaded engine.
    #[test]
    fn pipelined_responses_arrive_in_order_and_match_serial_dispatch(
        picks in proptest::collection::vec(0usize..QUERIES.len(), 1..12),
    ) {
        // The wire request lines, in order.
        let mut lines = Vec::new();
        for &i in &picks {
            let (name, src) = QUERIES[i];
            lines.push(format!("PREPARE {name} {src}"));
            lines.push(format!("EXEC {name}"));
        }
        // Serial oracle: a fresh engine, same lines, one at a time.
        let oracle = Engine::new(EngineConfig::default());
        let mut session = oracle.open_session();
        let expected: Vec<String> = lines
            .iter()
            .map(|l| {
                let cmd = parse_command(l).expect(l);
                strip(&oracle.dispatch(&mut session, cmd).header)
            })
            .collect();

        // Pipelined run: every request tagged and written before any
        // response is read.
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        }));
        let handle = cqa_engine::spawn_server(engine).unwrap();
        let mut c = Client::connect(handle.addr());
        for (k, line) in lines.iter().enumerate() {
            writeln!(c.w, "@{k} {line}").unwrap();
        }
        c.w.flush().unwrap();
        for (k, want) in expected.iter().enumerate() {
            let resp = c.read();
            let tag = format!("@{k} ");
            prop_assert!(
                resp.header.starts_with(&tag),
                "response {k} out of order: {resp:?}"
            );
            let got = strip(&resp.header[tag.len()..]);
            prop_assert_eq!(&got, want, "answer {} diverged from serial dispatch", k);
        }
        c.shutdown();
        handle.join().unwrap();
    }
}

/// Cache sharding must change contention, never answers or accounting:
/// the same workload against 1-, 2-, and 8-shard servers produces
/// bit-identical response transcripts and identical aggregate cache
/// statistics.
#[test]
fn shard_count_never_changes_answers_or_total_accounting() {
    let mut transcripts = Vec::new();
    for shards in [1usize, 2, 8] {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            cache_shards: shards,
            ..EngineConfig::default()
        }));
        let handle = cqa_engine::spawn_server(engine).unwrap();
        let mut c = Client::connect(handle.addr());
        let mut transcript = Vec::new();
        for round in 0..2 {
            for (name, src) in QUERIES {
                if round == 0 {
                    transcript.push(strip(&c.send(&format!("PREPARE {name} {src}")).header));
                }
                // Round 1 re-executes, so hits and misses both occur.
                let resp = c.send(&format!("EXEC {name}"));
                transcript.push(strip(&resp.header));
            }
        }
        // Aggregate cache accounting from STATS: entries, bytes, hits,
        // misses, evictions must not depend on the shard count.
        let stats = c.send("STATS");
        let cache_line = stats
            .body
            .iter()
            .find(|l| l.starts_with("cache "))
            .expect("STATS has a cache line")
            .clone();
        let accounting: Vec<&str> = cache_line
            .split_whitespace()
            .filter(|t| {
                ["entries=", "bytes=", "hits=", "misses=", "evictions="]
                    .iter()
                    .any(|p| t.starts_with(p))
            })
            .collect();
        transcript.push(accounting.join(" "));
        assert!(
            cache_line.contains(&format!("shards={shards}")),
            "{cache_line}"
        );
        c.shutdown();
        handle.join().unwrap();
        transcripts.push((shards, transcript));
    }
    let (_, reference) = &transcripts[0];
    for (shards, transcript) in &transcripts[1..] {
        assert_eq!(
            transcript, reference,
            "transcript diverged at cache_shards={shards}"
        );
    }
}

/// Warm queries for the shared-stream `BATCH` test: polynomial regions of
/// dimensions 1, 2 and 3 (the boxed disk's box prefilters its lanes), an
/// exact linear region, and one query no request warms.
const SHARED: &[(&str, &str)] = &[
    ("seg", "x*x <= 1/3"),
    ("disk", "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/25"),
    ("ring", "x*x + y*y <= 1/2 & x*x + y*y >= 1/9"),
    (
        "spot",
        "(x - 1/2)*(x - 1/2) + (y - 1/2)*(y - 1/2) <= 1/100 \
         & 2/5 <= x & x <= 3/5 & 2/5 <= y & y <= 3/5",
    ),
    ("ball", "x*x + y*y + z*z <= 1/4 & z <= 1/3"),
    ("band", "0 <= x & 0 <= y & x + y <= 1"),
    ("cold", "y*y <= x & x <= 1/2"),
];

/// One `STATS` line by its first word.
fn stats_line(c: &mut Client, prefix: &str) -> String {
    let stats = c.send("STATS");
    stats
        .body
        .into_iter()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("STATS has no `{prefix}` line"))
}

/// The counters `keys` of the `STATS` line that starts with `prefix`.
fn counters<const N: usize>(c: &mut Client, prefix: &str, keys: [&str; N]) -> [u64; N] {
    let line = stats_line(c, prefix);
    keys.map(|k| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(k))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {k} in `{line}`"))
    })
}

/// `streams=`, `sampled_lanes=` and `shared=` of the `mc` line.
fn mc_counters(c: &mut Client) -> [u64; 3] {
    counters(c, "mc ", ["streams=", "sampled_lanes=", "shared="])
}

/// A `BATCH` shares one sample stream among the kernels of each dimension
/// and sample count, and sweeps each distinct kernel of it once. Its body
/// must still be, byte for byte, what the same specs answer as lone
/// `EXEC`s on a twin engine — across dimensions 1–3, two ε, an exact
/// linear spec, a box-prefiltered one, duplicates, an unknown name and a
/// cold spec — and it must count the kernel and absint lanes of a third
/// twin that `EXEC`s each distinct spec once. A 16-spec `BATCH` at one ε
/// then draws one stream per `(dim, samples)` group, whatever the thread
/// count, and each of its lanes once.
#[test]
fn a_shared_stream_batch_answers_what_lone_execs_do() {
    let mixed = "disk 0.02 0.02\nseg 0.02 0.02\nball 0.02 0.02\nband\nspot 0.02 0.02\n\
                 ring 0.05 0.05\ndisk 0.05 0.05\nnosuch\ncold 0.02 0.02\ndisk 0.02 0.02\n\
                 seg 0.05 0.05\nspot 0.05 0.05\nring 0.02 0.02\nball 0.05 0.05\n";
    let same: String = [
        "disk", "ring", "spot", "seg", "ball", "disk", "ring", "spot",
    ]
    .iter()
    .cycle()
    .take(16)
    .map(|name| format!("{name} 0.03 0.03\n"))
    .collect();
    let boot = || {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }));
        let handle = cqa_engine::spawn_server(engine).unwrap();
        let mut c = Client::connect(handle.addr());
        for (name, src) in SHARED {
            assert!(c.send(&format!("PREPARE {name} {src}")).is_ok(), "{name}");
            if *name != "cold" {
                assert!(c.send(&format!("EXEC {name}")).is_ok(), "{name}");
            }
        }
        (handle, c)
    };
    let (batched_server, mut batched) = boot();
    let (lone_server, mut lone) = boot();
    let (once_server, mut once) = boot();
    for specs in [mixed, same.as_str()] {
        let before = mc_counters(&mut batched);
        let resp = batched.send(&format!("BATCH\n{specs}."));
        let after = mc_counters(&mut batched);
        let headers: Vec<String> = specs
            .lines()
            .map(|spec| lone.send(&format!("EXEC {spec}")).header)
            .collect();
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<&str> = specs.lines().filter(|s| seen.insert(*s)).collect();
        for spec in &distinct {
            once.send(&format!("EXEC {spec}"));
        }
        assert!(resp.is_ok(), "{resp:?}");
        assert_eq!(resp.body, headers);
        for prefix in ["kernel ", "absint "] {
            assert_eq!(
                stats_line(&mut batched, prefix),
                stats_line(&mut once, prefix)
            );
        }
        let [streams, lanes, shared] = [0, 1, 2].map(|i| after[i] - before[i]);
        if specs == same {
            // Three (dim, samples) groups: dimensions 1, 2 and 3, each
            // drawn once; five distinct specs answer all sixteen.
            assert_eq!(streams, 3);
            let samples: u64 = headers[0]
                .split_whitespace()
                .find_map(|t| t.strip_prefix("samples="))
                .and_then(|v| v.parse().ok())
                .expect("an approximate answer");
            assert_eq!(lanes, 3 * samples);
            assert_eq!(distinct.len(), 5);
            assert_eq!(shared, 11);
        } else {
            assert!(resp.body[7].starts_with("ERR "), "{resp:?}");
            assert!(resp.body[8].contains("cache=miss"), "{resp:?}");
            assert!(resp.body[3].contains("status=exact"), "{resp:?}");
            assert_eq!(shared, 1, "the second `disk 0.02 0.02`");
        }
    }
    for (c, server) in [
        (batched, batched_server),
        (lone, lone_server),
        (once, once_server),
    ] {
        c.shutdown();
        server.join().unwrap();
    }
}

/// The reactor's reason to exist: hundreds of open sessions served by a
/// worker pool they outnumber 100:1. Under thread-per-connection this
/// workload would reject all but `workers` clients; here every one
/// connects, idles, and still gets its query answered.
#[test]
fn hundreds_of_idle_sessions_cost_no_workers() {
    const CONNS: usize = 200;
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        max_sessions: CONNS + 8,
        ..EngineConfig::default()
    }));
    let handle = cqa_engine::spawn_server(Arc::clone(&engine)).unwrap();
    // Phase 1: open every connection before any command is sent. Each
    // greeting proves admission; the sessions then sit idle.
    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(handle.addr())).collect();
    // Phase 2: every idle session wakes up and runs a query; all must be
    // served by the 2 workers.
    for c in &mut clients {
        writeln!(c.w, "VOLUME 0 <= x & x <= 1/2").unwrap();
        c.w.flush().unwrap();
    }
    for c in &mut clients {
        let resp = c.read();
        assert!(resp.header.contains("value=1/2"), "{resp:?}");
    }
    let last = clients.pop().unwrap();
    drop(clients);
    last.shutdown();
    handle.join().unwrap();
}

/// Regression for the blocking-busy-write bug: clients rejected over the
/// session limit used to be answered with a *blocking* write from the
/// accept path, so one rejected client that never read could stall every
/// later accept. Now rejects are non-blocking: admitted sessions stay
/// fully served while a pile of unread rejects hangs around.
#[test]
fn unread_busy_rejections_do_not_stall_the_server() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        max_sessions: 1,
        ..EngineConfig::default()
    }));
    let handle = cqa_engine::spawn_server(Arc::clone(&engine)).unwrap();
    let mut admitted = Client::connect(handle.addr());
    // A crowd of over-limit connections that never read their rejection.
    let rejected: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    // The admitted session must still be served promptly — 20 commands
    // through a reactor that is simultaneously turning away the crowd.
    for _ in 0..20 {
        let resp = admitted.send("VOLUME 0 <= x & x <= 1/2");
        assert!(resp.header.contains("value=1/2"), "{resp:?}");
    }
    drop(rejected);
    // After the admitted session leaves, the freed slot must be reusable.
    let resp = admitted.send("CLOSE");
    assert!(resp.is_ok(), "{resp:?}");
    let mut next = None;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let Ok(Some(greeting)) = read_response(&mut r) else {
            continue;
        };
        if greeting.header.starts_with("ERR busy") {
            continue; // old session not reaped yet
        }
        assert!(greeting.is_ok(), "{greeting:?}");
        next = Some(Client {
            r,
            w: BufWriter::new(stream),
        });
        break;
    }
    next.expect("slot never freed after CLOSE").shutdown();
    handle.join().unwrap();
}

/// The program `cqa-e2e` loads at set-up, in its shape: 137 `rel`s
/// (thresholds, intervals, boxes, two-interval unions over a 7-bit prime
/// denominator) and three Σ-terms over the unions, one statement per
/// `LOAD` frame.
fn setup_program() -> Vec<String> {
    let d = 71;
    let mut stmts = Vec::new();
    let (mut bands, mut boxes, mut unions) = (0, 0, 0);
    for i in 0..137u64 {
        let k = i % 13;
        stmts.push(if i % 16 == 0 {
            bands += 1;
            format!(
                "rel B{bands:02}(x3) := {}/{d} <= x3 & x3 <= {}/{d}",
                8 + bands % 8,
                32 + k
            )
        } else if i % 16 == 8 {
            boxes += 1;
            format!(
                "rel P{boxes:02}(x3, x5) := {}/{d} <= x3 & x3 <= {}/{d} & {}/{d} <= x5 \
                 & x5 <= {}/{d}",
                8 + k % 8,
                32 + k,
                16 + k,
                48 + k
            )
        } else if i % 24 == 4 {
            unions += 1;
            format!(
                "rel U{unions:02}(x7) := ({}/{d} <= x7 & x7 <= {}/{d}) \
                 | ({}/{d} <= x7 & x7 <= {}/{d})",
                8 + k % 8,
                16 + k,
                32 + k,
                48 + k
            )
        } else {
            format!("rel H{i:03}(x3) := x3 <= {}/{d}", 32 + 2 * k)
        });
    }
    stmts.push("sum T0(w) := true | END[y. U01(y)] ; xout . xout = w".into());
    stmts.push(format!(
        "sum T1(w) := w >= 20/{d} | END[y. U02(y)] ; xout . xout = 2*w"
    ));
    stmts.push("sum T2(w) := true | END[y. U03(y)] ; xout . xout = w + 1".into());
    stmts
}

/// `replies=` and `writes=` of the `net` line.
fn net_counters(c: &mut Client) -> [u64; 2] {
    counters(c, "net ", ["replies=", "writes="])
}

/// `cqa-e2e`'s set-up pass: 140 one-statement `LOAD` frames in one client
/// write. The replies are, byte for byte and in order, what serial
/// `Engine::dispatch` renders; and they leave in a few socket writes — the
/// worker writes when its queue runs dry and the reactor once per pass —
/// not in one write per reply. An optimised build answers the burst within
/// two or three reactor passes, so at most 8 writes; an unoptimised one,
/// or one on a loaded host, spans more passes, and the bound is then one
/// write per millisecond-long pass the burst spanned, plus the pass that
/// read it and the worker's last write.
#[test]
fn a_pipelined_load_burst_is_answered_in_a_few_writes() {
    let stmts = setup_program();
    let oracle = Engine::new(EngineConfig::default());
    let mut session = oracle.open_session();
    let mut expected = Vec::new();
    for stmt in &stmts {
        let resp = oracle.dispatch(
            &mut session,
            Command::Load {
                program: Some(format!("{stmt}\n")),
            },
        );
        assert!(resp.is_ok(), "{stmt}: {resp:?}");
        resp.write_to(&mut expected).unwrap();
    }
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let handle = cqa_engine::spawn_server(engine).unwrap();
    let mut c = Client::connect(handle.addr());
    c.r.get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let before = net_counters(&mut c);
    let burst: String = stmts.iter().map(|s| format!("LOAD\n{s}\n.\n")).collect();
    let start = Instant::now();
    c.w.get_mut().write_all(burst.as_bytes()).unwrap();
    let mut got = vec![0; expected.len()];
    c.r.read_exact(&mut got).unwrap();
    let spanned = start.elapsed();
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&expected)
    );
    let after = net_counters(&mut c);
    // The first STATS reply is counted in between, and written alone.
    let replies = after[0] - before[0] - 1;
    let writes = after[1] - before[1] - 1;
    assert_eq!(replies, stmts.len() as u64);
    let passes = spanned.as_millis() as u64 + 4;
    assert!(
        writes <= passes.max(8),
        "{} replies took {writes} writes in {spanned:?}",
        stmts.len()
    );
    c.shutdown();
    handle.join().unwrap();
}

/// A reply that is ready waits at most one reactor pass for the frames
/// queued behind it: a cheap `VOLUME` pipelined ahead of a slow `BATCH` is
/// answered long before the `BATCH` is, although the worker only writes
/// once its queue runs dry.
#[test]
fn a_ready_reply_does_not_wait_for_the_slow_frame_behind_it() {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let handle = cqa_engine::spawn_server(engine).unwrap();
    let mut c = Client::connect(handle.addr());
    let resp = c.send("PREPARE disk x*x + y*y <= 1/2");
    assert!(resp.is_ok(), "{resp:?}");
    // The slow frame: a `BATCH` of `k` specs whose ε differ, so each draws
    // a sample stream of its own (≈ 294 000 lanes), with `k` doubled until
    // a lone one takes 300 ms in this build. One spec's ε alone cannot get
    // there in an optimised build without passing the sample cap.
    let mut k = 1;
    let slow = loop {
        let specs: String = (0..k)
            .map(|i| format!("disk {} 0.01\n", 0.003 + f64::from(i) * 1e-6))
            .collect();
        let batch = format!("BATCH\n{specs}.\n");
        let start = Instant::now();
        c.w.write_all(batch.as_bytes()).unwrap();
        c.w.flush().unwrap();
        let resp = c.read();
        assert!(resp.header.starts_with("OK BATCH"), "{resp:?}");
        assert!(resp.header.contains("errors=0"), "{resp:?}");
        if start.elapsed() >= Duration::from_millis(300) {
            break batch;
        }
        k *= 2;
    };
    let start = Instant::now();
    write!(c.w, "VOLUME 0 <= x & x <= 1/2\n{slow}").unwrap();
    c.w.flush().unwrap();
    let cheap = c.read();
    let cheap_at = start.elapsed();
    assert!(cheap.header.contains("value=1/2"), "{cheap:?}");
    let resp = c.read();
    let slow_at = start.elapsed();
    assert!(resp.header.starts_with("OK BATCH"), "{resp:?}");
    assert!(
        slow_at >= Duration::from_millis(200),
        "the slow frame took {slow_at:?}"
    );
    assert!(
        cheap_at < Duration::from_millis(100),
        "the cheap reply arrived after {cheap_at:?}, the slow one after {slow_at:?}"
    );
    c.shutdown();
    handle.join().unwrap();
}

/// Regression for Nagle's algorithm meeting the client's delayed ACK:
/// without `TCP_NODELAY` a burst of frames written at once gets its first
/// reply at once and every later one only after the client ACKs the first
/// (≥ 40 ms on Linux), on both front ends, whatever the burst size. With it
/// a burst takes what its frames cost: at most `size` single-frame round
/// trips on the same connection, plus 20 ms — half the shortest delayed
/// ACK — of slack, so the bound holds in a debug build too.
#[test]
fn pipelined_bursts_do_not_wait_for_a_delayed_ack() {
    type Spawn = fn(Arc<Engine>) -> std::io::Result<cqa_engine::ServerHandle>;
    let front_ends: [(&str, Spawn); 2] = [
        ("reactor", cqa_engine::spawn_server),
        ("threaded", cqa_engine::spawn_server_threaded),
    ];
    for (front_end, spawn) in front_ends {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        }));
        let handle = spawn(engine).unwrap();
        let mut c = Client::connect(handle.addr());
        let mut single = Duration::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let resp = c.send("VOLUME 0 <= x & x <= 1/2");
            assert!(resp.header.contains("value=1/2"), "{front_end}: {resp:?}");
            single = single.min(start.elapsed());
        }
        for size in [2, 16] {
            let burst = "VOLUME 0 <= x & x <= 1/2\n".repeat(size);
            let mut fastest = Duration::MAX;
            for _ in 0..5 {
                let start = Instant::now();
                c.w.get_mut().write_all(burst.as_bytes()).unwrap();
                for _ in 0..size {
                    let resp = c.read();
                    assert!(resp.header.contains("value=1/2"), "{front_end}: {resp:?}");
                }
                fastest = fastest.min(start.elapsed());
            }
            assert!(
                fastest < single * size as u32 + Duration::from_millis(20),
                "{front_end}: the fastest of five bursts of {size} frames took {fastest:?}, \
                 one frame {single:?}"
            );
        }
        c.shutdown();
        handle.join().unwrap();
    }
}

/// The body cap over the wire: a body one byte over the limit answers a
/// typed `ERR proto body too large` *and leaves the connection framed* —
/// the next pipelined command still parses; a body exactly at the limit
/// is accepted.
#[test]
fn body_cap_rejects_oversized_loads_but_keeps_the_connection_framed() {
    let program = "rel S(y) := 0 <= y & y <= 1/2";
    let limit = program.len() + 1; // stored with its trailing newline
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        max_body_bytes: limit,
        ..EngineConfig::default()
    }));
    let handle = cqa_engine::spawn_server(Arc::clone(&engine)).unwrap();
    let mut c = Client::connect(handle.addr());
    // One byte over: the comment pushes the body to limit+1 bytes.
    writeln!(c.w, "LOAD").unwrap();
    writeln!(c.w, "{program}#").unwrap();
    writeln!(c.w, ".").unwrap();
    c.w.flush().unwrap();
    let resp = c.read();
    assert_eq!(
        resp.header,
        format!("ERR proto body too large (limit={limit} bytes)"),
        "{resp:?}"
    );
    // The over-limit body was drained to its dot: the connection is still
    // framed and the next command is served normally.
    let resp = c.send("VOLUME 0 <= x & x <= 1/2");
    assert!(resp.header.contains("value=1/2"), "{resp:?}");
    // Exactly at the limit: accepted.
    writeln!(c.w, "LOAD").unwrap();
    writeln!(c.w, "{program}").unwrap();
    writeln!(c.w, ".").unwrap();
    c.w.flush().unwrap();
    let resp = c.read();
    assert!(resp.is_ok(), "{resp:?}");
    let resp = c.send("VOLUME S(x)");
    assert!(resp.header.contains("value=1/2"), "{resp:?}");
    c.shutdown();
    handle.join().unwrap();
}

/// A few bytes of `^` or `*` once held a worker for minutes: the parser
/// expanded them before any request budget existed. Each must now be an
/// `ERR parse` within 50 ms, under a short request timeout that parse time
/// would otherwise ignore. The requests run on a thread of their own so that
/// a regression fails this test instead of hanging it.
#[test]
fn oversized_terms_answer_err_parse_promptly() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let e = Engine::new(EngineConfig {
            timeout: Some(Duration::from_millis(200)),
            ..EngineConfig::default()
        });
        let mut s = e.open_session();
        for line in [
            "VOLUME x^20000000 > 1/2",
            "PREPARE q (x+1)^900 > 0",
            "VOLUME 2^60000 * x > 1",
        ] {
            let t = Instant::now();
            let r = dispatch(&e, &mut s, line);
            tx.send((line, r, t.elapsed())).unwrap();
        }
    });
    for _ in 0..3 {
        let (line, r, took) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a capped request is still running after 10 s");
        assert!(r.header.starts_with("ERR parse"), "{line}: {r:?}");
        assert!(took < Duration::from_millis(50), "{line}: took {took:?}");
    }
}

/// The warm-start file must be shard-count-independent: a cache persisted
/// by an 8-shard engine warm-starts a 1-shard engine (and vice versa)
/// with bit-identical answers served as hits.
#[test]
fn warm_file_written_by_eight_shards_boots_one_shard_bit_identically() {
    let dir = tmpdir("serving-warm");
    let mk = |shards: usize| {
        Engine::with_storage(EngineConfig {
            cache_shards: shards,
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
        .expect("storage opens")
    };
    let cold = {
        let e = mk(8);
        let mut s = e.open_session();
        assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
        assert!(dispatch(
            &e,
            &mut s,
            "PREPARE bump y <= x*x & 0 <= y & 0 <= x & x <= 1"
        )
        .is_ok());
        let r = dispatch(&e, &mut s, "EXEC bump");
        assert!(r.header.contains("cache=miss"), "{r:?}");
        strip(&r.header)
        // Dropped with no SHUTDOWN: the per-miss warm flush is the only
        // persistence.
    };
    let e = mk(1);
    let mut s = e.open_session();
    assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
    assert!(dispatch(
        &e,
        &mut s,
        "PREPARE bump y <= x*x & 0 <= y & 0 <= x & x <= 1"
    )
    .is_ok());
    let r = dispatch(&e, &mut s, "EXEC bump");
    assert!(
        r.header.contains("cache=hit"),
        "1-shard boot must hit the 8-shard warm file: {r:?}"
    );
    assert_eq!(strip(&r.header), cold, "warm answer diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
