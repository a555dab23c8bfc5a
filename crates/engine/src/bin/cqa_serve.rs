//! `cqa-serve` — the constraint-query service daemon.
//!
//! ```text
//! cqa-serve [--addr HOST:PORT] [--workers N] [--max-sessions N]
//!           [--cache-bytes B] [--shards N] [--timeout-ms MS]
//!           [--max-steps N] [--eps E] [--delta D] [--idle-secs S]
//!           [--write-timeout-ms MS] [--max-body-bytes B]
//!           [--preload FILE.cqa] [--threaded]
//!           [--data-dir DIR] [--snapshot-every N]
//! ```
//!
//! Binds a TCP listener (default `127.0.0.1:0`, i.e. an ephemeral port),
//! prints `LISTENING <addr>` on stdout once ready, and serves the
//! `cqa-engine` wire protocol until a client sends `SHUTDOWN`. The
//! default front end is the event-driven reactor (idle sessions cost no
//! worker threads, pipelining and `BATCH` supported); `--threaded`
//! selects the legacy thread-per-connection loop, kept as the parity
//! oracle and benchmark baseline. A `--preload` program is run through
//! the same static-analysis gate as `cqa-lint` before the listener
//! opens; errors abort startup with the usual diagnostics.
//!
//! `--data-dir DIR` turns on durable storage: crash recovery
//! (snapshot + write-ahead-log replay) and the cache warm-start load run
//! *before* `LISTENING` is printed, so the first connection already sees
//! the recovered databases and a warm prepared-query cache; sessions
//! attach with `PERSIST <name>`. `--snapshot-every N` sets the
//! compaction cadence (default 64 WAL records).

use cqa_analyze::{lint_file, AnalyzerConfig};
use cqa_engine::{serve, serve_threaded, Engine, EngineConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cqa-serve [--addr HOST:PORT] [--workers N] [--max-sessions N] \
         [--cache-bytes B] [--shards N] [--timeout-ms MS] [--max-steps N] \
         [--eps E] [--delta D] [--idle-secs S] [--write-timeout-ms MS] \
         [--max-body-bytes B] [--preload FILE.cqa] [--threaded] \
         [--data-dir DIR] [--snapshot-every N]"
    );
    std::process::exit(2);
}

/// Exits 2, naming the flag, what it needs and the value it got.
fn bad_flag(flag: &str, what: &str, v: &str) -> ! {
    eprintln!("cqa-serve: {flag} needs {what}, got `{v}`");
    std::process::exit(2);
}

/// An integer flag's value: negative, fractional and non-numeric values are
/// refused, not truncated.
fn int<T: FromStr>(flag: &str, v: String) -> T {
    v.parse()
        .unwrap_or_else(|_| bad_flag(flag, "a non-negative integer", &v))
}

/// `--eps` / `--delta`: refused at startup unless in (0,1), the range every
/// `EXEC` and `VOLUME` would otherwise reject them against.
fn prob(flag: &str, v: String) -> f64 {
    match v.parse::<f64>() {
        Ok(p) if p > 0.0 && p < 1.0 => p,
        _ => bad_flag(flag, "a number in (0,1)", &v),
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut cfg = EngineConfig::default();
    let mut preload_path: Option<String> = None;
    let mut threaded = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("cqa-serve: {arg} needs an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value(),
            "--workers" => cfg.workers = int(&arg, value()),
            "--max-sessions" => cfg.max_sessions = int(&arg, value()),
            "--cache-bytes" => cfg.cache_bytes = int(&arg, value()),
            "--shards" => cfg.cache_shards = int(&arg, value()),
            "--timeout-ms" => cfg.timeout = Some(Duration::from_millis(int(&arg, value()))),
            "--max-steps" => cfg.max_steps = Some(int(&arg, value())),
            "--eps" => cfg.default_eps = prob(&arg, value()),
            "--delta" => cfg.default_delta = prob(&arg, value()),
            "--idle-secs" => cfg.idle_timeout = Duration::from_secs(int(&arg, value())),
            "--write-timeout-ms" => cfg.write_timeout = Duration::from_millis(int(&arg, value())),
            "--max-body-bytes" => cfg.max_body_bytes = int(&arg, value()),
            "--preload" => preload_path = Some(value()),
            "--data-dir" => cfg.data_dir = Some(value().into()),
            "--snapshot-every" => cfg.snapshot_every = int(&arg, value()),
            // Parity oracle: the thread-per-connection front end.
            "--threaded" => threaded = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if let Some(path) = &preload_path {
        // Same gate as `cqa-lint`: a program the linter rejects must not
        // silently become every session's preamble.
        let linted = match lint_file(path, &AnalyzerConfig::default()) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cqa-serve: {e}");
                return ExitCode::FAILURE;
            }
        };
        if linted.has_errors() {
            eprintln!("{}", linted.diagnostics());
            eprintln!("cqa-serve: --preload {path} rejected by the analyzer");
            return ExitCode::FAILURE;
        }
        cfg.preload = Some(linted.src);
    }

    // Recovery (when --data-dir is set) runs inside with_storage, before
    // the listener even binds: a client that sees LISTENING is guaranteed
    // fully recovered durable databases and a warm prepared-query cache.
    let engine = match Engine::with_storage(cfg) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("cqa-serve: storage recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cqa-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("LISTENING {local}");
    let result = if threaded {
        serve_threaded(engine, listener)
    } else {
        serve(engine, listener)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cqa-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
